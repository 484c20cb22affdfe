"""Shared workload builders and reporting helpers for the benchmarks.

Every benchmark runs on synthetic stand-ins for the paper's corpora (see
DESIGN.md, substitutions).  Scales are laptop-sized by default and can
be raised with the ``REPRO_BENCH_SCALE`` environment variable (a float
multiplier applied to every workload; 1.0 = defaults, 4.0 = 4x more
documents, closer to paper-shape runtimes).

Workloads are cached per (profile, scale, seed, reuse) within the pytest
process, so bench modules can share them without rebuilding.

Each bench prints paper-style tables (visible with ``pytest -s``) and
appends them to ``benchmarks/results/<experiment>.txt`` so the rows
survive pytest's output capture.
"""

from __future__ import annotations

import os
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

from repro.corpus.plagiarism import ObfuscationLevel
from repro.corpus.synthetic import (
    DATASET_PROFILES,
    ReuseSpec,
    SyntheticCorpusGenerator,
    make_profile_collection,
)
from repro.ordering import GlobalOrder

RESULTS_DIR = Path(__file__).parent / "results"

#: Global scale multiplier (documents / queries / vocabulary).
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: Base scales per profile, tuned so the whole suite runs in minutes.
BASE_SCALES = {
    "REUTERS": 0.008,   # ~62 docs, ~15k tokens
    "TREC": 0.0012,     # ~223 docs, ~44k tokens
    "PAN": 0.002,       # ~21 docs (length overridden below)
}

#: The PAN profile's 27k-token documents are reduced for pure-Python
#: runtimes; window behaviour only needs documents >> w.
PAN_DOC_LENGTH = 2_500.0
PAN_QUERY_LENGTH = 700.0

DEFAULT_NUM_QUERIES = 8


@lru_cache(maxsize=None)
def workload(
    profile_name: str,
    seed: int = 7,
    segment_length: int = 150,
    levels: tuple[ObfuscationLevel, ...] = (
        ObfuscationLevel.NONE,
        ObfuscationLevel.LOW,
        ObfuscationLevel.HIGH,
        ObfuscationLevel.SIMULATED,
    ),
    num_queries: int = DEFAULT_NUM_QUERIES,
):
    """(data, queries, ground_truth) for a profile at bench scale."""
    scale = BASE_SCALES[profile_name] * BENCH_SCALE
    data, queries, truth = make_profile_collection(
        profile_name,
        scale=scale,
        seed=seed,
        reuse=ReuseSpec(segment_length=segment_length, levels=levels),
        num_queries=num_queries,
    )
    return data, queries, truth


@lru_cache(maxsize=None)
def pan_workload(seed: int = 7, num_queries: int = 4, segment_length: int = 600):
    """PAN-style workload with reduced document lengths (see DESIGN.md)."""
    profile = replace(
        DATASET_PROFILES["PAN"].scaled(BASE_SCALES["PAN"] * BENCH_SCALE),
        avg_doc_length=PAN_DOC_LENGTH,
        avg_query_length=PAN_QUERY_LENGTH,
    )
    generator = SyntheticCorpusGenerator(profile, seed=seed)
    data = generator.generate_data()
    raw_queries = generator.generate_queries(num_queries)
    from repro.corpus import Document
    from repro.corpus.plagiarism import PlagiarismInjector

    injector = PlagiarismInjector(seed=seed + 1, vocabulary_size=len(data.vocabulary))
    queries = []
    truth = []
    for query_id, tokens in enumerate(raw_queries):
        tokens, pair = injector.splice_case(
            data, query_id, tokens, segment_length=segment_length,
            level=ObfuscationLevel.LOW,
        )
        if pair is not None:
            truth.append(pair)
        queries.append(Document(query_id, tokens, name=f"PAN-q{query_id}"))
    return data, queries, truth


@lru_cache(maxsize=None)
def order_for(profile_name: str, w: int, seed: int = 7) -> GlobalOrder:
    """Shared global order per (profile, w)."""
    data, _queries, _truth = workload(profile_name, seed=seed)
    return GlobalOrder(data, w)


def write_report(experiment: str, lines: list[str]) -> None:
    """Print a report and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = "\n".join(lines)
    print()
    print(text)
    path = RESULTS_DIR / f"{experiment}.txt"
    path.write_text(text + "\n")


def speedup(baseline_seconds: float, ours_seconds: float) -> str:
    if ours_seconds <= 0:
        return "inf"
    return f"{baseline_seconds / ours_seconds:.1f}x"
