"""Synthetic corpora calibrated to the paper's dataset statistics.

The paper evaluates on REUTERS, TREC and PAN-PC-10 (Table 1).  Those
corpora cannot be bundled here, so this module generates document
collections with the same *shape*: Zipf-distributed token frequencies
(the power-law the paper's partitioning idea relies on, Section 3.2),
matching document counts, lengths and vocabulary sizes — all scalable by
a single ``scale`` knob so benches run at laptop size.

Queries for the runtime experiments must actually contain local
replications (otherwise every algorithm degenerates to the no-result
fast path), so :func:`make_profile_collection` also splices obfuscated
segments of data documents into the generated queries via
:class:`~repro.corpus.plagiarism.PlagiarismInjector` and returns the
exact ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..errors import CorpusError
from ..tokenize import Vocabulary, WhitespaceTokenizer
from .collection import DocumentCollection
from .document import Document
from .plagiarism import (
    GroundTruthPair,
    ObfuscationLevel,
    PlagiarismInjector,
    shift_spans,
)


@dataclass(frozen=True)
class DatasetProfile:
    """Statistical profile of a dataset, after Table 1 of the paper.

    ``zipf_s`` is the exponent of the token frequency power law;
    natural-language corpora sit near 1.0-1.2.
    """

    name: str
    num_documents: int
    num_queries: int
    avg_doc_length: float
    avg_query_length: float
    vocabulary_size: int
    zipf_s: float = 1.05
    doc_length_cv: float = 0.35  # coefficient of variation of lengths
    min_doc_length: int = 100  # the paper drops docs shorter than 100 tokens

    def scaled(self, scale: float) -> "DatasetProfile":
        """Shrink (or grow) the profile by ``scale``.

        Document and query counts scale linearly; the vocabulary scales
        by sqrt(scale), following Heaps' law (vocabulary grows roughly
        with the square root of corpus size), so token frequency shapes
        stay realistic at small scales.  Document lengths are preserved
        (window behaviour depends on absolute length).
        """
        if scale <= 0:
            raise CorpusError(f"scale must be positive, got {scale}")
        return replace(
            self,
            num_documents=max(2, round(self.num_documents * scale)),
            num_queries=max(1, round(self.num_queries * scale)),
            vocabulary_size=max(200, round(self.vocabulary_size * scale**0.5)),
        )


#: Profiles copied from Table 1.  PAN's data documents average ~27K
#: tokens; the profile caps that at 4000 by default scaling in benches to
#: keep pure-Python runtimes sane — see DESIGN.md substitution notes.
DATASET_PROFILES: dict[str, DatasetProfile] = {
    "REUTERS": DatasetProfile(
        name="REUTERS",
        num_documents=7_791,
        num_queries=1_000,
        avg_doc_length=237.2,
        avg_query_length=231.1,
        vocabulary_size=33_260,
    ),
    "TREC": DatasetProfile(
        name="TREC",
        num_documents=185_666,
        num_queries=1_000,
        avg_doc_length=198.2,
        avg_query_length=214.1,
        vocabulary_size=148_244,
    ),
    "PAN": DatasetProfile(
        name="PAN",
        num_documents=10_483,
        num_queries=1_000,
        avg_doc_length=27_026.8,
        avg_query_length=721.6,
        vocabulary_size=1_846_623,
    ),
}


class SyntheticCorpusGenerator:
    """Generates token-id documents under a Zipf token distribution.

    All randomness flows from the seed passed at construction; two
    generators with the same profile and seed produce identical
    collections.
    """

    def __init__(self, profile: DatasetProfile, seed: int = 0) -> None:
        self.profile = profile
        self._rng = np.random.Generator(np.random.PCG64(seed))
        ranks = np.arange(1, profile.vocabulary_size + 1, dtype=np.float64)
        weights = ranks ** (-profile.zipf_s)
        self._cumulative = np.cumsum(weights / weights.sum())

    # ------------------------------------------------------------------
    def sample_tokens(self, length: int) -> list[int]:
        """Sample ``length`` token ids from the Zipf distribution."""
        uniforms = self._rng.random(length)
        ids = np.searchsorted(self._cumulative, uniforms, side="right")
        return ids.tolist()

    def sample_length(self, mean: float) -> int:
        """Sample a document length (normal, clipped at the minimum)."""
        stddev = mean * self.profile.doc_length_cv
        length = int(round(self._rng.normal(mean, stddev)))
        return max(self.profile.min_doc_length, length)

    def generate_data(self) -> DocumentCollection:
        """Generate the data collection (documents only, no queries)."""
        collection = self._empty_collection()
        for index in range(self.profile.num_documents):
            length = self.sample_length(self.profile.avg_doc_length)
            collection.add_token_ids(
                self.sample_tokens(length), name=f"{self.profile.name}-d{index}"
            )
        return collection

    def generate_queries(self, count: int | None = None) -> list[list[int]]:
        """Generate raw query token-id lists (before reuse injection)."""
        if count is None:
            count = self.profile.num_queries
        queries = []
        for _ in range(count):
            length = self.sample_length(self.profile.avg_query_length)
            queries.append(self.sample_tokens(length))
        return queries

    def _empty_collection(self) -> DocumentCollection:
        vocabulary = Vocabulary(
            f"t{index}" for index in range(self.profile.vocabulary_size)
        )
        return DocumentCollection(
            tokenizer=WhitespaceTokenizer(), vocabulary=vocabulary
        )


@dataclass(frozen=True)
class ReuseSpec:
    """How much replicated text to splice into query documents.

    ``cases_per_query`` segments of ``segment_length`` tokens each are
    copied from random data documents into each query, obfuscated at one
    of the ``levels`` (cycled round-robin for determinism).
    """

    cases_per_query: int = 1
    segment_length: int = 120
    levels: tuple[ObfuscationLevel, ...] = (
        ObfuscationLevel.NONE,
        ObfuscationLevel.LOW,
        ObfuscationLevel.HIGH,
        ObfuscationLevel.SIMULATED,
    )


def make_profile_collection(
    profile_name: str,
    scale: float = 1.0,
    seed: int = 0,
    reuse: ReuseSpec | None = None,
    num_queries: int | None = None,
) -> tuple[DocumentCollection, list[Document], list[GroundTruthPair]]:
    """One-stop workload factory used by examples and benchmarks.

    Returns ``(data, queries, ground_truth)``.  With the default
    ``reuse`` spec every query contains one obfuscated copy of a data
    segment, so runtime benches measure algorithms doing real matching
    work and quality benches have exact labels.  ``num_queries``
    overrides the (scaled) profile query count.
    """
    try:
        profile = DATASET_PROFILES[profile_name]
    except KeyError:
        known = ", ".join(sorted(DATASET_PROFILES))
        raise CorpusError(
            f"unknown profile {profile_name!r}; known profiles: {known}"
        ) from None
    profile = profile.scaled(scale)
    if reuse is None:
        reuse = ReuseSpec()

    generator = SyntheticCorpusGenerator(profile, seed=seed)
    data = generator.generate_data()
    raw_queries = generator.generate_queries(num_queries)

    injector = PlagiarismInjector(seed=seed + 1, vocabulary_size=len(data.vocabulary))
    queries: list[Document] = []
    ground_truth: list[GroundTruthPair] = []
    level_cycle = reuse.levels or (ObfuscationLevel.NONE,)
    case_index = 0
    for query_id, tokens in enumerate(raw_queries):
        query_truths: list[GroundTruthPair] = []
        for _ in range(reuse.cases_per_query):
            level = level_cycle[case_index % len(level_cycle)]
            case_index += 1
            tokens, truth = injector.splice_case(
                data,
                query_id,
                tokens,
                segment_length=reuse.segment_length,
                level=level,
            )
            if truth is not None:
                # Later insertions shift spans recorded for this query.
                lo, hi = truth.query_span
                query_truths = shift_spans(query_truths, query_id, lo, hi - lo + 1)
                query_truths.append(truth)
        ground_truth.extend(query_truths)
        queries.append(
            Document(query_id, tokens, name=f"{profile.name}-q{query_id}")
        )
    return data, queries, ground_truth

