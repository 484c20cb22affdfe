#!/usr/bin/env python
"""CI smoke for streaming ingestion: stream, SIGKILL mid-compaction, resume.

Exercises the crash-safety contract of the LSM write path end to end,
exactly as an operator would hit it:

1. generates a small deterministic corpus (fixed seed) as ``.txt``
   files in a temp dir, split into two arrival batches,
2. streams batch 1 through ``repro ingest --compact`` with a
   ``REPRO_FAULTS`` kill plan armed at the ``ingest.compact`` manifest
   phase — the process dies mid-compaction with the fault layer's
   kill exit code (87), after the segment file is written but before
   the manifest references it; every add record its WAL holds carries
   the ``text`` it was given,
3. resumes with a second ``repro ingest`` run (no faults): the WAL
   replays every acknowledged document, the orphaned segment from the
   killed compaction is swept, batch 2 streams in, one document is
   retracted, and a full compaction folds everything,
4. asserts the recovered store answers a fixed query set pair-for-pair
   identically to a one-shot build over the same final corpus,
5. asserts the compaction purged the retracted document's postings
   (``ingest.fold_postings_dropped > 0``),
6. snapshots the resume run's ingest metrics into a
   ``check_regression.py``-compatible record.

Two runs of this smoke on the same commit must agree counter for
counter (WAL records, replays, recovered orphans, fold counts, postings
merged and dropped by folds, result pairs); diff the records with
``check_regression.py --strict``.

Usage::

    PYTHONPATH=src python benchmarks/smoke_ingest.py --out smoke1.json
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _ensure_importable() -> None:
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(ROOT / "src"))


SEED = 20160626  # deterministic corpus => deterministic counters
BATCH1, BATCH2 = 12, 6
DOC_TOKENS = 220
VOCAB = 120
W, TAU, K_MAX = 12, 3, 2
RETRACTED = 3


def make_texts() -> list[str]:
    rng = random.Random(SEED)
    return [
        " ".join(f"t{rng.randrange(VOCAB)}" for _ in range(DOC_TOKENS))
        for _ in range(BATCH1 + BATCH2)
    ]


def write_batch(directory: Path, texts: list[str], offset: int) -> None:
    directory.mkdir(parents=True)
    for i, text in enumerate(texts):
        (directory / f"doc-{offset + i:04d}.txt").write_text(text)


def run_ingest(store: Path, data_dir: Path, *extra, env=None) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, "-m", "repro", "ingest",
        "--dir", str(store), "--data", str(data_dir),
        "-w", str(W), "--tau", str(TAU), "--k-max", str(K_MAX),
        *extra,
    ]
    full_env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    if env:
        full_env.update(env)
    return subprocess.run(cmd, capture_output=True, text=True, env=full_env, timeout=300)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--out", type=Path, required=True,
                        help="metrics record for check_regression.py")
    args = parser.parse_args()
    _ensure_importable()

    from repro import Index, SearchParams
    from repro.core.pkwise import PKWiseSearcher
    from repro.corpus import DocumentCollection
    from repro.faults import KILL_EXIT_CODE, FaultPlan, FaultSpec
    from repro.ingest import read_wal, wal_generations

    texts = make_texts()
    with tempfile.TemporaryDirectory(prefix="smoke_ingest_") as tmp:
        tmp_path = Path(tmp)
        store = tmp_path / "store"
        write_batch(tmp_path / "batch1", texts[:BATCH1], 0)
        write_batch(tmp_path / "batch2", texts[BATCH1:], BATCH1)

        # --- leg 1: stream batch 1, die mid-compaction ----------------
        plan_path = tmp_path / "kill_compact.json"
        FaultPlan([
            FaultSpec(point="ingest.compact", kind="kill",
                      match={"phase": "manifest"}),
        ]).to_json_file(plan_path)
        crash = run_ingest(
            store, tmp_path / "batch1", "--compact",
            env={"REPRO_FAULTS": str(plan_path)},
        )
        if crash.returncode != KILL_EXIT_CODE:
            print(
                f"FAIL: crash leg exited {crash.returncode}, "
                f"expected {KILL_EXIT_CODE}\n{crash.stderr}",
                file=sys.stderr,
            )
            return 1
        orphans = list(store.glob("segment.g*.idx"))
        logged = [
            record
            for _gen, path in wal_generations(store)
            for record in read_wal(path)[0]
        ]
        print(
            f"leg 1: killed mid-compaction (exit {crash.returncode}), "
            f"{len(orphans)} orphaned segment file(s) on disk, "
            f"{len(logged)} WAL record(s)"
        )
        if len(logged) != BATCH1 or any(
            record["op"] != "add" or not isinstance(record.get("text"), str)
            for record in logged
        ):
            print(f"FAIL: the killed run's WAL should hold {BATCH1} add "
                  f"records, each carrying its text", file=sys.stderr)
            return 1

        # --- leg 2: resume, stream batch 2, retract, compact ----------
        metrics_path = tmp_path / "ingest_metrics.json"
        resume = run_ingest(
            store, tmp_path / "batch2",
            "--remove", str(RETRACTED), "--compact",
            "--metrics-out", str(metrics_path),
        )
        if resume.returncode != 0:
            print(f"FAIL: resume leg exited {resume.returncode}\n"
                  f"{resume.stderr}", file=sys.stderr)
            return 1
        print("leg 2: resumed, replayed WAL, ingested batch 2, compacted")

        # --- leg 3: pair parity against a one-shot build --------------
        streamed = Index.open_live(store)
        one_shot_data = DocumentCollection()
        for doc_id, text in enumerate(texts):
            one_shot_data.add_tokens(text.split(), name=f"doc-{doc_id:04d}")
        params = SearchParams(w=W, tau=TAU, k_max=K_MAX)
        one_shot = Index(PKWiseSearcher(one_shot_data, params), one_shot_data)
        one_shot.remove(RETRACTED)

        rng = random.Random(SEED + 1)
        query_texts = [
            # passages lifted from both batches, plus a random probe
            " ".join(texts[5].split()[40:110]),
            " ".join(texts[BATCH1 + 2].split()[10:90]),
            " ".join(f"t{rng.randrange(VOCAB)}" for _ in range(80)),
        ]
        pair_counts = []
        for qid, text in enumerate(query_texts):
            got = sorted(tuple(p) for p in streamed.search_text(text).pairs)
            want = sorted(tuple(p) for p in one_shot.search_text(text).pairs)
            if got != want:
                print(
                    f"FAIL: query {qid} drifted: streamed {len(got)} pairs "
                    f"vs one-shot {len(want)}",
                    file=sys.stderr,
                )
                return 1
            if any(pair[0] == RETRACTED for pair in got):
                print(f"FAIL: query {qid} surfaced retracted doc "
                      f"{RETRACTED}", file=sys.stderr)
                return 1
            pair_counts.append(len(got))
        docs_total = streamed.searcher().store.next_doc_id
        streamed.close()

        # --- record: resume-leg ingest counters + result shape --------
        ingest_metrics = json.loads(metrics_path.read_text())["metrics"]
        recovered = ingest_metrics["counters"].get(
            "ingest.recovered_orphans", 0
        )
        print(
            f"leg 3: {docs_total} docs recovered, pair parity on "
            f"{len(query_texts)} queries {pair_counts}, "
            f"orphans swept at resume: {recovered}"
        )
        if docs_total != BATCH1 + BATCH2:
            print(f"FAIL: expected {BATCH1 + BATCH2} documents, "
                  f"got {docs_total}", file=sys.stderr)
            return 1
        if recovered < 1:
            print("FAIL: the killed compaction left a segment file the "
                  "resume leg should have swept", file=sys.stderr)
            return 1
        replayed = ingest_metrics["counters"].get("ingest.wal_replayed", 0)
        if replayed != len(logged):
            print(f"FAIL: the resume leg replayed {replayed} WAL records, "
                  f"the killed run left {len(logged)}", file=sys.stderr)
            return 1
        # The resume leg's compaction merges tier columns; the retracted
        # document's postings must be masked out, and both fold counters
        # ride in the record the determinism step diffs.
        merged = ingest_metrics["counters"].get("ingest.fold_postings_merged", 0)
        dropped = ingest_metrics["counters"].get("ingest.fold_postings_dropped", 0)
        print(f"folds merged {merged} postings, dropped {dropped}")
        if merged < 1 or dropped < 1:
            print("FAIL: the compaction after the retraction should have "
                  "merged postings and dropped the retracted document's",
                  file=sys.stderr)
            return 1
        for qid, count in enumerate(pair_counts):
            ingest_metrics["gauges"][f"smoke.query_{qid}_pairs"] = count
        ingest_metrics["gauges"]["smoke.recovered_orphans"] = recovered
        record = {
            "config": {
                "profile": "ingest-smoke",
                "num_documents": BATCH1 + BATCH2,
                "num_queries": len(query_texts),
                "w": W,
                "tau": TAU,
                "k_max": K_MAX,
            },
            "serial": {"metrics": ingest_metrics},
        }
        args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"wrote metrics record to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
