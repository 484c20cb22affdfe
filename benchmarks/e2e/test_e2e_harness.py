"""Self-tests of the e2e benchmark harness, on the ``--tiny`` profile.

Run explicitly (tier-1's ``testpaths`` does not reach here)::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_harness.py -q

They check the harness, not the engine: seeded inputs, metric names
against ``BENCHMARK.json``, span accounting, that a wrong reply and a
missing trace target both fail the command, and ``compare.py`` verdicts.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

harness.require_repo()

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from oracle import Oracle  # noqa: E402

CONTRACT = harness.load_contract()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def result(workload: str, seed: int, trace: int) -> dict:
    path = harness.RESULTS / f"{workload}-seed{seed}-trace{trace}-tiny.json"
    return json.loads(path.read_text())


def tiny(workload: str, seed: int = 7, trace: int = 0) -> int:
    return run.main([
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--tiny",
    ])


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(name, tmp_path):
    digests = []
    for seed in (7, 7, 11):
        workload = workloads.make_workload(name, workloads.TINY, seed, tmp_path)
        workload.generate()
        digests.append(workload.input_digest())
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_same_seed_same_counts(capsys):
    assert tiny("search-reuse", trace=1) == 0
    first = result("search-reuse", 7, 1)["metrics"]
    assert tiny("search-reuse", trace=1) == 0
    second = result("search-reuse", 7, 1)["metrics"]
    counts = [e["name"] for e in CONTRACT["per_layer"] if e["unit"] == "count"]
    assert any(first[name]["value"] for name in counts)
    for name in counts:
        assert first[name]["value"] == second[name]["value"], name


# ----------------------------------------------------------------------
# Names and the contract
# ----------------------------------------------------------------------
def test_contract_names():
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in CONTRACT[key]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    assert tuple(e["name"] for e in CONTRACT["workloads"]) == workloads.WORKLOADS
    assert "setup_s" in {e["name"] for e in CONTRACT["end_to_end"]}
    assert all(0 < e["bound"] <= 0.25 for e in CONTRACT["end_to_end"])
    assert CONTRACT["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_last_line_has_exactly_the_contract_metrics(name, capsys):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        assert tiny(name, trace=trace) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(payload) == {"correct", "attempted", "failed", "metrics"}
        assert payload["correct"] is True and payload["failed"] == 0
        assert payload["attempted"] >= 1
        assert list(payload["metrics"]) == [e["name"] for e in CONTRACT[key]]
        units = {e["name"]: e["unit"] for e in CONTRACT[key]}
        for metric, entry in payload["metrics"].items():
            assert entry["unit"] == units[metric]
        if trace == 0:
            assert all(entry["value"] > 0 for entry in payload["metrics"].values())
        assert result(name, 7, trace)["comparable"] is False


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["search-routed", "ingest-mixed"])
def test_layer_self_times_sum_to_root_spans(name, capsys):
    assert tiny(name, trace=1) == 0
    record = result(name, 7, 1)
    assert record["span_root_seconds"] > 0
    assert record["span_self_seconds"] == pytest.approx(
        record["span_root_seconds"], rel=0.01
    )
    # The same from the span file: a span's self time is its seconds
    # minus its children's; roots are spans without a parent.
    spans = [
        json.loads(line)
        for line in (harness.RESULTS / record["spans_file"]).read_text().splitlines()
    ]
    children: dict[int, float] = {}
    for _sid, parent, *_rest, seconds in spans:
        if parent >= 0:
            children[parent] = children.get(parent, 0.0) + seconds
    self_total = sum(
        seconds - children.get(sid, 0.0) for sid, _parent, *_rest, seconds in spans
    )
    root_total = sum(seconds for _sid, parent, *_rest, seconds in spans if parent < 0)
    assert len({sid for sid, *_rest in spans}) == len(spans)
    assert self_total == pytest.approx(root_total, rel=0.01)
    assert record["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_missing_trace_target_fails_the_traced_pass(monkeypatch, capsys):
    gone = ("repro.core.verify", "IntervalVerifier", "no_such_method", "core.verify", "call")
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + [gone])
    assert tiny("search-reuse", trace=1) == run.EXIT_TRACE_TARGET
    captured = capsys.readouterr()
    assert "no_such_method" in captured.err
    assert not captured.out.strip().startswith("{")
    # and nothing stays wrapped behind
    from repro.core.verify import IntervalVerifier

    assert not hasattr(IntervalVerifier.verify_interval, "__wrapped__")


def test_wrappers_are_removed_after_a_traced_pass(capsys):
    from repro.index.compact import PackedRankDocs

    assert tiny("search-reuse", trace=1) == 0
    assert not hasattr(PackedRankDocs.__getitem__, "__wrapped__")


# ----------------------------------------------------------------------
# Correctness accounting
# ----------------------------------------------------------------------
def test_corrupted_expected_pairs_fail_the_run(monkeypatch, capsys):
    honest = workloads.SearchWorkload.expected

    def corrupted(self, op):
        return honest(self, op) + [(10**6, 0, 0, 50)]

    monkeypatch.setattr(workloads.SearchWorkload, "expected", corrupted)
    assert tiny("search-reuse") == run.EXIT_WRONG
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["correct"] is False
    assert payload["failed"] == payload["attempted"] > 0


def test_oracle_equals_brute_force_with_removals(tmp_path):
    from repro.baselines.bruteforce import BruteForceSearcher
    from repro.corpus import Document

    workload = workloads.make_workload("ingest-mixed", workloads.TINY, 3, tmp_path)
    workload.generate()
    documents = [doc.tokens for doc in workload.data]
    oracle = Oracle(documents, len(workload.data.vocabulary), workloads.W, workloads.TAU)
    truth = workload.truth[0]
    keep = sorted({truth.data_doc_id, 0, 1, 2})
    ndocs = max(keep) + 1
    removed = frozenset(d for d in range(ndocs) if d not in keep) | {keep[0]}
    survivors = [d for d in keep if d not in removed]
    tokens = workload.query_tokens[truth.query_id]
    brute = BruteForceSearcher(workload.data.subset(survivors), workload.params())
    want = sorted(
        (survivors[p.doc_id], p.data_start, p.query_start, p.overlap)
        for p in brute.search(Document(-1, tokens)).pairs
    )
    assert oracle.expected(tokens, ndocs=ndocs, removed=removed) == want


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------
def fake(workload, value, seed=1, trace=0, metric="op_latency_p50_ms", comparable=True):
    return {
        "workload": workload, "seed": seed, "trace": trace, "comparable": comparable,
        "metrics": {metric: {"value": value, "unit": "ms"}},
    }


def verdict(side_a, side_b, metric="op_latency_p50_ms", workload="search-reuse"):
    rows = compare.compare(CONTRACT, side_a, side_b)
    return next(
        r["verdict"] for r in rows
        if r["workload"] == workload and r["metric"] == metric
    )


def test_compare_verdicts():
    bound = {e["name"]: e["bound"] for e in CONTRACT["end_to_end"]}

    def runs(centre, metric="op_latency_p50_ms", wobble=0.01):
        return [
            fake("search-reuse", centre * (1 + wobble * k), metric=metric)
            for k in (-1, 0, 1, 2)
        ]

    latency = bound["op_latency_p50_ms"]
    steady = runs(100)
    assert verdict(steady, runs(100 * (1 + latency / 2))) == "ok"
    assert verdict(steady, runs(100 * (1 + latency + 0.05))) == "worse"
    noisy = runs(100, wobble=latency)  # quartiles further apart than the bound
    assert verdict(noisy, runs(105, wobble=latency)) == "unresolved"
    # wider than the bound, but every B run beats every A run
    assert verdict(noisy, runs(20, wobble=latency)) == "ok"
    # a workload skipped on one side, and a --tiny file
    assert verdict(steady, [], workload="serve-sharded") == "not-comparable"
    assert verdict(steady, [fake("search-reuse", 100, comparable=False)]) == "not-comparable"
    # higher is better
    rate = bound["ops_per_s"]
    fast = runs(10.0, "ops_per_s")
    slow = runs(10.0 * (1 - rate - 0.05), "ops_per_s")
    assert verdict(fast, slow, metric="ops_per_s") == "worse"
    assert verdict(slow, fast, metric="ops_per_s") == "ok"


def test_compare_counts_and_exit_code(tmp_path):
    def write(name, record):
        path = tmp_path / name
        path.write_text(json.dumps(record))
        return str(path)

    a = write("a.json", fake("search-reuse", 500, seed=7, trace=1, metric="core.hash_ops"))
    same = write("b.json", fake("search-reuse", 500, seed=7, trace=1, metric="core.hash_ops"))
    other = write("c.json", fake("search-reuse", 400, seed=7, trace=1, metric="core.hash_ops"))
    other_seed = fake("search-reuse", 400, seed=8, trace=1, metric="core.hash_ops")
    assert verdict([json.loads(Path(a).read_text())], [other_seed], "core.hash_ops") == "info"
    assert compare.main([a, "--", same, "--exact-counts"]) == 0
    assert compare.main([a, "--", other]) == 0
    assert compare.main([a, "--", other, "--exact-counts"]) == 1
    slow = write("slow.json", fake("search-reuse", 200))  # 2x: past any bound
    quick = write("quick.json", fake("search-reuse", 100))
    assert compare.main([quick, "--", slow]) == 1
    assert compare.main([slow, "--", quick]) == 0


# ----------------------------------------------------------------------
# Hygiene
# ----------------------------------------------------------------------
def test_no_temp_dirs_or_servers_left_behind(capsys):
    assert tiny("serve-sharded") == 0
    record = result("serve-sharded", 7, 0)
    assert record["serve_command"][1:4] == ["-m", "repro.cli", "serve"]
    assert {"git_commit", "nproc", "python", "numpy"} <= set(record["environment"])
    assert not [p for p in harness.RESULTS.iterdir() if p.is_dir()]
    listing = Path("/proc")
    serving = [
        p for p in listing.iterdir() if p.name.isdigit()
        and b"repro.cli\x00serve" in _cmdline(p)
        and str(harness.RESULTS).encode() in _cmdline(p)
    ]
    assert not serving


def _cmdline(process: Path) -> bytes:
    try:
        return (process / "cmdline").read_bytes()
    except OSError:
        return b""


def test_missing_source_tree_exits_2(tmp_path):
    import shutil
    import subprocess

    bare = tmp_path / "checkout"
    shutil.copytree(HERE, bare / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(harness.BENCHMARK_JSON, bare / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "search-reuse",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert not done.stdout.strip()
