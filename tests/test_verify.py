"""Tests for rolling interval verification (Section 4.3)."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.verify import IntervalVerifier
from repro.index.compact import PackedRankDocs
from repro.windows.rolling import window_overlap

from .conftest import slice_accessor


def reference_matches(doc_ranks, query_ranks, query_start, u, v, w, tau, doc_id=0):
    out = []
    query_window = query_ranks[query_start : query_start + w]
    for j in range(u, v + 1):
        overlap = window_overlap(doc_ranks[j : j + w], query_window)
        if w - overlap <= tau:
            out.append((doc_id, j, query_start, overlap))
    return out


class TestVerifyInterval:
    def test_single_window_match(self):
        verifier = IntervalVerifier([1, 2, 3], w=3, tau=0)
        matches = verifier.verify_interval(0, slice_accessor([[1, 2, 3]]), 0, 0)
        assert [tuple(match) for match in matches] == [(0, 0, 0, 3)]

    def test_single_window_miss(self):
        verifier = IntervalVerifier([1, 2, 3], w=3, tau=0)
        assert verifier.verify_interval(0, slice_accessor([[4, 5, 6]]), 0, 0) == []

    def test_advance_to_rolls_query(self):
        query_ranks = [1, 2, 3, 4, 5]
        verifier = IntervalVerifier(query_ranks, w=3, tau=0)
        verifier.advance_to(2)
        matches = verifier.verify_interval(0, slice_accessor([[3, 4, 5]]), 0, 0)
        assert len(matches) == 1
        assert matches[0].query_start == 2

    def test_advance_backwards_raises(self):
        verifier = IntervalVerifier([1, 2, 3, 4], w=2, tau=0)
        verifier.advance_to(2)
        with pytest.raises(ValueError):
            verifier.advance_to(1)

    def test_advance_to_last_window_succeeds(self):
        # len=10, w=4: window starts 0..6; advancing exactly to the
        # last one must work.
        verifier = IntervalVerifier(list(range(10)), w=4, tau=0)
        verifier.advance_to(6)
        assert verifier.query_start == 6

    def test_advance_past_last_window_raises_repro_error(self):
        # Regression: this used to surface as a bare IndexError from
        # ``ranks[start + w]`` deep inside the slide loop.
        from repro.errors import ReproError

        verifier = IntervalVerifier(list(range(10)), w=4, tau=0)
        with pytest.raises(ReproError) as excinfo:
            verifier.advance_to(7)
        message = str(excinfo.value)
        assert "7" in message  # the offending target window
        assert "6" in message  # the last valid window start
        # The verifier state is untouched by the rejected advance.
        assert verifier.query_start == 0
        verifier.advance_to(6)

    def test_advance_far_past_end_raises_not_index_error(self):
        from repro.errors import ReproError

        verifier = IntervalVerifier(list(range(8)), w=3, tau=1)
        with pytest.raises(ReproError):
            verifier.advance_to(100)

    def test_hash_ops_grow_with_work(self):
        verifier = IntervalVerifier([1, 2, 3, 4, 5], w=3, tau=2)
        before = verifier.hash_ops
        verifier.verify_interval(0, slice_accessor([[1, 2, 3, 4, 5]]), 0, 2)
        assert verifier.hash_ops > before


def zipfian(rng, length, universe=30):
    """``length`` ranks with Zipfian frequencies (rank k weighs 1/(k+1))."""
    weights = [1 / (k + 1) for k in range(universe)]
    return rng.choices(range(universe), weights, k=length)


def stride(length, step, modulus):
    return [(i * step) % modulus for i in range(length)]


class TestVerifierAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 1_000_000),
        tau_pick=st.sampled_from(["0", "5", "w - 1"]),
        shape=st.sampled_from(["random", "one window", "to the last window"]),
    )
    def test_accepts_exactly_what_window_overlap_accepts(self, seed, tau_pick, shape):
        rng = random.Random(seed)
        w = rng.randint(1, 12)
        tau = {"0": 0, "5": min(5, w - 1), "w - 1": w - 1}[tau_pick]
        query_ranks = zipfian(rng, w + rng.randint(0, 12))
        query_start = rng.randint(0, len(query_ranks) - w)
        doc_ranks = zipfian(rng, w + rng.randint(0, 40))
        if rng.random() < 0.5:  # reuse: the query window, one rank changed
            copy = query_ranks[query_start : query_start + w]
            copy[rng.randrange(w)] = 99
            at = rng.randint(0, len(doc_ranks) - w)
            doc_ranks[at : at + w] = copy
        last_window = len(doc_ranks) - w
        u = rng.randint(0, last_window)
        v = {
            "random": rng.randint(u, last_window),
            "one window": u,
            "to the last window": last_window,
        }[shape]
        want = reference_matches(
            doc_ranks, query_ranks, query_start, u, v, w, tau, doc_id=1
        )
        counts = set()
        docs = [[], doc_ranks]
        for container in (docs, PackedRankDocs.from_lists(docs)):
            verifier = IntervalVerifier(query_ranks, w, tau)
            verifier.advance_to(query_start)
            got = verifier.verify_interval(1, slice_accessor(container), u, v)
            assert [tuple(match) for match in got] == want
            counts.add((verifier.hash_ops, verifier.candidate_windows))
        assert len(counts) == 1  # one kernel: same work on both containers

    # hash_ops / candidate_windows of one call, written down from the
    # commit before verify_interval read slices (c76bb46): Eq. 4's
    # operations are 2w for the first window and 4 per rolled change,
    # however the implementation gets there.
    COUNTED = [
        # w, tau, query, query_start, doc, u, v -> hash_ops, windows, pairs
        # Nothing shared: the first miss by w - tau skips to 10 of 90 windows.
        (10, 1, list(range(10)), 0, list(range(100, 200)), 0, 89, 344, 10, 0),
        (6, 1, stride(20, 7, 11), 3, stride(40, 7, 11), 0, 34, 148, 22, 9),
        (8, 2, stride(30, 5, 13), 4,
         stride(30, 3, 17) + stride(30, 5, 13) + stride(20, 3, 17), 0, 72,
         292, 43, 19),
        (5, 0, [4, 1, 3, 1, 2, 9], 0, [9, 9, 1, 1, 2, 3, 4, 9], 2, 2, 10, 1, 1),
        # Period w: no slide changes the window, nothing is rolled.
        (4, 3, [1, 2, 3, 4, 5, 6], 1, [2, 5, 8, 9] * 6, 0, 20, 8, 21, 21),
    ]

    @pytest.mark.parametrize(
        "w, tau, query, query_start, doc, u, v, hash_ops, windows, pairs", COUNTED
    )
    def test_counts_do_not_move(
        self, w, tau, query, query_start, doc, u, v, hash_ops, windows, pairs
    ):
        verifier = IntervalVerifier(query, w, tau)
        verifier.advance_to(query_start)
        before = verifier.hash_ops
        got = verifier.verify_interval(0, slice_accessor([doc]), u, v)
        assert [tuple(match) for match in got] == reference_matches(
            doc, query, query_start, u, v, w, tau
        )
        assert (
            verifier.hash_ops - before, verifier.candidate_windows, len(got)
        ) == (hash_ops, windows, pairs)

    def test_first_window_out_of_reach_ends_the_interval(self, monkeypatch):
        # Overlap grows by at most 1 a slide: a first window missing by
        # more than v - u rules the whole interval out, before its
        # change positions are looked for.
        w, tau = 10, 1
        doc_ranks = list(range(100, 130))
        verifier = IntervalVerifier(list(range(12)), w, tau)
        before = verifier.hash_ops

        def unreachable(*_args):
            raise AssertionError("change positions built for a dead interval")

        monkeypatch.setattr("repro.core.verify.compress", unreachable)
        # deficit = w - tau - 0 = 9 > v - u = 8
        assert verifier.verify_interval(0, slice_accessor([doc_ranks]), 0, 8) == []
        assert verifier.candidate_windows == 1
        assert verifier.hash_ops - before == 2 * w

        # On the carried state the exit costs lookups only: the segment
        # is not cut again, and there is still no change list.
        def no_slice(*_args):
            raise AssertionError("a carried interval read its ranks again")

        verifier.advance_to(1)
        before = verifier.hash_ops
        assert verifier.verify_interval(0, no_slice, 0, 8) == []
        assert verifier.verify_carried == 1
        assert verifier.candidate_windows == 2
        assert verifier.hash_ops - before == 2 * w
        # One window further the jump lands inside: the roll is reached.
        with pytest.raises(AssertionError, match="dead interval"):
            verifier.verify_interval(0, slice_accessor([doc_ranks]), 0, 9)


def fresh_answer(query_ranks, w, tau, query_start, rank_slice, interval):
    """One call on a verifier that has seen nothing else:
    ``(pairs, hash_ops spent, candidate_windows)``."""
    verifier = IntervalVerifier(query_ranks, w, tau)
    verifier.advance_to(query_start)
    before = verifier.hash_ops
    doc_id, u, v = interval
    pairs = verifier.verify_interval(doc_id, rank_slice, u, v)
    return pairs, verifier.hash_ops - before, verifier.candidate_windows


def carried_case(rng, tau_pick, alphabet, query_slides):
    """``(w, tau, query_ranks, docs)``: a query of ``w + query_slides``
    ranks holding a run of slides that change nothing, and three
    documents, most of them reusing a stretch of it."""
    w = rng.randint(6, 10)
    tau = {"0": 0, "5": 5, "w - 1": w - 1}[tau_pick]
    if alphabet == "4":
        draw = lambda length: [rng.randrange(4) for _ in range(length)]
    else:
        draw = lambda length: zipfian(rng, length)
    query_ranks = draw(w + query_slides)
    # A run of slides that change nothing: ranks[p] == ranks[p + w].
    at = rng.randrange(len(query_ranks) - w)
    for p in range(at, min(at + rng.randint(1, w), len(query_ranks) - w)):
        query_ranks[p + w] = query_ranks[p]
    docs = [draw(w + rng.randint(0, 40)) for _ in range(3)]
    for doc_ranks in docs:  # reuse: a stretch of the query
        if rng.random() < 0.7:
            length = rng.randint(w, min(len(doc_ranks), len(query_ranks)))
            src = rng.randint(0, len(query_ranks) - length)
            dst = rng.randint(0, len(doc_ranks) - length)
            doc_ranks[dst : dst + length] = query_ranks[src : src + length]
    return w, tau, query_ranks, docs


def live_intervals(rng, w, query_ranks, docs):
    """``(query_start, live, verified)`` for every query window: each
    interval persists, grows, shrinks or vanishes from one window to the
    next, a vanished one may return with the same extent, and some
    windows are verified by nobody (the next advance jumps)."""

    def some_interval():
        doc_id = rng.randrange(len(docs))
        u = rng.randint(0, len(docs[doc_id]) - w)
        return doc_id, u, rng.randint(u, len(docs[doc_id]) - w)

    def moved(interval):
        # persists / grows / shrinks; None = vanishes
        doc_id, u, v = interval
        move = rng.choice(["stay", "stay", "grow", "shrink", "vanish"])
        if move == "grow":
            return doc_id, max(0, u - rng.randint(0, 2)), min(
                len(docs[doc_id]) - w, v + rng.randint(0, 3)
            )
        if move == "shrink" and v > u:
            return doc_id, u + 1, v
        return None if move == "vanish" else interval

    live = {some_interval() for _ in range(rng.randint(1, 4))}
    gone = []
    for query_start in range(len(query_ranks) - w + 1):
        after = {moved(interval) for interval in live}
        gone.extend(live - after)
        if gone and rng.random() < 0.3:
            after.add(rng.choice(gone))  # returns with the same extent
        if rng.random() < 0.2:
            after.add(some_interval())
        live = after - {None}
        yield query_start, live, bool(live) and rng.random() >= 0.15


class TestCarriedState:
    """What the verifier keeps per interval between query windows changes
    the cost of a call, never its answer or its abstract counts."""

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 1_000_000),
        tau_pick=st.sampled_from(["0", "5", "w - 1"]),
        alphabet=st.sampled_from(["4", "zipfian"]),
        packed=st.booleans(),
        prune=st.booleans(),
    )
    def test_every_call_equals_a_fresh_verifier(
        self, seed, tau_pick, alphabet, packed, prune
    ):
        rng = random.Random(seed)
        w, tau, query_ranks, docs = carried_case(
            rng, tau_pick, alphabet, query_slides=rng.randint(4, 30)
        )
        rank_slice = slice_accessor(
            PackedRankDocs.from_lists(docs) if packed else docs
        )
        carried = IntervalVerifier(query_ranks, w, tau)
        held = set()  # intervals the verifier has a state for
        expect_carried = 0
        for query_start, live, verified in live_intervals(rng, w, query_ranks, docs):
            if prune:
                carried.retain(live)
                held &= live
                assert set(carried._states) == held
            if not verified:
                continue
            carried.advance_to(query_start)
            # The query-side table is its definition: no zero, no
            # negative, no leftover key.
            assert carried._query_counts == dict(
                Counter(query_ranks[query_start : query_start + w])
            )
            for interval in sorted(live):
                want = fresh_answer(
                    query_ranks, w, tau, query_start, rank_slice, interval
                )
                ops = carried.hash_ops
                windows = carried.candidate_windows
                doc_id, u, v = interval
                got = carried.verify_interval(doc_id, rank_slice, u, v)
                assert (
                    got, carried.hash_ops - ops, carried.candidate_windows - windows
                ) == want
            expect_carried += len(live & held)
            held |= live
        assert carried.verify_carried == expect_carried

    def test_a_stale_stamp_is_recomputed_not_replayed(self):
        # Window 0 -> 1 swaps 9 for 1 (overlap with [1, 2, 3]: 2 -> 3),
        # window 1 -> 2 swaps 2 for 5 (3 -> 2).  Replaying the second
        # slide alone on the overlap of window 0 would read 1 and miss
        # the pair that window 2 holds at tau = 1.
        w, tau = 3, 1
        query_ranks = [9, 2, 3, 1, 5, 6]
        rank_slice = slice_accessor([[1, 2, 3]])
        verifier = IntervalVerifier(query_ranks, w, tau)
        assert [tuple(m) for m in verifier.verify_interval(0, rank_slice, 0, 0)] == [
            (0, 0, 0, 2)
        ]
        verifier.advance_to(1)  # nobody verifies window 1
        verifier.advance_to(2)
        got = verifier.verify_interval(0, rank_slice, 0, 0)
        assert [tuple(m) for m in got] == [(0, 0, 2, 2)]
        assert got == fresh_answer(query_ranks, w, tau, 2, rank_slice, (0, 0, 0))[0]
        assert verifier.verify_carried == 1  # carried segment, recomputed overlap
        # Verified twice in one window: nothing is replayed twice.
        assert verifier.verify_interval(0, rank_slice, 0, 0) == got
        # One advance over several windows replays every change in it.
        jumped = IntervalVerifier(query_ranks, w, tau)
        jumped.verify_interval(0, rank_slice, 0, 0)
        jumped.advance_to(2)
        assert jumped.verify_interval(0, rank_slice, 0, 0) == got
        verifier.advance_to(3)
        jumped.advance_to(3)
        assert (
            verifier.verify_interval(0, rank_slice, 0, 0)
            == jumped.verify_interval(0, rank_slice, 0, 0)
            == fresh_answer(query_ranks, w, tau, 3, rank_slice, (0, 0, 0))[0]
        )


class TestTables:
    """The verifier's three tables are plain ``dict``s: no update, read
    or copy of one leaves C for a ``Counter`` method."""

    @pytest.mark.parametrize(
        "seed, tau_pick, alphabet",
        [(1, "5", "4"), (2, "0", "zipfian"), (3, "w - 1", "4")],
    )
    def test_no_table_operation_reaches_a_counter_method(
        self, monkeypatch, seed, tau_pick, alphabet
    ):
        def python_level(*_args):
            raise AssertionError("a table operation left C for a Counter method")

        for name in ("copy", "__missing__", "__delitem__"):
            monkeypatch.setattr(Counter, name, python_level)

        rng = random.Random(seed)
        w, tau, query_ranks, docs = carried_case(
            rng, tau_pick, alphabet, query_slides=280
        )
        rank_slice = slice_accessor(docs)
        verifier = IntervalVerifier(query_ranks, w, tau)
        windows = 0
        for query_start, live, verified in live_intervals(rng, w, query_ranks, docs):
            verifier.retain(live)
            if not verified:
                continue
            windows += 1
            verifier.advance_to(query_start)
            assert type(verifier._query_counts) is dict
            for doc_id, u, v in sorted(live):
                got = verifier.verify_interval(doc_id, rank_slice, u, v)
                assert [tuple(match) for match in got] == reference_matches(
                    docs[doc_id], query_ranks, query_start, u, v, w, tau, doc_id
                )
            assert verifier._states
            for state in verifier._states.values():
                assert type(state.first) is dict
        assert windows >= 200
        assert verifier.verify_carried > 0  # intervals did persist
