"""Tests for incremental signature maintenance (Section 4.1).

The key property: replaying a :class:`SignatureStream`'s open/close
events reconstructs, for every window, exactly the signature set that
from-scratch generation (Algorithm 3) produces — the stream is an
extensionally faithful implementation of the paper's Algorithm 5.
"""

from __future__ import annotations

import random
from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Index
from repro.corpus.synthetic import make_profile_collection
from repro.ordering.global_order import OOV_RANK
from repro.partition.scheme import PartitionScheme
from repro.signatures.generate import generate_signatures
from repro.signatures.maintain import COUNTERS, SignatureStream
from repro.signatures.prefix import prefix_length

from .test_seams import cross_seams, seam_case


def replay_presence(ranks, w, tau, scheme):
    """Replay stream events into per-window signature presence sets."""
    stream = SignatureStream(ranks, w, tau, scheme)
    present: set = set()
    by_window: list[set] = []
    final_seen = False
    for event in stream.events():
        # Events come for changed windows only: the windows up to this
        # one generate what the previous event left present.
        assert event.start >= len(by_window), "events out of window order"
        by_window.extend(set(present) for _ in range(len(by_window), event.start))
        if event.final:
            final_seen = True
            for signature in event.closed:
                present.discard(signature)
            break
        assert event.opened or event.closed, "event without a transition"
        for signature in event.opened:
            assert signature not in present, "opened while already present"
            present.add(signature)
        for signature in event.closed:
            assert signature in present, "closed while absent"
            present.discard(signature)
        by_window.append(set(present))
    num_windows = max(0, len(ranks) - w + 1)
    if num_windows:
        assert final_seen
        assert not present, "final event must close everything"
    return by_window, stream


def scratch_presence(ranks, w, tau, scheme):
    """Reference: per-window signature sets generated from scratch."""
    out = []
    for start in range(max(0, len(ranks) - w + 1)):
        window = sorted(ranks[start : start + w])
        out.append(set(generate_signatures(window, tau, scheme)))
    return out


def scratch_counters(ranks, w, tau, scheme):
    """Reference Eq. 2 accounting, window by window from scratch.

    A window whose prefix equals the previous window's is shared; a
    changed one is charged ``C(n, i)`` signatures of ``i`` tokens for
    every group whose token tuple differs from the previous window's.
    """
    totals = Counter()
    previous = None
    for start in range(max(0, len(ranks) - w + 1)):
        window = sorted(ranks[start : start + w])
        groups: dict[int, list[int]] = {}
        for rank in window[: prefix_length(window, tau, scheme)]:
            groups.setdefault(scheme.group_key(rank), []).append(rank)
        if groups == previous:
            totals["shared_windows"] += 1
            continue
        totals["changed_windows"] += 1
        for key, tokens in groups.items():
            if previous is None or previous.get(key) != tokens:
                class_index = key // scheme.m
                count = comb(len(tokens), class_index)
                totals["generated_signatures"] += count
                totals["generated_token_cost"] += count * class_index
        previous = groups
    return totals


def stream_counters(stream):
    return Counter({name: getattr(stream, name) for name in COUNTERS})


class TestPaperExample5:
    def test_prefix_maintenance_walkthrough(self):
        # Example 5: d = [E, G, A, F, C, B, D], w=4, tau=1, alphabetical
        # order, classes {A..D}=1, {E..G}=2.  Expected per-window
        # signatures: {A, EF}, {A, C}, {A, B}, {B, C}.
        E, G, A, F, C, B, D = 4, 6, 0, 5, 2, 1, 3
        ranks = [E, G, A, F, C, B, D]
        scheme = PartitionScheme(universe_size=7, borders=(4,))
        by_window, _stream = replay_presence(ranks, 4, 1, scheme)
        assert by_window == [
            {(A,), (E, F)},
            {(A,), (C,)},
            {(A,), (B,)},
            {(B,), (C,)},
        ]


class TestEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 1_000_000))
    def test_stream_matches_scratch(self, seed):
        rng = random.Random(seed)
        universe = rng.randint(3, 25)
        k_max = rng.randint(1, 4)
        borders = tuple(sorted(rng.randint(0, universe) for _ in range(k_max - 1)))
        m = rng.randint(1, 3)
        scheme = PartitionScheme(universe_size=universe, borders=borders, m=m)
        w = rng.randint(2, 10)
        tau = rng.randint(0, min(4, w - 1))
        length = rng.randint(0, 40)
        ranks = [rng.randrange(universe) for _ in range(length)]
        streamed, _ = replay_presence(ranks, w, tau, scheme)
        assert streamed == scratch_presence(ranks, w, tau, scheme)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 1_000_000))
    def test_stream_with_duplicates_heavy(self, seed):
        # Tiny vocabularies force duplicate tokens (the gamma-counter
        # case of Section 4.1).
        rng = random.Random(seed)
        scheme = PartitionScheme(universe_size=3, borders=(1,))
        w = rng.randint(2, 6)
        tau = rng.randint(0, 2)
        ranks = [rng.randrange(3) for _ in range(rng.randint(0, 30))]
        streamed, _ = replay_presence(ranks, w, tau, scheme)
        assert streamed == scratch_presence(ranks, w, tau, scheme)


    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 1_000_000), m=st.sampled_from([1, 2]))
    def test_paper_shape_stream_and_counters(self, seed, m):
        # The benchmark's shape (w=50, tau=5, k_max=4): long windows,
        # a Zipfian head of frequent (high-rank) tokens, and a few
        # ranks below zero — lazily admitted tokens in a live index's
        # data documents, the OOV sentinel in a query.
        rng = random.Random(seed)
        universe = 2000
        scheme = PartitionScheme(
            universe_size=universe, borders=(1500, 1850, 1960), m=m
        )
        ranks = [
            universe - min(universe, int(rng.paretovariate(0.6)))
            for _ in range(rng.randint(300, 600))
        ]
        for _ in range(rng.randint(0, 6)):
            ranks[rng.randrange(len(ranks))] = rng.choice([-1, -2, -3, OOV_RANK])
        streamed, stream = replay_presence(ranks, 50, 5, scheme)
        assert streamed == scratch_presence(ranks, 50, 5, scheme)
        assert stream_counters(stream) == scratch_counters(ranks, 50, 5, scheme)

    # -- the corpus kernel's block and width seams: named cases of
    # test_seams.cross_seams, which holds the runs' columns and counters to
    # index_document's, one document at a time.
    def test_corpus_runs_match_index_document(self):
        cross_seams(seam_case(k_max=4, m=3, bulk_cells=1))  # a block per cell

    def test_corpus_runs_all_k_with_duplicates(self):
        # Non-partitioned k-wise over four tokens: every group repeats.
        cross_seams(seam_case(size=4, k_max=4, m=2, borders=(0, 0, 0)))

    @pytest.mark.parametrize(
        "tau, m", [(5, 1), (5, 2), (25, 6)], ids=["tau5-m1", "tau5-m2", "tau25-m6"]
    )
    def test_corpus_runs_across_block_seams(self, tau, m):
        # At tau = 25 the prefix bound (62) passes w = 50, so the table
        # holds whole windows; seams fall inside every long document, and
        # classes start on ranks the documents hold.
        lengths = [120, 12, 50, 75, 0, 49]
        cross_seams(seam_case(
            w=50, tau=tau, k_max=4, m=m, lengths=lengths, borders=(30, 36, 38), bulk_cells=7 * 50
        ))

    @pytest.mark.parametrize("m", [1, 2])
    def test_corpus_runs_are_width_invariant(self, m):
        # int16 ranks, lazily admitted ones among them, built at every width.
        cross_seams(seam_case(m=m, late=[12, 30]))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_group_starts_place_every_rank_as_group_key(self, m):
        # Class 2 is narrower than m = 3, class 3 is empty; w = 20 is
        # below Theorem 2's bound at m > 1, so those cases build only.
        cross_seams(seam_case(w=20, size=20, k_max=5, m=m, borders=(3, 5, 5, 12)))

class TestCornerCases:
    """Slides at the prefix boundary ``b`` (k_max=1, tau=1: the prefix
    is the two smallest tokens)."""

    scheme = PartitionScheme.single(10)

    def shared_slide(self, ranks):
        """One slide over ``ranks`` (w=5) that must leave the prefix alone."""
        streamed, stream = replay_presence(ranks, 5, 1, self.scheme)
        assert streamed == scratch_presence(ranks, 5, 1, self.scheme)
        assert (stream.changed_windows, stream.shared_windows) == (1, 1)
        events = SignatureStream(ranks, 5, 1, self.scheme).events()
        assert [event.start for event in events] == [0, 2]

    def test_incoming_equals_boundary(self):
        # [1 2 | 3 7 9] -> [1 2 | 2 3 7]: equals insert to the right.
        self.shared_slide([9, 1, 2, 3, 7, 2])

    def test_boundary_leaves_and_its_duplicate_steps_in(self):
        # [1 2 | 2 5 6] -> [1 2 | 5 6 9]: the prefix is touched (b
        # left) and ends up holding the same tokens.
        self.shared_slide([2, 1, 2, 5, 6, 9])

    def test_outgoing_equals_incoming(self):
        self.shared_slide([1, 3, 4, 5, 6, 1])

    def test_window_that_never_reaches_coverage(self):
        # One class-2 group: three tokens cover 2 < tau + 1, the whole
        # window is the prefix and no token is "past the boundary".
        scheme = PartitionScheme.all_k(10, 2)
        rng = random.Random(5)
        ranks = [rng.randrange(6) for _ in range(40)]
        streamed, stream = replay_presence(ranks, 3, 2, scheme)
        assert streamed == scratch_presence(ranks, 3, 2, scheme)
        assert stream_counters(stream) == scratch_counters(ranks, 3, 2, scheme)
        assert stream.changed_windows == 1 + sum(
            ranks[start - 1] != ranks[start + 2] for start in range(1, 38)
        )

    def test_ranks_below_zero_on_either_side_of_the_boundary(self):
        scheme = PartitionScheme(universe_size=10, borders=(4,))
        ranks = [7, OOV_RANK, 8, -1, 9, 5, OOV_RANK, 6, -2, 7, 8, 9, -1, 5, 6, 7]
        for tau in (0, 1, 3):
            streamed, stream = replay_presence(ranks, 5, tau, scheme)
            assert streamed == scratch_presence(ranks, 5, tau, scheme)
            assert stream_counters(stream) == scratch_counters(ranks, 5, tau, scheme)


class TestSharingCounters:
    def test_constant_document_shares_everything(self):
        scheme = PartitionScheme.single(5)
        ranks = [1] * 30
        _, stream = replay_presence(ranks, 5, 1, scheme)
        assert stream.changed_windows == 1  # only the first window
        assert stream.shared_windows == 25

    def test_counters_sum_to_window_count(self):
        rng = random.Random(3)
        scheme = PartitionScheme(universe_size=10, borders=(5,))
        ranks = [rng.randrange(10) for _ in range(40)]
        _, stream = replay_presence(ranks, 6, 2, scheme)
        assert stream.changed_windows + stream.shared_windows == 40 - 6 + 1

    def test_token_cost_counts_constituents(self):
        # One window, prefix all class 2 with 3 tokens: 3 signatures of
        # size 2 -> token cost 6.
        scheme = PartitionScheme.all_k(5, 2)
        stream = SignatureStream([0, 1, 2, 3], 4, 1, scheme)
        list(stream.events())
        assert stream.generated_signatures == 3
        assert stream.generated_token_cost == 6


    def test_golden_counters_of_a_seeded_build(self):
        # Literals taken at 2.8.0 (regenerate-and-diff): Eq. 2's
        # accounting, the postings and one query's probe plan must not
        # drift with how the stream enumerates its deltas.
        data, queries, _ = make_profile_collection(
            "REUTERS", 0.01, 11, num_queries=2
        )
        built = Index.build(data, w=50, tau=5, k_max=4)
        index = built.searcher().index
        assert index.build_stats == {
            "generated_signatures": 64920,
            "generated_token_cost": 143706,
            "shared_windows": 9954,
            "changed_windows": 4055,
        }
        assert (index.num_postings, index.num_signatures) == (20382, 17069)
        stats = built.search(queries[0]).stats
        assert (
            stats.signatures_generated,
            stats.signature_tokens,
            stats.shared_windows,
            stats.changed_windows,
            stats.probe_batches,
            stats.probe_signatures,
            stats.postings_entries,
        ) == (866, 1739, 211, 76, 3, 544, 511)


class TestShortDocuments:
    def test_no_windows_no_events(self):
        scheme = PartitionScheme.single(5)
        stream = SignatureStream([1, 2], 5, 1, scheme)
        assert list(stream.events()) == []

    def test_single_window_opens_and_finally_closes(self):
        scheme = PartitionScheme.single(5)
        stream = SignatureStream([0, 1, 2], 3, 1, scheme)
        events = list(stream.events())
        assert len(events) == 2
        first, final = events
        assert Counter(first.opened) == Counter({(0,): 1, (1,): 1})
        assert final.final
        assert set(final.closed) == {(0,), (1,)}
