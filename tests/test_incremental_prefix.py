"""Tests for the incremental prefix-length maintainer (Algorithm 5 core)."""

from __future__ import annotations

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partition.scheme import PartitionScheme
from repro.signatures.incremental import IncrementalPrefixLength
from repro.signatures.prefix import prefix_length


def random_setup(rng: random.Random):
    universe = rng.randint(3, 25)
    k_max = rng.randint(1, 4)
    borders = tuple(sorted(rng.randint(0, universe) for _ in range(k_max - 1)))
    m = rng.randint(1, 3)
    scheme = PartitionScheme(universe_size=universe, borders=borders, m=m)
    w = rng.randint(2, 10)
    tau = rng.randint(0, min(4, w - 1))
    length = rng.randint(w, 40)
    ranks = [rng.randrange(universe) for _ in range(length)]
    return scheme, w, tau, ranks


class TestAgainstRescan:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10_000_000))
    def test_length_matches_scratch_after_every_slide(self, seed):
        rng = random.Random(seed)
        scheme, w, tau, ranks = random_setup(rng)
        maintainer = IncrementalPrefixLength(ranks[:w], tau, scheme)
        assert maintainer.length == prefix_length(
            sorted(ranks[:w]), tau, scheme
        )
        for start in range(1, len(ranks) - w + 1):
            before = maintainer.window[: maintainer.length]
            changed = maintainer.slide(ranks[start - 1], ranks[start + w - 1])
            assert maintainer.window == sorted(
                ranks[start : start + w]
            )
            assert maintainer.length == prefix_length(
                maintainer.window, tau, scheme
            )
            # The report is exact: False iff the prefix holds the same
            # tokens, else `joined` / `left` are the multiset difference.
            after = maintainer.window[: maintainer.length]
            assert changed == (after != before)
            if changed:
                joined = Counter(rank for rank, _ in maintainer.joined)
                left = Counter(rank for rank, _ in maintainer.left)
                assert joined == Counter(after) - Counter(before)
                assert left == Counter(before) - Counter(after)
                for rank, key in maintainer.joined + maintainer.left:
                    assert key == scheme.group_key(rank)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000_000))
    def test_coverage_invariant(self, seed):
        # Coverage is tau + 1 when reachable, else the window total.
        rng = random.Random(seed)
        scheme, w, tau, ranks = random_setup(rng)
        maintainer = IncrementalPrefixLength(ranks[:w], tau, scheme)
        for start in range(1, len(ranks) - w + 1):
            maintainer.slide(ranks[start - 1], ranks[start + w - 1])
            if maintainer.length < w:
                assert maintainer.coverage == tau + 1
            else:
                assert maintainer.coverage <= tau + 1


class TestEdgeCases:
    def test_identity_slide_is_noop(self):
        scheme = PartitionScheme.single(5)
        maintainer = IncrementalPrefixLength([1, 2, 3], 1, scheme)
        before = maintainer.length
        maintainer.slide(2, 2)
        assert maintainer.length == before
        assert maintainer.window == [1, 2, 3]

    def test_single_token_window(self):
        scheme = PartitionScheme.single(5)
        maintainer = IncrementalPrefixLength([3], 0, scheme)
        assert maintainer.length == 1
        maintainer.slide(3, 1)
        assert maintainer.window == [1]
        assert maintainer.length == 1

    def test_prefix_returns_head(self):
        scheme = PartitionScheme.single(10)
        maintainer = IncrementalPrefixLength([5, 1, 9, 3], 1, scheme)
        assert maintainer.window[: maintainer.length] == [1, 3]
        assert maintainer.joined == [(1, 1), (3, 1)] and not maintainer.left

    def test_negative_ranks(self):
        # Query-only tokens (negative ranks) are class 1.
        scheme = PartitionScheme(universe_size=6, borders=(0,))
        maintainer = IncrementalPrefixLength([-2, -1, 4, 5], 1, scheme)
        assert maintainer.length == prefix_length([-2, -1, 4, 5], 1, scheme)
        maintainer.slide(-2, -3)
        assert maintainer.length == prefix_length(
            maintainer.window, 1, scheme
        )
