"""Tests for prefix length (Algorithm 1), coverage, and weighted prefix."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.params import max_prefix_length
from repro.partition.scheme import PartitionScheme
from repro.signatures.prefix import (
    coverage_of,
    prefix_length,
    weighted_prefix_length,
)


class TestPaperExamples:
    def test_example4_prefix_length_is_9(self):
        # Example 4: tau=3, k_max=4; the window has 1 class-1 token,
        # 3 class-2 tokens, 1 class-3 token, then class-4 tokens.
        # Coverage 1 + 2 + 0 = 3 after five tokens; four class-4 tokens
        # are needed to reach tau + 1 = 4, giving prefix length 9.
        scheme = PartitionScheme(universe_size=30, borders=(1, 4, 5))
        window = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]
        assert prefix_length(window, tau=3, scheme=scheme) == 9

    def test_k_max_1_gives_tau_plus_1(self):
        # With a single class the prefix is exactly tau + 1 (Lemma 1).
        scheme = PartitionScheme.single(100)
        window = list(range(20))
        for tau in range(6):
            assert prefix_length(window, tau, scheme) == tau + 1

    def test_lemma3_coverage(self):
        scheme = PartitionScheme(universe_size=10, borders=(5,))
        # 4 tokens of class 2: coverage 4 - 2 + 1 = 3.
        assert coverage_of([5, 6, 7, 8], scheme) == 3
        # 1 token of class 2: below i, coverage 0.
        assert coverage_of([5], scheme) == 0
        # Mixed (Lemma 4): 2 class-1 + 3 class-2 = 2 + 2.
        assert coverage_of([0, 1, 5, 6, 7], scheme) == 4


class TestProperties:
    def _random_scheme(self, rng, universe):
        k_max = rng.randint(1, 4)
        borders = tuple(sorted(rng.randint(0, universe) for _ in range(k_max - 1)))
        m = rng.randint(1, 3)
        return PartitionScheme(universe_size=universe, borders=borders, m=m)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_prefix_reaches_exactly_tau_plus_1_coverage(self, seed):
        rng = random.Random(seed)
        universe = rng.randint(5, 50)
        scheme = self._random_scheme(rng, universe)
        tau = rng.randint(0, 5)
        window = sorted(rng.randrange(universe) for _ in range(rng.randint(1, 40)))
        length = prefix_length(window, tau, scheme)
        if length < len(window):
            assert coverage_of(window[:length], scheme) == tau + 1
            # Minimality: one token fewer cannot reach tau + 1.
            assert coverage_of(window[: length - 1], scheme) <= tau
        else:
            assert coverage_of(window, scheme) <= tau + 1

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_corollary1_upper_bound(self, seed):
        rng = random.Random(seed)
        universe = rng.randint(5, 60)
        scheme = self._random_scheme(rng, universe)
        tau = rng.randint(0, 5)
        bound = max_prefix_length(tau, scheme.k_max, scheme.m)
        # A long window always reaches the coverage within the bound.
        window = sorted(rng.randrange(universe) for _ in range(bound + 30))
        assert prefix_length(window, tau, scheme) <= bound

    def test_negative_ranks_class1(self):
        scheme = PartitionScheme(universe_size=10, borders=(0,))
        # Query-only tokens (negative ranks) are class 1: single-token
        # coverage, one each.
        assert prefix_length([-3, -2, -1, 0, 1], tau=1, scheme=scheme) == 2


class TestWeightedPrefix:
    def test_uniform_weights_match_unweighted(self):
        scheme = PartitionScheme(universe_size=20, borders=(10,))
        window = sorted([0, 1, 5, 11, 12, 13, 14, 15])
        tau = 2
        unweighted = prefix_length(window, tau, scheme)
        # Budget tau (strictly exceeded at tau + 1) with unit weights.
        weighted = weighted_prefix_length(window, lambda _r: 1.0, float(tau), scheme)
        assert weighted == unweighted

    def test_weighted_coverage_uses_smallest_weights(self):
        scheme = PartitionScheme(universe_size=10, borders=(0,))  # all class 2
        weights = {0: 1.0, 1: 1.0, 2: 10.0}
        # Class-2 group [0,1,2]: coverage = sum of (3-2+1)=2 smallest = 2.0.
        # Budget 1.5 is exceeded at the third token, not before.
        length = weighted_prefix_length(
            [0, 1, 2, 3], weights.get, 1.5, scheme
        )
        assert length == 3

    def test_budget_never_exceeded_returns_window_length(self):
        scheme = PartitionScheme(universe_size=10, borders=())
        window = [0, 1, 2]
        assert weighted_prefix_length(window, lambda _r: 0.5, 100.0, scheme) == 3
