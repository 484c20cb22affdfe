"""Tests for k-wise signature generation (Algorithm 3)."""

from __future__ import annotations

import random
from itertools import combinations
from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partition.scheme import PartitionScheme
from repro.signatures.generate import (
    generate_signatures,
    signature_hash,
    signatures_from_prefix,
)


class TestPaperExample3:
    """Example 3: tau=1, k=2, the four windows of Example 2."""

    def setup_method(self):
        # Ranks follow the order E < F < D < A < B < C of Example 2.
        self.E, self.F, self.D, self.A, self.B, self.C = range(6)
        # Non-partitioned 2-wise: every token in class 2.
        self.scheme = PartitionScheme.all_k(6, 2)

    def test_w_d1(self):
        # W(d,1) sorted = [A, A, B, C]; prefix = first 3 (coverage 2).
        sigs = generate_signatures([self.A, self.A, self.B, self.C], 1, self.scheme)
        assert sigs == [
            (self.A, self.A),
            (self.A, self.B),
            (self.A, self.B),
        ]

    def test_w_d2(self):
        sigs = generate_signatures([self.D, self.A, self.B, self.C], 1, self.scheme)
        assert sigs == [
            (self.D, self.A),
            (self.D, self.B),
            (self.A, self.B),
        ]

    def test_w_q1(self):
        sigs = generate_signatures([self.E, self.A, self.A, self.B], 1, self.scheme)
        assert sigs == [
            (self.E, self.A),
            (self.E, self.A),
            (self.A, self.A),
        ]

    def test_w_q2(self):
        sigs = generate_signatures([self.E, self.F, self.A, self.B], 1, self.scheme)
        assert sigs == [
            (self.E, self.F),
            (self.E, self.A),
            (self.F, self.A),
        ]

    def test_shared_signature_found(self):
        # W(d,1) and W(q,1) share signature AA.
        d1 = set(generate_signatures([self.A, self.A, self.B, self.C], 1, self.scheme))
        q1 = set(generate_signatures([self.E, self.A, self.A, self.B], 1, self.scheme))
        assert (self.A, self.A) in d1 & q1


class TestSignatureCounts:
    def test_binomial_count_per_class(self):
        # tau + k tokens of class k yield C(tau + k, k) signatures.
        for k in (1, 2, 3):
            for tau in (0, 1, 3):
                scheme = PartitionScheme.all_k(50, k)
                window = list(range(tau + k + 10))
                sigs = generate_signatures(window, tau, scheme)
                assert len(sigs) == comb(tau + k, k)

    def test_group_with_too_few_tokens_yields_nothing(self):
        scheme = PartitionScheme(universe_size=10, borders=(5,))
        # One class-2 token only: no 2-wise signature from it.
        sigs = signatures_from_prefix([9], scheme)
        assert sigs == []

    def test_signatures_do_not_cross_groups(self):
        scheme = PartitionScheme(universe_size=10, borders=(0, 5))
        # Ranks 0-4 class 2, ranks 5-9 class 3.
        sigs = signatures_from_prefix([0, 1, 5, 6, 7], scheme)
        for signature in sigs:
            classes = {scheme.class_of(rank) for rank in signature}
            assert len(classes) == 1
            assert len(signature) == classes.pop()

    def test_subpartitions_restrict_combinations(self):
        # Class 2 covering [0, 6) with m=3 sub-partitions of width 2:
        # tokens 0,1 | 2,3 | 4,5 combine only within their sub-partition.
        scheme = PartitionScheme(universe_size=6, borders=(0,), m=3)
        sigs = signatures_from_prefix([0, 1, 2, 3, 4, 5], scheme)
        assert sorted(sigs) == [(0, 1), (2, 3), (4, 5)]

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_matches_itertools_reference(self, seed):
        rng = random.Random(seed)
        universe = rng.randint(4, 30)
        k_max = rng.randint(1, 3)
        borders = tuple(sorted(rng.randint(0, universe) for _ in range(k_max - 1)))
        scheme = PartitionScheme(universe_size=universe, borders=borders)
        prefix = sorted(rng.randrange(universe) for _ in range(rng.randint(0, 12)))
        sigs = signatures_from_prefix(prefix, scheme)
        # Reference: group by class, enumerate combinations positionally.
        expected = []
        by_class: dict[int, list[int]] = {}
        for rank in prefix:
            by_class.setdefault(scheme.class_of(rank), []).append(rank)
        for class_index in sorted(by_class):
            group = by_class[class_index]
            if len(group) >= class_index:
                expected.extend(combinations(group, class_index))
        assert sorted(sigs) == sorted(expected)


class TestSignatureHash:
    def test_stable(self):
        assert signature_hash((1, 2, 3)) == signature_hash((1, 2, 3))

    def test_distinguishes_order_and_content(self):
        assert signature_hash((1, 2)) != signature_hash((2, 1))
        assert signature_hash((1,)) != signature_hash((1, 0))

    def test_32_bit_range(self):
        # The paper's 4-byte key (Section 7.1): the 64-bit FNV-1a value
        # xor-folded, so its high half still moves the key.
        for signature in [(0,), (2**40, 7), (-5, 3), (2**63 - 1,)]:
            value = signature_hash(signature)
            assert 0 <= value < 2**32

    def test_collision_free_on_small_universe(self):
        seen = {}
        for a in range(50):
            for b in range(a, 50):
                value = signature_hash((a, b))
                assert seen.setdefault(value, (a, b)) == (a, b)
