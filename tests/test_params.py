"""Tests for SearchParams validation (Theorem 2 bound, theta, copies)."""

from __future__ import annotations

import pytest

from repro import ConfigurationError, SearchParams
from repro.params import max_prefix_length, suggested_subpartitions


class TestValidation:
    def test_basic_construction(self):
        params = SearchParams(w=100, tau=5)
        assert params.w == 100
        assert params.tau == 5
        assert params.k_max == 4
        assert params.m == 1
        assert params.theta == 95

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ConfigurationError):
            SearchParams(w=0, tau=0)

    def test_rejects_negative_tau(self):
        with pytest.raises(ConfigurationError):
            SearchParams(w=10, tau=-1)

    def test_rejects_tau_at_window_size(self):
        with pytest.raises(ConfigurationError):
            SearchParams(w=10, tau=10, k_max=1)

    def test_rejects_bad_k_max(self):
        with pytest.raises(ConfigurationError):
            SearchParams(w=10, tau=1, k_max=0)

    def test_rejects_bad_m(self):
        with pytest.raises(ConfigurationError):
            SearchParams(w=10, tau=1, m=0)

    def test_theorem2_bound_enforced(self):
        # tau + 1 + k(k-1)/2 = 5 + 1 + 6 = 12 > w = 10 must fail.
        with pytest.raises(ConfigurationError):
            SearchParams(w=10, tau=5, k_max=4)
        # w = 12 is exactly at the bound and must pass.
        SearchParams(w=12, tau=5, k_max=4)

    def test_theorem2_bound_with_subpartitions(self):
        # m = 3: bound = tau + 1 + 3 * 3 = tau + 10.
        with pytest.raises(ConfigurationError):
            SearchParams(w=12, tau=5, k_max=3, m=3)
        SearchParams(w=15, tau=5, k_max=3, m=3)

    def test_tau_zero_allowed(self):
        params = SearchParams(w=4, tau=0, k_max=2)
        assert params.theta == 4


class TestCopies:
    def test_with_k_max(self):
        params = SearchParams(w=100, tau=5, k_max=4)
        copy = params.with_k_max(2)
        assert copy.k_max == 2
        assert copy.w == params.w and copy.tau == params.tau
        assert params.k_max == 4  # original untouched

    def test_with_m(self):
        params = SearchParams(w=100, tau=5, k_max=4)
        copy = params.with_m(3)
        assert copy.m == 3

    def test_with_k_max_revalidates(self):
        params = SearchParams(w=12, tau=5, k_max=4)
        with pytest.raises(ConfigurationError):
            params.with_m(2)  # bound becomes 5 + 1 + 2*6 = 18 > 12


class TestHelpers:
    def test_max_prefix_length_matches_corollary1(self):
        assert max_prefix_length(tau=3, k_max=4) == 3 + 1 + 6
        assert max_prefix_length(tau=5, k_max=1) == 6
        assert max_prefix_length(tau=5, k_max=3, m=2) == 5 + 1 + 2 * 3

    def test_suggested_subpartitions_small_tau(self):
        assert suggested_subpartitions(5) == 1
        assert suggested_subpartitions(20) == 1

    def test_suggested_subpartitions_large_tau(self):
        # Section 7.5: m = 0.25 * tau for tau > 20.
        assert suggested_subpartitions(40) == 10
        assert suggested_subpartitions(100) == 25


class TestSearchParamsEquality:
    def test_frozen_dataclass_semantics(self):
        a = SearchParams(w=10, tau=2, k_max=2)
        b = SearchParams(w=10, tau=2, k_max=2)
        assert a == b
        assert hash(a) == hash(b)

    def test_theta_derived_consistently(self):
        params = SearchParams(w=10, tau=3, k_max=1)
        assert params.theta == 7
