"""Determinism of the search pipeline's counters.

Every property of the pairs themselves (any scheme gives the same
pairs, loosening tau only adds pairs, unrelated documents change no
match, each pair's overlap is its windows') follows from exactness:
``test_pkwise.py::TestEquivalence::test_pkwise_variants_match_bruteforce``
holds the engines to the oracle under drawn schemes.
"""

from __future__ import annotations

import random

from repro import SearchParams
from repro.core.pkwise import PKWiseSearcher

from .conftest import random_collection


class TestDeterminism:
    def test_stats_counters_are_deterministic(self):
        rng = random.Random(9)
        data, query = random_collection(rng)
        params = SearchParams(w=6, tau=2, k_max=3)
        searcher = PKWiseSearcher(data, params)
        first = searcher.search(query).stats
        second = searcher.search(query).stats
        assert first.signature_tokens == second.signature_tokens
        assert first.postings_entries == second.postings_entries
        assert first.hash_ops == second.hash_ops
        assert first.candidate_windows == second.candidate_windows
