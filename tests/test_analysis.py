"""Tests for the structural analysis utilities (Section 7.3 measurements)."""

from __future__ import annotations

import pytest

from repro import SearchParams
from repro.core.pkwise import PKWiseSearcher
from repro.corpus import DocumentCollection
from repro.eval import postings_statistics, prefix_sharing
from repro.eval.analysis import multiset_jaccard
from repro.ordering import GlobalOrder
from repro.partition.scheme import PartitionScheme


class TestMultisetJaccard:
    def test_identical(self):
        assert multiset_jaccard([1, 1, 2], [1, 1, 2]) == 1.0

    def test_disjoint(self):
        assert multiset_jaccard([1], [2]) == 0.0

    def test_multiplicities(self):
        # {A,A,B} vs {A,B,B}: intersection {A,B}=2, union 4 -> 0.5.
        assert multiset_jaccard([1, 1, 2], [1, 2, 2]) == 0.5

    def test_empty(self):
        assert multiset_jaccard([], []) == 1.0


class TestPrefixSharing:
    def test_high_sharing_on_real_like_text(self, small_corpus):
        params = SearchParams(w=20, tau=3, k_max=2)
        order = GlobalOrder(small_corpus, params.w)
        scheme = PartitionScheme(
            universe_size=order.universe_size,
            borders=(order.universe_size // 2,),
        )
        report = prefix_sharing(
            list(small_corpus), order, params.w, params.tau, scheme
        )
        # Section 7.3: adjacent prefixes are highly similar.
        assert report.average_jaccard > 0.5
        assert report.num_adjacent_pairs == sum(
            max(0, document.num_windows(20) - 1) for document in small_corpus
        )
        assert 0.0 <= report.unchanged_fraction <= 1.0

    def test_sharing_increases_with_w(self, small_corpus):
        order25 = GlobalOrder(small_corpus, 25)
        order10 = GlobalOrder(small_corpus, 10)
        scheme25 = PartitionScheme.single(order25.universe_size)
        scheme10 = PartitionScheme.single(order10.universe_size)
        wide = prefix_sharing(list(small_corpus), order25, 25, 2, scheme25)
        narrow = prefix_sharing(list(small_corpus), order10, 10, 2, scheme10)
        # Paper: sharing grows from 0.872 (w=25) to 0.966 (w=100).
        assert wide.average_jaccard >= narrow.average_jaccard - 0.05

    def test_empty_documents(self):
        from repro.corpus import DocumentCollection

        data = DocumentCollection()
        data.add_text("a b")
        order = GlobalOrder(data, 5)
        scheme = PartitionScheme.single(order.universe_size)
        report = prefix_sharing(list(data), order, 5, 1, scheme)
        assert report.num_adjacent_pairs == 0
        assert report.average_jaccard == 0.0

    def test_report_str(self, small_corpus):
        order = GlobalOrder(small_corpus, 10)
        scheme = PartitionScheme.single(order.universe_size)
        report = prefix_sharing(list(small_corpus)[:1], order, 10, 1, scheme)
        assert "Jaccard" in str(report)


class TestPostingsStatistics:
    def test_counts_match_index(self, small_corpus):
        params = SearchParams(w=10, tau=2, k_max=3)
        searcher = PKWiseSearcher(small_corpus, params)
        report = postings_statistics(searcher.index)
        assert report.num_signatures == searcher.index.num_signatures
        assert report.num_postings == searcher.index.num_postings
        assert report.mean_length == pytest.approx(
            report.num_postings / report.num_signatures
        )
        assert 0.0 <= report.singleton_fraction <= 1.0
        assert "signatures" in str(report)

    def test_empty_index(self):
        # Every document shorter than w: no window, no posting.
        data = DocumentCollection()
        data.add_text("a b c")
        data.add_text("d e")
        index = PKWiseSearcher(data, SearchParams(w=5, tau=1, k_max=1)).index
        report = postings_statistics(index)
        assert (index.num_documents, index.num_windows) == (2, 0)
        assert report.num_signatures == 0
        assert report.mean_length == 0.0


class TestAnalysisOnProfiles:
    def test_postings_singleton_heavy_for_tight_tau(self, small_corpus):
        from repro import SearchParams
        from repro.core.pkwise import PKWiseSearcher
        from repro.eval import postings_statistics

        tight = PKWiseSearcher(small_corpus, SearchParams(w=20, tau=1, k_max=2))
        loose = PKWiseSearcher(small_corpus, SearchParams(w=20, tau=5, k_max=2))
        tight_stats = postings_statistics(tight.index)
        loose_stats = postings_statistics(loose.index)
        # Looser constraints index more signatures overall.
        assert loose_stats.num_postings > tight_stats.num_postings
