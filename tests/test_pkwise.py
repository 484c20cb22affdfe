"""Tests for the pkwise searchers (Algorithms 2 and 4)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ConfigurationError, SearchParams
from repro.core.base import SearchStats
from repro.core.pkwise import PKWiseSearcher, order_and_scheme
from repro.core.pkwise_nonint import PKWiseNonIntervalSearcher
from repro.corpus import DocumentCollection
from repro.errors import SearchCancelled
from repro.eval import run_searcher
from repro.ordering import GlobalOrder
from repro.partition.scheme import PartitionScheme
from repro.signatures.maintain import SignatureStream

from .conftest import expected_pairs, pairs_as_set, random_collection
from .test_seams import cross_seams, seam_case


class TestPaperExample1:
    def test_result_pair(self, paper_example):
        data, query, params = paper_example
        result = PKWiseSearcher(data, params).search(query)
        assert pairs_as_set(result) == {(0, 0, 0, 3)}

    def test_nonint_agrees(self, paper_example):
        data, query, params = paper_example
        result = PKWiseNonIntervalSearcher(data, params).search(query)
        assert pairs_as_set(result) == {(0, 0, 0, 3)}


class TestEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 1_000_000))
    def test_pkwise_variants_match_bruteforce(self, seed):
        # Under the default scheme and drawn borders alike (Theorems 1/2).
        # The oracle's pairs carry their overlaps, grow with tau and ignore
        # other documents, so the engines' pairs do too.
        rng = random.Random(seed)
        data, query = random_collection(rng)
        w = rng.randint(3, 10)
        tau = rng.randint(0, min(3, w - 1))
        k_max = rng.randint(1, 3)
        m = rng.randint(1, 2)
        try:
            params = SearchParams(w=w, tau=tau, k_max=k_max, m=m)
        except ConfigurationError:
            return
        expected = expected_pairs(data, query, w, tau)
        order = GlobalOrder(data, w)
        borders = sorted(rng.randint(0, order.universe_size) for _ in range(k_max - 1))
        drawn = PartitionScheme(universe_size=order.universe_size, borders=tuple(borders), m=m)
        for searcher in (PKWiseSearcher(data, params, order=order),
                         PKWiseSearcher(data, params, scheme=drawn, order=order),
                         PKWiseNonIntervalSearcher(data, params, order=order)):
            assert pairs_as_set(searcher.search(query)) == expected

    def test_query_is_data_document(self, small_corpus):
        # Self-similarity: querying with a data document must at least
        # find every window paired with itself.
        params = SearchParams(w=10, tau=2, k_max=3)
        searcher = PKWiseSearcher(small_corpus, params)
        document = small_corpus[0]
        result = searcher.search(document)
        found = pairs_as_set(result)
        for start in range(document.num_windows(10)):
            assert (0, start, start, 10) in found


class TestSchemes:
    def test_custom_scheme_respected(self, small_corpus):
        params = SearchParams(w=10, tau=2, k_max=2)
        order = GlobalOrder(small_corpus, 10)
        scheme = PartitionScheme(universe_size=order.universe_size, borders=(5,))
        searcher = PKWiseSearcher(small_corpus, params, scheme=scheme, order=order)
        assert searcher.scheme is scheme

    def test_scheme_m_mismatch_rejected(self, small_corpus):
        params = SearchParams(w=20, tau=2, k_max=2, m=2)
        order = GlobalOrder(small_corpus, 20)
        scheme = PartitionScheme(universe_size=order.universe_size, borders=(5,), m=1)
        with pytest.raises(ConfigurationError):
            PKWiseSearcher(small_corpus, params, scheme=scheme, order=order)
        with pytest.raises(ConfigurationError):
            PKWiseNonIntervalSearcher(
                small_corpus, params, scheme=scheme, order=order
            )

    def test_default_scheme_covers_universe(self, small_corpus):
        params = SearchParams(w=12, tau=2, k_max=4)
        order, scheme = order_and_scheme(small_corpus, params)
        assert scheme.k_max == 4
        assert scheme.universe_size == order.universe_size
        assert scheme.class_range(4)[1] == order.universe_size

    def test_k_max_1_equals_standard_prefix(self, small_corpus):
        from repro.baselines.prefix_join import StandardPrefixSearcher

        params = SearchParams(w=10, tau=2, k_max=1)
        order = GlobalOrder(small_corpus, 10)
        pkwise = PKWiseSearcher(data=small_corpus, params=params, order=order)
        standard = StandardPrefixSearcher(small_corpus, params, order=order)
        query = small_corpus[3]
        assert pairs_as_set(pkwise.search(query)) == pairs_as_set(
            standard.search(query)
        )


class TestSetupParity:
    """The array set-up gives what the per-rank and per-document loops
    gave: named cases of ``test_seams.cross_seams``, which holds the
    default scheme's borders and a shared order's ranks to those loops."""

    @pytest.mark.parametrize("k_max", [1, 2, 4])
    def test_default_scheme_borders(self, k_max):
        cross_seams(seam_case(k_max=k_max, m=1))

    @pytest.mark.parametrize("k_max", [1, 2, 4])
    def test_default_scheme_without_data_windows(self, k_max):
        cross_seams(seam_case(w=10, k_max=k_max, m=1, lengths=[9, 0, 2]))

    def test_shared_order_ranks_like_rank_document(self):
        cross_seams(seam_case(late=[12, 30, 5]))


class TestEdgeCases:
    def test_query_shorter_than_window(self, small_corpus):
        params = SearchParams(w=10, tau=1, k_max=2)
        searcher = PKWiseSearcher(small_corpus, params)
        query = small_corpus.encode_query("only three tokens")
        assert searcher.search(query).pairs == []

    def test_data_document_shorter_than_window(self):
        data = DocumentCollection()
        data.add_text("too short")
        data.add_text("this document is long enough for one window at least yes")
        params = SearchParams(w=8, tau=1, k_max=2)
        searcher = PKWiseSearcher(data, params)
        query = data.encode_query(
            "this document is long enough for one window at least yes"
        )
        result = searcher.search(query)
        assert all(pair.doc_id == 1 for pair in result.pairs)
        assert result.pairs  # exact copy present

    def test_tau_zero_exact_windows(self):
        data = DocumentCollection()
        data.add_text("a b c d e f")
        params = SearchParams(w=3, tau=0, k_max=1)
        searcher = PKWiseSearcher(data, params)
        query = data.encode_query("x b c d y")
        result = searcher.search(query)
        assert pairs_as_set(result) == {(0, 1, 1, 3)}

    def test_unknown_query_tokens_handled(self, small_corpus):
        params = SearchParams(w=10, tau=2, k_max=3)
        searcher = PKWiseSearcher(small_corpus, params)
        query = small_corpus.encode_query(" ".join(f"novel{i}" for i in range(30)))
        assert searcher.search(query).pairs == []

    def test_empty_collection(self):
        data = DocumentCollection()
        params = SearchParams(w=4, tau=1, k_max=2)
        searcher = PKWiseSearcher(data, params)
        query = data.encode_query("a b c d e")
        assert searcher.search(query).pairs == []


class TestChangedOnlyEvents:
    """The stream yields changed windows only; ``_search`` meets the
    windows in between with the merged candidates it carries."""

    W = 8

    @pytest.fixture
    def trailing_run(self):
        # The query ends "f f f f a b f f f f f f": from window 6 on,
        # every slide swaps one f for another and nothing changes.
        data = DocumentCollection()
        data.add_text("g h i j k l f f f f a b f f f f f f m n o p")
        data.add_text("f f f f q r f f f f s t f f f f u v f f f f")
        searcher = PKWiseSearcher(data, SearchParams(w=self.W, tau=1, k_max=2))
        query = data.encode_query("g h i j k l f f f f a b f f f f f f")
        return data, searcher, query

    def test_trailing_unchanged_windows_are_verified(self, trailing_run):
        data, searcher, query = trailing_run
        ranks = searcher.order.rank_document(query)
        stream = SignatureStream(ranks, self.W, 1, searcher.scheme)
        starts = [event.start for event in stream.events()]
        last_window = len(ranks) - self.W
        assert starts[-1] == last_window + 1 and starts[-2] <= last_window - 3
        result = searcher.search(query)
        assert pairs_as_set(result) == expected_pairs(data, query, self.W, 1)
        assert any(pair.query_start == last_window for pair in result.pairs)

    def test_cancel_inside_an_unchanged_run(self, trailing_run):
        _data, searcher, query = trailing_run
        calls = []

        def cancel():
            calls.append(None)
            return len(calls) == 10  # one call per window: window 9

        with pytest.raises(SearchCancelled) as raised:
            searcher.search(query, cancel=cancel)
        assert raised.value.windows_processed == 9
        assert len(calls) == 10


class TestStats:
    def test_stats_populated(self, small_corpus):
        params = SearchParams(w=10, tau=2, k_max=3)
        searcher = PKWiseSearcher(small_corpus, params)
        result = searcher.search(small_corpus[3])
        stats = result.stats
        assert stats.num_results == len(result.pairs)
        assert stats.signatures_generated > 0
        assert stats.shared_windows + stats.changed_windows == small_corpus[
            3
        ].num_windows(10)
        assert min(stats.phase_seconds().values()) >= 0.0

    def test_abstract_cost_weighting(self, small_corpus):
        params = SearchParams(w=10, tau=2, k_max=3)
        searcher = PKWiseSearcher(small_corpus, params)
        stats = searcher.search(small_corpus[0]).stats
        assert stats.abstract_cost(1, 0, 0) == stats.signature_tokens
        assert stats.abstract_cost(0, 1, 0) == stats.postings_entries
        assert stats.abstract_cost(0, 0, 1) == stats.hash_ops

    def test_search_many_merges(self, small_corpus):
        params = SearchParams(w=10, tau=1, k_max=2)
        searcher = PKWiseSearcher(small_corpus, params)
        queries = [small_corpus[0], small_corpus[1]]
        run = run_searcher(searcher, queries)
        assert run.num_queries == 2
        assert len(run.results_by_query) == 2
        assert run.stats.num_results == sum(
            len(pairs) for pairs in run.results_by_query.values()
        )

    def test_index_build_time_recorded(self, small_corpus):
        params = SearchParams(w=10, tau=1, k_max=2)
        searcher = PKWiseSearcher(small_corpus, params)
        assert searcher.index_build_seconds > 0.0

    def test_repr(self, small_corpus):
        params = SearchParams(w=10, tau=1, k_max=2)
        assert "pkwise" in repr(PKWiseSearcher(small_corpus, params)).lower()


class TestSearchStatsAccounting:
    def test_merge_accumulates_every_field(self):
        a = SearchStats(
            signature_time=1.0, candidate_time=2.0, verify_time=3.0,
            signature_tokens=4, signatures_generated=5, postings_entries=6,
            hash_ops=7, candidate_windows=8, num_results=9,
            shared_windows=10, changed_windows=11,
        )
        b = SearchStats(
            signature_time=0.5, candidate_time=0.5, verify_time=0.5,
            signature_tokens=1, signatures_generated=1, postings_entries=1,
            hash_ops=1, candidate_windows=1, num_results=1,
            shared_windows=1, changed_windows=1,
        )
        a.merge(b)
        assert a.signature_time == 1.5
        assert a.signature_tokens == 5
        assert a.num_results == 10
        assert a.changed_windows == 12
        assert sum(a.phase_seconds().values()) == 1.5 + 2.5 + 3.5

    def test_abstract_cost_default_weights(self):
        stats = SearchStats(signature_tokens=1, postings_entries=1, hash_ops=1)
        # Paper defaults: 10 + 2 + 1.
        assert stats.abstract_cost() == 13.0


class TestPhaseInstrumentation:
    def test_nonint_counts_per_window_generation(self, small_corpus):
        params = SearchParams(w=10, tau=2, k_max=2)
        order = GlobalOrder(small_corpus, 10)
        interval = PKWiseSearcher(small_corpus, params, order=order)
        nonint = PKWiseNonIntervalSearcher(small_corpus, params, order=order)
        query = small_corpus[3]
        shared = interval.search(query).stats
        unshared = nonint.search(query).stats
        # Without sharing, far more signatures are generated ...
        assert unshared.signatures_generated > shared.signatures_generated
        # ... and far more candidate windows are verified.
        assert unshared.candidate_windows > shared.candidate_windows

    def test_interval_sharing_fast_path_dominates(self, small_corpus):
        params = SearchParams(w=20, tau=2, k_max=2)
        searcher = PKWiseSearcher(small_corpus, params)
        stats = searcher.search(small_corpus[0]).stats
        assert stats.shared_windows > stats.changed_windows


class TestVerificationStateAcrossSlides:
    """``_search`` keeps one verifier state per merged interval, for as
    long as the interval is merged and no longer."""

    W, TAU = 10, 2

    @pytest.fixture
    def churn(self):
        # 1,000 query windows stitched from stretches of twelve
        # documents: candidates open, grow, merge and close throughout.
        rng = random.Random(24)
        vocab = [f"t{i}" for i in range(150)]
        data = DocumentCollection()
        docs = [[rng.choice(vocab) for _ in range(300)] for _ in range(12)]
        for tokens in docs:
            data.add_tokens(tokens)
        tokens = []
        while len(tokens) < 1000 + self.W - 1:
            if rng.random() < 0.6:
                source = rng.choice(docs)
                at = rng.randrange(len(source) - 60)
                stretch = source[at : at + rng.randint(15, 60)]
                stretch[rng.randrange(len(stretch))] = rng.choice(vocab)
                tokens.extend(stretch)
            else:
                tokens.extend(rng.choice(vocab) for _ in range(rng.randint(5, 30)))
        query = data.encode_query_tokens(tokens[: 1000 + self.W - 1])
        params = SearchParams(w=self.W, tau=self.TAU, k_max=2)
        return PKWiseSearcher(data, params), query

    def test_states_follow_merged_and_nothing_grows_with_the_query(
        self, churn, monkeypatch
    ):
        from repro.core.verify import IntervalVerifier

        searcher, query = churn
        seen = {"merged": 0, "states": 0, "retains": 0}

        class Watched(IntervalVerifier):
            def retain(self, live):
                super().retain(live)
                assert set(self._states) <= set(live)
                seen["merged"] = max(seen["merged"], len(live))
                seen["retains"] += 1

            def verify_interval(self, *args):
                pairs = super().verify_interval(*args)
                seen["states"] = max(seen["states"], len(self._states))
                for name, value in vars(self).items():
                    if isinstance(value, list) and name != "query_ranks":
                        assert len(value) <= len(self._query_changes), name
                return pairs

        class Forgetful(IntervalVerifier):
            """Every call a first touch: verification as it was before."""

            def verify_interval(self, *args):
                self._states.clear()
                return super().verify_interval(*args)

        monkeypatch.setattr("repro.core.pkwise.IntervalVerifier", Watched)
        got = searcher.search(query)
        assert seen["retains"] > 300 and seen["merged"] > 3
        assert 0 < seen["states"] <= seen["merged"]
        assert got.stats.verify_carried > 0

        monkeypatch.setattr("repro.core.pkwise.IntervalVerifier", Forgetful)
        want = searcher.search(query)
        assert want.stats.verify_carried == 0
        assert got.pairs == want.pairs and got.pairs
        assert (got.stats.hash_ops, got.stats.candidate_windows) == (
            want.stats.hash_ops, want.stats.candidate_windows
        )

    def test_live_index_carries_state_in_a_mapped_segment_and_the_memtable(
        self, tmp_path
    ):
        from repro.baselines.bruteforce import BruteForceSearcher
        from repro.ingest import IngestStore

        rng = random.Random(7)
        params = SearchParams(w=self.W, tau=self.TAU, k_max=2)
        vocab = [f"t{i}" for i in range(80)]
        texts = [[rng.choice(vocab) for _ in range(90)] for _ in range(8)]
        shared = texts[1][10:60]
        texts[6][20:70] = shared  # a memtable document reuses a segment's text
        store = IngestStore.create(
            params, directory=tmp_path / "live", data=DocumentCollection()
        )
        for tokens in texts[:5]:
            store.add_tokens(tokens)
        store.flush()
        store.close()
        store = IngestStore.open(tmp_path / "live")  # the segment is mapped
        for tokens in texts[5:]:
            store.add_tokens(tokens)
        assert store.num_segments == 1 and store.memtable_docs == 3
        assert not store._segments[0].rank_docs._values.flags["OWNDATA"]
        query = store.data.encode_query_tokens(shared[:3] + ["t999"] + shared[4:])
        got = store.searcher().search(query)
        want = BruteForceSearcher(store.data, params, order=store.order).search(query)
        assert pairs_as_set(got) == pairs_as_set(want)
        assert {pair.doc_id for pair in got.pairs} >= {1, 6}
        # Most windows meet the intervals the window before them met.
        assert got.stats.verify_carried > len(query.tokens) - self.W
        store.close()
