"""Tests for window frequencies and the global order."""

from __future__ import annotations

import pickle
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import DocumentCollection
from repro.errors import CorpusError
from repro.ordering import GlobalOrder
from repro.ordering.global_order import OOV_RANK, window_frequencies
from repro.routing import FingerprintTier
from repro.tokenize import Vocabulary

from .conftest import PerTokenOrder, admitted_ranks
from .test_seams import cross_seams, seam_case


class TestWindowFrequencies:
    def test_paper_example(self):
        # Example 1: window frequency of the/lord/of = 2, rings = 1.
        data = DocumentCollection()
        data.add_text("the lord of the rings")
        freq = window_frequencies(data, 4)
        vocab = data.vocabulary
        assert freq[vocab.id_of("the")] == 2
        assert freq[vocab.id_of("lord")] == 2
        assert freq[vocab.id_of("of")] == 2
        assert freq[vocab.id_of("rings")] == 1

    def test_short_document_contributes_nothing(self):
        data = DocumentCollection()
        data.add_text("a b")
        assert window_frequencies(data, 5).tolist() == [0, 0]

    def test_w_equals_one(self):
        data = DocumentCollection()
        data.add_text("a b a")
        freq = window_frequencies(data, 1)
        assert freq[data.vocabulary.id_of("a")] == 2
        assert freq[data.vocabulary.id_of("b")] == 1

    # The block seams: named cases of test_seams.cross_seams, which holds
    # the counts to the per-document count and the order to its key.
    def test_matches_brute_force(self):
        cross_seams(seam_case(w=1, tau=0, k_max=1, m=1, size=6, order_tokens=1))

    @pytest.mark.parametrize("vocabulary_size", [300, 40_000])
    def test_blocks_match_the_per_document_count(self, vocabulary_size):
        # 40,000 names take the int32 token column.
        cross_seams(seam_case(size=vocabulary_size))


class TestSetupMemory:
    """The order and the fingerprints work in bounded blocks: their
    tracemalloc peaks stay a few MB over 2**18 tokens (the order's was
    20 MB when it sorted every occurrence of the corpus at once)."""

    @pytest.fixture(scope="class")
    def corpus(self):
        rng = np.random.default_rng(0)
        data = DocumentCollection(vocabulary=Vocabulary(f"t{i}" for i in range(5000)))
        for tokens in np.split(rng.integers(0, 5000, 2**18), 2048):
            data.add_token_ids(tokens.tolist())
        return data

    @staticmethod
    def peak(build):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            built = build()
            return built, tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    def test_order(self, corpus):
        order, peak = self.peak(lambda: GlobalOrder(corpus, 50))
        assert order.num_data_windows == 2048 * (128 - 50 + 1)
        assert peak < 3 * 2**20, peak

    def test_fingerprints(self, corpus):
        ranks = GlobalOrder(corpus, 50).rank_documents(corpus)
        tier, peak = self.peak(lambda: FingerprintTier.from_rank_docs(ranks, block_len=128))
        assert tier.ndocs == 2048
        assert peak < 3 * 2**20, peak


class TestGlobalOrder:
    def _paper_order(self):
        data = DocumentCollection()
        data.add_text("the lord of the rings")
        return data, GlobalOrder(data, 4)

    def test_example2_order(self):
        # Paper Example 2: O is E < F < D < A < B < C, i.e. rings (D)
        # before the/lord/of; with ties broken lexicographically the data
        # tokens sort rings < lord < of < the.
        data, order = self._paper_order()
        vocab = data.vocabulary
        names = ("the", "lord", "of", "rings")
        ranks = dict(zip(names, order.rank_sequence([vocab.id_of(n) for n in names])))
        assert ranks["rings"] == 0  # unique rarest data token
        assert ranks["lord"] < ranks["of"] < ranks["the"]  # freq ties, lexicographic

    def test_query_only_tokens_rank_first(self):
        data, order = self._paper_order()
        query_token = data.vocabulary.encode(["and"])[0]
        [rank] = order.rank_sequence([query_token])
        assert rank < 0  # before every data token

    def test_extra_ranks_stable(self):
        data, order = self._paper_order()
        t1 = data.vocabulary.encode(["zzz1"])[0]
        t2 = data.vocabulary.encode(["zzz2"])[0]
        first, again, second = order.rank_sequence([t1, t1, t2], admit=True)
        assert first == again == order.rank_sequence([t1])[0]
        assert first != second

    def test_frequency_of_rank(self):
        data, order = self._paper_order()
        assert order.frequency_of_rank(0) == 1  # rings
        assert order.frequency_of_rank(-5) == 0  # any query-only token

    def test_relative_frequency(self):
        data, order = self._paper_order()
        assert order.num_data_windows == 2
        assert order.frequency_of_rank(3) / 2 == order.relative_frequency_of_rank(3)

    def test_rank_is_permutation(self):
        rng = random.Random(0)
        data = DocumentCollection()
        for _ in range(4):
            data.add_tokens([f"t{rng.randrange(30)}" for _ in range(30)])
        order = GlobalOrder(data, 5)
        ranks = sorted(order.rank_sequence(range(len(data.vocabulary))))
        assert ranks == list(range(len(data.vocabulary)))

    def test_order_sorted_by_frequency(self):
        rng = random.Random(1)
        data = DocumentCollection()
        for _ in range(4):
            data.add_tokens([f"t{rng.randrange(15)}" for _ in range(40)])
        order = GlobalOrder(data, 6)
        freqs = [order.frequency_of_rank(r) for r in range(order.universe_size)]
        assert freqs == sorted(freqs)

    def test_rank_document_preserves_positions(self):
        data = DocumentCollection()
        document = data.add_text("a b a")
        order = GlobalOrder(data, 2)
        ranks = order.rank_document(document)
        assert ranks[0] == ranks[2]
        assert ranks[0] != ranks[1]


class TestRankSequence:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(-1, 11), max_size=30),
        st.lists(st.integers(-1, 13), max_size=30),
    )
    def test_equals_per_token_rank(self, first, second):
        # Ids 0-5 are built and -1 is the OOV sentinel.  ``first`` is
        # written: its new ids, renumbered to the next ones (6, 7, ...,
        # as a vocabulary interns them) but kept in their order of
        # arrival, are admitted.  ``second`` is a query mixing admitted,
        # built, never admitted and OOV ids: it admits nothing.
        data = DocumentCollection()
        data.add_tokens(["a", "b", "c", "a", "d", "e", "f", "b"])
        bulk = GlobalOrder(data, 3)
        assert bulk.universe_size == 6
        new = sorted({token for token in first if token >= 6})
        first = [6 + new.index(token) if token >= 6 else token for token in first]
        per_token = PerTokenOrder(bulk)
        assert bulk.rank_sequence(first, admit=True) == per_token.rank_sequence(first)
        assert admitted_ranks(bulk) == per_token.extra_ranks
        for tokens in (second, [], [5, 0, 3]):
            assert bulk.rank_sequence(tokens) == per_token.rank_sequence(tokens, admit=False)
            assert admitted_ranks(bulk) == per_token.extra_ranks

    def test_a_query_id_past_the_ranked_ones_takes_oov_and_grows_nothing(self):
        # An id no document holds, however large, is OOV_RANK: the rank
        # table is not sized by it and nothing is admitted.
        data = DocumentCollection()
        data.add_tokens(["a", "b", "c"])
        order = GlobalOrder(data, 2)
        order.rank_sequence(data.vocabulary.encode(["d"]), admit=True)
        table = order._rank_of_token
        ids = [10**9, 2**62, 2**63 - 1, -1, -(2**63), 3, 0]
        assert order.rank_sequence(ids) == [OOV_RANK] * 5 + [-1, order.rank_sequence([0])[0]]
        assert order._rank_of_token is table and order.num_admitted == 1

    def test_a_write_that_skips_an_id_is_refused_before_it_allocates(self):
        order = GlobalOrder(DocumentCollection(), 2)
        table = order._rank_of_token
        for ids in ([1], [0, 2], [10**9]):
            with pytest.raises(CorpusError, match="never ranked"):
                order.rank_sequence(ids, admit=True)
            assert order._rank_of_token is table and order.num_admitted == 0
        assert order.rank_sequence([1, 0, 1], admit=True) == [-1, -2, -1]


class TestGlobalOrderEdges:
    def test_window_larger_than_all_documents(self):
        data = DocumentCollection()
        data.add_text("a b c")
        order = GlobalOrder(data, 10)
        assert order.num_data_windows == 0
        assert order.relative_frequency_of_rank(0) == 0.0

    def test_empty_collection(self):
        data = DocumentCollection()
        order = GlobalOrder(data, 5)
        assert order.universe_size == 0
        # Any token id is "new": a write admits it at a negative rank; a
        # query before that ranks it OOV.
        data.vocabulary.encode(["x"])
        assert order.rank_sequence([0]) == [OOV_RANK]
        assert order.rank_sequence([0], admit=True) == [-1]
        assert order.rank_sequence([0]) == [-1]

    def test_admitted_ranks_widen_the_table(self):
        # Past 32,768 admitted tokens the lowest rank leaves int16: the
        # table widens, and the stored column takes the ids' own width.
        order = GlobalOrder(DocumentCollection(), 5)
        ids = list(range(40_000))
        assert order.rank_sequence(ids, admit=True) == [-1 - i for i in ids]
        assert order._rank_of_token.dtype == np.int32
        loaded = pickle.loads(pickle.dumps(order))
        assert order.__getstate__()["_admitted"].dtype == np.int32
        assert not loaded._freq_of_rank.flags.writeable
        assert loaded.rank_sequence([39_999, 0, 40_000], admit=True) == [-40_000, -1, -40_001]
        assert order.rank_sequence([40_000], admit=True) == [-40_001]
