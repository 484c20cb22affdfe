"""Tests for documents, collections, loaders, and statistics."""

from __future__ import annotations

import pickle

import pytest

from repro import CorpusError
from repro.core.pkwise import PKWiseSearcher
from repro.corpus import (
    CollectionStats,
    DocumentCollection,
    collection_from_directory,
    collection_from_texts,
)


class TestDocument:
    def test_windows(self):
        data = DocumentCollection()
        doc = data.add_text("a b c d e")
        assert doc.num_windows(3) == 3
        assert doc.window(1, 3) == tuple(map(data.vocabulary.id_of, "bcd"))

    def test_window_out_of_range(self):
        data = DocumentCollection()
        doc = data.add_text("a b c")
        with pytest.raises(IndexError):
            doc.window(2, 3)
        with pytest.raises(IndexError):
            doc.window(-1, 2)

    def test_short_document_no_windows(self):
        data = DocumentCollection()
        doc = data.add_text("a b")
        assert doc.num_windows(5) == 0

    def test_equality_and_hash(self):
        data = DocumentCollection()
        doc = data.add_text("a b c")
        assert doc == doc
        assert hash(doc) == hash(doc)
        assert doc != "a b c"  # not a Document; __eq__ returns NotImplemented

    def test_len_iter_getitem(self):
        data = DocumentCollection()
        doc = data.add_text("a b a")
        assert len(doc) == 3
        assert list(doc) == [0, 1, 0]
        assert doc[0] == 0
        assert doc[1:] == (1, 0)

    def test_source_tokens_survive_a_pickle_round_trip(self):
        data = DocumentCollection()
        doc = pickle.loads(pickle.dumps(data.add_text("a b c")))
        query = pickle.loads(pickle.dumps(data.encode_query("a zzz c")))
        assert doc.source_tokens is None
        assert query.source_tokens == ("a", "zzz", "c")
        assert data.decode_window(query, 0, 3) == ["a", "zzz", "c"]


class TestCollection:
    def test_shared_vocabulary(self):
        data = DocumentCollection()
        d1 = data.add_text("a b")
        d2 = data.add_text("b c")
        assert d1.tokens[1] == d2.tokens[0]  # both are "b"

    def test_doc_ids_sequential(self):
        data = DocumentCollection()
        for index in range(3):
            assert data.add_text(f"doc {index}").doc_id == index

    def test_encode_query_oov_sentinel(self):
        from repro.tokenize.vocabulary import OOV_TOKEN_ID

        data = DocumentCollection()
        data.add_text("a b c")
        query = data.encode_query("c d")
        assert query.doc_id == -1
        assert query.tokens[0] == data.vocabulary.id_of("c")
        # "d" is out of vocabulary: mapped to the sentinel, not interned.
        assert query.tokens[1] == OOV_TOKEN_ID
        assert "d" not in data.vocabulary
        assert len(data.vocabulary) == 3

    def test_add_token_ids_validates_range(self):
        data = DocumentCollection()
        data.add_text("a")
        with pytest.raises(CorpusError):
            data.add_token_ids([5])
        with pytest.raises(CorpusError):
            data.add_token_ids([-1])
        with pytest.raises(CorpusError, match="token id 7 out of range"):
            data.add_token_ids([0, 7, -1, 9])
        assert len(data) == 1

    def test_totals(self):
        data = DocumentCollection()
        data.add_text("a b c d")
        data.add_text("e f")
        assert data.total_tokens() == 6
        assert data.total_windows(3) == 2  # only the first doc has windows

    def test_subset_preserves_vocabulary(self):
        data = DocumentCollection()
        data.add_text("a b c d e")
        data.add_text("f g h i j")
        data.add_text("a a a a a")
        sub = data.subset([2, 0])
        assert len(sub) == 2
        assert sub[0].doc_id == 0  # renumbered
        assert sub[0].tokens == data[2].tokens  # same ids
        assert sub.vocabulary is data.vocabulary

    def test_repr(self):
        data = DocumentCollection()
        data.add_text("a b")
        assert "docs=1" in repr(data)


class TestLoaders:
    def test_from_texts(self):
        collection = collection_from_texts(["a b c", "d e f"])
        assert len(collection) == 2

    def test_from_texts_min_tokens(self):
        collection = collection_from_texts(["a b c", "d"], min_tokens=2)
        assert len(collection) == 1

    def test_from_texts_names_mismatch(self):
        with pytest.raises(CorpusError):
            collection_from_texts(["a"], names=["x", "y"])

    def test_from_directory(self, tmp_path):
        (tmp_path / "b.txt").write_text("second doc here")
        (tmp_path / "a.txt").write_text("first doc here")
        collection = collection_from_directory(tmp_path)
        # Sorted name order.
        assert collection[0].name == "a.txt"
        assert collection[1].name == "b.txt"

    def test_from_directory_missing(self, tmp_path):
        with pytest.raises(CorpusError):
            collection_from_directory(tmp_path / "nope")

    def test_from_directory_no_matches(self, tmp_path):
        with pytest.raises(CorpusError):
            collection_from_directory(tmp_path, pattern="*.xml")


class TestStats:
    def test_compute(self):
        data = DocumentCollection()
        data.add_text("a b c d")
        data.add_text("a b")
        queries = [data.encode_query("c d e f")]
        stats = CollectionStats.compute(data, queries)
        assert stats.num_data_documents == 2
        assert stats.num_query_documents == 1
        assert stats.avg_data_length == 3.0
        assert stats.avg_query_length == 4.0
        # a b c d + the OOV sentinel: query-only tokens "e" and "f" are
        # not interned, they collapse onto one sentinel id.
        assert stats.universe_size == 5

    def test_empty(self):
        data = DocumentCollection()
        stats = CollectionStats.compute(data, [])
        assert stats.avg_data_length == 0.0
        assert stats.universe_size == 0

    def test_table_row_contains_fields(self):
        data = DocumentCollection()
        data.add_text("x y")
        row = CollectionStats.compute(data, []).as_table_row("TEST")
        assert "TEST" in row and "|D|=1" in row


class TestDocumentDecoding:
    def test_match_decodes_to_text(self, paper_example):
        data, query, params = paper_example
        searcher = PKWiseSearcher(data, params)
        match = searcher.search(query).pairs[0]
        document = data[match.doc_id]
        window = data.vocabulary.decode(
            document.window(match.data_start, params.w)
        )
        assert window == ["the", "lord", "of", "the"]

    def test_query_window_decodes(self, paper_example):
        data, query, params = paper_example
        searcher = PKWiseSearcher(data, params)
        match = searcher.search(query).pairs[0]
        # decode_window prefers the query's source_tokens: OOV words
        # ("and" here) render faithfully, not as the sentinel.
        window = data.decode_window(query, match.query_start, params.w)
        assert window == ["the", "lord", "and", "the"]

    def test_query_window_vocab_decode_shows_sentinel(self, paper_example):
        from repro.tokenize.vocabulary import OOV_TOKEN

        data, query, params = paper_example
        searcher = PKWiseSearcher(data, params)
        match = searcher.search(query).pairs[0]
        window = data.vocabulary.decode(
            query.window(match.query_start, params.w)
        )
        assert window == ["the", "lord", OOV_TOKEN, "the"]
