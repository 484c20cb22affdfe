"""Tests for incremental index maintenance through the :class:`repro.Index`
facade: an add is found, a removal is not, and one undoes nothing of the
other.  Every add / remove / flush / compact step's pairs are the
``live`` and ``served`` cells of ``test_exactness.py``.
"""

from __future__ import annotations

import random

import pytest

from repro import Index, SearchParams
from repro.core.pkwise import PKWiseSearcher
from repro.corpus import DocumentCollection

from .conftest import pairs_as_set


def corpus(seed=0, docs=3, length=50, vocab=60):
    rng = random.Random(seed)
    data = DocumentCollection()
    for _ in range(docs):
        data.add_tokens([f"t{rng.randrange(vocab)}" for _ in range(length)])
    return data, rng


class TestAddDocument:
    def test_added_document_searchable(self):
        data, rng = corpus()
        params = SearchParams(w=10, tau=2, k_max=2)
        index = Index(PKWiseSearcher(data, params), data)
        new_doc = data.add_tokens([f"t{rng.randrange(60)}" for _ in range(50)])
        doc_id = index.add(new_doc)
        assert doc_id == 3
        assert index.live
        result = index.search(new_doc)
        # The new document matches itself on every window.
        for start in range(new_doc.num_windows(10)):
            assert (doc_id, start, start, 10) in pairs_as_set(result)

    def test_added_document_with_new_tokens(self):
        data, _rng = corpus(seed=2)
        params = SearchParams(w=6, tau=1, k_max=2)
        index = Index(PKWiseSearcher(data, params), data)
        new_doc = data.add_tokens([f"fresh{i}" for i in range(20)])
        doc_id = index.add(new_doc)
        result = index.search(new_doc)
        assert (doc_id, 0, 0, 6) in pairs_as_set(result)

class TestRemoveDocument:
    def test_removed_document_excluded(self):
        data, _rng = corpus(seed=4)
        params = SearchParams(w=10, tau=2, k_max=2)
        index = Index(PKWiseSearcher(data, params), data)
        query = data[1]
        before = pairs_as_set(index.search(query))
        assert any(doc_id == 1 for doc_id, *_ in before)
        index.remove(1)
        after = pairs_as_set(index.search(query))
        assert after == {t for t in before if t[0] != 1}
        assert index.searcher().removed_documents == frozenset({1})

    def test_remove_unknown_raises(self):
        data, _rng = corpus()
        index = Index(
            PKWiseSearcher(data, SearchParams(w=10, tau=2, k_max=2)), data
        )
        with pytest.raises(IndexError):
            index.remove(99)

    def test_remove_then_add_independent(self):
        data, rng = corpus(seed=5, docs=2)
        params = SearchParams(w=8, tau=1, k_max=2)
        index = Index(PKWiseSearcher(data, params), data)
        index.remove(0)
        new_doc = data.add_tokens([f"t{rng.randrange(60)}" for _ in range(30)])
        new_id = index.add(new_doc)
        result = pairs_as_set(index.search(new_doc))
        assert all(doc_id != 0 for doc_id, *_ in result)
        assert any(doc_id == new_id for doc_id, *_ in result)
