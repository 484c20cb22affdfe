"""Tests for the all-pairs self-join."""

from __future__ import annotations

import random

from repro import SearchParams, local_similarity_self_join
from repro.corpus import DocumentCollection

from .conftest import expected_pairs


def corpus_with_copy():
    rng = random.Random(5)
    data = DocumentCollection()
    docs = [
        [f"t{rng.randrange(200)}" for _ in range(60)] for _ in range(4)
    ]
    docs[2][10:40] = docs[0][5:35]  # doc2 copies a segment of doc0
    for tokens in docs:
        data.add_tokens(tokens)
    return data


class TestSelfJoin:
    def test_finds_cross_document_copy(self):
        data = corpus_with_copy()
        params = SearchParams(w=10, tau=2, k_max=2)
        pairs = local_similarity_self_join(data, params)
        cross = [p for p in pairs if p.left_doc != p.right_doc]
        assert any(
            {p.left_doc, p.right_doc} == {0, 2} for p in cross
        )

    def test_no_identity_pairs(self):
        data = corpus_with_copy()
        params = SearchParams(w=10, tau=2, k_max=2)
        pairs = local_similarity_self_join(data, params)
        for p in pairs:
            assert (p.left_doc, p.left_start) != (p.right_doc, p.right_start)

    def test_canonical_orientation_unique(self):
        data = corpus_with_copy()
        params = SearchParams(w=10, tau=2, k_max=2)
        pairs = local_similarity_self_join(data, params)
        assert len(pairs) == len(set(pairs))
        for p in pairs:
            assert (p.left_doc, p.left_start) < (p.right_doc, p.right_start)

    def test_matches_bruteforce_reference(self):
        data = corpus_with_copy()
        w, tau = 10, 2
        params = SearchParams(w=w, tau=tau, k_max=2)
        got = {
            (p.left_doc, p.left_start, p.right_doc, p.right_start)
            for p in local_similarity_self_join(data, params)
        }
        expected = set()
        for document in data:
            for doc_id, data_start, query_start, _overlap in expected_pairs(
                data, document, w, tau
            ):
                left = (doc_id, data_start)
                right = (document.doc_id, query_start)
                if left < right:
                    expected.add((*left, *right))
        assert got == expected

    def test_exclude_same_document_within(self):
        data = DocumentCollection()
        data.add_tokens(["a"] * 30)  # every window identical to neighbours
        params = SearchParams(w=5, tau=1, k_max=1)
        all_pairs = local_similarity_self_join(data, params)
        assert all_pairs  # overlapping self-windows match
        filtered = local_similarity_self_join(
            data, params, exclude_same_document_within=len(data[0])
        )
        assert filtered == []

    def test_overlap_values_correct(self):
        data = corpus_with_copy()
        params = SearchParams(w=10, tau=2, k_max=2)
        for p in local_similarity_self_join(data, params):
            left_window = data[p.left_doc].tokens[p.left_start : p.left_start + 10]
            right_window = data[p.right_doc].tokens[
                p.right_start : p.right_start + 10
            ]
            from repro.windows.rolling import window_overlap

            assert window_overlap(left_window, right_window) == p.overlap
