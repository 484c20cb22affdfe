"""Tests for the plagiarism injector and ground-truth bookkeeping."""

from __future__ import annotations

import pytest

from repro.corpus import DocumentCollection
from repro.corpus.plagiarism import (
    GroundTruthPair,
    ObfuscationLevel,
    PlagiarismInjector,
    shift_spans,
)


def make_data(num_docs=3, length=100):
    data = DocumentCollection()
    for d in range(num_docs):
        data.add_tokens([f"t{d}_{i}" for i in range(length)])
    return data


class TestObfuscate:
    def test_none_is_identity(self):
        injector = PlagiarismInjector(seed=0, vocabulary_size=100)
        tokens = list(range(50))
        assert injector.obfuscate(tokens, ObfuscationLevel.NONE) == tokens

    def test_low_changes_little(self):
        injector = PlagiarismInjector(seed=0, vocabulary_size=100)
        tokens = list(range(200))
        out = injector.obfuscate(tokens, ObfuscationLevel.LOW)
        shared = len(set(out) & set(tokens))
        assert shared > 150  # most tokens survive

    def test_simulated_changes_more_than_low(self):
        tokens = list(range(300))
        low = PlagiarismInjector(seed=1, vocabulary_size=10_000).obfuscate(
            list(tokens), ObfuscationLevel.LOW
        )
        simulated = PlagiarismInjector(seed=1, vocabulary_size=10_000).obfuscate(
            list(tokens), ObfuscationLevel.SIMULATED
        )
        assert len(set(simulated) & set(tokens)) < len(set(low) & set(tokens))

    def test_deterministic(self):
        a = PlagiarismInjector(seed=5, vocabulary_size=50).obfuscate(
            list(range(100)), ObfuscationLevel.HIGH
        )
        b = PlagiarismInjector(seed=5, vocabulary_size=50).obfuscate(
            list(range(100)), ObfuscationLevel.HIGH
        )
        assert a == b

    def test_rejects_empty_vocabulary(self):
        with pytest.raises(Exception):
            PlagiarismInjector(seed=0, vocabulary_size=0)


class TestSpliceCase:
    def test_splice_records_exact_span(self):
        data = make_data()
        injector = PlagiarismInjector(seed=2, vocabulary_size=len(data.vocabulary))
        query = list(range(1000, 1030))
        new_tokens, truth = injector.splice_case(
            data, query_id=0, query_tokens=query, segment_length=20,
            level=ObfuscationLevel.NONE,
        )
        assert truth is not None
        qlo, qhi = truth.query_span
        dlo, dhi = truth.data_span
        copied = new_tokens[qlo : qhi + 1]
        original = list(data[truth.data_doc_id].tokens[dlo : dhi + 1])
        assert copied == original
        assert len(new_tokens) == len(query) + 20

    def test_splice_no_donor(self):
        data = make_data(num_docs=1, length=5)
        injector = PlagiarismInjector(seed=0, vocabulary_size=len(data.vocabulary))
        tokens, truth = injector.splice_case(
            data, 0, [1, 2, 3], segment_length=50, level=ObfuscationLevel.NONE
        )
        assert truth is None
        assert tokens == [1, 2, 3]

    def test_levels_recorded(self):
        data = make_data()
        injector = PlagiarismInjector(seed=3, vocabulary_size=len(data.vocabulary))
        _tokens, truth = injector.splice_case(
            data, 7, list(range(40)), segment_length=10,
            level=ObfuscationLevel.HIGH,
        )
        assert truth.level is ObfuscationLevel.HIGH
        assert truth.query_id == 7

    def test_donors_are_one_scan_per_collection(self, monkeypatch):
        # Each case draws a donor from the documents long enough to give
        # a segment; that list is one scan of a collection per segment
        # length (a collection only grows), not one per case.
        scans = []
        real = DocumentCollection.__iter__

        def counted(collection):
            scans.append(collection)
            return real(collection)

        monkeypatch.setattr(DocumentCollection, "__iter__", counted)
        data, other = make_data(), make_data(num_docs=2)
        injector = PlagiarismInjector(seed=4, vocabulary_size=len(data.vocabulary))
        for length in (20, 20, 20, 30, 30):
            for _ in range(10):
                assert injector.splice_case(data, 0, [1, 2], length, ObfuscationLevel.NONE)[1]
        assert len(scans) == 2
        injector.splice_case(other, 0, [1, 2], 30, ObfuscationLevel.NONE)
        data.add_tokens(["long"] * 40)
        _tokens, truth = injector.splice_case(data, 0, [1, 2], 30, ObfuscationLevel.NONE)
        assert scans == [data, data, other, data] and truth is not None

    def test_profile_collection_is_pinned(self):
        # One seeded call's data, queries, vocabulary and truth: the generator's output is fixed.
        import hashlib

        from repro.corpus.synthetic import ReuseSpec, make_profile_collection

        data, queries, truth = make_profile_collection(
            "REUTERS", 0.02, 7, reuse=ReuseSpec(cases_per_query=2, segment_length=150),
            num_queries=24,
        )
        state = hashlib.blake2b(digest_size=16)
        for document in [*data, *queries]:
            state.update(repr((document.name, list(document.tokens))).encode())
        state.update(repr(data.vocabulary.decode(range(len(data.vocabulary)))).encode())
        state.update(repr(truth).encode())
        assert (len(data), len(queries), len(truth)) == (156, 24, 48)
        assert state.hexdigest() == "a1fc6b52750bdc8891ca95fe5972479d"


class TestShiftSpans:
    def _truth(self, span, query_id=0):
        return GroundTruthPair(
            data_doc_id=0,
            data_span=(0, 9),
            query_id=query_id,
            query_span=span,
            level=ObfuscationLevel.NONE,
        )

    def test_insert_before_shifts(self):
        out = shift_spans([self._truth((10, 19))], 0, insert_at=5, inserted_length=3)
        assert out[0].query_span == (13, 22)

    def test_insert_after_no_shift(self):
        out = shift_spans([self._truth((10, 19))], 0, insert_at=25, inserted_length=3)
        assert out[0].query_span == (10, 19)

    def test_insert_inside_stretches(self):
        out = shift_spans([self._truth((10, 19))], 0, insert_at=15, inserted_length=3)
        assert out[0].query_span == (10, 22)

    def test_other_query_untouched(self):
        out = shift_spans([self._truth((10, 19), query_id=1)], 0, 0, 100)
        assert out[0].query_span == (10, 19)
