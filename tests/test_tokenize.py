"""Tests for tokenizers and the vocabulary."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TokenizationError
from repro.tokenize import Vocabulary, WhitespaceTokenizer
from repro.tokenize.tokenizer import QGramTokenizer, WordTokenizer


class TestWhitespaceTokenizer:
    def test_basic_split(self):
        assert WhitespaceTokenizer().tokenize("the lord of the rings") == [
            "the",
            "lord",
            "of",
            "the",
            "rings",
        ]

    def test_lowercases_by_default(self):
        assert WhitespaceTokenizer().tokenize("The LORD") == ["the", "lord"]

    def test_lowercase_off(self):
        assert WhitespaceTokenizer(lowercase=False).tokenize("The LORD") == [
            "The",
            "LORD",
        ]

    def test_collapses_whitespace_runs(self):
        assert WhitespaceTokenizer().tokenize("a  b\t\nc") == ["a", "b", "c"]

    def test_empty_string(self):
        assert WhitespaceTokenizer().tokenize("") == []

    def test_callable(self):
        tokenizer = WhitespaceTokenizer()
        assert tokenizer("a b") == ["a", "b"]


class TestWordTokenizer:
    def test_strips_punctuation(self):
        assert WordTokenizer().tokenize("the lord-of the rings!") == [
            "the",
            "lord",
            "of",
            "the",
            "rings",
        ]

    def test_keeps_apostrophes(self):
        assert WordTokenizer().tokenize("don't stop") == ["don't", "stop"]

    def test_min_length_filter(self):
        assert WordTokenizer(min_length=3).tokenize("a an the lord") == [
            "the",
            "lord",
        ]

    def test_rejects_bad_min_length(self):
        with pytest.raises(TokenizationError):
            WordTokenizer(min_length=0)

    def test_numbers_kept(self):
        assert WordTokenizer().tokenize("chapter 42") == ["chapter", "42"]


class TestQGramTokenizer:
    def test_bigrams(self):
        grams = QGramTokenizer(q=2).tokenize("a b c d")
        assert len(grams) == 3
        assert grams[0].split("␟") == ["a", "b"]

    def test_too_short_input(self):
        assert QGramTokenizer(q=3).tokenize("a b") == []

    def test_q1_equals_inner(self):
        assert QGramTokenizer(q=1).tokenize("a b c") == ["a", "b", "c"]

    def test_rejects_bad_q(self):
        with pytest.raises(TokenizationError):
            QGramTokenizer(q=0)

    def test_gramify_counts(self):
        tokenizer = QGramTokenizer(q=2)
        assert len(tokenizer.gramify(list("abcdef"))) == 5


class TestVocabulary:
    def test_dense_ids(self):
        vocab = Vocabulary()
        assert vocab.encode(["a"]) == [0]
        assert vocab.encode(["b", "a"]) == [1, 0]
        assert len(vocab) == 2

    def test_encode_decode_roundtrip(self):
        vocab = Vocabulary()
        tokens = ["x", "y", "x", "z"]
        ids = vocab.encode(tokens)
        assert vocab.decode(ids) == tokens

    def test_id_of_unknown_raises(self):
        with pytest.raises(KeyError):
            Vocabulary().id_of("missing")

    def test_contains_and_iter(self):
        vocab = Vocabulary(["a", "b"])
        assert "a" in vocab
        assert list(vocab) == ["a", "b"]

    # A small alphabet of multi-byte, NUL and blank characters: st.text()
    # would build its Unicode table first, ~2 s of a fresh checkout.
    @given(st.lists(st.text(alphabet="ab\x00 é日😀", min_size=1, max_size=5), max_size=50))
    def test_ids_stable_and_bijective(self, tokens):
        vocab = Vocabulary()
        ids = vocab.encode(tokens)
        # Same token -> same id; different tokens -> different ids.
        mapping = {}
        for token, token_id in zip(tokens, ids):
            assert mapping.setdefault(token, token_id) == token_id
        assert len(set(mapping.values())) == len(mapping)
        # Decoding inverts encoding.
        assert vocab.decode(ids) == tokens

    @given(
        st.lists(st.sampled_from("abcdefgh"), max_size=6),
        st.lists(st.sampled_from("abcdefghijkl"), max_size=40),
        st.booleans(),
    )
    def test_encode_equals_sequential_add(self, known, tokens, as_generator):
        # ``encode`` looks every token up in one pass and interns each
        # miss where it meets it; a new token repeated inside one list
        # must get the id its first occurrence was given, exactly as
        # interning one token at a time (the dict below) does.
        bulk = Vocabulary(known)
        sequential: dict[str, int] = {}
        for token in known:
            sequential.setdefault(token, len(sequential))
        ids = bulk.encode(iter(tokens) if as_generator else tokens)
        assert ids == [sequential.setdefault(token, len(sequential)) for token in tokens]
        assert list(bulk) == list(sequential)


class TestTokenizerUnicode:
    def test_whitespace_handles_unicode(self):
        from repro.tokenize import WhitespaceTokenizer

        tokens = WhitespaceTokenizer().tokenize("naïve café　東京")
        assert "naïve" in tokens and "café" in tokens

    def test_word_tokenizer_ascii_only_words(self):
        from repro.tokenize.tokenizer import WordTokenizer

        # The word tokenizer extracts ASCII alphanumerics; non-Latin
        # scripts need the whitespace tokenizer.
        assert WordTokenizer().tokenize("abc123 déf") == ["abc123", "d", "f"]
