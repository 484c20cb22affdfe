"""Tokenizers: whitespace, word (punctuation-aware), and token q-grams.

All tokenizers map a string to a list of token strings.  They are
deliberately stateless and cheap to construct; vocabulary interning is a
separate concern handled by :class:`repro.tokenize.Vocabulary`.
"""

from __future__ import annotations

import re
from abc import ABC, abstractmethod

from ..errors import ConfigurationError, TokenizationError


class Tokenizer(ABC):
    """Abstract base for tokenizers.

    Subclasses implement :meth:`tokenize`, mapping text to a list of
    token strings.  Tokenizers never intern tokens to ids; compose with
    :class:`~repro.tokenize.Vocabulary` for that.
    """

    @abstractmethod
    def tokenize(self, text: str) -> list[str]:
        """Split ``text`` into a list of token strings."""

    def __call__(self, text: str) -> list[str]:
        return self.tokenize(text)

    def to_dict(self) -> dict:
        """JSON-ready form, as a file stores it: ``{"type": ..., <settings>}``.
        A tokenizer of any other class cannot be stored."""
        raise ConfigurationError(
            f"a file stores only the tokenizers {sorted(_TYPES)}, "
            f"not a {type(self).__name__}"
        )

    @staticmethod
    def from_dict(payload: dict) -> "Tokenizer":
        """Inverse of :meth:`to_dict`."""
        settings = dict(payload)
        kind = settings.pop("type", None)
        if kind not in _TYPES:
            raise ConfigurationError(f"unknown tokenizer type {kind!r}")
        if kind == "qgram":
            settings["inner"] = Tokenizer.from_dict(settings["inner"])
        return _TYPES[kind](**settings)


class WhitespaceTokenizer(Tokenizer):
    """Split on runs of whitespace, exactly as the paper's examples do.

    Optionally lowercases tokens (on by default, matching common practice
    in near-duplicate detection where case changes are text laundering).
    """

    def __init__(self, lowercase: bool = True) -> None:
        self.lowercase = lowercase

    def tokenize(self, text: str) -> list[str]:
        """Split on whitespace runs (lowercasing first if configured)."""
        if self.lowercase:
            text = text.lower()
        return text.split()

    def to_dict(self) -> dict:
        return {"type": "whitespace", "lowercase": self.lowercase}

    def __repr__(self) -> str:
        return f"WhitespaceTokenizer(lowercase={self.lowercase})"


class WordTokenizer(Tokenizer):
    """Extract alphanumeric word tokens, dropping punctuation.

    ``"the lord-of the rings!"`` tokenizes to
    ``["the", "lord", "of", "the", "rings"]``.  This is the tokenizer
    used by the synthetic-corpus loaders, where punctuation would
    otherwise create spuriously rare tokens that distort the window
    frequency distribution.
    """

    _WORD_RE = re.compile(r"[A-Za-z0-9]+(?:'[A-Za-z]+)?")

    def __init__(self, lowercase: bool = True, min_length: int = 1) -> None:
        if min_length < 1:
            raise TokenizationError(f"min_length must be >= 1, got {min_length}")
        self.lowercase = lowercase
        self.min_length = min_length

    def tokenize(self, text: str) -> list[str]:
        """Extract word tokens, dropping punctuation."""
        if self.lowercase:
            text = text.lower()
        words = self._WORD_RE.findall(text)
        if self.min_length > 1:
            words = [word for word in words if len(word) >= self.min_length]
        return words

    def to_dict(self) -> dict:
        return {"type": "word", "lowercase": self.lowercase, "min_length": self.min_length}

    def __repr__(self) -> str:
        return (
            f"WordTokenizer(lowercase={self.lowercase}, "
            f"min_length={self.min_length})"
        )


class QGramTokenizer(Tokenizer):
    """Token q-grams over an inner tokenizer's output.

    The FBW baseline (Section 7.1) operates on *token* q-grams: each
    token of the output is the concatenation of ``q`` consecutive word
    tokens joined by a separator.  A document of ``n`` words yields
    ``n - q + 1`` q-grams (or none if ``n < q``).
    """

    def __init__(
        self,
        q: int,
        inner: Tokenizer | None = None,
        separator: str = "␟",
    ) -> None:
        if q < 1:
            raise TokenizationError(f"q must be >= 1, got {q}")
        self.q = q
        self.inner = inner if inner is not None else WhitespaceTokenizer()
        self.separator = separator

    def tokenize(self, text: str) -> list[str]:
        """Tokenize with the inner tokenizer, then emit token q-grams."""
        words = self.inner.tokenize(text)
        return self.gramify(words)

    def gramify(self, words: list[str]) -> list[str]:
        """Turn an already-tokenized word list into q-gram tokens."""
        q = self.q
        if len(words) < q:
            return []
        join = self.separator.join
        return [join(words[i : i + q]) for i in range(len(words) - q + 1)]

    def to_dict(self) -> dict:
        return {
            "type": "qgram", "q": self.q, "inner": self.inner.to_dict(),
            "separator": self.separator,
        }

    def __repr__(self) -> str:
        return f"QGramTokenizer(q={self.q}, inner={self.inner!r})"


#: What :meth:`Tokenizer.to_dict` names each storable tokenizer class.
_TYPES = {"whitespace": WhitespaceTokenizer, "word": WordTokenizer, "qgram": QGramTokenizer}
