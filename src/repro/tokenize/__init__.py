"""Tokenization substrate: turning raw text into token-id sequences.

The paper (Section 2.1) treats a document as a sequence of tokens drawn
from a finite universe; a token "can be a word, a q-gram, etc." and the
algorithms are independent of the tokenization scheme.  This package
provides the common schemes (:mod:`repro.tokenize.tokenizer`) plus a
:class:`Vocabulary` that interns token strings to dense integer ids.
"""

from .tokenizer import Tokenizer, WhitespaceTokenizer
from .vocabulary import Vocabulary

__all__ = ["Tokenizer", "WhitespaceTokenizer", "Vocabulary"]
