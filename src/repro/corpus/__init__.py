"""Corpus substrate: documents, collections, loaders, and generators.

The corpora the paper evaluates on (REUTERS, TREC, PAN-PC-10) are not
redistributable, so :mod:`repro.corpus.synthetic` ships generators whose
statistics are calibrated to Table 1 of the paper, and
:mod:`repro.corpus.plagiarism` a plagiarism injector that produces
exact ground-truth spans for the quality experiments (Appendix D.2).
Text of your own enters through :func:`collection_from_directory` (one
``.txt`` file per document) or :func:`collection_from_texts`.
"""

from .collection import DocumentCollection
from .document import Document
from .loaders import collection_from_directory, collection_from_texts
from .stats import CollectionStats

__all__ = [
    "Document",
    "DocumentCollection",
    "CollectionStats",
    "collection_from_directory",
    "collection_from_texts",
]
