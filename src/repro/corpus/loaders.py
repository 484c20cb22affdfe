"""Loaders for plain-text corpora on disk or in memory.

Users reproducing the paper on the real REUTERS / TREC / PAN corpora can
point :func:`collection_from_directory` at a directory of ``.txt`` files
(one document per file); everything downstream is identical to the
synthetic path.  :func:`text_files` is the one listing of such a
directory: ``repro index``, ``selfjoin``, ``ingest`` and
``Index.build(path)`` all read the same files under the same names.
"""

from __future__ import annotations

from pathlib import Path

from ..errors import CorpusError
from ..tokenize import Tokenizer
from .collection import DocumentCollection


def collection_from_texts(
    texts: list[str],
    tokenizer: Tokenizer | None = None,
    names: list[str] | None = None,
    min_tokens: int = 0,
) -> DocumentCollection:
    """Build a collection from in-memory strings.

    ``min_tokens`` drops short documents (the paper removes documents
    under 100 tokens, Section 7.1); pass 100 to mirror that.
    """
    if names is not None and len(names) != len(texts):
        raise CorpusError(
            f"names ({len(names)}) and texts ({len(texts)}) differ in length"
        )
    collection = DocumentCollection(tokenizer=tokenizer)
    for index, text in enumerate(texts):
        tokens = collection.tokenizer.tokenize(text)
        if len(tokens) < min_tokens:
            continue
        name = names[index] if names is not None else None
        collection.add_tokens(tokens, name=name)
    return collection


def text_files(directory: str | Path, pattern: str = "*.txt") -> list[Path]:
    """The files of a one-document-per-file corpus, in sorted name order.

    Flat, not recursive: a document is named by its file name, and no
    two files of one directory share a name.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise CorpusError(f"{directory} is not a directory")
    paths = sorted(directory.glob(pattern))
    if not paths:
        raise CorpusError(f"no files matching {pattern!r} under {directory}")
    return paths


def collection_from_directory(
    directory: str | Path,
    tokenizer: Tokenizer | None = None,
    pattern: str = "*.txt",
    min_tokens: int = 0,
    encoding: str = "utf-8",
) -> DocumentCollection:
    """Build a collection from one-document-per-file text files.

    Files are loaded in sorted name order for determinism.
    """
    collection = DocumentCollection(tokenizer=tokenizer)
    for path in text_files(directory, pattern):
        tokens = collection.tokenizer.tokenize(path.read_text(encoding=encoding))
        if len(tokens) < min_tokens:
            continue
        collection.add_tokens(tokens, name=path.name)
    return collection
