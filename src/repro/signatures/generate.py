"""k-wise signature generation (Algorithm 3).

A signature is a combination of ``i`` tokens from one class-``i`` group
of a window's prefix, represented as a tuple of token ranks in ascending
order.  Duplicate signatures are deliberately kept (footnote 2 of the
paper): the interval-sharing maintenance relies on multiset semantics.

Signatures from different groups can never be equal: groups partition
the rank space, so tuples drawn from different groups differ in content
(and 1-wise vs 2-wise tuples differ in length), which is what makes the
per-group coverage of Lemma 4 additive.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from itertools import combinations

import numpy as np

from ..partition.scheme import PartitionScheme
from .prefix import prefix_length

#: A signature is an ascending tuple of token ranks.
Signature = tuple[int, ...]


def signatures_from_prefix(
    prefix_ranks: Sequence[int], scheme: PartitionScheme
) -> list[Signature]:
    """All i-wise signatures of an (already sorted) prefix.

    Tokens are grouped by (class, sub-partition); each group of class
    ``i`` with ``n >= i`` tokens yields ``C(n, i)`` combinations,
    enumerated positionally so duplicate tokens yield duplicate
    signatures (multiset semantics).  Groups with fewer than ``i``
    tokens yield nothing (their coverage is zero).

    Since the prefix is sorted by rank and groups are contiguous rank
    ranges, grouping is a single linear scan.
    """
    out: list[Signature] = []
    table = scheme.key_table()
    m = scheme.m
    start = 0
    length = len(prefix_ranks)
    while start < length:
        rank = prefix_ranks[start]
        key = table[rank] if rank >= 0 else m
        end = start + 1
        while end < length:
            rank = prefix_ranks[end]
            if (table[rank] if rank >= 0 else m) != key:
                break
            end += 1
        class_index = key // m
        group = prefix_ranks[start:end]
        if class_index == 1:
            out.extend((rank,) for rank in group)
        elif len(group) >= class_index:
            out.extend(combinations(group, class_index))
        start = end
    return out


def generate_signatures(
    sorted_ranks: Sequence[int], tau: int, scheme: PartitionScheme
) -> list[Signature]:
    """Algorithm 3: prefix length then per-group combinations."""
    length = prefix_length(sorted_ranks, tau, scheme)
    return signatures_from_prefix(sorted_ranks[:length], scheme)


def signature_hash(signature: Signature) -> int:
    """Stable 32-bit hash of a signature: FNV-1a over the ranks, its
    64-bit value xor-folded to 4 bytes.

    The paper (Section 7.1) hashes signatures to 4-byte integers to keep
    the index compact, and so does this key.  A collision only merges
    two postings runs under one key: it adds candidates, which
    verification rejects, and never changes a pair.  The frozen
    :class:`~repro.index.compact.CompactIntervalIndex` keys on it; the dict
    reference index keys on the rank tuples themselves (collision-free).  This
    scalar form is the reference the tests hold :func:`signature_hashes`
    to, bit for bit; the library itself calls only that kernel.
    """
    value = 0xCBF29CE484222325
    for rank in signature:
        # Mix each rank as 8 little-endian bytes.
        for _ in range(8):
            value ^= rank & 0xFF
            value = (value * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
            rank >>= 8
    return (value ^ (value >> 32)) & 0xFFFFFFFF


_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)
_BYTE_MASK = np.uint64(0xFF)
_BYTE_SHIFT = np.uint64(8)
_FOLD_SHIFT = np.uint64(32)
_LITTLE_ENDIAN = sys.byteorder == "little"
#: ``_FNV_PRIME ** (8 - k)`` mod 2**64 at ``[k]``: the rounds of a rank's
#: ``8 - k`` high bytes when they are zero.
_FNV_ZERO_ROUNDS = tuple(np.uint64(pow(0x100000001B3, 8 - k, 2**64)) for k in range(9))


def signature_hashes(
    signatures: Sequence[Signature] | np.ndarray,
    lengths: np.ndarray | None = None,
) -> np.ndarray:
    """Vectorized :func:`signature_hash` over a batch of signatures.

    ``signatures`` is a sequence of rank tuples, or — with ``lengths`` —
    a rank matrix whose row ``i`` holds signature ``i`` in its first
    ``lengths[i]`` columns (what :class:`~repro.signatures.bulk.CorpusRuns`
    yields).  Returns a ``uint32`` array with ``out[i] ==
    signature_hash(signature i)`` bit for bit (asserted by tests).
    Signatures are grouped by length so each group hashes as one ``(n,
    length)`` rank matrix: the FNV-1a byte rounds run as numpy column
    operations over all ``n`` signatures at once — the little-endian
    byte view of the ``uint64`` rank column replaces the scalar
    shift-and-mask loop, and unsigned multiplication wraps modulo 2**64
    exactly like the masked Python multiply.  Each row's 64-bit value is
    xor-folded to 4 bytes last.  Building, a memtable catch-up, folding
    and probing the compact index all key through this one function, so
    every key column is ``uint32``.
    """
    n = len(signatures)
    out = np.empty(n, dtype=np.uint32)
    if n == 0:
        return out
    if lengths is not None:
        matrix = np.asarray(signatures)
        lengths = np.asarray(lengths)
        for length in np.flatnonzero(np.bincount(lengths)).tolist():
            rows = np.flatnonzero(lengths == length)
            out[rows] = _fnv_rows(np.take(matrix, rows, axis=0)[:, :length])
        return out
    by_length: dict[int, list[int]] = {}
    for i, signature in enumerate(signatures):
        by_length.setdefault(len(signature), []).append(i)
    for length, positions in by_length.items():
        rows = (
            [signatures[i] for i in positions]
            if len(positions) < n
            else signatures
        )
        ranks = np.asarray(rows, dtype=np.int64).reshape(len(positions), length)
        if len(positions) < n:
            out[positions] = _fnv_rows(ranks)
        else:
            out = _fnv_rows(ranks)
    return out


def _fnv_rows(ranks: np.ndarray) -> np.ndarray:
    """FNV-1a of every row of an ``(n, length)`` integer rank matrix,
    xor-folded to ``uint32``."""
    values = np.full(len(ranks), _FNV_OFFSET, dtype=np.uint64)
    width = ranks.dtype.itemsize
    if width < 8 and _LITTLE_ENDIAN and not (len(ranks) and ranks.min() < 0):
        # Narrow ranks, none negative: the high bytes are zero, so their
        # rounds only multiply, all at once.
        for column in range(ranks.shape[1]):
            rank_bytes = ranks[:, column : column + 1].view(np.uint8)
            for byte_index in range(width):
                values ^= rank_bytes[:, byte_index]
                values *= _FNV_PRIME
            values *= _FNV_ZERO_ROUNDS[width]
        values ^= values >> _FOLD_SHIFT
        return values.astype(np.uint32)
    # The uint64 view keeps negative ranks (the OOV sentinel) congruent
    # with the scalar hash's two's-complement bytes.
    ranks = ranks.astype(np.uint64)
    for column in range(ranks.shape[1]):
        if _LITTLE_ENDIAN:
            rank_bytes = ranks[:, column : column + 1].view(np.uint8)
            for byte_index in range(8):
                values ^= rank_bytes[:, byte_index]
                values *= _FNV_PRIME
        else:  # pragma: no cover - big-endian fallback
            remaining = ranks[:, column].copy()
            for _ in range(8):
                values ^= remaining & _BYTE_MASK
                values *= _FNV_PRIME
                remaining >>= _BYTE_SHIFT
    values ^= values >> _FOLD_SHIFT
    return values.astype(np.uint32)
