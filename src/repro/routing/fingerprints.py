"""Per-document block fingerprints and the vectorized survivor test.

Layout
------
Every document's rank sequence is cut into tumbling blocks of
``max(BLOCK_TOKENS, w)`` tokens.  Each block gets a 512-bit
OR-fingerprint — bit ``mix(rank) mod 512`` set for every token in the
block, packed into :data:`LANES` ``uint64`` lanes — and what is kept
is the *cover* of every pair of consecutive blocks,
``cover_i = block_i | block_{i+1}``.  Because a block is at least ``w``
tokens long, any ``w``-window of the document lies within two
consecutive blocks, hence within some cover.  The covers are a
function of the rank column and ``w`` alone, so no file stores them:
each process builds a tier's at its first routed query.

Conservativeness
----------------
Let ``Q`` be a query window and ``D`` a data window with at most
``tau`` differing tokens.  Every bit set in ``F(Q)`` but not in
``F(D)`` requires a token *type* present in ``Q`` and wholly absent
from ``D`` — there are at most ``tau`` such types, so
``popcount(F(Q) & ~F(D)) <= tau``.  Covers only add bits
(``F(D) ⊆ cover``), so the bound holds against the cover too.  The
query side tests windows on a stride of ``tau + 1`` (plus the final
position): the nearest tested window ``Q'`` left of ``Q`` is at most
``tau`` positions away, and each one-position shift removes at most
one token type, so ``popcount(F(Q') & ~cover) <= 2 * tau``.  A
document none of whose covers comes within ``2 * tau`` missing bits of
*any* tested query window therefore cannot contain a qualifying
window, and pruning it never changes results (recall 1.0).

Kernel
------
The missing-bit count is the asymmetric half of the Hamming distance,
``popcount(F(Q) & ~cover)``, and :meth:`FingerprintTier.survivors`
answers it for every tested window against every cover in a few
whole-array passes:

* **Span table.**  OR is idempotent, so a window is the OR of two
  overlapping spans of ``span`` tokens, the largest power of two
  ``<= w``: ``F(Q_p) = T[p] | T[p + w - span]``.  The table ``T`` of
  span ORs is built by doubling (``T = T[:-s] | T[s:]`` for ``s = 1,
  2, 4, ...``) in ``log2(w)`` passes, and every tested window is then
  one gather.
* **Complement columns.**  The covers' complement is derived once per
  tier, lane-major — ``missing_lanes = (~cover_lanes).T``,
  :data:`LANES` contiguous rows of one ``uint64`` per cover.  Missing bits are a (positions × covers) ``uint16`` matrix
  accumulated lane by lane with ``np.bitwise_count``; a cover survives
  when any tested window misses at most the budget.  The cost is
  tested windows × covers × :data:`LANES` popcounts.
* **Block bound.**  Positions are taken in blocks so that neither the
  matrix (positions × covers) nor the block's span table (tokens ×
  lanes) exceeds :data:`_BLOCK_CELLS` cells, and each block hashes only
  the tokens its windows read, ``[p_first, p_last + w)``.  A block
  holds at least one position, so working memory is bounded by ``w``
  and the tier's size, never by the query's length.

Determinism
-----------
All hashing is splitmix64-style arithmetic on ``uint64`` numpy arrays
with fixed seeds — no Python ``hash``, no RNG — so fingerprints are
byte-identical across processes, start methods, and
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import numpy as np

#: Packed ``uint64`` lanes per fingerprint (8 lanes = 512 bits).  64
#: bits saturate on realistic blocks (a 256-token cover would set
#: nearly every bit, leaving no missing-bit signal); 512 keeps cover
#: fill near 40%, so an unrelated window misses far more bits than the
#: ``2 * tau`` budget at the paper's thresholds.
LANES = 8

#: Total fingerprint width in bits.
FINGERPRINT_BITS = LANES * 64

#: Floor of the tumbling-block length, in tokens: a tier over windows of
#: ``w`` tokens is built in blocks of ``max(BLOCK_TOKENS, w)``.  Smaller
#: blocks prune harder but build more covers.
BLOCK_TOKENS = 128

#: Most cells one block of the survivor test holds, in the missing-bit
#: matrix (positions × covers, ``uint16``) and in the span table (tokens
#: × lanes, ``uint64``).  The longest ``search-routed`` query (~110
#: positions against ~2,900 covers) fits in one block with room to spare.
_BLOCK_CELLS = 1 << 20

#: Most tokens, and most blocks, one chunk of
#: :meth:`FingerprintTier.from_rank_docs` reads at once: the bit matrix
#: is at most 1 MiB (blocks × 512 ``bool``), the per-token columns a
#: few dozen bytes a token.  Chunks are whole documents, so a longer
#: document is a chunk of its own.
_CHUNK_TOKENS = 1 << 15
_CHUNK_BLOCKS = 1 << 11

_U64 = np.uint64
_BIT_MASK = _U64(FINGERPRINT_BITS - 1)
_LANE_SHIFT = _U64(6)
_LOW6 = _U64(63)
_ONE = _U64(1)

_SPLIT_GAMMA = _U64(0x9E3779B97F4A7C15)
_SPLIT_M1 = _U64(0xBF58476D1CE4E5B9)
_SPLIT_M2 = _U64(0x94D049BB133111EB)
_TOKEN_SEED = _U64(0xA076_1D64_78BD_642F)


def _mix64(values: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a ``uint64`` array (wraps silently)."""
    z = values + _SPLIT_GAMMA
    z = (z ^ (z >> _U64(30))) * _SPLIT_M1
    z = (z ^ (z >> _U64(27))) * _SPLIT_M2
    return z ^ (z >> _U64(31))


def block_length(w: int) -> int:
    """Tokens per tumbling block of a tier over ``w``-token windows."""
    return max(BLOCK_TOKENS, w)


def missing_bit_budget(tau: int) -> int:
    """The conservative missing-bit budget of the survivor test.

    ``tau`` bits for the qualifying pair itself plus ``tau`` for the
    worst-case alignment shift to the nearest tested query window
    (stride ``tau + 1``); see the module docstring for the derivation.
    """
    return 2 * tau


def _as_u64(ranks) -> np.ndarray:
    """Rank sequence -> ``uint64`` array (negative ranks wrap, fixed).

    A view when ``ranks`` already is an ``int64`` array: nothing here
    writes to it.
    """
    return np.asarray(ranks, dtype=np.int64).view(np.uint64)


def _token_lanes(u64_ranks: np.ndarray) -> np.ndarray:
    """One :data:`LANES`-wide row per token, its one fingerprint bit set."""
    bits = _mix64(u64_ranks ^ _TOKEN_SEED) & _BIT_MASK
    rows = np.zeros((len(bits), LANES), dtype=np.uint64)
    rows[np.arange(len(bits)), (bits >> _LANE_SHIFT).astype(np.intp)] = (
        np.left_shift(_ONE, bits & _LOW6)
    )
    return rows


def _window_fingerprints(
    u64_ranks: np.ndarray, starts: np.ndarray, w: int
) -> np.ndarray:
    """OR-fingerprints of the ``w``-windows of ``u64_ranks`` at ``starts``.

    ``table[i]`` ends as the OR of tokens ``[i, i + span)``, ``span``
    the largest power of two ``<= w``; OR is idempotent, so the two
    spans at ``p`` and ``p + w - span`` make the window at ``p``.
    """
    table = _token_lanes(u64_ranks)
    span = 1
    while 2 * span <= w:
        table = table[:-span] | table[span:]
        span *= 2
    return table[starts] | table[starts + (w - span)]


def _covers_within(
    windows: np.ndarray, missing_lanes: np.ndarray, budget: int
) -> np.ndarray:
    """Per cover: does some row of ``windows`` miss at most ``budget`` of
    its bits?  The (windows × covers) missing-bit counts are summed lane
    by lane; at most 512 bits can miss, so ``uint16`` holds them."""
    missing = np.zeros((len(windows), missing_lanes.shape[1]), dtype=np.uint16)
    for lane in range(LANES):
        missing += np.bitwise_count(windows[:, lane, None] & missing_lanes[lane])
    return (missing <= budget).any(axis=0)


def _cover_rows(
    ranks: np.ndarray, lengths: np.ndarray, blocks: np.ndarray, block_len: int
) -> np.ndarray:
    """The ``cover_lanes`` rows of one chunk of documents: ``ranks`` is
    their concatenated rank column, ``blocks[d]`` the number of tumbling
    blocks of ``block_len`` tokens document ``d`` is cut into."""
    block_ends = blocks.cumsum()
    nblocks = int(block_ends[-1])
    # Token i of a document whose tokens start at s and blocks at b is
    # in block b + (i - s) // block_len = (i + b * block_len - s) // block_len.
    shift = (block_ends - blocks) * block_len - (lengths.cumsum() - lengths)
    block_of_token = (np.arange(len(ranks)) + np.repeat(shift, lengths)) // block_len
    bits = _mix64(_as_u64(ranks) ^ _TOKEN_SEED) & _BIT_MASK
    matrix = np.zeros((nblocks, FINGERPRINT_BITS), dtype=bool)
    matrix.reshape(-1)[block_of_token * FINGERPRINT_BITS + bits.view(np.int64)] = True
    block_lanes = np.packbits(matrix, axis=1, bitorder="little").view("<u8")
    block_lanes = block_lanes.astype(np.uint64, copy=False)
    # Each block ORed with the next of its document.  The last block of a
    # document ORs with itself, and is kept only when it is the only one.
    last = block_ends - 1
    following = np.arange(1, nblocks + 1)
    following[last[blocks > 0]] = last[blocks > 0]
    keep = np.ones(nblocks, dtype=bool)
    keep[last[blocks > 1]] = False
    return (block_lanes | block_lanes[following])[keep]


class FingerprintTier:
    """Block-cover fingerprints of one tier's documents (local ids
    ``0..ndocs-1``): the flat columns the survivor kernel runs over.

    Made from a rank column (:meth:`from_rank_docs`) and never changed;
    a tier that grows gets a new one (:meth:`concatenated`).
    ``missing_lanes`` is the covers' complement, lane-major: row ``l``
    holds lane ``l`` of ``~cover`` for every cover, contiguous.
    """

    __slots__ = ("cover_lanes", "cover_counts", "doc_of_cover", "missing_lanes")

    def __init__(self, cover_lanes: np.ndarray, cover_counts: np.ndarray) -> None:
        self.cover_lanes = cover_lanes
        self.cover_counts = cover_counts
        self.doc_of_cover = np.repeat(
            np.arange(len(cover_counts), dtype=np.int64), cover_counts
        )
        self.missing_lanes = np.ascontiguousarray((~cover_lanes).T)

    @property
    def ndocs(self) -> int:
        """Documents fingerprinted."""
        return len(self.cover_counts)

    # -- construction ---------------------------------------------------
    @classmethod
    def from_rank_docs(cls, rank_docs, *, w: int) -> "FingerprintTier":
        """Fingerprint every document of ``rank_docs`` in blocks of
        :func:`block_length` tokens: the one producer of ``cover_lanes``
        rows.

        ``rank_docs`` is one tier's rank sequences, a
        :class:`~repro.index.compact.PackedRankDocs`.  The columns are read in chunks of whole documents
        of at most :data:`_CHUNK_TOKENS` tokens and :data:`_CHUNK_BLOCKS`
        blocks (a longer document is a chunk of its own).  A chunk hashes
        each token once and sets its bit in a (blocks × 512) bit matrix,
        which ``np.packbits`` turns into the blocks' lanes; a document's
        covers are then the OR of its consecutive blocks, a one-block
        document's its one block.
        """
        block_len = block_length(w)
        columns = rank_docs.to_arrays()
        lengths, values = columns["lengths"].astype(np.int64), columns["values"]
        blocks = -(-lengths // block_len)
        token_ends, block_ends = lengths.cumsum(), blocks.cumsum()
        lanes = [np.zeros((0, LANES), dtype=np.uint64)]
        first = 0
        while first < len(lengths):
            token_bound = token_ends[first] - lengths[first] + _CHUNK_TOKENS
            block_bound = block_ends[first] - blocks[first] + _CHUNK_BLOCKS
            stop = max(
                first + 1,
                min(
                    int(np.searchsorted(token_ends, token_bound, "right")),
                    int(np.searchsorted(block_ends, block_bound, "right")),
                ),
            )
            lanes.append(
                _cover_rows(
                    values[token_ends[first] - lengths[first] : token_ends[stop - 1]],
                    lengths[first:stop],
                    blocks[first:stop],
                    block_len,
                )
            )
            first = stop
        return cls(np.concatenate(lanes), np.where(blocks > 1, blocks - 1, blocks))

    @classmethod
    def concatenated(cls, parts) -> "FingerprintTier":
        """The documents of consecutive tiers as one tier."""
        return cls(
            np.concatenate([part.cover_lanes for part in parts]),
            np.concatenate([part.cover_counts for part in parts]),
        )

    # -- the survivor kernel --------------------------------------------
    def survivors(self, query_ranks, *, w: int, tau: int) -> np.ndarray | None:
        """Boolean mask over the tier's documents.

        ``True`` means the document *may* contain a qualifying window
        and must go to exact verification; ``False`` means it provably
        cannot.  Returns ``None`` when the tier cannot prune anything
        (empty tier, query shorter than ``w``, or a ``2 * tau`` budget
        at or above the fingerprint width).  The block length the covers
        were built at is not read: any length ``>= w`` is conservative.
        """
        ndocs = self.ndocs
        u = _as_u64(query_ranks)
        n = len(u)
        if ndocs == 0 or n < w:
            return None
        budget = missing_bit_budget(tau)
        if budget >= FINGERPRINT_BITS:
            return None

        missing_lanes = self.missing_lanes
        ncovers = missing_lanes.shape[1]
        # Tested window starts: k * stride for k = 0, 1, ..., plus the
        # last start n - w when the stride steps over it.
        stride = tau + 1
        last = n - w
        npositions = -(-last // stride) + 1
        # A block of P positions fills P × ncovers matrix cells and a span
        # table of at most ((P - 1) * stride + w) × LANES.
        per_block = max(
            1,
            min(
                _BLOCK_CELLS // max(ncovers, 1),
                (_BLOCK_CELLS // LANES - w) // stride + 1,
            ),
        )
        cover_ok = np.zeros(ncovers, dtype=bool)
        for k in range(0, npositions, per_block):
            starts = np.minimum(
                np.arange(k, min(k + per_block, npositions)) * stride, last
            )
            first = int(starts[0])
            windows = _window_fingerprints(
                u[first : int(starts[-1]) + w], starts - first, w
            )
            cover_ok |= _covers_within(windows, missing_lanes, budget)
        return np.bincount(self.doc_of_cover, weights=cover_ok, minlength=ndocs) > 0

    def __repr__(self) -> str:
        return f"FingerprintTier(docs={self.ndocs}, covers={len(self.cover_lanes)})"
