"""Plagiarism injection with exact ground truth (PAN-PC-10 substitute).

PAN-PC-10 contains four plagiarism types: artificial plagiarism with no,
low or high obfuscation (machine-generated edits) and simulated
plagiarism (human paraphrase).  This module reproduces that taxonomy
with controlled token-level edit operations — substitution, insertion,
deletion and local reorder — whose rates grow with the obfuscation
level.  Because we perform the injection ourselves, ground-truth spans
are exact, replacing the paper's manually labelled pairs (Appendix D.2).

Ground truth pairs follow the paper's format ``<d[u, v], q[u', v']>``:
the query span ``[u', v']`` is a reuse of the data span ``[u, v]``
(token positions, 0-based and inclusive here).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

from ..errors import CorpusError
from .collection import DocumentCollection
from .document import Document


class ObfuscationLevel(enum.Enum):
    """PAN-PC-10 plagiarism types, by increasing amount of laundering."""

    NONE = "none"
    LOW = "low"
    HIGH = "high"
    SIMULATED = "simulated"


#: Per level: (fraction of tokens covered by edit clusters, cluster
#: length, adjacent-swap rate, probability of a chunk-reorder pass).
#: Edits are *bursty* — they hit contiguous clusters and leave clean
#: runs in between, the way real paraphrasing rewrites some phrases and
#: keeps others verbatim.  Swaps model word-order laundering: they leave
#: the window *multiset* untouched (free for multiset methods like
#: pkwise) while destroying token q-grams (fatal for fingerprinting
#: methods like FBW) — the discrimination Section 7 and Appendix D.2
#: report.
_EDIT_CLUSTERS: dict[ObfuscationLevel, tuple[float, int, float, float]] = {
    ObfuscationLevel.NONE: (0.00, 0, 0.00, 0.0),
    ObfuscationLevel.LOW: (0.08, 3, 0.02, 0.1),
    ObfuscationLevel.HIGH: (0.18, 3, 0.10, 0.4),
    ObfuscationLevel.SIMULATED: (0.30, 2, 0.25, 0.8),
}

#: Within an edit cluster: probabilities of substituting / deleting a
#: token (the rest are kept) and of inserting a fresh token after it.
_IN_CLUSTER_SUB = 0.55
_IN_CLUSTER_DEL = 0.20
_IN_CLUSTER_INS = 0.20


@dataclass(frozen=True)
class GroundTruthPair:
    """``<d[u, v], q[u', v']>``: query span copies data span.

    Spans are inclusive 0-based token-position ranges, matching the
    paper's Appendix D.2 notation (which is 1-based; we use 0-based
    consistently with the rest of the library).
    """

    data_doc_id: int
    data_span: tuple[int, int]
    query_id: int
    query_span: tuple[int, int]
    level: ObfuscationLevel


class PlagiarismInjector:
    """Copies data segments into queries with level-controlled edits.

    Parameters
    ----------
    seed:
        Seed for the private RNG; identical seeds reproduce identical
        injections.
    vocabulary_size:
        Range of token ids available for substitution/insertion edits.
        Replacement tokens are drawn uniformly, which mimics the
        "uncommon wording" property the paper observed in simulated
        plagiarism (replacements tend to be rare tokens).
    """

    def __init__(self, seed: int, vocabulary_size: int) -> None:
        if vocabulary_size < 1:
            raise CorpusError("vocabulary_size must be >= 1")
        self._rng = random.Random(seed)
        self._vocabulary_size = vocabulary_size
        #: ``(collection, segment_length, len(collection), donors)`` of the
        #: last splice: a collection only grows, so its donors are one
        #: scan per collection and segment length, not one per case.
        self._donors: tuple | None = None

    # ------------------------------------------------------------------
    def obfuscate(
        self, tokens: list[int], level: ObfuscationLevel
    ) -> list[int]:
        """Apply level-appropriate *clustered* edits to a copied segment.

        A fraction of the segment (growing with the level) is covered by
        short edit clusters; inside a cluster tokens are substituted,
        deleted, or followed by insertions, while the text between
        clusters stays verbatim — mirroring how paraphrase rewrites some
        phrases and leaves others intact.  Word-order laundering is
        modelled by adjacent-token swaps (multiset-preserving) plus an
        optional chunk-level reorder pass.
        """
        cover, cluster_len, swap_rate, reorder_prob = _EDIT_CLUSTERS[level]
        rng = self._rng
        if not tokens or (cover == 0.0 and swap_rate == 0.0):
            return list(tokens)
        n = len(tokens)
        in_cluster = [False] * n
        if cover > 0.0:
            num_clusters = max(1, round(cover * n / max(1, cluster_len)))
            for _ in range(num_clusters):
                start = rng.randrange(n)
                for position in range(start, min(n, start + cluster_len)):
                    in_cluster[position] = True
        out: list[int] = []
        for position, token in enumerate(tokens):
            if not in_cluster[position]:
                out.append(token)
                continue
            roll = rng.random()
            if roll < _IN_CLUSTER_DEL:
                continue  # deletion
            if roll < _IN_CLUSTER_DEL + _IN_CLUSTER_SUB:
                out.append(rng.randrange(self._vocabulary_size))
            else:
                out.append(token)
            if rng.random() < _IN_CLUSTER_INS:
                out.append(rng.randrange(self._vocabulary_size))
        if swap_rate > 0.0:
            position = 0
            while position < len(out) - 1:
                if rng.random() < swap_rate:
                    out[position], out[position + 1] = (
                        out[position + 1],
                        out[position],
                    )
                    position += 2  # never undo a swap with the next roll
                else:
                    position += 1
        if out and rng.random() < reorder_prob:
            out = self._reorder_chunks(out)
        return out

    def _reorder_chunks(self, tokens: list[int], chunk: int = 25) -> list[int]:
        """Shuffle order of ~sentence-sized chunks (word-order laundering)."""
        chunks = [tokens[i : i + chunk] for i in range(0, len(tokens), chunk)]
        self._rng.shuffle(chunks)
        return [token for piece in chunks for token in piece]

    # ------------------------------------------------------------------
    def splice_case(
        self,
        data: DocumentCollection,
        query_id: int,
        query_tokens: list[int],
        segment_length: int,
        level: ObfuscationLevel,
    ) -> tuple[list[int], GroundTruthPair | None]:
        """Copy a random data segment into ``query_tokens``.

        Returns the new token list and the ground-truth pair, or
        ``(query_tokens, None)`` when no data document is long enough to
        donate a segment.
        """
        rng = self._rng
        donors = self._donors_of(data, segment_length)
        if not donors:
            return query_tokens, None
        donor = donors[rng.randrange(len(donors))]
        src_start = rng.randrange(len(donor) - segment_length + 1)
        segment = list(donor.tokens[src_start : src_start + segment_length])
        copied = self.obfuscate(segment, level)
        if not copied:
            return query_tokens, None

        insert_at = rng.randrange(len(query_tokens) + 1)
        new_tokens = query_tokens[:insert_at] + copied + query_tokens[insert_at:]
        truth = GroundTruthPair(
            data_doc_id=donor.doc_id,
            data_span=(src_start, src_start + segment_length - 1),
            query_id=query_id,
            query_span=(insert_at, insert_at + len(copied) - 1),
            level=level,
        )
        return new_tokens, truth

    def _donors_of(
        self, data: DocumentCollection, segment_length: int
    ) -> list[Document]:
        """The documents of ``data`` at least ``segment_length`` long."""
        key = (data, segment_length, len(data))
        if self._donors is None or self._donors[:3] != key:
            self._donors = (*key, [d for d in data if len(d) >= segment_length])
        return self._donors[3]


def shift_spans(
    truths: list[GroundTruthPair],
    query_id: int,
    insert_at: int,
    inserted_length: int,
) -> list[GroundTruthPair]:
    """Re-base earlier ground-truth spans after an insertion into a query.

    An insertion of ``inserted_length`` tokens at position ``insert_at``
    moves any span starting at or after that position right by the same
    amount; a span straddling the insertion point is stretched (its
    tokens are still there, with the new material in the middle).
    """
    adjusted: list[GroundTruthPair] = []
    for truth in truths:
        if truth.query_id != query_id:
            adjusted.append(truth)
            continue
        lo, hi = truth.query_span
        if lo >= insert_at:
            span = (lo + inserted_length, hi + inserted_length)
        elif hi >= insert_at:
            span = (lo, hi + inserted_length)
        else:
            span = (lo, hi)
        adjusted.append(
            GroundTruthPair(
                data_doc_id=truth.data_doc_id,
                data_span=truth.data_span,
                query_id=truth.query_id,
                query_span=span,
                level=truth.level,
            )
        )
    return adjusted
