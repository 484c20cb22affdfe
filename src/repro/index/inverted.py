"""Window-level inverted index (Algorithm 2's indexing part).

Maps each signature to the individual data windows ``(doc_id, start)``
whose prefix generates it.  Used by the non-interval pkwise variant and
as the cost comparison point for the interval index (the paper reports
interval postings 3-14x smaller).
"""

from __future__ import annotations

from collections.abc import Sequence

from ..partition.scheme import PartitionScheme
from ..signatures.generate import Signature, generate_signatures
from ..windows.slider import WindowSlider
from .intervals import ProbeBatch


class WindowInvertedIndex:
    """Signature -> list of (doc_id, window_start) postings."""

    def __init__(self, w: int, tau: int, scheme: PartitionScheme) -> None:
        self.w = w
        self.tau = tau
        self.scheme = scheme
        self._postings: dict[Signature, list[tuple[int, int]]] = {}
        self.num_documents = 0
        self.num_windows = 0
        self.generated_signatures = 0
        self.generated_token_cost = 0

    def index_document(self, doc_id: int, ranks: Sequence[int]) -> None:
        """Index every window of one document individually."""
        slider = WindowSlider(ranks, self.w)
        postings = self._postings
        for start, _outgoing, _incoming in slider.slides():
            signatures = generate_signatures(
                slider.window, self.tau, self.scheme
            )
            self.generated_signatures += len(signatures)
            self.generated_token_cost += sum(len(s) for s in signatures)
            # Deduplicate per window: a window is a candidate once per
            # signature type; multiset duplicates matter only for
            # interval maintenance, not here.
            for signature in set(signatures):
                postings.setdefault(signature, []).append((doc_id, start))
        self.num_documents += 1
        self.num_windows += slider.num_windows

    def probe(self, signature: Signature) -> list[tuple[int, int]]:
        """Postings list of ``signature`` (empty list if absent)."""
        return self._postings.get(signature, [])

    def probe_many(
        self,
        signatures: Sequence[Signature],
        signs: Sequence[int] | None = None,
    ) -> ProbeBatch:
        """Batched probe in the shared :class:`ProbeBatch` layout.

        Window-level postings are single windows, so each hit comes
        back with ``us == vs == start`` — the batch protocol every
        engine consumes, at the degenerate interval width of one.
        """
        docs: list[int] = []
        starts: list[int] = []
        hit_signs: list[int] = []
        sig_counts: list[int] = []
        postings_map = self._postings
        for i, signature in enumerate(signatures):
            postings = postings_map.get(signature)
            if not postings:
                sig_counts.append(0)
                continue
            sig_counts.append(len(postings))
            sign = 1 if signs is None else signs[i]
            for doc_id, start in postings:
                docs.append(doc_id)
                starts.append(start)
                hit_signs.append(sign)
        if not docs:
            return ProbeBatch.empty(probed=len(signatures))
        return ProbeBatch.from_rows(
            docs, starts, list(starts), hit_signs, sig_counts
        )

    @property
    def num_signatures(self) -> int:
        """Number of distinct signatures indexed."""
        return len(self._postings)

    @property
    def num_postings(self) -> int:
        """Total number of stored (signature, window) entries."""
        return sum(len(postings) for postings in self._postings.values())

    def size_in_entries(self) -> int:
        """Abstract index size: one entry per (signature, window)."""
        return self.num_postings

    def __repr__(self) -> str:
        return (
            f"WindowInvertedIndex(signatures={self.num_signatures}, "
            f"postings={self.num_postings}, docs={self.num_documents})"
        )
