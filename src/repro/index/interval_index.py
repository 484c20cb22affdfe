"""The interval postings index (Section 4.1), one document at a time.

Maps each signature to the maximal window intervals that generate it.
Built by consuming :class:`~repro.signatures.maintain.SignatureStream` events
per data document: a signature's interval opens at the first window whose
prefix generates it and closes just before the first window that stops
generating it.  The stream already collapses duplicate-signature "false"
opens/closes (the paper's gamma counter), so every event here is a true
transition and every stored interval is maximal.

No live path builds one.  It is the paper reference: the one-document
Algorithm 5 build that the bulk kernel and the memtable are held to.  A
constructed searcher indexes its whole corpus in one array pass
(:meth:`~repro.index.compact.CompactIntervalIndex.from_rank_docs`), and a live
memtable each burst of writes the same way, postings for postings what
this class appends (``tests/conftest.py::reference_index`` builds it).
"""

from __future__ import annotations

from collections.abc import Sequence

from ..errors import IndexStateError
from ..partition.scheme import PartitionScheme
from ..signatures.generate import Signature
from ..signatures.maintain import COUNTERS, SignatureStream
from .intervals import ProbeBatch, WindowInterval


class IntervalIndex:
    """Signature -> list of :class:`WindowInterval` postings.

    Parameters
    ----------
    scheme:
        Partition scheme used for signature generation.
    tau, w:
        Search parameters the index was built for.  Queries must use the
        same values; :meth:`probe` does not re-check.

    Postings are keyed by the signature's rank tuple (collision-free);
    the paper's Section 7.1 signature hashing happens when the index is
    frozen (:class:`~repro.index.compact.CompactIntervalIndex`).
    """

    def __init__(self, w: int, tau: int, scheme: PartitionScheme) -> None:
        self.w = w
        self.tau = tau
        self.scheme = scheme
        self._postings: dict[Signature, list[WindowInterval]] = {}
        self.num_documents = 0
        self.num_windows = 0
        self.build_stats: dict[str, int] = dict.fromkeys(COUNTERS, 0)

    # ------------------------------------------------------------------
    def index_document(self, doc_id: int, ranks: Sequence[int]) -> None:
        """Index all windows of one document (given as a rank sequence)."""
        stream = SignatureStream(ranks, self.w, self.tau, self.scheme)
        open_at: dict[Signature, int] = {}
        postings = self._postings
        for event in stream.events():
            for signature in event.opened:
                if signature in open_at:
                    raise IndexStateError(
                        f"signature {signature} opened twice at window "
                        f"{event.start} of document {doc_id}"
                    )
                open_at[signature] = event.start
            for signature in event.closed:
                start = open_at.pop(signature, None)
                if start is None:
                    raise IndexStateError(
                        f"signature {signature} closed while not open at "
                        f"window {event.start} of document {doc_id}"
                    )
                interval = WindowInterval(doc_id, start, event.start - 1)
                postings.setdefault(signature, []).append(interval)
        if open_at:
            raise IndexStateError(
                f"{len(open_at)} signatures left open at end of document {doc_id}"
            )
        self.num_documents += 1
        self.num_windows += max(0, len(ranks) - self.w + 1)
        for name in self.build_stats:
            self.build_stats[name] += getattr(stream, name)

    # ------------------------------------------------------------------
    def probe(self, signature: Signature) -> list[WindowInterval]:
        """Postings list of ``signature`` (empty list if absent)."""
        return self._postings.get(signature, [])

    def probe_many(
        self,
        signatures: Sequence[Signature],
        signs: Sequence[int] | None = None,
    ) -> ProbeBatch:
        """Resolve a whole batch of signatures into one :class:`ProbeBatch`.

        ``signs`` carries one +1/-1 candidate delta per signature
        (omitted = all +1); every hit of signature ``i`` lands in the
        batch with ``signs[i]``.  Hits appear in signature order, and
        within one signature in postings append order — the same order
        the scalar ``probe`` loop visited them, so batched candidate
        maintenance is a pure transliteration.
        """
        docs: list[int] = []
        us: list[int] = []
        vs: list[int] = []
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
            for interval in postings:
                docs.append(interval[0])
                us.append(interval[1])
                vs.append(interval[2])
                hit_signs.append(sign)
        if not docs:
            return ProbeBatch.empty(probed=len(signatures))
        return ProbeBatch.from_rows(docs, us, vs, hit_signs, sig_counts)

    def __contains__(self, signature: Signature) -> bool:
        return signature in self._postings

    @property
    def num_postings(self) -> int:
        """Total number of stored intervals."""
        return sum(len(postings) for postings in self._postings.values())

    def __repr__(self) -> str:
        return (
            f"IntervalIndex(signatures={len(self._postings)}, "
            f"postings={self.num_postings}, docs={self.num_documents})"
        )
