"""Shared plumbing for baseline searchers.

Every baseline shares the same setup — a global order and rank-converted
data documents — so it lives here once.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from ..corpus import Document, DocumentCollection
from ..core.base import SearchResult
from ..ordering import GlobalOrder
from ..params import SearchParams


class BaselineSearcher(ABC):
    """Base class: owns the order and the rank-converted documents."""

    name = "baseline"

    def __init__(
        self,
        data: DocumentCollection,
        params: SearchParams,
        order: GlobalOrder | None = None,
    ) -> None:
        self.params = params
        self.order = order if order is not None else GlobalOrder(data, params.w)
        self.rank_docs: list[list[int]] = [
            self.order.rank_document(document, admit=True) for document in data
        ]

    @abstractmethod
    def search(self, query: Document) -> SearchResult:
        """All matching window pairs between ``query`` and the data."""

    def close(self) -> None:
        """Release resources (no-op; in-memory structures). Idempotent."""
