"""Collection statistics, mirroring Table 1 of the paper.

The paper reports |D|, |Q|, avg |d|, avg |q| and |U| per dataset; the
bench for Table 1 prints the same row layout from
:class:`CollectionStats`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .collection import DocumentCollection
from .document import Document


@dataclass(frozen=True)
class CollectionStats:
    """Summary statistics of a data collection plus a query set."""

    num_data_documents: int
    num_query_documents: int
    avg_data_length: float
    avg_query_length: float
    universe_size: int
    total_data_tokens: int
    total_query_tokens: int

    @classmethod
    def compute(
        cls,
        data: DocumentCollection,
        queries: list[Document],
    ) -> "CollectionStats":
        """Compute statistics for ``data`` and ``queries``.

        The universe size counts distinct tokens appearing in either the
        data or the query documents (the shared vocabulary may contain
        more entries than are actually used, e.g. after subsetting).
        """
        used: set[int] = set()
        total_data = 0
        for document in data:
            used.update(document.tokens)
            total_data += len(document)
        total_query = 0
        for query in queries:
            used.update(query.tokens)
            total_query += len(query)
        num_data = len(data)
        num_query = len(queries)
        return cls(
            num_data_documents=num_data,
            num_query_documents=num_query,
            avg_data_length=total_data / num_data if num_data else 0.0,
            avg_query_length=total_query / num_query if num_query else 0.0,
            universe_size=len(used),
            total_data_tokens=total_data,
            total_query_tokens=total_query,
        )

    def as_table_row(self, name: str) -> str:
        """A row formatted like Table 1 of the paper."""
        return (
            f"{name:<10} |D|={self.num_data_documents:<8} "
            f"|Q|={self.num_query_documents:<6} "
            f"avg|d|={self.avg_data_length:<10.1f} "
            f"avg|q|={self.avg_query_length:<8.1f} "
            f"|U|={self.universe_size}"
        )
