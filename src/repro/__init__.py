"""repro: local similarity search for unstructured text.

A faithful open-source reproduction of *Local Similarity Search for
Unstructured Text* (Wang, Xiao, Wang, Qin, Zhang, Ishikawa — SIGMOD
2016).  Given a collection of data documents and a query document, the
library finds every pair of sliding windows (one from each side) of size
``w`` that differ by at most ``tau`` tokens — the paper's **pkwise**
algorithm plus all of its evaluated baselines.

Quickstart — the :class:`Index` facade is the documented entry point::

    from repro import Index

    index = Index.build(
        ["the lord of the rings is a famous novel ..."], w=8, tau=2, k_max=2
    )
    for match in index.search_text("the lord and the kings ..."):
        print(match.doc_id, match.data_start, match.query_start, match.overlap)

    # Persist (one frozen, mmap-able snapshot format) and reopen
    # without copying:
    index.save("corpus.idx")
    index = Index.open("corpus.idx", mmap=True)

    # Serve concurrently (see repro.service / `repro serve`):
    with index.serve(max_workers=4) as service:
        response = service.search_text("the lord and the kings ...")

    # Mutate through the unified write path (LSM ingest; see
    # repro.ingest / `repro ingest`) — new documents are searchable
    # immediately, flush/compact fold them into frozen segments:
    doc_id = index.add("another document streaming in ...")
    index.remove(doc_id)
    index.compact()

This package exports the facade, the values it takes and returns, the
synthetic corpus generator the examples use, the self-join and the
errors :class:`Index` raises — nothing else.  Engines, index
containers, the serving stack, partitioners, observability and fault
injection are imported from the module that defines them (``from
repro.core.pkwise import PKWiseSearcher``) or from the subpackage that
exports them (``from repro.service import ShardPlan``).  A name
outside a package's ``__all__`` is internal and may change in any
release.  See DESIGN.md for the full system inventory and
EXPERIMENTS.md for the reproduction of every table and figure of the
paper.
"""

from .api import Index
from .core.base import MatchPair, SearchResult
from .core.selfjoin import local_similarity_self_join
from .corpus.synthetic import make_profile_collection
from .errors import (
    ConfigurationError,
    CorpusError,
    IndexStateError,
    ReproError,
)
from .params import SearchParams
from .persistence import PersistenceError
from .routing.policy import RoutingPolicy

__version__ = "4.2.0"

__all__ = [
    "__version__",
    # The facade and its values
    "Index",
    "SearchParams",
    "RoutingPolicy",
    "SearchResult",
    "MatchPair",
    # Synthetic corpus
    "make_profile_collection",
    # Self-join
    "local_similarity_self_join",
    # Errors the facade raises
    "ReproError",
    "ConfigurationError",
    "CorpusError",
    "IndexStateError",
    "PersistenceError",
]
