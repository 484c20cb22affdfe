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

The individual layers (:class:`DocumentCollection`,
:class:`PKWiseSearcher`, :class:`SearchParams`, ...) remain importable
directly for fine-grained control.  See DESIGN.md for the full system
inventory and EXPERIMENTS.md for the reproduction of every table and
figure of the paper.
"""

from . import api
from .api import Index, ProbeHit, Searcher
from .core import (
    MatchPair,
    PKWiseNonIntervalSearcher,
    PKWiseSearcher,
    SearchResult,
    SearchStats,
    SelfJoinPair,
    WeightedMatchPair,
    WeightedPKWiseSearcher,
    WeightedSearchResult,
    local_similarity_self_join,
)
from .corpus import (
    CollectionStats,
    Document,
    DocumentCollection,
    GroundTruthPair,
    ObfuscationLevel,
    collection_from_directory,
    collection_from_texts,
    make_profile_collection,
)
from .errors import (
    CircuitOpenError,
    ConfigurationError,
    CorpusError,
    DeadlineExceededError,
    FaultInjectionError,
    IndexStateError,
    PartitioningError,
    ReplicaQuarantinedError,
    ReproError,
    RoutingUnavailableError,
    SearchCancelled,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadError,
    TokenizationError,
    UnknownTokenError,
    WorkerCrashError,
    WorkerStartupError,
)
from .index import CompactIntervalIndex, IntervalIndex, PackedRankDocs
from .faults import FaultPlan, FaultSpec
from .obs import (
    MetricsRegistry,
    ObservabilityError,
    Tracer,
    configure_tracing,
    disable_tracing,
    get_tracer,
)
from .ordering import GlobalOrder
from .params import SearchParams, suggested_subpartitions
from .persistence import PersistenceError, SearcherBundle, save_searcher
from .postprocess import Passage, filter_passages, merge_passages
from .routing import RoutingPolicy
from .partition import (
    CostWeights,
    GreedyPartitioner,
    PartitionScheme,
    equi_width_scheme,
    workload_cost,
)

__version__ = "2.25.0"

# The serving, parallel and ingest layers pull in http.server,
# urllib.request (ssl, email) and multiprocessing — 90 modules and 7 MB
# that a process which only builds or searches never touches.  Their
# re-exports resolve on first use (PEP 562); the names and ``__all__``
# are the same.
_LAZY = {
    "ResilientClient": "service",
    "RouterResponse": "service",
    "SearchService": "service",
    "ServiceResponse": "service",
    "ShardPlan": "service",
    "ShardRouter": "service",
    "ShardSupervisor": "service",
    "ParallelExecutor": "parallel",
    "CompactionPolicy": "ingest",
    "IngestStore": "ingest",
    "LSMSearcher": "ingest",
}


def __getattr__(name: str):
    from importlib import import_module

    if name in _LAZY.values():  # repro.service, as an attribute
        return import_module(f"{__name__}.{name}")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


__all__ = [
    "__version__",
    # Facade (the documented entry point)
    "api",
    "Index",
    "Searcher",
    # Serving
    "SearchService",
    "ServiceResponse",
    "ResilientClient",
    "ShardPlan",
    "ShardRouter",
    "ShardSupervisor",
    "RouterResponse",
    # Fault injection (robustness testing)
    "FaultPlan",
    "FaultSpec",
    # Core search
    "PKWiseSearcher",
    "PKWiseNonIntervalSearcher",
    "WeightedPKWiseSearcher",
    "IntervalIndex",
    "CompactIntervalIndex",
    "PackedRankDocs",
    "ProbeHit",
    "MatchPair",
    "WeightedMatchPair",
    "WeightedSearchResult",
    "SearchResult",
    "SearchStats",
    "SearchParams",
    "RoutingPolicy",
    "suggested_subpartitions",
    "SelfJoinPair",
    "local_similarity_self_join",
    # Streaming ingestion (LSM write path)
    "IngestStore",
    "CompactionPolicy",
    "LSMSearcher",
    # Parallel execution
    "ParallelExecutor",
    # Observability
    "MetricsRegistry",
    "Tracer",
    "get_tracer",
    "configure_tracing",
    "disable_tracing",
    "ObservabilityError",
    # Post-processing
    "Passage",
    "merge_passages",
    "filter_passages",
    # Persistence
    "save_searcher",
    "SearcherBundle",
    "PersistenceError",
    # Corpus
    "Document",
    "DocumentCollection",
    "CollectionStats",
    "collection_from_directory",
    "collection_from_texts",
    "make_profile_collection",
    "GroundTruthPair",
    "ObfuscationLevel",
    # Ordering and partitioning
    "GlobalOrder",
    "PartitionScheme",
    "GreedyPartitioner",
    "CostWeights",
    "workload_cost",
    "equi_width_scheme",
    # Errors
    "ReproError",
    "ConfigurationError",
    "TokenizationError",
    "CorpusError",
    "PartitioningError",
    "IndexStateError",
    "RoutingUnavailableError",
    "SearchCancelled",
    "UnknownTokenError",
    "ServiceError",
    "ServiceOverloadError",
    "DeadlineExceededError",
    "ServiceClosedError",
    "ReplicaQuarantinedError",
    "WorkerStartupError",
    "CircuitOpenError",
    "FaultInjectionError",
    "WorkerCrashError",
]
