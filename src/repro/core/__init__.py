"""Core algorithms: the paper's contribution.

* :class:`PKWiseSearcher` — Algorithm 4: partitioned k-wise signatures
  with interval sharing (the paper's **pkwise**).
* :class:`PKWiseNonIntervalSearcher` — Algorithm 2: same signatures,
  windows processed individually (**pkwise-nonint** in Figure 8).
* :class:`WeightedPKWiseSearcher` — the Appendix C weighted extension.

All searchers share the :class:`MatchPair` result type and the
:class:`SearchStats` phase accounting consumed by the cost model and the
benchmarks.
"""

from .base import MatchPair, SearchResult, SearchStats
from .pkwise import PKWiseSearcher
from .pkwise_nonint import PKWiseNonIntervalSearcher
from .selfjoin import SelfJoinPair, document_join_pairs, local_similarity_self_join
from .verify import IntervalVerifier, slice_accessor
from .weighted import WeightedMatchPair, WeightedPKWiseSearcher, WeightedSearchResult

__all__ = [
    "MatchPair",
    "SearchResult",
    "SearchStats",
    "PKWiseSearcher",
    "PKWiseNonIntervalSearcher",
    "WeightedPKWiseSearcher",
    "WeightedMatchPair",
    "WeightedSearchResult",
    "IntervalVerifier",
    "slice_accessor",
    "SelfJoinPair",
    "document_join_pairs",
    "local_similarity_self_join",
]
