"""Baseline algorithms compared against pkwise in Section 7.

* :class:`~repro.baselines.bruteforce.BruteForceSearcher` — exhaustive
  rolling verification; the test oracle.
* :class:`~repro.baselines.prefix_join.StandardPrefixSearcher` —
  1-prefix filtering (Lemma 1), i.e. pkwise with ``k_max = 1``.
* :class:`~repro.baselines.prefix_join.KPrefixSearcher` — fixed
  k-prefix filtering (Lemma 2).
* :class:`AdaptSearcher` — the adaptive prefix framework of Wang, Li &
  Feng (SIGMOD 2012) applied to materialized windows.
* :class:`FaerieSearcher` — the heap-based approximate dictionary
  entity-extraction algorithm of Deng et al. (VLDB J. 2015) with data
  windows materialized as entities.
* :class:`FBWSearcher` — frequency-biased winnowing (Sun, Qin & Wang,
  WISE 2013); approximate — may miss results.
* :class:`WinnowingSearcher` — classic hash-min Winnowing (Schleimer et
  al., SIGMOD 2003); approximate.
* :class:`MinHashLSHSearcher` — MinHash sketches with LSH banding
  (Broder 1997 / Gionis et al. 1999); approximate.

All exact baselines return exactly the same :class:`~repro.core.base.MatchPair`
sets as pkwise (asserted by the integration tests); the approximate ones
return subsets.
"""

from .adapt import AdaptSearcher
from .faerie import FaerieSearcher
from .fbw import FBWSearcher, WinnowingSearcher
from .minhash import MinHashLSHSearcher

__all__ = [
    "AdaptSearcher",
    "FaerieSearcher",
    "FBWSearcher",
    "WinnowingSearcher",
    "MinHashLSHSearcher",
]
