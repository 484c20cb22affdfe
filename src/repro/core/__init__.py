"""Core algorithms: the paper's contribution.

* :class:`~repro.core.pkwise.PKWiseSearcher` — Algorithm 4: partitioned
  k-wise signatures with interval sharing (the paper's **pkwise**).
* :class:`~repro.core.pkwise_nonint.PKWiseNonIntervalSearcher` —
  Algorithm 2: same signatures, windows processed individually
  (**pkwise-nonint** in Figure 8).
* :class:`~repro.core.weighted.WeightedPKWiseSearcher` — the Appendix C
  weighted extension.

All searchers share the :class:`~repro.core.base.MatchPair` result type
and the :class:`~repro.core.base.SearchStats` phase accounting consumed
by the cost model and the benchmarks.  Nothing is re-exported here:
import each name from the module above that defines it.
"""

__all__ = []
