"""Token-universe partitioning: schemes, cost model, and optimizers.

Section 3.2 partitions the token universe (sorted by the global order)
into ``k_max`` classes; class ``i`` tokens are combined ``i`` at a time
into signatures.  Section 6 further splits each class above 1 into ``m``
equi-width sub-partitions.  Section 5 defines the query-processing cost
model (Equations 2-4) and the greedy two-level blocking algorithm that
chooses class borders to minimize workload cost.
"""

from .greedy import GreedyPartitioner

__all__ = ["GreedyPartitioner"]
