"""Evaluation utilities: quality metrics, experiment harness, analysis.

Implements the paper's Appendix D.2 quality metrics (span-overlap recall
and token-level precision), aggregate timing over query workloads with
the Section 5.1 phase decomposition, and the Section 7.3 structural
measurements (adjacent-prefix sharing, postings-length distribution).
"""

from .analysis import postings_statistics, prefix_sharing
from .harness import run_searcher
from .metrics import evaluate_quality

__all__ = [
    "evaluate_quality",
    "run_searcher",
    "prefix_sharing",
    "postings_statistics",
]
