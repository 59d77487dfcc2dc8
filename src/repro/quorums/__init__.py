"""Quorum systems.

A quorum system over a universe ``U`` of logical elements is a collection of
subsets of ``U`` (quorums) such that any two quorums intersect. This package
implements the systems the paper evaluates — three Majority families
(:func:`~repro.quorums.threshold.majority`), the Grid
(:class:`~repro.quorums.grid.GridQuorumSystem`), and the singleton
(:class:`~repro.quorums.singleton.SingletonQuorumSystem`) — along with load
theory (:mod:`repro.quorums.load_analysis`) and exact order statistics for
threshold systems (:mod:`repro.quorums.order_stats`).
"""

from repro.quorums.base import EnumeratedQuorumSystem, QuorumSystem
from repro.quorums.grid import GridQuorumSystem, RectangularGridQuorumSystem
from repro.quorums.load_analysis import LoadAnalysis, optimal_load
from repro.quorums.order_stats import max_order_statistic_pmf
from repro.quorums.singleton import SingletonQuorumSystem
from repro.quorums.threshold import (
    MajorityKind,
    ThresholdQuorumSystem,
    majority,
    majority_universe_sizes,
)

__all__ = [
    "QuorumSystem",
    "EnumeratedQuorumSystem",
    "ThresholdQuorumSystem",
    "MajorityKind",
    "majority",
    "majority_universe_sizes",
    "GridQuorumSystem",
    "RectangularGridQuorumSystem",
    "SingletonQuorumSystem",
    "optimal_load",
    "LoadAnalysis",
    "max_order_statistic_pmf",
]
