"""Analyses layered on top of placements.

* :mod:`repro.analysis.fault_tolerance` — worst-case crash tolerance of
  placed quorum systems, quantifying the paper's argument that one-to-one
  placements "preserve the fault-tolerance of the original quorum system"
  while many-to-one placements trade it away.
"""

from repro.analysis.fault_tolerance import (
    crash_tolerance,
    min_nodes_to_disable,
)

__all__ = [
    "crash_tolerance",
    "min_nodes_to_disable",
]
