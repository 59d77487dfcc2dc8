"""Discrete-event simulation substrate.

Replaces the paper's Modelnet testbed (Section 3): a deterministic
event-driven simulator whose events call ``handler(arg)``
(:mod:`repro.sim.engine`), message delivery over a topology's RTT matrix
for the generic simulator (:mod:`repro.sim.network`), open-loop Poisson
arrivals (:mod:`repro.sim.workload`), response-time metrics
(:mod:`repro.sim.metrics`), and the fluid (vectorized) open-loop backend
(:mod:`repro.sim.fluid`) selected via
``GenericQuorumSimulation(backend="fluid")``. Like the paper's evaluation,
every simulation runs under normal conditions: no node or link fails.

The Q/U protocol runs on the same engine (:class:`repro.qu.QUService`,
which reads its client-server delays from the topology itself). Its
experiment harness lives in :mod:`repro.sim.experiment`; import it
directly (``from repro.sim.experiment import run_qu_experiment``) — it sits
above both this package and :mod:`repro.qu`, so it is not re-exported here.
"""

from repro.sim.engine import Simulator
from repro.sim.metrics import (
    OperationRecord,
    ResponseTimeStats,
    summarize,
    summarize_arrays,
)
from repro.sim.network import SimNetwork

__all__ = [
    "Simulator",
    "SimNetwork",
    "OperationRecord",
    "ResponseTimeStats",
    "summarize",
    "summarize_arrays",
]
