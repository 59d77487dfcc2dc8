"""Time-varying topologies with warm incremental re-optimization.

The paper's evaluation assumes a static WAN snapshot ("normal conditions")
and names dynamics as future work (Section 1). This subsystem supplies the
missing workload class: :mod:`~repro.dynamics.events` defines seeded,
typed scenario traces (RTT drift, capacity changes, node churn),
:mod:`~repro.dynamics.scenarios` generates the standard ones (diurnal
oscillation, flash crowd, partition-and-heal),
:mod:`~repro.dynamics.controller` adapts access strategies under pluggable
policies — incrementally, against one persistent warm LP per placement —
and :mod:`~repro.dynamics.replay` declares whole scenario replays as grids
for the parallel runtime, emitting per-epoch time series (expected delay,
regret versus a clairvoyant re-optimizer, re-optimization cost).

Entry points: :func:`~repro.dynamics.replay.replay_spec` and
:func:`~repro.dynamics.replay.tuning_spec` from code, evaluated by
:meth:`GridRunner.evaluate <repro.runtime.runner.GridRunner.evaluate>`
(or :func:`~repro.dynamics.replay.tune_threshold`, which brings its own
runner); ``python -m repro dynamics`` from the shell; and the ``fig_dyn``
and ``fig_closed_loop`` figures through the experiment registry.
"""

from repro.dynamics.controller import (
    AdaptiveController,
    PeriodicPolicy,
    SegmentSeries,
    StaticPolicy,
    ThresholdPolicy,
    parse_policy,
)
from repro.dynamics.events import (
    CapacityEvent,
    ChurnEvent,
    EpochState,
    RttDriftEvent,
    ScenarioTrace,
    effective_rtt,
)
from repro.dynamics.replay import (
    CLAIRVOYANT,
    DynamicsResult,
    ThresholdTuning,
    replay_spec,
    tune_threshold,
    tuning_spec,
)
from repro.dynamics.telemetry import (
    TelemetryConfig,
    TelemetryEstimator,
    probe_epoch,
)
from repro.dynamics.scenarios import (
    combine,
    diurnal_scenario,
    flash_crowd_scenario,
    mixed_scenario,
    partition_heal_scenario,
)

__all__ = [
    # events
    "RttDriftEvent",
    "CapacityEvent",
    "ChurnEvent",
    "EpochState",
    "ScenarioTrace",
    "effective_rtt",
    # scenarios
    "diurnal_scenario",
    "flash_crowd_scenario",
    "partition_heal_scenario",
    "mixed_scenario",
    "combine",
    # controller
    "AdaptiveController",
    "StaticPolicy",
    "PeriodicPolicy",
    "ThresholdPolicy",
    "parse_policy",
    "SegmentSeries",
    # telemetry
    "TelemetryConfig",
    "TelemetryEstimator",
    "probe_epoch",
    # replay
    "replay_spec",
    "tuning_spec",
    "tune_threshold",
    "DynamicsResult",
    "ThresholdTuning",
    "CLAIRVOYANT",
]
