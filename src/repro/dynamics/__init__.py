"""Time-varying topologies with warm incremental re-optimization.

The paper's evaluation assumes a static WAN snapshot ("normal conditions")
and names dynamics as future work (Section 1). This subsystem supplies the
missing workload class: :mod:`~repro.dynamics.events` defines seeded,
typed scenario traces (RTT drift, capacity changes, node churn),
:mod:`~repro.dynamics.scenarios` generates the standard ones (diurnal
oscillation, flash crowd, partition-and-heal),
:mod:`~repro.dynamics.controller` adapts access strategies under pluggable
policies — incrementally, against one persistent warm LP per placement —
and :mod:`~repro.dynamics.replay` drives whole scenarios through the
parallel runtime, emitting per-epoch time series (expected delay, regret
versus a clairvoyant re-optimizer, cumulative re-optimization cost).

Entry points: :func:`~repro.dynamics.replay.replay` from code,
``python -m repro dynamics`` from the shell, and the ``fig_dyn`` figure
runner through the experiment registry.
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
    replay,
    tune_threshold,
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
    "replay",
    "tune_threshold",
    "DynamicsResult",
    "ThresholdTuning",
    "CLAIRVOYANT",
]
