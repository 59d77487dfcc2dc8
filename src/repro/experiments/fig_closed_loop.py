"""fig_closed_loop — adaptation from measurements, not oracles. (Extension.)

No counterpart in the paper, which assumes the optimizer sees true RTTs
(and points at King-style estimation for where they would really come
from). This figure closes the loop on a churn-free diurnal + flash-crowd
trace over a placed Grid on Planetlab-50: every epoch, each policy
probes the system through the fluid simulator, folds the observed
response times into EWMA RTT/capacity estimates with seeded measurement
noise, and re-optimizes from those *estimates* — while the plotted
series score the resulting strategies under the true drifted delays.
The ``threshold:<x>`` trigger is auto-tuned first
(:func:`~repro.dynamics.replay.tune_threshold` steps the candidates and
``static`` in lockstep, sharing each probe while their strategies agree
and measuring the rest in one fluid pass per epoch, in one cache-keyed
grid point on the shared runner), and the oracle clairvoyant
re-optimizer is the regret floor.

The qualitative claim: closed-loop adaptation with realistic signal
quality stays within a small factor of the clairvoyant optimum and
strictly beats never adapting — the estimation-error and regret series
in the metadata quantify both gaps.
"""

from __future__ import annotations

import numpy as np

from repro.dynamics.replay import CLAIRVOYANT, tune_threshold
from repro.dynamics.scenarios import (
    combine,
    diurnal_scenario,
    flash_crowd_scenario,
)
from repro.dynamics.telemetry import PROBE_BACKEND, TelemetryConfig
from repro.experiments.series import FigureResult, Series
from repro.network.datasets import planetlab_50
from repro.quorums.grid import GridQuorumSystem
from repro.runtime.runner import GridRunner

__all__ = ["run"]

#: Threshold candidates the auto-tuner sweeps (fast mode trims the ends).
THRESHOLDS = (0.01, 0.02, 0.05, 0.1, 0.2)
FAST_THRESHOLDS = (0.02, 0.05, 0.2)


def run(runner: GridRunner, fast: bool) -> FigureResult:
    """Auto-tune the threshold trigger, then plot the closed loop.

    Fast mode shrinks the Grid (k=3), the timeline (8 epochs), the
    candidate thresholds, and the placement candidate set (the 10 nodes
    with the smallest average client distance, fig_8_9's recipe).
    """
    topology = planetlab_50()
    k = 3 if fast else 5
    n_epochs = 8 if fast else 24
    seed = 11
    noise = 0.05
    system = GridQuorumSystem(k)
    # Churn-free on purpose: one segment, so the whole timeline exercises
    # the estimator's memory (churn would reset it at every boundary).
    trace = combine(
        diurnal_scenario(
            topology, n_epochs, seed=seed, amplitude=0.35,
            period=max(4, n_epochs // 2),
        ),
        flash_crowd_scenario(
            topology, n_epochs, seed=seed + 1, fraction=0.2, depth=0.8,
        ),
    )
    telemetry = TelemetryConfig(noise=noise, seed=seed)
    candidates = (
        np.argsort(topology.mean_distances())[:10] if fast else None
    )
    tuning = tune_threshold(
        topology,
        system,
        trace,
        thresholds=FAST_THRESHOLDS if fast else THRESHOLDS,
        telemetry=telemetry,
        baseline_policies=("static",),
        candidates=candidates,
        runner=runner,
    )
    result = tuning.result
    best = tuning.best_spec

    epochs = list(range(n_epochs))
    series = [
        Series.from_arrays(
            spec, epochs, result.series[spec].expected_delay
        )
        for spec in ("static", best, CLAIRVOYANT)
    ]
    series.append(
        Series.from_arrays(
            f"{best} regret", epochs, result.regret(best)
        )
    )
    return FigureResult(
        figure_id="fig_closed_loop",
        title=(
            f"Closed-loop adaptation from noisy telemetry, {k}x{k} Grid"
        ),
        x_label="epoch",
        y_label="ms",
        series=tuple(series),
        metadata={
            "topology": "planetlab-50",
            "k": k,
            "noise": noise,
            "probe_backend": PROBE_BACKEND,
            "tuned_threshold": tuning.best_threshold,
            "candidate_thresholds": tuning.specs,
            "mean_regret_ms": {
                spec: float(result.regret(spec).mean())
                for spec in result.policies
            },
            "mean_estimation_error": {
                spec: result.series[spec].mean_estimation_error
                for spec in result.policies
            },
            "max_staleness_epochs": float(
                max(
                    result.series[spec].staleness.max()
                    for spec in result.policies
                )
            ),
            "probe_operations": int(
                sum(
                    result.series[spec].probe_operations.sum()
                    for spec in result.policies
                )
            ),
            "reopts": {
                spec: result.series[spec].reopt_count
                for spec in result.series
            },
            "infeasible_epochs": int(
                sum(s.infeasible.sum() for s in result.series.values())
            ),
        },
    )
