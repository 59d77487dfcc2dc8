"""fig_dyn — adaptation policies tracking a drifting topology. (Extension.)

No counterpart in the paper, whose evaluation is a static snapshot
(Section 1 defers dynamics to future work). This figure replays a mixed
scenario — diurnal RTT oscillation, a flash-crowd capacity crunch, and a
regional partition-and-heal — against a placed Grid on Planetlab-50 and
plots, per epoch, the expected network delay each adaptation policy
achieves next to the clairvoyant re-optimizer's optimum. The qualitative
claim: ``static`` drifts away from the optimum, ``threshold`` tracks it
at a fraction of the re-optimization cost, and the clairvoyant floor is
what the warm incremental LP machinery makes affordable.

Unlike the paper figures, the replay is two dependent grid phases
(placements, then policy/segment replays), so the work is declared inside
:func:`repro.dynamics.replay.replay` rather than as a single
``grid_spec``; the same runner schedules both phases, every point is
content-cached, and ``--jobs N`` stays bit-identical to ``jobs=1``.
"""

from __future__ import annotations

import numpy as np

from repro.dynamics.replay import CLAIRVOYANT, replay
from repro.dynamics.scenarios import mixed_scenario
from repro.experiments.series import FigureResult, Series
from repro.network.datasets import planetlab_50
from repro.quorums.grid import GridQuorumSystem
from repro.runtime.runner import GridRunner

__all__ = ["run"]

#: Policies plotted next to the clairvoyant baseline.
POLICIES = ("static", "periodic:4", "threshold:0.05")


def run(runner: GridRunner, fast: bool) -> FigureResult:
    """Replay the mixed dynamic scenario and package the time series.

    Fast mode shrinks the Grid (k=3), the timeline (8 epochs), and the
    placement candidate set (the 10 nodes with the smallest average
    client distance, fig_8_9's recipe).
    """
    topology = planetlab_50()
    k = 3 if fast else 5
    n_epochs = 8 if fast else 24
    system = GridQuorumSystem(k)
    trace = mixed_scenario(topology, n_epochs, seed=7)
    candidates = (
        np.argsort(topology.mean_distances())[:10] if fast else None
    )
    result = replay(
        topology,
        system,
        trace,
        policies=POLICIES,
        candidates=candidates,
        runner=runner,
    )

    epochs = list(range(n_epochs))
    series = [
        Series.from_arrays(
            spec, epochs, result.series[spec].expected_delay
        )
        for spec in (*result.policies, CLAIRVOYANT)
    ]
    reopts = {
        spec: result.series[spec].reopt_count for spec in result.series
    }
    solves = {
        spec: int(result.series[spec].lp_solves.sum())
        for spec in result.series
    }
    regrets = {
        spec: float(result.regret(spec).mean()) for spec in result.policies
    }
    return FigureResult(
        figure_id="fig_dyn",
        title=f"Adaptation policies under a drifting WAN, {k}x{k} Grid",
        x_label="epoch",
        y_label="ms",
        series=tuple(series),
        metadata={
            "topology": "planetlab-50",
            "k": k,
            "segments": len(result.segments),
            "events": len(trace.events),
            "reopts": reopts,
            "lp_solves": solves,
            "mean_regret_ms": regrets,
            "infeasible_epochs": int(
                sum(s.infeasible.sum() for s in result.series.values())
            ),
        },
    )
