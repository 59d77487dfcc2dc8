"""Registry mapping figure ids to their grid declarations.

Every figure declares its parameter grid as data
(:class:`~repro.runtime.grid.GridSpec`), and :func:`run_figure` evaluates
it on a :class:`~repro.runtime.runner.GridRunner` — serial, parallel
(``jobs``), and/or content-cached (``cache``) — through
:meth:`~repro.runtime.runner.GridRunner.evaluate`, the one place a
declared grid runs. ``fig_dyn`` and ``fig_closed_loop`` declare a second
stage: a replay's segment points are built from the results of its
placement points. Every figure is a function of ``fast`` alone: its
topology, demands and sweep ranges are constants of its module.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ReproError
from repro.experiments import (
    fig_3_1,
    fig_3_2,
    fig_6_3,
    fig_6_4,
    fig_6_5,
    fig_7_6,
    fig_7_7,
    fig_7_8,
    fig_8_9,
    fig_closed_loop,
    fig_dyn,
    fig_scale,
    fig_throughput,
)
from repro.experiments.series import FigureResult
from repro.obs import tracer as obs
from repro.runtime.cache import ResultCache
from repro.runtime.grid import GridSpec
from repro.runtime.runner import GridRunner

__all__ = ["FIGURES", "run_figure"]


#: Figure id -> the figure's grid declaration ``grid_spec(fast)``.
FIGURES: dict[str, Callable[[bool], GridSpec]] = {
    "fig_3_1": fig_3_1.grid_spec,
    "fig_3_2a": fig_3_2.grid_spec_a,
    "fig_3_2b": fig_3_2.grid_spec_b,
    "fig_6_3": fig_6_3.grid_spec,
    "fig_6_4": fig_6_4.grid_spec,
    "fig_6_5": fig_6_5.grid_spec,
    "fig_7_6": fig_7_6.grid_spec,
    "fig_7_7": fig_7_7.grid_spec,
    "fig_7_8": fig_7_8.grid_spec,
    "fig_8_9": fig_8_9.grid_spec,
    "fig_closed_loop": fig_closed_loop.grid_spec,
    "fig_dyn": fig_dyn.grid_spec,
    "fig_scale": fig_scale.grid_spec,
    "fig_throughput": fig_throughput.grid_spec,
}


def run_figure(
    figure_id: str,
    fast: bool = False,
    jobs: int | None = 1,
    cache: ResultCache | None = None,
) -> FigureResult:
    """Run one figure's experiment by id (e.g. ``"fig_6_3"``).

    ``jobs`` fans the figure's grid points out over worker processes
    (``None``/``0`` = all cores); ``cache`` reuses previously computed
    points keyed by content hash. Results are identical regardless of
    either setting. The runner created here is the figure's *only*
    process pool — the inner searches of a point (e.g. ``fig_8_9``'s
    candidate loops) run inline inside its workers — and is shut down
    when the figure completes.
    """
    try:
        declare = FIGURES[figure_id]
    except KeyError:
        raise ReproError(
            f"unknown figure {figure_id!r}; available: {sorted(FIGURES)}"
        ) from None
    before = cache.stats() if cache is not None else {}
    with obs.span("figure", figure_id=figure_id, fast=fast):
        with GridRunner(jobs=jobs, cache=cache) as runner:
            result: FigureResult = runner.evaluate(declare(fast))
    if cache is not None:
        after = cache.stats()
        # This run's cache effectiveness — a delta, so a cache shared
        # across figures reports only what this figure contributed.
        result.metadata["cache"] = {
            name: after[name] - before[name] for name in after
        }
    return result
