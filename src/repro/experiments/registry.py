"""Registry mapping figure ids to runners.

Every figure but the two dynamics ones declares its parameter grid as
data (:class:`~repro.runtime.grid.GridSpec`), and :func:`_grid` is the
one place a declared grid is evaluated: it runs the points on the
:class:`~repro.runtime.runner.GridRunner` that :func:`run_figure` hands
it — serial, parallel (``jobs``), and/or content-cached (``cache``) —
and assembles the figure. ``fig_dyn`` and ``fig_closed_loop`` register
drivers instead, because a replay's segment points depend on the
results of its placement points.
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
from repro.runtime.runner import GridRunner, shared_runner

__all__ = ["FIGURES", "run_figure"]


def _grid(declare: Callable[..., GridSpec]) -> Callable[..., FigureResult]:
    """The runner of a figure that is one declared grid."""

    def run(runner: GridRunner, fast: bool = False, **params) -> FigureResult:
        spec = declare(fast=fast, **params)
        return spec.assemble(runner.run(spec.points))

    return run


#: Figure id -> ``fn(runner, fast=..., **params) -> FigureResult``.
FIGURES: dict[str, Callable[..., FigureResult]] = {
    "fig_3_1": _grid(fig_3_1.grid_spec),
    "fig_3_2a": _grid(fig_3_2.grid_spec_a),
    "fig_3_2b": _grid(fig_3_2.grid_spec_b),
    "fig_6_3": _grid(fig_6_3.grid_spec),
    "fig_6_4": _grid(fig_6_4.grid_spec),
    "fig_6_5": _grid(fig_6_5.grid_spec),
    "fig_7_6": _grid(fig_7_6.grid_spec),
    "fig_7_7": _grid(fig_7_7.grid_spec),
    "fig_7_8": _grid(fig_7_8.grid_spec),
    "fig_8_9": _grid(fig_8_9.grid_spec),
    "fig_closed_loop": fig_closed_loop.run,
    "fig_dyn": fig_dyn.run,
    "fig_scale": _grid(fig_scale.grid_spec),
    "fig_throughput": _grid(fig_throughput.grid_spec),
}


def run_figure(
    figure_id: str,
    fast: bool = False,
    jobs: int | None = 1,
    cache: ResultCache | None = None,
    **kwargs,
) -> FigureResult:
    """Run one figure's experiment by id (e.g. ``"fig_6_3"``).

    ``jobs`` fans the figure's grid points out over worker processes
    (``None``/``0`` = all cores); ``cache`` reuses previously computed
    points keyed by content hash. Results are identical regardless of
    either setting. The runner created here is the figure's *only*
    process pool — the inner searches of a point (e.g. ``fig_8_9``'s
    candidate loops) run inline inside its workers — and is
    shut down when the figure completes; pass ``runner=`` to share one
    across figures instead.

    With a shared ``runner``, its worker count is authoritative: passing
    a non-default ``jobs`` alongside it raises (the value would be
    silently ignored otherwise). ``cache`` *is* honored — it is attached
    to the runner for the duration of the call and detached afterwards —
    unless the runner already carries a different cache, which is an
    equally silent conflict and also raises.
    """
    try:
        runner_fn = FIGURES[figure_id]
    except KeyError:
        raise ReproError(
            f"unknown figure {figure_id!r}; available: {sorted(FIGURES)}"
        ) from None
    # An explicit runner=None means "no shared runner", not a conflict:
    # fall through and build one honoring jobs/cache.
    runner = kwargs.pop("runner", None)
    with obs.span("figure", figure_id=figure_id, fast=fast):
        if runner is not None:
            with shared_runner(runner, jobs=jobs, cache=cache):
                active_cache = runner.cache
                before = (
                    active_cache.stats()
                    if active_cache is not None
                    else None
                )
                result = runner_fn(runner, fast=fast, **kwargs)
        else:
            before = cache.stats() if cache is not None else None
            active_cache = cache
            with GridRunner(jobs=jobs, cache=cache) as runner:
                result = runner_fn(runner, fast=fast, **kwargs)
    if active_cache is not None and before is not None:
        after = active_cache.stats()
        # This run's cache effectiveness — a delta, so shared caches and
        # shared runners report only what this figure contributed.
        result.metadata["cache"] = {
            name: after[name] - before[name] for name in after
        }
    return result
