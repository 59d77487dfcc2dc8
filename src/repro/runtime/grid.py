"""Parameter grids as data.

A figure runner used to be an opaque function looping over its parameters;
to schedule those loops (in parallel, through a cache, under a progress
meter...) the grid has to be *declared* instead. A :class:`GridSpec` is
that declaration: a flat tuple of independent :class:`GridPoint` work
units plus an ``assemble`` function that turns their results into the
figure. A grid whose later points depend on earlier results (a dynamics
replay's segment points need the segment placements) declares them as a
second stage: a function from the first stage's ``{tag: value}`` to more
points. Nothing about the spec implies an execution order within a stage
— any scheduler that evaluates every point of the first stage, then every
point the second stage declares, and hands ``{tag: value}`` of both to
``assemble`` produces the same figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Mapping, Sequence

__all__ = ["GridPoint", "GridSpec"]


@dataclass(frozen=True)
class GridPoint:
    """One independent unit of work in a parameter grid.

    Attributes
    ----------
    tag:
        Unique identifier of the point within its grid; ``assemble``
        receives results keyed by tag.
    fn:
        A **module-level** callable (it must pickle by reference so it can
        cross a process boundary) invoked as ``fn(**kwargs)``.
    kwargs:
        Picklable keyword arguments for ``fn``.
    cache_key:
        Content components identifying the result (see
        :func:`repro.runtime.cache.content_key`); ``None`` marks the point
        uncacheable.

    >>> point = GridPoint(tag="p0", fn=pow, kwargs={"base": 2, "exp": 5})
    >>> point()
    32
    """

    tag: Hashable
    fn: Callable[..., Any]
    kwargs: dict = field(default_factory=dict)
    cache_key: dict | None = None

    def __call__(self) -> Any:
        return self.fn(**self.kwargs)


@dataclass(frozen=True)
class GridSpec:
    """A declared grid: independent points plus an assembly function.

    ``then``, when given, is the second stage: it receives the first
    stage's ``{tag: value}`` and returns more points, whose tags must not
    repeat the first stage's. ``assemble`` receives the results of both
    stages. :meth:`GridRunner.evaluate
    <repro.runtime.runner.GridRunner.evaluate>` runs a spec.
    """

    figure_id: str
    points: tuple[GridPoint, ...]
    assemble: Callable[[Mapping[Hashable, Any]], Any]
    then: Callable[[Mapping[Hashable, Any]], Sequence[GridPoint]] | None = None

    def __post_init__(self) -> None:
        tags = [p.tag for p in self.points]
        if len(set(tags)) != len(tags):
            dupes = sorted(
                {str(t) for t in tags if tags.count(t) > 1}
            )
            raise ValueError(
                f"{self.figure_id}: duplicate grid point tags {dupes}"
            )
