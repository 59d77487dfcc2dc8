"""Per-figure experiment runners.

Every table/figure in the paper's evaluation has a runner here returning a
:class:`~repro.experiments.series.FigureResult` — labelled series of the
same rows the paper plots — plus a text renderer, so benchmarks and the CLI
(``python -m repro figure <figure|all>``) can regenerate any figure.

Runners accept a ``fast=True`` flag that shrinks parameter grids for quick
runs (used by the test suite); benchmarks run the full grids.
"""

from repro.experiments.registry import FIGURES, run_figure
from repro.experiments.series import FigureResult, Series

__all__ = ["FIGURES", "run_figure", "FigureResult", "Series"]
