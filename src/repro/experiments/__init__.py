"""Per-figure experiment runners.

Every table/figure in the paper's evaluation has a module here that
declares its parameter grid; :func:`run_figure` evaluates it into a
:class:`~repro.experiments.series.FigureResult` — labelled series of the
same rows the paper plots — plus a text renderer, so the CLI
(``python -m repro figure <figure|all>``) can regenerate any figure.

``fast=True`` shrinks the parameter grids for quick runs (the test suite
and the end-to-end benchmark use it); without it the paper's full grids
run.
"""

from repro.experiments.registry import FIGURES, run_figure
from repro.experiments.series import FigureResult, Series

__all__ = ["FIGURES", "run_figure", "FigureResult", "Series"]
