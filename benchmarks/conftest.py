"""Benchmark harness configuration.

A benchmark that keeps a record writes it as JSON under
``benchmarks/results/`` (the ``results_dir`` fixture) through
:class:`~repro.obs.bench.BenchRecorder`.

Set ``REPRO_BENCH_FULL=1`` to run the full-size configurations of the
benchmarks that have one (``bench_scale.py``, ``bench_sim_throughput.py``)
instead of their fast defaults.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


def full_grids_enabled() -> bool:
    return os.environ.get("REPRO_BENCH_FULL", "") == "1"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR
