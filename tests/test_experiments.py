"""Tests for the figure runners (fast grids) and result containers.

Each runner is checked for (a) structural validity of its output and
(b) the paper's qualitative claim that the figure exists to demonstrate.
The paper-shape claims are defined once, in ``bench_e2e/checks.py``, and
run here as well as after every end-to-end benchmark run. All of these
read one shared fast run per figure (the session's ``fast_figure``
fixture in ``conftest.py``).
"""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

from bench_e2e.checks import FIGURE_CHECKS
from repro import experiments
from repro.errors import ReproError
from repro.experiments import FIGURES, run_figure
from repro.experiments.series import FigureResult, Series


class TestSeriesContainers:
    def test_series_length_check(self):
        with pytest.raises(ValueError):
            Series("x", (1.0, 2.0), (1.0,))

    def test_from_arrays(self):
        s = Series.from_arrays("a", np.array([1, 2]), np.array([3.0, 4.0]))
        assert s.x == (1.0, 2.0)
        assert s.y == (3.0, 4.0)

    def test_figure_lookup(self):
        fig = FigureResult(
            figure_id="f",
            title="t",
            x_label="x",
            y_label="y",
            series=(Series("a", (1.0,), (2.0,)),),
        )
        assert fig.series_by_label("a").y == (2.0,)
        with pytest.raises(KeyError):
            fig.series_by_label("b")

    def test_render_text_contains_values(self):
        fig = FigureResult(
            figure_id="fig_x",
            title="demo",
            x_label="n",
            y_label="ms",
            series=(Series("curve", (4.0, 9.0), (10.0, 20.0)),),
            metadata={"topology": "test"},
        )
        text = fig.render_text()
        assert "fig_x" in text
        assert "curve" in text
        assert "10.00" in text
        assert "topology: test" in text


class TestRegistry:
    def test_all_figures_registered(self):
        expected = {
            "fig_3_1", "fig_3_2a", "fig_3_2b", "fig_6_3", "fig_6_4",
            "fig_6_5", "fig_7_6", "fig_7_7", "fig_7_8", "fig_8_9",
            "fig_closed_loop", "fig_dyn", "fig_scale", "fig_throughput",
        }
        assert set(FIGURES) == expected

    def test_unknown_figure_rejected(self):
        with pytest.raises(ReproError):
            run_figure("fig_9_9")

    def test_every_figure_is_a_function_of_fast_alone(self):
        """A figure's topology, demands and sweep ranges are constants of
        its module: runners take ``(runner, fast)``, grid declarations
        take ``fast`` and ``run_figure`` nothing else that reaches them."""

        def parameters(fn):
            return list(inspect.signature(fn).parameters)

        for figure_id, runner_fn in FIGURES.items():
            assert parameters(runner_fn) == ["runner", "fast"], figure_id
        declarations = [
            getattr(module, name)
            for info in pkgutil.iter_modules(experiments.__path__)
            if info.name.startswith("fig_")
            for module in [
                importlib.import_module(f"repro.experiments.{info.name}")
            ]
            for name in vars(module)
            if name.startswith("grid_spec")
        ]
        assert len(declarations) == 12  # every figure but the two replays
        for declare in declarations:
            assert parameters(declare) == ["fast"], declare.__module__
        assert parameters(run_figure) == ["figure_id", "fast", "jobs", "cache"]


class TestRegistrySmoke:
    """Every registered figure must run end-to-end in fast mode.

    A broken runner should fail tier-1, not be discovered at benchmark
    time. Each smoke checks the structural contract every consumer
    (render_text, benchmarks, the CLI) relies on.
    """

    @pytest.mark.parametrize("figure_id", sorted(FIGURES))
    def test_figure_runs_fast(self, figure_id, fast_figure):
        result = fast_figure(figure_id)
        assert isinstance(result, FigureResult)
        assert result.figure_id == figure_id
        assert result.series, f"{figure_id} produced no series"
        for series in result.series:
            assert len(series.x) == len(series.y) > 0
            assert all(np.isfinite(series.y)), (
                f"{figure_id}/{series.label} has non-finite values"
            )
        assert "==" in result.render_text()


class TestPaperShape:
    @pytest.mark.parametrize("figure_id", sorted(FIGURE_CHECKS))
    def test_figure_has_the_paper_shape(self, figure_id, fast_figure):
        FIGURE_CHECKS[figure_id](fast_figure(figure_id))


class TestFig63:
    @pytest.fixture(scope="class")
    def result(self, fast_figure):
        return fast_figure("fig_6_3")

    def test_structure(self, result):
        labels = {s.label for s in result.series}
        assert "Grid" in labels
        assert "Singleton" in labels
        assert any("(4t+1, 5t+1)" in label for label in labels)

    def test_singleton_is_floor(self, result):
        sing = min(result.series_by_label("Singleton").y)
        for s in result.series:
            if s.label == "Singleton":
                continue
            assert min(s.y) >= sing - 1e-9

    def test_small_quorums_beat_large_at_matched_sizes(self, result):
        """At comparable universe sizes the (t+1,2t+1) Majority should
        not lose to the (4t+1,5t+1) Majority (smaller quorums win)."""
        small = result.series_by_label("Majority (t+1, 2t+1)")
        large = result.series_by_label("Majority (4t+1, 5t+1)")
        for lx, ly in zip(large.x, large.y):
            candidates = [
                sy for sx, sy in zip(small.x, small.y) if sx <= lx
            ]
            if candidates:
                assert min(candidates) <= ly + 1e-9


class TestFig64And65:
    def test_fig64_closest_wins_somewhere_at_low_demand(self, fast_figure):
        result = fast_figure("fig_6_4")
        closest = result.series_by_label("closest demand=1000")
        balanced = result.series_by_label("balanced demand=1000")
        assert any(c <= b for c, b in zip(closest.y, balanced.y))

    def test_fig65_balanced_disperses_load(self, fast_figure):
        result = fast_figure("fig_6_5")
        resp_bal = result.series_by_label("response balanced")
        resp_clo = result.series_by_label("response closest")
        # At the largest universe, balanced should win under demand 16000.
        assert resp_bal.y[-1] < resp_clo.y[-1]

    def test_fig65_balanced_delay_grows_with_universe(self, fast_figure):
        result = fast_figure("fig_6_5")
        nd = result.series_by_label("netdelay balanced")
        assert nd.y[-1] > nd.y[0]


class TestFig78:
    @pytest.fixture(scope="class")
    def result(self, fast_figure):
        return fast_figure("fig_7_8")

    def test_network_delay_nonincreasing(self, result):
        nd = result.series_by_label("network delay")
        assert all(a >= b - 1e-6 for a, b in zip(nd.y, nd.y[1:]))

    def test_response_rises_with_capacity_at_high_demand(self, result):
        uniform = result.series_by_label("response uniform")
        assert uniform.y[-1] >= uniform.y[0]

    def test_nonuniform_never_much_worse(self, result):
        uniform = result.series_by_label("response uniform")
        nonuni = result.series_by_label("response nonuniform")
        for u, n in zip(uniform.y, nonuni.y):
            assert n <= u * 1.01 + 0.5
        assert sum(nonuni.y) <= sum(uniform.y) + 1e-6


class TestFigDyn:
    @pytest.fixture(scope="class")
    def result(self, fast_figure):
        return fast_figure("fig_dyn")

    def test_clairvoyant_is_the_floor(self, result):
        clair = np.asarray(result.series_by_label("clairvoyant").y)
        for series in result.series:
            if series.label == "clairvoyant":
                continue
            assert np.all(np.asarray(series.y) >= clair - 1e-9)

    def test_static_pays_the_most_regret(self, result):
        regrets = result.metadata["mean_regret_ms"]
        assert regrets["static"] >= max(
            v for k, v in regrets.items() if k != "static"
        ) - 1e-9

    def test_adaptive_policies_cost_more_reopts(self, result):
        reopts = result.metadata["reopts"]
        assert reopts["clairvoyant"] >= reopts["threshold:0.05"]
        assert reopts["threshold:0.05"] >= reopts["static"]


class TestFig89:
    @pytest.fixture(scope="class")
    def result(self, fast_figure):
        return fast_figure("fig_8_9")

    def test_iterative_beats_one_to_one(self, result):
        iter1 = result.series_by_label("netdelay 1st iteration")
        o2o = result.series_by_label("netdelay one-to-one")
        for i1, oo in zip(iter1.y, o2o.y):
            assert i1 < oo

    def test_second_iteration_close_to_first(self, result):
        """The paper: iteration 2 brings only small changes."""
        iter1 = result.series_by_label("netdelay 1st iteration")
        iter2 = result.series_by_label("netdelay 2nd iteration")
        for a, b in zip(iter1.y, iter2.y):
            assert abs(a - b) < 10.0
