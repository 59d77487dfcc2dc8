"""Equivalence suite for the batched LP backend.

Pins the build-once/solve-many path (`StrategyProgram.solve_many`, warm-
started HiGHS when bindings are importable) against the existing
one-LP-per-level path (fresh assembly + cold scipy solve per level):
objectives must match within 1e-9 and a capacity sweep must pick the same
best capacity, on both a Grid and an enumerated Majority.

Two test-side references pin the HiGHS backend's shortcuts bit for bit:
``run_every_variant`` runs every variant of a sweep through the solver, as
``solve_many`` did before it reused a held optimum, and
``highs_lp_reference`` builds the model field by field into a ``HighsLp``,
as the backend did before it passed arrays.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.placement import PlacedQuorumSystem, Placement
from repro.errors import SolverError
from repro.lp import BatchedProgram, LinearProgram, lp_backend_name
from repro.lp.batched import (
    LP_BACKEND_ENV,
    _probe,
    _probe_highs_bindings,
    lp_solver_identity,
)
from repro.network.generators import synthetic_wan
from repro.network.graph import Topology
from repro.obs.tracer import Tracer, tracing
from repro.placement.search import best_placement
from repro.quorums.base import EnumeratedQuorumSystem
from repro.quorums.grid import GridQuorumSystem
from repro.quorums.load_analysis import optimal_load
from repro.quorums.threshold import ThresholdQuorumSystem
from repro.strategies.capacity_sweep import (
    capacity_levels,
    sweep_uniform_capacities,
)
from repro.strategies.lp_optimizer import StrategyProgram
from repro.strategies.nonuniform import nonuniform_capacities


@pytest.fixture()
def grid3_placed(line_topology):
    return PlacedQuorumSystem(
        GridQuorumSystem(3), Placement(list(range(9))), line_topology
    )


@pytest.fixture()
def majority_placed(plane_topology):
    """Majority(6 of 9) as an explicit list of its 84 quorums."""
    return PlacedQuorumSystem(
        EnumeratedQuorumSystem(ThresholdQuorumSystem(9, 6).quorums),
        Placement(list(range(9))),
        plane_topology,
    )


def _objective(placed, strategy) -> float:
    """The LP objective (4.3) a strategy attains: average network delay."""
    delta = placed.delay_matrix
    return float((delta * strategy.matrix).sum() / placed.n_nodes)


def _levels(placed, steps=6) -> np.ndarray:
    return capacity_levels(optimal_load(placed.system).l_opt, steps)


class TestSolveManyEquivalence:
    @pytest.mark.parametrize("fixture", ["grid3_placed", "majority_placed"])
    def test_objectives_match_per_level_path(
        self, fixture, request, monkeypatch
    ):
        placed = request.getfixturevalue(fixture)
        levels = _levels(placed)

        batched = StrategyProgram(placed).solve_many(
            [float(c) for c in levels]
        )
        # the per-level path: fresh assembly, cold scipy solve
        monkeypatch.setenv(LP_BACKEND_ENV, "scipy")
        for capacity, strategy in zip(levels, batched):
            assert strategy is not None
            per_level = StrategyProgram(placed).solve(float(capacity))
            assert _objective(placed, strategy) == pytest.approx(
                _objective(placed, per_level), abs=1e-9
            )

    @pytest.mark.parametrize("fixture", ["grid3_placed", "majority_placed"])
    def test_sweep_picks_same_best_capacity(
        self, fixture, request, monkeypatch
    ):
        placed = request.getfixturevalue(fixture)
        levels = _levels(placed)
        alpha = 60.0

        batched = sweep_uniform_capacities(placed, alpha, levels=levels)
        # the per-level path: the sweep builds its program on cold scipy
        monkeypatch.setenv(LP_BACKEND_ENV, "scipy")
        per_level = sweep_uniform_capacities(placed, alpha, levels=levels)
        assert batched.best.capacity == per_level.best.capacity
        assert batched.best.result.avg_response_time == pytest.approx(
            per_level.best.result.avg_response_time, abs=1e-6
        )

    def test_strategies_are_valid_distributions(self, grid3_placed):
        strategies = StrategyProgram(grid3_placed).solve_many(
            [float(c) for c in _levels(grid3_placed)]
        )
        for strategy in strategies:
            matrix = strategy.matrix
            assert np.all(matrix >= -1e-9)
            assert np.allclose(matrix.sum(axis=1), 1.0, atol=1e-6)

    def test_capacity_constraints_hold_across_family(self, grid3_placed):
        levels = _levels(grid3_placed)
        strategies = StrategyProgram(grid3_placed).solve_many(
            [float(c) for c in levels]
        )
        for capacity, strategy in zip(levels, strategies):
            loads = strategy.node_loads(grid3_placed)
            assert np.all(loads <= capacity + 1e-6)

    def test_infeasible_variants_are_none_not_raised(self, grid3_placed):
        l_opt = optimal_load(grid3_placed.system).l_opt
        strategies = StrategyProgram(grid3_placed).solve_many(
            [l_opt * 0.25, 1.0, l_opt * 0.5]
        )
        assert strategies[0] is None
        assert strategies[1] is not None
        assert strategies[2] is None

    def test_interleaved_solves_reuse_one_program(self, grid3_placed):
        """Re-solving the same level after other variants still matches."""
        program = StrategyProgram(grid3_placed)
        first = program.solve(1.0)
        program.solve(0.7)
        again = program.solve(1.0)
        assert _objective(grid3_placed, again) == pytest.approx(
            _objective(grid3_placed, first), abs=1e-9
        )


class TestBatchedProgram:
    def _toy_program(self) -> LinearProgram:
        # min x + 2y  s.t. x + y >= b  (as -x - y <= -b), x,y in [0, 10].
        lp = LinearProgram()
        v = lp.add_block("v", 2, lower=0.0, upper=10.0)
        lp.set_objective_many([v.index(0), v.index(1)], [1.0, 2.0])
        lp.add_le([v.index(0), v.index(1)], [-1.0, -1.0], -1.0)
        return lp

    def test_rhs_sweep(self):
        batched = BatchedProgram(self._toy_program())
        solutions = batched.solve_many([[-1.0], [-4.0], [-25.0]])
        assert solutions[0].objective == pytest.approx(1.0)
        assert solutions[1].objective == pytest.approx(4.0)
        assert solutions[2] is None  # x + y >= 25 exceeds the bounds

    def test_scipy_backend_forced(self):
        batched = BatchedProgram(self._toy_program(), backend="scipy")
        assert batched.backend == "scipy"
        assert batched.solve([-2.0]).objective == pytest.approx(2.0)

    def test_backend_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_LP_BACKEND", "scipy")
        assert lp_backend_name() == "scipy"
        batched = BatchedProgram(self._toy_program())
        assert batched.backend == "scipy"

    def test_backend_is_probed_once_per_setting(self, monkeypatch):
        """Every program and every cache key asks for the backend; the
        probe runs once per normalized ``REPRO_LP_BACKEND`` value, and
        changing the variable still changes the path."""
        monkeypatch.delenv(LP_BACKEND_ENV, raising=False)
        _probe.cache_clear()
        try:
            default = lp_backend_name()
            for _ in range(3):
                assert BatchedProgram(self._toy_program()).backend == default
                assert lp_solver_identity()[0] == default
            assert _probe.cache_info().misses == 1
            for setting in ("scipy", " SciPy ", "scipy"):
                monkeypatch.setenv(LP_BACKEND_ENV, setting)
                assert BatchedProgram(self._toy_program()).backend == "scipy"
            assert _probe.cache_info().misses == 2
            monkeypatch.delenv(LP_BACKEND_ENV)
            assert BatchedProgram(self._toy_program()).backend == default
            assert _probe.cache_info().misses == 2
        finally:
            _probe.cache_clear()

    def test_backends_agree(self):
        variants = [[-1.0], [-3.0], [-7.5]]
        auto = BatchedProgram(self._toy_program()).solve_many(variants)
        scipy_only = BatchedProgram(
            self._toy_program(), backend="scipy"
        ).solve_many(variants)
        for a, b in zip(auto, scipy_only):
            assert a.objective == pytest.approx(b.objective, abs=1e-9)

    def test_bad_rhs_shape_rejected(self):
        batched = BatchedProgram(self._toy_program())
        with pytest.raises(SolverError):
            batched.solve_many([[-1.0, -2.0]])

    def test_unknown_backend_rejected(self):
        with pytest.raises(SolverError):
            BatchedProgram(self._toy_program(), backend="glpk")

    def test_solve_default_rhs_uses_build_values(self):
        batched = BatchedProgram(self._toy_program())
        assert batched.solve().objective == pytest.approx(1.0)


def test_anchored_solves_leave_the_anchor_basis_untouched(majority_placed):
    """Restarts hand the captured anchor straight to ``setBasis``, which
    copies it in: no later solve may write into the captured statuses."""
    program = StrategyProgram(majority_placed)
    program.solve(1.0)  # calibrates and captures the anchor
    impl = program._batched._impl
    if not impl.stateful:
        pytest.skip("stateless LP backend keeps no anchor basis")
    anchor = impl._anchor
    columns, rows = list(anchor.col_status), list(anchor.row_status)
    rng = np.random.default_rng(5)
    delta = majority_placed.delay_matrix
    levels = _levels(majority_placed)
    for step in range(24):
        program.update_delays(delta * rng.uniform(0.7, 1.4, size=delta.shape))
        caps = np.full(majority_placed.n_nodes, levels[step % levels.size])
        program.solve(caps * rng.uniform(1.0, 1.3, size=caps.size))
    assert impl._anchor is anchor
    assert list(anchor.col_status) == columns
    assert list(anchor.row_status) == rows


# ---------------------------------------------------------------------------
# Reference: every variant of a sweep runs through the solver
# ---------------------------------------------------------------------------
def run_every_variant(program: BatchedProgram, variants) -> list:
    """``solve_many`` without reuse: a cold start, then one solver run per
    variant in ascending RHS order."""
    impl = program._impl
    rhs = [np.asarray(v, dtype=np.float64) for v in variants]
    impl.cold_restart()
    results = [None] * len(rhs)
    for index in np.lexsort(np.stack(rhs).T[::-1]):
        results[index] = impl.solve(rhs[index])
    return results


def assert_reuse_is_exact(placed, capacity_vectors) -> int:
    """``solve_many`` answers every variant with the bits of running it;
    returns how many variants reused a held optimum."""
    program = StrategyProgram(placed)
    rhs = [
        program.normalize_capacities(caps)[program.support_nodes]
        for caps in capacity_vectors
    ]
    tracer = Tracer()
    with tracing(tracer):
        answers = program._batched.solve_many(rhs)
    reference = run_every_variant(StrategyProgram(placed)._batched, rhs)
    for got, want in zip(answers, reference):
        if want is None:
            assert got is None
            continue
        assert np.array_equal(got.x, want.x)
        assert got.objective == want.objective
    assert tracer.counters["lp.solve"] == len(rhs)
    return tracer.counters.get("lp.reuse", 0)


def _grid_sweeps(topology, k, steps, nonuniform):
    system = GridQuorumSystem(k)
    placed = best_placement(topology, system).placed
    l_opt = optimal_load(system).l_opt
    levels = capacity_levels(l_opt, steps)
    if nonuniform:
        return placed, [
            nonuniform_capacities(placed, beta=l_opt, gamma=float(gamma))
            for gamma in levels
        ]
    return placed, [float(c) for c in levels]


class TestReuseOfAHeldOptimum:
    @pytest.mark.parametrize(
        "k, nonuniform",
        # fig_7_6's fast sweeps, then fig_7_7's
        [(2, False), (4, False), (7, False), (2, True), (7, True)],
    )
    def test_figure_sweeps(self, planetlab, k, nonuniform):
        assert_reuse_is_exact(*_grid_sweeps(planetlab, k, 5, nonuniform))

    def test_wan_grid_sweep(self):
        """No capacity row binds at 500 sites: one run serves the sweep
        on HiGHS."""
        placed, levels = _grid_sweeps(synthetic_wan(500), 5, 10, False)
        reused = assert_reuse_is_exact(placed, levels)
        if lp_backend_name() != "scipy":
            assert reused == len(levels) - 1

    def test_scipy_backend_never_reuses(self, monkeypatch, grid3_placed):
        monkeypatch.setenv(LP_BACKEND_ENV, "scipy")
        tracer = Tracer()
        with tracing(tracer):
            sweep_uniform_capacities(grid3_placed, 60.0)
        assert tracer.counters["lp.solve"] == 10
        assert "lp.reuse" not in tracer.counters

    def test_equal_strategies_share_one_evaluation(self, planetlab):
        placed, _levels = _grid_sweeps(planetlab, 2, 10, False)
        sweep = sweep_uniform_capacities(placed, 60.0)
        for before, after in zip(sweep.points, sweep.points[1:]):
            same = np.array_equal(
                before.strategy.matrix, after.strategy.matrix
            )
            assert (after.result is before.result) == same


@st.composite
def _small_sweeps(draw):
    """A random placed Grid or Majority on integer points (so distances
    tie), swept over capacity levels from below the optimal load, where
    rows bind or the LP is infeasible, up to 1, in a random order and with
    per-node noise that makes some variants incomparable."""
    n_nodes = draw(st.integers(9, 12))
    points = np.array(
        draw(
            st.lists(
                st.tuples(st.integers(0, 6), st.integers(0, 6)),
                min_size=n_nodes,
                max_size=n_nodes,
            )
        ),
        dtype=float,
    )
    rtt = np.abs(points[:, None, :] - points[None, :, :]).sum(axis=2)
    topology = Topology(rtt, metric_closure=False)
    system = draw(
        st.sampled_from(
            [
                GridQuorumSystem(2),
                GridQuorumSystem(3),
                EnumeratedQuorumSystem(ThresholdQuorumSystem(5, 3).quorums),
            ]
        )
    )
    nodes = draw(st.permutations(range(n_nodes)))
    placed = PlacedQuorumSystem(
        system, Placement(list(nodes[: system.universe_size])), topology
    )
    l_opt = optimal_load(system).l_opt
    levels = draw(
        st.lists(
            st.sampled_from(
                [0.8 * l_opt, *capacity_levels(l_opt, 6).tolist()]
            ),
            min_size=2,
            max_size=8,
        )
    )
    noise = draw(st.sampled_from([0.0, 0.05]))
    factors = np.array(
        draw(
            st.lists(
                st.sampled_from([1.0, 1.0 + noise]),
                min_size=n_nodes,
                max_size=n_nodes,
            )
        )
    )
    return placed, [level * factors for level in levels]


@given(_small_sweeps())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_reuse_matches_running_every_variant(sweep):
    assert_reuse_is_exact(*sweep)


# ---------------------------------------------------------------------------
# Reference: the model built field by field into a HighsLp
# ---------------------------------------------------------------------------
def highs_lp_reference(bindings, arrays: dict, n_le: int, n_eq: int):
    """A solver holding the model passed as one ``HighsLp``."""
    from scipy import sparse

    inf = float(bindings.kHighsInf)
    blocks = [m for m in (arrays["A_ub"], arrays["A_eq"]) if m is not None]
    n_vars = arrays["c"].size
    a = sparse.vstack(blocks).tocsc()
    lp = bindings.HighsLp()
    lp.num_col_ = n_vars
    lp.num_row_ = n_le + n_eq
    lp.col_cost_ = np.ascontiguousarray(arrays["c"])
    lp.col_lower_ = np.ascontiguousarray(arrays["bounds"][:, 0])
    lp.col_upper_ = np.ascontiguousarray(arrays["bounds"][:, 1])
    row_lower = np.full(n_le + n_eq, -inf)
    row_upper = np.full(n_le + n_eq, inf)
    if n_le:
        row_upper[:n_le] = arrays["b_ub"]
    if n_eq:
        row_lower[n_le:] = arrays["b_eq"]
        row_upper[n_le:] = arrays["b_eq"]
    lp.row_lower_ = row_lower
    lp.row_upper_ = row_upper
    matrix = lp.a_matrix_
    matrix.format_ = bindings.MatrixFormat.kColwise
    matrix.num_col_ = n_vars
    matrix.num_row_ = n_le + n_eq
    matrix.start_ = a.indptr
    matrix.index_ = a.indices
    matrix.value_ = a.data
    solver = (getattr(bindings, "Highs", None) or bindings._Highs)()
    solver.setOptionValue("output_flag", False)
    assert solver.passModel(lp) != bindings.HighsStatus.kError
    return solver


def _lp_fields(solver) -> dict:
    lp = solver.getLp()
    matrix = lp.a_matrix_
    return {
        "shape": (lp.num_col_, lp.num_row_),
        "sense": (lp.sense_, lp.offset_),
        "col_cost": np.asarray(lp.col_cost_).tobytes(),
        "col_lower": np.asarray(lp.col_lower_).tobytes(),
        "col_upper": np.asarray(lp.col_upper_).tobytes(),
        "row_lower": np.asarray(lp.row_lower_).tobytes(),
        "row_upper": np.asarray(lp.row_upper_).tobytes(),
        "format": matrix.format_,
        "start": list(matrix.start_),
        "index": list(matrix.index_),
        "value": np.asarray(matrix.value_).tobytes(),
    }


@pytest.mark.parametrize("fixture", ["grid3_placed", "majority_placed"])
def test_array_model_equals_the_highs_lp_build(fixture, request):
    bindings, _name = _probe_highs_bindings()
    if bindings is None:
        pytest.skip("no HiGHS bindings: the scipy backend builds no model")
    placed = request.getfixturevalue(fixture)
    program = StrategyProgram(placed)._batched
    solver = program._impl._solver
    reference = highs_lp_reference(
        bindings,
        program.arrays,
        program.n_le_constraints,
        program.arrays["b_eq"].size,
    )
    assert _lp_fields(solver) == _lp_fields(reference)
    continuous = bindings.HighsVarType.kContinuous
    assert all(t == continuous for t in solver.getLp().integrality_)
    for capacity in _levels(placed):
        rhs = np.full(program.n_le_constraints, capacity)
        for highs in (solver, reference):
            for row, bound in enumerate(rhs.tolist()):
                highs.changeRowBounds(row, -float(bindings.kHighsInf), bound)
            highs.run()
        assert np.array_equal(
            np.asarray(solver.getSolution().col_value),
            np.asarray(reference.getSolution().col_value),
        )
        assert (
            solver.getInfo().objective_function_value
            == reference.getInfo().objective_function_value
        )
