"""Equivalence suite for the batched LP backend.

Pins the build-once/solve-many path (`StrategyProgram.solve_many`, warm-
started HiGHS when bindings are importable) against the existing
one-LP-per-level path (fresh assembly + cold scipy solve per level):
objectives must match within 1e-9 and a capacity sweep must pick the same
best capacity, on both a Grid and an enumerated Majority.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.placement import PlacedQuorumSystem, Placement
from repro.errors import SolverError
from repro.lp import BatchedProgram, LinearProgram, lp_backend_name
from repro.lp.batched import LP_BACKEND_ENV
from repro.quorums.base import EnumeratedQuorumSystem
from repro.quorums.grid import GridQuorumSystem
from repro.quorums.load_analysis import optimal_load
from repro.quorums.threshold import ThresholdQuorumSystem
from repro.strategies.capacity_sweep import (
    capacity_levels,
    sweep_uniform_capacities,
)
from repro.strategies.lp_optimizer import StrategyProgram


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
