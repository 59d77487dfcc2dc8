"""Tests for the sparse LP layer."""

import numpy as np
import pytest

from repro.errors import InfeasibleError, SolverError
from repro.lp import BatchedProgram, LinearProgram

from oracles import dense


def solve(lp):
    """A one-off program is a batched family of one."""
    return BatchedProgram(lp).solve()


class TestVariableBlocks:
    def test_block_indexing_2d(self):
        lp = LinearProgram()
        x = lp.add_block("x", (3, 4))
        assert x.index(0, 0) == 0
        assert x.index(1, 0) == 4
        assert x.index(2, 3) == 11

    def test_blocks_are_contiguous(self):
        lp = LinearProgram()
        a = lp.add_block("a", 3)
        b = lp.add_block("b", (2, 2))
        assert a.index(2) == 2
        assert b.index(0, 0) == 3
        assert lp.n_variables == 7

    def test_duplicate_block_rejected(self):
        lp = LinearProgram()
        lp.add_block("x", 2)
        with pytest.raises(SolverError):
            lp.add_block("x", 2)

    def test_unknown_block_lookup(self):
        lp = LinearProgram()
        with pytest.raises(SolverError):
            lp.block("nope")

    def test_wrong_arity_index(self):
        lp = LinearProgram()
        x = lp.add_block("x", (2, 2))
        with pytest.raises(SolverError):
            x.index(1)

    def test_reshape_extracts_block(self):
        lp = LinearProgram()
        lp.add_block("a", 2)
        b = lp.add_block("b", (2, 2))
        flat = np.arange(6, dtype=float)
        assert np.array_equal(b.reshape(flat), [[2.0, 3.0], [4.0, 5.0]])


class TestSolve:
    def test_simple_minimization(self):
        # min x + 2y  s.t. x + y >= 1, x,y >= 0  -> x=1, y=0.
        lp = LinearProgram()
        v = lp.add_block("v", 2)
        lp.set_objective(v.index(0), 1.0)
        lp.set_objective(v.index(1), 2.0)
        lp.add_le([v.index(0), v.index(1)], [-1.0, -1.0], -1.0)
        sol = solve(lp)
        assert sol.objective == pytest.approx(1.0)
        assert sol.x[0] == pytest.approx(1.0)

    def test_equality_constraint(self):
        # min x  s.t. x + y == 2, y <= 0.5  -> x = 1.5.
        lp = LinearProgram()
        v = lp.add_block("v", 2)
        lp.set_objective(v.index(0), 1.0)
        lp.add_eq([v.index(0), v.index(1)], [1.0, 1.0], 2.0)
        lp.add_le([v.index(1)], [1.0], 0.5)
        sol = solve(lp)
        assert sol.x[0] == pytest.approx(1.5)

    def test_bounds_respected(self):
        lp = LinearProgram()
        v = lp.add_block("v", 1, lower=2.0, upper=5.0)
        lp.set_objective(v.index(0), 1.0)
        sol = solve(lp)
        assert sol.x[0] == pytest.approx(2.0)

    def test_infeasible_raises(self):
        lp = LinearProgram()
        v = lp.add_block("v", 1, lower=0.0, upper=1.0)
        lp.set_objective(v.index(0), 1.0)
        lp.add_eq([v.index(0)], [1.0], 5.0)
        with pytest.raises(InfeasibleError):
            solve(lp)

    def test_unbounded_raises(self):
        lp = LinearProgram()
        v = lp.add_block("v", 1, lower=-np.inf, upper=np.inf)
        lp.set_objective(v.index(0), 1.0)
        with pytest.raises(SolverError):
            solve(lp)

    def test_empty_program_rejected(self):
        with pytest.raises(SolverError):
            LinearProgram().build()

    def test_objective_accumulates(self):
        lp = LinearProgram()
        v = lp.add_block("v", 1, lower=1.0, upper=1.0)
        lp.set_objective(v.index(0), 1.0)
        lp.set_objective(v.index(0), 2.0)
        sol = solve(lp)
        assert sol.objective == pytest.approx(3.0)

    def test_block_values_helper(self):
        lp = LinearProgram()
        lp.add_block("a", 1, lower=1.0, upper=1.0)
        b = lp.add_block("b", (2,), lower=2.0, upper=2.0)
        lp.set_objective(b.index(0), 1.0)
        sol = solve(lp)
        assert np.allclose(sol.block_values(lp, "b"), [2.0, 2.0])

    def test_mismatched_row_rejected(self):
        lp = LinearProgram()
        v = lp.add_block("v", 2)
        with pytest.raises(SolverError):
            lp.add_le([v.index(0)], [1.0, 2.0], 0.0)

    def test_constraint_counts(self):
        lp = LinearProgram()
        v = lp.add_block("v", 2)
        lp.add_le([v.index(0)], [1.0], 1.0)
        lp.add_eq([v.index(1)], [1.0], 0.5)
        assert lp.n_constraints == 2
        assert lp.n_le_constraints == 1
        assert lp.n_eq_constraints == 1


class TestVectorizedAssembly:
    """The broadcast batch assembler must build the same matrices as the
    row-by-row path (the batched backend's bit-compatibility anchor)."""

    @staticmethod
    def _random_rows(rng, n_rows, n_vars):
        rows, cols, vals, rhs = [], [], [], []
        for r in range(n_rows):
            nnz = rng.integers(1, n_vars + 1)
            chosen = rng.choice(n_vars, size=nnz, replace=False)
            values = rng.normal(size=nnz)
            rows.append(np.full(nnz, r))
            cols.append(chosen)
            vals.append(values)
            rhs.append(float(rng.normal()))
        return (
            np.concatenate(rows),
            np.concatenate(cols),
            np.concatenate(vals),
            np.asarray(rhs),
        )

    def test_loop_and_batch_build_identical_matrices(self):
        rng = np.random.default_rng(7)
        n_vars, n_rows = 12, 9
        rows, cols, vals, rhs = self._random_rows(rng, n_rows, n_vars)

        loop_lp = LinearProgram()
        loop_lp.add_block("x", n_vars)
        for r in range(n_rows):
            mask = rows == r
            loop_lp.add_le(
                cols[mask].tolist(), vals[mask].tolist(), float(rhs[r])
            )
            loop_lp.add_eq(
                cols[mask].tolist(), vals[mask].tolist(), float(rhs[r])
            )

        batch_lp = LinearProgram()
        batch_lp.add_block("x", n_vars)
        batch_lp.add_le_many(rows, cols, vals, rhs)
        batch_lp.add_eq_many(rows, cols, vals, rhs)

        loop_arrays = loop_lp.build()
        batch_arrays = batch_lp.build()
        for key in ("A_ub", "A_eq"):
            assert (
                dense(loop_arrays[key]) == dense(batch_arrays[key])
            ).all()
        assert np.array_equal(loop_arrays["b_ub"], batch_arrays["b_ub"])
        assert np.array_equal(loop_arrays["b_eq"], batch_arrays["b_eq"])

    def test_objective_many_matches_scalar_loop(self):
        coefs = np.array([0.5, 0.0, -1.5, 2.25])
        loop_lp = LinearProgram()
        loop_lp.add_block("x", 4)
        for i, c in enumerate(coefs):
            loop_lp.set_objective(i, float(c))
        batch_lp = LinearProgram()
        batch_lp.add_block("x", 4)
        batch_lp.set_objective_many(np.arange(4), coefs)
        assert np.array_equal(
            loop_lp.build()["c"], batch_lp.build()["c"]
        )

    def test_objective_many_accumulates(self):
        lp = LinearProgram()
        lp.add_block("x", 2)
        lp.set_objective_many([0, 0, 1], [1.0, 2.0, 5.0])
        lp.set_objective(0, 4.0)
        assert np.array_equal(lp.build()["c"], [7.0, 5.0])

    def test_batch_length_mismatch_rejected(self):
        lp = LinearProgram()
        lp.add_block("x", 3)
        with pytest.raises(SolverError):
            lp.add_le_many([0, 0], [0, 1, 2], [1.0, 1.0, 1.0], [0.0])
        with pytest.raises(SolverError):
            lp.set_objective_many([0, 1], [1.0])

    def test_batch_row_index_out_of_range_rejected(self):
        lp = LinearProgram()
        lp.add_block("x", 3)
        with pytest.raises(SolverError):
            lp.add_le_many([0, 2], [0, 1], [1.0, 1.0], [0.0])

    def test_mixed_single_and_batch_rows(self):
        lp = LinearProgram()
        v = lp.add_block("x", 2)
        first = lp.add_le([v.index(0)], [1.0], 1.0)
        batch = lp.add_le_many(
            [0, 1], [v.index(0), v.index(1)], [2.0, 3.0], [0.5, 0.25]
        )
        assert (first, batch) == (0, 1)
        arrays = lp.build()
        assert np.array_equal(
            dense(arrays["A_ub"]),
            [[1.0, 0.0], [2.0, 0.0], [0.0, 3.0]],
        )
        assert np.array_equal(arrays["b_ub"], [1.0, 0.5, 0.25])
