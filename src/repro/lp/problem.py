"""Incremental sparse LP builder with a vectorized constraint assembler.

:class:`LinearProgram` accumulates variables, objective coefficients and
constraints (as COO triplets) and produces the sparse solver arrays that
:class:`~repro.lp.batched.BatchedProgram` solves. Variables are created in
named blocks so callers can recover structured solutions (e.g. the
``x[u, w]`` placement block and the ``z[Q]`` delay block of the
fractional-placement LP) without tracking flat indices by hand.

Constraints can be added one row at a time (:meth:`LinearProgram.add_le`,
:meth:`LinearProgram.add_eq`) or — the fast path — as whole batches of rows
through :meth:`LinearProgram.add_le_many` / :meth:`LinearProgram.add_eq_many`,
which take flat COO arrays built by numpy broadcasting instead of per-row
Python appends. Both paths produce identical matrices (pinned by the
assembly-identity tests in ``tests/test_lp.py``); the array path is what the
access-strategy LP uses so assembling a program once per placement costs
a few numpy calls rather than tens of thousands of list appends.

The intended usage pattern for repeated solves is build-once/solve-many:
assemble a :class:`LinearProgram` once, wrap it in
:class:`~repro.lp.batched.BatchedProgram`, and sweep right-hand-side
variants against the shared structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from repro.errors import SolverError

__all__ = ["LinearProgram", "VariableBlock"]


@dataclass(frozen=True)
class VariableBlock:
    """A contiguous block of LP variables.

    ``offset`` is the index of the first variable; ``shape`` is the logical
    shape of the block. :meth:`index` maps a multi-index to a flat variable
    index in C order.
    """

    name: str
    offset: int
    shape: tuple[int, ...]

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    def index(self, *multi_index: int) -> int:
        """Flat variable index of an entry of the block."""
        if len(multi_index) != len(self.shape):
            raise SolverError(
                f"block {self.name!r} expects {len(self.shape)} indices, "
                f"got {len(multi_index)}"
            )
        flat = int(np.ravel_multi_index(multi_index, self.shape))
        return self.offset + flat

    def reshape(self, x: np.ndarray) -> np.ndarray:
        """Extract this block from a flat solution vector."""
        return x[self.offset : self.offset + self.size].reshape(self.shape)


@dataclass
class _Triplets:
    """COO constraint rows stored as chunks of numpy arrays.

    Each ``add_rows`` call appends one chunk; :meth:`matrix` concatenates
    the chunks exactly once at build time. Because COO→CSR conversion
    canonicalizes entry order, a matrix assembled from one big broadcast
    chunk is identical to the same matrix assembled row by row.
    """

    rows: list[np.ndarray] = field(default_factory=list)
    cols: list[np.ndarray] = field(default_factory=list)
    vals: list[np.ndarray] = field(default_factory=list)
    rhs: list[np.ndarray] = field(default_factory=list)
    n_rows: int = 0

    def add_rows(
        self,
        row_local: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        rhs: np.ndarray,
    ) -> int:
        """Append ``len(rhs)`` rows at once; returns the first row index.

        ``row_local[k]`` says which of the new rows (0-based within this
        batch) entry ``k`` of ``cols``/``vals`` belongs to.
        """
        row_local = np.asarray(row_local, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        vals = np.asarray(vals, dtype=np.float64)
        rhs = np.atleast_1d(np.asarray(rhs, dtype=np.float64))
        if cols.shape != vals.shape or cols.shape != row_local.shape:
            raise SolverError("constraint columns and values length mismatch")
        if row_local.size and (
            row_local.min() < 0 or row_local.max() >= rhs.size
        ):
            raise SolverError(
                f"row indices must lie in [0, {rhs.size}), got "
                f"[{row_local.min()}, {row_local.max()}]"
            )
        first = self.n_rows
        self.rows.append(row_local + first)
        self.cols.append(cols)
        self.vals.append(vals)
        self.rhs.append(rhs)
        self.n_rows += rhs.size
        return first

    def add_row(self, cols: list[int], vals: list[float], rhs: float) -> int:
        # Fast path for the row-by-row builders: one new row, so the
        # batch-local indices are trivially valid and skip validation.
        cols_arr = np.asarray(cols, dtype=np.intp)
        vals_arr = np.asarray(vals, dtype=np.float64)
        if cols_arr.shape != vals_arr.shape:
            raise SolverError("constraint columns and values length mismatch")
        row = self.n_rows
        self.rows.append(np.full(cols_arr.size, row, dtype=np.intp))
        self.cols.append(cols_arr)
        self.vals.append(vals_arr)
        self.rhs.append(np.array([rhs], dtype=np.float64))
        self.n_rows += 1
        return row

    def rhs_array(self) -> np.ndarray | None:
        if not self.n_rows:
            return None
        return np.concatenate(self.rhs)

    def matrix(self, n_vars: int) -> sparse.csr_matrix | None:
        if not self.n_rows:
            return None
        return sparse.coo_matrix(
            (
                np.concatenate(self.vals),
                (np.concatenate(self.rows), np.concatenate(self.cols)),
            ),
            shape=(self.n_rows, n_vars),
        ).tocsr()


class LinearProgram:
    """A minimization LP built incrementally.

    Variables live in named blocks; constraints are added one row at a
    time or — the fast path — as flat COO batches via
    :meth:`add_le_many` / :meth:`add_eq_many`. ``min x + 2y`` subject to
    ``x + y >= 1`` (written ``-x - y <= -1``) over ``[0, 10]^2``:

    >>> lp = LinearProgram()
    >>> v = lp.add_block("v", 2, lower=0.0, upper=10.0)
    >>> lp.set_objective_many([v.index(0), v.index(1)], [1.0, 2.0])
    >>> lp.add_le([v.index(0), v.index(1)], [-1.0, -1.0], -1.0)
    0
    >>> lp.n_variables, lp.n_le_constraints
    (2, 1)
    >>> from repro.lp import BatchedProgram
    >>> BatchedProgram(lp).solve().objective
    1.0

    For families of LPs sharing structure and differing only in their
    inequality right-hand sides, build once and solve the whole family via
    :class:`~repro.lp.batched.BatchedProgram` instead of rebuilding per
    variant.
    """

    def __init__(self) -> None:
        self._blocks: dict[str, VariableBlock] = {}
        self._n_vars = 0
        self._objective: dict[int, float] = {}
        self._objective_chunks: list[tuple[np.ndarray, np.ndarray]] = []
        self._lower: list[float] = []
        self._upper: list[float] = []
        self._le = _Triplets()
        self._eq = _Triplets()

    # ------------------------------------------------------------------
    # Variables
    # ------------------------------------------------------------------
    def add_block(
        self,
        name: str,
        shape: tuple[int, ...] | int,
        lower: float = 0.0,
        upper: float = np.inf,
    ) -> VariableBlock:
        """Create a named block of variables with uniform bounds."""
        if name in self._blocks:
            raise SolverError(f"duplicate variable block {name!r}")
        if isinstance(shape, int):
            shape = (shape,)
        block = VariableBlock(name=name, offset=self._n_vars, shape=shape)
        if block.size <= 0:
            raise SolverError(f"variable block {name!r} must be non-empty")
        self._blocks[name] = block
        self._n_vars += block.size
        self._lower.extend([lower] * block.size)
        self._upper.extend([upper] * block.size)
        return block

    def block(self, name: str) -> VariableBlock:
        """Look up a block by name."""
        try:
            return self._blocks[name]
        except KeyError:
            raise SolverError(f"unknown variable block {name!r}") from None

    @property
    def n_variables(self) -> int:
        return self._n_vars

    @property
    def n_constraints(self) -> int:
        return self._le.n_rows + self._eq.n_rows

    @property
    def n_le_constraints(self) -> int:
        return self._le.n_rows

    @property
    def n_eq_constraints(self) -> int:
        return self._eq.n_rows

    # ------------------------------------------------------------------
    # Objective and constraints
    # ------------------------------------------------------------------
    def set_objective(self, var: int, coefficient: float) -> None:
        """Set (accumulate) the objective coefficient of one variable."""
        self._objective[var] = self._objective.get(var, 0.0) + coefficient

    def set_objective_many(
        self,
        variables: np.ndarray | list[int],
        coefficients: np.ndarray | list[float],
    ) -> None:
        """Accumulate objective coefficients for many variables at once.

        Takes array arguments; the accumulation happens with one
        ``np.add.at`` per batch at build time.
        """
        variables = np.asarray(variables, dtype=np.intp)
        coefficients = np.asarray(coefficients, dtype=np.float64)
        if variables.shape != coefficients.shape:
            raise SolverError(
                "objective variables and coefficients length mismatch"
            )
        self._objective_chunks.append((variables, coefficients))

    def add_le(
        self, variables: list[int], coefficients: list[float], rhs: float
    ) -> int:
        """Add an inequality ``sum coef*var <= rhs``; returns the row index."""
        return self._le.add_row(variables, coefficients, rhs)

    def add_le_many(
        self,
        rows: np.ndarray,
        variables: np.ndarray,
        coefficients: np.ndarray,
        rhs: np.ndarray,
    ) -> int:
        """Add ``len(rhs)`` inequality rows from flat COO arrays.

        ``rows[k]`` is the batch-local row (0-based) of entry ``k``.
        Returns the global index of the first added row.
        """
        return self._le.add_rows(rows, variables, coefficients, rhs)

    def add_eq(
        self, variables: list[int], coefficients: list[float], rhs: float
    ) -> int:
        """Add an equality ``sum coef*var == rhs``; returns the row index."""
        return self._eq.add_row(variables, coefficients, rhs)

    def add_eq_many(
        self,
        rows: np.ndarray,
        variables: np.ndarray,
        coefficients: np.ndarray,
        rhs: np.ndarray,
    ) -> int:
        """Add ``len(rhs)`` equality rows from flat COO arrays."""
        return self._eq.add_rows(rows, variables, coefficients, rhs)

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def build(self) -> dict:
        """Solver arrays: ``c``, CSR ``A_ub``/``A_eq``, ``b_ub``/``b_eq``
        (``None`` without rows of that kind) and per-variable ``bounds``."""
        if self._n_vars == 0:
            raise SolverError("LP has no variables")
        c = np.zeros(self._n_vars)
        for var, coef in self._objective.items():
            c[var] = coef
        for variables, coefficients in self._objective_chunks:
            np.add.at(c, variables, coefficients)
        bounds = np.column_stack([self._lower, self._upper])
        return {
            "c": c,
            "A_ub": self._le.matrix(self._n_vars),
            "b_ub": self._le.rhs_array(),
            "A_eq": self._eq.matrix(self._n_vars),
            "b_eq": self._eq.rhs_array(),
            "bounds": bounds,
        }
