"""Build-once/solve-many LP solving.

The capacity-sweep technique and the iterative algorithm solve families of
LPs that share every coefficient except the inequality right-hand sides
(the node-capacity column of (4.4)). :class:`BatchedProgram` exploits that:
it assembles the constraint matrices of a :class:`~repro.lp.problem.LinearProgram`
exactly once and then solves any number of RHS variants against the shared
structure.

Two solver paths sit behind one interface:

* **HiGHS warm-start** — when HiGHS python bindings are importable (the
  standalone ``highspy`` package, or the copy scipy vendors as
  ``scipy.optimize._highspy._core``, loaded from its file without
  running ``scipy.optimize``'s package ``__init__``), the model is
  passed to a persistent ``Highs`` instance once, as arrays
  (``num_col, num_row, num_nz, format, sense, offset``, then the cost,
  bound, CSC matrix and integrality arrays) through the array overload
  of ``passModel``; each variant only changes the affected row bounds
  and re-runs the solver, which re-optimizes from a warm basis (dual
  simplex) instead of solving cold. This is where the batched sweep's
  order-of-magnitude win comes from.
* **scipy fallback** — otherwise each variant is one
  ``scipy.optimize.linprog`` call reusing the prebuilt CSR matrices, so
  only assembly (not the cold solve) is amortized. ``linprog`` is
  imported at the fallback's first solve.

Families whose *coefficients* drift — not just their RHS — are covered by
the in-place update hooks: :meth:`BatchedProgram.update_objective` and
:meth:`BatchedProgram.update_le_rows` rewrite objective entries or whole
inequality rows against the fixed sparsity structure, keeping the scipy
arrays and the persistent HiGHS model in sync. The fractional-placement
LP uses this: its element-load rows change as the iterative algorithm's
strategy evolves, while everything else in the constraint system stays
put.

Anchored solves
---------------
A chained warm start — re-optimizing from wherever the previous solve
left the basis — makes the *answer* on degenerate LPs depend on the whole
solve history: two programs asked the same question after different
request sequences can return different (equally optimal) vertices. The
backend therefore restarts every single solve from an **anchor basis**:
before the first single solve or in-place update, one calibration solve
of the program exactly as built is run and its final basis captured;
every later single solve restarts the solver from that anchor. A
:meth:`BatchedProgram.solve_many` batch instead starts cold and chains
warm starts *within* itself, in an order that is a function of the
variant list. The anchor costs one extra solve per program and keeps
most of the warm win: re-solves start from an optimal basis of a sibling
LP instead of from scratch.

Anchoring does not make a solve a pure function of (built program,
request): HiGHS carries state beyond the basis across the restart. On
planetlab-50 with a 5x5 Grid, one ``StrategyProgram`` for the placement
``[16, 3, 3, 16, 3, 8, 3, 0, 10, 10, 8, 5, 0, 8, 10, 0, 10, 0, 3, 3, 10,
8, 10, 16, 3]`` solved twice with the same capacity vector returns the
objective 66.23696152871388 both times, but strategies whose entries
differ by up to 1.0; the first answer equals a fresh program's. What
holds is weaker: a program's answers are a deterministic function of the
requests it has received, in order. Results are reproducible, and
``jobs=N`` equals ``jobs=1``, because no program outlives the grid point
(or the single search) that built it, so every process sends each
program the same request sequence.

:meth:`BatchedProgram.solve_many` always sweeps the RHS variants in
lexicographically ascending order (monotone for capacity sweeps, so each
warm step is a small dual-simplex perturbation) and un-permutes the
results, making the returned list independent of the caller's level
order.

Reusing a held optimum
----------------------
On HiGHS a sweep runs the solver once per *distinct* optimum. A variant
takes the previous run's solution, without a run, when

1. that run was feasible,
2. the variant's RHS is componentwise ``>=`` the RHS the solver holds, and
3. every row whose RHS differs is ``kBasic`` in the solver's basis.

A basic row's bound does not enter the basic solution and the objective
has not changed, so the basis stays primal and dual feasible, hence
optimal: HiGHS would stop after 0 iterations with the same ``x``. A run
still changes solver state beyond the basis, so a variant that does need
a run first runs the variants answered since the last run: every run
then follows the calls it follows when each variant runs, and only a
sweep's tail of reused variants is never run. In a uniform capacity
sweep every level above the first one at which no capacity row binds
reuses that level's optimum; at 2000 WAN sites that is the lowest of ten
levels. ``tests/test_lp_batched.py`` pins the
answers bit for bit against running every variant. The scipy path keeps
one ``linprog`` per variant: a cold solve may pick another tied vertex.

This module is the only place the library calls a solver: every LP in
:mod:`repro` — the access-strategy and fractional-placement families as
well as one-off programs such as the optimal-load LP — is solved through
:class:`BatchedProgram`, so status handling lives here once.

The probe is transparent: callers never see which path ran unless they ask
(:attr:`BatchedProgram.backend`). Set ``REPRO_LP_BACKEND=scipy`` to force
the fallback (the equivalence tests use this to compare both paths); the
scipy path is stateless per solve, so each of its answers is a function
of the program and that request alone. The probe runs once per
normalized value of that variable.

No path imports ``scipy.optimize`` at module top: its package
``__init__`` costs every process about 0.26 s and 17 MB, and only the
fallback calls into it. Deferring the package import to the probe would
not help, because every run probes: :func:`repro.runtime.cache.content_key`
folds :func:`lp_solver_identity` into every cached point's key. So the
probe loads the vendored extension directly (:func:`_vendored_highs`),
in about 5 ms.
"""

from __future__ import annotations

# cache-key-input: content_key folds in lp_solver_identity(); a change to
# how the backend is probed or named shifts every cache key.

import functools
import importlib.machinery
import importlib.metadata
import importlib.util
import os
import sys
from dataclasses import dataclass
from types import ModuleType
from typing import Any, Iterable, Sequence

import numpy as np
import scipy

from repro.errors import InfeasibleError, SolverError
from repro.lp.problem import LinearProgram
from repro.obs import tracer as obs

__all__ = [
    "BatchedProgram",
    "LPSolution",
    "lp_backend_name",
    "lp_solver_identity",
]

#: Environment variable forcing a backend ("scipy" disables the HiGHS probe).
LP_BACKEND_ENV = "REPRO_LP_BACKEND"

_STATUS_INFEASIBLE = 2
_STATUS_UNBOUNDED = 3


@dataclass(frozen=True)
class LPSolution:
    """Solution of a :class:`~repro.lp.problem.LinearProgram`.

    ``x`` is the flat solution vector; use the program's variable blocks to
    reshape it. ``objective`` is the attained minimum.
    """

    x: np.ndarray
    objective: float

    def block_values(self, program: LinearProgram, name: str) -> np.ndarray:
        """Extract one named variable block from the solution."""
        return program.block(name).reshape(self.x)


#: Canonical name of the HiGHS extension module scipy vendors.
_VENDORED_HIGHS = "scipy.optimize._highspy._core"


def _probe_highs_bindings() -> tuple[Any, str]:
    """``(module, name)`` for importable HiGHS bindings, or ``(None, "scipy")``.

    Tries the standalone ``highspy`` package first, then the bindings scipy
    ships internally (:func:`_vendored_highs`). Returns ``(None, "scipy")``
    when neither imports or when ``REPRO_LP_BACKEND=scipy`` forces the
    fallback. The probe runs once per normalized value of that variable:
    every :class:`BatchedProgram` and every cache key asks again, and a
    failing ``import highspy`` is not cached by Python.
    """
    forced = os.environ.get(LP_BACKEND_ENV, "")  # repro-lint: disable=RL002 -- backend selector; content_key folds in lp_solver_identity(), so entries never cross
    return _probe(forced.strip().lower())


@functools.cache
def _probe(setting: str) -> tuple[Any, str]:
    if setting == "scipy":
        return None, "scipy"
    try:
        import highspy  # standalone distribution

        if hasattr(highspy, "Highs"):
            return highspy, "highspy"
    except ImportError:
        pass
    try:
        core = _vendored_highs()
    except ImportError:
        return None, "scipy"
    if hasattr(core, "_Highs") or hasattr(core, "Highs"):
        return core, "scipy-highspy"
    return None, "scipy"


def _vendored_highs() -> ModuleType:
    """scipy's vendored HiGHS bindings, without ``scipy.optimize``.

    ``scipy/optimize/__init__.py`` imports ``linprog``, ``minimize``, the
    global optimizers and scipy.special/spatial/fft/linalg (171 modules),
    none of which the HiGHS path calls. The extension is loaded from its
    file instead, and a later ``import scipy.optimize`` reuses it. The
    package import remains the path when ``scipy.optimize`` is already
    loaded, or when the direct load fails in any way.
    """
    if "scipy.optimize" not in sys.modules:
        try:
            return _load_vendored_highs()
        except Exception:  # repro-lint: disable=RL005 -- any failure of the direct load falls back to the package import below, which raises if the bindings are missing
            pass
    from scipy.optimize._highspy import _core

    return _core


def _load_vendored_highs() -> ModuleType:
    """Load :data:`_VENDORED_HIGHS` from ``<scipy>/optimize/_highspy``.

    ``PathFinder.find_spec`` with an explicit path searches that directory
    alone and imports no parent package. The module is registered in
    ``sys.modules`` under its canonical name, so every later import of
    it, direct or through ``scipy.optimize``, gets this one module.
    """
    loaded = sys.modules.get(_VENDORED_HIGHS)
    if loaded is not None:
        return loaded
    directory = os.path.join(
        os.path.dirname(scipy.__file__), "optimize", "_highspy"
    )
    spec = importlib.machinery.PathFinder.find_spec(
        _VENDORED_HIGHS, [directory]
    )
    if spec is None or not isinstance(
        spec.loader, importlib.machinery.ExtensionFileLoader
    ):
        raise ImportError(f"no {_VENDORED_HIGHS} extension in {directory}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_VENDORED_HIGHS] = module
    return module


def lp_backend_name() -> str:
    """Name of the backend a new :class:`BatchedProgram` would use."""
    return _probe_highs_bindings()[1]


def lp_solver_identity() -> tuple[str, str]:
    """``(backend, version)``: :func:`lp_backend_name` and the version of
    the package that ships it (``highspy``'s, else scipy's).

    Degenerate LPs can return a different optimal vertex on another
    backend or solver release, so the result cache folds this pair into
    every key.
    """
    name = lp_backend_name()
    if name == "highspy":
        return name, _highspy_version()
    return name, scipy.__version__


@functools.cache
def _highspy_version() -> str:
    return importlib.metadata.version("highspy")


class _HighsBackend:
    """Persistent HiGHS model; RHS variants only change row bounds."""

    def __init__(
        self, bindings: Any, arrays: dict, n_le: int, n_eq: int
    ) -> None:
        from scipy import sparse

        self._hs = bindings
        self._inf = float(bindings.kHighsInf)
        self._n_le = n_le
        self._anchor = None  # calibration basis; see capture_anchor()
        self.stateful = True  # solves reuse solver state: needs the anchor

        blocks = [m for m in (arrays["A_ub"], arrays["A_eq"]) if m is not None]
        n_vars = arrays["c"].size
        if blocks:
            a = sparse.vstack(blocks).tocsc()
        else:
            a = sparse.csc_matrix((0, n_vars))

        row_lower = np.full(n_le + n_eq, -self._inf)
        row_upper = np.full(n_le + n_eq, self._inf)
        if n_le:
            row_upper[:n_le] = arrays["b_ub"]
        if n_eq:
            row_lower[n_le:] = arrays["b_eq"]
            row_upper[n_le:] = arrays["b_eq"]

        highs_cls = getattr(bindings, "Highs", None) or bindings._Highs
        solver = highs_cls()
        solver.setOptionValue("output_flag", False)
        # The array overload: HiGHS copies each array once, where filling
        # a HighsLp field by field converts every array in Python first.
        status = solver.passModel(
            n_vars,
            n_le + n_eq,
            a.nnz,
            int(bindings.MatrixFormat.kColwise),
            int(bindings.ObjSense.kMinimize),
            0.0,
            np.ascontiguousarray(arrays["c"]),
            np.ascontiguousarray(arrays["bounds"][:, 0]),
            np.ascontiguousarray(arrays["bounds"][:, 1]),
            row_lower,
            row_upper,
            a.indptr,
            a.indices,
            a.data,
            np.zeros(n_vars, dtype=np.int32),  # every column continuous
        )
        if status == bindings.HighsStatus.kError:
            raise SolverError(f"HiGHS rejected the model: {status}")
        self._solver = solver

    def capture_anchor(self) -> None:
        """Snapshot the current basis as the canonical restart point."""
        basis = self._solver.getBasis()
        if not basis.valid:
            self._anchor = None
            return
        # getBasis() hands back a view of solver-internal state; snapshot
        # the status vectors so the anchor survives later solves.
        anchor = self._hs.HighsBasis()
        anchor.col_status = list(basis.col_status)
        anchor.row_status = list(basis.row_status)
        anchor.valid = basis.valid
        anchor.alien = basis.alien
        self._anchor = anchor

    def restart(self) -> bool:
        """Reset the solver onto the anchor basis (cold if none captured).

        Either way the basis right before the next solve is a function of
        the built model alone; HiGHS may still carry other state from
        earlier requests (see the module docstring). Returns whether the
        anchor basis was applied — i.e. whether the next solve is a warm
        start (the ``lp.warm_start_hit`` counter).
        """
        if self._anchor is not None:
            # setBasis copies the statuses in: the anchor stays untouched.
            status = self._solver.setBasis(self._anchor)
            if status != self._hs.HighsStatus.kError:
                return True
        self._solver.clearSolver()
        return False

    def cold_restart(self) -> None:
        """Discard all solver state: the next solve runs from scratch."""
        self._solver.clearSolver()

    def update_objective(self, variables: np.ndarray, values: np.ndarray) -> None:
        bulk = getattr(self._solver, "changeColsCost", None)
        if bulk is not None:
            # One bulk call instead of a per-variable Python loop — the
            # dynamics controller rewrites every objective entry per
            # RTT-drift epoch, so this is on its hot path.
            bulk(
                int(variables.size),
                np.ascontiguousarray(variables, dtype=np.int32),
                np.ascontiguousarray(values, dtype=np.float64),
            )
            return
        for var, value in zip(variables, values):
            self._solver.changeColCost(int(var), float(value))

    def update_coefficients(
        self, rows: np.ndarray, cols: np.ndarray, values: np.ndarray
    ) -> None:
        change = self._solver.changeCoeff
        for row, col, value in zip(
            rows.tolist(), cols.tolist(), values.tolist()
        ):
            change(row, col, value)

    def still_optimal(
        self, held: np.ndarray | None, b_ub: np.ndarray | None
    ) -> bool:
        """Whether the optimum the solver holds for the RHS ``held`` is
        also optimal at ``b_ub``, so that a run would stop at once.

        True when ``b_ub >= held`` componentwise and every row whose RHS
        differs is basic: a basic row's bound does not enter the basic
        solution, so the basis stays primal and dual feasible.
        """
        if b_ub is None:
            return True  # no inequality rows: the model is unchanged
        assert held is not None
        if np.any(b_ub < held):
            return False
        changed = np.flatnonzero(b_ub != held).tolist()
        basis = self._solver.getBasis()
        if not basis.valid:
            return False
        statuses = basis.row_status
        basic = self._hs.HighsBasisStatus.kBasic
        return all(statuses[row] == basic for row in changed)

    def solve(self, b_ub: np.ndarray | None) -> LPSolution | None:
        hs = self._hs
        if self._n_le:
            assert b_ub is not None
            change = self._solver.changeRowBounds
            inf = self._inf
            for row, bound in enumerate(b_ub.tolist()):
                change(row, -inf, bound)
        self._solver.run()
        status = self._solver.getModelStatus()
        if status == hs.HighsModelStatus.kOptimal:
            x = np.asarray(self._solver.getSolution().col_value, dtype=float)
            objective = float(
                self._solver.getInfo().objective_function_value
            )
            return LPSolution(x=x, objective=objective)
        if status == hs.HighsModelStatus.kInfeasible:
            return None
        raise SolverError(
            "HiGHS solve failed: "
            f"{self._solver.modelStatusToString(status)}"
        )


class _ScipyBackend:
    """One cold ``linprog`` call per variant over the shared arrays."""

    def __init__(self, arrays: dict) -> None:
        self._arrays = arrays
        self.stateful = False  # fresh linprog call per variant: no anchor

    def capture_anchor(self) -> None:
        pass  # stateless: every solve is already trajectory-independent

    def restart(self) -> bool:
        return False  # stateless: every solve runs cold by construction

    def cold_restart(self) -> None:
        pass  # ditto

    def update_objective(
        self, variables: np.ndarray, values: np.ndarray
    ) -> None:
        pass  # BatchedProgram already rewrote the shared arrays in place

    def update_coefficients(
        self, rows: np.ndarray, cols: np.ndarray, values: np.ndarray
    ) -> None:
        pass  # ditto: linprog reads the CSR matrix freshly every call

    def still_optimal(
        self, held: np.ndarray | None, b_ub: np.ndarray | None
    ) -> bool:
        return False  # a cold solve may pick another tied vertex

    def solve(self, b_ub: np.ndarray | None) -> LPSolution | None:
        # Here, not at module top: importing scipy.optimize costs every
        # process 0.26 s, and only this fallback calls linprog.
        from scipy.optimize import linprog

        arrays = self._arrays
        result = linprog(
            arrays["c"],
            A_ub=arrays["A_ub"],
            b_ub=b_ub,
            A_eq=arrays["A_eq"],
            b_eq=arrays["b_eq"],
            bounds=arrays["bounds"],
            method="highs",
        )
        if result.status == _STATUS_INFEASIBLE:
            return None
        if result.status == _STATUS_UNBOUNDED:
            raise SolverError("linear program is unbounded")
        if not result.success:
            raise SolverError(f"LP solver failed: {result.message}")
        return LPSolution(x=np.asarray(result.x), objective=float(result.fun))


class BatchedProgram:
    """A built LP whose inequality RHS can be swept without reassembly.

    ``min x + 2y`` subject to ``x + y >= b`` over ``[0, 10]^2``, solved
    for a family of ``b`` values against one assembled structure:

    >>> from repro.lp.problem import LinearProgram
    >>> lp = LinearProgram()
    >>> v = lp.add_block("v", 2, lower=0.0, upper=10.0)
    >>> lp.set_objective_many([v.index(0), v.index(1)], [1.0, 2.0])
    >>> lp.add_le([v.index(0), v.index(1)], [-1.0, -1.0], -1.0)
    0
    >>> batched = BatchedProgram(lp)
    >>> [None if s is None else round(s.objective, 9)
    ...  for s in batched.solve_many([[-1.0], [-4.0], [-25.0]])]
    [1.0, 4.0, None]

    (``x + y >= 25`` exceeds the variable bounds, so that variant is
    reported infeasible rather than raising.)

    ``solve_many`` returns one entry per variant: an
    :class:`LPSolution` when that variant is feasible,
    ``None`` when it is infeasible (so sweeps can record dropped levels).
    Unbounded or otherwise failed solves raise
    :class:`~repro.errors.SolverError` — those are programming errors, not
    data.

    Solves are *anchored*: the first solve (or in-place update) runs one
    calibration solve of the program exactly as built and captures its
    final basis as the anchor; every request then restarts the solver from
    that anchor. The solutions a program returns are a deterministic
    function of the requests (updates and RHS) it has received, in order.
    They are not a function of the last request alone: on HiGHS, solving
    one request twice can return two tied vertices (see the module
    docstring), so a program must not be shared between computations
    whose results have to agree.

    Parameters
    ----------
    program:
        The assembled program; its arrays are built exactly once here.
    backend:
        ``None`` probes for HiGHS bindings and falls back to scipy;
        ``"highs"`` requires the bindings (raises if missing);
        ``"scipy"`` forces the per-variant ``linprog`` fallback.
    """

    def __init__(
        self, program: LinearProgram, backend: str | None = None
    ) -> None:
        if backend not in (None, "highs", "scipy"):
            raise SolverError(
                f"unknown LP backend {backend!r}; "
                "choose 'highs', 'scipy', or None to auto-probe"
            )
        # Only the built arrays are retained — holding the LinearProgram
        # itself would pin every COO chunk for the program's lifetime.
        self.n_variables = program.n_variables
        self._arrays = program.build()
        self._n_le = program.n_le_constraints

        bindings, probed = (None, "scipy")
        if backend != "scipy":
            bindings, probed = _probe_highs_bindings()
            if backend == "highs" and bindings is None:
                raise SolverError(
                    "no HiGHS python bindings importable (tried 'highspy' "
                    "and scipy's vendored copy); use backend='scipy'"
                )
        if bindings is not None:
            self.backend = probed
            self._impl = _HighsBackend(
                bindings,
                self._arrays,
                self._n_le,
                program.n_eq_constraints,
            )
        else:
            self.backend = "scipy"
            self._impl = _ScipyBackend(self._arrays)
        self._anchored = False
        #: Solver invocations so far (calibration included) — the cost
        #: accounting consumers like the dynamics controller report.
        self.solve_count = 0
        #: In-place update calls (objective or row rewrites) so far.
        self.update_count = 0

    @property
    def n_le_constraints(self) -> int:
        return self._n_le

    @property
    def arrays(self) -> dict:
        """The built solver arrays (``c``, ``A_ub``, ``b_ub``, ...).

        Shared with the backend — treat as read-only and go through
        :meth:`update_objective` / :meth:`update_le_rows` to mutate, so the
        persistent HiGHS model never drifts from the arrays.
        """
        return self._arrays

    def _ensure_anchor(self) -> None:
        """Calibrate once: solve the program exactly as built and keep the
        final basis as the anchor every later solve restarts from.

        Runs before the first solve *and* before the first in-place
        update, so the calibration state — and with it the anchor — is
        always the pristine built program, never some
        request-sequence-dependent intermediate. An infeasible (or
        otherwise failed) calibration simply leaves no anchor; solves then
        restart cold, which is equally deterministic.
        """
        if self._anchored:
            return
        self._anchored = True
        if not self._impl.stateful:
            return  # stateless backend: nothing to calibrate
        # An earlier solve_many batch may have left its final basis in the
        # solver; calibrate from a cold state or the anchor would inherit
        # that history.
        self._impl.cold_restart()
        obs.count("lp.calibration")
        try:
            self.solve_count += 1
            self._impl.solve(
                np.asarray(self._arrays["b_ub"], dtype=np.float64)
                if self._n_le
                else None
            )
        except SolverError:
            pass  # no anchor; restart() degrades to deterministic cold
        self._impl.capture_anchor()

    def update_objective(
        self,
        variables: np.ndarray | Sequence[int],
        coefficients: np.ndarray | Sequence[float],
    ) -> None:
        """Overwrite the objective coefficients of selected variables.

        Unlike :meth:`~repro.lp.problem.LinearProgram.set_objective`, this
        *replaces* (does not accumulate) — it is the re-parameterization
        hook for solved-in-place program families. The persistent HiGHS
        model, when active, is updated in the same call; the next solve
        restarts from the anchor basis against the new objective.
        """
        self._ensure_anchor()
        variables = np.asarray(variables, dtype=np.intp)
        coefficients = np.asarray(coefficients, dtype=np.float64)
        if variables.shape != coefficients.shape:
            raise SolverError(
                "objective variables and coefficients length mismatch"
            )
        if variables.size and (
            variables.min() < 0 or variables.max() >= self.n_variables
        ):
            raise SolverError(
                f"objective variables must lie in [0, {self.n_variables})"
            )
        self._arrays["c"][variables] = coefficients
        self._impl.update_objective(variables, coefficients)
        self.update_count += 1
        obs.count("lp.update")

    def update_le_rows(
        self,
        rows: np.ndarray | Sequence[int],
        values: np.ndarray,
    ) -> None:
        """Overwrite the stored values of whole inequality rows.

        ``values[k]`` must hold row ``rows[k]``'s coefficients for its
        existing sparsity structure, in ascending-column order (the
        canonical CSR order the program was built into). Only values
        change — entries cannot be added or removed, which is exactly the
        contract of a program family whose coefficients drift over a fixed
        structure (e.g. the element-load rows of the fractional-placement
        LP). Explicitly stored zeros stay in the structure and may be
        overwritten with new values later.
        """
        matrix = self._arrays["A_ub"]
        if matrix is None:
            raise SolverError("program has no inequality rows to update")
        self._ensure_anchor()
        rows = np.asarray(rows, dtype=np.intp)
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] != rows.size:
            raise SolverError(
                "update_le_rows expects one value row per updated row"
            )
        if rows.size and (rows.min() < 0 or rows.max() >= self._n_le):
            raise SolverError(
                f"row indices must lie in [0, {self._n_le})"
            )
        indptr, indices = matrix.indptr, matrix.indices
        starts, ends = indptr[rows], indptr[rows + 1]
        if np.any(ends - starts != values.shape[1]):
            raise SolverError(
                "value rows must match each row's stored entry count"
            )
        for start, row_values in zip(starts, values):
            matrix.data[start : start + values.shape[1]] = row_values
        cols = np.concatenate(
            [indices[s:e] for s, e in zip(starts, ends)]
        ) if rows.size else np.empty(0, dtype=indices.dtype)
        self._impl.update_coefficients(
            np.repeat(rows, values.shape[1]), cols, values.ravel()
        )
        self.update_count += 1
        obs.count("lp.update")

    def _check_rhs(self, b_ub: "np.ndarray | Sequence | None") -> np.ndarray | None:
        if self._n_le == 0:
            if b_ub is not None and np.asarray(b_ub).size:
                raise SolverError(
                    "program has no inequality rows to take an RHS"
                )
            return None
        rhs = np.asarray(b_ub, dtype=np.float64)
        if rhs.shape != (self._n_le,):
            raise SolverError(
                f"RHS variant must have shape ({self._n_le},), "
                f"got {rhs.shape}"
            )
        return rhs

    def solve_many(
        self,
        b_ub_variants: Iterable[Sequence[float] | np.ndarray],
    ) -> list[LPSolution | None]:
        """Solve every RHS variant against the shared structure.

        The batch starts from a cold solver state and chains warm starts
        *within* itself — deterministic, because the whole variant list
        is one request and nothing from earlier requests leaks in.
        (Unlike single solves, batches skip the anchor: the first
        variant's cold solve plays the calibration role and every later
        variant chains off it, so a sweep costs no extra solve.)

        Variants are solved in lexicographically ascending RHS order — the
        basis-aware schedule: a monotone capacity sweep makes every warm
        step a small dual-simplex perturbation — and un-permuted, so the
        returned list lines up with the input *and* does not depend on the
        caller's level order.

        On HiGHS the variants of a batch's tail that the held optimum
        still solves (see the module docstring) get that solution without
        a run: they count in ``lp.solve`` and :attr:`solve_count` like any
        answered variant, and in ``lp.reuse``. The solver then holds the
        last *run* variant's RHS and state, not the last variant's, so a
        later single solve of the same program may start from other state
        than it would after running every variant; nothing in
        :mod:`repro` solves a program again after a batch.
        """
        variants = [self._check_rhs(v) for v in b_ub_variants]
        self.solve_count += len(variants)
        if variants:
            obs.count("lp.solve", len(variants))
        self._impl.cold_restart()
        order: Iterable[int] = range(len(variants))
        if self._n_le and len(variants) > 1:
            # lexsort's last key is primary: reverse so coordinate 0 leads
            order = np.lexsort(np.stack(variants).T[::-1]).tolist()
        results: list[LPSolution | None] = [None] * len(variants)
        held: np.ndarray | None = None
        solved: LPSolution | None = None  # the last run's, if feasible
        deferred: list[int] = []  # answered from ``solved``, not run yet
        for index in order:
            variant = variants[index]
            if solved is not None and self._impl.still_optimal(held, variant):
                # A copy, so no two answers share an array.
                results[index] = LPSolution(solved.x.copy(), solved.objective)
                deferred.append(index)
                continue
            # A run changes solver state beyond the basis, so run what was
            # deferred first: every run then follows the calls it follows
            # when each variant runs, and answers alike.
            for skipped in deferred:
                results[skipped] = self._impl.solve(variants[skipped])
            deferred = []
            held, solved = variant, self._impl.solve(variant)
            results[index] = solved
        if deferred:
            obs.count("lp.reuse", len(deferred))
        return results

    def solve(
        self, b_ub: Sequence[float] | np.ndarray | None = None
    ) -> LPSolution:
        """Solve one variant; raises :class:`InfeasibleError` if infeasible.

        With ``b_ub=None`` the RHS the program was built with is used:

        >>> from repro.lp.problem import LinearProgram
        >>> lp = LinearProgram()
        >>> x = lp.add_block("x", 1, lower=0.0)
        >>> lp.set_objective(x.index(0), 1.0)
        >>> lp.add_le([x.index(0)], [-1.0], -2.0)   # x >= 2
        0
        >>> BatchedProgram(lp).solve().objective
        2.0
        """
        if b_ub is None and self._n_le:
            b_ub = self._arrays["b_ub"]
        rhs = self._check_rhs(b_ub)
        self._ensure_anchor()
        warm = self._impl.restart()
        self.solve_count += 1
        obs.count("lp.solve")
        if warm:
            obs.count("lp.warm_start_hit")
        solution = self._impl.solve(rhs)
        if solution is None:
            raise InfeasibleError("linear program is infeasible")
        return solution

    def __repr__(self) -> str:
        return (
            f"BatchedProgram(n_vars={self.n_variables}, "
            f"n_le={self._n_le}, backend={self.backend!r})"
        )
