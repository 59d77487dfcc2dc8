"""Sparse linear-programming layer.

The paper implemented its LPs in GNU MathProg and solved them all with one
solver, ``glpsol`` 4.8 (limited to 100,000 constraints). This package
provides the equivalent substrate on HiGHS: a builder for sparse LPs
(:class:`~repro.lp.problem.LinearProgram`) with a vectorized batch
assembler, and one solve path,
:class:`~repro.lp.batched.BatchedProgram`, which converts solver statuses
into the library's exceptions. It is built for LP families that share
structure and differ only in inequality right-hand sides — the shape of
both the capacity-sweep technique and the iterative algorithm — and a
one-off program is simply a family of one: ``BatchedProgram(lp).solve()``.

Build-once/solve-many usage::

    lp = LinearProgram()
    p = lp.add_block("p", (n, m), lower=0.0, upper=1.0)
    lp.set_objective_many(vars, coefs)      # array arguments
    lp.add_le_many(rows, cols, vals, rhs)   # broadcast COO batch
    batched = BatchedProgram(lp)            # matrices assembled once
    solutions = batched.solve_many(rhs_variants)  # ascending RHS order,
                                                  # warm-started when
                                                  # HiGHS bindings exist
    batched.update_le_rows(rows, values)    # coefficient drift in place
    batched.update_objective(vars, coefs)   # (same fixed sparsity)

Both of the paper's LP families run on this backend: the access-strategy
LP (:class:`repro.strategies.lp_optimizer.StrategyProgram`, pure-RHS
capacity sweeps) and the fractional-placement LP
(:class:`repro.placement.fractional.FractionalProgram`, whose
element-load rows drift as the iterative algorithm's strategy evolves).
"""

from repro.lp.batched import BatchedProgram, LPSolution, lp_backend_name
from repro.lp.problem import LinearProgram

__all__ = [
    "BatchedProgram",
    "LinearProgram",
    "LPSolution",
    "lp_backend_name",
]
