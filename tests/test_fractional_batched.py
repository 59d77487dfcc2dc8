"""Equivalence suite for the batched fractional-placement LP.

Pins the build-once/solve-many path (`FractionalProgram` /
`FractionalFamily`, load rows rewritten in place, warm-started HiGHS when
bindings import) against the row-by-row cold reference defined here
(`fractional_placement_loop`, the library's original implementation of
the LP, kept test-side only): assembled matrices must be *identical*
(including explicitly stored zero-load entries), objectives must match
within 1e-9 across evolving strategies, chosen placements must agree on
Grid and Majority systems, and infeasible capacity vectors must surface
as recorded ``None`` entries — the sweep convention — never as a silent
divergence from the raise-path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.iterative import iterative_optimize
from repro.errors import InfeasibleError, PlacementError
from repro.lp import BatchedProgram, LinearProgram
from repro.placement.fractional import (
    FractionalFamily,
    FractionalPlacement,
    FractionalProgram,
    element_loads_of_strategy,
)
from repro.placement.many_to_one import (
    best_many_to_one_placement,
    many_to_one_placement,
)
from repro.quorums.grid import GridQuorumSystem
from repro.quorums.threshold import MajorityKind, majority
from repro.runtime.runner import GridRunner

GRID = GridQuorumSystem(3)
MAJORITY = majority(MajorityKind.SIMPLE, 2)


def _loop_program(topology, system, v0, capacities=None, strategy=None):
    """The row-by-row assembly: ``(program, x block, z block, loads)``."""
    n, n_nodes, m = system.universe_size, topology.n_nodes, system.num_quorums
    caps = (
        topology.capacities
        if capacities is None
        else np.asarray(capacities, dtype=np.float64)
    )
    p = (
        np.full(m, 1.0 / m)
        if strategy is None
        else np.array(strategy, dtype=np.float64)
    )
    loads = element_loads_of_strategy(system, p)
    dist = topology.distances_from(v0)

    lp = LinearProgram()
    x = lp.add_block("x", (n, n_nodes), lower=0.0, upper=1.0)
    z = lp.add_block("z", m, lower=0.0)
    for i in range(m):
        lp.set_objective(z.index(i), float(p[i]))
    node_cols = list(range(n_nodes))
    dist_vals = dist.tolist()
    for i, quorum in enumerate(system.quorums):
        for u in quorum:
            cols = [x.index(u, w) for w in node_cols] + [z.index(i)]
            lp.add_le(cols, dist_vals + [-1.0], 0.0)
    for u in range(n):
        lp.add_eq([x.index(u, w) for w in node_cols], [1.0] * n_nodes, 1.0)
    for w in range(n_nodes):
        cols = [x.index(u, w) for u in range(n)]
        lp.add_le(cols, loads.tolist(), float(caps[w]))
    return lp, x, z, loads


def _loop_arrays(topology, system, v0, strategy=None):
    """The row-by-row assembly, stopped right before the solve."""
    return _loop_program(topology, system, v0, strategy=strategy)[0].build()


def fractional_placement_loop(
    topology, system, v0, capacities=None, strategy=None
):
    """Reference: row-by-row assembly plus one cold solve per call."""
    lp, x, z, loads = _loop_program(
        topology, system, v0, capacities=capacities, strategy=strategy
    )
    solution = BatchedProgram(lp, backend="scipy").solve()
    return FractionalPlacement(
        v0=v0,
        x=x.reshape(solution.x),
        quorum_delays=z.reshape(solution.x),
        objective=solution.objective,
        element_loads=loads,
    )


class _LoopProgram:
    """Duck-typed ``FractionalProgram`` that re-solves the reference cold,
    so the placement pipeline can run on the reference LP stage."""

    def __init__(self, topology, system, v0):
        self.topology, self.system, self.v0 = topology, system, v0

    def solve(self, capacities=None, strategy=None):
        return fractional_placement_loop(
            self.topology, self.system, self.v0,
            capacities=capacities, strategy=strategy,
        )


class _LoopFamily:
    """Duck-typed ``FractionalFamily`` handing out reference programs."""

    def __init__(self, topology, system):
        self.topology, self.system = topology, system

    def program(self, v0):
        return _LoopProgram(self.topology, self.system, int(v0))


def _assert_arrays_identical(ref, got):
    for key in ("c", "b_ub", "b_eq"):
        assert np.array_equal(ref[key], got[key]), key
    assert np.array_equal(ref["bounds"], got["bounds"])
    for key in ("A_ub", "A_eq"):
        a, b = ref[key], got[key]
        assert np.array_equal(a.indptr, b.indptr), key
        assert np.array_equal(a.indices, b.indices), key
        assert np.array_equal(a.data, b.data), key


class TestAssemblyIdentity:
    @pytest.mark.parametrize("system", [GRID, MAJORITY], ids=lambda s: s.name)
    def test_batched_matrix_identical_to_loop(self, planetlab, system):
        program = FractionalProgram(planetlab, system, v0=7)
        _assert_arrays_identical(
            _loop_arrays(planetlab, system, 7), program._batched.arrays
        )

    def test_zero_load_elements_keep_matrix_identical(self, planetlab):
        """A point-mass strategy zeroes most element loads; after the
        in-place update the zero entries must stay explicitly stored,
        exactly as the loop path stores them."""
        p = np.zeros(GRID.num_quorums)
        p[2] = 1.0
        loads = element_loads_of_strategy(GRID, p)
        assert np.count_nonzero(loads == 0.0) > 0  # the edge case is real
        program = FractionalProgram(planetlab, GRID, v0=3)
        program.solve(strategy=p)
        ref = _loop_arrays(planetlab, GRID, 3, strategy=p)
        _assert_arrays_identical(ref, program._batched.arrays)

    def test_update_preserves_identity_with_rebuilt_loop(self, planetlab):
        """After an in-place strategy update the arrays must equal a loop
        assembly done from scratch with the new strategy."""
        program = FractionalProgram(planetlab, GRID, v0=0)
        p = np.zeros(GRID.num_quorums)
        p[0] = 0.25
        p[4] = 0.75
        program.solve(strategy=p)
        _assert_arrays_identical(
            _loop_arrays(planetlab, GRID, 0, strategy=p),
            program._batched.arrays,
        )


class TestObjectiveEquivalence:
    @pytest.mark.parametrize("system", [GRID, MAJORITY], ids=lambda s: s.name)
    def test_warm_resolves_match_loop_within_1e9(self, planetlab, system):
        rng = np.random.default_rng(11)
        family = FractionalFamily(planetlab, system)
        for _ in range(3):
            p = rng.dirichlet(np.ones(system.num_quorums))
            for v0 in (0, 7, 23):
                batched = family.solve(v0, strategy=p)
                loop = fractional_placement_loop(
                    planetlab, system, v0, strategy=p
                )
                assert batched.objective == pytest.approx(
                    loop.objective, abs=1e-9
                )
                assert np.allclose(batched.x.sum(axis=1), 1.0, atol=1e-6)

    @pytest.mark.parametrize("system", [GRID, MAJORITY], ids=lambda s: s.name)
    def test_rounded_placements_match_loop(self, planetlab, system):
        """The full pipeline chooses the same placement on both paths."""
        caps = np.full(planetlab.n_nodes, 1.0)
        for v0 in (0, 7, 23):
            batched = many_to_one_placement(
                planetlab, system, v0, capacities=caps
            )
            loop = many_to_one_placement(
                planetlab, system, v0, capacities=caps,
                program=_LoopProgram(planetlab, system, v0),
            )
            assert np.array_equal(batched.assignment, loop.assignment)

    def test_in_place_strategy_mutation_not_aliased(self, line_topology):
        """Mutating the caller's strategy array between solves must not
        defeat the staleness check — the program compares against its own
        copy, not the caller's buffer."""
        g = GridQuorumSystem(2)
        program = FractionalProgram(line_topology, g, v0=4)
        p = np.full(g.num_quorums, 1.0 / g.num_quorums)
        program.solve(strategy=p)
        p[:] = 0.0
        p[0] = 1.0
        mutated = program.solve(strategy=p)
        loop = fractional_placement_loop(line_topology, g, 4, strategy=p)
        assert np.array_equal(mutated.element_loads, loop.element_loads)
        assert mutated.objective == pytest.approx(loop.objective, abs=1e-9)

    def test_fresh_program_honors_request_strategy(self, planetlab):
        """A program built from (topology, system, v0) alone answers a
        strategy request as the cold reference built with it does."""
        p = np.zeros(GRID.num_quorums)
        p[1] = 1.0
        batched = FractionalProgram(planetlab, GRID, 5).solve(strategy=p)
        loop = fractional_placement_loop(planetlab, GRID, 5, strategy=p)
        assert batched.objective == pytest.approx(loop.objective, abs=1e-9)
        assert np.array_equal(batched.element_loads, loop.element_loads)


class TestInfeasibleConvention:
    def test_solve_raises(self, line_topology):
        program = FractionalProgram(line_topology, GridQuorumSystem(2), v0=0)
        with pytest.raises(InfeasibleError):
            program.solve(capacities=np.full(10, 0.1))

    def test_solve_many_records_none_in_place(self, line_topology):
        """Infeasible variants are recorded as None at their position —
        the sweep convention — instead of aborting the whole family."""
        program = FractionalProgram(line_topology, GridQuorumSystem(2), v0=0)
        tight = np.full(10, 0.1)  # total 1.0 < total load 3.0
        loose = np.full(10, 10.0)
        results = program.solve_many([tight, loose, None, tight])
        assert [r is None for r in results] == [True, False, False, True]
        assert results[1].objective == pytest.approx(0.0, abs=1e-6)

    def test_solve_many_after_infeasible_still_correct(self, line_topology):
        """An infeasible variant must not poison later warm solves."""
        g = GridQuorumSystem(2)
        program = FractionalProgram(line_topology, g, v0=4)
        program.solve_many([np.full(10, 0.1)])
        after = program.solve(capacities=np.full(10, 10.0))
        loop = fractional_placement_loop(
            line_topology, g, 4, capacities=np.full(10, 10.0)
        )
        assert after.objective == pytest.approx(loop.objective, abs=1e-9)


class TestFamily:
    def test_programs_cached_per_v0(self, line_topology):
        family = FractionalFamily(line_topology, GridQuorumSystem(2))
        assert family.program(3) is family.program(3)
        assert family.program(3) is not family.program(4)
        assert len(family) == 2

    def test_non_enumerable_rejected_up_front(self, line_topology):
        from repro.quorums.threshold import ThresholdQuorumSystem

        with pytest.raises(PlacementError):
            FractionalFamily(line_topology, ThresholdQuorumSystem(49, 25))

    def test_bad_v0_rejected(self, line_topology):
        family = FractionalFamily(line_topology, GridQuorumSystem(2))
        with pytest.raises(PlacementError):
            family.program(99)


class TestIterativeIntegration:
    CANDIDATES = np.arange(6)

    def test_batched_iterative_matches_loop_path(self, planetlab, monkeypatch):
        """Warm batched solves drive the loop through the same first
        iteration as the cold reference: metrics within 1e-9 and the
        placement identical (the uniform-strategy LPs are tie-free here).
        Later iterations run under LP-optimal strategies that zero out
        whole quorums, leaving the elements unique to them genuinely
        unconstrained — tied optimal vertices that the canonical anchored
        solves and the cold reference may break differently and round to
        different (equal-LP-quality) placements, after which the
        trajectories legitimately diverge (that is why
        CACHE_SCHEMA_VERSION was bumped). Beyond iteration 1 the pinned
        contract is therefore structural: each path improves strictly
        until its stopping rule and returns its own best iteration."""
        kwargs = dict(
            capacities=0.9,
            alpha=7.0,
            candidates=self.CANDIDATES,
            max_iterations=4,
        )
        batched = iterative_optimize(
            planetlab, GridQuorumSystem(2), **kwargs
        )
        # iterative_optimize builds its family per call: run the same call
        # with the family class swapped for the cold reference.
        monkeypatch.setattr(
            "repro.core.iterative.FractionalFamily", _LoopFamily
        )
        loop = iterative_optimize(planetlab, GridQuorumSystem(2), **kwargs)
        first_b, first_l = batched.history[0], loop.history[0]
        assert np.array_equal(
            first_b.placed.placement.assignment,
            first_l.placed.placement.assignment,
        )
        for metric in (
            "phase1_network_delay",
            "phase2_network_delay",
            "response_time",
        ):
            assert getattr(first_b, metric) == pytest.approx(
                getattr(first_l, metric), abs=1e-9
            ), metric
        for result in (batched, loop):
            times = [rec.response_time for rec in result.history]
            # every iteration kept by the stopping rule strictly improved
            assert all(b < a for a, b in zip(times[:-1], times[1:-1]))
            assert result.response_time == min(times)


class TestParallelSearch:
    def test_parallel_candidates_bit_identical_to_serial(self, planetlab):
        """best_many_to_one_placement over a parallel runner builds each
        candidate's program in its pool task and solves it once, as the
        serial search does on its fresh family, so the two agree bit for
        bit for any worker count."""
        caps = np.full(planetlab.n_nodes, 0.9)
        serial = best_many_to_one_placement(
            planetlab, GRID, capacities=caps, candidates=np.arange(6)
        )
        with GridRunner(jobs=2) as runner:
            parallel = best_many_to_one_placement(
                planetlab, GRID, capacities=caps,
                candidates=np.arange(6), runner=runner,
            )
        assert serial.v0 == parallel.v0
        assert serial.avg_network_delay == parallel.avg_network_delay
        assert serial.delays_by_candidate == parallel.delays_by_candidate
        assert np.array_equal(
            serial.placed.placement.assignment,
            parallel.placed.placement.assignment,
        )
