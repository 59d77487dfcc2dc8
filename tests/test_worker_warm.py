"""Anchored LP solves, and why no program may cross a grid point.

Anchored solves restart every request from the basis of a calibration
solve, so a program's answers are a deterministic function of the
requests it has received, in order. They are *not* a function of the
last request alone: on HiGHS, re-solving one request can return another
tied vertex. ``jobs=N`` is bit-identical to ``jobs=1`` because each grid
point (and each single search) builds every program it solves, so no
solver state reaches it from whatever its worker ran before. The tests
below pin the tie-break properties that do hold, on the warm HiGHS path
and the forced scipy fallback alike, and pin parallel searches and
worker-run iterative points to fresh serial runs.
"""

from __future__ import annotations

import numpy as np

from repro.core.iterative import iterative_optimize
from repro.lp import BatchedProgram, LinearProgram
from repro.placement.many_to_one import best_many_to_one_placement
from repro.quorums.grid import GridQuorumSystem
from repro.quorums.load_analysis import optimal_load
from repro.runtime.runner import GridRunner
from repro.strategies.capacity_sweep import capacity_levels

GRID = GridQuorumSystem(3)

def _tied_program(backend: str | None = None) -> BatchedProgram:
    """``min x+y+z`` over ``[0,1]^3`` s.t. ``x+y+z >= b``: every point of
    the optimal face ties, so the chosen vertex is pure tie-break."""
    lp = LinearProgram()
    lp.add_block("v", 3, lower=0.0, upper=1.0)
    lp.set_objective_many(np.arange(3), np.ones(3))
    lp.add_le([0, 1, 2], [-1.0, -1.0, -1.0], -1.5)
    return BatchedProgram(lp, backend=backend)


class TestCanonicalTieBreak:
    """On this small tied program the anchored restart returns the
    calibration's tie-break whatever was solved before. Larger programs
    on HiGHS do not always (see ``TestNoProgramCrossesAGridPoint``)."""

    def test_solve_history_cannot_change_the_answer(self, lp_backend):
        request = [-0.9]
        direct = _tied_program().solve(request)
        warmed = _tied_program()
        for rhs in ([-1.2], [-2.3], [-0.4]):
            warmed.solve(rhs)
        replayed = warmed.solve(request)
        assert np.array_equal(direct.x, replayed.x)
        assert direct.objective == replayed.objective

    def test_update_history_cannot_change_the_answer(self, lp_backend):
        """Round-tripping the objective through other values and back must
        land on the same canonical vertex a never-updated program picks."""
        request = [-1.5]
        direct = _tied_program().solve(request)
        detoured = _tied_program()
        detoured.update_objective([0, 1, 2], [3.0, 1.0, 2.0])
        detoured.solve(request)
        detoured.update_objective([0, 1, 2], [1.0, 1.0, 1.0])
        replayed = detoured.solve(request)
        assert np.array_equal(direct.x, replayed.x)
        assert direct.objective == replayed.objective

    def test_batch_history_cannot_contaminate_the_anchor(self, lp_backend):
        """Regression: calibration must run from a cold solver state — a
        preceding solve_many batch used to leak its final basis into the
        anchor, making later single solves depend on batch history."""
        request = [-1.5]
        direct = _tied_program().solve(request)
        batched_first = _tied_program()
        batched_first.solve_many([[-2.7], [-0.3], [-1.8]])
        replayed = batched_first.solve(request)
        assert np.array_equal(direct.x, replayed.x)
        assert direct.objective == replayed.objective

    def test_repeated_request_is_reproducible(self, lp_backend):
        program = _tied_program()
        first = program.solve([-1.1])
        second = program.solve([-1.1])
        assert np.array_equal(first.x, second.x)


class TestSortedVsGiven:
    """``solve_many`` always sweeps in sorted RHS order; the caller's
    (given) order must not leak into the answers."""

    VARIANTS = [[-1.8], [-0.3], [-2.7], [-1.2], [-0.9]]

    def test_orders_agree_on_objectives_and_feasibility(self, lp_backend):
        """A permuted variant list yields the same answers, permuted, bit
        for bit: the sweep order is a function of the variant set, so on
        the tied program even the warm HiGHS chain cannot tell the two
        input orders apart."""
        permutation = [3, 0, 4, 2, 1]
        given = _tied_program().solve_many(self.VARIANTS)
        permuted = _tied_program().solve_many(
            [self.VARIANTS[i] for i in permutation]
        )
        for position, index in enumerate(permutation):
            a, b = given[index], permuted[position]
            assert (a is None) == (b is None)
            if a is not None:
                assert np.array_equal(a.x, b.x)
                assert a.objective == b.objective

    def test_sorted_is_bitwise_stable_on_scipy(self, monkeypatch):
        """The stateless backend solves each variant independently, so the
        sorted sweep must return exactly the per-variant ``solve`` results
        taken in the given order, bit for bit — the permutation
        round-trips."""
        monkeypatch.setenv("REPRO_LP_BACKEND", "scipy")
        swept = _tied_program().solve_many(self.VARIANTS)
        single = [_tied_program().solve(v) for v in self.VARIANTS]
        for a, b in zip(swept, single):
            assert np.array_equal(a.x, b.x)
            assert a.objective == b.objective


def _assert_search_identical(serial, parallel):
    assert serial.v0 == parallel.v0
    assert serial.avg_network_delay == parallel.avg_network_delay
    assert serial.delays_by_candidate == parallel.delays_by_candidate
    assert np.array_equal(
        serial.placed.placement.assignment,
        parallel.placed.placement.assignment,
    )


class TestWorkerWarmSearch:
    """jobs=N bit-identical to jobs=1: the serial search solves each
    candidate once on a fresh family, and each pool task builds and
    solves its candidate's program once."""

    CANDIDATES = np.arange(6)

    def test_repeated_searches_bit_identical_to_serial(
        self, planetlab, lp_backend
    ):
        """Two searches under different strategies through ONE runner:
        the workers of the second search ran tasks of the first, and the
        results must still match fresh serial runs bit for bit."""
        caps = np.full(planetlab.n_nodes, 0.9)
        shifted = np.linspace(1.0, 2.0, GRID.num_quorums)
        shifted /= shifted.sum()
        strategies = [None, shifted]

        serial = [
            best_many_to_one_placement(
                planetlab, GRID, capacities=caps, strategy=p,
                candidates=self.CANDIDATES,
            )
            for p in strategies
        ]
        with GridRunner(jobs=2) as runner:
            parallel = [
                best_many_to_one_placement(
                    planetlab, GRID, capacities=caps, strategy=p,
                    candidates=self.CANDIDATES, runner=runner,
                )
                for p in strategies
            ]
        for s, p in zip(serial, parallel):
            _assert_search_identical(s, p)

    def test_duplicate_candidates_allowed_on_both_paths(self, planetlab):
        """Each distinct candidate is one point tagged by its v0, so
        duplicated candidates stay legal in parallel just as they are
        serially."""
        caps = np.full(planetlab.n_nodes, 0.9)
        serial = best_many_to_one_placement(
            planetlab, GRID, capacities=caps, candidates=[0, 0, 3]
        )
        with GridRunner(jobs=2) as runner:
            parallel = best_many_to_one_placement(
                planetlab, GRID, capacities=caps, candidates=[0, 0, 3],
                runner=runner,
            )
        _assert_search_identical(serial, parallel)


class TestNoProgramCrossesAGridPoint:
    """A pool worker that runs two iterative points one after the other
    must return, for the second, what a fresh run returns."""

    def test_second_capacity_level_in_one_worker_matches_a_fresh_run(
        self, planetlab, lp_backend, monkeypatch
    ):
        import repro.runtime.runner as runner_module

        first_level, second_level = capacity_levels(
            optimal_load(GRID).l_opt
        )[:2]
        kwargs = dict(
            alpha=0.0,
            candidates=np.argsort(planetlab.mean_distances())[:6],
            max_iterations=3,
        )
        fresh = iterative_optimize(
            planetlab, GRID, capacities=float(second_level), **kwargs
        )
        # What the pool initializer sets in every worker process.
        monkeypatch.setattr(runner_module, "_IN_WORKER", True)
        iterative_optimize(
            planetlab, GRID, capacities=float(first_level), **kwargs
        )
        second = iterative_optimize(
            planetlab, GRID, capacities=float(second_level), **kwargs
        )
        assert second.iterations_run == fresh.iterations_run
        for a, b in zip(second.history, fresh.history):
            assert (
                a.placed.placement.assignment.tobytes()
                == b.placed.placement.assignment.tobytes()
            )
            assert a.strategy.matrix.tobytes() == b.strategy.matrix.tobytes()
            assert a.phase1_network_delay == b.phase1_network_delay
            assert a.phase2_network_delay == b.phase2_network_delay
            assert a.response_time == b.response_time
