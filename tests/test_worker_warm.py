"""Worker-warm LP caches and canonical (anchored) solves.

The contract under test: a batched-LP solve is a pure function of
(built program, request) — tied optima break the same way no matter what
was solved before or which process solves it. That is what lets pool
workers keep assembled programs warm across the candidates they happen to
be handed (``worker_memo``) while ``jobs=N`` stays *bit-identical* to
``jobs=1``, on the warm HiGHS path and the forced scipy fallback alike.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.iterative import iterative_optimize
from repro.lp import BatchedProgram, LinearProgram
from repro.placement.many_to_one import best_many_to_one_placement
from repro.quorums.grid import GridQuorumSystem
from repro.runtime.runner import GridRunner, worker_memo

GRID = GridQuorumSystem(3)

#: Forces the scipy fallback alongside the auto-probed (HiGHS when
#: importable) backend; pool workers inherit the environment via fork.
BACKENDS = ["auto", "scipy"]


def _force_backend(monkeypatch, backend_env: str) -> None:
    if backend_env == "scipy":
        monkeypatch.setenv("REPRO_LP_BACKEND", "scipy")


def _tied_program(backend: str | None = None) -> BatchedProgram:
    """``min x+y+z`` over ``[0,1]^3`` s.t. ``x+y+z >= b``: every point of
    the optimal face ties, so the chosen vertex is pure tie-break."""
    lp = LinearProgram()
    lp.add_block("v", 3, lower=0.0, upper=1.0)
    lp.set_objective_many(np.arange(3), np.ones(3))
    lp.add_le([0, 1, 2], [-1.0, -1.0, -1.0], -1.5)
    return BatchedProgram(lp, backend=backend)


def _memo_counter(key):
    """Counts, per pool worker, how often this worker saw ``key``."""
    holder = worker_memo(("counter", key), list)
    holder.append(1)
    return len(holder)


class TestWorkerMemo:
    def test_outside_worker_builds_fresh_every_call(self):
        built = []

        def factory():
            built.append(object())
            return built[-1]

        first = worker_memo("memo-key", factory)
        second = worker_memo("memo-key", factory)
        assert first is not second
        assert len(built) == 2

    def test_inside_worker_caches_by_key(self, monkeypatch):
        import repro.runtime.runner as runner_module

        monkeypatch.setattr(runner_module, "_IN_WORKER", True)
        runner_module._WORKER_MEMO.clear()
        try:
            calls = []

            def factory():
                calls.append(1)
                return object()

            first = worker_memo(("k", 1), factory)
            again = worker_memo(("k", 1), factory)
            other = worker_memo(("k", 2), factory)
            assert first is again
            assert first is not other
            assert len(calls) == 2
        finally:
            runner_module._WORKER_MEMO.clear()

    def test_registry_is_bounded(self, monkeypatch):
        """Past the cap the oldest entry is evicted — a long-lived worker
        cannot accumulate solver state without limit."""
        import repro.runtime.runner as runner_module

        monkeypatch.setattr(runner_module, "_IN_WORKER", True)
        monkeypatch.setattr(runner_module, "_WORKER_MEMO_MAX", 3)
        runner_module._WORKER_MEMO.clear()
        try:
            for i in range(6):
                worker_memo(("bounded", i), object)
            assert len(runner_module._WORKER_MEMO) == 3
            assert ("bounded", 5) in runner_module._WORKER_MEMO
            assert ("bounded", 0) not in runner_module._WORKER_MEMO
            # a hit refreshes recency: touch the oldest survivor, insert
            # one more, and the untouched middle entry is evicted instead
            worker_memo(("bounded", 3), object)
            worker_memo(("bounded", 6), object)
            assert ("bounded", 3) in runner_module._WORKER_MEMO
            assert ("bounded", 4) not in runner_module._WORKER_MEMO
        finally:
            runner_module._WORKER_MEMO.clear()

    def test_memo_survives_across_tasks_within_a_worker(self):
        """The registry is per-process, not per-task: with more tasks
        than workers, some worker must observe its own earlier entry."""
        with GridRunner(jobs=2) as runner:
            counts = runner.map(_memo_counter, [{"key": "x"}] * 6)
        assert max(counts) >= 2


class TestCanonicalTieBreak:
    @pytest.mark.parametrize("backend_env", BACKENDS)
    def test_solve_history_cannot_change_the_answer(
        self, monkeypatch, backend_env
    ):
        _force_backend(monkeypatch, backend_env)
        request = [-0.9]
        direct = _tied_program().solve(request)
        warmed = _tied_program()
        for rhs in ([-1.2], [-2.3], [-0.4]):
            warmed.solve(rhs)
        replayed = warmed.solve(request)
        assert np.array_equal(direct.x, replayed.x)
        assert direct.objective == replayed.objective

    @pytest.mark.parametrize("backend_env", BACKENDS)
    def test_update_history_cannot_change_the_answer(
        self, monkeypatch, backend_env
    ):
        """Round-tripping the objective through other values and back must
        land on the same canonical vertex a never-updated program picks."""
        _force_backend(monkeypatch, backend_env)
        request = [-1.5]
        direct = _tied_program().solve(request)
        detoured = _tied_program()
        detoured.update_objective([0, 1, 2], [3.0, 1.0, 2.0])
        detoured.solve(request)
        detoured.update_objective([0, 1, 2], [1.0, 1.0, 1.0])
        replayed = detoured.solve(request)
        assert np.array_equal(direct.x, replayed.x)
        assert direct.objective == replayed.objective

    @pytest.mark.parametrize("backend_env", BACKENDS)
    def test_batch_history_cannot_contaminate_the_anchor(
        self, monkeypatch, backend_env
    ):
        """Regression: calibration must run from a cold solver state — a
        preceding solve_many batch used to leak its final basis into the
        anchor, making later single solves depend on batch history."""
        _force_backend(monkeypatch, backend_env)
        request = [-1.5]
        direct = _tied_program().solve(request)
        batched_first = _tied_program()
        batched_first.solve_many([[-2.7], [-0.3], [-1.8]])
        replayed = batched_first.solve(request)
        assert np.array_equal(direct.x, replayed.x)
        assert direct.objective == replayed.objective

    @pytest.mark.parametrize("backend_env", BACKENDS)
    def test_repeated_request_is_reproducible(self, monkeypatch, backend_env):
        _force_backend(monkeypatch, backend_env)
        program = _tied_program()
        first = program.solve([-1.1])
        second = program.solve([-1.1])
        assert np.array_equal(first.x, second.x)


class TestSortedVsGiven:
    """``solve_many`` always sweeps in sorted RHS order; the caller's
    (given) order must not leak into the answers."""

    VARIANTS = [[-1.8], [-0.3], [-2.7], [-1.2], [-0.9]]

    @pytest.mark.parametrize("backend_env", BACKENDS)
    def test_orders_agree_on_objectives_and_feasibility(
        self, monkeypatch, backend_env
    ):
        """A permuted variant list yields the same answers, permuted, bit
        for bit: the sweep order is a function of the variant set, so on
        the tied program even the warm HiGHS chain cannot tell the two
        input orders apart."""
        _force_backend(monkeypatch, backend_env)
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
    """ISSUE acceptance: jobs=N bit-identical to jobs=1 with warm caches
    on both sides — serial searches are family-warm, pool workers keep
    families in the worker-local cache."""

    CANDIDATES = np.arange(6)

    @pytest.mark.parametrize("backend_env", BACKENDS)
    def test_repeated_searches_bit_identical_to_serial(
        self, planetlab, monkeypatch, backend_env
    ):
        """Two searches under different strategies through ONE runner:
        the second parallel search re-solves programs the workers kept
        warm from the first — results must still match fresh serial runs
        bit for bit."""
        _force_backend(monkeypatch, backend_env)
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
        """Point tags carry (position, v0), so duplicated candidates stay
        legal in parallel just as they are serially."""
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

    @pytest.mark.parametrize("backend_env", BACKENDS)
    def test_iterative_parallel_bit_identical(
        self, planetlab, monkeypatch, backend_env
    ):
        """The replayed acceptance scenario: iterative_optimize fans its
        candidate searches over worker-warm pools and must reproduce the
        serial run exactly — every iteration's placement, strategies, and
        metrics, to the bit."""
        _force_backend(monkeypatch, backend_env)
        kwargs = dict(
            capacities=0.9,
            alpha=7.0,
            candidates=self.CANDIDATES,
            max_iterations=3,
        )
        serial = iterative_optimize(planetlab, GRID, **kwargs)
        with GridRunner(jobs=2) as runner:
            parallel = iterative_optimize(
                planetlab, GRID, runner=runner, **kwargs
            )
        assert serial.iterations_run == parallel.iterations_run
        assert serial.response_time == parallel.response_time
        for a, b in zip(serial.history, parallel.history):
            assert np.array_equal(
                a.placed.placement.assignment,
                b.placed.placement.assignment,
            )
            assert np.array_equal(a.strategy.matrix, b.strategy.matrix)
            assert a.phase1_network_delay == b.phase1_network_delay
            assert a.phase2_network_delay == b.phase2_network_delay
            assert a.response_time == b.response_time
