"""Tests for the parallel experiment runtime.

The contract under test: ``GridRunner`` output is *identical* — to the
bit — whether points run serially, in parallel workers, or out of the
cache. Plus the cache's own invariants (stable content keys, atomic
storage, hit/miss accounting).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.dynamics.events import ScenarioTrace
from repro.dynamics.replay import replay
from repro.errors import ReproError
from repro.experiments import fig_6_3, run_figure
from repro.lp.batched import LP_BACKEND_ENV, lp_backend_name
from repro.network.datasets import PLANETLAB_CLUSTERS
from repro.network.generators import generate_cluster_topology
from repro.obs.tracer import Tracer, tracing
from repro.placement.search import best_placement
from repro.quorums.grid import GridQuorumSystem
from repro.quorums.threshold import MajorityKind, majority
from repro.runtime import cache as cache_mod
from repro.runtime.cache import (
    ResultCache,
    content_key,
    system_fingerprint,
    topology_fingerprint,
)
from repro.runtime.grid import GridPoint, GridSpec
from repro.runtime.runner import GridRunner, resolve_jobs


def _square(x):
    return x * x


def _fail():
    raise RuntimeError("worker exploded")


def _die():
    """Kill the worker process outright, as a crash or the OOM killer would."""
    os._exit(1)


def _worker_state():
    """Would a nested jobs=4 runner go parallel in this process?"""
    return GridRunner(jobs=4).parallel


def _nested_map(x):
    """A task that itself runs a runner — must degrade to inline."""
    return GridRunner(jobs=4).map(_square, [{"x": x}, {"x": x + 1}])


@pytest.fixture(scope="module")
def small_topology():
    return generate_cluster_topology(
        n_sites=20, clusters=PLANETLAB_CLUSTERS, seed=7
    )


class TestContentKey:
    def test_deterministic(self):
        a = content_key(x=1, y="s", z=(1.5, None))
        b = content_key(x=1, y="s", z=(1.5, None))
        assert a == b and len(a) == 64

    def test_order_insensitive_kwargs(self):
        assert content_key(a=1, b=2) == content_key(b=2, a=1)

    def test_distinguishes_values_and_types(self):
        keys = {
            content_key(x=1),
            content_key(x=2),
            content_key(x=1.0),
            content_key(x="1"),
            content_key(x=True),
            content_key(x=None),
        }
        assert len(keys) == 6

    def test_ndarray_and_nested_containers(self):
        arr = np.arange(6, dtype=np.float64)
        a = content_key(m={"arr": arr, "k": [1, 2]})
        b = content_key(m={"k": [1, 2], "arr": arr.copy()})
        assert a == b
        assert a != content_key(m={"arr": arr + 1, "k": [1, 2]})

    def test_rejects_unstable_types(self):
        with pytest.raises(TypeError):
            content_key(x=object())

    def test_topology_fingerprint_tracks_content(self, small_topology):
        fp = topology_fingerprint(small_topology)
        assert fp == topology_fingerprint(small_topology)
        recap = small_topology.with_capacities(
            np.full(small_topology.n_nodes, 0.5)
        )
        assert fp != topology_fingerprint(recap)

    def test_system_fingerprint_structural(self):
        assert system_fingerprint(
            majority(MajorityKind.QU, 2)
        ) == system_fingerprint(majority(MajorityKind.QU, 2))
        assert system_fingerprint(GridQuorumSystem(3)) != system_fingerprint(
            GridQuorumSystem(4)
        )


class TestResultCache:
    def test_roundtrip_and_stats(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = content_key(x=1)
        hit, _ = cache.lookup(key)
        assert not hit and cache.misses == 1
        cache.put(key, {"value": (1.5, "a")})
        hit, value = cache.lookup(key)
        assert hit and value == {"value": (1.5, "a")}
        assert cache.hits == 1 and cache.stores == 1
        assert len(cache) == 1

    @pytest.mark.parametrize(
        "garbage",
        [b"not a pickle", b"garbage\n", b"", b"\x80\x05corrupt"],
    )
    def test_corrupt_entry_is_miss(self, tmp_path, garbage):
        cache = ResultCache(tmp_path)
        key = content_key(x=1)
        cache.put(key, 42)
        cache.path_for(key).write_bytes(garbage)
        hit, _ = cache.lookup(key)
        assert not hit

    def test_flipped_payload_bit_is_a_counted_miss(self, tmp_path):
        """A flipped bit that still unpickles used to be served: this one
        turned 67.88 into 67.87999976."""
        cache = ResultCache(tmp_path)
        key = content_key(x=1)
        value = {"delay": np.array([67.88, 68.04])}
        cache.put(key, value)
        path = cache.path_for(key)
        entry = bytearray(path.read_bytes())
        at = entry.rindex(np.float64(67.88).tobytes()) + 2
        entry[at] ^= 0x01
        path.write_bytes(bytes(entry))
        with tracing(Tracer()) as tracer:
            hit, got = cache.lookup(key)
        assert not hit and got is None
        assert tracer.counters["cache.corrupt"] == 1
        assert tracer.counters["cache.miss"] == 1
        cache.put(key, value)  # the next put overwrites the corrupt entry
        hit, got = cache.lookup(key)
        assert hit and np.array_equal(got["delay"], value["delay"])

    @pytest.mark.parametrize("keep", [0, 5, 20, -1])
    def test_truncated_entry_is_a_miss(self, tmp_path, keep):
        cache = ResultCache(tmp_path)
        key = content_key(x=1)
        cache.put(key, {"delay": np.arange(64.0)})
        path = cache.path_for(key)
        path.write_bytes(path.read_bytes()[:keep])
        with tracing(Tracer()) as tracer:
            hit, _ = cache.lookup(key)
        assert not hit
        assert tracer.counters["cache.corrupt"] == 1

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(3):
            cache.put(content_key(x=i), i)
        assert cache.clear() == 3
        assert len(cache) == 0


class TestCacheEviction:
    @staticmethod
    def _backdate(cache, key, seconds_ago):
        import os

        path = cache.path_for(key)
        stamp = path.stat().st_mtime - seconds_ago
        os.utime(path, (stamp, stamp))

    def test_overfill_drops_oldest_entries(self, tmp_path):
        payload = b"x" * 1024  # ~1 KiB pickled payloads
        unbounded = ResultCache(tmp_path)
        keys = [content_key(x=i) for i in range(6)]
        for i, key in enumerate(keys):
            unbounded.put(key, payload)
            # entry i is i*10 seconds older than the newest
            self._backdate(unbounded, key, (len(keys) - i) * 10)
        total = unbounded.size_bytes()
        per_entry = total // len(keys)

        cache = ResultCache(tmp_path, max_size_bytes=3 * per_entry + 64)
        # construction already trims: the three oldest entries are gone,
        # the three newest survive
        assert len(cache) == 3
        for key in keys[:3]:
            hit, _ = cache.lookup(key)
            assert not hit
        for key in keys[3:]:
            hit, value = cache.lookup(key)
            assert hit and value == payload
        assert cache.evictions == 3
        assert cache.size_bytes() <= cache.max_size_bytes

    def test_put_triggers_trim(self, tmp_path):
        payload = b"y" * 2048
        probe = ResultCache(tmp_path)
        probe.put(content_key(probe=True), payload)
        per_entry = probe.size_bytes()
        probe.clear()

        cache = ResultCache(tmp_path, max_size_bytes=2 * per_entry + 64)
        keys = [content_key(x=i) for i in range(4)]
        for i, key in enumerate(keys):
            cache.put(key, payload)
            self._backdate(cache, key, (len(keys) - i) * 10)
        assert cache.size_bytes() <= cache.max_size_bytes
        hit, _ = cache.lookup(keys[0])
        assert not hit  # oldest evicted
        hit, _ = cache.lookup(keys[-1])
        assert hit  # newest kept

    def test_overwrite_does_not_inflate_size_estimate(self, tmp_path):
        """Regression: put() used to add every store's size without
        subtracting the overwritten entry, inflating the estimate."""
        payload = b"x" * 2048
        cache = ResultCache(tmp_path, max_size_bytes=1 << 20)
        key = content_key(x=1)
        for _ in range(5):
            cache.put(key, payload)
        assert len(cache) == 1
        assert cache._approx_size == cache.size_bytes()

    def test_overwrites_do_not_trigger_spurious_trims(self, tmp_path):
        payload = b"y" * 1024
        probe = ResultCache(tmp_path)
        probe.put(content_key(probe=True), payload)
        per_entry = probe.size_bytes()
        probe.clear()

        cache = ResultCache(tmp_path, max_size_bytes=3 * per_entry + 64)
        cache.put(content_key(a=1), payload)
        cache.put(content_key(b=2), payload)
        for _ in range(10):  # rewriting one key must not evict anything
            cache.put(content_key(c=3), payload)
        assert cache.evictions == 0
        assert len(cache) == 3

    def test_clear_resets_size_estimate(self, tmp_path):
        """Regression: clear() used to leave _approx_size at its old
        value, forcing early trims on every store afterwards."""
        cache = ResultCache(tmp_path, max_size_bytes=1 << 20)
        for i in range(4):
            cache.put(content_key(x=i), b"z" * 512)
        assert cache._approx_size > 0
        cache.clear()
        assert cache._approx_size == 0
        cache.put(content_key(y=1), b"z" * 512)
        assert cache._approx_size == cache.size_bytes()

    def test_equal_mtime_eviction_is_path_ordered(self, tmp_path):
        """Regression: trim sorted raw (mtime, size, path) tuples, so on
        equal mtimes — routine on coarse-mtime filesystems and bulk
        writes — the *smaller* entry of a tie was evicted first, making
        survival depend on payload size. Ties must break on path only:
        the lexicographically-first path is evicted first."""
        import os

        cache = ResultCache(tmp_path)
        keys = [content_key(payload="a"), content_key(payload="b")]
        keys.sort(key=cache.path_for)
        first_key, second_key = keys
        # Give the path-wise *first* entry the *larger* payload: the old
        # size-ordered sort would evict the small second entry instead,
        # so the two behaviors disagree about the victim.
        cache.put(first_key, b"x" * 8192)
        cache.put(second_key, b"x" * 512)
        stamp = cache.path_for(first_key).stat().st_mtime
        for key in keys:
            os.utime(cache.path_for(key), (stamp, stamp))

        cache.max_size_bytes = cache.size_bytes() - 1
        removed = cache.trim()
        assert removed == 1
        hit, _ = cache.lookup(first_key)
        assert not hit, "mtime tie must evict the earlier path"
        hit, _ = cache.lookup(second_key)
        assert hit, "mtime tie must keep the later path"

    def test_unbounded_cache_never_trims(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(5):
            cache.put(content_key(x=i), b"z" * 4096)
        assert cache.trim() == 0
        assert len(cache) == 5

    def test_invalid_budget_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(tmp_path, max_size_bytes=0)


class TestGridRunner:
    def test_serial_run_keyed_by_tag(self):
        points = [
            GridPoint(tag=f"p{i}", fn=_square, kwargs={"x": i})
            for i in range(5)
        ]
        assert GridRunner().run(points) == {
            f"p{i}": i * i for i in range(5)
        }

    def test_map_preserves_order(self):
        out = GridRunner().map(_square, [{"x": i} for i in (3, 1, 2)])
        assert out == [9, 1, 4]

    def test_duplicate_tags_rejected(self):
        points = [
            GridPoint(tag="dup", fn=_square, kwargs={"x": 1}),
            GridPoint(tag="dup", fn=_square, kwargs={"x": 2}),
        ]
        with pytest.raises(ReproError):
            GridRunner().run(points)
        with pytest.raises(ValueError):
            GridSpec(
                figure_id="f", points=tuple(points), assemble=lambda v: v
            )

    def test_parallel_matches_serial(self):
        points = [
            GridPoint(tag=i, fn=_square, kwargs={"x": i}) for i in range(8)
        ]
        assert GridRunner(jobs=2).run(points) == GridRunner().run(points)

    def test_worker_error_propagates_with_point_tag(self):
        """A failing point surfaces as ReproError naming its tag — on the
        serial path and from a pool worker alike — with the original
        exception chained as the cause."""
        with pytest.raises(ReproError, match="'boom'") as info:
            GridRunner().run([GridPoint(tag="boom", fn=_fail)])
        assert isinstance(info.value.__cause__, RuntimeError)
        with GridRunner(jobs=2) as runner:
            with pytest.raises(ReproError, match="'boom'") as info:
                runner.run(
                    [
                        GridPoint(tag="boom", fn=_fail),
                        GridPoint(tag="ok", fn=_square, kwargs={"x": 2}),
                    ]
                )
        assert isinstance(info.value.__cause__, RuntimeError)

    def test_failed_batch_cancels_queued_points(self):
        """After a point fails, still-queued points of the batch are
        cancelled (in-flight ones finish but are discarded)."""
        points = [GridPoint(tag="boom", fn=_fail)] + [
            GridPoint(tag=i, fn=_square, kwargs={"x": i}) for i in range(32)
        ]
        with GridRunner(jobs=2) as runner:
            with pytest.raises(ReproError, match="'boom'"):
                runner.run(points)
            # the pool stays usable for the next batch
            assert runner.map(_square, [{"x": 3}]) == [9]

    def test_dead_worker_does_not_poison_the_next_batch(self):
        """A worker that dies breaks its whole executor. The failed batch
        raises ReproError; the runner's next batch must run on a fresh
        pool and equal jobs=1, not raise BrokenProcessPool."""
        kwargs_list = [{"x": 2}, {"x": 3}]
        with GridRunner(jobs=2) as runner:
            with pytest.raises(ReproError):
                runner.map(_die, [{}])
            after = runner.map(_square, kwargs_list)
        assert after == GridRunner().map(_square, kwargs_list)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_results_finished_before_a_failure_reach_the_cache(
        self, tmp_path, jobs
    ):
        """Points completed before a later point fails are already
        stored, so a retry only recomputes what actually needs it."""
        cache = ResultCache(tmp_path)
        points = [
            GridPoint(
                tag=i, fn=_square, kwargs={"x": i}, cache_key={"x": i}
            )
            for i in range(4)
        ] + [GridPoint(tag="boom", fn=_fail)]
        with GridRunner(jobs=jobs, cache=cache) as runner:
            with pytest.raises(ReproError, match="'boom'"):
                runner.run(points)
        assert cache.stores == 4
        retry = ResultCache(tmp_path)
        rerun = GridRunner(cache=retry).run(points[:4])
        assert rerun == {i: i * i for i in range(4)}
        assert retry.hits == 4 and retry.stores == 0

    def test_cache_skips_work_and_stores(self, tmp_path):
        cache = ResultCache(tmp_path)
        points = [
            GridPoint(
                tag=i, fn=_square, kwargs={"x": i}, cache_key={"x": i}
            )
            for i in range(4)
        ]
        first = GridRunner(cache=cache).run(points)
        assert cache.stores == 4 and cache.hits == 0
        second = GridRunner(cache=cache).run(points)
        assert second == first
        assert cache.hits == 4 and cache.stores == 4

    def test_cache_filled_under_one_lp_backend_misses_under_the_other(
        self, tmp_path, monkeypatch
    ):
        """Degenerate LPs return backend-dependent vertices, so no backend
        may be served another's cached results."""
        monkeypatch.delenv(LP_BACKEND_ENV, raising=False)
        if lp_backend_name() == "scipy":
            pytest.skip("no HiGHS bindings: only one LP backend here")
        cache = ResultCache(tmp_path)
        points = [
            GridPoint(tag=0, fn=_square, kwargs={"x": 3}, cache_key={"x": 3})
        ]
        monkeypatch.setenv(LP_BACKEND_ENV, "scipy")
        GridRunner(cache=cache).run(points)
        monkeypatch.delenv(LP_BACKEND_ENV)
        GridRunner(cache=cache).run(points)
        assert cache.hits == 0 and cache.stores == 2
        monkeypatch.setenv(LP_BACKEND_ENV, "scipy")
        GridRunner(cache=cache).run(points)
        assert cache.hits == 1

    def test_replay_filled_under_one_lp_backend_misses_under_the_other(
        self, tmp_path, monkeypatch, clustered_topology
    ):
        """A dynamics segment key names no LP backend itself: the cache
        folds the solver identity into every key, replay points included."""
        monkeypatch.delenv(LP_BACKEND_ENV, raising=False)
        if lp_backend_name() == "scipy":
            pytest.skip("no HiGHS bindings: only one LP backend here")
        cache = ResultCache(tmp_path)
        trace = ScenarioTrace(clustered_topology.n_nodes, 3)

        def run():
            replay(
                clustered_topology, GridQuorumSystem(2), trace,
                policies=("static",), cache=cache,
            )

        monkeypatch.setenv(LP_BACKEND_ENV, "scipy")
        run()
        stored = cache.stores
        assert stored == 3  # one placement, static and clairvoyant
        monkeypatch.delenv(LP_BACKEND_ENV)
        run()
        assert cache.hits == 0 and cache.stores == 2 * stored
        monkeypatch.setenv(LP_BACKEND_ENV, "scipy")
        run()
        assert cache.hits == stored

    def test_cache_keys_track_the_solver_version(self, monkeypatch):
        name, version = cache_mod.lp_solver_identity()
        key = content_key(x=1)
        monkeypatch.setattr(
            cache_mod, "lp_solver_identity", lambda: (name, version + "+1")
        )
        assert content_key(x=1) != key

    def test_uncacheable_points_always_run(self, tmp_path):
        cache = ResultCache(tmp_path)
        points = [GridPoint(tag="a", fn=_square, kwargs={"x": 3})]
        for _ in range(2):
            assert GridRunner(cache=cache).run(points) == {"a": 9}
        assert cache.hits == cache.misses == cache.stores == 0

    def test_resolve_jobs(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1
        with pytest.raises(ReproError):
            resolve_jobs(-2)


class TestNestingGuard:
    """Runners nest; process pools must not.

    Pool workers are branded by an initializer, and any GridRunner used
    inside one runs its batches inline — so library code can thread a
    runner through unconditionally and a whole experiment stays on one
    pool.
    """

    def test_main_process_is_not_a_worker(self):
        assert GridRunner(jobs=2).parallel
        assert not GridRunner(jobs=1).parallel

    def test_workers_are_marked_and_degrade_to_inline(self):
        with GridRunner(jobs=2) as runner:
            states = runner.map(_worker_state, [{} for _ in range(3)])
        assert states == [False] * 3

    def test_nested_runner_inside_worker_produces_results(self):
        with GridRunner(jobs=2) as runner:
            out = runner.map(_nested_map, [{"x": i} for i in range(4)])
        assert out == [[i * i, (i + 1) * (i + 1)] for i in range(4)]

    def test_single_pending_point_still_dispatches_to_pool(self):
        """A lone point (e.g. the only cache miss of a grid) must not run
        inline in the main process: there, nested runners would go
        parallel and compute through a different code path than jobs=1,
        under a cache key that deliberately ignores scheduling."""
        with GridRunner(jobs=2) as runner:
            states = runner.map(_worker_state, [{}])
        assert states == [False]

    def test_pool_reused_across_batches(self, counting_pool):
        with GridRunner(jobs=2) as runner:
            first = runner.map(_square, [{"x": i} for i in range(4)])
            second = runner.map(_square, [{"x": i} for i in range(4, 8)])
        assert first == [i * i for i in range(4)]
        assert second == [i * i for i in range(4, 8)]
        assert len(counting_pool) == 1

    def test_close_is_idempotent_and_serial_runner_poolless(
        self, counting_pool
    ):
        runner = GridRunner()  # jobs=1 never touches a pool
        assert runner.map(_square, [{"x": 3}]) == [9]
        runner.close()
        runner.close()
        assert counting_pool == []

    def test_fig_8_9_single_pool_and_bit_identical(
        self, fast_figure, counting_pool
    ):
        """fig_8_9 --jobs N uses exactly one process pool (the inner
        best-placement searches run inline in its workers) and is
        bit-identical to jobs=1."""
        serial = fast_figure("fig_8_9")
        assert fast_figure.pools("fig_8_9") == 0  # jobs=1: poolless

        parallel = run_figure("fig_8_9", fast=True, jobs=2)
        assert len(counting_pool) == 1
        assert serial == parallel  # frozen dataclasses: full deep equality


class TestParallelEquivalence:
    """ISSUE satellite: jobs=2 must be bit-identical to serial."""

    @pytest.mark.parametrize(
        "figure_id", ["fig_6_3", "fig_throughput", "fig_scale"]
    )
    def test_figure_parallel_bit_identical(self, fast_figure, figure_id):
        serial = fast_figure(figure_id)
        parallel = run_figure(figure_id, fast=True, jobs=2)
        assert serial == parallel  # frozen dataclasses: full deep equality

    def test_fig_6_3_cached_bit_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = run_figure("fig_6_3", fast=True, cache=cache)
        assert cache.stores == len(fig_6_3.grid_spec(fast=True).points)
        second = run_figure("fig_6_3", fast=True, cache=cache)
        assert cache.hits == cache.stores
        # metadata["cache"] holds each run's own hit/miss counts.
        first.metadata.pop("cache")
        second.metadata.pop("cache")
        assert first == second

    def test_best_placement_duplicate_candidates_allowed(
        self, small_topology
    ):
        """Point tags carry (position, v0), so a duplicated candidate is
        evaluated twice rather than tripping the unique-tag check."""
        system = GridQuorumSystem(3)
        dup = best_placement(small_topology, system, candidates=[3, 3, 5])
        ref = best_placement(small_topology, system, candidates=[3, 5])
        assert dup.v0 == ref.v0
        assert dup.delays_by_candidate == ref.delays_by_candidate

    def test_duplicate_candidates_parallel(self, small_topology):
        """Duplicated v0s must survive the parallel fan-out too: tags
        stay unique (position, v0) and results match serial exactly."""
        system = GridQuorumSystem(3)
        serial = best_placement(
            small_topology, system, candidates=[5, 3, 3, 5, 3]
        )
        parallel = best_placement(
            small_topology, system, candidates=[5, 3, 3, 5, 3], jobs=2
        )
        assert serial.v0 == parallel.v0
        assert serial.delays_by_candidate == parallel.delays_by_candidate

    def test_non_contiguous_candidates_parallel(self, small_topology):
        """Candidate arrays arriving as views (strided slices, reversed
        ranges) must produce the same result serial and parallel."""
        system = GridQuorumSystem(3)
        strided = np.arange(small_topology.n_nodes)[::2]
        reversed_ = np.arange(small_topology.n_nodes)[::-1]
        for candidates in (strided, reversed_):
            assert not candidates.flags.c_contiguous
            serial = best_placement(
                small_topology, system, candidates=candidates
            )
            parallel = best_placement(
                small_topology, system, candidates=candidates, jobs=2
            )
            assert serial.v0 == parallel.v0
            assert serial.avg_network_delay == parallel.avg_network_delay
            assert (
                serial.delays_by_candidate == parallel.delays_by_candidate
            )

    def test_best_placement_parallel_identical(self, small_topology):
        for system in (GridQuorumSystem(3), majority(MajorityKind.BFT, 2)):
            serial = best_placement(small_topology, system)
            parallel = best_placement(small_topology, system, jobs=2)
            assert serial.v0 == parallel.v0
            assert serial.avg_network_delay == parallel.avg_network_delay
            assert serial.delays_by_candidate == parallel.delays_by_candidate
            assert np.array_equal(
                serial.placed.placement.assignment,
                parallel.placed.placement.assignment,
            )
