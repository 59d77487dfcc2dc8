"""Tests for the topology transport.

The contract under test: shipping a topology and resolving the handle —
in the publisher or in a worker, from an inherited registration or a
shared-memory block — yields the publisher's exact bytes, the per-point
payload shrinks from O(n^2) to O(1), and every fallback path (no shm,
``REPRO_NO_SHM``, serial runners) degrades to shipping the topology
itself with identical results.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import run_each

from repro.errors import ReproError, TopologyError
from repro.network.datasets import PLANETLAB_CLUSTERS
from repro.network.generators import generate_cluster_topology, synthetic_wan
from repro.network.graph import Topology
from repro.obs.tracer import Tracer, tracing
from repro.placement import hierarchical
from repro.placement.hierarchical import hierarchical_best_placement
from repro.placement.search import best_placement
from repro.quorums.grid import GridQuorumSystem
from repro.runtime import shm
from repro.runtime.cache import topology_fingerprint
from repro.runtime.runner import GridRunner
from repro.runtime.shm import (
    SHM_DISABLE_ENV,
    TopologyBroker,
    TopologyHandle,
    resolve_topology,
    shm_available,
)


@pytest.fixture(scope="module")
def topo():
    return generate_cluster_topology(
        n_sites=30, clusters=PLANETLAB_CLUSTERS, seed=11
    )


@pytest.fixture(scope="module")
def wan():
    """Past the hierarchical search's exact threshold: it clusters, then
    ships the topology twice (coarse, then refine stage)."""
    return synthetic_wan(300)


def _started_runner(jobs: int) -> GridRunner:
    """A runner whose pool already runs: what it ships needs a block."""
    runner = GridRunner(jobs=jobs)
    run_each(runner, os.getpid, [{} for _ in range(jobs)])
    return runner


class TestAdopt:
    def test_wraps_without_copy(self, topo):
        rtt = topo.rtt.copy()
        rtt.setflags(write=False)
        adopted = Topology.adopt(rtt, topo.names, topo.capacities)
        assert adopted.rtt is rtt
        assert np.array_equal(adopted.rtt, topo.rtt)
        assert adopted.names == topo.names

    def test_rejects_wrong_dtype(self, topo):
        with pytest.raises(TopologyError):
            Topology.adopt(
                topo.rtt.astype(np.float32), topo.names, topo.capacities
            )

    def test_rejects_shape_mismatch(self, topo):
        with pytest.raises(TopologyError):
            Topology.adopt(
                topo.rtt[:, :-1].copy(), topo.names, topo.capacities
            )
        with pytest.raises(TopologyError):
            Topology.adopt(topo.rtt, topo.names[:-1], topo.capacities)


class TestBroker:
    def test_roundtrip_is_bit_identical(self, topo):
        if not shm_available():
            pytest.skip("no shared memory on this platform")
        with TopologyBroker() as broker:
            handle = broker.publish(topo)
            assert isinstance(handle, TopologyHandle)
            # The publisher resolves its own handle to the original object.
            assert resolve_topology(handle) is topo
            # A cold attach (what a worker does) sees the exact bytes.
            shm._PUBLISHED.pop(handle.key, None)
            try:
                block, rebuilt = shm._attach(handle)
                try:
                    assert np.array_equal(rebuilt.rtt, topo.rtt)
                    assert rebuilt.names == topo.names
                    assert np.array_equal(
                        rebuilt.capacities, topo.capacities
                    )
                    # Zero-copy: the matrix aliases the block's buffer.
                    assert not rebuilt.rtt.flags.owndata
                    assert not rebuilt.rtt.flags.writeable
                finally:
                    del rebuilt
                    block.close()
            finally:
                shm._PUBLISHED[handle.key] = topo

    def test_handle_is_small_and_size_independent(self, topo):
        if not shm_available():
            pytest.skip("no shared memory on this platform")
        with TopologyBroker() as broker:
            handle = broker.publish(topo)
            payload = len(pickle.dumps(handle))
            matrix = len(pickle.dumps(topo))
            assert payload < 512
            assert payload < matrix / 10

    def test_publish_is_idempotent_per_content(self, topo):
        if not shm_available():
            pytest.skip("no shared memory on this platform")
        with TopologyBroker() as broker:
            first = broker.publish(topo)
            second = broker.publish(topo)
            assert first is second
            assert broker.published == (topology_fingerprint(topo),)

    def test_disable_env_forces_fallback(self, topo, monkeypatch):
        monkeypatch.setenv(SHM_DISABLE_ENV, "1")
        assert not shm_available()
        with TopologyBroker() as broker:
            assert broker.publish(topo) is topo

    def test_close_unlinks(self, topo):
        if not shm_available():
            pytest.skip("no shared memory on this platform")
        broker = TopologyBroker()
        handle = broker.publish(topo)
        broker.close()
        assert broker.published == ()
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=handle.shm_name)


class TestResolve:
    def test_topology_passes_through(self, topo):
        assert resolve_topology(topo) is topo

    def test_rejects_garbage(self):
        with pytest.raises(TypeError):
            resolve_topology("not a topology")


class TestRunnerIntegration:
    def test_serial_runner_ships_topology_itself(self, topo):
        with GridRunner(jobs=1) as runner:
            assert runner.ship(topo) is topo

    def test_parallel_runner_ships_handle(self, topo):
        if not shm_available():
            pytest.skip("no shared memory on this platform")
        with GridRunner(jobs=2) as runner:
            shipped = runner.ship(topo)
            assert isinstance(shipped, TopologyHandle)

    def test_ship_before_the_fork_registers_without_a_block(
        self, topo, monkeypatch
    ):
        """Workers forked after the ship inherit the registry: no hash,
        no block, and shipping again reuses the handle."""
        if not shm_available():
            pytest.skip("no shared memory on this platform")
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("workers inherit the registry only when forked")

        def no_hash(topology):
            raise AssertionError("an inherited ship hashed the topology")

        monkeypatch.setattr(shm, "topology_fingerprint", no_hash)
        with GridRunner(jobs=2) as runner:
            shipped = runner.ship(topo)
            assert shipped.shm_name is None
            assert runner.ship(topo) is shipped
            assert runner.broker.published == ()
            assert resolve_topology(shipped) is topo
        with pytest.raises(ReproError, match="not registered"):
            resolve_topology(shipped)

    def test_ship_to_running_workers_makes_one_block(self, topo):
        if not shm_available():
            pytest.skip("no shared memory on this platform")
        with _started_runner(2) as runner:
            shipped = runner.ship(topo)
            assert shipped.shm_name is not None
            assert runner.ship(topo) is shipped
            assert runner.broker.published == (topology_fingerprint(topo),)

    def test_search_identical_through_workers(self, topo):
        """jobs=2 fans candidates out with handles; results must match
        the serial search on the original object exactly."""
        system = GridQuorumSystem(3)
        serial = best_placement(topo, system)
        parallel = best_placement(topo, system, jobs=2)
        assert serial.v0 == parallel.v0
        assert serial.avg_network_delay == parallel.avg_network_delay
        assert serial.delays_by_candidate == parallel.delays_by_candidate

    def test_search_identical_with_shm_disabled(self, topo, monkeypatch):
        """The pickle fallback is slower, never different."""
        system = GridQuorumSystem(3)
        baseline = best_placement(topo, system)
        monkeypatch.setenv(SHM_DISABLE_ENV, "1")
        fallback = best_placement(topo, system, jobs=2)
        assert baseline.v0 == fallback.v0
        assert baseline.delays_by_candidate == fallback.delays_by_candidate


# ---------------------------------------------------------------------------
# One transport matrix: jobs=2 over every transport gives jobs=1's bits
# ---------------------------------------------------------------------------
TRANSPORTS = ("inherited", "block", "pickle")


def _assert_same_search(result, ref):
    assert result.v0 == ref.v0
    assert (
        np.float64(result.avg_network_delay).tobytes()
        == np.float64(ref.avg_network_delay).tobytes()
    )
    assert list(result.delays_by_candidate) == list(ref.delays_by_candidate)
    assert (
        np.asarray(list(result.delays_by_candidate.values())).tobytes()
        == np.asarray(list(ref.delays_by_candidate.values())).tobytes()
    )
    assert np.array_equal(
        result.placed.placement.assignment, ref.placed.placement.assignment
    )


def _assert_transport(counters: dict, transport: str) -> None:
    """The shared-memory counters of the transport that carried a search."""
    if transport == "inherited":
        assert not {"shm.publish", "shm.attach", "shm.fallback"} & set(
            counters
        )
    elif transport == "block":
        assert counters.get("shm.publish") == 1
        assert counters.get("shm.attach", 0) >= 1
        assert "shm.fallback" not in counters
    else:
        assert counters.get("shm.fallback", 0) >= 1
        assert not {"shm.publish", "shm.attach"} & set(counters)


@pytest.fixture()
def transport(request, monkeypatch):
    if request.param != "pickle" and not shm_available():
        pytest.skip("no shared memory on this platform")
    if (
        request.param == "inherited"
        and multiprocessing.get_start_method() != "fork"
    ):
        pytest.skip("workers inherit the registry only when forked")
    if request.param == "pickle":
        monkeypatch.setenv(SHM_DISABLE_ENV, "1")
    return request.param


@pytest.mark.parametrize("transport", TRANSPORTS, indirect=True)
class TestTransportMatrix:
    def test_best_placement(self, topo, transport):
        system = GridQuorumSystem(3)
        serial = best_placement(topo, system)
        tracer = Tracer()
        with tracing(tracer):
            if transport == "block":
                with _started_runner(2) as runner:
                    parallel = best_placement(topo, system, runner=runner)
            else:
                parallel = best_placement(topo, system, jobs=2)
        _assert_same_search(parallel, serial)
        _assert_transport(tracer.export()[1], transport)

    def test_hierarchical_best_placement(self, wan, transport, monkeypatch):
        system = GridQuorumSystem(3)
        serial = hierarchical_best_placement(wan, system)
        assert not serial.exhaustive
        if transport == "block":
            monkeypatch.setattr(hierarchical, "GridRunner", _started_runner)
        owned = []
        publish = shm.TopologyBroker.publish

        def spy(self, topology, **kwargs):
            shipped = publish(self, topology, **kwargs)
            owned.append(self.published)
            return shipped

        monkeypatch.setattr(shm.TopologyBroker, "publish", spy)
        tracer = Tracer()
        with tracing(tracer):
            parallel = hierarchical_best_placement(wan, system, jobs=2)
        _assert_same_search(parallel, serial)
        assert parallel.medoids == serial.medoids
        assert parallel.refined_clusters == serial.refined_clusters
        _assert_transport(tracer.export()[1], transport)
        # Both stages ship; a search that forks its own pool afterwards
        # leaves its broker owning no block.
        assert len(owned) == 2
        if transport == "inherited":
            assert owned == [(), ()]


# ---------------------------------------------------------------------------
# Blocks published after the pool forked: one resource tracker
# ---------------------------------------------------------------------------
_TRACKER_SCRIPT = """
import json
import os

import numpy as np

from repro.errors import ReproError
from repro.network.generators import synthetic_wan
from repro.placement.search import best_placement
from repro.quorums.grid import GridQuorumSystem
from repro.runtime.grid import GridPoint
from repro.runtime.runner import GridRunner


def crash():
    os._exit(1)


def digest(result):
    delays = np.asarray(list(result.delays_by_candidate.values()))
    return [result.v0, delays.tobytes().hex()]


if __name__ == "__main__":
    topology = synthetic_wan(300)
    system = GridQuorumSystem(3)
    candidates = np.arange(0, 300, 7)
    runner = GridRunner(jobs=2)
    # the pool forks before any block
    runner.run([GridPoint(tag=i, fn=os.getpid) for i in range(2)])
    assert runner.ship(topology).shm_name is not None
    search = best_placement(
        topology, system, candidates=candidates, runner=runner
    )
    try:
        runner.run([GridPoint(tag="crash", fn=crash)])
    except ReproError:
        pass
    else:
        raise SystemExit("the crashed worker went unnoticed")
    after = best_placement(
        topology, system, candidates=candidates, runner=runner
    )
    runner.close()
    serial = best_placement(topology, system, candidates=candidates)
    print(json.dumps([digest(r) for r in (serial, search, after)]))
"""


def test_block_published_after_the_fork_is_tracked_once(
    tmp_path, monkeypatch
):
    """Workers forked before the first block share the parent's resource
    tracker: no worker's tracker reports the runner's block as leaked or
    unlinks it, not even a crashed one's, and every search (one after
    the crash included) equals the serial one."""
    if not shm_available():
        pytest.skip("no shared memory on this platform")
    import repro

    script = tmp_path / "tracker.py"
    script.write_text(_TRACKER_SCRIPT)
    monkeypatch.setenv(
        "PYTHONPATH", str(Path(repro.__file__).resolve().parents[1])
    )
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "resource_tracker" not in proc.stderr
    assert "Traceback" not in proc.stderr
    serial, search, after = json.loads(proc.stdout)
    assert search == serial
    assert after == serial
