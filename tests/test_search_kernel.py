"""Bit-identity of the best-``v0`` block kernel against a per-candidate
reference.

:func:`~repro.placement.search.best_placement` scores a block of candidate
``v0`` nodes from a few array passes: every ball ``B(v0, n)`` at once
(k-th smallest distance, ties by node id), then sorted order statistics for
thresholds, or an element-table running max plus the uniform-strategy
``einsum`` for enumerable systems. The reference below is the formulation
the search used before, one candidate at a time: build the placement with
``one_to_one_placement``, wrap it in a ``PlacedQuorumSystem`` and call
``average_network_delay`` under ``uniform_strategy_for``; then scan the
delays in candidate order, first minimum wins. Every candidate delay and
every :class:`~repro.placement.search.PlacementSearchResult` field must
equal it byte for byte: the kernel hands ``einsum``/``@`` the operands the
reference does, so any difference — even one ulp — is a bug.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import response_time
from repro.core.placement import PlacedQuorumSystem
from repro.core.response_time import average_network_delay
from repro.errors import PlacementError, ReproError
from repro.network.generators import synthetic_wan
from repro.network.graph import Topology
from repro.placement import search
from repro.placement.one_to_one import hosting_capacity, one_to_one_placement
from repro.placement.search import (
    PlacementSearchResult,
    best_placement,
    uniform_strategy_for,
)
from repro.quorums.base import EnumeratedQuorumSystem
from repro.quorums.grid import GridQuorumSystem, RectangularGridQuorumSystem
from repro.quorums.singleton import SingletonQuorumSystem
from repro.quorums.threshold import (
    MajorityKind,
    ThresholdQuorumSystem,
    majority,
)
from repro.runtime.shm import SHM_DISABLE_ENV


# ---------------------------------------------------------------------------
# Reference implementation (one placement, one evaluate per candidate)
# ---------------------------------------------------------------------------
def reference_candidate_delay(topology, system, v0):
    placement = one_to_one_placement(topology, system, v0)
    placed = PlacedQuorumSystem(system, placement, topology)
    return average_network_delay(placed, uniform_strategy_for(placed))


def reference_best_placement(topology, system, candidates=None):
    v0s = (
        range(topology.n_nodes)
        if candidates is None
        else [int(v0) for v0 in candidates]
    )
    best_v0, best_delay = -1, np.inf
    delays: dict[int, float] = {}
    for v0 in v0s:
        delay = reference_candidate_delay(topology, system, v0)
        delays[v0] = delay
        if delay < best_delay:
            best_v0, best_delay = v0, delay
    if best_v0 < 0:
        raise PlacementError("no candidate has a finite delay")
    placement = one_to_one_placement(topology, system, best_v0)
    return PlacementSearchResult(
        placed=PlacedQuorumSystem(system, placement, topology),
        v0=best_v0,
        avg_network_delay=best_delay,
        delays_by_candidate=delays,
    )


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def assert_identical(result, ref):
    """Every field of two search results, floats compared as bytes."""
    assert type(result.v0) is int and result.v0 == ref.v0
    assert type(result.avg_network_delay) is float
    assert _bits(result.avg_network_delay) == _bits(ref.avg_network_delay)
    assert list(result.delays_by_candidate) == list(ref.delays_by_candidate)
    assert _bits(list(result.delays_by_candidate.values())) == _bits(
        list(ref.delays_by_candidate.values())
    )
    assert result.placed.system is ref.placed.system
    assert result.placed.topology is ref.placed.topology
    assert np.array_equal(
        result.placed.placement.assignment, ref.placed.placement.assignment
    )


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------
SYSTEMS = {
    "3-of-5": ThresholdQuorumSystem(5, 3),
    "5-of-9": ThresholdQuorumSystem(9, 5),
    "11-of-21": ThresholdQuorumSystem(21, 11),
    "qu-t1": majority(MajorityKind.QU, 1),
    "qu-t2": majority(MajorityKind.QU, 2),
    "grid-3": GridQuorumSystem(3),
    "grid-5": GridQuorumSystem(5),
    "grid-2x4": RectangularGridQuorumSystem(2, 4),
    "grid-4x3": RectangularGridQuorumSystem(4, 3),
    "singleton": SingletonQuorumSystem(),
    # Uneven quorum sizes (padded element table) and an element that only
    # one quorum contains.
    "enumerated": EnumeratedQuorumSystem(
        [{0, 1}, {0, 2}, {1, 2}, {0, 1, 2, 3}], name="enumerated"
    ),
}


def _tie_topology(n_nodes: int = 40) -> Topology:
    """Integer RTTs in {1, 2, 3}: nearly every ball boundary is a tie."""
    rng = np.random.default_rng(5)
    rtt = rng.integers(1, 4, size=(n_nodes, n_nodes)).astype(np.float64)
    np.fill_diagonal(rtt, 0.0)
    return Topology(rtt)


@pytest.fixture(scope="module")
def topologies(planetlab, daxlist):
    return {
        "planetlab-50": planetlab,
        "daxlist-161": daxlist,
        "wan-500": synthetic_wan(500),
        "ties-40": _tie_topology(),
    }


def _candidates(topology):
    """Every node, except a spread of 60 on the 500-site WAN (runtime)."""
    if topology.n_nodes <= 200:
        return None
    return np.arange(0, topology.n_nodes, topology.n_nodes // 60)


# ---------------------------------------------------------------------------
# Bit identity
# ---------------------------------------------------------------------------
class TestBitIdentity:
    @pytest.mark.parametrize(
        "topology_name", ["planetlab-50", "daxlist-161", "wan-500", "ties-40"]
    )
    @pytest.mark.parametrize("system_name", sorted(SYSTEMS))
    def test_every_candidate_and_field(
        self, topologies, topology_name, system_name
    ):
        topology, system = topologies[topology_name], SYSTEMS[system_name]
        candidates = _candidates(topology)
        result = best_placement(topology, system, candidates=candidates)
        ref = reference_best_placement(topology, system, candidates)
        assert_identical(result, ref)

    @pytest.mark.parametrize(
        "system_name", ["3-of-5", "5-of-9", "grid-3", "grid-4x3", "enumerated"]
    )
    def test_non_uniform_capacities(self, topologies, system_name):
        system = SYSTEMS[system_name]
        for name in ("planetlab-50", "ties-40"):
            topology = topologies[name]
            caps = np.random.default_rng(3).uniform(0.3, 1.0, topology.n_nodes)
            capped = topology.with_capacities(caps)
            result = best_placement(capped, system)
            ref = reference_best_placement(capped, system)
            assert_identical(result, ref)
            bound = hosting_capacity(system)
            hosts = result.placed.placement.assignment
            assert np.all(capped.capacities[hosts] >= bound)

    @pytest.mark.parametrize("system_name", ["5-of-9", "grid-3"])
    def test_duplicate_and_non_contiguous_candidates(
        self, planetlab, system_name
    ):
        system = SYSTEMS[system_name]
        for candidates in (
            np.array([7, 3, 7, 7, 12, 3, 40, 12, 12, 0]),
            np.arange(planetlab.n_nodes)[::-3],
            np.arange(2 * planetlab.n_nodes).reshape(-1, 2)[:25, 1] % 50,
        ):
            result = best_placement(planetlab, system, candidates=candidates)
            ref = reference_best_placement(planetlab, system, candidates)
            assert_identical(result, ref)

    def test_fewer_candidates_than_blocks(self, planetlab):
        for candidates in ([17], [17, 4], list(range(9))):
            for system in (SYSTEMS["3-of-5"], SYSTEMS["grid-3"]):
                result = best_placement(
                    planetlab, system, candidates=candidates
                )
                ref = reference_best_placement(planetlab, system, candidates)
                assert_identical(result, ref)


class TestExecution:
    """jobs 1/2 and shm/pickle transport all agree with the reference."""

    @pytest.mark.parametrize("shm", [True, False])
    @pytest.mark.parametrize("system_name", ["11-of-21", "grid-5"])
    def test_jobs_and_transport(
        self, daxlist, monkeypatch, shm, system_name
    ):
        if not shm:
            monkeypatch.setenv(SHM_DISABLE_ENV, "1")
        system = SYSTEMS[system_name]
        ref = reference_best_placement(daxlist, system)
        for jobs in (1, 2):
            result = best_placement(daxlist, system, jobs=jobs)
            assert_identical(result, ref)


class TestWinnerCheck:
    def test_search_evaluates_only_the_winner(self, planetlab, monkeypatch):
        """One ``evaluate`` per search, not one per candidate."""
        calls = []
        original = response_time.evaluate

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(response_time, "evaluate", counting)
        result = best_placement(planetlab, GridQuorumSystem(3))
        assert len(calls) == 1
        assert np.array_equal(
            calls[0].placement.assignment, result.placed.placement.assignment
        )

    def test_kernel_disagreement_fails_loudly(self, planetlab, monkeypatch):
        """A kernel delay one ulp off the winner's evaluation is an error,
        never a served answer."""
        original = search._block_delays

        def off_by_one_ulp(*args, **kwargs):
            delays = original(*args, **kwargs)
            return np.nextafter(delays, np.inf)

        monkeypatch.setattr(search, "_block_delays", off_by_one_ulp)
        with pytest.raises(PlacementError, match="block kernel scored"):
            best_placement(planetlab, ThresholdQuorumSystem(5, 3))


# ---------------------------------------------------------------------------
# Property: random small integer-RTT topologies
# ---------------------------------------------------------------------------
@st.composite
def _instances(draw):
    n_nodes = draw(st.integers(2, 12))
    # Without metric closure, off-diagonal zeros are legal RTTs: a ball's
    # nearest node need not be its own centre, and ties at distance 0
    # break by node id too. With closure a zero would mean "no edge".
    closure = draw(st.booleans())
    weights = draw(
        st.lists(
            st.integers(1 if closure else 0, 4),
            min_size=n_nodes * n_nodes,
            max_size=n_nodes * n_nodes,
        )
    )
    rtt = np.asarray(weights, dtype=np.float64).reshape(n_nodes, n_nodes)
    np.fill_diagonal(rtt, 0.0)
    caps = draw(
        st.lists(
            st.sampled_from([0.2, 0.6, 1.0]),
            min_size=n_nodes,
            max_size=n_nodes,
        )
    )
    topology = Topology(rtt, capacities=caps, metric_closure=closure)
    kind = draw(st.sampled_from(["threshold", "grid", "singleton"]))
    if kind == "threshold":
        n = draw(st.integers(1, n_nodes))
        system = ThresholdQuorumSystem(n, draw(st.integers(n // 2 + 1, n)))
    elif kind == "grid":
        rows = draw(st.integers(1, 3))
        cols = draw(st.integers(1, max(1, min(3, n_nodes // rows))))
        system = RectangularGridQuorumSystem(rows, cols)
    else:
        system = SingletonQuorumSystem()
    candidates = draw(
        st.none()
        | st.lists(st.integers(0, n_nodes - 1), min_size=1, max_size=15)
    )
    return topology, system, candidates


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_instances())
def test_kernel_matches_reference_on_random_integer_topologies(instance):
    topology, system, candidates = instance
    kwargs = {"candidates": candidates}
    try:
        ref = reference_best_placement(topology, system, **kwargs)
    except ReproError:  # too few (eligible) nodes: ball() fails per candidate
        with pytest.raises(
            PlacementError,
            match="hosting nodes|elements but the topology has only",
        ):
            best_placement(topology, system, **kwargs)
        return
    assert_identical(best_placement(topology, system, **kwargs), ref)


# ---------------------------------------------------------------------------
# Property: Grid quorum delays from row and column maxima
# ---------------------------------------------------------------------------
@st.composite
def _grid_instances(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    n_nodes = rows * cols + draw(st.integers(0, 4))
    # RTTs in {1, 2, 3}: nearly every ball boundary and every quorum
    # maximum is a tie.
    weights = draw(
        st.lists(
            st.integers(1, 3),
            min_size=n_nodes * n_nodes,
            max_size=n_nodes * n_nodes,
        )
    )
    rtt = np.asarray(weights, dtype=np.float64).reshape(n_nodes, n_nodes)
    np.fill_diagonal(rtt, 0.0)
    candidates = draw(
        st.none()
        | st.lists(st.integers(0, n_nodes - 1), min_size=1, max_size=8)
    )
    return Topology(rtt), RectangularGridQuorumSystem(rows, cols), candidates


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_grid_instances())
def test_grid_maxima_match_slot_loop_and_reference(instance):
    """The Grid path gives the slot loop's quorum delays and the
    per-candidate reference's search result, bit for bit."""
    topology, system, candidates = instance
    v0s = search._candidate_ids(topology, candidates)
    eligible = search._hosting_nodes(topology, system)
    assignments = search._assignments(topology.rtt, system, eligible, v0s)
    rows = np.take(topology.rtt, assignments.ravel(), axis=0)
    table, _ = system.element_table
    grid = search._grid_maxima(rows, system)
    slots = search._slot_maxima(rows, table, system.universe_size)
    assert grid.shape == slots.shape
    assert grid.tobytes() == slots.tobytes()
    assert_identical(
        best_placement(topology, system, candidates=candidates),
        reference_best_placement(topology, system, candidates),
    )


# ---------------------------------------------------------------------------
# Property: the comparator network orders like np.sort
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("n", range(1, search._NETWORK_MAX_N + 1))
def test_sorting_network_sorts_every_zero_one_input(n):
    """The 0-1 principle: a comparator network that sorts every 0/1
    sequence sorts every sequence."""
    inputs = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    wires = list(inputs.T)
    for i, j in search._sorting_network(n):
        assert i < j
        wires[i], wires[j] = (
            np.minimum(wires[i], wires[j]),
            np.maximum(wires[i], wires[j]),
        )
    assert np.array_equal(np.stack(wires, axis=1), np.sort(inputs, axis=1))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, search._NETWORK_MAX_N + 3),
    st.integers(1, 5),
    st.data(),
)
def test_sorted_distances_match_np_sort(c, n, clients, data):
    """Both branches, on values with ties and zeros: same bits and the
    C-contiguous ``(c, clients, n)`` layout of the transposed sort."""
    values = data.draw(
        st.lists(
            st.sampled_from([0.0, 0.5, 1.0, 2.5, 7.0])
            | st.floats(0.0, 500.0, allow_nan=False, allow_infinity=False),
            min_size=c * n * clients,
            max_size=c * n * clients,
        )
    )
    rows = np.asarray(values, dtype=np.float64).reshape(c * n, clients)
    expected = np.sort(rows.reshape(c, n, clients).transpose(0, 2, 1), axis=2)
    got = search._sorted_distances(rows.copy(), n)
    assert got.shape == (c, clients, n)
    assert got.flags.c_contiguous
    assert got.tobytes() == expected.tobytes()
