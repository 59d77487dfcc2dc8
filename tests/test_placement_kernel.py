"""Bit-identity of the (4.1) evaluation kernel against a per-quorum reference.

:class:`~repro.core.placement.PlacedQuorumSystem` evaluates every
equation-(4.1) max on the placement's support columns with one running
``np.maximum`` per quorum slot, counts incidences with one ``bincount``, and
reuses the cached network-delay matrix when queueing costs vanish. The
reference below is the straightforward per-quorum formulation — distinct
placed nodes via ``np.unique`` per quorum, a Python incidence loop, and a
masked (clients, quorums, slots) gather over the full RTT matrix — and every
kernel output must equal it byte for byte: max and counting are exact, so
any difference is a bug, not rounding.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.placement import PlacedQuorumSystem, Placement
from repro.core.response_time import evaluate
from repro.core.strategy import (
    ExplicitStrategy,
    ThresholdBalancedStrategy,
    ThresholdClosestStrategy,
)
from repro.network.graph import Topology
from repro.quorums.base import EnumeratedQuorumSystem
from repro.quorums.grid import GridQuorumSystem, RectangularGridQuorumSystem
from repro.quorums.threshold import ThresholdQuorumSystem


# ---------------------------------------------------------------------------
# Reference implementation (per-quorum, masked gather over all nodes)
# ---------------------------------------------------------------------------
def reference_placed_quorums(placed):
    assignment = placed.placement.assignment
    return [
        np.unique(assignment[np.fromiter(q, dtype=np.intp)])
        for q in placed.system.quorums
    ]


def reference_incidence_counts(placed):
    assignment = placed.placement.assignment
    a = np.zeros((placed.num_quorums, placed.n_nodes), dtype=np.float64)
    for i, quorum in enumerate(placed.system.quorums):
        for u in quorum:
            a[i, assignment[u]] += 1.0
    return a


def reference_max_over_quorums(placed, values):
    nodes = reference_placed_quorums(placed)
    k_max = max(q.size for q in nodes)
    idx = np.zeros((len(nodes), k_max), dtype=np.intp)
    mask = np.zeros((len(nodes), k_max), dtype=bool)
    for i, q in enumerate(nodes):
        idx[i, : q.size] = q
        mask[i, : q.size] = True
    n, m = values.shape[0], len(nodes)
    out = np.empty((n, m))
    chunk = max(1, 2_000_000 // max(1, n * k_max))
    for start in range(0, m, chunk):
        sl = slice(start, min(start + chunk, m))
        gathered = values[:, idx[sl]]
        out[:, sl] = np.where(mask[sl][None, :, :], gathered, -np.inf).max(
            axis=2
        )
    return out


def per_slot_max_over_quorums(placed, values, budget=2_000_000):
    """The kernel before the one-gather form: one running ``np.maximum``
    per quorum slot over (clients, chunk) blocks."""
    slots = placed._quorum_slots
    n, m = values.shape[0], slots.shape[1]
    out = np.empty((n, m))
    chunk = max(1, budget // max(1, n))
    for start in range(0, m, chunk):
        cols = slots[:, start : start + chunk]
        block = out[:, start : start + chunk]
        np.take(values, cols[0], axis=1, out=block)
        for slot in cols[1:]:
            np.maximum(block, values[:, slot], out=block)
    return out


def reference_augmented(placed, costs):
    return reference_max_over_quorums(
        placed, placed.topology.rtt + costs[None, :]
    )


def reference_delay_matrix_for(placed, rtt):
    return reference_max_over_quorums(placed, np.asarray(rtt, dtype=np.float64))


def reference_evaluate(placed, strategy, alpha, clients):
    """Equations (4.1)-(4.2), both components evaluated from scratch."""
    idx = (
        np.arange(placed.n_nodes)
        if clients is None
        else np.asarray(clients, dtype=np.intp)
    )
    if isinstance(strategy, ExplicitStrategy):
        p = strategy.matrix
        loads = p.mean(axis=0) @ reference_incidence_counts(placed)

        def respond(costs):
            rho = reference_augmented(placed, costs)
            return np.einsum("vi,vi->v", p[idx], rho[idx])

    else:
        loads = strategy.node_loads(placed)

        def respond(costs):
            return strategy.expected_response_times(placed, costs, idx)

    response = respond(alpha * loads)
    network = respond(np.zeros(placed.n_nodes))
    return {
        "avg_response_time": float(response.mean()),
        "avg_network_delay": float(network.mean()),
        "per_client_response": response,
        "per_client_network_delay": network,
        "node_loads": loads,
        "alpha": float(alpha),
        "clients": idx,
    }


def assert_bits_equal(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# Generated cases
# ---------------------------------------------------------------------------
@st.composite
def quorum_systems(draw):
    kind = draw(st.sampled_from(["grid", "rectangular", "threshold", "custom"]))
    if kind == "grid":
        return GridQuorumSystem(draw(st.integers(1, 3)))
    if kind == "rectangular":
        return RectangularGridQuorumSystem(
            draw(st.integers(1, 4)), draw(st.integers(1, 4))
        )
    if kind == "threshold":
        n = draw(st.integers(1, 7))
        return ThresholdQuorumSystem(n, draw(st.integers(n // 2 + 1, n)))
    # Variable-size quorums, each a strict majority (so they pairwise
    # intersect) and otherwise arbitrary, so short rows get padded.
    universe = draw(st.integers(1, 7))
    majority = st.sets(
        st.integers(0, universe - 1), min_size=universe // 2 + 1
    )
    quorums = draw(st.lists(majority, min_size=1, max_size=6))
    return EnumeratedQuorumSystem(quorums, universe_size=universe)


@st.composite
def placed_systems(draw):
    """(placed, rng): a random system on a random topology, 1:1 or many:1."""
    system = draw(quorum_systems())
    u = system.universe_size
    one_to_one = draw(st.booleans())
    n_nodes = draw(st.integers(u if one_to_one else 1, u + 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.uniform(0.0, 100.0, size=(n_nodes, n_nodes))
    if draw(st.booleans()):
        raw = np.round(raw / 25.0) * 25.0  # coarse values: many exact ties
    raw = raw + raw.T
    np.fill_diagonal(raw, 0.0)
    topology = Topology(raw, metric_closure=draw(st.booleans()))
    if one_to_one:
        assignment = rng.permutation(n_nodes)[:u]
    else:
        assignment = rng.integers(0, n_nodes, size=u)
    return PlacedQuorumSystem(system, Placement(assignment), topology), rng


def cost_vector(draw, placed, rng):
    """Zero, positive, or zero-on-the-support-only node costs."""
    kind = draw(st.sampled_from(["zero", "positive", "off_support"]))
    if kind == "zero":
        return np.zeros(placed.n_nodes)
    costs = rng.uniform(0.0, 50.0, size=placed.n_nodes)
    if kind == "off_support":
        costs[placed.placement.support_set] = 0.0
    return costs


def client_set(draw, placed, rng):
    if draw(st.booleans()):
        return None
    size = draw(st.integers(1, placed.n_nodes))
    return rng.choice(placed.n_nodes, size=size, replace=draw(st.booleans()))


def strategies_for(placed, rng):
    out = [
        ExplicitStrategy.uniform(placed),
        ExplicitStrategy.closest(placed),
        ExplicitStrategy(
            rng.dirichlet(np.ones(placed.num_quorums), size=placed.n_nodes)
        ),
    ]
    if placed.is_threshold and placed.placement.is_one_to_one:
        out += [ThresholdClosestStrategy(), ThresholdBalancedStrategy()]
    return out


# ---------------------------------------------------------------------------
# Pins
# ---------------------------------------------------------------------------
@given(placed_systems(), st.data())
@settings(max_examples=150, deadline=None)
def test_delay_matrices_bit_identical(case, data):
    placed, rng = case
    assert_bits_equal(
        placed.delay_matrix,
        reference_max_over_quorums(placed, placed.topology.rtt),
    )
    costs = cost_vector(data.draw, placed, rng)
    assert_bits_equal(
        placed.augmented_delay_matrix(costs), reference_augmented(placed, costs)
    )
    drifted = placed.topology.rtt * rng.uniform(
        0.5, 1.5, size=placed.topology.rtt.shape
    )
    assert_bits_equal(
        placed.delay_matrix_for(drifted),
        reference_delay_matrix_for(placed, drifted),
    )


@given(placed_systems())
@settings(max_examples=150, deadline=None)
def test_incidence_bit_identical(case):
    placed, _ = case
    assert_bits_equal(placed.incidence_counts, reference_incidence_counts(placed))


@given(placed_systems(), st.data())
@settings(max_examples=150, deadline=None)
def test_evaluate_bit_identical(case, data):
    placed, rng = case
    alpha = data.draw(st.sampled_from([0.0, 0.7, 112.0]), label="alpha")
    clients = client_set(data.draw, placed, rng)
    for strategy in strategies_for(placed, rng):
        result = evaluate(placed, strategy, alpha=alpha, clients=clients)
        expected = reference_evaluate(placed, strategy, alpha, clients)
        for field, value in expected.items():
            assert_bits_equal(getattr(result, field), value)


def test_chunked_enumerated_threshold_bit_identical():
    """24310 quorums x 100 clients spans two chunks of the slot max."""
    system = ThresholdQuorumSystem(17, 9)
    rng = np.random.default_rng(7)
    raw = rng.uniform(0.0, 100.0, size=(100, 100))
    raw = raw + raw.T
    np.fill_diagonal(raw, 0.0)
    topology = Topology(raw, metric_closure=False)
    placed = PlacedQuorumSystem(
        system, Placement(rng.integers(0, 100, size=17)), topology
    )
    costs = rng.uniform(0.0, 50.0, size=100)
    assert_bits_equal(
        placed.augmented_delay_matrix(costs), reference_augmented(placed, costs)
    )
    assert_bits_equal(placed.incidence_counts, reference_incidence_counts(placed))


@pytest.mark.parametrize("budget", [1, 700, 9_000, 2_000_000])
def test_gathered_max_matches_the_per_slot_kernel(monkeypatch, budget):
    """126 enumerated 5-of-9 quorums over 20 clients: budgets of one
    quorum per chunk, 7, 90 and all of them."""
    monkeypatch.setattr(PlacedQuorumSystem, "_GATHER_BUDGET", budget)
    system = EnumeratedQuorumSystem(ThresholdQuorumSystem(9, 5).quorums)
    rng = np.random.default_rng(11)
    raw = np.round(rng.uniform(0.0, 100.0, size=(20, 20)) / 10.0) * 10.0
    raw = raw + raw.T
    np.fill_diagonal(raw, 0.0)
    topology = Topology(raw, metric_closure=False)
    placed = PlacedQuorumSystem(
        system, Placement(rng.integers(0, 20, size=9)), topology
    )
    drifted = raw * rng.uniform(0.5, 1.5, size=raw.shape)
    costs = rng.uniform(0.0, 50.0, size=20)
    support = placed.placement.support_set
    for values in (
        topology.rtt[:, support],
        drifted[:, support] + costs[support],
    ):
        assert_bits_equal(
            placed._max_over_quorums(values),
            per_slot_max_over_quorums(placed, values),
        )
    assert_bits_equal(
        placed.delay_matrix_for(drifted),
        per_slot_max_over_quorums(placed, drifted[:, support]),
    )


def test_delay_matrix_is_read_only(line_topology):
    placed = PlacedQuorumSystem(
        GridQuorumSystem(2), Placement([0, 1, 2, 3]), line_topology
    )
    zero_costs = placed.augmented_delay_matrix(np.zeros(line_topology.n_nodes))
    assert zero_costs is placed.delay_matrix
    with pytest.raises(ValueError):
        zero_costs[0, 0] = 1.0
