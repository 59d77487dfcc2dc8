"""Property-based tests (hypothesis) for core invariants.

These target the load-bearing mathematical properties:

* quorum intersection across system families and parameters,
* order-statistics formulas vs brute force,
* metric axioms of generated topologies,
* load conservation and linearity,
* response-time model monotonicity,
* filtering/rounding invariants of the placement pipeline,
* the paper's delay bound of the many-to-one placement pipeline.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.load import node_loads
from repro.core.placement import PlacedQuorumSystem, Placement
from repro.core.response_time import evaluate
from repro.core.strategy import ExplicitStrategy
from repro.network.generators import ClusterSpec, generate_cluster_topology
from repro.network.graph import Topology
from repro.placement.filtering import lin_vitter_filter
from repro.placement.fractional import FractionalProgram
from repro.placement.gap import round_fractional_placement
from repro.placement.many_to_one import many_to_one_placement
from repro.quorums.grid import GridQuorumSystem
from repro.quorums.order_stats import max_order_statistic_pmf
from repro.quorums.threshold import (
    MajorityKind,
    ThresholdQuorumSystem,
    majority,
)

from oracles import expected_max_of_random_subset, validate_metric


# ---------------------------------------------------------------------------
# Quorum systems
# ---------------------------------------------------------------------------
@st.composite
def threshold_params(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    q = draw(st.integers(min_value=n // 2 + 1, max_value=n))
    return n, q


@given(threshold_params())
@settings(max_examples=60, deadline=None)
def test_threshold_quorums_pairwise_intersect(params):
    n, q = params
    qs = ThresholdQuorumSystem(n, q)
    if qs.num_quorums > 500:
        return
    quorums = qs.quorums
    for a, b in itertools.combinations(quorums, 2):
        assert a & b


@given(st.integers(min_value=1, max_value=7))
@settings(max_examples=7, deadline=None)
def test_grid_quorums_pairwise_intersect(k):
    g = GridQuorumSystem(k)
    for a, b in itertools.combinations(g.quorums, 2):
        assert a & b


# ---------------------------------------------------------------------------
# Order statistics
# ---------------------------------------------------------------------------
@given(threshold_params())
@settings(max_examples=40, deadline=None)
def test_order_stat_pmf_is_distribution(params):
    n, q = params
    pmf = max_order_statistic_pmf(n, q)
    assert pmf.sum() == pytest.approx(1.0)
    assert np.all(pmf >= 0)


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1000.0),
        min_size=2,
        max_size=8,
    ),
    st.data(),
)
@settings(max_examples=50, deadline=None)
def test_expected_max_matches_bruteforce(values, data):
    q = data.draw(
        st.integers(min_value=1, max_value=len(values)), label="q"
    )
    arr = np.asarray(values)
    exact = expected_max_of_random_subset(arr, q)
    subsets = list(itertools.combinations(values, q))
    brute = sum(max(s) for s in subsets) / len(subsets)
    assert exact == pytest.approx(brute, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# Topology generation
# ---------------------------------------------------------------------------
@given(
    st.integers(min_value=2, max_value=25),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=15, deadline=None)
def test_generated_topologies_are_metric(n_sites, seed):
    topo = generate_cluster_topology(
        n_sites,
        [
            ClusterSpec("a", 40.0, -74.0, 2.0, 0.6),
            ClusterSpec("b", 48.0, 10.0, 2.0, 0.4),
        ],
        seed=seed,
    )
    validate_metric(topo)
    assert topo.n_nodes == n_sites


# ---------------------------------------------------------------------------
# Loads and response time
# ---------------------------------------------------------------------------
@st.composite
def grid_profile(draw):
    k = draw(st.integers(min_value=2, max_value=3))
    n_nodes = draw(st.integers(min_value=k * k, max_value=k * k + 4))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    points = rng.uniform(0, 100, size=(n_nodes, 2))
    diff = points[:, None, :] - points[None, :, :]
    metric = np.sqrt((diff**2).sum(axis=2))
    topo = Topology(metric, metric_closure=False)
    assignment = rng.permutation(n_nodes)[: k * k]
    placed = PlacedQuorumSystem(
        GridQuorumSystem(k), Placement(assignment), topo
    )
    profile = rng.dirichlet(np.ones(k * k), size=n_nodes)
    return placed, profile


@given(grid_profile())
@settings(max_examples=30, deadline=None)
def test_load_conservation(case):
    """Sum of node loads == expected accessed quorum size under the
    average strategy (load is neither created nor destroyed)."""
    placed, profile = case
    loads = node_loads(placed, profile)
    sizes = np.array([len(q) for q in placed.system.quorums])
    expected = float((profile.mean(axis=0) * sizes).sum())
    assert loads.sum() == pytest.approx(expected)


@given(grid_profile())
@settings(max_examples=30, deadline=None)
def test_response_time_monotone_in_alpha(case):
    placed, profile = case
    strategy = ExplicitStrategy(profile)
    r0 = evaluate(placed, strategy, alpha=0.0)
    r1 = evaluate(placed, strategy, alpha=13.0)
    assert r1.avg_response_time >= r0.avg_response_time - 1e-9
    assert r0.avg_response_time == pytest.approx(r0.avg_network_delay)


@given(grid_profile())
@settings(max_examples=30, deadline=None)
def test_response_dominated_by_delay_plus_max_load(case):
    placed, profile = case
    strategy = ExplicitStrategy(profile)
    alpha = 29.0
    result = evaluate(placed, strategy, alpha=alpha)
    upper = result.avg_network_delay + alpha * result.max_node_load
    assert result.avg_response_time <= upper + 1e-9


# ---------------------------------------------------------------------------
# Placement pipeline invariants
# ---------------------------------------------------------------------------
@st.composite
def fractional_case(draw):
    n_elements = draw(st.integers(min_value=1, max_value=6))
    n_nodes = draw(st.integers(min_value=2, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    x = rng.dirichlet(np.ones(n_nodes), size=n_elements)
    dist = rng.uniform(0.0, 50.0, size=n_nodes)
    loads = rng.uniform(0.05, 1.0, size=n_elements)
    return x, dist, loads


@given(fractional_case(), st.floats(min_value=0.05, max_value=3.0))
@settings(max_examples=60, deadline=None)
def test_filter_keeps_rows_normalized_within_radius(case, eps):
    x, dist, _ = case
    filtered = lin_vitter_filter(x, dist, eps=eps)
    assert np.allclose(filtered.sum(axis=1), 1.0, atol=1e-9)
    frac_dist = x @ dist
    radius = (1.0 + eps) * frac_dist
    for u in range(x.shape[0]):
        support = np.flatnonzero(filtered[u] > 0)
        assert np.all(dist[support] <= radius[u] + 1e-9)


@given(fractional_case())
@settings(max_examples=60, deadline=None)
def test_rounding_assigns_within_support(case):
    x, dist, loads = case
    placement = round_fractional_placement(x, dist, loads)
    for u in range(x.shape[0]):
        w = placement.node_of(u)
        assert x[u, w] > 0


@given(fractional_case())
@settings(max_examples=60, deadline=None)
def test_rounding_respects_slot_counts(case):
    """No node receives more elements than ceil(its fractional mass)."""
    x, dist, loads = case
    placement = round_fractional_placement(x, dist, loads)
    mass = x.sum(axis=0)
    counts = placement.multiplicities(x.shape[1])
    for w in range(x.shape[1]):
        # Slot construction creates max(1, ceil(mass)) slots per node.
        assert counts[w] <= max(1, int(np.ceil(mass[w] + 1e-9)))


@st.composite
def many_to_one_case(draw):
    """A small Euclidean topology, a Grid or Majority system, a Dirichlet
    strategy, a designated client and capacities summing to at least the
    total element load (so the fractional LP is feasible)."""
    if draw(st.booleans()):
        system = GridQuorumSystem(draw(st.integers(min_value=2, max_value=3)))
    else:
        system = majority(
            MajorityKind.SIMPLE, draw(st.integers(min_value=1, max_value=2))
        )
    n_nodes = draw(st.integers(min_value=3, max_value=8))
    v0 = draw(st.integers(min_value=0, max_value=n_nodes - 1))
    slack = draw(st.floats(min_value=1.05, max_value=3.0))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    points = rng.uniform(0, 100, size=(n_nodes, 2))
    diff = points[:, None, :] - points[None, :, :]
    topo = Topology(np.sqrt((diff**2).sum(axis=2)), metric_closure=False)
    p = rng.dirichlet(np.ones(system.num_quorums))
    total_load = float(system.element_loads(p).sum())
    caps = rng.uniform(0.5, 1.5, size=n_nodes)
    caps *= slack * total_load / caps.sum()
    return topo, system, v0, p, caps


@given(many_to_one_case(), st.floats(min_value=0.1, max_value=2.0))
@settings(max_examples=60, deadline=None)
def test_many_to_one_delay_within_lin_vitter_radius(case, eps):
    """Filtering keeps each element within ``(1 + eps)`` of its fractional
    distance ``D_u``, and the LP bounds ``D_u <= z_i`` for ``u`` in
    ``Q_i``; GAP rounding stays inside the filtered support. So the
    rounded single-client delay ``sum_i p_i max_{u in Q_i} d(v0, f(u))``
    is at most ``(1 + eps)`` times the fractional objective."""
    topo, system, v0, p, caps = case
    program = FractionalProgram(topo, system, v0)
    objective = program.solve(capacities=caps, strategy=p).objective
    placement = many_to_one_placement(
        topo, system, v0, capacities=caps, strategy=p, eps=eps,
        program=program,
    )
    dist = topo.distances_from(v0)[placement.assignment]
    delay = sum(
        p_i * max(dist[u] for u in quorum)
        for p_i, quorum in zip(p, system.quorums)
    )
    solver_tolerance = 1e-6 * (1.0 + float(dist.max()))
    assert delay <= (1.0 + eps) * (1.0 + 1e-9) * objective + solver_tolerance


# ---------------------------------------------------------------------------
# Strategy matrix hygiene
# ---------------------------------------------------------------------------
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=40, deadline=None)
def test_explicit_strategy_normalizes(n_clients, m, seed):
    rng = np.random.default_rng(seed)
    matrix = rng.dirichlet(np.ones(m), size=n_clients)
    s = ExplicitStrategy(matrix)
    assert np.allclose(s.matrix.sum(axis=1), 1.0)
    assert np.all(s.matrix >= 0.0)
