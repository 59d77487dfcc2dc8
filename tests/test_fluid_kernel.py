"""Bit-identity of the fluid backend against a per-client, per-block reference.

:func:`~repro.sim.fluid.run_fluid` builds one flat request table: explicit
strategies draw every operation's quorum with one uniform draw and an
inverse-CDF lookup, servers come from the placed system's cached
quorum-node table, and per-operation results reduce with ``reduceat``. The
reference below is the straightforward formulation it replaced — one
``rng.choice`` per client node, one ``np.unique`` per quorum, one block of
operations per quorum shape — and every result field must equal it
byte for byte. Sampling consumes the same random stream in the same order
and every reduction sums in the same order, so any difference is a bug,
not rounding.

A simulation of several explicit strategies runs them in one pass: each
strategy's result must equal the reference run of that strategy alone.

The closed-loop probe is pinned the same way: a multi-epoch
``run_segment`` with telemetry must match one whose probe rebuilds the
placed system every epoch and simulates each strategy through the
reference.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.dynamics.controller as controller_module
from repro.core.placement import PlacedQuorumSystem, Placement
from repro.core.strategy import (
    ExplicitStrategy,
    ThresholdBalancedStrategy,
    ThresholdClosestStrategy,
)
from repro.dynamics.controller import AdaptiveController, parse_policy
from repro.dynamics.telemetry import (
    _ARRIVAL_SEED_OFFSET,
    _MIN_CAPACITY,
    PROBE_MS,
    PROBE_RATE_PER_MS,
    PROBE_SERVICE_TIME_MS,
    TelemetryConfig,
)
from repro.errors import PlacementError, SimulationError
from repro.network.graph import Topology
from repro.quorums.base import EnumeratedQuorumSystem
from repro.quorums.grid import GridQuorumSystem
from repro.quorums.threshold import ThresholdQuorumSystem
from repro.sim import fluid
from repro.sim.generic import GenericQuorumSimulation, GenericSimResult
from repro.sim.metrics import PairTelemetry, summarize_arrays
from repro.sim.workload import PoissonArrivals


# ---------------------------------------------------------------------------
# Reference implementation (per-client draws, per-quorum blocks, per-server
# queues)
# ---------------------------------------------------------------------------
def _group_by(values):
    order = np.argsort(values, kind="stable")
    uniq, starts = np.unique(values[order], return_index=True)
    ends = np.append(starts[1:], values.size)
    for value, i0, i1 in zip(uniq, starts, ends):
        yield int(value), order[i0:i1]


def _lindley(arrivals, service):
    cum = np.cumsum(service)
    return np.maximum.accumulate(arrivals - (cum - service)) + cum


def reference_blocks(sim, op_node, rng):
    placed, strategy = sim.placed, sim.strategy
    one = np.ones(1, dtype=np.intp)
    if isinstance(strategy, ExplicitStrategy):
        assignment = placed.placement.assignment
        counts = [
            np.unique(
                assignment[np.fromiter(q, dtype=np.intp)], return_counts=True
            )
            for q in placed.system.quorums
        ]
        matrix = strategy.matrix
        quorum_of_op = np.empty(op_node.size, dtype=np.intp)
        for v, ops in _group_by(op_node):
            quorum_of_op[ops] = rng.choice(
                matrix.shape[1], size=ops.size, p=matrix[v]
            )
        blocks = []
        for i, ops in _group_by(quorum_of_op):
            nodes, mult = counts[i]
            blocks.append(
                (ops, np.broadcast_to(nodes, (ops.size, nodes.size)), mult)
            )
        return blocks
    assert isinstance(strategy, ThresholdBalancedStrategy)
    support = placed.placement.support_set
    n, q = placed.system.universe_size, placed.system.quorum_size
    keys = rng.random((op_node.size, n))
    subsets = np.argpartition(keys, q - 1, axis=1)[:, :q]
    return [(np.arange(op_node.size), support[subsets], one)]


def reference_run_fluid(sim, duration_ms, warmup_ms=0.0):
    rtt = sim.placed.topology.rtt
    service_times = sim.service_times
    horizon = float(duration_ms)
    times = sim.arrivals.sample_until(duration_ms)
    n_ops = times.size
    op_node = sim.client_nodes[np.arange(n_ops) % sim.client_nodes.size]
    rng = np.random.default_rng(sim.seed)
    blocks = reference_blocks(sim, op_node, rng)

    total = sum(ops.size * servers.shape[1] for ops, servers, _ in blocks)
    req_server = np.empty(total, dtype=np.intp)
    req_arrive = np.empty(total)
    req_service = np.empty(total)
    req_one_way = np.empty(total)
    req_client = np.empty(total, dtype=np.intp)
    req_issue = np.empty(total)
    net_delay = np.empty(n_ops)
    slices = []
    offset = 0
    for ops, servers, units in blocks:
        k, width = servers.shape
        stop = offset + k * width
        one_way = rtt[op_node[ops][:, None], servers] / 2.0
        net_delay[ops] = one_way.max(axis=1) * 2.0
        arrive = times[ops][:, None] + one_way
        req_server[offset:stop] = servers.ravel()
        req_one_way[offset:stop] = one_way.ravel()
        req_arrive[offset:stop] = arrive.ravel()
        if sim.uniform_service:
            req_service[offset:stop] = np.broadcast_to(
                float(service_times[0]) * units, (k, width)
            ).ravel()
        else:
            req_service[offset:stop] = (service_times[servers] * units).ravel()
        req_client[offset:stop] = np.repeat(op_node[ops], width)
        req_issue[offset:stop] = np.repeat(times[ops], width)
        slices.append((ops, offset, stop, width))
        offset = stop

    order = np.lexsort((req_arrive, req_server))
    srv, arr, svc = req_server[order], req_arrive[order], req_service[order]
    dep_sorted = np.empty(total)
    processed, busy = {}, {}
    uniq, starts = np.unique(srv, return_index=True)
    for node, i0, i1 in zip(uniq, starts, np.append(starts[1:], total)):
        dep = _lindley(arr[i0:i1], svc[i0:i1])
        dep_sorted[i0:i1] = dep
        kept = dep <= horizon
        processed[int(node)] = int(kept.sum())
        busy[int(node)] = float(svc[i0:i1][kept].sum())
    departure = np.empty(total)
    departure[order] = dep_sorted

    reply = departure + req_one_way

    telemetry = None
    if sim.collect_telemetry:
        support = np.unique(sim.placed.placement.support_set)
        n_nodes, s = sim.placed.n_nodes, support.size
        observed = reply <= horizon
        key = req_client[observed] * s + np.searchsorted(
            support, req_server[observed]
        )
        samples = (req_arrive[observed] - req_issue[observed]) + (
            reply[observed] - departure[observed]
        )
        telemetry = PairTelemetry(
            support_nodes=support.copy(),
            counts=np.bincount(key, minlength=n_nodes * s).reshape(n_nodes, s),
            rtt_sum_ms=np.bincount(
                key, weights=samples, minlength=n_nodes * s
            ).reshape(n_nodes, s),
            service_ms=service_times[support].copy(),
        )

    completion = np.empty(n_ops)
    for ops, start, stop, width in slices:
        completion[ops] = reply[start:stop].reshape(ops.size, width).max(axis=1)
    completed = completion <= horizon
    stats = summarize_arrays(
        issued_at_ms=times[completed],
        completed_at_ms=completion[completed],
        network_delay_ms=net_delay[completed],
        client_ids=None,
        warmup_ms=warmup_ms,
    )
    servers = sorted(int(w) for w in sim.placed.placement.support_set)
    rates = np.zeros(sim.placed.n_nodes)
    utils = np.zeros(len(servers))
    for idx, node in enumerate(servers):
        rates[node] = processed.get(node, 0) / horizon
        utils[idx] = min(1.0, busy.get(node, 0.0) / horizon)
    requests_processed = sum(processed.values())
    return GenericSimResult(
        stats=stats,
        per_node_request_rate=rates,
        server_utilizations=utils,
        operations_completed=stats.n_operations,
        requests_issued=total,
        requests_processed=requests_processed,
        requests_in_flight=total - requests_processed,
        telemetry=telemetry,
    )


# ---------------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------------
def assert_bits_equal(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def assert_dataclass_bits_equal(actual, expected):
    assert type(actual) is type(expected)
    for field in dataclasses.fields(expected):
        got = getattr(actual, field.name)
        want = getattr(expected, field.name)
        if dataclasses.is_dataclass(want):
            assert_dataclass_bits_equal(got, want)
        elif want is None:
            assert got is None, field.name
        else:
            assert_bits_equal(got, want)


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------
def _topology(n_nodes, seed):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(5.0, 120.0, size=(n_nodes, n_nodes))
    raw = np.round(raw + raw.T)  # integer RTTs: many exact arrival ties
    np.fill_diagonal(raw, 0.0)
    return Topology(raw, metric_closure=False)


def _variable_system():
    # Strict majorities of a 5-element universe, of mixed sizes.
    quorums = [{0, 1, 2}, {1, 2, 3, 4}, {0, 3, 4}, {0, 1, 3}, {2, 3, 4}]
    return EnumeratedQuorumSystem(quorums, universe_size=5)


def _placed(kind, topology, seed):
    rng = np.random.default_rng(seed)
    n = topology.n_nodes
    if kind == "grid_1to1":
        system = GridQuorumSystem(3)
        assignment = rng.permutation(n)[: system.universe_size]
    elif kind == "grid_many":
        system = GridQuorumSystem(3)
        assignment = rng.integers(0, 4, size=system.universe_size)
    elif kind == "variable_many":
        system = _variable_system()
        assignment = np.array([3, 1, 3, 7, 1])
    elif kind == "threshold":
        system = ThresholdQuorumSystem(5, 3)
        assignment = rng.permutation(n)[:5]
    else:
        raise AssertionError(kind)
    return PlacedQuorumSystem(system, Placement(assignment), topology)


def _explicit(placed, seed):
    rng = np.random.default_rng(seed)
    matrix = rng.dirichlet(np.full(placed.num_quorums, 0.4), size=placed.n_nodes)
    matrix[0] = 0.0
    matrix[0, -1] = 1.0  # a point mass row
    return ExplicitStrategy(matrix)


#: (placement kind, strategy kind, simulation keyword overrides)
CASES = {
    "explicit_1to1": ("grid_1to1", "explicit", {}),
    "explicit_many": ("grid_many", "explicit", {}),
    "explicit_variable_per_node_service": (
        "variable_many",
        "explicit",
        {"service_time_ms": "per_node"},
    ),
    "explicit_telemetry": (
        "grid_1to1",
        "explicit",
        {"collect_telemetry": True},
    ),
    "explicit_repeated_clients": (
        "grid_many",
        "explicit",
        {"client_nodes": [4, 4, 2, 9, 4, 2, 0], "warmup_ms": 150.0},
    ),
    "uniform_1to1": ("grid_1to1", "uniform", {"collect_telemetry": True}),
    "balanced": ("threshold", "balanced", {}),
    "closest_per_node_service": (
        "threshold",
        "closest",
        {"service_time_ms": "per_node", "warmup_ms": 200.0},
    ),
    "closest_repeated_clients_telemetry": (
        "threshold",
        "closest",
        {"client_nodes": [1, 1, 5, 3, 5], "collect_telemetry": True},
    ),
}


def _simulation(name, seed=3):
    placement_kind, strategy_kind, overrides = CASES[name]
    topology = _topology(12, seed)
    placed = _placed(placement_kind, topology, seed)
    strategy = {
        "explicit": lambda: _explicit(placed, seed),
        "uniform": lambda: ExplicitStrategy.uniform(placed),
        "balanced": ThresholdBalancedStrategy,
        # The closest strategy in the explicit form the simulators take.
        "closest": lambda: ExplicitStrategy.closest(placed),
    }[strategy_kind]()
    kwargs = dict(overrides)
    warmup_ms = kwargs.pop("warmup_ms", 0.0)
    if kwargs.get("service_time_ms") == "per_node":
        rng = np.random.default_rng(seed + 1)
        kwargs["service_time_ms"] = rng.uniform(0.5, 4.0, size=topology.n_nodes)
    else:
        kwargs.setdefault("service_time_ms", 2.0)
    sim = GenericQuorumSimulation(
        placed,
        strategy,
        seed=seed,
        arrivals=PoissonArrivals(rate_per_ms=1.5, seed=seed + 10),
        backend="fluid",
        **kwargs,
    )
    return sim, warmup_ms


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_fluid_bit_identical(name):
    sim, warmup_ms = _simulation(name)
    result = sim.run(duration_ms=1_000.0, warmup_ms=warmup_ms)
    expected = reference_run_fluid(sim, 1_000.0, warmup_ms=warmup_ms)
    assert result.requests_issued > 500
    assert_dataclass_bits_equal(result, expected)


def test_chunked_quorum_lookup_bit_identical(monkeypatch):
    """A chunk of 7 CDF cells per lookup splits the draw into many chunks."""
    monkeypatch.setattr(fluid, "_CDF_CHUNK", 7)
    sim, _ = _simulation("explicit_repeated_clients")
    assert_dataclass_bits_equal(
        sim.run(duration_ms=1_000.0), reference_run_fluid(sim, 1_000.0)
    )


@pytest.mark.parametrize("seed", range(6))
def test_run_fluid_bit_identical_across_seeds(seed):
    sim, _ = _simulation("explicit_telemetry", seed=seed)
    assert_dataclass_bits_equal(
        sim.run(duration_ms=600.0), reference_run_fluid(sim, 600.0)
    )


# ---------------------------------------------------------------------------
# Queueing kernel: exact sort order and the padded Lindley block
# ---------------------------------------------------------------------------
@st.composite
def _request_tables(draw):
    n_servers = draw(st.integers(1, 5))
    nodes = np.array(
        sorted(draw(st.sets(st.integers(0, 60), min_size=n_servers,
                            max_size=n_servers)))
    )
    n = draw(st.integers(1, 3_000))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    rank = rng.integers(0, n_servers, size=n)
    # Integer and half-integer arrivals over a short span: ties galore.
    span = draw(st.sampled_from([1, 4, 40, 4_000]))
    arrive = rng.integers(0, 2 * span, size=n) / 2.0
    return nodes, rank, arrive


@given(_request_tables())
@settings(max_examples=200, deadline=None)
def test_queue_order_is_the_lexsort_permutation(table):
    nodes, rank, arrive = table
    expected = np.lexsort((arrive, nodes[rank]))
    assert_bits_equal(fluid._queue_order(rank, arrive, nodes.size), expected)


@given(
    st.lists(st.integers(0, 300), min_size=1, max_size=12).filter(any),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_padded_departures_equal_per_run_passes(counts, seed):
    """Runs of any lengths (empty, single-row, one dominant run) queue
    exactly as their own 1-D passes, within a block of twice the table."""
    counts = np.array(counts)
    starts = np.cumsum(counts) - counts
    rng = np.random.default_rng(seed)
    service = rng.integers(0, 4, size=counts.sum()) / 2.0
    arrivals = rng.integers(0, 50, size=counts.sum()) / 2.0
    for s, n in zip(starts, counts):
        arrivals[s : s + n].sort()
    blocks, lindley = [], fluid._lindley

    def lindley_spy(a, b):
        if a.ndim == 2:
            blocks.append(a.size)
        return lindley(a, b)

    expected = np.concatenate(
        [lindley(arrivals[s : s + n], service[s : s + n])
         for s, n in zip(starts, counts)]
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fluid, "_lindley", lindley_spy)
        got = fluid._padded_departures(arrivals, service, starts, counts)
    assert_bits_equal(got, expected)
    assert len(blocks) == 1 and blocks[0] <= 2 * counts.sum()


def test_queue_order_falls_back_to_lexsort_past_int64():
    rng = np.random.default_rng(4)
    rank = rng.integers(0, 3, size=500)
    arrive = rng.integers(0, 9, size=500).astype(np.float64)
    assert_bits_equal(
        fluid._queue_order(rank, arrive, 2**62),
        np.lexsort((arrive, rank)),
    )


def _hub_simulation(client_nodes, quorum_mass, seed=6):
    """Five quorums sharing element 0; quorum 0 lives on node 2 alone, and
    quorum ``i > 0`` adds node ``2 + 2i``. ``quorum_mass(node)`` is each
    client node's strategy row."""
    system = EnumeratedQuorumSystem(
        [{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}], universe_size=6
    )
    topology = _topology(12, seed)
    placed = PlacedQuorumSystem(
        system, Placement([2, 2, 4, 6, 8, 10]), topology
    )
    matrix = np.array([quorum_mass(v) for v in range(topology.n_nodes)])
    return GenericQuorumSimulation(
        placed,
        ExplicitStrategy(matrix),
        client_nodes=client_nodes,
        service_time_ms=0.2,
        seed=seed,
        arrivals=PoissonArrivals(rate_per_ms=2.0, seed=seed + 10),
        backend="fluid",
        collect_telemetry=True,
    )


def _run_bounded(monkeypatch, sim, duration_ms):
    """Run ``sim`` against the reference and check that the padded block
    stays within twice the request table; returns the requests per server
    (in support order) and the number of runs queued in a 1-D pass."""
    runs, blocks, single = [], [], []
    padded, lindley = fluid._padded_departures, fluid._lindley

    def padded_spy(arrivals, service, starts, counts):
        runs.append(counts.copy())
        return padded(arrivals, service, starts, counts)

    def lindley_spy(arrivals, service):
        (blocks if arrivals.ndim == 2 else single).append(arrivals.size)
        return lindley(arrivals, service)

    monkeypatch.setattr(fluid, "_padded_departures", padded_spy)
    monkeypatch.setattr(fluid, "_lindley", lindley_spy)
    result = sim.run(duration_ms=duration_ms)
    assert_dataclass_bits_equal(result, reference_run_fluid(sim, duration_ms))
    (counts,) = runs
    assert counts.sum() == result.requests_issued > 1_000
    assert len(blocks) == 1 and blocks[0] <= 2 * result.requests_issued
    return counts, len(single)


def test_one_server_holding_most_requests_bit_identical(monkeypatch):
    mass = np.array([0.96, 0.01, 0.01, 0.01, 0.01])
    sim = _hub_simulation(None, lambda v: mass)
    counts, single = _run_bounded(monkeypatch, sim, 800.0)
    assert counts[0] >= 0.95 * counts.sum()  # node 2, first in the support
    assert single == 1  # padding the other four to its run would not fit


def test_single_request_server_bit_identical(monkeypatch):
    """Node 10 serves only quorum 4, which only the last client (node 11,
    issuing the last operation alone) ever picks."""
    n_ops = PoissonArrivals(rate_per_ms=2.0, seed=16).sample_until(800.0).size
    clients = np.append(np.arange(n_ops - 1) % 11, 11)

    def mass(v):
        row = np.zeros(5)
        row[4 if v == 11 else v % 4] = 1.0
        return row

    sim = _hub_simulation(clients, mass)
    counts, _ = _run_bounded(monkeypatch, sim, 800.0)
    assert counts[-1] == 1  # node 10, last in the support


# ---------------------------------------------------------------------------
# Several strategies in one pass
# ---------------------------------------------------------------------------
class _TiedArrivals:
    """Operations in pairs at integer times: with integer RTTs, requests
    tie on (server, arrival) and must queue in table order."""

    def sample_until(self, duration_ms):
        return np.repeat(np.arange(0.0, duration_ms, 1.0), 2)


def _hub_matrix(n_nodes, n_quorums, hub_mass):
    matrix = np.full((n_nodes, n_quorums), (1.0 - hub_mass) / (n_quorums - 1))
    matrix[:, 0] = hub_mass
    return matrix


def _several(case):
    """(placed, strategies, simulation keywords, duration) of one case."""
    topology = _topology(12, 6)
    if case == "hub_and_spread":
        # Quorum 0 lives on node 2 alone, so the hub strategy's run there
        # is long enough for a 1-D pass; the others fill the padded block.
        system = EnumeratedQuorumSystem(
            [{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}], universe_size=6
        )
        placed = PlacedQuorumSystem(
            system, Placement([2, 2, 4, 6, 8, 10]), topology
        )
        strategies = (
            ExplicitStrategy(_hub_matrix(12, 5, 0.96)),
            _explicit(placed, 6),
            ExplicitStrategy.closest(placed),
        )
        service = np.random.default_rng(2).uniform(0.05, 0.4, size=12)
        kwargs = {
            "service_time_ms": service,
            "arrivals": PoissonArrivals(rate_per_ms=2.0, seed=16),
            "collect_telemetry": True,
        }
        return placed, strategies, kwargs, 800.0
    if case == "tied_arrivals":
        placed = _placed("grid_many", topology, 6)
        dirichlet = _explicit(placed, 7)
        strategies = (
            dirichlet,
            ExplicitStrategy.uniform(placed),
            dirichlet,  # a repeated strategy runs as its own block
            _explicit(placed, 8),
        )
        kwargs = {
            "service_time_ms": 0.5,
            "arrivals": _TiedArrivals(),
            "collect_telemetry": True,
            "client_nodes": [4, 4, 2, 9, 4, 2, 0],
        }
        return placed, strategies, kwargs, 300.0
    raise AssertionError(case)


@pytest.mark.parametrize("case", ["hub_and_spread", "tied_arrivals"])
def test_several_strategies_equal_each_alone(monkeypatch, case):
    placed, strategies, kwargs, duration_ms = _several(case)
    passes, lindley = [], fluid._lindley

    def lindley_spy(arrivals, service):
        passes.append(arrivals.ndim)
        return lindley(arrivals, service)

    monkeypatch.setattr(fluid, "_lindley", lindley_spy)
    sim = GenericQuorumSimulation(
        placed, strategies, seed=5, backend="fluid", **kwargs
    )
    results = sim.run(duration_ms=duration_ms, warmup_ms=50.0)
    if case == "hub_and_spread":
        assert passes.count(1) >= 1 and passes.count(2) == 1
    monkeypatch.setattr(fluid, "_lindley", lindley)
    assert len(results) == len(strategies)
    for strategy, result in zip(strategies, results, strict=True):
        alone = GenericQuorumSimulation(
            placed, strategy, seed=5, backend="fluid", **kwargs
        )
        expected = reference_run_fluid(alone, duration_ms, warmup_ms=50.0)
        assert result.requests_issued > 400
        assert_dataclass_bits_equal(result, expected)
        assert_dataclass_bits_equal(
            result, alone.run(duration_ms=duration_ms, warmup_ms=50.0)
        )


def test_one_strategy_tuple_is_the_single_run():
    sim, warmup_ms = _simulation("explicit_telemetry")
    batch = GenericQuorumSimulation(
        sim.placed,
        (sim.strategy,),
        service_time_ms=sim.service_times,
        seed=sim.seed,
        arrivals=sim.arrivals,
        backend="fluid",
        collect_telemetry=True,
    )
    (result,) = batch.run(duration_ms=1_000.0, warmup_ms=warmup_ms)
    assert_dataclass_bits_equal(
        result, sim.run(duration_ms=1_000.0, warmup_ms=warmup_ms)
    )


def test_strategy_tuples_are_validated():
    placed = _placed("grid_1to1", _topology(12, 0), 0)
    arrivals = PoissonArrivals(rate_per_ms=1.0, seed=1)
    uniform = ExplicitStrategy.uniform(placed)
    with pytest.raises(SimulationError, match="fluid backend only"):
        GenericQuorumSimulation(placed, (uniform,), arrivals=arrivals)
    threshold = _placed("threshold", _topology(12, 0), 0)
    for strategies in ((), (ThresholdBalancedStrategy(),)):
        with pytest.raises(SimulationError, match="ExplicitStrategy"):
            GenericQuorumSimulation(
                threshold, strategies, arrivals=arrivals, backend="fluid"
            )


def test_fluid_simulation_builds_no_event_engine():
    sim, _ = _simulation("explicit_1to1")
    for attribute in ("sim", "network", "servers", "clients", "_samplers"):
        assert not hasattr(sim, attribute)


@pytest.mark.parametrize("backend", GenericQuorumSimulation.BACKENDS)
def test_unsupported_strategy_rejected_at_construction(backend):
    placed = _placed("grid_1to1", _topology(12, 0), 0)
    arrivals = PoissonArrivals(rate_per_ms=1.0, seed=1)
    with pytest.raises(SimulationError, match="threshold system"):
        GenericQuorumSimulation(
            placed,
            ThresholdBalancedStrategy(),
            arrivals=arrivals,
            backend=backend,
        )

    class UnknownStrategy:
        pass

    # The closest strategy is evaluated analytically, never simulated.
    threshold = _placed("threshold", _topology(12, 0), 0)
    for strategy in (UnknownStrategy(), ThresholdClosestStrategy()):
        with pytest.raises(SimulationError, match="unsupported strategy"):
            GenericQuorumSimulation(
                threshold, strategy, arrivals=arrivals, backend=backend
            )


# ---------------------------------------------------------------------------
# Placement structure carried across topologies
# ---------------------------------------------------------------------------
def test_quorum_node_table_matches_per_quorum_unique():
    placed = _placed("variable_many", _topology(12, 0), 0)
    indptr, nodes, counts = placed.quorum_node_table
    assignment = placed.placement.assignment
    for i, quorum in enumerate(placed.system.quorums):
        want_nodes, want_counts = np.unique(
            assignment[np.fromiter(quorum, dtype=np.intp)], return_counts=True
        )
        assert_bits_equal(nodes[indptr[i] : indptr[i + 1]], want_nodes)
        assert_bits_equal(counts[indptr[i] : indptr[i + 1]], want_counts)
        assert_bits_equal(placed.placed_quorums[i], want_nodes)


def test_with_topology_carries_structure_not_distances():
    placed = _placed("grid_many", _topology(12, 1), 1)
    table = placed.quorum_node_table
    slots = placed._quorum_slots
    _ = placed.delay_matrix
    moved = placed.with_topology(_topology(12, 2))
    assert moved.quorum_node_table is table
    assert moved._quorum_slots is slots
    assert moved.incidence_counts is placed.incidence_counts
    assert "delay_matrix" not in moved.__dict__
    assert "support_distances" not in moved.__dict__
    assert_bits_equal(
        moved.delay_matrix,
        PlacedQuorumSystem(
            placed.system, placed.placement, moved.topology
        ).delay_matrix,
    )


def test_with_topology_never_enumerates_a_threshold_system():
    system = ThresholdQuorumSystem(9, 5)
    placed = PlacedQuorumSystem(
        system, Placement(np.arange(9)), _topology(12, 4)
    )
    _ = placed.support_distances
    moved = placed.with_topology(_topology(12, 5))
    assert "quorums" not in system.__dict__
    assert "element_table" not in system.__dict__
    assert not set(PlacedQuorumSystem._TOPOLOGY_FREE) & set(moved.__dict__)


def test_with_topology_rejects_another_node_count():
    placed = _placed("grid_1to1", _topology(12, 0), 0)
    with pytest.raises(PlacementError, match="11 nodes"):
        placed.with_topology(_topology(11, 0))


# ---------------------------------------------------------------------------
# The closed-loop probe across epochs
# ---------------------------------------------------------------------------
def reference_probe_epoch(placed, strategies, rtt, capacities, seed):
    """The probe with a freshly built placed system and one reference run
    per strategy."""
    caps = np.maximum(np.asarray(capacities, dtype=np.float64), _MIN_CAPACITY)
    probe_placed = PlacedQuorumSystem(
        placed.system,
        placed.placement,
        Topology(rtt, capacities=caps, metric_closure=False),
    )
    samples = []
    for strategy in strategies:
        sim = GenericQuorumSimulation(
            probe_placed,
            strategy,
            service_time_ms=PROBE_SERVICE_TIME_MS / caps,
            seed=seed,
            arrivals=PoissonArrivals(
                rate_per_ms=PROBE_RATE_PER_MS,
                seed=seed + _ARRIVAL_SEED_OFFSET,
            ),
            backend="fluid",
            collect_telemetry=True,
        )
        samples.append(reference_run_fluid(sim, PROBE_MS).telemetry)
    return tuple(samples)


def _segment(probe, monkeypatch, specs=("threshold:0.02",)):
    monkeypatch.setattr(controller_module, "probe_epoch", probe)
    topology = _topology(14, 8)
    rng = np.random.default_rng(8)
    placed = PlacedQuorumSystem(
        GridQuorumSystem(3),
        Placement(rng.integers(0, 14, size=9)),
        topology,
    )
    controller = AdaptiveController(
        placed,
        tuple(parse_policy(spec) for spec in specs),
        telemetry=TelemetryConfig(noise=0.05, seed=5),
    )
    epochs = 8
    factors = rng.uniform(0.7, 1.4, size=(epochs, 14))
    caps = rng.uniform(0.5, 2.0, size=(epochs, 14))
    return controller.run_segment(factors, caps, np.ones(epochs, dtype=bool))


def test_closed_loop_segment_bit_identical(monkeypatch):
    (fast,) = _segment(controller_module.probe_epoch, monkeypatch)
    (reference,) = _segment(reference_probe_epoch, monkeypatch)
    assert fast.probe_operations.min() > 0
    assert_dataclass_bits_equal(fast, reference)


def test_closed_loop_lockstep_segment_bit_identical(monkeypatch):
    """Several policies' batched probes equal one reference run each."""
    specs = ("static", "threshold:0.02", "periodic:2")
    fast = _segment(controller_module.probe_epoch, monkeypatch, specs)
    reference = _segment(reference_probe_epoch, monkeypatch, specs)
    for series, expected in zip(fast, reference, strict=True):
        assert series.probe_operations.min() > 0
        assert_dataclass_bits_equal(series, expected)


def test_probe_computes_no_busy_time(monkeypatch):
    """The closed-loop probe reads telemetry only, so it sums no busy time;
    a result sums its own on the first read of ``server_utilizations``."""
    calls = []
    utilizations = fluid._utilizations

    def spy(*args):
        calls.append(args)
        return utilizations(*args)

    monkeypatch.setattr(fluid, "_utilizations", spy)
    series = _segment(
        controller_module.probe_epoch, monkeypatch, ("static", "periodic:2")
    )
    assert all(s.probe_operations.min() > 0 for s in series)
    assert calls == []

    sim, warmup_ms = _simulation("explicit_telemetry")
    result = sim.run(duration_ms=1_000.0, warmup_ms=warmup_ms)
    assert calls == []
    first = result.server_utilizations
    assert result.server_utilizations is first
    assert len(calls) == 1


def test_probe_strategy_is_built_once_per_strategy_in_force(monkeypatch):
    """Every probe samples ``ExplicitStrategy(matrix in force)`` bit for bit,
    and the controller builds it once per matrix, not once per epoch."""
    probed, solved = [], []
    probe, reoptimize = controller_module.probe_epoch, AdaptiveController._reoptimize

    def probe_spy(placed, strategies, *args, **kwargs):
        (strategy,) = strategies
        probed.append(strategy)
        return probe(placed, strategies, *args, **kwargs)

    def reoptimize_spy(self, index, delta, capacities):
        out = reoptimize(self, index, delta, capacities)
        solved.append(out[0])
        return out

    monkeypatch.setattr(AdaptiveController, "_reoptimize", reoptimize_spy)
    (series,) = _segment(probe_spy, monkeypatch)
    assert len(probed) == series.reoptimized.size

    uniform = np.full(probed[0].matrix.shape, 1.0 / probed[0].num_quorums)
    in_force, fresh = uniform, iter(solved)
    for epoch, strategy in enumerate(probed):
        assert_bits_equal(strategy.matrix, ExplicitStrategy(in_force).matrix)
        if epoch:
            rebuilt = strategy is not probed[epoch - 1]
            assert rebuilt == bool(series.reoptimized[epoch - 1])
        if series.reoptimized[epoch] or series.infeasible[epoch]:
            matrix = next(fresh)
            if matrix is not None:
                in_force = matrix
    assert 1 < len({id(s) for s in probed}) < len(probed)
