"""Fluid (vectorized) simulation backend for open-loop workloads.

The event engine in :mod:`repro.sim.generic` burns one Python callback and
one heap operation per client message — perfect for validating protocol
logic, hopeless for the client populations the wan-scale presets are
planned for. This module is the throughput backend: the same open-loop
scenario (Poisson arrivals, access-strategy quorum sampling, FIFO
single-processor servers) computed as a handful of numpy array passes,
with **distribution-level equivalence** to the event engine pinned by
``tests/test_fluid_equivalence.py``.

The pipeline:

1. **Bulk event generation** — all Poisson arrival times come from
   ``PoissonArrivals.sample_until`` and all per-operation quorum choices
   are sampled up front from one seeded ``default_rng`` stream: explicit
   strategies by one uniform draw and an inverse-CDF lookup against the
   strategy rows, with each quorum's servers read from the placed
   system's cached flat quorum-node table; the balanced strategy over a
   threshold system by uniform random ``q``-subsets. The network is
   exact, so a leg takes ``d(v, w) / 2``.
2. **One request table** — operations are never client objects: every
   client->server message is one row of flat ``(operation, server,
   units)`` columns, and arrival, service and reply times are gathers
   through those columns, with no loop over clients or quorums.
3. **Vectorized server queueing** — each server's FIFO delay is the
   Lindley recursion over its time-sorted arrivals
   (``np.maximum.accumulate`` over cumulative service sums).
   The table is put in (server, arrival) order by one sort of unique
   int64 keys ``(server rank * n + arrival dense rank) * n + row`` (``n``
   rows; the dense rank comes from one ``argsort``), which is exactly the
   permutation ``np.lexsort((arrival, server))`` returns, ties in table
   order included. Every server's run becomes one row of a zero-padded
   ``(servers, longest run)`` block and a single row-wise pass serves
   them all: row-wise ``cumsum`` and
   ``maximum.accumulate`` compute each row exactly as a 1-D pass would.
   The block holds at most twice the table's rows; runs too long to pad
   the rest to (one server holding most requests) take a 1-D pass each.
   Departures never decrease along a run, so each server's processed
   requests are the prefix of its run before its first departure past
   the horizon, and busy time is one pairwise ``sum`` per server over
   that prefix: a segmented ``add.reduceat`` or padded row sums add in
   another order and would change the bits. The sums run on the first
   read of ``server_utilizations``; the closed-loop probe never reads it.
4. **Columnar metrics** — each operation's requests are contiguous in the
   table, so completions reduce with one ``np.maximum.reduceat``. The
   response-time summary (:func:`repro.sim.metrics.summarize_arrays`,
   percentiles included) runs on the first read of ``stats``; a million
   operations never materialize a million ``OperationRecord``s, and a
   caller that reads only counters or telemetry never sorts for
   percentiles.

Several explicit strategies run in one pass (common random numbers): they
share the arrival stream and the one uniform draw per operation that each
of them would make alone, their request tables are concatenated with
every strategy's servers ranked in a block of their own, and the one sort
and padded queueing pass above serve them all. Each strategy's result is
byte-identical to its run alone; a one-strategy run is the one-element
case of the same pipeline.

Request conservation is exact, as in the reference engine: every issued
request is processed or in flight at the horizon — ``issued == processed
+ in_flight`` holds to the unit. The two terms are counted apart: the
processed prefixes of step 3, and every request that departs after the
horizon. A run whose departures decrease breaks the identity.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from repro.core.strategy import ExplicitStrategy
from repro.errors import SimulationError
from repro.obs import tracer as obs
from repro.sim.metrics import PairTelemetry, summarize_arrays

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sim.generic import GenericQuorumSimulation, GenericSimResult

__all__ = ["run_fluid"]

#: Operations per chunk when drawing random-subset keys (bounds the
#: temporary (chunk, universe) float matrix to a few MiB).
_SUBSET_CHUNK = 1 << 17

#: Elements per chunk of the inverse-CDF quorum lookup (bounds the
#: temporary (strategies, chunk, quorums) float gather to 4 MiB).
_CDF_CHUNK = 1 << 19


def _lindley(arrivals: np.ndarray, service: np.ndarray) -> np.ndarray:
    """Departure times of a FIFO single server starting empty.

    ``D_j = S_j + max_{k<=j}(a_k - S_{k-1})`` with ``S`` the cumulative
    service sums — the Lindley recursion as two cumulative array passes.
    ``arrivals`` must be sorted ascending. A 2-D input holds one server
    per row: both passes run along the rows, each row exactly as its own
    1-D pass would, and padding after a row's run leaves the run alone.
    """
    cum = np.cumsum(service, axis=-1)
    return np.maximum.accumulate(arrivals - (cum - service), axis=-1) + cum


def _queue_order(
    server_rank: np.ndarray, arrive: np.ndarray, n_servers: int
) -> np.ndarray:
    """The permutation ``np.lexsort((arrive, server_rank))`` returns.

    One sort of unique int64 keys ``(rank * n + arrival dense rank) * n +
    row``, where ``n`` is the table size: ties on (server, arrival) keep
    table order, as lexsort's stable passes do, and unique keys make any
    sort return the same permutation. The dense rank of the arrivals
    comes from one default ``argsort`` (tied arrivals share a rank
    whatever order it leaves them in). Falls back to ``lexsort`` when the
    keys would overflow int64.
    """
    n = arrive.size
    if n_servers * n * n > np.iinfo(np.int64).max:
        return np.lexsort((arrive, server_rank))
    by_time = np.argsort(arrive)
    ordered = arrive[by_time]
    new_value = np.empty(n, dtype=np.int64)
    new_value[0] = 0
    np.not_equal(ordered[1:], ordered[:-1], out=new_value[1:])
    dense = np.empty(n, dtype=np.int64)
    dense[by_time] = np.cumsum(new_value)
    key = server_rank.astype(np.int64) * n + dense
    key *= n
    key += np.arange(n, dtype=np.int64)
    return np.argsort(key)


def _padded_departures(
    arrivals: np.ndarray,
    service: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
) -> np.ndarray:
    """Departures of every server's run of the sorted table.

    Server ``s`` owns rows ``starts[s]:starts[s] + counts[s]``. The runs
    become the rows of one zero-padded ``(servers, longest run)`` block and
    one row-wise Lindley pass serves them all. The block stays within
    twice the table: the longest runs, while padding every remaining run
    to the longest of them would exceed that, take one 1-D pass each.
    """
    total = arrivals.size
    departures = np.empty(total, dtype=np.float64)
    servers = np.flatnonzero(counts)
    by_length = servers[np.argsort(-counts[servers])]
    lengths = counts[by_length]
    rows_left = np.arange(lengths.size, 0, -1)
    first = int(np.argmax(rows_left * lengths <= 2 * total))
    for s in by_length[:first].tolist():
        run = slice(starts[s], starts[s] + counts[s])
        departures[run] = _lindley(arrivals[run], service[run])

    padded = np.sort(by_length[first:])
    run_length = counts[padded]
    width = int(lengths[first])
    offset = np.cumsum(run_length) - run_length
    flat = np.arange(int(run_length.sum()))
    cells = flat + np.repeat(
        np.arange(padded.size) * width - offset, run_length
    )
    # Table rows of the padded runs: all of them, in order, unless some
    # run took a 1-D pass.
    table_rows: slice | np.ndarray = slice(None)
    if first:
        table_rows = flat + np.repeat(starts[padded] - offset, run_length)
    block = np.zeros((2, padded.size * width))
    block[0, cells] = arrivals[table_rows]
    block[1, cells] = service[table_rows]
    block = block.reshape(2, padded.size, width)
    departures[table_rows] = _lindley(block[0], block[1]).ravel()[cells]
    return departures


def _utilizations(
    svc_sorted: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    elapsed: float,
) -> np.ndarray:
    """Each queue slot's busy time over ``elapsed``, capped at 1.

    Busy time is one pairwise sum per slot over its processed rows
    ``svc_sorted[start:end]``, as the slot's 1-D pass summed: segmented
    or padded sums add in another order and would change the bits.
    """
    busy = np.array(
        [
            np.add.reduce(svc_sorted[i0:i1])
            for i0, i1 in zip(starts.tolist(), ends.tolist())
        ],
        dtype=np.float64,
    )
    return np.minimum(1.0, busy / elapsed)


def _sample_quorums(
    matrices: np.ndarray, op_node: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Quorum index of every operation under every strategy.

    ``matrices`` stacks the strategies, ``(strategies, nodes, quorums)``;
    the result is ``(strategies, operations)``. One ``rng.random`` draw
    over the operations stable-sorted by client node serves every
    strategy, then an inverse-CDF lookup against each strategy's
    row-normalized cumulative rows — exactly what one ``rng.choice(m,
    size, p=row)`` call per client node, in ascending node order, computes
    and consumes for each strategy alone. The comparison runs in chunks so
    the ``(strategies, chunk, m)`` temporary stays a few MiB.
    """
    n_strategies, _, m = matrices.shape
    n_ops = op_node.size
    order = np.argsort(op_node, kind="stable")
    nodes = op_node[order]
    uniform = rng.random(n_ops)
    cdf = matrices.cumsum(axis=2)
    cdf = cdf / cdf[:, :, -1:]
    quorum = np.empty((n_strategies, n_ops), dtype=np.intp)
    chunk = max(1, _CDF_CHUNK // (n_strategies * m))
    for start in range(0, n_ops, chunk):
        stop = start + chunk
        quorum[:, order[start:stop]] = (
            cdf[:, nodes[start:stop]] <= uniform[None, start:stop, None]
        ).sum(axis=2)
    return quorum


def _sample_requests(
    sim: "GenericQuorumSimulation",
    op_node: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """All per-operation quorum choices, sampled up front, as one table.

    Returns ``(req_op, req_server, req_units, op_starts)``, one row per
    client->server request: its operation, server node and service
    units. Strategy ``k``'s rows form the ``k``-th block of the table, and
    its operations are numbered ``k * n_ops + operation``. Each
    operation's requests are contiguous and start at ``op_starts``. The
    row order within a block is part of the result, since requests tied
    on (server, arrival) queue in table order: explicit strategies group
    operations by quorum (ascending, then by arrival) and list each
    quorum's servers in ascending node order. Mirrors the sampling
    semantics of ``GenericQuorumSimulation._build_samplers`` exactly
    (same distributions, one bulk stream instead of per-client streams).
    """
    placed = sim.placed
    n_ops = op_node.size
    # The simulation holds explicit strategies only, or one balanced one.
    explicit = [s for s in sim.strategies if isinstance(s, ExplicitStrategy)]

    if explicit:
        indptr, nodes, counts = placed.quorum_node_table
        matrices = np.stack([s.matrix for s in explicit])
        quorum = _sample_quorums(matrices, op_node, rng).ravel()
        # One stable sort of (strategy, quorum) keys: strategy-major, and
        # within a strategy exactly the stable sort of its own quorums.
        key = quorum + np.repeat(
            np.arange(len(explicit)) * matrices.shape[2], n_ops
        )
        ops = np.argsort(key, kind="stable")
        chosen = quorum[ops]
        first = indptr[chosen]
        width = indptr[chosen + 1] - first
        op_starts = np.cumsum(width) - width
        # Request r of operation k reads node-table row
        # first[k] + (r - op_starts[k]).
        rows = np.arange(int(width.sum()))
        rows += np.repeat(first - op_starts, width)
        return np.repeat(ops, width), nodes[rows], counts[rows], op_starts

    # A threshold system with the balanced strategy (checked when the
    # simulation was built): uniform random q-subsets for every operation
    # at once. The q smallest of n iid uniform keys index a uniformly
    # random subset (same distribution as rng.choice(n, q, replace=False)).
    support = placed.placement.support_set
    n = placed.system.universe_size
    q = placed.system.quorum_size
    subsets = np.empty((n_ops, q), dtype=np.intp)
    for start in range(0, n_ops, _SUBSET_CHUNK):
        stop = min(start + _SUBSET_CHUNK, n_ops)
        keys = rng.random((stop - start, n))
        subsets[start:stop] = np.argpartition(keys, q - 1, axis=1)[:, :q]
    return (
        np.repeat(np.arange(n_ops, dtype=np.intp), q),
        support[subsets].ravel(),
        np.ones(n_ops * q, dtype=np.intp),
        np.arange(0, n_ops * q, q, dtype=np.intp),
    )


def run_fluid(
    sim: "GenericQuorumSimulation",
    duration_ms: float,
    warmup_ms: float = 0.0,
) -> tuple["GenericSimResult", ...]:
    """Run ``sim``'s open-loop scenario through the fluid backend.

    Returns one result per strategy of ``sim.strategies``, each equal to
    the run of that strategy alone.
    """
    from repro.sim.generic import GenericSimResult

    if sim.arrivals is None:
        raise SimulationError(
            "the fluid backend is open-loop only; pass arrivals= "
            "(closed-loop feedback needs the event engine)"
        )
    rtt = sim.placed.topology.rtt
    service_times = sim.service_times
    telemetry_on = sim.collect_telemetry
    horizon = float(duration_ms)
    n_strategies = len(sim.strategies)

    times = sim.arrivals.sample_until(duration_ms)
    n_ops = times.size
    if n_ops == 0:
        raise SimulationError(
            "no operations completed after warmup; run longer or reduce "
            "the warmup window"
        )
    op_node = sim.client_nodes[
        np.arange(n_ops, dtype=np.intp) % sim.client_nodes.size
    ]
    rng = np.random.default_rng(sim.seed)

    # ------------------------------------------------------------------
    # One request table (one row per client->server message, one block
    # of rows per strategy); every column is a gather through the
    # request's operation or server.
    # ------------------------------------------------------------------
    req_op, req_server, req_units, op_starts = _sample_requests(
        sim, op_node, rng
    )
    total = req_op.size
    # Every strategy issues n_ops operations, so its block starts at the
    # first request of its first operation.
    bounds = np.append(op_starts[::n_ops], total)
    block_rows = np.diff(bounds)
    req_strategy = np.repeat(np.arange(n_strategies), block_rows)
    req_client = np.tile(op_node, n_strategies)[req_op]
    req_issue = np.tile(times, n_strategies)[req_op]
    req_one_way = rtt[req_client, req_server] / 2.0
    req_arrive = req_issue + req_one_way
    if sim.uniform_service:
        req_service = float(service_times[0]) * req_units
    else:
        req_service = service_times[req_server] * req_units

    # ------------------------------------------------------------------
    # Per-server FIFO queueing: sort by (server, arrival) once, Lindley
    # over each server's run, scatter departures back. Servers are ranked
    # by position in the (sorted, distinct) support set, and each
    # strategy's servers form a block of ranks of their own (a queue
    # slot), so strategies never share a queue.
    # ------------------------------------------------------------------
    servers = sim.placed.placement.support_set
    n_servers = servers.size
    rank_of = np.zeros(sim.placed.n_nodes, dtype=np.intp)
    rank_of[servers] = np.arange(n_servers)
    req_rank = rank_of[req_server]
    req_slot = req_strategy * n_servers + req_rank
    n_slots = n_strategies * n_servers
    order = _queue_order(req_slot, req_arrive, n_slots)
    arr_sorted = req_arrive[order]
    svc_sorted = req_service[order]
    counts = np.bincount(req_slot, minlength=n_slots)
    starts = np.cumsum(counts) - counts
    dep_sorted = _padded_departures(arr_sorted, svc_sorted, starts, counts)
    # Departures never decrease along a run, so each slot's processed
    # requests (departed by the horizon) are a prefix of its run: the
    # rows before its first later departure.
    late = np.flatnonzero(dep_sorted > horizon)
    first_late = np.append(late, total)[np.searchsorted(late, starts)]
    ends = np.minimum(first_late, starts + counts)
    processed = (ends - starts).reshape(n_strategies, n_servers)

    departure = np.empty(total, dtype=np.float64)
    departure[order] = dep_sorted

    # ------------------------------------------------------------------
    # Replies and per-operation completion (one reduceat per column).
    # ------------------------------------------------------------------
    reply = departure + req_one_way

    counts_by_pair = rtt_by_pair = None
    if telemetry_on:
        # Per-(client node, server) reply aggregation — the same
        # decomposition the event engine's clients perform per reply
        # (observed round-trip minus server residence), as two bincounts
        # with one (nodes, support) block of bins per strategy.
        n_nodes = sim.placed.n_nodes
        observed = reply <= horizon
        key = (
            req_strategy[observed] * n_nodes + req_client[observed]
        ) * n_servers + req_rank[observed]
        samples = (req_arrive[observed] - req_issue[observed]) + (
            reply[observed] - departure[observed]
        )
        shape = (n_strategies, n_nodes, n_servers)
        size = n_strategies * n_nodes * n_servers
        counts_by_pair = np.bincount(key, minlength=size).reshape(shape)
        rtt_by_pair = np.bincount(
            key, weights=samples, minlength=size
        ).reshape(shape)

    ops = req_op[op_starts]
    net_delay = np.empty(n_strategies * n_ops, dtype=np.float64)
    net_delay[ops] = np.maximum.reduceat(req_one_way, op_starts) * 2.0
    completion = np.empty(n_strategies * n_ops, dtype=np.float64)
    completion[ops] = np.maximum.reduceat(reply, op_starts)
    net_delay = net_delay.reshape(n_strategies, n_ops)
    completion = completion.reshape(n_strategies, n_ops)
    completed = completion <= horizon
    after_warmup = times >= warmup_ms

    elapsed = horizon
    rates = np.zeros((n_strategies, sim.placed.n_nodes))
    rates[:, servers] = processed / elapsed

    obs.count("sim.requests", int(total))
    results = []
    for k in range(n_strategies):
        done = completed[k]
        n_completed = int(np.count_nonzero(done & after_warmup))
        if n_completed == 0:
            raise SimulationError(
                "no operations completed after warmup; run longer or "
                "reduce the warmup window"
            )
        telemetry = None
        if counts_by_pair is not None and rtt_by_pair is not None:
            telemetry = PairTelemetry(
                support_nodes=servers.copy(),
                counts=counts_by_pair[k],
                rtt_sum_ms=rtt_by_pair[k],
                service_ms=service_times[servers].copy(),
            )
        block = slice(bounds[k], bounds[k + 1])
        slots = slice(k * n_servers, (k + 1) * n_servers)
        results.append(
            GenericSimResult(
                # Percentiles are paid only if someone reads ``stats``.
                stats=partial(
                    summarize_arrays,
                    issued_at_ms=times[done],
                    completed_at_ms=completion[k][done],
                    network_delay_ms=net_delay[k][done],
                    # Open loop: every operation is its own client.
                    client_ids=None,
                    warmup_ms=warmup_ms,
                ),
                per_node_request_rate=rates[k],
                # Busy time is summed only if someone reads it.
                server_utilizations=partial(
                    _utilizations,
                    svc_sorted,
                    starts[slots],
                    ends[slots],
                    elapsed,
                ),
                operations_completed=n_completed,
                requests_issued=int(block_rows[k]),
                requests_processed=int(processed[k].sum()),
                # Counted over every request, not as issued - processed:
                # the identity then checks that each run's processed rows
                # are a prefix.
                requests_in_flight=int(
                    np.count_nonzero(departure[block] > horizon)
                ),
                telemetry=telemetry,
            )
        )
    return tuple(results)
