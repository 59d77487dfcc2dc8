"""Best-``v0`` search for one-to-one placements.

The single-client constructions of Gupta et al. are optimal only for their
designated client. The paper's recipe for the general case (Section 4.1.1):
"run the single-client placement algorithm using each node v as v0, compute
the average network delay from all clients for each such placement, and pick
the placement that has the smallest average delay" — which is within a small
constant factor of optimal. The evaluation strategy is the uniform one, the
assumption under which the single-client constructions are optimal; the
average is over every client, and only capacity-eligible nodes host.

No placement is built per candidate. :func:`_block_delays` scores a block of
candidates from a few array passes: it builds every candidate's ball
``B(v0, n)`` at once, then scores threshold systems by sorted order
statistics and enumerable systems by each quorum's maximum plus the
uniform-strategy ``einsum``. A Grid's quorum maximum is the larger of its
row's and its column's maximum, one row-wise and one column-wise max for
every quorum at once; other systems take a running max over the element
table's slots. A threshold's ``n`` ball distances per client are ordered
by a comparator network of elementwise ``np.minimum``/``np.maximum``
passes up to ``n = 10``, where that beats ``np.sort``, and by ``np.sort``
above. Min and max are exact, so every path gives the same bits, and the
delays are bit-identical to building each placement and calling
:func:`~repro.core.response_time.average_network_delay`, because it hands
``einsum``/``@`` the same C-contiguous per-candidate operands that path
does (their rounding depends on memory layout). The winner is rebuilt by
:func:`~repro.placement.one_to_one.one_to_one_placement` and evaluated once
through :func:`~repro.core.response_time.evaluate`; a kernel delay that
differs from it raises :class:`~repro.errors.PlacementError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from repro.core.placement import PlacedQuorumSystem
from repro.core.response_time import average_network_delay
from repro.core.strategy import (
    AccessStrategy,
    ExplicitStrategy,
    ThresholdBalancedStrategy,
)
from repro.errors import PlacementError
from repro.network.graph import Topology
from repro.obs import tracer as obs
from repro.placement.one_to_one import hosting_capacity, one_to_one_placement
from repro.quorums.base import QuorumSystem
from repro.quorums.grid import RectangularGridQuorumSystem
from repro.quorums.order_stats import max_order_statistic_pmf
from repro.quorums.singleton import SingletonQuorumSystem
from repro.quorums.threshold import ThresholdQuorumSystem
from repro.runtime.grid import GridPoint
from repro.runtime.runner import GridRunner
from repro.runtime.shm import resolve_topology

__all__ = ["PlacementSearchResult", "best_placement", "uniform_strategy_for"]

#: Contiguous candidate blocks per search, one grid point each: enough to
#: keep a small pool busy, few enough that dispatch and topology transport
#: cost per search rather than per candidate.
_BLOCKS = 8

#: Elements per working array of the block kernel (2 MB of float64).
_CHUNK = 250_000

#: Largest ball that :func:`_sorted_distances` orders by comparator
#: network. Per ``_CHUNK``-element chunk on a 2-core x86 host the network
#: took 1.2 ms at n = 5 and 1.6 ms at n = 10 against ``np.sort``'s 2.8 and
#: 1.7 ms; from n = 11 on ``np.sort`` is faster.
_NETWORK_MAX_N = 10


def uniform_strategy_for(placed: PlacedQuorumSystem) -> AccessStrategy:
    """The balanced strategy in whichever representation fits the system.

    Thresholds use the exact implicit evaluation even when enumerable: it
    is dramatically cheaper than materializing ``C(n, q)`` quorums.
    """
    if placed.is_threshold:
        return ThresholdBalancedStrategy()
    return ExplicitStrategy.uniform(placed)


@dataclass(frozen=True)
class PlacementSearchResult:
    """Outcome of the best-``v0`` search.

    ``delays_by_candidate`` maps each attempted ``v0`` to the average
    network delay of its placement (useful for studying placement
    sensitivity).
    """

    placed: PlacedQuorumSystem
    v0: int
    avg_network_delay: float
    delays_by_candidate: dict[int, float]


def _candidate_ids(topology: Topology, candidates: object) -> np.ndarray:
    """Validated candidate node ids (duplicates and views stay legal)."""
    if candidates is None:
        return np.arange(topology.n_nodes)
    try:
        ids = np.asarray(candidates)
    except (TypeError, ValueError) as exc:
        raise PlacementError(f"candidate ids are not an array: {exc}") from exc
    if ids.ndim != 1:
        raise PlacementError(
            f"candidate ids must be 1-D, got shape {ids.shape}"
        )
    if ids.size == 0:
        raise PlacementError("candidate set must be non-empty")
    if ids.dtype.kind not in "iu":
        raise PlacementError(
            f"candidate ids must be integers, got dtype {ids.dtype}"
        )
    if ids.min() < 0 or ids.max() >= topology.n_nodes:
        raise PlacementError(
            f"candidate ids must lie in [0, {topology.n_nodes}), got "
            f"[{ids.min()}, {ids.max()}]"
        )
    return ids.astype(np.intp, copy=False)


def _hosting_nodes(topology: Topology, system: QuorumSystem) -> np.ndarray:
    """Ascending ids of the nodes allowed to host an element of ``system``."""
    bound = hosting_capacity(system)
    return np.flatnonzero(topology.capacities >= bound)


def _balls(
    rtt: np.ndarray, eligible: np.ndarray, v0s: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every ``B(v0, k)`` over the ``eligible`` nodes, at once.

    Returns ``(ids, dists)``, both ``(len(v0s), k)``: row ``r`` holds the
    nodes of ``B(v0s[r], k)`` ascending by node id, and their distances
    from ``v0s[r]``. The ball is every node below the k-th smallest
    distance plus the lowest-id nodes at exactly that distance — the
    (distance, node id) order of :meth:`~repro.network.graph.Topology.ball`.
    """
    if eligible.size == rtt.shape[0]:
        d = rtt[v0s]
    else:
        d = rtt[np.ix_(v0s, eligible)]
    kth = np.partition(d, k - 1, axis=1)[:, k - 1 : k]
    below, ties = d < kth, d == kth
    room = k - np.count_nonzero(below, axis=1, keepdims=True)
    chosen = below | (ties & (np.cumsum(ties, axis=1) <= room))
    rows, cols = np.nonzero(chosen)
    shape = (v0s.size, k)
    return eligible[cols].reshape(shape), d[rows, cols].reshape(shape)


def _assignments(
    rtt: np.ndarray,
    system: QuorumSystem,
    eligible: np.ndarray,
    v0s: np.ndarray,
) -> np.ndarray:
    """Row ``r``: ``one_to_one_placement(..., v0s[r])`` of a non-threshold."""
    if isinstance(system, SingletonQuorumSystem):
        return v0s[:, None]
    ids, dists = _balls(rtt, eligible, v0s, system.universe_size)
    if isinstance(system, RectangularGridQuorumSystem):
        # The onion rule: farthest ball node first, ties by node id.
        far_first = np.argsort(-dists, axis=1, kind="stable")
        out = np.empty_like(ids)
        out[:, system.onion_order] = np.take_along_axis(ids, far_first, 1)
        return out
    nearest_first = np.argsort(dists, axis=1, kind="stable")
    return np.take_along_axis(ids, nearest_first, 1)


def _threshold_delays(
    rtt: np.ndarray,
    system: ThresholdQuorumSystem,
    eligible: np.ndarray,
    v0s: np.ndarray,
) -> np.ndarray:
    """Balanced-strategy delays: sorted ball distances times the pmf.

    Distances are gathered as *rows* of the RTT matrix (``rows[j, v] =
    d(v, node j)``), which a :class:`Topology` keeps exactly symmetric, so
    ``d(w, v)`` is ``d(v, w)`` to the bit.
    """
    n = system.universe_size
    pmf = max_order_statistic_pmf(n, system.quorum_size)
    out = np.empty(v0s.size)
    step = max(1, _CHUNK // (n * rtt.shape[0]))
    for start in range(0, v0s.size, step):
        block = v0s[start : start + step]
        ids, _ = _balls(rtt, eligible, block, n)
        values = _sorted_distances(np.take(rtt, ids.ravel(), axis=0), n)
        for j in range(block.size):
            out[start + j] = (values[j] @ pmf).mean()
    return out


@cache
def _sorting_network(n: int) -> tuple[tuple[int, int], ...]:
    """Batcher's odd-even merge sort on ``n`` wires: ``(i, j)`` comparators,
    ``i < j``, each putting the smaller value on wire ``i``.

    The loop bounds drop every comparator of the power-of-two network that
    would touch a wire ``>= n``, which is that network sorting ``n`` values
    padded with ``+inf``.
    """
    pairs = []
    p = 1
    while p < n:
        k = p
        while k >= 1:
            for j in range(k % p, n - k, 2 * k):
                for i in range(min(k, n - j - k)):
                    if (i + j) // (2 * p) == (i + j + k) // (2 * p):
                        pairs.append((i + j, i + j + k))
            k //= 2
        p *= 2
    return tuple(pairs)


def _sorted_distances(rows: np.ndarray, n: int) -> np.ndarray:
    """Each client's ``n`` ball distances in ascending order.

    ``rows`` is ``(c * n, clients)`` for ``c`` candidates, row ``r * n + u``
    the distances from ball node ``u`` of candidate ``r``. Returns the
    C-contiguous ``(c, clients, n)`` array whose ``[r]`` slice is the
    operand ``@`` sees on the reference path. Up to :data:`_NETWORK_MAX_N`
    the values pass through :func:`_sorting_network`, one elementwise
    ``np.minimum`` and ``np.maximum`` over a ``(c, clients)`` slab per
    comparator; min and max are exact, so the result is ``np.sort``'s.
    """
    c = rows.shape[0] // n
    if n > _NETWORK_MAX_N:
        values = np.ascontiguousarray(
            rows.reshape(c, n, -1).transpose(0, 2, 1)
        )
        values.sort(axis=2)
        return values
    slabs = list(rows.reshape(c, n, -1).transpose(1, 0, 2))
    for i, j in _sorting_network(n):
        low = np.minimum(slabs[i], slabs[j])
        slabs[j] = np.maximum(slabs[i], slabs[j])
        slabs[i] = low
    return np.stack(slabs, axis=2)


def _slot_maxima(
    rows: np.ndarray, table: np.ndarray, n: int
) -> np.ndarray:
    """Each quorum's delay to every client, by a running max over slots.

    ``rows`` is ``(c * n, clients)``, row ``r * n + u`` the distances from
    the host of element ``u`` of candidate ``r``; ``table`` is the
    system's padded element table. Returns ``(c, quorums, clients)``.
    """
    c = rows.shape[0] // n
    slots = np.ascontiguousarray(table.T)  # slots[s, i]: element in slot s
    offsets = (np.arange(c) * n)[:, None]
    # Running max in a (candidates x quorums, clients) row-major buffer.
    rho = np.take(rows, (offsets + slots[0]).ravel(), axis=0)
    gathered = np.empty_like(rho)
    for slot in slots[1:]:
        # mode="clip" lets take write into ``out`` unbuffered; every
        # index is in range.
        index = (offsets + slot).ravel()
        np.take(rows, index, axis=0, out=gathered, mode="clip")
        np.maximum(rho, gathered, out=rho)
    return rho.reshape(c, table.shape[0], -1)


def _grid_maxima(
    rows: np.ndarray, system: RectangularGridQuorumSystem
) -> np.ndarray:
    """:func:`_slot_maxima` of a Grid, from row and column maxima.

    Quorum ``(r, k)``, index ``r * cols + k``, is row ``r`` plus column
    ``k``, so its delay is the larger of the two lines' maxima: one
    row-wise max, one column-wise max and one broadcast ``np.maximum``
    instead of ``rows + cols - 1`` gathers. Max is exact, so the values
    are the slot loop's to the bit.
    """
    r, k = system.rows, system.cols
    cells = rows.reshape(-1, r, k, rows.shape[1])
    line_max = np.maximum(
        cells.max(axis=2)[:, :, None, :], cells.max(axis=1)[:, None, :, :]
    )
    return line_max.reshape(-1, r * k, rows.shape[1])


def _enumerable_delays(
    rtt: np.ndarray,
    system: QuorumSystem,
    eligible: np.ndarray,
    v0s: np.ndarray,
) -> np.ndarray:
    """Uniform-strategy delays of an enumerable system's placements."""
    table, _ = system.element_table
    m, n = table.shape[0], system.universe_size
    width = rtt.shape[0]
    weights = ExplicitStrategy(np.full((width, m), 1.0 / m)).matrix
    out = np.empty(v0s.size)
    step = max(1, _CHUNK // (max(m, n) * rtt.shape[0]))
    for start in range(0, v0s.size, step):
        block = v0s[start : start + step]
        # Element rows of every candidate: row c*n + u is d(., f_c(u)).
        rows = np.take(
            rtt, _assignments(rtt, system, eligible, block).ravel(), axis=0
        )
        if isinstance(system, RectangularGridQuorumSystem):
            rho = _grid_maxima(rows, system)
        else:
            rho = _slot_maxima(rows, table, n)
        # Each candidate's (clients, quorums) rho as a C-contiguous slice,
        # the layout ``einsum`` sees on the reference path.
        rho = np.ascontiguousarray(rho.transpose(0, 2, 1))
        for j in range(block.size):
            out[start + j] = np.einsum("vi,vi->v", weights, rho[j]).mean()
    return out


def _block_delays(
    topology: object,
    system: QuorumSystem,
    v0s: np.ndarray,
) -> np.ndarray:
    """Average network delay of each candidate's one-to-one placement.

    Module-level so the search can fan blocks out over a process pool.
    ``topology`` may be a :class:`~repro.runtime.shm.TopologyHandle`:
    parallel dispatch ships the handle instead of pickling the delay
    matrix per block, and workers resolve it from the registry they
    inherited or attach its shared-memory block once.
    """
    topology = resolve_topology(topology)
    eligible = _hosting_nodes(topology, system)
    if isinstance(system, ThresholdQuorumSystem):
        return _threshold_delays(topology.rtt, system, eligible, v0s)
    return _enumerable_delays(topology.rtt, system, eligible, v0s)


def best_placement(
    topology: Topology,
    system: QuorumSystem,
    candidates: object = None,
    jobs: int = 1,
    runner: GridRunner | None = None,
) -> PlacementSearchResult:
    """Best one-to-one placement over candidate designated clients.

    Parameters
    ----------
    topology, system:
        The network and the quorum system to place.
    candidates:
        Candidate ``v0`` nodes (default: every node, the paper's recipe):
        a 1-D array of integer node ids. Duplicates are allowed. The
        winner is the placement with the smallest average network delay
        over every client.
    jobs:
        Worker processes for the candidate blocks. Candidates are
        independent, so the result is identical for any ``jobs``: the
        reduction scans delays in candidate order, keeping the serial
        tie-break (first candidate with the minimal delay wins).
    runner:
        A shared :class:`~repro.runtime.runner.GridRunner` to schedule the
        candidate blocks through (its worker pool is reused; inside one of
        its workers the blocks run inline). Overrides ``jobs``; without
        one, a throwaway runner with ``jobs`` workers is used. A block
        that raises surfaces as a :class:`~repro.errors.ReproError`
        naming its candidate positions; the batch's still-queued work is
        cancelled (in-flight points finish but are not returned).

    Hosting nodes must have ``cap(v) >= load_f(u)``. When fewer nodes
    qualify than the universe has elements, no candidate admits a
    placement and :class:`~repro.errors.PlacementError` is raised before
    any scoring (as it is, naming the topology size, when the universe
    outnumbers the topology's nodes).
    """
    v0s = _candidate_ids(topology, candidates)
    n = system.universe_size
    if n > topology.n_nodes:
        raise PlacementError(
            f"{system.name} has {n} elements but the topology has only "
            f"{topology.n_nodes} nodes"
        )
    eligible = _hosting_nodes(topology, system)
    if eligible.size < n:
        raise PlacementError(
            f"{system.name} needs {n} hosting nodes, but only "
            f"{eligible.size} of {topology.n_nodes} nodes have capacity "
            f">= {hosting_capacity(system)}"
        )

    # Contiguous blocks keep the scan in candidate order; each tag is its
    # block's (start, stop) positions in the candidate array.
    k = min(_BLOCKS, v0s.size)
    edges = [v0s.size * i // k for i in range(k + 1)]
    spans = list(zip(edges[:-1], edges[1:]))

    def _points(ship: object) -> list[GridPoint]:
        # ``ship`` is what actually crosses the process boundary: the
        # topology itself on inline paths, a topology handle when the
        # runner dispatches to workers.
        score = partial(_block_delays, ship, system)
        return [
            GridPoint(tag=span, fn=score, kwargs={"v0s": v0s[slice(*span)]})
            for span in spans
        ]

    with obs.span("placement.search", candidates=v0s.size):
        if runner is not None:
            results = runner.run(_points(runner.ship(topology)))
        else:
            with GridRunner(jobs=jobs) as own_runner:
                results = own_runner.run(
                    _points(own_runner.ship(topology))
                )
    delays = np.concatenate([results[span] for span in spans])

    best = int(np.argmin(delays))  # the first minimum, as a serial scan
    best_v0, best_delay = int(v0s[best]), float(delays[best])
    if not np.isfinite(best_delay):  # a disconnected topology
        raise PlacementError("no candidate admits a placement of finite delay")
    best_placed = PlacedQuorumSystem(
        system,
        one_to_one_placement(topology, system, best_v0),
        topology,
    )
    check = average_network_delay(
        best_placed, uniform_strategy_for(best_placed)
    )
    # Exact comparison: the kernel is bit-identical by contract.
    if check != best_delay:
        raise PlacementError(
            f"block kernel scored v0={best_v0} at {best_delay!r}, but its "
            f"placement evaluates to {check!r}"
        )
    return PlacementSearchResult(
        placed=best_placed,
        v0=best_v0,
        avg_network_delay=best_delay,
        delays_by_candidate=dict(zip(v0s.tolist(), delays.tolist())),
    )
