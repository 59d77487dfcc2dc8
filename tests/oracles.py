"""Reference implementations that tests compare the library against.

Each is the plain form of something the library computes in a vectorized,
blocked or closed form: a loop over entries, or one whole-matrix
expression where the library works a block at a time. None of them is on
any library code path.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse

from repro.core.placement import PlacedQuorumSystem
from repro.core.strategy import ExplicitStrategy
from repro.dynamics.controller import AdaptationPolicy, SegmentSeries
from repro.dynamics.events import effective_rtt
from repro.dynamics.telemetry import (
    TelemetryConfig,
    TelemetryEstimator,
    probe_epoch,
)
from repro.errors import InfeasibleError, QuorumSystemError, TopologyError
from repro.lp.problem import CSRArrays
from repro.network.generators import (
    MIN_RTT_MS,
    ClusterSpec,
    _allocate_sites,
)
from repro.network.geo import EARTH_RADIUS_KM, propagation_rtt_ms
from repro.network.graph import Topology
from repro.quorums.base import QuorumSystem
from repro.quorums.order_stats import max_order_statistic_pmf
from repro.strategies.lp_optimizer import StrategyProgram


def expected_max_of_random_subset(values: np.ndarray, q: int) -> float:
    """``E[max of a uniformly random q-subset of values]``, exactly.

    ``values`` need not be sorted. Ties are handled correctly because the
    pmf depends only on sorted positions.
    """
    x = np.sort(np.asarray(values, dtype=np.float64))
    pmf = max_order_statistic_pmf(len(x), q)
    return float(np.dot(pmf, x))


def great_circle_km(
    lat1: float, lon1: float, lat2: float, lon2: float
) -> float:
    """Scalar haversine distance between two (lat, lon) points, in km."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlmb = math.radians(lon2 - lon1)
    a = (
        math.sin(dphi / 2.0) ** 2
        + math.cos(phi1) * math.cos(phi2) * math.sin(dlmb / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(a)))


def whole_matrix_great_circle_km(
    lats: np.ndarray, lons: np.ndarray
) -> np.ndarray:
    """Square pairwise great-circle matrix, in km, in one expression."""
    phi = np.radians(np.asarray(lats, dtype=np.float64))
    lmb = np.radians(np.asarray(lons, dtype=np.float64))
    dphi = phi[:, None] - phi[None, :]
    dlmb = lmb[:, None] - lmb[None, :]
    a = (
        np.sin(dphi / 2.0) ** 2
        + np.cos(phi)[:, None] * np.cos(phi)[None, :] * np.sin(dlmb / 2.0) ** 2
    )
    a = np.clip(a, 0.0, 1.0)
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(a))


def whole_matrix_cluster_topology(
    n_sites: int,
    clusters: list[ClusterSpec],
    seed: int,
    inflation_range: tuple[float, float] = (1.3, 2.2),
    access_delay_ms_range: tuple[float, float] = (0.3, 3.0),
    jitter_ms: float = 1.0,
    metric_closure: bool = True,
) -> Topology:
    """``generate_cluster_topology`` as whole (n, n) array expressions.

    Draws the full inflation and jitter matrices, keeps their upper
    triangles, and lets :class:`Topology` symmetrize the raw matrix. It
    holds about six n x n arrays at once; the library builds the same
    bytes a block of rows at a time.
    """
    rng = np.random.default_rng(seed)
    counts = _allocate_sites(clusters, n_sites)
    lats = np.empty(n_sites)
    lons = np.empty(n_sites)
    names: list[str] = []
    pos = 0
    for cluster, count in zip(clusters, counts):
        lats[pos : pos + count] = rng.normal(
            cluster.lat, cluster.spread_deg, size=count
        )
        lons[pos : pos + count] = rng.normal(
            cluster.lon, cluster.spread_deg, size=count
        )
        names.extend(f"{cluster.name}-{i}" for i in range(count))
        pos += count
    lats = np.clip(lats, -89.9, 89.9)
    lons = (lons + 180.0) % 360.0 - 180.0

    base_rtt = propagation_rtt_ms(whole_matrix_great_circle_km(lats, lons))
    lo, hi = inflation_range
    inflation = rng.uniform(lo, hi, size=(n_sites, n_sites))
    inflation = np.triu(inflation, 1)
    inflation = inflation + inflation.T
    alo, ahi = access_delay_ms_range
    access = rng.uniform(alo, ahi, size=n_sites)
    jitter = rng.exponential(jitter_ms, size=(n_sites, n_sites))
    jitter = np.triu(jitter, 1)
    jitter = jitter + jitter.T

    rtt = base_rtt * inflation + access[:, None] + access[None, :] + jitter
    rtt = np.maximum(rtt, MIN_RTT_MS)
    np.fill_diagonal(rtt, 0.0)
    return Topology(rtt, names=names, metric_closure=metric_closure)


def load_of_strategy(system: QuorumSystem, strategy: np.ndarray) -> float:
    """System load (max element load) induced by a global strategy."""
    p = np.asarray(strategy, dtype=np.float64)
    if p.shape != (system.num_quorums,):
        raise QuorumSystemError(
            f"strategy must have {system.num_quorums} entries, got {p.shape}"
        )
    if np.any(p < -1e-12) or not np.isclose(p.sum(), 1.0, atol=1e-9):
        raise QuorumSystemError("strategy must be a probability distribution")
    return float(system.element_loads(p).max())


def validate_metric(topology: Topology, tolerance: float = 1e-9) -> None:
    """Raise :class:`TopologyError` if the RTTs violate the metric axioms."""
    m = topology.rtt
    if np.any(np.diag(m) != 0):
        raise TopologyError("metric has non-zero self distance")
    if not np.allclose(m, m.T, atol=tolerance):
        raise TopologyError("metric is not symmetric")
    for k in range(topology.n_nodes):
        via_k = m[:, k][:, None] + m[k, :][None, :]
        if np.any(m > via_k + tolerance):
            raise TopologyError(
                f"triangle inequality violated through node {k}"
            )


def scipy_csr(matrix: CSRArrays) -> sparse.csr_matrix:
    """``matrix`` as a ``scipy.sparse.csr_matrix`` over copies of its
    arrays."""
    return sparse.csr_matrix(
        (matrix.data.copy(), matrix.indices.copy(), matrix.indptr.copy()),
        shape=matrix.shape,
    )


def dense(matrix: CSRArrays) -> np.ndarray:
    """``matrix`` as a dense array."""
    return scipy_csr(matrix).toarray()


def scipy_matrices(lp) -> dict:
    """``A_ub`` and ``A_eq`` of a :class:`~repro.lp.problem.LinearProgram`,
    built by scipy from its COO chunks: ``coo_matrix(...).tocsr()``."""
    matrices = {}
    for key, triplets in (("A_ub", lp._le), ("A_eq", lp._eq)):
        matrices[key] = (
            sparse.coo_matrix(
                (
                    np.concatenate(triplets.vals),
                    (
                        np.concatenate(triplets.rows),
                        np.concatenate(triplets.cols),
                    ),
                ),
                shape=(triplets.n_rows, lp.n_variables),
            ).tocsr()
            if triplets.n_rows
            else None
        )
    return matrices


def scipy_stacked_csc(blocks, n_cols: int) -> sparse.csc_matrix:
    """The CSC that the HiGHS model takes, built by scipy:
    ``vstack(blocks).tocsc()`` (an empty one without blocks)."""
    if not blocks:
        return sparse.csc_matrix((0, n_cols))
    return sparse.vstack([scipy_csr(b) for b in blocks]).tocsc()


def assert_same_arrays(got, want) -> None:
    """``indptr``, ``indices`` and ``data`` equal, bits and dtypes."""
    for field in ("indptr", "indices", "data"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype, (field, a.dtype, b.dtype)
        assert a.tobytes() == b.tobytes(), field


def replay_policy_alone(
    placed: PlacedQuorumSystem,
    policy: AdaptationPolicy,
    rtt_factors: np.ndarray,
    capacities: np.ndarray,
    rtt_changed: np.ndarray,
    telemetry: TelemetryConfig | None = None,
) -> SegmentSeries:
    """One policy's segment replay on its own, epoch by epoch.

    The per-policy loop that a lockstep
    :class:`~repro.dynamics.controller.AdaptiveController` must reproduce
    for every policy byte for byte: one warm program, and in closed loop
    one estimator and one noise stream fed by a probe of the policy's own
    strategy in force (the uniform fallback before anything is).
    """
    factors = np.asarray(rtt_factors, dtype=np.float64)
    caps = np.asarray(capacities, dtype=np.float64)
    n_epochs = factors.shape[0]
    uniform = np.full(
        (placed.n_nodes, placed.num_quorums), 1.0 / placed.num_quorums
    )
    program = synced = delta = effective = matrix = None
    value_at_reopt, retry_pending = np.inf, False
    estimator = noise_rng = None
    if telemetry is not None:
        estimator = TelemetryEstimator(placed, telemetry)
        noise_rng = np.random.default_rng([telemetry.seed, 0x7E1E])
    out = SegmentSeries(
        expected_delay=np.zeros(n_epochs),
        reoptimized=np.zeros(n_epochs, dtype=bool),
        infeasible=np.zeros(n_epochs, dtype=bool),
        max_overload=np.zeros(n_epochs),
        lp_solves=np.zeros(n_epochs, dtype=np.intp),
        assemblies=np.zeros(n_epochs, dtype=np.intp),
        estimation_error=np.zeros(n_epochs),
        staleness=np.zeros(n_epochs),
        probe_operations=np.zeros(n_epochs, dtype=np.intp),
    )
    for i in range(n_epochs):
        if delta is None or rtt_changed[i]:
            effective = effective_rtt(placed.topology.rtt, factors[i])
            delta = placed.delay_matrix_for(effective)
        decision_delta, decision_caps = delta, caps[i]
        if telemetry is not None:
            in_force = uniform if matrix is None else matrix
            (sample,) = probe_epoch(
                placed,
                (ExplicitStrategy(in_force),),
                effective,
                caps[i],
                seed=telemetry.seed + i,
            )
            estimator.observe(sample, noise_rng)
            decision_delta = placed.delay_matrix_for(estimator.rtt_estimate)
            decision_caps = estimator.capacity_estimate
            out.estimation_error[i] = float(
                np.abs(decision_delta - delta).mean()
                / max(float(delta.mean()), 1e-12)
            )
            out.staleness[i] = estimator.mean_staleness
            out.probe_operations[i] = int(sample.counts.sum())
        if matrix is None or retry_pending:
            reopt = True
        else:
            reopt = policy.should_reoptimize(
                i, float((matrix * decision_delta).sum(axis=1).mean()),
                value_at_reopt,
            )
        if reopt:
            if program is None:
                program = StrategyProgram(placed, delay_matrix=decision_delta)
                out.assemblies[i] = 1
            elif synced is not decision_delta:
                program.update_delays(decision_delta)
            synced = decision_delta
            before = program.lp_solves
            try:
                new_matrix = program.solve(decision_caps).matrix
            except InfeasibleError:
                new_matrix = None
            out.lp_solves[i] = program.lp_solves - before
            if new_matrix is None:
                out.infeasible[i] = True
                retry_pending = True
                if matrix is None:
                    matrix = uniform
            else:
                out.reoptimized[i] = True
                retry_pending = False
                matrix = new_matrix
                value_at_reopt = float(
                    (matrix * decision_delta).sum(axis=1).mean()
                )
        out.expected_delay[i] = float((matrix * delta).sum(axis=1).mean())
        loads = (matrix @ placed.incidence_counts).mean(axis=0)
        out.max_overload[i] = float(np.maximum(loads - caps[i], 0.0).max())
    return out
