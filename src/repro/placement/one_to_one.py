"""One-to-one placements for Majorities and the Grid (Section 4.1.1).

Both algorithms place the universe onto the ball ``B(v0, n)`` of the ``n``
nodes closest to a designated client ``v0``:

* **Majorities** (Gupta et al.): every one-to-one placement onto a fixed
  node set has the same average delay for a single uniform client, so an
  arbitrary bijection onto the ball is optimal. Hosting nodes must satisfy
  ``cap(v) >= load_f(u)``, and under the uniform strategy every element's
  load is the constant ``q/n``. The bound applies to ``v0`` as well: an
  under-capacity ``v0`` designates the client but hosts nothing.

* **Grid** (Gupta et al., the "onion" construction): with ball distances
  sorted in *decreasing* order ``d_1 >= d_2 >= ...``, the largest ``l^2``
  distances fill the top-left ``l x l`` square; the next ``l`` fill the top
  of column ``l+1``; the next ``l+1`` fill row ``l+1``; and so on
  inductively. The nearest nodes therefore end up in the last row and
  column, which together form the closest quorum for ``v0``.
"""

from __future__ import annotations

import numpy as np

from repro.core.placement import Placement
from repro.errors import PlacementError
from repro.network.graph import Topology
from repro.quorums.base import QuorumSystem
from repro.quorums.grid import RectangularGridQuorumSystem
from repro.quorums.singleton import SingletonQuorumSystem
from repro.quorums.threshold import ThresholdQuorumSystem

__all__ = [
    "hosting_capacity",
    "majority_ball_placement",
    "grid_onion_placement",
    "one_to_one_placement",
]


def hosting_capacity(system: QuorumSystem) -> float:
    """The least ``cap(v)`` a node needs to host an element of ``system``.

    Under the uniform strategy every element of a Majority carries load
    ``q/n`` and every element of a Grid its :attr:`uniform_load`. The
    singleton and the generic fallback ignore capacities (bound 0).
    """
    if isinstance(system, RectangularGridQuorumSystem):
        return system.uniform_load
    if isinstance(system, ThresholdQuorumSystem):
        return system.quorum_size / system.universe_size
    return 0.0


def majority_ball_placement(
    topology: Topology,
    system: ThresholdQuorumSystem,
    v0: int,
) -> Placement:
    """Place a Majority one-to-one onto ``B(v0, n)``.

    The identity of the bijection is irrelevant for a single uniform client
    (Gupta et al.), so elements are assigned to ball nodes in
    distance-from-``v0`` order, which makes the placement deterministic.
    """
    if not isinstance(system, ThresholdQuorumSystem):
        raise PlacementError(
            "majority_ball_placement requires a threshold quorum system"
        )
    n = system.universe_size
    if n > topology.n_nodes:
        raise PlacementError(
            f"universe of {n} elements exceeds topology of "
            f"{topology.n_nodes} nodes"
        )
    ball = topology.ball(v0, n, capacity_at_least=hosting_capacity(system))
    return Placement(ball)


def grid_onion_placement(
    topology: Topology,
    system: RectangularGridQuorumSystem,
    v0: int,
) -> Placement:
    """Place a Grid one-to-one onto ``B(v0, n)`` by the onion rule.

    Optimal for the single client ``v0`` under the uniform strategy for
    square grids (Gupta et al.); for rectangular grids the same shell
    construction is applied as a heuristic (truncating shells at the grid
    boundary). Returns the placement mapping element ``(r, c)`` (row-major)
    to a ball node.
    """
    if not isinstance(system, RectangularGridQuorumSystem):
        raise PlacementError("grid_onion_placement requires a Grid system")
    rows, cols = system.rows, system.cols
    n = rows * cols
    if n > topology.n_nodes:
        raise PlacementError(
            f"grid universe of {n} elements exceeds topology of "
            f"{topology.n_nodes} nodes"
        )
    ball = topology.ball(v0, n, capacity_at_least=hosting_capacity(system))
    dists = topology.distances_from(v0)[ball]
    # Ball nodes from farthest to nearest (stable on node id).
    order = np.lexsort((ball, -dists))
    # Earlier cells of the onion fill order receive larger distances.
    assignment = np.empty(n, dtype=np.intp)
    assignment[system.onion_order] = ball[order]
    return Placement(assignment)


def one_to_one_placement(
    topology: Topology, system: QuorumSystem, v0: int
) -> Placement:
    """Dispatch to the right single-client one-to-one construction."""
    if isinstance(system, RectangularGridQuorumSystem):
        return grid_onion_placement(topology, system, v0)
    if isinstance(system, ThresholdQuorumSystem):
        return majority_ball_placement(topology, system, v0)
    if isinstance(system, SingletonQuorumSystem):
        return Placement(np.array([v0]))
    # Generic fallback: ball assignment in distance order (not necessarily
    # optimal, but valid and capacity-aware for arbitrary systems).
    n = system.universe_size
    if n > topology.n_nodes:
        raise PlacementError(
            f"universe of {n} elements exceeds topology of "
            f"{topology.n_nodes} nodes"
        )
    ball = topology.ball(v0, n)
    return Placement(ball)
