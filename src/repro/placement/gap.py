"""GAP rounding of a fractional placement (Section 4.1.2, third stage).

The filtered fractional solution is turned into an integral many-to-one
placement by the Shmoys–Tardos generalized-assignment rounding:

1. For each node ``w``, create ``ceil(sum_u x[u, w])`` unit-capacity *slots*.
2. Walk the elements fractionally assigned to ``w`` in order of
   non-increasing load, pouring their mass into the slots in sequence (an
   element may straddle two consecutive slots).
3. The pouring is a fractional perfect matching of elements to slots, so an
   integral min-cost perfect matching exists on its support; compute it and
   read the placement off the matched slots.

The resulting placement exceeds each node's capacity by less than the
largest single element load poured into its last slot — the paper's
"capacity exceeded by a small constant factor".

The matching is scipy's ``min_weight_full_bipartite_matching``, run on a
``scipy.sparse`` biadjacency. Both load on the first rounding, not at
import: only the many-to-one placement rounds, and importing
``scipy.sparse`` costs a process about 0.12 s and 20 MB (300 modules,
``numpy.testing``, ``numpy.ma`` and ``numpy.f2py`` among them). The
matching extension is loaded from its file
(:func:`~repro.scipy_ext.load_scipy_extension`), without
``scipy.sparse.csgraph``'s ``__init__``, which would also load
``scipy.sparse.linalg`` and ``scipy.linalg``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from repro.core.placement import Placement
from repro.errors import PlacementError
from repro.scipy_ext import load_scipy_extension

__all__ = ["round_fractional_placement", "SlotGraph"]

_MASS_EPS = 1e-9


@dataclass(frozen=True)
class SlotGraph:
    """Bipartite element-slot graph produced by the slotting step.

    ``slot_node[s]`` is the topology node backing slot ``s``; ``edges`` maps
    ``(element, slot)`` to the edge cost (distance from the designated
    client to the slot's node).
    """

    slot_node: np.ndarray
    edges: dict[tuple[int, int], float]


def _build_slots(
    x: np.ndarray, loads: np.ndarray, costs: np.ndarray
) -> SlotGraph:
    n_elements, n_nodes = x.shape
    slot_node: list[int] = []
    edges: dict[tuple[int, int], float] = {}
    for w in range(n_nodes):
        mass = x[:, w]
        elements = np.flatnonzero(mass > _MASS_EPS)
        if elements.size == 0:
            continue
        total = float(mass[elements].sum())
        n_slots = max(1, ceil(total - _MASS_EPS))
        first_slot = len(slot_node)
        slot_node.extend([w] * n_slots)
        # Pour elements in non-increasing load order into unit slots.
        order = elements[np.lexsort((elements, -loads[elements]))]
        slot, remaining = 0, 1.0
        for u in order:
            left = float(mass[u])
            while left > _MASS_EPS:
                edges[(int(u), first_slot + slot)] = float(costs[w])
                if slot + 1 == n_slots:
                    # Last slot absorbs any residual mass (float dust can
                    # push the poured total a hair above ceil(total)).
                    left = 0.0
                    break
                poured = min(left, remaining)
                left -= poured
                remaining -= poured
                if remaining <= _MASS_EPS:
                    slot += 1
                    remaining = 1.0
    return SlotGraph(slot_node=np.asarray(slot_node, dtype=np.intp), edges=edges)


def round_fractional_placement(
    x: np.ndarray,
    dist_from_v0: np.ndarray,
    element_loads: np.ndarray,
) -> Placement:
    """Round a (filtered) fractional placement to an integral one.

    Parameters
    ----------
    x:
        Fractional assignment, shape (universe, nodes); rows sum to one.
    dist_from_v0:
        Cost of hosting any element on each node (distance from the
        designated client).
    element_loads:
        Load of each element under the global strategy (slot ordering key).
    """
    frac = np.asarray(x, dtype=np.float64)
    dist = np.asarray(dist_from_v0, dtype=np.float64)
    loads = np.asarray(element_loads, dtype=np.float64)
    n_elements, n_nodes = frac.shape
    if dist.shape != (n_nodes,):
        raise PlacementError("distance vector shape mismatch")
    if loads.shape != (n_elements,):
        raise PlacementError("element load vector shape mismatch")
    if not np.allclose(frac.sum(axis=1), 1.0, atol=1e-6):
        raise PlacementError("fractional placement rows must sum to one")

    graph = _build_slots(frac, loads, dist)
    n_slots = graph.slot_node.size
    if n_slots < n_elements:
        raise PlacementError(
            "slotting produced fewer slots than elements; "
            "fractional solution is not a valid assignment"
        )

    from scipy.sparse import csr_matrix

    matching = load_scipy_extension(
        "scipy.sparse.csgraph._matching", "scipy.sparse.csgraph"
    )
    rows, cols, vals = [], [], []
    for (u, s), cost in graph.edges.items():
        rows.append(u)
        cols.append(s)
        # Shift costs by +1 so zero-distance edges stay explicit in CSR.
        vals.append(cost + 1.0)
    biadjacency = csr_matrix(
        (vals, (rows, cols)), shape=(n_elements, n_slots)
    )
    try:
        row_match, col_match = matching.min_weight_full_bipartite_matching(
            biadjacency
        )
    except ValueError as exc:  # no perfect matching on the support
        raise PlacementError(
            f"GAP rounding failed to find a perfect matching: {exc}"
        ) from exc
    assignment = np.empty(n_elements, dtype=np.intp)
    assignment[row_match] = graph.slot_node[col_match]
    return Placement(assignment)
