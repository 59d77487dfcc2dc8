"""Geographic helpers for synthetic wide-area topology generation.

Synthetic topologies place sites on the globe and derive RTTs from
great-circle distances. The speed of light in optical fiber is roughly
two-thirds of c, i.e. ~200 km/ms one way; real Internet paths are longer
than geodesics ("path inflation"), which the generator models explicitly.
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
    lats: np.ndarray, lons: np.ndarray
) -> np.ndarray:
    """Vectorized pairwise great-circle distances, in kilometres."""
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


def propagation_rtt_ms(distance_km: np.ndarray | float) -> np.ndarray | float:
    """Round-trip propagation delay over fiber for a geodesic distance."""
    return 2.0 * np.asarray(distance_km, dtype=np.float64) / FIBER_KM_PER_MS
