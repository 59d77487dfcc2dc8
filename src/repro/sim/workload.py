"""Workload generators for the simulator.

The paper's workload is closed-loop (clients reissue immediately), which
:class:`~repro.qu.client.QUClient` implements natively. This module adds an
*open-loop* Poisson injector for sensitivity studies — open-loop arrivals
expose queueing collapse beyond saturation, where closed loops self-throttle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError

__all__ = ["PoissonArrivals"]


@dataclass(frozen=True)
class PoissonArrivals:
    """Poisson arrival-time generator with a fixed seed.

    ``rate_per_ms`` is the expected number of operations per millisecond.
    """

    rate_per_ms: float
    seed: int

    def sample_until(self, horizon_ms: float) -> np.ndarray:
        """All arrival times in ``[0, horizon_ms)``, sorted ascending."""
        if self.rate_per_ms <= 0:
            raise SimulationError("arrival rate must be positive")
        if not np.isfinite(self.rate_per_ms):
            raise SimulationError(
                f"arrival rate must be finite, got {self.rate_per_ms}"
            )
        if horizon_ms <= 0:
            raise SimulationError("horizon must be positive")
        if not np.isfinite(horizon_ms):
            raise SimulationError(f"horizon must be finite, got {horizon_ms}")
        rng = np.random.default_rng(self.seed)
        # Draw ~20% more exponential gaps than expected; if the horizon is
        # not yet covered, extend with geometrically growing chunks so a
        # badly under-estimated first draw costs O(log) extra draws, not
        # O(n) fixed-size top-ups.
        chunk = int(self.rate_per_ms * horizon_ms * 1.2) + 16
        gaps = rng.exponential(1.0 / self.rate_per_ms, size=chunk)
        times = np.cumsum(gaps)
        while times.size and times[-1] < horizon_ms:
            chunk *= 2
            more = rng.exponential(1.0 / self.rate_per_ms, size=chunk)
            times = np.concatenate([times, times[-1] + np.cumsum(more)])
        return times[times < horizon_ms]
