"""Exact order statistics for uniformly random fixed-size subsets.

For a threshold quorum system, the *balanced* access strategy samples a
uniformly random ``q``-subset of the ``n`` placed elements. The network
delay of an access from client ``v`` is then the **maximum** of the ``q``
sampled values from the client's distance vector. Enumerating ``C(n, q)``
quorums is hopeless, but the expectation has a closed combinatorial form:

with values sorted ascending ``x_(1) <= ... <= x_(n)``,

``P[max <= x_(j)] = C(j, q) / C(n, q)``  for ``j >= q``,

so the maximum equals ``x_(j)`` with probability
``(C(j, q) - C(j-1, q)) / C(n, q)``. :func:`max_order_statistic_pmf`
evaluates that pmf with exact integer arithmetic (``math.comb``), so
balanced-Majority results carry no sampling error.
"""

from __future__ import annotations

from math import comb

import numpy as np

__all__ = ["max_order_statistic_pmf"]


def max_order_statistic_pmf(n: int, q: int) -> np.ndarray:
    """pmf over sorted positions of the max of a uniform random q-subset.

    Returns ``p`` of length ``n`` where ``p[j-1]`` is the probability that
    the maximum of the subset is the ``j``-th smallest of the ``n`` values.
    Positions below ``q`` have probability zero.
    """
    if not 1 <= q <= n:
        raise ValueError(f"require 1 <= q <= n, got q={q}, n={n}")
    total = comb(n, q)
    pmf = np.zeros(n, dtype=np.float64)
    prev = 0
    for j in range(q, n + 1):
        current = comb(j, q)
        pmf[j - 1] = (current - prev) / total
        prev = current
    return pmf
