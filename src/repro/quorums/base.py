"""Abstract quorum-system API.

Two representations coexist:

* *Enumerated* systems expose an explicit tuple of quorums. The Grid (k^2
  quorums) and small Majorities are enumerated; every placement and strategy
  algorithm works on them directly.
* *Implicit threshold* systems (Majorities with large universes) have
  combinatorially many quorums (``C(n, q)``), so they additionally expose
  structure — the quorum size ``q`` — that lets the closest-quorum and
  balanced strategies be evaluated exactly without enumeration (see
  :mod:`repro.quorums.order_stats`).

Element identifiers are integers ``0 .. universe_size-1``; a placement maps
them to topology nodes.
"""

from __future__ import annotations

# cache-key-input: system_fingerprint hashes the enumerated quorum list
# (or threshold structure) defined through this API; construction changes
# here change every cache key downstream.

from abc import ABC, abstractmethod
from functools import cached_property

import numpy as np

from repro.errors import QuorumSystemError

__all__ = ["QuorumSystem", "EnumeratedQuorumSystem"]

#: Refuse to enumerate more quorums than this (safety valve for thresholds).
MAX_ENUMERABLE_QUORUMS = 200_000


class QuorumSystem(ABC):
    """A quorum system over universe ``{0, ..., universe_size - 1}``."""

    @property
    @abstractmethod
    def name(self) -> str:
        """Human-readable system name (used in experiment reports)."""

    @property
    @abstractmethod
    def universe_size(self) -> int:
        """Number of logical elements ``n = |U|``."""

    @property
    @abstractmethod
    def is_enumerable(self) -> bool:
        """Whether :attr:`quorums` can be materialized."""

    @property
    @abstractmethod
    def num_quorums(self) -> int:
        """Number of quorums ``m = |Q|`` (may be huge for thresholds)."""

    @property
    @abstractmethod
    def quorums(self) -> tuple[frozenset[int], ...]:
        """All quorums, as frozensets of element ids.

        Raises :class:`QuorumSystemError` for non-enumerable systems.
        """

    @property
    @abstractmethod
    def min_quorum_size(self) -> int:
        """Size of the smallest quorum."""

    # ------------------------------------------------------------------
    # Shared behaviour
    # ------------------------------------------------------------------
    def elements(self) -> range:
        """The universe ``U``."""
        return range(self.universe_size)

    def validate(self) -> None:
        """Check the defining invariants; raise on violation.

        * every quorum is a non-empty subset of the universe,
        * every two quorums intersect.

        For non-enumerable systems, subclasses override this with a
        structural argument (e.g. ``2q > n`` for thresholds).
        """
        quorums = self.quorums
        if not quorums:
            raise QuorumSystemError(f"{self.name}: no quorums defined")
        universe = frozenset(self.elements())
        for quorum in quorums:
            if not quorum:
                raise QuorumSystemError(f"{self.name}: empty quorum")
            if not quorum <= universe:
                raise QuorumSystemError(
                    f"{self.name}: quorum {sorted(quorum)} escapes universe"
                )
        for i, a in enumerate(quorums):
            for b in quorums[i + 1 :]:
                if not (a & b):
                    raise QuorumSystemError(
                        f"{self.name}: disjoint quorums "
                        f"{sorted(a)} and {sorted(b)}"
                    )

    @cached_property
    def element_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Quorums as a rectangular ``(m, k_max)`` element-id table + sizes.

        Row ``i`` holds the ``sizes[i]`` elements of quorum ``i`` (sorted),
        padded to ``k_max`` by repeating its first element: a max over the
        row is unchanged by the padding, so the evaluation kernel can reduce
        slot by slot without a mask. Built once per system (read-only).
        """
        quorums = self.quorums
        sizes = np.fromiter(
            map(len, quorums), dtype=np.intp, count=len(quorums)
        )
        table = np.empty((len(quorums), int(sizes.max())), dtype=np.intp)
        for i, quorum in enumerate(quorums):
            members = sorted(quorum)
            table[i, : len(members)] = members
            table[i, len(members) :] = members[0]
        table.setflags(write=False)
        sizes.setflags(write=False)
        return table, sizes

    def element_loads(self, strategy: np.ndarray) -> np.ndarray:
        """``load_p(u) = sum_{Q_i ni u} p_i`` for every element (unvalidated).

        One quorum-major ``np.bincount`` over the unpadded (quorum,
        element) pairs of :attr:`element_table`: every element sums its
        quorums' weights in ascending quorum order — the order of a
        quorum-by-quorum loop — so the result is bit-identical to one.
        """
        table, sizes = self.element_table
        present = np.arange(table.shape[1]) < sizes[:, None]
        return np.bincount(
            table[present],
            weights=np.repeat(np.asarray(strategy, dtype=np.float64), sizes),
            minlength=self.universe_size,
        )

    def element_membership_counts(self) -> list[int]:
        """For each element, the number of quorums containing it."""
        counts = [0] * self.universe_size
        for quorum in self.quorums:
            for u in quorum:
                counts[u] += 1
        return counts

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"n={self.universe_size}, m={self.num_quorums})"
        )


class EnumeratedQuorumSystem(QuorumSystem):
    """A quorum system defined by an explicit list of quorums."""

    def __init__(
        self,
        quorums: list[frozenset[int]] | tuple[frozenset[int], ...],
        universe_size: int | None = None,
        name: str = "custom",
    ) -> None:
        materialized = tuple(frozenset(q) for q in quorums)
        if not materialized:
            raise QuorumSystemError("at least one quorum is required")
        if len(materialized) > MAX_ENUMERABLE_QUORUMS:
            raise QuorumSystemError(
                f"refusing to materialize {len(materialized)} quorums"
            )
        covered = frozenset().union(*materialized)
        if universe_size is None:
            universe_size = (max(covered) + 1) if covered else 0
        if covered and max(covered) >= universe_size:
            raise QuorumSystemError(
                "quorum element id exceeds declared universe size"
            )
        self._quorums = materialized
        self._universe_size = int(universe_size)
        self._name = name
        self.validate()

    @property
    def name(self) -> str:
        return self._name

    @property
    def universe_size(self) -> int:
        return self._universe_size

    @property
    def is_enumerable(self) -> bool:
        return True

    @property
    def num_quorums(self) -> int:
        return len(self._quorums)

    @cached_property
    def quorums(self) -> tuple[frozenset[int], ...]:
        return self._quorums

    @property
    def min_quorum_size(self) -> int:
        return min(len(q) for q in self._quorums)
