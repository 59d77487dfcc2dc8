"""Grid quorum systems.

Elements are arranged in a ``rows x cols`` grid; the quorum for cell
``(r, c)`` is the union of row ``r`` and column ``c`` (the classic grid
protocol of Cheung et al.; Kumar, Rabinovich & Sinha study the general
rectangular structures the paper cites as [16]). There are ``rows * cols``
quorums of size ``cols + rows - 1``; any two quorums ``(r1, c1)`` and
``(r2, c2)`` intersect at least in cell ``(r1, c2)``.

The square ``k x k`` Grid — the shape the paper evaluates — is
:class:`GridQuorumSystem`; :class:`RectangularGridQuorumSystem` is the
general form (an extension beyond the paper). The Grid's optimal load is
``(rows + cols - 1) / (rows * cols)`` (achieved by the uniform strategy),
asymptotically ``O(1/sqrt(n))`` for squares — far below the Majorities'
``~1/2``..``~4/5`` — which is why the Grid excels whenever load matters.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.errors import QuorumSystemError
from repro.quorums.base import QuorumSystem

__all__ = ["RectangularGridQuorumSystem", "GridQuorumSystem"]


class RectangularGridQuorumSystem(QuorumSystem):
    """Row-plus-column quorums over a ``rows x cols`` grid of elements."""

    def __init__(self, rows: int, cols: int) -> None:
        if rows < 1 or cols < 1:
            raise QuorumSystemError("grid dimensions must be >= 1")
        self._rows = int(rows)
        self._cols = int(cols)

    @property
    def rows(self) -> int:
        """Number of grid rows."""
        return self._rows

    @property
    def cols(self) -> int:
        """Number of grid columns."""
        return self._cols

    @property
    def name(self) -> str:
        return f"Grid {self._rows}x{self._cols}"

    @property
    def universe_size(self) -> int:
        return self._rows * self._cols

    @property
    def num_quorums(self) -> int:
        return self._rows * self._cols

    @property
    def is_enumerable(self) -> bool:
        return True

    @property
    def min_quorum_size(self) -> int:
        return self._rows + self._cols - 1

    def element(self, row: int, col: int) -> int:
        """Element id of grid cell ``(row, col)`` (row-major)."""
        if not (0 <= row < self._rows and 0 <= col < self._cols):
            raise QuorumSystemError(
                f"cell ({row}, {col}) outside "
                f"{self._rows}x{self._cols} grid"
            )
        return row * self._cols + col

    def cell(self, element: int) -> tuple[int, int]:
        """Grid cell ``(row, col)`` of an element id."""
        if not 0 <= element < self.universe_size:
            raise QuorumSystemError(
                f"element {element} outside grid universe"
            )
        return divmod(element, self._cols)

    def quorum_for(self, row: int, col: int) -> frozenset[int]:
        """The quorum of cell ``(row, col)``: row ``row`` union column
        ``col``."""
        if not (0 <= row < self._rows and 0 <= col < self._cols):
            raise QuorumSystemError(
                f"quorum index ({row}, {col}) outside "
                f"{self._rows}x{self._cols} grid"
            )
        row_cells = {self.element(row, c) for c in range(self._cols)}
        col_cells = {self.element(r, col) for r in range(self._rows)}
        return frozenset(row_cells | col_cells)

    @cached_property
    def quorums(self) -> tuple[frozenset[int], ...]:
        return tuple(
            self.quorum_for(r, c)
            for r in range(self._rows)
            for c in range(self._cols)
        )

    @cached_property
    def onion_order(self) -> np.ndarray:
        """Element ids in the onion placement's cell fill order.

        Cell ``(0, 0)`` first; then for each shell ``l`` the top of column
        ``l`` followed by row ``l``, truncated at the grid boundary for
        rectangles. Earlier cells receive larger distances from ``v0``
        (see :func:`repro.placement.one_to_one.grid_onion_placement`).
        Built once per grid shape (read-only).
        """
        rows, cols = self._rows, self._cols
        order = [0]
        for level in range(1, max(rows, cols)):
            if level < cols:
                order.extend(r * cols + level for r in range(min(level, rows)))
            if level < rows:
                order.extend(
                    level * cols + c for c in range(min(level + 1, cols))
                )
        cells = np.array(order, dtype=np.intp)
        cells.setflags(write=False)
        return cells

    def validate(self) -> None:
        """Structural check: any two row+column quorums share a cell."""
        # (r1, c1) and (r2, c2) always share cell (r1, c2); nothing to scan.
        if self._rows < 1 or self._cols < 1:
            raise QuorumSystemError("grid dimensions must be >= 1")

    @property
    def uniform_load(self) -> float:
        """Per-element load under the uniform strategy.

        Each element (r, c) belongs to the ``cols`` quorums of its row and
        the ``rows`` of its column, minus the one counted twice.
        """
        return (self._rows + self._cols - 1) / (self._rows * self._cols)


class GridQuorumSystem(RectangularGridQuorumSystem):
    """The square ``k x k`` Grid the paper evaluates."""

    def __init__(self, k: int) -> None:
        if k < 1:
            raise QuorumSystemError("grid side k must be >= 1")
        super().__init__(k, k)

    @property
    def k(self) -> int:
        """Grid side length."""
        return self._rows

    @property
    def name(self) -> str:
        return f"Grid {self.k}x{self.k}"
