"""Result containers for experiment runners.

A figure is a set of labelled series over a common x-axis meaning (universe
size, client count, capacity level...). ``render_text`` prints the rows the
paper plots, aligned for terminal reading; ``python -m repro figure``
prints it for every figure it runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Series", "FigureResult"]


@dataclass(frozen=True)
class Series:
    """One labelled curve: x values and y values in milliseconds."""

    label: str
    x: tuple[float, ...]
    y: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError(
                f"series {self.label!r}: {len(self.x)} x values vs "
                f"{len(self.y)} y values"
            )

    @staticmethod
    def from_arrays(label: str, x: object, y: object) -> "Series":
        return Series(
            label=label,
            x=tuple(float(v) for v in np.asarray(x).ravel()),
            y=tuple(float(v) for v in np.asarray(y).ravel()),
        )


@dataclass(frozen=True)
class FigureResult:
    """All series reproducing one figure, plus free-form metadata."""

    figure_id: str
    title: str
    x_label: str
    y_label: str
    series: tuple[Series, ...]
    metadata: dict = field(default_factory=dict)

    def series_by_label(self, label: str) -> Series:
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(
            f"{self.figure_id}: no series {label!r}; have "
            f"{[s.label for s in self.series]}"
        )

    def render_text(self) -> str:
        """An aligned text table: one row per x value, one column per series."""
        lines = [f"== {self.figure_id}: {self.title} =="]
        for key, value in sorted(self.metadata.items()):
            lines.append(f"   {key}: {value}")
        xs = sorted({x for s in self.series for x in s.x})
        header = [self.x_label.rjust(14)] + [
            s.label.rjust(max(14, len(s.label) + 1)) for s in self.series
        ]
        lines.append("".join(header))
        for x in xs:
            row = [f"{x:14.6g}"]
            for s in self.series:
                width = max(14, len(s.label) + 1)
                try:
                    idx = s.x.index(x)
                    row.append(f"{s.y[idx]:{width}.2f}")
                except ValueError:
                    row.append(" " * (width - 1) + "-")
            lines.append("".join(row))
        return "\n".join(lines)
