"""Row-based placement data model.

A :class:`Placement` maps each gate to an (x, y) location on a die made of
standard-cell rows.  It supports the queries the dose-map flow needs:
locations, Manhattan distances, position swaps and the gate pitch.  The
dosePl candidate search keeps its own array view of a placement
(``repro.core.dosepl._PositionIndex``), which also holds the cell
bounding boxes over fanin/fanout neighborhoods (paper Fig. 9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Die:
    """Die outline and row geometry (all um)."""

    width: float
    height: float
    row_height: float
    site_width: float

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("die dimensions must be positive")
        if self.row_height <= 0 or self.site_width <= 0:
            raise ValueError("row/site geometry must be positive")

    @property
    def n_rows(self) -> int:
        return max(1, int(self.height / self.row_height))

    @property
    def n_sites(self) -> int:
        return max(1, int(self.width / self.site_width))

    def row_of(self, y: float) -> int:
        """Row index containing coordinate y (clamped)."""
        return min(self.n_rows - 1, max(0, int(y / self.row_height)))

    def site_of(self, x: float) -> int:
        """Site index containing coordinate x (clamped)."""
        return min(self.n_sites - 1, max(0, int(round(x / self.site_width))))


class Placement:
    """Cell locations on a die.

    Locations are the cells' left edges at their row baseline; the
    y-coordinate of a placed cell is always ``row * row_height``.
    """

    def __init__(self, die: Die):
        self.die = die
        self._pos: dict = {}  # gate name -> (x, y)

    # ------------------------------------------------------------------
    # basic access
    # ------------------------------------------------------------------
    def place(self, gate_name: str, x: float, y: float) -> None:
        if not (0 <= x <= self.die.width and 0 <= y <= self.die.height):
            raise ValueError(
                f"({x:.2f}, {y:.2f}) outside die "
                f"{self.die.width:.2f}x{self.die.height:.2f}"
            )
        self._pos[gate_name] = (float(x), float(y))

    def location(self, gate_name: str) -> tuple:
        try:
            return self._pos[gate_name]
        except KeyError:
            raise KeyError(f"gate {gate_name!r} is not placed") from None

    def is_placed(self, gate_name: str) -> bool:
        return gate_name in self._pos

    def __len__(self):
        return len(self._pos)

    def __contains__(self, gate_name: str) -> bool:
        return gate_name in self._pos

    def items(self):
        return self._pos.items()

    def copy(self) -> "Placement":
        dup = Placement(self.die)
        dup._pos = dict(self._pos)
        return dup

    # ------------------------------------------------------------------
    # geometry helpers
    # ------------------------------------------------------------------
    def swap(self, g1: str, g2: str) -> None:
        """Exchange the locations of two placed cells."""
        p1, p2 = self.location(g1), self.location(g2)
        self._pos[g1], self._pos[g2] = p2, p1

    def distance(self, g1: str, g2: str) -> float:
        """Manhattan distance between two cells (um)."""
        (x1, y1), (x2, y2) = self.location(g1), self.location(g2)
        return abs(x1 - x2) + abs(y1 - y2)

    def gate_pitch(self) -> float:
        """Average cell pitch: chip dimension / sqrt(gate count).

        The paper uses this as the distance-threshold unit for dosePl
        ("chip dimension divided by the square root of gate count").
        """
        if not self._pos:
            raise ValueError("empty placement has no gate pitch")
        dim = math.sqrt(self.die.width * self.die.height)
        return dim / math.sqrt(len(self._pos))

    def __repr__(self):
        return (
            f"Placement({len(self._pos)} cells on "
            f"{self.die.width:.0f}x{self.die.height:.0f} um)"
        )
