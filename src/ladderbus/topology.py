"""Segmented ladder bus hardware model.

Tiles sit in two rows; tile t has coordinates (row = t % 2,
column = t // 2), so a topology with an odd tile count leaves one slot
of the last column empty. Between the rows run ``n_lanes`` horizontal
segmented bus lanes. Each (lane, column) point carries a three-way
criss-cross switch whose ports are the left segment, the right segment
and the column's rung: a single shared vertical wire connecting both
tiles of the column with every lane's switch there.

Resource counts: switches = lanes * columns,
horizontal segments = lanes * (columns - 1), rungs = columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np


class SwitchState(IntEnum):
    """State of one three-way switch; exactly one per switch per scenario."""

    IDLE = 0
    LEFT_RIGHT = 1  # left segment <-> right segment (pass-through)
    LEFT_RUNG = 2  # left segment <-> rung
    RIGHT_RUNG = 3  # right segment <-> rung


# the states a path sets, as plain ints: numpy compares an array with an
# IntEnum member, and writes one into an array, on a slow path
LEFT_RIGHT, LEFT_RUNG, RIGHT_RUNG = int(SwitchState.LEFT_RIGHT), int(SwitchState.LEFT_RUNG), int(SwitchState.RIGHT_RUNG)


def round_half_up_sqrt(n: int) -> int:
    """Integer nearest to sqrt(n), halves rounding up (no float error)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    k = math.isqrt(n)
    # round-half-up(sqrt(n)) == k+1 iff n > k^2 + k, i.e. sqrt(n) >= k + 0.5
    return k + 1 if n > k * k + k else k


@dataclass(frozen=True)
class LadderTopology:
    n_tiles: int
    n_lanes: int
    lane_width_bits: int = 32

    @property
    def n_columns(self) -> int:
        return (self.n_tiles + 1) // 2

    @property
    def n_switches(self) -> int:
        return self.n_lanes * self.n_columns

    @property
    def n_segments(self) -> int:
        return self.n_lanes * (self.n_columns - 1)

    @property
    def n_rungs(self) -> int:
        return self.n_columns

    def switch_grid(self, states: np.ndarray) -> np.ndarray:
        """The (..., n_lanes, n_columns) view of a (..., n_switches) switch-state
        array: switches are stored lane-major, so grid[lane, c] is flat
        position lane * n_columns + c and one lane's columns are one slice.
        The only definition of the switch layout."""
        return states.reshape(*states.shape[:-1], self.n_lanes, self.n_columns)

    def summary(self) -> dict:
        """Structured record for reports and state files."""
        return {
            "n_tiles": self.n_tiles,
            "n_lanes": self.n_lanes,
            "n_columns": self.n_columns,
            "lane_width_bits": self.lane_width_bits,
            "n_switches": self.n_switches,
            "n_segments": self.n_segments,
            "n_rungs": self.n_rungs,
        }


def build_topology(
    n_tiles: int,
    n_lanes: int | None = None,
    lane_width_bits: int = 32,
) -> LadderTopology:
    """Build a ladder topology; lane count defaults to round(sqrt(n_tiles))."""
    if n_tiles < 2:
        raise ValueError(f"need at least 2 tiles, got {n_tiles}")
    if n_lanes is None:
        n_lanes = round_half_up_sqrt(n_tiles)
    if n_lanes < 1:
        raise ValueError(f"need at least 1 lane, got {n_lanes}")
    if lane_width_bits < 1:
        raise ValueError(f"need lanes at least 1 bit wide, got {lane_width_bits}")
    return LadderTopology(n_tiles=n_tiles, n_lanes=n_lanes, lane_width_bits=lane_width_bits)


def tile_coordinates(topo: LadderTopology, tile: int) -> tuple[int, int]:
    """(row, column) of a tile."""
    if not (0 <= tile < topo.n_tiles):
        raise ValueError(f"tile {tile} out of range 0..{topo.n_tiles - 1}")
    return tile % 2, tile // 2


def tile_column(topo: LadderTopology, tile: int) -> int:
    return tile_coordinates(topo, tile)[1]
