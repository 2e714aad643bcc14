import numpy as np
import pytest

from ladderbus.topology import (
    build_topology,
    round_half_up_sqrt,
    tile_coordinates,
)


@pytest.mark.parametrize("n_tiles,lanes", [(11, 3), (14, 4), (24, 5), (26, 5), (30, 5)])
def test_default_lane_rule_matches_reference_designs(n_tiles, lanes):
    assert build_topology(n_tiles).n_lanes == lanes


def test_round_half_up():
    assert round_half_up_sqrt(2) == 1
    assert round_half_up_sqrt(3) == 2  # sqrt(3)=1.732
    assert round_half_up_sqrt(4) == 2
    assert round_half_up_sqrt(6) == 2  # 2.449
    assert round_half_up_sqrt(7) == 3  # 2.646
    assert round_half_up_sqrt(12) == 3  # 3.464 -> nearest 3? no: 3.464 -> 3
    assert round_half_up_sqrt(13) == 4  # 3.606
    # exact half rounds up: sqrt(6.25) has no integer n; check k^2+k boundary
    assert round_half_up_sqrt(20) == 4  # 4.472
    assert round_half_up_sqrt(21) == 5  # 4.583


def test_small_topology_counts():
    t = build_topology(4)
    assert t.n_lanes == 2
    assert t.n_columns == 2
    assert t.n_switches == 4
    assert t.n_segments == 2
    assert t.n_rungs == 2


def test_figure_example_counts():
    # 8 tiles, 3 lanes
    t = build_topology(8, 3)
    assert t.n_columns == 4
    assert t.n_switches == 12
    assert t.n_segments == 9
    assert t.n_rungs == 4


def test_odd_tile_count_columns():
    assert build_topology(11).n_columns == 6


def test_tile_coordinates():
    t8 = build_topology(8, 3)
    assert tile_coordinates(t8, 0) == (0, 0)
    assert tile_coordinates(t8, 7) == (1, 3)
    t11 = build_topology(11)
    assert tile_coordinates(t11, 10) == (0, 5)


def test_tile_out_of_range():
    t = build_topology(8, 3)
    with pytest.raises(ValueError):
        tile_coordinates(t, 8)


def test_build_rejects_tiny():
    with pytest.raises(ValueError):
        build_topology(1)
    with pytest.raises(ValueError):
        build_topology(4, 0)
    for width in (0, -64):
        with pytest.raises(ValueError, match=f"need lanes at least 1 bit wide, got {width}"):
            build_topology(4, 2, width)


def test_switch_grid_is_a_lane_major_view():
    t = build_topology(10, 3)
    states = np.arange(2 * t.n_switches).reshape(2, t.n_switches)
    grid = t.switch_grid(states)
    assert grid.shape == (2, t.n_lanes, t.n_columns)
    assert np.shares_memory(grid, states)
    for lane in range(t.n_lanes):
        for col in range(t.n_columns):
            assert grid[1, lane, col] == states[1, lane * t.n_columns + col]
    grid[0, 2, 4] = -1  # a write through the grid lands in the flat array
    assert states[0, 2 * t.n_columns + 4] == -1
    assert t.switch_grid(states[0]).shape == (t.n_lanes, t.n_columns)


def test_summary_fields():
    s = build_topology(24).summary()
    assert s == {
        "n_tiles": 24, "n_lanes": 5, "n_columns": 12, "lane_width_bits": 32,
        "n_switches": 60, "n_segments": 55, "n_rungs": 12,
    }
