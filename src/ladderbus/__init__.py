"""Compile-time flow and simulator for the segmented ladder bus.

Pipeline: cluster graph -> topology -> placement -> routed paths ->
non-intersecting switching scenarios -> controller programs ->
simulation and cost analysis.
"""

from .appgraph import (
    ClusterGraph,
    GraphFormatError,
    GraphMetrics,
    generate_synthetic,
    graph_metrics,
    parse_cluster_graph,
)
from .topology import LadderTopology, SwitchState, build_topology, tile_coordinates
from .placement import TilePlacement, place_anneal, place_greedy, placement_cost
from .routing import RoutedPath, extract_paths
from .grouping import Partition, group_greedy, group_iterated, scenario_lower_bound
from .controlgen import (
    ControllerProgram,
    ControllerRegion,
    encode_scenarios,
    partition_regions,
)
from .sim import SimReport, run_frames
from .costmodel import CostModel, CostReport, calibrate, scaling_sweep

__version__ = "0.1.0"
