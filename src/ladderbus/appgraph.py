"""Cluster graphs: the application-side input of the flow.

A cluster graph is a simple directed graph whose vertices are neuron
clusters and whose weighted edges are spike connections between them.
This module owns the on-disk format, a deterministic synthetic
generator, and the connectivity metrics used everywhere downstream.

File format (JSON, exact fields, nothing else accepted)::

    {
      "name": "lenet",
      "n_clusters": 14,
      "edges": [[src, dst, weight], ...]
    }

Cluster ids run 0..n_clusters-1. Self-loops and duplicate (src, dst)
pairs are rejected.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field


class GraphFormatError(ValueError):
    """Raised for a malformed cluster-graph document; message carries the location."""


@dataclass(frozen=True)
class ClusterGraph:
    """Simple directed weighted graph of neuron clusters."""

    n_clusters: int
    edges: tuple[tuple[int, int, int], ...]  # (src, dst, weight)
    name: str = ""

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def total_degrees(self) -> list[int]:
        """Per-cluster in-degree + out-degree."""
        deg = [0] * self.n_clusters
        for src, dst, _ in self.edges:
            deg[src] += 1
            deg[dst] += 1
        return deg


@dataclass(frozen=True)
class GraphMetrics:
    """Connectivity summary of a cluster graph."""

    avg_degree: float  # E / n
    density: float  # E / (n * (n - 1))
    max_total_degree: int


def _edge_error(i: int, pair: tuple[int, int], what: str) -> GraphFormatError:
    return GraphFormatError(f"edge {i} ({pair[0]},{pair[1]}): {what}")


def _checked_graph(n_clusters: int, edges, name: str) -> ClusterGraph:
    """ClusterGraph of [src, dst, weight] integer triples, each triple
    type-checked and validated in one pass."""
    if n_clusters < 1:
        raise GraphFormatError(f"n_clusters must be >= 1, got {n_clusters}")
    seen = set()
    for i, e in enumerate(edges):
        # type(v) is int: JSON gives int or bool, and the bools are rejected
        if not isinstance(e, list) or len(e) != 3 or not (type(e[0]) is int and type(e[1]) is int and type(e[2]) is int):
            raise GraphFormatError(f"edge {i}: expected [src, dst, weight] integer triple, got {e!r}")
        src, dst, w = e
        pair = (src, dst)
        if not (0 <= src < n_clusters and 0 <= dst < n_clusters):
            raise _edge_error(i, pair, f"cluster id out of range 0..{n_clusters - 1}")
        if src == dst:
            raise _edge_error(i, pair, "self-loop")
        if pair in seen:
            raise _edge_error(i, pair, "duplicate connection")
        if w < 0:
            raise _edge_error(i, pair, f"negative weight {w}")
        seen.add(pair)
    return ClusterGraph(n_clusters=n_clusters, edges=tuple(map(tuple, edges)), name=name)


def make_cluster_graph(n_clusters: int, edges, name: str = "") -> ClusterGraph:
    """Build a validated ClusterGraph from raw edge triples, each value taken by int()."""
    return _checked_graph(n_clusters, [[int(v) for v in e] for e in edges], name)


_SCHEMA_FIELDS = {"name", "n_clusters", "edges"}


def parse_cluster_graph(text: str) -> ClusterGraph:
    """Parse and validate a cluster-graph JSON document.

    Raises GraphFormatError with the offending location for malformed
    documents, unknown fields, out-of-range ids, self-loops and
    duplicate connections.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON at line {exc.lineno} col {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # a number too long to convert, or nesting too deep
        raise GraphFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GraphFormatError("top-level document must be an object")
    unknown = set(doc) - _SCHEMA_FIELDS
    if unknown:
        raise GraphFormatError(f"unknown fields: {sorted(unknown)}")
    for key in ("n_clusters", "edges"):
        if key not in doc:
            raise GraphFormatError(f"missing field '{key}'")
    n = doc["n_clusters"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise GraphFormatError("'n_clusters' must be an integer")
    edges = doc["edges"]
    if not isinstance(edges, list):
        raise GraphFormatError("'edges' must be a list")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise GraphFormatError("'name' must be a string")
    return _checked_graph(n, edges, name)


def dump_cluster_graph(g: ClusterGraph) -> str:
    """Serialize to the canonical file format (inverse of parse_cluster_graph)."""
    doc = {
        "name": g.name,
        "n_clusters": g.n_clusters,
        "edges": [list(e) for e in g.edges],
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def generate_synthetic(
    n_clusters: int,
    n_edges: int,
    seed: int,
    weight_range: tuple[int, int] = (1, 16),
    name: str = "",
) -> ClusterGraph:
    """Sample a uniform random simple directed graph, deterministically in seed.

    Exactly n_edges distinct (src, dst) pairs are drawn without
    replacement; weights are uniform integers from weight_range.

    The pairs are drawn as indices into their (src, dst) order, pair k
    being src = k // (n - 1) and the (k % (n - 1))-th other cluster, so
    no list of all n(n - 1) pairs is built: random.sample picks the same
    positions from any sequence of that length, and the graph is the one
    a sample of the pair list gives.
    """
    if n_clusters < 1:
        raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
    max_edges = n_clusters * (n_clusters - 1)
    if not (0 <= n_edges <= max_edges):
        raise ValueError(f"n_edges={n_edges} outside 0..{max_edges} for n={n_clusters}")
    lo, hi = weight_range
    if hi < lo:
        raise ValueError(f"weight_range {weight_range} is empty")
    rng = random.Random(seed)
    # a weight is drawn as randint(lo, hi) draws it: k-bit words until one is
    # below the width, the same stream without randint's Python frames
    width = hi - lo + 1
    bits = width.bit_length()
    getrandbits = rng.getrandbits
    edges = []
    for k in sorted(rng.sample(range(max_edges), n_edges)):  # ascending k is ascending (src, dst)
        src, r = divmod(k, n_clusters - 1)
        w = getrandbits(bits)
        while w >= width:
            w = getrandbits(bits)
        edges.append((src, r + (r >= src), lo + w))
    if not name:
        name = f"synth_{n_clusters}_{n_edges}_s{seed}"
    return ClusterGraph(n_clusters=n_clusters, edges=tuple(edges), name=name)


def graph_metrics(g: ClusterGraph) -> GraphMetrics:
    """Compute average degree E/n, density E/(n(n-1)) and max total degree."""
    n = g.n_clusters
    if n < 2:
        raise ValueError("metrics need at least 2 clusters (density undefined)")
    e = g.n_edges
    return GraphMetrics(
        avg_degree=e / n,
        density=e / (n * (n - 1)),
        max_total_degree=max(g.total_degrees(), default=0),
    )
