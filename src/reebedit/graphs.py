"""Reeb graphs: finite topological multigraphs with exact node values and
strictly monotone edges, plus points on them, canonical-form smoothing and
value-preserving isomorphism search.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .plcore import SimplicialComplex, Simplex, UnionFind, format_scalar


class ReebGraph:
    """Multigraph with a value per node; every edge runs strictly upward.

    Edges are stored as (lower node, upper node) pairs; the list index is
    the edge id, which doubles as the multiplicity id for parallel edges.
    """

    def __init__(self, node_values: dict[int, Fraction], edges: list[tuple[int, int]]):
        self.node_values = dict(node_values)
        self.edges = [tuple(e) for e in edges]
        for lo, hi in self.edges:
            if lo not in self.node_values or hi not in self.node_values:
                raise ValueError(f"edge ({lo},{hi}) references unknown node")
            if not self.node_values[lo] < self.node_values[hi]:
                raise ValueError(
                    f"edge ({lo},{hi}) is not strictly monotone: "
                    f"{format_scalar(self.node_values[lo])} !< "
                    f"{format_scalar(self.node_values[hi])}"
                )
        self._incidence: dict[int, list[int]] = {n: [] for n in self.node_values}
        for i, (lo, hi) in enumerate(self.edges):
            self._incidence[lo].append(i)
            self._incidence[hi].append(i)

    @property
    def nodes(self) -> list[int]:
        return sorted(self.node_values)

    def value(self, node: int) -> Fraction:
        return self.node_values[node]

    def edge_range(self, e: int) -> tuple[Fraction, Fraction]:
        lo, hi = self.edges[e]
        return self.node_values[lo], self.node_values[hi]

    def edges_at(self, node: int) -> list[int]:
        return self._incidence[node]

    def degree(self, node: int) -> int:
        return len(self._incidence[node])

    def up_edges(self, node: int) -> list[int]:
        return [e for e in self._incidence[node] if self.edges[e][0] == node]

    def down_edges(self, node: int) -> list[int]:
        return [e for e in self._incidence[node] if self.edges[e][1] == node]

    def value_range(self) -> tuple[Fraction, Fraction]:
        vals = list(self.node_values.values())
        return min(vals), max(vals)

    def is_connected(self) -> bool:
        if not self.node_values:
            return True
        uf = UnionFind(self.node_values)
        for lo, hi in self.edges:
            uf.union(lo, hi)
        return len(uf.groups()) == 1

    def betti1(self) -> int:
        if not self.is_connected():
            raise ValueError("betti1 is defined here only for connected graphs")
        return len(self.edges) - len(self.node_values) + 1

    def __repr__(self) -> str:
        return f"ReebGraph({len(self.node_values)} nodes, {len(self.edges)} edges)"


@dataclass(frozen=True)
class GraphPoint:
    """A point of a Reeb graph: a node, or an interior point of an edge
    identified by its value coordinate."""

    node: Optional[int] = None
    edge: Optional[int] = None
    t: Optional[Fraction] = None

    @property
    def is_node(self) -> bool:
        return self.node is not None

    def value(self, graph: ReebGraph) -> Fraction:
        if self.is_node:
            return graph.node_values[self.node]
        return self.t

    def __repr__(self) -> str:
        if self.is_node:
            return f"GraphPoint(node={self.node})"
        return f"GraphPoint(edge={self.edge}, t={format_scalar(self.t)})"


def point_on_edge(graph: ReebGraph, e: int, t: Fraction) -> GraphPoint:
    """Point at value t on the closed edge e, normalized to a node at the ends."""
    lo, hi = graph.edges[e]
    lo_v, hi_v = graph.node_values[lo], graph.node_values[hi]
    if not lo_v <= t <= hi_v:
        raise ValueError(f"value {format_scalar(t)} outside edge {e} range")
    if t == lo_v:
        return GraphPoint(node=lo)
    if t == hi_v:
        return GraphPoint(node=hi)
    return GraphPoint(edge=e, t=t)


@dataclass
class GraphComplex:
    """A Reeb graph realized as a 1-dimensional simplicial complex.

    Every edge is subdivided at its value midpoint so parallel edges become
    distinct simplices.  `host` sends each simplex to the graph cell
    (('n', node) or ('e', edge)) whose closure contains it.
    """

    graph: ReebGraph
    complex: SimplicialComplex
    values: dict[int, Fraction]
    node_vertex: dict[int, int]
    mid_vertex: dict[int, int]
    host: dict[Simplex, tuple[str, int]]


def complexify(graph: ReebGraph) -> GraphComplex:
    """Realize a Reeb graph as a simplicial 1-complex with exact values."""
    values: dict[int, Fraction] = {}
    node_vertex: dict[int, int] = {}
    next_id = 0
    for n in graph.nodes:
        node_vertex[n] = next_id
        values[next_id] = graph.node_values[n]
        next_id += 1
    mid_vertex: dict[int, int] = {}
    simplices: list[Simplex] = []
    host: dict[Simplex, tuple[str, int]] = {}
    for e, (lo, hi) in enumerate(graph.edges):
        mid_vertex[e] = next_id
        values[next_id] = (graph.node_values[lo] + graph.node_values[hi]) / 2
        s1 = tuple(sorted((node_vertex[lo], next_id)))
        s2 = tuple(sorted((next_id, node_vertex[hi])))
        simplices.extend([s1, s2])
        host[s1] = ("e", e)
        host[s2] = ("e", e)
        host[(next_id,)] = ("e", e)
        next_id += 1
    for n, v in node_vertex.items():
        simplices.append((v,))
        host[(v,)] = ("n", n)
    comp = SimplicialComplex.from_simplices(simplices)
    return GraphComplex(graph, comp, values, node_vertex, mid_vertex, host)


def _smoothable(graph: ReebGraph, n: int) -> bool:
    return len(graph.up_edges(n)) == 1 and len(graph.down_edges(n)) == 1


def minimalize(graph: ReebGraph) -> ReebGraph:
    """Remove interior degree-2 nodes, merging their edge pairs.

    The result is isomorphic to the input as a Reeb graph and keeps the
    ids of the nodes that remain.
    """
    keep = [n for n in graph.nodes if not _smoothable(graph, n)]
    if not keep:
        # A cycle of smoothable nodes cannot occur: monotone edges force
        # at least one local min and max, which are not smoothable.
        raise ValueError("graph has no extremal node; edges cannot be monotone")
    new_edges: list[tuple[int, int]] = []
    for n in keep:
        for e in graph.up_edges(n):
            # walk upward through smoothable nodes
            cur = graph.edges[e][1]
            while _smoothable(graph, cur):
                cur = graph.edges[graph.up_edges(cur)[0]][1]
            new_edges.append((n, cur))
    return ReebGraph({n: graph.node_values[n] for n in keep}, new_edges)


def graph_isomorphic(a: ReebGraph, b: ReebGraph) -> Optional[dict[int, int]]:
    """Value-preserving multigraph isomorphism, or None.

    Both inputs should be minimalized; the search itself does not require
    it but non-canonical degree-2 chains will fail to match across
    differently subdivided copies of the same graph.
    """

    def edge_multiset(g: ReebGraph, n: int):
        pairs: dict[tuple[Fraction, int], int] = {}
        for e in g.edges_at(n):
            lo, hi = g.edges[e]
            other = hi if lo == n else lo
            key = (g.node_values[other], 1 if lo == n else -1)
            pairs[key] = pairs.get(key, 0) + 1
        return tuple(sorted(pairs.items()))

    sig_a = {n: (a.node_values[n], edge_multiset(a, n)) for n in a.nodes}
    sig_b = {n: (b.node_values[n], edge_multiset(b, n)) for n in b.nodes}
    if sorted(sig_a.values()) != sorted(sig_b.values()):
        return None

    nodes_a = sorted(a.nodes, key=lambda n: sig_a[n])
    candidates = {n: [m for m in b.nodes if sig_b[m] == sig_a[n]] for n in nodes_a}

    def parallel_count(g: ReebGraph, lo: int, hi: int) -> int:
        return sum(1 for (x, y) in g.edges if (x, y) == (lo, hi))

    mapping: dict[int, int] = {}
    used: set[int] = set()

    def consistent(n: int, m: int) -> bool:
        for e in a.edges_at(n):
            lo, hi = a.edges[e]
            other = hi if lo == n else lo
            if other in mapping:
                pair = (m, mapping[other]) if lo == n else (mapping[other], m)
                want = parallel_count(a, *(a.edges[e]))
                if parallel_count(b, *pair) != want:
                    return False
        return True

    def search(i: int) -> bool:
        if i == len(nodes_a):
            return True
        n = nodes_a[i]
        for m in candidates[n]:
            if m in used or not consistent(n, m):
                continue
            mapping[n] = m
            used.add(m)
            if search(i + 1):
                return True
            del mapping[n]
            used.remove(m)
        return False

    if search(0):
        return dict(mapping)
    return None
