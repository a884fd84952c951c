"""Independent Reeb-graph invariants, computed without the library.

The benchmark checks the library's Reeb graphs only through invariants
that do not depend on how nodes and edges are numbered: node count, edge
count, first Betti number, and the sorted values of the nodes that survive
minimalization (the nodes that are not regular, i.e. not exactly one edge
down and one edge up).  The oracle here computes the same invariants from
the instance alone, by union-find over the simplices that meet each level
and each gap midpoint.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b) -> None:
        self.parent[self.find(a)] = self.find(b)


def graph_invariants(node_values: dict, edges: list) -> dict:
    """Numbering-free invariants of a graph given as node -> value plus
    (lower node, upper node) edges.  Values are written as exact strings."""
    up = {n: 0 for n in node_values}
    down = {n: 0 for n in node_values}
    uf = _UnionFind(node_values)
    for lo, hi in edges:
        up[lo] += 1
        down[hi] += 1
        uf.union(lo, hi)
    components = len({uf.find(n) for n in node_values})
    kept = sorted(
        Fraction(v)
        for n, v in node_values.items()
        if not (up[n] == 1 and down[n] == 1)
    )
    return {
        "nodes": len(node_values),
        "edges": len(edges),
        "betti1": len(edges) - len(node_values) + components,
        "minimal_values": [str(v) for v in kept],
    }


def _closure(simplices) -> list[tuple]:
    faces = set()
    for s in simplices:
        s = tuple(sorted(s))
        for k in range(1, len(s) + 1):
            faces.update(combinations(s, k))
    return sorted(faces, key=lambda s: (len(s), s))


def _components(faces, lo_of, hi_of, t, strict):
    """Union-find over the faces meeting f = t; returns face -> root."""
    if strict:
        meets = [s for s in faces if lo_of[s] < t < hi_of[s]]
    else:
        meets = [s for s in faces if lo_of[s] <= t <= hi_of[s]]
    inside = set(meets)
    uf = _UnionFind(meets)
    for s in meets:
        if len(s) > 1:
            for facet in combinations(s, len(s) - 1):
                if facet in inside:
                    uf.union(s, facet)
    return {s: uf.find(s) for s in meets}


def reeb_invariants(values: dict, simplices) -> dict:
    """Invariants of the Reeb graph of the PL function with the given vertex
    values on the closure of the given simplices (plus every vertex)."""
    faces = _closure(list(simplices) + [(v,) for v in values])
    lo_of = {s: min(values[v] for v in s) for s in faces}
    hi_of = {s: max(values[v] for v in s) for s in faces}
    levels = sorted(set(values.values()))
    node_values: dict = {}
    node_at: list[dict] = []  # per level: root -> node id
    level_roots: list[dict] = []
    for t in levels:
        roots = _components(faces, lo_of, hi_of, t, strict=False)
        ids = {}
        for r in roots.values():
            if r not in ids:
                ids[r] = len(node_values)
                node_values[ids[r]] = t
        node_at.append(ids)
        level_roots.append(roots)
    edges = []
    for k in range(len(levels) - 1):
        mid = (levels[k] + levels[k + 1]) / 2
        roots = _components(faces, lo_of, hi_of, mid, strict=True)
        seen = set()
        for s, r in roots.items():
            if r in seen:
                continue
            seen.add(r)
            # no vertex value lies inside the gap, so s meets both levels
            lo = node_at[k][level_roots[k][s]]
            hi = node_at[k + 1][level_roots[k + 1][s]]
            edges.append((lo, hi))
    return graph_invariants(node_values, edges)
