"""The intrinsic interval metric on Reeb graphs and functional-distortion
bounds.

d_f(x, y) is the least length b - a of a value interval [a, b] such that x
and y lie in one connected component of the preimage of [a, b].  The
component structure only changes at node values, so the optimum is attained
with a and b drawn from node values and the two point values; we sweep b
upward for each candidate a, recording first-connection events for all
requested pairs at once.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .graphs import GraphPoint, ReebGraph, minimalize, point_on_edge
from .maps import _same_graph
from .plcore import Scalar, UnionFind
from .reeb import compute_reeb

ZERO = Fraction(0)


def d_matrix(
    g: ReebGraph, points: Sequence[GraphPoint]
) -> dict[tuple[int, int], Scalar]:
    """All pairwise d_f distances between the given points, exactly.

    Returns {(i, j): distance} for i < j.  Runs one incremental union-find
    sweep per candidate lower endpoint; pairs are charged when their
    components first merge, so total pair work is near-linear.
    """
    n = len(points)
    vals = [p.value(g) for p in points]
    candidates = sorted(set(g.node_values.values()) | set(vals))
    best: dict[tuple[int, int], Scalar] = {}

    def carrier(p: GraphPoint):
        return ("n", p.node) if p.is_node else ("e", p.edge)

    for a in candidates:
        # entry thresholds for this sweep
        items: list[tuple[Scalar, int, tuple]] = []  # (threshold, order, item)
        for node, v in g.node_values.items():
            if v >= a:
                items.append((v, 0, ("n", node)))
        for e, (lo, hi) in enumerate(g.edges):
            if g.value(hi) >= a:
                items.append((max(a, g.value(lo)), 1, ("e", e)))
        for i in range(n):
            if vals[i] >= a:
                items.append((vals[i], 2, ("p", i)))
        items.sort(key=lambda x: (x[0], x[1]))

        uf = UnionFind()
        present: set[tuple] = set()
        members: dict[tuple, list[int]] = {}

        def join(x, y, b: Scalar):
            rx, ry = uf.find(x), uf.find(y)
            if rx == ry:
                return
            mx = members.pop(rx, [])
            my = members.pop(ry, [])
            if len(mx) > len(my):
                mx, my = my, mx
            d = b - a
            for i in mx:
                for j in my:
                    key = (i, j) if i < j else (j, i)
                    if key not in best or d < best[key]:
                        best[key] = d
            uf.union(x, y)
            members[uf.find(x)] = my + mx

        for b, _, item in items:
            uf.add(item)
            present.add(item)
            kind = item[0]
            if kind == "n":
                node = item[1]
                for e in g.edges_at(node):
                    if ("e", e) in present:
                        join(item, ("e", e), b)
            elif kind == "e":
                lo, hi = g.edges[item[1]]
                for node in (lo, hi):
                    if ("n", node) in present:
                        join(item, ("n", node), b)
            else:
                i = item[1]
                members.setdefault(uf.find(item), []).append(i)
                c = carrier(points[i])
                if c in present:
                    join(item, c, b)
                # coincident points join through their carrier, which
                # entered before them (kind order) in the sweep from their
                # common value a, so identical points are charged b - a = 0
    return best


def d_f(g: ReebGraph, x: GraphPoint, y: GraphPoint) -> Scalar:
    """Least interval length over which x and y are connected."""
    if x == y:
        return ZERO
    m = d_matrix(g, [x, y])
    if (0, 1) not in m:
        raise ValueError("points are not connected in the graph")
    return m[(0, 1)]


# -- PL maps between Reeb graphs -------------------------------------------


@dataclass
class PLGraphMap:
    """A continuous PL map between Reeb graphs.

    Unlike quotient-map representations, these need not commute with the
    value functions.  Each source edge carries a traversal path: pairs
    (u, point) with u the intrinsic source value, consecutive points lying
    on a common closed target edge (equal nodes are allowed; distinct nodes
    must be bridged by an interior point so that parallel edges are
    unambiguous).
    """

    source: ReebGraph
    target: ReebGraph
    vertex_images: dict[int, GraphPoint]
    edge_paths: dict[int, list[tuple[Scalar, GraphPoint]]]

    def __call__(self, p: GraphPoint) -> GraphPoint:
        if p.is_node:
            return self.vertex_images[p.node]
        path = self.edge_paths[p.edge]
        for k in range(len(path) - 1):
            u0, q0 = path[k]
            u1, q1 = path[k + 1]
            if u0 <= p.t <= u1:
                if p.t == u0:
                    return q0
                if p.t == u1:
                    return q1
                if q0 == q1:
                    return q0
                e = _common_edge(self.target, q0, q1)
                v0 = q0.value(self.target)
                v1 = q1.value(self.target)
                v = v0 + (v1 - v0) * (p.t - u0) / (u1 - u0)
                return point_on_edge(self.target, e, v)
        raise ValueError(f"{p} outside edge path range")

    def value_defect(self) -> Scalar:
        """sup |f̃(x) − g̃(φ(x))| over the source graph, exactly.

        The defect is linear between path breakpoints, so the maximum is
        attained at breakpoints and nodes.
        """
        worst = ZERO
        for node, img in self.vertex_images.items():
            worst = max(worst, abs(self.source.value(node) - img.value(self.target)))
        for path in self.edge_paths.values():
            for u, q in path:
                worst = max(worst, abs(u - q.value(self.target)))
        return worst


def _common_edge(g: ReebGraph, p: GraphPoint, q: GraphPoint) -> int:
    opts_p = {p.edge} if not p.is_node else set(g.edges_at(p.node))
    opts_q = {q.edge} if not q.is_node else set(g.edges_at(q.node))
    common = opts_p & opts_q
    if len(common) != 1:
        raise ValueError(
            f"ambiguous or missing common edge for {p}, {q}: {sorted(common)}"
        )
    return common.pop()


# -- distortion -------------------------------------------------------------


def sample_points(g: ReebGraph, density: int) -> list[GraphPoint]:
    """All nodes plus density evenly spaced interior points per edge, plus
    the preimages of every node value interior to an edge's span (needed
    for the tightness certificate)."""
    if density < 0:
        raise ValueError(f"density must be non-negative, got {density}")
    pts: list[GraphPoint] = [GraphPoint(node=n) for n in sorted(g.nodes)]
    node_vals = sorted(set(g.node_values.values()))
    for e, (lo, hi) in enumerate(g.edges):
        a, b = g.value(lo), g.value(hi)
        ts = set()
        for j in range(1, density + 1):
            ts.add(a + (b - a) * Fraction(j, density + 1))
        for w in node_vals:
            if a < w < b:
                ts.add(w)
        for t in sorted(ts):
            pts.append(GraphPoint(edge=e, t=t))
    return pts


@dataclass(frozen=True)
class DistortionReport:
    distortion: Scalar  # D = max over sampled correspondence pairs
    defect_fg: Scalar  # ‖f̃ − g̃∘φ‖∞
    defect_gf: Scalar  # ‖f̃∘ψ − g̃‖∞
    tight: bool  # sample maximum certified equal to the supremum
    # (p1, q1, p2, q2, d_f(p1,p2), d_g(q1,q2)) for every pair of corners
    rows: tuple[tuple, ...] = field(repr=False)

    @property
    def bound(self) -> Scalar:
        return max(self.distortion, self.defect_fg, self.defect_gf)


def _map_breakpoints(phi: PLGraphMap) -> list[GraphPoint]:
    """Interior path breakpoints of a PL map, plus the positions where a
    path segment's image value crosses a target node value.  Between
    consecutive returned positions the map is affine and its image stays
    inside one open target cell."""
    node_vals = sorted(set(phi.target.node_values.values()))
    pts: list[GraphPoint] = []
    for e, path in phi.edge_paths.items():
        us = {u for u, _ in path}
        for (u0, q0), (u1, q1) in zip(path, path[1:]):
            v0 = q0.value(phi.target)
            v1 = q1.value(phi.target)
            if v0 == v1 or u0 == u1:
                continue
            for w in node_vals:
                if min(v0, v1) < w < max(v0, v1):
                    us.add(u0 + (w - v0) * (u1 - u0) / (v1 - v0))
        lo, hi = phi.source.edges[e]
        a, b = phi.source.value(lo), phi.source.value(hi)
        pts += [GraphPoint(edge=e, t=u) for u in sorted(us) if a < u < b]
    return pts


def distortion(
    phi: PLGraphMap, psi: PLGraphMap, density: int = 1
) -> DistortionReport:
    """Exact evaluation of the functional-distortion terms for one map pair.

    D is the maximum of ½|d_f(p,p') − d_g(q,q')| over the sampled
    correspondence G(φ,ψ); the report keeps every sampled pair as a row.
    The sample is a certificate (tight=True) when each pairwise d-function
    is linear between consecutive samples — checked by midpoint evaluation —
    because coordinatewise-linear functions on a product cell attain their
    extrema at corners.
    """
    samples_f, samples_g, corners = _sampled_corners(phi, psi, density)

    # Each branch of the correspondence is a one-parameter family; the gaps
    # between consecutive samples along an edge are its linearity cells.
    gaps_f = _edge_gaps(phi.source, samples_f)
    gaps_g = _edge_gaps(phi.target, samples_g)

    # each gap triple and its image under the other map, mapped once
    images_f = [(gap, tuple(map(phi, gap))) for gap in gaps_f]
    images_g = [(gap, tuple(map(psi, gap))) for gap in gaps_g]
    all_f = [p for p, _ in corners]
    all_g = [q for _, q in corners]
    for gap, image in images_f:
        all_f += gap
        all_g += image
    for gap, image in images_g:
        all_g += gap
        all_f += image
    df = _distances(phi.source, all_f)
    dg = _distances(phi.target, all_g)
    rows = tuple(_corner_rows(corners, df, dg))
    worst = max((abs(d1 - d2) for *_, d1, d2 in rows), default=ZERO)

    # Tightness: on each gap the candidate set of intervals is constant (the
    # samples include every node-value preimage), so each pairwise d-function
    # restricted to the gap is a minimum of affine functions, hence concave;
    # a concave function passing the midpoint test is linear on the gap, and
    # functions linear across every gap attain their extrema at corners.
    def linear(d, gap, others):
        xa, xb, xm = gap
        return all(2 * d(xm, x2) == d(xa, x2) + d(xb, x2) for x2 in others)

    # Slices are tested against corner points only: gap interiors (notably the
    # midpoints themselves) sit on the self-distance kink of d, and product
    # cells are handled corner-wise.
    others_f = _dedupe([p for p, _ in corners])
    others_g = _dedupe([q for _, q in corners])
    tight = all(
        linear(df, gap, others_f) and linear(dg, image, others_g)
        for gap, image in images_f
    ) and all(
        linear(dg, gap, others_g) and linear(df, image, others_f)
        for gap, image in images_g
    )

    return DistortionReport(
        Fraction(worst, 2),
        phi.value_defect(),
        psi.value_defect(),
        tight,
        rows,
    )


def _sampled_corners(phi: PLGraphMap, psi: PLGraphMap, density: int):
    """Samples on both graphs (with each map's breakpoints) and the
    correspondence corners (p, φp) for p in R_f, (ψq, q) for q in R_g."""
    back = _same_graph(psi.source, phi.target) and _same_graph(psi.target, phi.source)
    if not back:
        raise ValueError("psi must map the target graph of phi back")
    samples_f = _dedupe(sample_points(phi.source, density) + _map_breakpoints(phi))
    samples_g = _dedupe(sample_points(phi.target, density) + _map_breakpoints(psi))
    corners = _dedupe(
        [(p, phi(p)) for p in samples_f] + [(psi(q), q) for q in samples_g]
    )
    return samples_f, samples_g, corners


def _dedupe(items: list) -> list:
    return list(dict.fromkeys(items))


def _distances(g: ReebGraph, points: list[GraphPoint]):
    """d_f on g as a function d(p, q) of the given points, from one
    d_matrix run over them."""
    index = {p: i for i, p in enumerate(_dedupe(points))}
    m = d_matrix(g, list(index))

    def d(p: GraphPoint, q: GraphPoint) -> Scalar:
        i, j = index[p], index[q]
        return ZERO if i == j else m[(i, j) if i < j else (j, i)]

    return d


def _corner_rows(corners, df, dg):
    """(p1, q1, p2, q2, d_f(p1,p2), d_g(q1,q2)) for every pair of corners."""
    for i, (p1, q1) in enumerate(corners):
        for p2, q2 in corners[i + 1 :]:
            yield p1, q1, p2, q2, df(p1, p2), dg(q1, q2)


def _edge_gaps(
    g: ReebGraph, samples: list[GraphPoint]
) -> list[tuple[GraphPoint, GraphPoint, GraphPoint]]:
    """(left sample, right sample, midpoint) triples for the gaps between
    consecutive sample positions along every edge."""
    per_edge: dict[int, set[Scalar]] = {}
    for e, (lo, hi) in enumerate(g.edges):
        per_edge[e] = {g.value(lo), g.value(hi)}
    for p in samples:
        if not p.is_node:
            per_edge[p.edge].add(p.t)
    out = []
    for e, ts in per_edge.items():
        s = sorted(ts)
        for a, b in zip(s, s[1:]):
            out.append(
                (
                    point_on_edge(g, e, a),
                    point_on_edge(g, e, b),
                    GraphPoint(edge=e, t=(a + b) / 2),
                )
            )
    return out


# -- the cylinder example map pair ------------------------------------------


def _cylinder_candidates(cx, f, g):
    """The example map pair for the cylinder: project the circle-like f-graph
    onto the path-like g-graph along values, and section back through the
    upper arc."""
    rf, _ = compute_reeb(cx, f)
    rg, _ = compute_reeb(cx, g)
    mf, mg = minimalize(rf), minimalize(rg)
    return _upper_section(mf, mg), _upper_section(mg, mf)


def _upper_section(src: ReebGraph, dst: ReebGraph) -> PLGraphMap:
    """The PL map sending each point of src at value t to the point at value
    t on one monotone edge path of dst, from its lowest to its highest node.
    Onto a path graph this is the value projection."""
    lo_n = min(dst.nodes, key=dst.value)
    hi_n = max(dst.nodes, key=dst.value)
    # walk a monotone path lo_n -> hi_n through increasing edges
    path_cells = []
    node = lo_n
    while node != hi_n:
        e = min(dst.up_edges(node))
        path_cells.append(e)
        node = dst.edges[e][1]

    def at(t) -> GraphPoint:
        for e in path_cells:
            lo, hi = dst.edges[e]
            if dst.value(lo) <= t <= dst.value(hi):
                return point_on_edge(dst, e, t)
        raise ValueError(f"value {t} outside section range")

    vertex_images = {n: at(src.value(n)) for n in src.nodes}
    node_vals = sorted(set(dst.node_values.values()))
    edge_paths = {}
    for e, (lo, hi) in enumerate(src.edges):
        a, b = src.value(lo), src.value(hi)
        us = sorted({a, b} | {w for w in node_vals if a < w < b})
        # interior midpoints disambiguate parallel target edges
        us = sorted(set(us) | {(u0 + u1) / 2 for u0, u1 in zip(us, us[1:])})
        edge_paths[e] = [(u, at(u)) for u in us]
    return PLGraphMap(src, dst, vertex_images, edge_paths)
