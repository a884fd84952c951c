"""Pullbacks of quotient maps as exact cell complexes.

The pullback of p1: X_1 -> R and p2: X_2 -> R is the space of pairs
(x_1, x_2) with p1(x_1) = p2(x_2).  We enumerate its cells as pairs of
"pieces" -- closed slabs of maximal simplices lying over a single graph
cell -- one of each map over the same cell, glued by one linear
constraint; pieces over different cells meet only where a pair over one
node already does (see pullback).  Every cell's vertices are exact: a
cell is a product of two simplex slices at the ends of its value range,
so its vertices have a closed form, and so does the set of vertices
where each of its inequalities is tight.  Cells are triangulated from those
incidences alone (geometry.pulling_triangulation).  Pullbacks are the only
limit construction: products are pullbacks over a point, and the limit of
a longer zigzag is an iterated pullback (editdist.zigzag_cost).
Composition is a pullback projection too: the pullback of q against the
identity of its target subdivides q's source, and projecting it through p
gives p o q (compose).  Projections and induced maps (induced_map) both
restrict a map over host simplices whose images cover their pieces' images.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geometry import Vector, pulling_triangulation, simplex_slice
from .graphs import complexify
from .maps import Cell, CellMap, _same_graph, restrict_cellmap
from .plcore import Scalar, Simplex, SimplicialComplex
from .reeb import graph_identity_map

ZERO = Fraction(0)

# a canonical point of a complex: ((vertex, coordinate), ...) over the support
Location = tuple[tuple[int, Fraction], ...]
# a pullback vertex: one location per factor
VertexKey = tuple[Location, Location]

CELL_BUDGET = 200_000


@dataclass(frozen=True)
class Piece:
    """A closed slab of a maximal simplex lying over one graph cell."""

    simplex: Simplex
    cell: Cell
    span: tuple[Scalar, Scalar]


@dataclass
class LimitCell:
    """The cell over pieces (a, b) of p1 and p2, which lie over one graph
    cell, on their concatenated barycentric coordinates.  Its inequalities,
    in order: per piece, a then b, x_j >= 0 for each simplex vertex, then
    lo <= h and h <= hi when the piece's span is a gap [lo, hi].  faces
    holds, per inequality, the vertices where it is tight."""

    pieces: tuple[Piece, Piece]
    vkeys: list[VertexKey]
    faces: list[frozenset[VertexKey]]


@dataclass
class LimitCellComplex:
    cells: list[LimitCell]
    vertex_ids: dict[VertexKey, int]
    # per vertex id: one {factor vertex: barycentric coordinate} per factor
    locations: dict[int, tuple[dict[int, Fraction], dict[int, Fraction]]]


def _pieces(m: CellMap) -> list[Piece]:
    # a slab of one map is never empty: slots_of(s) lists only the slots
    # that s's value range meets
    return [
        Piece(s, m.assignment[s][slot], m.slot_range(slot))
        for s in m.source.maximal_simplices
        for slot in m.slots_of(s)
    ]


def _fiber_product_vertices(
    p1: CellMap, p2: CellMap, a: Piece, b: Piece, lo: Scalar, hi: Scalar
) -> list[tuple[Vector, Scalar]]:
    """Sorted vertices of the cell over piece a of p1 and piece b of p2,
    each with its value t.

    Each piece is the slab {x in its simplex : h(x) in its span}, and both
    lie over one graph cell.  The cell glues the two by h_1(x_a) = h_2(x_b)
    = t with t in [lo, hi], the intersection of their spans; lo <= hi.  A
    point at lo < t < hi is a vertex only if a piece sits at a simplex
    vertex of value t, and there is none: every vertex value is a level of
    its map, so no span has one strictly inside.  The vertices are
    therefore the products of the two pieces' slice vertices at t = lo and
    at t = hi.
    """
    ha = [p1.h[v] for v in a.simplex]
    hb = [p2.h[v] for v in b.simplex]
    return sorted(
        (xa + xb, t)
        for t in {lo, hi}
        for xa in simplex_slice(ha, t)
        for xb in simplex_slice(hb, t)
    )


def _cell_faces(
    a: Piece, b: Piece, vkeys: list[VertexKey], values: list[Scalar]
) -> list[frozenset[VertexKey]]:
    """Per inequality of the cell over pieces a and b (see LimitCell), the
    vertices where it is tight: x_j >= 0 where the vertex key omits the
    simplex vertex j, and a gap's bound where the vertex value t is that
    end of the gap."""
    faces: list[frozenset[VertexKey]] = []
    for factor, p in enumerate((a, b)):
        support = [{v for v, _ in k[factor]} for k in vkeys]
        for v in p.simplex:
            faces.append(frozenset(k for k, sup in zip(vkeys, support) if v not in sup))
        lo, hi = p.span
        if lo != hi:
            faces += [
                frozenset(k for k, t in zip(vkeys, values) if t == end)
                for end in (lo, hi)
            ]
    return faces


def _carrier(m: CellMap, p: Piece, lo: Scalar, hi: Scalar) -> Simplex:
    """The face of p's simplex that its slices at lo and hi span: the face
    of its vertices at lo when lo == hi is an end of their values, else the
    simplex."""
    values = [m.h[v] for v in p.simplex]
    if lo < hi or min(values) < lo < max(values):
        return p.simplex
    return tuple(v for v, t in zip(p.simplex, values) if t == lo)


def pullback(p1: CellMap, p2: CellMap) -> LimitCellComplex:
    """Fiber product of p1 and p2 over their common target graph.

    A piece of p1 is paired only with the pieces of p2 over the same graph
    cell, and cells come in the order of p1's pieces, then p2's.  No other
    pair adds a cell.  In a well-formed map a node cell is assigned only at
    its node's level slot, so both pieces of a pair over one node sit at
    that node's value.  Pieces over different cells can meet only at a node
    n in both cells' closures.  The value of n is a level of both maps, so
    it is an end of both slabs, and by the incidence axiom both simplices
    have a level piece there whose cell is n.  That pair has the same
    carriers and the same value range, so it already yields the same cell.

    A cell whose vertex set repeats an earlier one is skipped before its
    vertices are built, by the key (carrier of a, carrier of b, lo, hi).
    The key fixes the vertex set: products of the slices at lo and at hi,
    which depend only on the carriers.  The vertex set fixes the key: lo
    and hi are its extreme values, and a carrier is the union of its
    factor's supports, since a slice strictly inside a simplex's value
    range meets every vertex and no vertex value lies strictly inside a
    span.  Past CELL_BUDGET cells the enumeration raises RuntimeError.
    """
    if not _same_graph(p1.target, p2.target):
        raise ValueError("pullback requires a common target")
    over: dict[Cell, list[Piece]] = {}
    for b in _pieces(p2):
        over.setdefault(b.cell, []).append(b)
    cells: list[LimitCell] = []
    seen: set[tuple] = set()
    for a in _pieces(p1):
        d = len(a.simplex)
        for b in over.get(a.cell, ()):
            lo, hi = max(a.span[0], b.span[0]), min(a.span[1], b.span[1])
            if lo > hi:
                continue
            key = (_carrier(p1, a, lo, hi), _carrier(p2, b, lo, hi), lo, hi)
            if key in seen:
                continue
            seen.add(key)
            verts = _fiber_product_vertices(p1, p2, a, b, lo, hi)
            vkeys: list[VertexKey] = [
                (
                    tuple((v, x) for v, x in zip(a.simplex, pt[:d]) if x != 0),
                    tuple((v, x) for v, x in zip(b.simplex, pt[d:]) if x != 0),
                )
                for pt, _ in verts
            ]
            faces = _cell_faces(a, b, vkeys, [t for _, t in verts])
            cells.append(LimitCell((a, b), vkeys, faces))
            if len(cells) > CELL_BUDGET:
                raise RuntimeError("limit cell budget exceeded")

    vertex_ids = {
        key: i for i, key in enumerate(sorted({k for c in cells for k in c.vkeys}))
    }
    locations = {
        vid: (dict(key[0]), dict(key[1])) for key, vid in vertex_ids.items()
    }
    return LimitCellComplex(cells, vertex_ids, locations)


# -- triangulation and projections ----------------------------------------


@dataclass
class TriangulatedLimit:
    limit: LimitCellComplex
    complex: SimplicialComplex
    # per simplex, per factor: the factor simplex spanned by its vertices
    supports: dict[Simplex, tuple[Simplex, Simplex]]


def triangulate_limit(L: LimitCellComplex) -> TriangulatedLimit:
    """Triangulate every cell by pulling in canonical vertex-key order.

    Keys are global and the pulling recursion is intrinsic to each face, so
    neighboring cells agree on shared faces.
    """
    simplices = {
        tuple(sorted(L.vertex_ids[key] for key in tri))
        for cell in L.cells
        for tri in pulling_triangulation(cell.vkeys, cell.faces)
    }
    complex = SimplicialComplex.from_simplices(sorted(simplices))
    supports = {
        s: tuple(
            tuple(sorted({v for vid in s for v in L.locations[vid][f]})) for f in (0, 1)
        )
        for s in complex.simplices
    }
    return TriangulatedLimit(L, complex, supports)


def carry_column(T: TriangulatedLimit, factor: int, col: dict[int, Scalar]) -> dict:
    """A value per vertex of the factor's complex, carried to the vertices
    of the triangulated pullback by their barycentric coordinates there."""
    return {
        vid: sum((c * col[v] for v, c in locs[factor].items()), ZERO)
        for vid, locs in T.limit.locations.items()
    }


def limit_projection(T: TriangulatedLimit, factor: int, m: CellMap) -> CellMap:
    """The composite (pullback -> X_factor -> m.target) as a
    certified-checkable CellMap on the triangulated pullback.  m is any
    quotient map on the factor's complex: the map pulled back there, or
    another one, as when compose_couplings and zigzag_cost carry the far
    side of a coupling or zigzag space across the pullback."""
    host = {s: T.supports[s][factor] for s in T.complex.simplices}
    return restrict_cellmap(m, T.complex, carry_column(T, factor, m.h), host)


def compose(p: CellMap, q: CellMap) -> CellMap:
    """The composite p o q of q: X -> R and p out of R's complexification.

    The identity of R is a homeomorphism, so the pullback of q against it
    is a subdivision of X: X cut at every level of complexify(R), that is,
    R's node values and edge midpoints.  The composite's source is that
    triangulated pullback, projected through p; past CELL_BUDGET limit
    cells the pullback raises RuntimeError.
    """
    ident = graph_identity_map(q.target)
    if p.source.simplices != ident.source.simplices:
        raise ValueError("codomain of q is not the domain of p")
    return limit_projection(triangulate_limit(pullback(q, ident)), 1, p)


def induced_map(p_f: CellMap, p_g: CellMap) -> CellMap:
    """The map R_f -> R_g induced on quotients by a shared source.

    p_f: X -> R_f and p_g: X -> R_g must share the source complex.  The
    reparametrization is read off the two maps: every level of p_f must
    hold a source vertex, all its vertices must share one p_g value, and
    those values must not decrease from level to level; each of these is
    checked exactly and raises ValueError.  The result sends each node of
    R_f to the p_g value of its level and each edge's midpoint to the mean
    of its ends' values; its source is the complexification of R_f.

    Every edge of R_f must span one gap of p_f's levels, as every edge of a
    compute_reeb graph does; an edge spanning several raises ValueError.
    Each cell of R_f is hosted on the first source simplex over it (over
    the edge's gap for an edge), and the result is p_g restricted to those
    hosts.  A simplex over an edge's gap reaches both end levels, so p_g
    read over it covers the whole closed edge.  Every level of p_g is an
    output level, so each output slot meets one slot of p_g.  That the
    result is a Reeb quotient is certified by verify_reeb_quotient, not
    assumed.
    """
    if p_f.source.simplices != p_g.source.simplices:
        raise ValueError("the two quotient maps must share their source complex")
    xi: dict[Scalar, Scalar] = {}
    for v, t in p_f.h.items():
        if xi.setdefault(t, p_g.h[v]) != p_g.h[v]:
            raise ValueError(
                f"reparametrization mismatch at vertex {v}: "
                f"level {t} goes to {xi[t]} and {p_g.h[v]}"
            )
    for t in p_f.levels:
        if t not in xi:
            raise ValueError(f"level {t} of p_f holds no source vertex")
    for lo, hi in zip(p_f.levels, p_f.levels[1:]):
        if xi[lo] > xi[hi]:
            raise ValueError(f"reparametrization decreases from level {lo} to {hi}")
    r, slot = p_f.target, p_f.node_slot
    for e, (lo, hi) in enumerate(r.edges):
        if slot[hi] - slot[lo] != 2:  # end levels are consecutive
            raise ValueError(f"edge {e} spans more than one gap of the levels")
    # every cell of R_f lies over one slot, so the first simplex whose
    # assignment names it is the first simplex over it
    host: dict[Cell, Simplex] = {}
    for sig in p_f.source.maximal_simplices:
        for cell in p_f.assignment[sig].values():
            host.setdefault(cell, sig)
    gc = complexify(r)
    for cell in gc.host.values():
        if cell not in host:
            raise ValueError(f"no source simplex maps onto {cell}")
    # vertex ids ascending: complexify numbers the nodes, then the midpoints
    h = {gc.node_vertex[n]: xi[r.value(n)] for n in r.nodes}
    for e, w in gc.mid_vertex.items():
        lo, hi = r.edge_range(e)
        h[w] = Fraction(xi[lo] + xi[hi], 2)
    hosts = {s: host[gc.host[s]] for s in gc.complex.simplices}
    return restrict_cellmap(p_g, gc.complex, h, hosts)
