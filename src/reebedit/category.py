"""Limits of zigzag diagrams as exact cell complexes.

A zigzag is a chain of spaces X_1 … X_k, each carrying two certified
quotient maps (left into R_i, right into R_{i+1}).  Its limit consists of
tuples (x_1, …, x_k) whose images agree at every interface.  We enumerate
the limit's cells as tuples of "pieces" — closed slabs of maximal
simplices lying over a single graph cell on each side — glued by one
linear constraint per interface, and compute every cell's vertices
exactly.  When every space carries a single map (every pullback does), the
pieces are value slabs and a cell's vertices are products of simplex
slices; other cells go through general vertex enumeration.  Pullbacks and
products are the one- and two-factor cases.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional

from .geometry import (
    LinearForm,
    Vector,
    polytope_vertices,
    pulling_triangulation,
    simplex_slice,
)
from .graphs import GraphComplex, ReebGraph, complexify
from .maps import (
    Cell,
    CellMap,
    MonotonePL,
    Slot,
    _same_graph,
    level_ranks,
    level_slot,
    restrict_cellmap,
    slot_in,
)
from .plcore import Scalar, Simplex, SimplicialComplex, UnionFind

ZERO = Fraction(0)
ONE = Fraction(1)

# a canonical point of a complex: ((vertex, coordinate), ...) over the support
Location = tuple[tuple[int, Fraction], ...]
# a limit vertex: one location per factor
VertexKey = tuple[Location, ...]

CELL_BUDGET = 200_000


@dataclass(frozen=True)
class Piece:
    """A closed slab of a maximal simplex lying over one graph cell on the
    left and one on the right."""

    factor: int
    simplex: Simplex
    lslot: Slot
    rslot: Slot
    lcell: Cell
    rcell: Cell
    lrange: tuple[Scalar, Scalar]
    rrange: tuple[Scalar, Scalar]


@dataclass
class LimitCell:
    pieces: tuple[Piece, ...]
    modes: tuple[tuple, ...]  # per interface: ("edge", e) or ("node", n)
    vkeys: list[VertexKey]
    coords: dict[VertexKey, tuple[Fraction, ...]]
    ineqs: list[LinearForm]


@dataclass
class LimitCellComplex:
    factors: list[tuple[CellMap, CellMap]]
    cells: list[LimitCell]
    vertex_ids: dict[VertexKey, int]
    # per limit vertex id: one {factor vertex: barycentric coordinate} per factor
    locations: dict[int, tuple[dict[int, Fraction], ...]]
    # per limit vertex id: pulled-back graph values (R_1, …, R_{k+1})
    values: dict[int, tuple[Scalar, ...]]

    def spread(self) -> Scalar:
        """Sup over the limit of max_i f_i - min_j f_j (the zigzag cost)."""
        if not self.values:
            raise ValueError("empty limit")
        return max(max(v) - min(v) for v in self.values.values())

    def is_connected(self) -> bool:
        if not self.cells:
            return False
        uf = UnionFind(range(len(self.cells)))
        owner: dict[VertexKey, int] = {}
        for i, c in enumerate(self.cells):
            for k in c.vkeys:
                if k in owner:
                    uf.union(owner[k], i)
                else:
                    owner[k] = i
        return len(uf.groups()) == 1


def _slot_constraints(
    m: CellMap, s: Simplex, slot: Slot, dim: int, offset: int, total: int
) -> tuple[list[LinearForm], list[LinearForm]]:
    """Constraints pinning the barycentric block [offset, offset+dim) of a
    total-dimensional ambient to the given slot of the map."""
    hvec = [ZERO] * total
    for j, v in enumerate(s):
        hvec[offset + j] = m.h[v]
    lo, hi = m.slot_range(slot)
    if lo == hi:
        return [(tuple(hvec), lo)], []
    return [], [
        (tuple(-x for x in hvec), -lo),
        (tuple(hvec), hi),
    ]


def _base_constraints(
    s: Simplex, offset: int, total: int
) -> tuple[list[LinearForm], list[LinearForm]]:
    d = len(s)
    one = [ZERO] * total
    for j in range(d):
        one[offset + j] = ONE
    eqs = [(tuple(one), ONE)]
    ineqs = []
    for j in range(d):
        e = [ZERO] * total
        e[offset + j] = -ONE
        ineqs.append((tuple(e), ZERO))
    return eqs, ineqs


def _factor_pieces(factor: int, ml: CellMap, mr: CellMap) -> list[Piece]:
    same = ml is mr
    out: list[Piece] = []
    for s in ml.source.maximal_simplices():
        d = len(s)
        for ls in ml.slots_of(s):
            # a slab of one map is never empty: slots_of(s) lists only the
            # slots that s's value range meets
            for rs in [ls] if same else mr.slots_of(s):
                if not same:
                    eqs, ineqs = _base_constraints(s, 0, d)
                    for m, slot in ((ml, ls), (mr, rs)):
                        e, i = _slot_constraints(m, s, slot, d, 0, d)
                        eqs += e
                        ineqs += i
                    if not polytope_vertices(d, eqs, ineqs):
                        continue
                out.append(
                    Piece(
                        factor,
                        s,
                        ls,
                        rs,
                        ml.assignment[s][ls],
                        mr.assignment[s][rs],
                        ml.slot_range(ls),
                        mr.slot_range(rs),
                    )
                )
    return out


def _cell_constraints(
    factors: list[tuple[CellMap, CellMap]], chain: list[Piece], modes: list[tuple]
) -> tuple[list[LinearForm], list[LinearForm]]:
    """(equations, inequalities) of the limit cell over chain and modes, on
    the concatenated barycentric coordinates of its pieces."""
    offsets = []
    total = 0
    for p in chain:
        offsets.append(total)
        total += len(p.simplex)
    eqs: list[LinearForm] = []
    ineqs: list[LinearForm] = []
    for p, off in zip(chain, offsets):
        d = len(p.simplex)
        ml, mr = factors[p.factor]
        e0, i0 = _base_constraints(p.simplex, off, total)
        e1, i1 = _slot_constraints(ml, p.simplex, p.lslot, d, off, total)
        eqs += e0 + e1
        ineqs += i0 + i1
        if mr is not ml:
            e2, i2 = _slot_constraints(mr, p.simplex, p.rslot, d, off, total)
            eqs += e2
            ineqs += i2
    for j, mode in enumerate(modes):
        a, b = chain[j], chain[j + 1]
        mr = factors[a.factor][1]
        ml = factors[b.factor][0]
        ra = [ZERO] * total
        for t, v in enumerate(a.simplex):
            ra[offsets[j] + t] = mr.h[v]
        lb = [ZERO] * total
        for t, v in enumerate(b.simplex):
            lb[offsets[j + 1] + t] = ml.h[v]
        if mode[0] == "edge":
            eqs.append((tuple(x - y for x, y in zip(ra, lb)), ZERO))
        else:
            val = mr.target.value(mode[1])
            eqs.append((tuple(ra), val))
            eqs.append((tuple(lb), val))
    return eqs, ineqs


def _fiber_product_vertices(
    factors: list[tuple[CellMap, CellMap]], chain: list[Piece], modes: list[tuple]
) -> list[Vector]:
    """Sorted vertices of a limit cell whose factors each carry one map.

    Each piece is the slab {x in its simplex : h(x) in its slot range}.  An
    edge mode glues two pieces by h_a(x_a) = h_b(x_b), so a run of pieces
    glued by edge modes shares one value t in [lo, hi], the intersection of
    their slot ranges; a node mode pins the runs on both of its sides to the
    node value.  The cell is the product of its runs.  A point of a run at
    lo < t < hi is a vertex only if some piece sits at a simplex vertex of
    value t, and there is none: every vertex value is a level of its map, so
    no slot range has one strictly inside.  A run's vertices are therefore
    the products of its pieces' slice vertices at t = lo and at t = hi.
    """
    runs: list[list[Piece]] = [[chain[0]]]
    ranges: list[tuple[Scalar, Scalar]] = [chain[0].lrange]
    for j, mode in enumerate(modes):
        p = chain[j + 1]
        if mode[0] == "node":
            val = factors[p.factor][0].target.value(mode[1])
            ranges[-1] = _meet(ranges[-1], (val, val))
            runs.append([])
            ranges.append((val, val))
        runs[-1].append(p)
        ranges[-1] = _meet(ranges[-1], p.lrange)
    if any(lo > hi for lo, hi in ranges):
        return []
    per_run: list[list[Vector]] = []
    for run, (lo, hi) in zip(runs, ranges):
        hs = [[factors[p.factor][0].h[v] for v in p.simplex] for p in run]
        per_run.append(
            [
                sum(combo, ())
                for t in {lo, hi}
                for combo in product(*(simplex_slice(row, t) for row in hs))
            ]
        )
    return sorted(sum(combo, ()) for combo in product(*per_run))


def _closure_nodes(g: ReebGraph, c: Cell) -> set[int]:
    if c[0] == "n":
        return {c[1]}
    lo, hi = g.edges[c[1]]
    return {lo, hi}


def _modes(g: ReebGraph, cr: Cell, cl: Cell) -> list[tuple]:
    """Ways the closed cells cr and cl can share an image point."""
    if cr == cl and cr[0] == "e":
        return [("edge", cr[1])]
    return [("node", n) for n in sorted(_closure_nodes(g, cr) & _closure_nodes(g, cl))]


def _meet(
    a: tuple[Scalar, Scalar], b: tuple[Scalar, Scalar]
) -> tuple[Scalar, Scalar]:
    """Intersection of two closed intervals; empty when lo > hi."""
    return max(a[0], b[0]), min(a[1], b[1])


def zigzag_limit(factors: list[tuple[CellMap, CellMap]]) -> LimitCellComplex:
    """Limit of the diagram R_1 <- X_1 -> R_2 <- X_2 -> … -> R_{k+1}.

    factors[i] = (left map, right map) of X_{i+1}; the right target of each
    factor must equal the left target of the next.
    """
    k = len(factors)
    if k == 0:
        raise ValueError("empty zigzag")
    for i in range(k - 1):
        if not _same_graph(factors[i][1].target, factors[i + 1][0].target):
            raise ValueError(f"interface {i}: target graphs differ")
    pieces = [_factor_pieces(i, ml, mr) for i, (ml, mr) in enumerate(factors)]
    single = all(ml is mr for ml, mr in factors)

    cells: list[LimitCell] = []
    seen: set[frozenset] = set()

    def finalize(chain: list[Piece], modes: list[tuple]):
        eqs, ineqs = _cell_constraints(factors, chain, modes)
        if single:
            verts = _fiber_product_vertices(factors, chain, modes)
        else:
            total = sum(len(p.simplex) for p in chain)
            verts = polytope_vertices(total, eqs, ineqs)
        if not verts:
            return
        vkeys: list[VertexKey] = []
        coords: dict[VertexKey, tuple[Fraction, ...]] = {}
        for pt in verts:
            key_parts: list[Location] = []
            off = 0
            for p in chain:
                d = len(p.simplex)
                block = zip(p.simplex, pt[off : off + d])
                key_parts.append(tuple((v, x) for v, x in block if x != 0))
                off += d
            key = tuple(key_parts)
            vkeys.append(key)
            coords[key] = pt
        sig = frozenset(vkeys)
        if sig in seen:
            return
        seen.add(sig)
        cells.append(LimitCell(tuple(chain), tuple(modes), vkeys, coords, ineqs))
        if len(cells) > CELL_BUDGET:
            raise RuntimeError("limit cell budget exceeded")

    def extend(i: int, chain: list[Piece], modes: list[tuple]):
        if i == k:
            finalize(chain, modes)
            return
        g = factors[i][0].target
        for p in pieces[i]:
            if i == 0:
                extend(1, [p], [])
                continue
            prev = chain[-1]
            for mode in _modes(g, prev.rcell, p.lcell):
                if mode[0] == "edge":
                    lo, hi = _meet(prev.rrange, p.lrange)
                    if lo > hi:
                        continue
                else:
                    val = g.value(mode[1])
                    if not (
                        prev.rrange[0] <= val <= prev.rrange[1]
                        and p.lrange[0] <= val <= p.lrange[1]
                    ):
                        continue
                extend(i + 1, chain + [p], modes + [mode])

    extend(0, [], [])

    vertex_ids: dict[VertexKey, int] = {}
    for key in sorted({key for c in cells for key in c.vkeys}):
        vertex_ids[key] = len(vertex_ids)
    locations: dict[int, tuple[dict[int, Fraction], ...]] = {}
    values: dict[int, tuple[Scalar, ...]] = {}
    for key, vid in vertex_ids.items():
        locs = tuple({v: c for v, c in part} for part in key)
        locations[vid] = locs
        vals = [
            sum((c * factors[0][0].h[v] for v, c in locs[0].items()), ZERO)
        ]
        for i in range(k):
            mr = factors[i][1]
            vals.append(sum((c * mr.h[v] for v, c in locs[i].items()), ZERO))
        values[vid] = tuple(vals)
    return LimitCellComplex(list(factors), cells, vertex_ids, locations, values)


def pullback(p1: CellMap, p2: CellMap) -> LimitCellComplex:
    """Fiber product of p1 and p2 over their common target graph."""
    if not _same_graph(p1.target, p2.target):
        raise ValueError("pullback requires a common target")
    return zigzag_limit([(p1, p1), (p2, p2)])


# -- triangulation and projections ----------------------------------------


@dataclass
class TriangulatedLimit:
    limit: LimitCellComplex
    complex: SimplicialComplex
    # per simplex, per factor: the factor simplex spanned by its vertices
    supports: dict[Simplex, tuple[Simplex, ...]]


def triangulate_limit(L: LimitCellComplex) -> TriangulatedLimit:
    """Triangulate every cell by pulling in canonical vertex-key order.

    Keys are global and the pulling recursion is intrinsic to each face, so
    neighboring cells agree on shared faces.
    """
    nfac = len(L.factors)
    simplices: set[Simplex] = set()
    supports: dict[Simplex, tuple[Simplex, ...]] = {}
    for cell in L.cells:
        tris = pulling_triangulation(cell.coords, cell.ineqs)
        for tri in tris:
            ids = tuple(sorted(L.vertex_ids[key] for key in tri))
            simplices.add(ids)
            if ids not in supports:
                sup = []
                for f in range(nfac):
                    vs: set[int] = set()
                    for vid in ids:
                        vs.update(L.locations[vid][f])
                    sup.append(tuple(sorted(vs)))
                supports[ids] = tuple(sup)
    complex = SimplicialComplex.from_simplices(sorted(simplices))
    # faces need supports too
    for s in complex.simplices:
        if s not in supports:
            supports[s] = tuple(
                tuple(sorted({v for vid in s for v in L.locations[vid][f]}))
                for f in range(nfac)
            )
    return TriangulatedLimit(L, complex, supports)


def limit_projection(T: TriangulatedLimit, factor: int, m: CellMap) -> CellMap:
    """The composite (limit -> X_factor -> m.target) as a certified-checkable
    CellMap.  m may be the factor's own zigzag map or any other quotient map
    defined on the same factor complex."""
    h = {
        vid: sum((c * m.h[v] for v, c in locs[factor].items()), ZERO)
        for vid, locs in T.limit.locations.items()
    }
    host = {s: T.supports[s][factor] for s in T.complex.simplices}
    return restrict_cellmap(m, T.complex, h, host)


def _require_affine_between_levels(xi: MonotonePL, m: CellMap) -> None:
    """Raise unless xi's breakpoints span m's levels and xi is affine on
    every open gap between consecutive levels."""
    lo, hi = m.levels[0], m.levels[-1]
    bp = xi.breakpoints
    if not bp[0][0] <= lo or not hi <= bp[-1][0]:
        raise ValueError(
            f"reparametrization breakpoints [{bp[0][0]}, {bp[-1][0]}] "
            f"do not span the levels [{lo}, {hi}]"
        )
    for (u0, v0), (u1, v1), (u2, v2) in zip(bp, bp[1:], bp[2:]):
        if (
            m.level_index(u1) is None
            and lo < u1 < hi
            and (v1 - v0) * (u2 - u1) != (v2 - v1) * (u1 - u0)
        ):
            raise ValueError(
                f"reparametrization bends at {u1}, strictly between two levels"
            )


def induced_map(
    p_f: CellMap,
    p_g: CellMap,
    xi: MonotonePL,
    gcf: Optional[GraphComplex] = None,
) -> CellMap:
    """The map R_f -> R_g induced on quotients by a shared source.

    p_f: X -> R_f and p_g: X -> R_g must share the source complex, with the
    second value function a monotone reparametrization of the first:
    p_g.h == xi o p_f.h on vertices, and xi affine on every open gap between
    consecutive levels of p_f, with breakpoints spanning those levels (all
    checked exactly).  Then p_g.h == xi o p_f.h everywhere, by linearity on
    each slab of a simplex.  Each fiber of p_f is then contained in a single
    fiber of p_g, so the point map descends; the result is returned as a
    quotient-map representation whose source is the complexification of R_f.

    The value arithmetic happens once per output slot: the middle value t of
    the slot, the ends of xi's preimage of t and t's slot of p_g.  Positions
    on R_f are slots of one merged axis of p_f's levels and the graph's
    values, so a simplex of the graph clips the preimage to its own range,
    and any position of the clipped range (all of it maps to one point of
    R_g) names a fiber of p_f by integer lookups.
    """
    if p_f.source.simplices != p_g.source.simplices:
        raise ValueError("the two quotient maps must share their source complex")
    for v in p_f.source.vertices:
        if xi(p_f.h[v]) != p_g.h[v]:
            raise ValueError(
                f"reparametrization mismatch at vertex {v}: "
                f"xi({p_f.h[v]}) = {xi(p_f.h[v])} != {p_g.h[v]}"
            )
    _require_affine_between_levels(xi, p_f)
    if gcf is None:
        gcf = complexify(p_f.target)
    h = {w: xi(gcf.values[w]) for w in gcf.complex.vertices}
    out = CellMap(gcf.complex, h, p_g.target, {}, gcf)
    # (slot, cell) of p_f -> first maximal simplex over that cell in that
    # slot, and each maximal simplex's slots of p_g
    first_over: dict[tuple[Slot, Cell], Simplex] = {}
    g_slots: dict[Simplex, range] = {}
    for sig in p_f.source.maximal_simplices():
        g_slots[sig] = p_g.slots_of(sig)
        for slot in p_f.slots_of(sig):
            first_over.setdefault((slot, p_f.assignment[sig][slot]), sig)

    axis = sorted(set(p_f.levels).union(gcf.values.values()))
    # the axis holds p_f's levels, so each axis slot meets one slot of p_f
    f_slot = [run[0] for run in p_f.slots_over(axis)]
    at = {w: level_slot(i) for w, i in level_ranks(gcf.values, axis)[1].items()}
    # per output slot: its middle value, the axis slots of the ends of its
    # preimage, and its slot of p_g; the graph is connected, so every slot
    # between its lowest and highest vertex is met
    rows: dict[Slot, tuple[Scalar, Slot, Slot, Slot]] = {}
    for slot in out.slots_of(tuple(h)):
        lo, hi = out.slot_range(slot)
        t = (lo + hi) / 2
        ua, ub = xi.preimage(t)
        rows[slot] = (t, slot_in(axis, ua), slot_in(axis, ub), p_g.slot_of(t))

    assignment: dict[Simplex, dict[Slot, Cell]] = {}
    for s in gcf.complex.simplices:
        fa = min(at[w] for w in s)
        fb = max(at[w] for w in s)
        host = gcf.host[s]
        per: dict[Slot, Cell] = {}
        for slot in out.slots_of(s):
            t, ua, ub, gslot = rows[slot]
            u = (max(ua, fa) + min(ub, fb)) // 2
            cell = p_f.snap(host, f_slot[u])
            sig = first_over.get((f_slot[u], cell))
            if sig is None:
                raise ValueError(
                    f"no source simplex maps onto {cell} in the preimage of {t}"
                )
            if gslot not in g_slots[sig]:
                raise ValueError(f"simplex {sig} does not meet value {t}")
            per[slot] = p_g.snap(p_g.assignment[sig][gslot], gslot)
        assignment[s] = per
    out.assignment = assignment
    return out
