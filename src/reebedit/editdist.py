"""Couplings, zigzag diagrams, and the straight-line-homotopy construction.

Every result here is a certified *upper bound* for the universal edit
distance between two Reeb graphs, shipped with the witness that realizes
it: a coupling (one space mapping onto both graphs) or a zigzag diagram
(a chain of such spaces).  The defining infimum ranges over all possible
Reeb domains and is not enumerable, so no exact values are claimed except
where a matching lower bound is available (point targets).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .category import (
    induced_map,
    limit_projection,
    pullback,
    triangulate_limit,
    zigzag_limit,
)
from .graphs import ReebGraph, complexify
from .maps import (
    Cell,
    CellMap,
    Certificate,
    CertificationError,
    MonotonePL,
    _same_graph,
    cellmap_from_hosting,
    verify_reeb_quotient,
)
from .plcore import PLFunction, Scalar, SimplicialComplex
from .reeb import compute_reeb, graph_identity_map

ZERO = Fraction(0)
ONE = Fraction(1)


# -- couplings ---------------------------------------------------------------


@dataclass
class Coupling:
    """One space with certified quotient maps onto two Reeb graphs."""

    p_f: CellMap
    p_g: CellMap
    cert_f: Certificate = field(repr=False, default=None)
    cert_g: Certificate = field(repr=False, default=None)


def coupling(p_f: CellMap, p_g: CellMap) -> Coupling:
    """Assemble and certify a coupling; raises if either map fails the
    quotient-map axioms or the sources differ."""
    if p_f.source.simplices != p_g.source.simplices:
        raise ValueError("coupling maps must share their source space")
    cert_f = verify_reeb_quotient(p_f)
    cert_g = verify_reeb_quotient(p_g)
    for name, cert in (("p_f", cert_f), ("p_g", cert_g)):
        if not cert.ok:
            raise CertificationError(
                f"{name} is not a Reeb quotient map: {cert.summary()}"
            )
    return Coupling(p_f, p_g, cert_f, cert_g)


def coupling_bound(c: Coupling) -> Scalar:
    """sup over the coupling space of |f-pullback - g-pullback|, exactly.

    Both pullbacks are linear on every simplex of the shared source, so the
    supremum of their difference is attained at a vertex.
    """
    if c.cert_f is None or not c.cert_f.ok or c.cert_g is None or not c.cert_g.ok:
        raise ValueError("coupling is not certified; build it with coupling()")
    return max(
        abs(c.p_f.h[v] - c.p_g.h[v]) for v in c.p_f.source.vertices
    )


def identity_coupling(graph: ReebGraph) -> Coupling:
    m = graph_identity_map(graph)
    return coupling(m, m)


def point_graph(c: Scalar = ZERO) -> ReebGraph:
    return ReebGraph(node_values={0: c}, edges=[])


def collapse_map(source: SimplicialComplex, c: Scalar = ZERO) -> CellMap:
    """The constant quotient map of a connected complex onto a point graph."""
    if not source.is_connected():
        raise ValueError("collapse to a point needs a connected source")
    pt = point_graph(c)
    host: dict[tuple, Cell] = {s: ("n", 0) for s in source.simplices}
    return cellmap_from_hosting(
        source, {v: c for v in source.vertices}, pt, host
    )


def product_coupling(r_f: ReebGraph, r_g: ReebGraph) -> Coupling:
    """The always-available coupling over the product R_f x R_g, realized as
    the pullback over the one-point graph."""
    id_f = graph_identity_map(r_f)
    id_g = graph_identity_map(r_g)
    L = pullback(collapse_map(id_f.source), collapse_map(id_g.source))
    T = triangulate_limit(L)
    return coupling(
        limit_projection(T, 0, id_f), limit_projection(T, 1, id_g)
    )


def point_distance(r_f: ReebGraph, c: Scalar) -> Scalar:
    """The exact edit distance to the one-point graph at value c.

    max over nodes of |value - c| is an upper bound via the product
    coupling and a lower bound because every coupling surjects onto R_f.
    """
    return max(abs(v - c) for v in r_f.node_values.values())


def compose_couplings(c1: Coupling, c2: Coupling) -> Coupling:
    """Couple R_f with R_h through a shared middle graph R_g by pulling the
    two spaces back over R_g; the new bound is at most the sum of the two."""
    if not _same_graph(c1.p_g.target, c2.p_f.target):
        raise ValueError("couplings do not share a middle graph")
    L = pullback(c1.p_g, c2.p_f)
    T = triangulate_limit(L)
    return coupling(
        limit_projection(T, 0, c1.p_f), limit_projection(T, 1, c2.p_g)
    )


# -- zigzag diagrams ---------------------------------------------------------


@dataclass
class ZigzagDiagram:
    """R_1 <- X_1 -> R_2 <- ... -> R_n with certified quotient maps."""

    graphs: list[ReebGraph]
    maps: list[tuple[CellMap, CellMap]]  # per space: (to graphs[i], graphs[i+1])
    # homotopy parameter of each graph, when the zigzag comes from a homotopy
    lambdas: Optional[list[Scalar]] = None

    def validate(self) -> None:
        if len(self.graphs) != len(self.maps) + 1:
            raise ValueError("need one space per consecutive graph pair")
        if self.lambdas is not None and len(self.lambdas) != len(self.graphs):
            raise ValueError("need one homotopy parameter per graph")
        for i, (ml, mr) in enumerate(self.maps):
            if not _same_graph(ml.target, self.graphs[i]):
                raise ValueError(f"space {i}: left target is not graph {i}")
            if not _same_graph(mr.target, self.graphs[i + 1]):
                raise ValueError(f"space {i}: right target is not graph {i + 1}")
            for name, m in (("left", ml), ("right", mr)):
                cert = verify_reeb_quotient(m)
                if not cert.ok:
                    raise CertificationError(
                        f"space {i}: {name} map uncertified: {cert.summary()}"
                    )


def zigzag_from_coupling(c: Coupling) -> ZigzagDiagram:
    return ZigzagDiagram([c.p_f.target, c.p_g.target], [(c.p_f, c.p_g)])


def zigzag_cost(z: ZigzagDiagram) -> Scalar:
    """The spread of the zigzag: sup over the diagram limit of
    max_i f_i - min_j f_j, exactly.

    The limit's points are chains (x_1, ..., x_k) agreeing at the interface
    graphs, so the spread is the sup of |f_i - f_j| over index pairs i < j.
    One forward max-plus pass computes all of them: M+_t(y) is the best f_i
    over i <= t and all partial chains from graph i landing at y on graph
    t, a piecewise-linear function on the graph, and likewise M-_t for
    -f_i.  Pushing through one space distributes over pointwise max, so
    M+_{t+1} = max(push_t(M+_t), r_{t+1}), and the best difference ending
    at graph t+1 is read off M+_{t+1} - r_{t+1} (and r_{t+1} + M-_{t+1}).
    That is two pushes per space and never enumerates the cells of the
    full limit, whose count grows multiplicatively with the number of
    spaces.  Partial chains always extend to full ones because every map
    is surjective, so segment optima equal limit optima.
    """
    if len(z.maps) == 1:
        # one space, two pulled-back functions: both linear per simplex
        ml, mr = z.maps[0]
        return max(abs(ml.h[v] - mr.h[v]) for v in ml.source.vertices)
    if any(m.source_graph is None for pair in z.maps for m in pair):
        # non-graph spaces: fall back to enumerating the limit's cells
        return zigzag_limit(z.maps).spread()
    best = ZERO
    f_plus = _value_pl(z.graphs[0], 1)  # max of r_i over earlier graphs
    f_minus = _value_pl(z.graphs[0], -1)  # max of -r_i over earlier graphs
    for left, right in z.maps:
        f_plus = _push(f_plus, left, right, 1)
        f_minus = _push(f_minus, left, right, -1)
        best = max(best, _best_diff(f_plus, -1), _best_diff(f_minus, 1))
    return best


# -- max-plus propagation of piecewise-linear functions over interfaces ------
#
# A _GraphPL stores an upper-semicontinuous PL function on a Reeb graph:
# a value per node and, per edge, value-sorted breakpoints (t, v-, v@, v+)
# holding the left limit, exact value, and right limit (fiber maxima can
# jump where the fiber combinatorics change).


@dataclass
class _GraphPL:
    graph: ReebGraph
    node_vals: dict[int, Scalar]
    edge_bps: dict[int, list[tuple[Scalar, Scalar, Scalar, Scalar]]]


def _value_pl(g: ReebGraph, sign: int) -> _GraphPL:
    node_vals = {n: sign * v for n, v in g.node_values.items()}
    edge_bps = {}
    for e, (lo, hi) in enumerate(g.edges):
        a, b = g.value(lo), g.value(hi)
        edge_bps[e] = [
            (a, sign * a, sign * a, sign * a),
            (b, sign * b, sign * b, sign * b),
        ]
    return _GraphPL(g, node_vals, edge_bps)


def _eval_bps(bps, t: Scalar, side: int = 0) -> Scalar:
    lo, hi = 0, len(bps) - 1
    while lo < hi:  # rightmost breakpoint with position <= t
        mid = (lo + hi + 1) // 2
        if bps[mid][0] <= t:
            lo = mid
        else:
            hi = mid - 1
    t0, vm, va, vp = bps[lo]
    if t0 == t:
        if side < 0:
            return vm if lo > 0 else va
        if side > 0:
            return vp if lo < len(bps) - 1 else va
        return va
    t1, vm1, _, _ = bps[lo + 1]
    return vp + (vm1 - vp) * (t - t0) / (t1 - t0)


def _eval_cell(F: _GraphPL, cell: Cell, t: Scalar, side: int = 0) -> Scalar:
    if cell[0] == "n":
        return F.node_vals[cell[1]]
    return _eval_bps(F.edge_bps[cell[1]], t, side)


def _compose_g(F: _GraphPL, left: CellMap, s, up, uq, tP, tQ):
    """Breakpoints (u, v-, v@, v+) of F(left image) along one source half,
    parametrized by the intrinsic value u in [up, uq]."""
    if tP == tQ:
        v = _eval_cell(F, left.cell_at(s, tP), tP)
        return [(up, v, v, v), (uq, v, v, v)]
    t0, t1 = (tP, tQ) if tP < tQ else (tQ, tP)
    tpts = set()
    for slot in left.slots_of(s):
        a, b = left.slot_range(slot)
        cell = left.assignment[s][slot]
        if a == b:
            tpts.add(a)
        elif cell[0] == "e":
            for bp in F.edge_bps[cell[1]]:
                if a < bp[0] < b:
                    tpts.add(bp[0])
    tlist = sorted(tpts)
    entries = []  # (t, v_below_limit, v_at, v_above_limit)
    for j, t in enumerate(tlist):
        va = _eval_cell(F, left.cell_at(s, t), t)
        if j > 0:
            eb = left.cell_on(s, tlist[j - 1], t)
            vb = _eval_bps(F.edge_bps[eb[1]], t, -1)
        else:
            vb = va
        if j < len(tlist) - 1:
            ea = left.cell_on(s, t, tlist[j + 1])
            vu = _eval_bps(F.edge_bps[ea[1]], t, 1)
        else:
            vu = va
        entries.append((t, vb, va, vu))

    def u_of(t):
        return up + (t - tP) * (uq - up) / (tQ - tP)

    if tP < tQ:
        return [(u_of(t), vb, va, vu) for t, vb, va, vu in entries]
    # value decreasing in u: reverse order and swap side limits
    return [(u_of(t), vu, va, vb) for t, vb, va, vu in reversed(entries)]


def _g_max(G) -> Scalar:
    return max(max(vm, va, vp) for _, vm, va, vp in G)


def _push(F: _GraphPL, left: CellMap, right: CellMap, sign: int) -> _GraphPL:
    """H(y) = max(sign * value(y), max { F(left(x)) : right(x) = y }), for
    graph-sourced maps: one step of zigzag_cost's forward pass."""
    gc = left._graph()
    target = right.target
    seg_by_edge: dict[int, list] = {}  # edge -> (w0, w1, v0, v1)
    pt_by_edge: dict[int, list] = {}  # edge -> (w, v)
    pt_by_node: dict[int, list] = {}
    for s in gc.complex.simplices:
        if len(s) != 2:
            continue
        vp, vq = s if gc.values[s[0]] <= gc.values[s[1]] else (s[1], s[0])
        up, uq = gc.values[vp], gc.values[vq]
        G = _compose_g(F, left, s, up, uq, left.h[vp], left.h[vq])
        wP, wQ = right.h[vp], right.h[vq]
        if wP == wQ:
            cell = right.cell_at(s, wP)
            _add_pt(pt_by_node, pt_by_edge, cell, wP, _g_max(G))
            continue

        def u_of_w(w):
            return up + (w - wP) * (uq - up) / (wQ - wP)

        for slot in right.slots_of(s):
            cell = right.assignment[s][slot]
            wl, wh = right.slot_range(slot)
            if wl == wh:
                _add_pt(pt_by_node, pt_by_edge, cell, wl, _eval_bps(G, u_of_w(wl)))
                continue
            ua, ub = u_of_w(wl), u_of_w(wh)
            ulo, uhi = (ua, ub) if ua < ub else (ub, ua)
            cuts = [ulo] + [u for u, *_ in G if ulo < u < uhi] + [uhi]
            e = cell[1]
            for c0, c1 in zip(cuts, cuts[1:]):
                v0 = _eval_bps(G, c0, 1)
                v1 = _eval_bps(G, c1, -1)
                w0 = wP + (c0 - up) * (wQ - wP) / (uq - up)
                w1 = wP + (c1 - up) * (wQ - wP) / (uq - up)
                if w0 > w1:
                    w0, w1, v0, v1 = w1, w0, v1, v0
                seg_by_edge.setdefault(e, []).append((w0, w1, v0, v1))
            for u, _, va, _ in G:
                if ulo < u < uhi:
                    w = wP + (u - up) * (wQ - wP) / (uq - up)
                    pt_by_edge.setdefault(e, []).append((w, va))

    node_vals = {}
    for n in target.nodes:
        if n not in pt_by_node:
            raise ValueError(f"no source point maps onto node {n}")
        node_vals[n] = max(max(pt_by_node[n]), sign * target.value(n))
    edge_bps = {}
    for e, (lo, hi) in enumerate(target.edges):
        if e not in seg_by_edge:
            raise ValueError(f"no source segment maps onto edge {e}")
        a, b = target.value(lo), target.value(hi)
        own = (a, b, sign * a, sign * b)
        segs = seg_by_edge[e] + [own]
        edge_bps[e] = _envelope(a, b, segs, pt_by_edge.get(e, []))
    return _GraphPL(target, node_vals, edge_bps)


def _add_pt(pt_by_node, pt_by_edge, cell: Cell, w: Scalar, v: Scalar) -> None:
    if cell[0] == "n":
        pt_by_node.setdefault(cell[1], []).append(v)
    else:
        pt_by_edge.setdefault(cell[1], []).append((w, v))


def _envelope(lo: Scalar, hi: Scalar, segs, pts):
    """Upper envelope of affine segments plus isolated point values, as a
    breakpoint list (t, v-, v@, v+) over [lo, hi].  The segments must cover
    [lo, hi]; _push guarantees it by including the target's own values."""
    cand = {lo, hi}
    for w0, w1, _, _ in segs:
        cand.add(w0)
        cand.add(w1)
    for w, _ in pts:
        cand.add(w)
    # pairwise crossings of overlapping segments
    for a in range(len(segs)):
        w0a, w1a, v0a, v1a = segs[a]
        if w0a == w1a:
            continue
        sa = (v1a - v0a) / (w1a - w0a)
        for b in range(a + 1, len(segs)):
            w0b, w1b, v0b, v1b = segs[b]
            if w0b == w1b:
                continue
            sb = (v1b - v0b) / (w1b - w0b)
            if sa == sb:
                continue
            x = (v0b - sb * w0b - v0a + sa * w0a) / (sa - sb)
            if max(w0a, w0b) < x < min(w1a, w1b):
                cand.add(x)
    ts = sorted(t for t in cand if lo <= t <= hi)

    def seg_val(seg, t):
        w0, w1, v0, v1 = seg
        if w0 == w1:
            return max(v0, v1)
        return v0 + (v1 - v0) * (t - w0) / (w1 - w0)

    def cover_max(t):
        vals = [seg_val(s, t) for s in segs if s[0] <= t <= s[1]]
        return max(vals + [v for w, v in pts if w == t])

    # per elementary interval, the maximal segment (no interior crossings)
    out = []
    for j, t in enumerate(ts):
        va = cover_max(t)
        if j > 0:
            m = (ts[j - 1] + t) / 2
            active = max(
                (s for s in segs if s[0] <= m <= s[1]),
                key=lambda s: seg_val(s, m),
            )
            vm = seg_val(active, t)
        else:
            vm = va
        if j < len(ts) - 1:
            m = (t + ts[j + 1]) / 2
            active = max(
                (s for s in segs if s[0] <= m <= s[1]),
                key=lambda s: seg_val(s, m),
            )
            vp = seg_val(active, t)
        else:
            vp = va
        out.append((t, vm, va, vp))
    return _compact(out)


def _compact(bps):
    """Drop breakpoints that are collinear and continuous."""
    out = [bps[0]]
    for j in range(1, len(bps) - 1):
        t, vm, va, vp = bps[j]
        if vm == va == vp:
            t0, _, _, v0 = out[-1]
            t1, v1, _, _ = bps[j + 1]
            chord = v0 + (v1 - v0) * (t - t0) / (t1 - t0)
            if chord == va:
                continue
        out.append(bps[j])
    out.append(bps[-1])
    return out


def _best_diff(F: _GraphPL, sign: int) -> Scalar:
    """max over the graph of F + sign * (graph value)."""
    best = None
    for n, v in F.node_vals.items():
        cand = v + sign * F.graph.value(n)
        best = cand if best is None else max(best, cand)
    for e, bps in F.edge_bps.items():
        for t, vm, va, vp in bps:
            cand = max(vm, va, vp) + sign * t
            best = cand if best is None else max(best, cand)
    return best


# -- straight-line homotopy construction -------------------------------------


@dataclass
class HomotopySchedule:
    """Breakpoints of the straight-line homotopy f_t = (1-t)f + tg at which
    some vertex pair swaps order, plus the stage reparametrizations."""

    lambdas: list[Scalar]  # 0 = l_1 < ... < l_n = 1
    rhos: list[Scalar]  # stage midpoints
    chis: list[MonotonePL]  # f_{rho_i}-values -> f_{lambda_i}-values
    xis: list[MonotonePL]  # f_{rho_i}-values -> f_{lambda_{i+1}}-values


def interpolate(f: PLFunction, g: PLFunction, t: Scalar) -> PLFunction:
    vals = {v: (1 - t) * f.values[v] + t * g.values[v] for v in f.values}
    return PLFunction(f.complex, vals)


def homotopy_breakpoints(
    complex: SimplicialComplex, f: PLFunction, g: PLFunction
) -> HomotopySchedule:
    """All parameters where the vertex order under f_t genuinely changes.

    f_t(v) = f_t(w) is linear in t, so each vertex pair contributes at most
    one interior crossing; pairs with equal values for every t never swap
    and are ignored.  Between consecutive breakpoints the weak vertex order
    is constant, which makes each stage map a monotone reparametrization.
    """
    verts = sorted(complex.vertices)
    crossings: set[Scalar] = set()
    for i, v in enumerate(verts):
        for w in verts[i + 1 :]:
            df = f.values[v] - f.values[w]
            dg = g.values[v] - g.values[w]
            if df == dg:
                continue
            t = Fraction(df, df - dg)
            if ZERO < t < ONE:
                crossings.add(t)
    lambdas = sorted({ZERO, ONE} | crossings)
    rhos = [(a + b) / 2 for a, b in zip(lambdas, lambdas[1:])]
    chis: list[MonotonePL] = []
    xis: list[MonotonePL] = []
    for lam_a, lam_b, rho in zip(lambdas, lambdas[1:], rhos):
        f_rho = interpolate(f, g, rho)
        f_a = interpolate(f, g, lam_a)
        f_b = interpolate(f, g, lam_b)
        chis.append(
            MonotonePL.from_pairs((f_rho(v), f_a(v)) for v in verts)
        )
        xis.append(
            MonotonePL.from_pairs((f_rho(v), f_b(v)) for v in verts)
        )
    return HomotopySchedule(lambdas, rhos, chis, xis)


def induced_quotient_via_reparam(
    complex: SimplicialComplex,
    f: PLFunction,
    g: PLFunction,
    chi: MonotonePL,
) -> tuple[CellMap, Certificate]:
    """The quotient map R_f -> R_g induced by g = chi o f, certified.

    Requires the commutation to hold exactly on vertices (hence everywhere,
    by linearity); raises with the witness vertex otherwise.
    """
    for v in sorted(complex.vertices):
        if chi(f.values[v]) != g.values[v]:
            raise ValueError(
                f"chi(f) != g at vertex {v}: "
                f"chi({f.values[v]}) = {chi(f.values[v])} != {g.values[v]}"
            )
    _, p_f = compute_reeb(complex, f)
    _, p_g = compute_reeb(complex, g)
    zeta = induced_map(p_f, p_g, chi)
    cert = verify_reeb_quotient(zeta)
    if not cert.ok:
        raise CertificationError(
            f"induced map failed certification: {cert.summary()}"
        )
    return zeta, cert


def build_homotopy_zigzag(
    complex: SimplicialComplex, f: PLFunction, g: PLFunction
) -> tuple[ZigzagDiagram, Scalar]:
    """The stability zigzag of the straight-line homotopy from f to g.

    Graphs are the Reeb graphs at the breakpoints, spaces the Reeb graphs
    at the stage midpoints, and the maps are induced by the monotone stage
    reparametrizations.  The returned cost is exact and never exceeds
    ||f - g||_infinity (each stage contributes its parameter span times
    that norm).
    """
    if not complex.is_connected():
        raise ValueError("the homotopy construction needs a connected complex")
    sched = homotopy_breakpoints(complex, f, g)
    graphs: list[ReebGraph] = []
    quotients: list[CellMap] = []
    for lam in sched.lambdas:
        r, p = compute_reeb(complex, interpolate(f, g, lam))
        graphs.append(r)
        quotients.append(p)
    maps: list[tuple[CellMap, CellMap]] = []
    for i, rho in enumerate(sched.rhos):
        _, p_rho = compute_reeb(complex, interpolate(f, g, rho))
        gc = complexify(p_rho.target)
        left = induced_map(p_rho, quotients[i], sched.chis[i], gc)
        right = induced_map(p_rho, quotients[i + 1], sched.xis[i], gc)
        maps.append((left, right))
    z = ZigzagDiagram(graphs, maps, sched.lambdas)
    return z, zigzag_cost(z)


# -- bound registry ----------------------------------------------------------


@dataclass(frozen=True)
class BoundRecord:
    kind: str  # "coupling" | "zigzag-graph" | "zigzag-pl"
    value: Scalar
    witness: object


class BoundRegistry:
    """Append-only log of certified upper bounds for one pair of graphs.

    Graph-level zigzag bounds are automatically valid for the PL variant
    of the distance, so recording one registers both.
    """

    KINDS = ("coupling", "zigzag-graph", "zigzag-pl")

    def __init__(self) -> None:
        self.records: list[BoundRecord] = []

    def record(self, kind: str, value: Scalar, witness: object) -> None:
        if kind not in self.KINDS:
            raise ValueError(f"unknown bound kind {kind!r}")
        self.records.append(BoundRecord(kind, value, witness))
        if kind == "zigzag-graph":
            self.records.append(BoundRecord("zigzag-pl", value, witness))

    def record_coupling(self, c: Coupling) -> Scalar:
        b = coupling_bound(c)
        self.record("coupling", b, c)
        # a coupling is a one-space zigzag, hence also a PL-zigzag bound
        self.record("zigzag-pl", b, c)
        return b

    def record_zigzag(self, z: ZigzagDiagram, graph_level: bool = True) -> Scalar:
        b = zigzag_cost(z)
        self.record("zigzag-graph" if graph_level else "zigzag-pl", b, z)
        return b

    def best(self, kind: Optional[str] = None) -> Optional[Scalar]:
        vals = [r.value for r in self.records if kind is None or r.kind == kind]
        return min(vals) if vals else None
