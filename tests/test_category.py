from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reebedit import category
from reebedit.category import (
    induced_map,
    limit_projection,
    pullback,
    triangulate_limit,
)
from reebedit.editdist import (
    ZigzagDiagram,
    collapse_map,
    homotopy_breakpoints,
    interpolate,
    zigzag_cost,
)
from reebedit.generators import cylinder, path, random_instance
from reebedit.geometry import pulling_triangulation
from reebedit.graphs import ReebGraph, complexify, graph_isomorphic, minimalize
from reebedit.maps import cellmap_from_hosting, verify_reeb_quotient
from reebedit.plcore import PLFunction, SimplicialComplex
from reebedit.reeb import compute_reeb, graph_identity_map

from oracles import image_point, point_image, polytope_vertices
from test_geometry import geometric_pulling_triangulation, tight_sets

F = Fraction


@pytest.mark.parametrize("seed", range(8))
def test_pullback_projections_certified_and_connected(seed):
    cx, f, _ = random_instance(seed, nverts=5)
    r, p = compute_reeb(cx, f)
    ident = graph_identity_map(r)
    T = triangulate_limit(pullback(p, ident))
    assert T.complex.is_connected()
    pr0 = limit_projection(T, 0, p)
    pr1 = limit_projection(T, 1, ident)
    assert verify_reeb_quotient(pr0).ok
    assert verify_reeb_quotient(pr1).ok


def _limit_contents(L):
    cells = [(c.pieces, c.vkeys, c.faces) for c in L.cells]
    return cells, L.vertex_ids, L.locations


def _pullback_pair(seed, nverts, kind):
    cx, f, _ = random_instance(seed, nverts=nverts, triangles=2)
    if kind == "constant-middle":
        tri = max(cx.simplices, key=len)
        f = PLFunction(cx, {v: f(tri[0]) if v in tri else f(v) for v in cx.vertices})
    r, p = compute_reeb(cx, f)
    return {
        "identity": (p, graph_identity_map(r)),
        "self": (p, p),
        "constant-middle": (p, p),
        "product": (collapse_map(cx), collapse_map(cx)),
    }[kind]


pair_kinds = dict(
    seed=st.integers(0, 10_000),
    nverts=st.integers(3, 5),
    kind=st.sampled_from(["identity", "self", "constant-middle", "product"]),
)


def _cell_ineqs(p1, p2, a, b):
    """Inequalities of the cell over pieces a and b, on the concatenated
    barycentric coordinates: every coordinate is non-negative, and each
    piece's value lies in its slot when the slot is a gap."""
    total = len(a.simplex) + len(b.simplex)
    out = []
    for m, p, offset in ((p1, a, 0), (p2, b, len(a.simplex))):
        for j in range(len(p.simplex)):
            e = [F(0)] * total
            e[offset + j] = F(-1)
            out.append((tuple(e), F(0)))
        lo, hi = p.span
        if lo != hi:
            hvec = [F(0)] * total
            for j, v in enumerate(p.simplex):
                hvec[offset + j] = m.h[v]
            out += [(tuple(-x for x in hvec), -lo), (tuple(hvec), hi)]
    return out


def _cell_eqs(p1, p2, a, b):
    # each piece's coordinates sum to 1, and a level piece sits at its level
    da, total = len(a.simplex), len(a.simplex) + len(b.simplex)

    def row(p, offset, coeff=lambda v: 1):
        r = [F(0)] * total
        for j, v in enumerate(p.simplex):
            r[offset + j] = F(coeff(v))
        return r

    eqs = []
    for m, p, offset in ((p1, a, 0), (p2, b, da)):
        eqs.append((tuple(row(p, offset)), F(1)))
        lo, hi = p.span
        if lo == hi:
            eqs.append((tuple(row(p, offset, m.h.get)), lo))
    return eqs, row(a, 0, p1.h.get), row(b, da, p2.h.get)


def _vertices_in_range(p1, p2, a, b, lo, hi):
    # the cell's equations and inequalities, built here from its definition
    # with the value t = h_1 = h_2 in [lo, hi], solved by tight-set
    # enumeration
    eqs, ha, hb = _cell_eqs(p1, p2, a, b)
    eqs.append((tuple(x - y for x, y in zip(ha, hb)), F(0)))
    ineqs = _cell_ineqs(p1, p2, a, b)
    ineqs += [(tuple(-x for x in ha), -lo), (tuple(ha), hi)]
    return polytope_vertices(len(ha), eqs, ineqs)


def _vertices_over_cell(p1, p2, a, b):
    # the same from the graph cell the two pieces lie over: glued along an
    # edge, or both at a node's value
    (cell,) = {a.cell, b.cell}
    eqs, ha, hb = _cell_eqs(p1, p2, a, b)
    if cell[0] == "e":
        eqs.append((tuple(x - y for x, y in zip(ha, hb)), F(0)))
    else:
        val = p2.target.value(cell[1])
        eqs += [(tuple(ha), val), (tuple(hb), val)]
    return polytope_vertices(len(ha), eqs, _cell_ineqs(p1, p2, a, b))


def _vertex_key(a, b, pt):
    d = len(a.simplex)
    return (
        tuple((v, x) for v, x in zip(a.simplex, pt[:d]) if x != 0),
        tuple((v, x) for v, x in zip(b.simplex, pt[d:]) if x != 0),
    )


@settings(max_examples=30, deadline=None)
@given(**pair_kinds)
def test_fiber_product_cells_match_polytope_vertices_property(seed, nverts, kind):
    # closed-form cell vertices and their values against tight-set
    # enumeration on each cell's own equations and inequalities, over every
    # cell pullback computes, kept or dropped as a repeat
    p1, p2 = _pullback_pair(seed, nverts, kind)
    L = pullback(p1, p2)
    assert L.cells
    closed_form = category._fiber_product_vertices
    tried = []

    def checked(p1, p2, a, b, lo, hi):
        got = closed_form(p1, p2, a, b, lo, hi)
        assert [pt for pt, _ in got] == _vertices_in_range(p1, p2, a, b, lo, hi)
        for pt, t in got:
            assert sum((x * p1.h[v] for v, x in zip(a.simplex, pt)), F(0)) == t
        tried.append((a, b, lo, hi))
        return got

    with mock.patch.object(category, "_fiber_product_vertices", checked):
        oracle = pullback(p1, p2)
    assert len(tried) >= len(L.cells)
    assert _limit_contents(L) == _limit_contents(oracle)


def _cells_trying_every_triple(p1, p2):
    # the reference enumeration: every pair of pieces whose cells' closures
    # share a node, once per way the two closed cells meet (along one edge,
    # or at a shared node, pinned to its value), builds its vertices, and a
    # cell whose vertex set repeats an earlier one is dropped
    g = p2.target

    def closure(c):
        return {c[1]} if c[0] == "n" else set(g.edges[c[1]])

    cells, seen = [], set()
    for a in category._pieces(p1):
        for b in category._pieces(p2):
            if a.cell == b.cell and a.cell[0] == "e":
                meetings = [None]
            else:
                meetings = sorted(closure(a.cell) & closure(b.cell))
            for n in meetings:
                lo, hi = max(a.span[0], b.span[0]), min(a.span[1], b.span[1])
                if n is not None:
                    val = g.value(n)
                    if not lo <= val <= hi:
                        continue
                    lo = hi = val
                if lo > hi:
                    continue
                verts = category._fiber_product_vertices(p1, p2, a, b, lo, hi)
                vkeys = [_vertex_key(a, b, pt) for pt, _ in verts]
                if frozenset(vkeys) not in seen:
                    seen.add(frozenset(vkeys))
                    values = [t for _, t in verts]
                    faces = category._cell_faces(a, b, vkeys, values)
                    cells.append(category.LimitCell((a, b), vkeys, faces))
    keys = sorted({k for c in cells for k in c.vkeys})
    vertex_ids = {k: i for i, k in enumerate(keys)}
    locations = {i: (dict(k[0]), dict(k[1])) for k, i in vertex_ids.items()}
    return category.LimitCellComplex(cells, vertex_ids, locations)


@settings(max_examples=30, deadline=None)
@given(**pair_kinds)
def test_pullback_skip_keeps_the_cells_of_every_triple_property(seed, nverts, kind):
    # pairing pieces over one graph cell and skipping a pair whose
    # simplices and value range repeat an earlier one's keeps the cells of
    # every meeting of every pair: the same vertex sets, none repeated, and
    # the same triangulation; the cells' order is not compared
    p1, p2 = _pullback_pair(seed, nverts, kind)
    L = pullback(p1, p2)
    oracle = _cells_trying_every_triple(p1, p2)
    vertex_sets = [frozenset(c.vkeys) for c in L.cells]
    assert len(set(vertex_sets)) == len(vertex_sets)
    assert set(vertex_sets) == {frozenset(c.vkeys) for c in oracle.cells}
    assert L.vertex_ids == oracle.vertex_ids
    T, T_oracle = triangulate_limit(L), triangulate_limit(oracle)
    assert T.complex == T_oracle.complex
    assert T.supports == T_oracle.supports


@settings(max_examples=30, deadline=None)
@given(**pair_kinds)
def test_pullback_pairs_pieces_over_one_graph_cell_property(seed, nverts, kind):
    p1, p2 = _pullback_pair(seed, nverts, kind)
    for cell in pullback(p1, p2).cells:
        a, b = cell.pieces
        assert a.cell == b.cell, (a, b)


@settings(max_examples=30, deadline=None)
@given(**pair_kinds)
def test_cell_faces_and_triangulation_match_geometric_oracle_property(
    seed, nverts, kind
):
    # per kept cell: its vertices against polytope_vertices on the cell's
    # equations over its graph cell, its faces against exact dot products of
    # its inequalities there, and the simplices triangulate_limit cuts it
    # into, in order, against the geometric scan
    p1, p2 = _pullback_pair(seed, nverts, kind)
    L = pullback(p1, p2)
    calls = []

    def recorded(keys, faces):
        out = pulling_triangulation(keys, faces)
        calls.append(out)
        return out

    with mock.patch.object(category, "pulling_triangulation", recorded):
        triangulate_limit(L)
    assert len(calls) == len(L.cells)
    for cell, simplices in zip(L.cells, calls):
        a, b = cell.pieces
        ineqs = _cell_ineqs(p1, p2, a, b)
        verts = {
            _vertex_key(a, b, pt): pt
            for pt in _vertices_over_cell(p1, p2, a, b)
        }
        assert cell.vkeys == list(verts)
        assert cell.faces == tight_sets(verts, ineqs)
        assert simplices == geometric_pulling_triangulation(verts, ineqs)


def test_pullback_with_itself_spread_zero():
    cx, f, _ = random_instance(2, nverts=5)
    _, p = compute_reeb(cx, f)
    # both pulled-back functions agree on the fiber product of p with itself
    assert zigzag_cost(ZigzagDiagram([(p, p), (p, p)])) == F(0)


def test_pullback_requires_common_target():
    cx, f, g = cylinder(8)
    _, pf = compute_reeb(cx, f)
    _, pg = compute_reeb(cx, g)
    with pytest.raises(ValueError):
        pullback(pf, pg)


def test_zigzag_cost_of_cylinder_coupling():
    cx, f, g = cylinder(8)
    _, pf = compute_reeb(cx, f)
    _, pg = compute_reeb(cx, g)
    # for a one-space zigzag the limit is the space itself, so the spread is
    # the sup-norm of f - g, which is 1 on this cylinder
    assert zigzag_cost(ZigzagDiagram([(pf, pg)])) == F(1)


def test_zigzag_cost_of_value_preserving_chain():
    # two stages sharing a middle graph; every stage preserves values, so
    # the spread collapses
    cx, f, _ = random_instance(4, nverts=5)
    r, p = compute_reeb(cx, f)
    ident = graph_identity_map(r)
    assert zigzag_cost(ZigzagDiagram([(p, p), (ident, ident)])) == F(0)


def test_induced_map_identity_reparam():
    cx, f, _ = random_instance(5, nverts=5)
    r, p = compute_reeb(cx, f)
    m = induced_map(p, p)
    cert = verify_reeb_quotient(m)
    assert cert.ok, cert.summary()
    assert graph_isomorphic(minimalize(m.target), minimalize(r))


def test_induced_map_affine_reparam():
    cx, f, _ = random_instance(7, nverts=5)
    r, p = compute_reeb(cx, f)
    # g = 2 f + 1 has the same Reeb graph up to rescaling node values
    g = PLFunction(cx, {v: 2 * f(v) + 1 for v in cx.vertices})
    rg, pg = compute_reeb(cx, g)
    m = induced_map(p, pg)
    cert = verify_reeb_quotient(m)
    assert cert.ok, cert.summary()


def test_induced_map_collapse_to_point():
    cx, f, _ = random_instance(9, nverts=5)
    r, p = compute_reeb(cx, f)
    # a constant second function collapses everything to one point graph
    q = collapse_map(cx, F(0))
    m = induced_map(p, q)
    assert verify_reeb_quotient(m).ok
    assert len(m.target.nodes) == 1


def test_induced_map_rejects_mismatched_reparam():
    # every vertex sits on the one level of the collapse, but g = f + 1
    # sends them to different values
    cx, f, _ = random_instance(5, nverts=5)
    g = PLFunction(cx, {v: f(v) + 1 for v in cx.vertices})
    _, pg = compute_reeb(cx, g)
    with pytest.raises(ValueError, match="reparametrization mismatch at vertex"):
        induced_map(collapse_map(cx, F(0)), pg)


def test_induced_map_rejects_a_decreasing_reparam():
    cx, f, _ = random_instance(5, nverts=5)
    _, p = compute_reeb(cx, f)
    _, q = compute_reeb(cx, PLFunction(cx, {v: -f(v) for v in cx.vertices}))
    lo, hi = p.levels[:2]
    with pytest.raises(ValueError, match=f"decreases from level {lo} to {hi}"):
        induced_map(p, q)


def test_induced_map_rejects_a_level_without_a_source_vertex():
    # path(1) from 0 to 1 onto a graph with a node at 1/2: no vertex there
    cx, _ = path(1)
    r = ReebGraph({0: F(0), 1: F(1, 2), 2: F(1)}, [(0, 1), (1, 2)])
    host = {(0,): ("n", 0), (1,): ("n", 2), (0, 1): ("e", 0)}
    p = cellmap_from_hosting(cx, {0: F(0), 1: F(1)}, r, host)
    with pytest.raises(ValueError, match="level 1/2 of p_f holds no source vertex"):
        induced_map(p, p)


def test_induced_map_certifies_a_stage_that_is_not_affine_on_simplices():
    # one triangle at f_rho = (0, 1, 2) and f_lambda = (0, 0, 2): the middle
    # of edge (0, 2) lies on level 1 of f_rho but at 1 under f_lambda, while
    # vertex 1 on that level goes to 0; the induced map is still certified
    cx = SimplicialComplex.from_simplices([(0, 1, 2)])
    r, p_rho = compute_reeb(cx, PLFunction(cx, {0: F(0), 1: F(1), 2: F(2)}))
    _, p_lam = compute_reeb(cx, PLFunction(cx, {0: F(0), 1: F(0), 2: F(2)}))
    m = induced_map(p_rho, p_lam)
    assert verify_reeb_quotient(m).ok
    gc = complexify(r)
    at_level = {r.value(n): m.h[w] for n, w in gc.node_vertex.items()}
    assert at_level == {F(0): F(0), F(1): F(0), F(2): F(2)}


def test_induced_map_certifies_a_bend_between_levels():
    # g == xi o f on vertices for a xi that bends at the middle of the
    # first gap of f's levels and has slope 1 elsewhere; each level goes to
    # its g value and the induced map is certified
    for seed in range(6):
        cx, f, _ = random_instance(seed, nverts=5)
        r, p = compute_reeb(cx, f)
        l0, l1 = p.levels[:2]
        bend = (l0 + l1) / 2
        xi = {x: x if x == l0 else x + l1 - bend for x in p.levels}
        _, pg = compute_reeb(cx, PLFunction(cx, {v: xi[f(v)] for v in cx.vertices}))
        m = induced_map(p, pg)
        assert verify_reeb_quotient(m).ok
        gc = complexify(r)
        assert {r.value(n): m.h[w] for n, w in gc.node_vertex.items()} == xi


def _reparam_pairs(seed, nverts, kind):
    """(p_f, p_g) on one source with g a weakly increasing function of f on
    vertices: every stage map of a random homotopy, an affine or constant
    reparametrization of one function, or a bend one that is affine on no
    gap crossing the middle of f's lowest gap."""
    if kind == "homotopy":
        cx, f, g = random_instance(
            seed, nverts=nverts, value_range=(-4, 4), second_function=True
        )
        sched = homotopy_breakpoints(cx, f, g)
        quotients = [compute_reeb(cx, interpolate(f, g, t))[1] for t in sched.lambdas]
        pairs = []
        for i, rho in enumerate(sched.rhos):
            _, p = compute_reeb(cx, interpolate(f, g, rho))
            pairs += [(p, quotients[i]), (p, quotients[i + 1])]
        return pairs
    cx, f, _ = random_instance(seed, nverts=nverts)
    _, p = compute_reeb(cx, f)
    if kind == "affine":
        g = PLFunction(cx, {v: 2 * f(v) + 1 for v in cx.vertices})
        return [(p, compute_reeb(cx, g)[1])]
    if kind == "bend":
        # every level above the lowest shifts up by half the lowest gap
        l0, l1 = p.levels[:2]
        shift = {v: F(0) if f(v) == l0 else (l1 - l0) / 2 for v in cx.vertices}
        g = PLFunction(cx, {v: f(v) + shift[v] for v in cx.vertices})
        return [(p, compute_reeb(cx, g)[1])]
    return [(p, collapse_map(cx, F(0)))]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    nverts=st.integers(3, 6),
    kind=st.sampled_from(["homotopy", "affine", "constant", "bend"]),
)
def test_induced_map_commutes_with_quotients_property(seed, nverts, kind):
    # m o p_f == p_g on the shared source, read pointwise at the middle of
    # every slot of every maximal simplex from the three maps' assignments;
    # xi, the g value of f's level, is read off the vertices and taken
    # affine on each gap of f's levels
    for p_f, p_g in _reparam_pairs(seed, nverts, kind):
        m = induced_map(p_f, p_g)
        xi = {p_f.h[v]: p_g.h[v] for v in p_f.source.vertices}
        gc = complexify(p_f.target)
        for s in p_f.source.maximal_simplices:
            for slot in p_f.slots_of(s):
                lo, hi = p_f.slot_range(slot)
                u = (lo + hi) / 2
                assert image_point(m, gc, point_image(p_f, s, u)) == point_image(
                    p_g, s, (xi[lo] + xi[hi]) / 2
                ), (s, u)


def test_induced_map_rejects_an_edge_over_several_gaps():
    # a certified quotient of path(2) whose one edge spans the two gaps of
    # the levels -1, 0, 1: no source simplex covers the closed edge
    cx, f = path(2)
    r = ReebGraph({0: F(-1), 1: F(1)}, [(0, 1)])
    host = {(0,): ("n", 0), (2,): ("n", 1)}
    for s in cx.simplices:
        host.setdefault(s, ("e", 0))
    p = cellmap_from_hosting(cx, dict(f.values), r, host)
    assert verify_reeb_quotient(p).ok
    with pytest.raises(ValueError, match="spans more than one gap"):
        induced_map(p, p)


def test_induced_map_rejects_a_cell_without_a_source_simplex():
    # path(1) hosted on edge 0 alone: nothing maps onto edge 1 or node 2
    cx, _ = path(1)
    r = ReebGraph({0: F(0), 1: F(1), 2: F(1)}, [(0, 1), (0, 2)])
    host = {s: ("e", 0) for s in cx.simplices}
    p = cellmap_from_hosting(cx, {0: F(0), 1: F(1)}, r, host)
    assert not verify_reeb_quotient(p).ok
    with pytest.raises(ValueError, match="no source simplex maps onto"):
        induced_map(p, p)
