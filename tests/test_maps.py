import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reebedit.category import compose, limit_projection, pullback, triangulate_limit
from reebedit.editdist import build_homotopy_zigzag, compose_couplings, coupling
from reebedit.generators import cylinder, random_instance
from reebedit.graphs import ReebGraph, complexify, graph_isomorphic, minimalize
from reebedit.maps import (
    CellMap,
    cellmap_from_hosting,
    restrict_cellmap,
    slot_in,
    verify_reeb_quotient,
)
from reebedit.plcore import PLFunction, SimplicialComplex
from reebedit.reeb import compute_reeb, graph_identity_map, reeb_of_graph

from oracles import cell_at, point_image, range_of

F = Fraction


def test_snap_turns_edge_into_end_node_at_its_level():
    g = ReebGraph({0: F(0), 1: F(2)}, [(0, 1)])
    cx = SimplicialComplex.from_simplices([(0, 1), (1, 2)])
    m = CellMap(cx, {0: F(0), 1: F(1), 2: F(2)}, g, {})
    assert m.snap(("e", 0), slot_in(m.levels, F(0))) == ("n", 0)
    assert m.snap(("e", 0), slot_in(m.levels, F(2))) == ("n", 1)
    assert m.snap(("e", 0), slot_in(m.levels, F(1))) == ("e", 0)
    assert m.snap(("n", 0), slot_in(m.levels, F(0))) == ("n", 0)


def test_slots_and_cells_of_quotient():
    for cx, f, _ in (random_instance(3, nverts=6), cylinder(6)):
        r, p = compute_reeb(cx, f)
        for s in cx.simplices:
            lo, hi = range_of(p.h, s)
            slots = list(p.slots_of(s))
            assert slots, f"simplex {s} has no slots"
            # the slots are one contiguous run
            assert slots == list(range(slots[0], slots[-1] + 1))
            # every level and gap within the simplex range is covered
            ranges = [p.slot_range(slot) for slot in slots]
            assert ranges[0][0] == lo and ranges[-1][1] == hi
            assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
            for slot, (a, b) in zip(slots, ranges):
                assert lo <= a <= b <= hi
                assert slot_in(p.levels, (a + b) / 2) == slot
            # cell_at reads the slot assignment at any value of the range
            t = (lo + hi) / 2
            cell = cell_at(p, s, t)
            assert cell[0] in ("n", "e")


def test_vertex_image_values_match():
    cx, f, _ = random_instance(4, nverts=6)
    r, p = compute_reeb(cx, f)
    for v in cx.vertices:
        gp = point_image(p, (v,), p.h[v])
        assert gp.value(r) == f(v) == p.h[v]


@pytest.mark.parametrize("seed", range(10))
def test_compute_reeb_output_is_certified(seed):
    cx, f, _ = random_instance(seed, nverts=7)
    _, p = compute_reeb(cx, f)
    cert = verify_reeb_quotient(p)
    assert cert.ok, cert.summary()
    assert cert.checked  # names of the axioms actually verified
    assert not cert.violations


def test_verifier_rejects_disconnected_fiber():
    # two disjoint arcs over the same edge: surjective but fibers split
    cx = SimplicialComplex.from_simplices([(0, 1), (2, 3), (1, 2)])
    h = {0: F(0), 1: F(1), 2: F(0), 3: F(1)}
    target = ReebGraph({0: F(0), 1: F(1)}, [(0, 1)])
    host = {s: ("e", 0) for s in cx.simplices}
    host[(0,)] = ("n", 0)
    host[(2,)] = ("n", 0)
    host[(1,)] = ("n", 1)
    host[(3,)] = ("n", 1)
    # edge (1,2) folds: h goes 1 -> 0 -> 1?  No: h(1)=1, h(2)=0, monotone.
    m = cellmap_from_hosting(cx, h, target, host)
    cert = verify_reeb_quotient(m)
    # preimage of any interior level is two points: not connected
    assert not cert.ok
    assert cert.violations


def test_verifier_rejects_non_surjective():
    cx = SimplicialComplex.from_simplices([(0, 1)])
    h = {0: F(0), 1: F(1)}
    target = ReebGraph({0: F(0), 1: F(1), 2: F(0), 3: F(1)}, [(0, 1), (2, 3)])
    host = {(0,): ("n", 0), (1,): ("n", 1), (0, 1): ("e", 0)}
    m = cellmap_from_hosting(cx, h, target, host)
    cert = verify_reeb_quotient(m)
    assert not cert.ok


def _hosted(edges, h, target, host):
    cx = SimplicialComplex.from_simplices(edges)
    full = {s: ("e", 0) for s in cx.simplices}
    full.update(host)
    return cellmap_from_hosting(cx, {v: F(x) for v, x in h.items()}, target, full)


@pytest.mark.parametrize(
    "edges, h, target, host, want",
    [
        (  # a node, edge gaps and an interior edge level that nothing hits
            [(0, 1)],
            {0: 0, 1: 2},
            ReebGraph({0: F(0), 1: F(2), 2: F(1), 3: F(0)}, [(0, 1), (3, 1), (2, 1)]),
            {(0,): ("n", 0), (1,): ("n", 1)},
            [
                ("surjective", "node 2 (value 1) not hit"),
                ("surjective", "node 3 (value 0) not hit"),
                ("surjective", "edge 1 not hit over (0,1)"),
                ("surjective", "edge 1 not hit over (1,2)"),
                ("surjective", "edge 1 not hit at level 1"),
                ("surjective", "edge 2 not hit over (1,2)"),
            ],
        ),
        (  # a V folded onto a double edge: two points over the bottom node
            [(0, 1), (1, 2)],
            {0: 0, 1: 1, 2: 0},
            ReebGraph({0: F(0), 1: F(1)}, [(0, 1), (0, 1)]),
            {(0,): ("n", 0), (2,): ("n", 0), (1,): ("n", 1), (1, 2): ("e", 1)},
            [("fiber", "fiber over node 0 disconnected")],
        ),
        (  # a zigzag path folded onto one edge: split node and gap fibers
            [(0, 1), (1, 2), (2, 3)],
            {0: 0, 1: 1, 2: 0, 3: 1},
            ReebGraph({0: F(0), 1: F(1)}, [(0, 1)]),
            {(0,): ("n", 0), (2,): ("n", 0), (1,): ("n", 1), (3,): ("n", 1)},
            [
                ("fiber", "fiber over node 0 disconnected"),
                ("fiber", "fiber over node 1 disconnected"),
                ("fiber", "fiber over edge 0, gap (0,1) disconnected"),
            ],
        ),
        (  # three arcs folded onto one edge: split gap and interior level fibers
            [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)],
            {0: 0, 1: 1, 2: 1, 3: 2},
            ReebGraph({0: F(0), 1: F(2)}, [(0, 1)]),
            {(0,): ("n", 0), (3,): ("n", 1)},
            [
                ("fiber", "fiber over edge 0, gap (0,1) disconnected"),
                ("fiber", "fiber over edge 0, gap (1,2) disconnected"),
                ("fiber", "fiber over edge 0 at level 1 disconnected"),
            ],
        ),
        (  # two disjoint edges onto one edge: the source's two components
            # show as split fibers, so its connectivity needs no check
            [(0, 1), (2, 3)],
            {0: 0, 1: 1, 2: 0, 3: 1},
            ReebGraph({0: F(0), 1: F(1)}, [(0, 1)]),
            {(0,): ("n", 0), (2,): ("n", 0), (1,): ("n", 1), (3,): ("n", 1)},
            [
                ("fiber", "fiber over node 0 disconnected"),
                ("fiber", "fiber over node 1 disconnected"),
                ("fiber", "fiber over edge 0, gap (0,1) disconnected"),
            ],
        ),
    ],
)
def test_verifier_witnesses_are_exact(edges, h, target, host, want):
    cert = verify_reeb_quotient(_hosted(edges, h, target, host))
    assert not cert.ok
    assert [(v.axiom, v.witness) for v in cert.violations] == want
    assert cert.summary() == "FAILED:\n" + "\n".join(f"[{a}] {w}" for a, w in want)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), nverts=st.integers(3, 5))
def test_every_certified_map_has_a_connected_source_property(seed, nverts):
    # the certifier no longer checks the source's connectivity: its fiber
    # checks imply it, on sweep maps, homotopy induced maps and the
    # projections of a composed coupling alike
    cx, f, g = random_instance(
        seed, nverts=nverts, value_range=(-4, 4), second_function=True
    )
    p_f, p_g = (compute_reeb(cx, fn)[1] for fn in (f, g))
    z, _ = build_homotopy_zigzag(cx, f, g)
    composed = compose_couplings(coupling(p_f, p_g), coupling(p_g, p_f))
    for m in [p_f, p_g, *(m for pair in z.maps + composed.maps for m in pair)]:
        assert verify_reeb_quotient(m).ok
        assert m.source.is_connected()


def _one_edge_map(edits):
    # the edge (0, 1) over [0, 2], mapped onto the edge 0 of a graph with
    # nodes at 0, 1, 2 and 0, then with edits[s][slot] = cell (None: drop)
    target = ReebGraph(
        {0: F(0), 1: F(1), 2: F(2), 3: F(0)}, [(0, 2), (0, 1), (1, 2), (3, 2)]
    )
    assignment = {
        (0,): {0: ("n", 0)},
        (1,): {4: ("n", 2)},
        (0, 1): {
            0: ("n", 0),
            1: ("e", 0),
            2: ("e", 0),
            3: ("e", 0),
            4: ("n", 2),
        },
    }
    for (s, slot), cell in edits.items():
        if cell is None:
            del assignment[s][slot]
        else:
            assignment[s][slot] = cell
    cx = SimplicialComplex.from_simplices([(0, 1)])
    return CellMap(cx, {0: F(0), 1: F(2)}, target, assignment)


@pytest.mark.parametrize(
    "edits, want",
    [
        (
            {((0,), 0): ("n", 1)},
            [
                ("level-cell", "(0,)@0: node 1 off-level"),
                ("face", "face (0,) of (0, 1) disagrees at level 0: "
                         "('n', 1) vs ('n', 0)"),
            ],
        ),
        (
            {((0,), 0): ("n", 3)},
            [("face", "face (0,) of (0, 1) disagrees at level 0: "
                      "('n', 3) vs ('n', 0)")],
        ),
        (
            {((0, 1), 2): ("e", 1)},
            [
                ("level-cell", "(0, 1)@1: edge 1 does not cross (unnormalized?)"),
                ("incidence", "(0, 1): gap 0 cell ('e', 0) vs level 1 cell ('e', 1)"),
                ("incidence", "(0, 1): gap 1 cell ('e', 0) vs level 1 cell ('e', 1)"),
            ],
        ),
        (
            {((0, 1), 1): ("n", 1)},
            [("gap-cell", "(0, 1) gap 0: node ('n', 1)")],
        ),
        (
            {((0, 1), 3): ("e", 1)},
            [
                ("gap-cell", "(0, 1) gap 1: edge 1 too short"),
                ("incidence", "(0, 1): gap 1 cell ('e', 1) vs level 1 cell ('e', 0)"),
                ("incidence", "(0, 1): gap 1 cell ('e', 1) vs level 2 cell ('n', 2)"),
            ],
        ),
        (
            {((0, 1), 3): None},
            [("slots", "simplex (0, 1): have [level 0, gap 0, level 1, "
                       "level 2], need [level 0, gap 0, level 1, gap 1, "
                       "level 2]")],
        ),
    ],
)
def test_verifier_wellformedness_witnesses_are_exact(edits, want):
    cert = verify_reeb_quotient(_one_edge_map(edits))
    assert not cert.ok
    assert [(v.axiom, v.witness) for v in cert.violations] == want


def _identity_pullback(q):
    """The triangulated pullback of q against the identity of its target:
    the subdivision of q's source that compose projects."""
    return triangulate_limit(pullback(q, graph_identity_map(q.target)))


def _at_factor_0(T, values):
    """values, on q's source, at each pullback vertex's factor-0 location."""
    return {
        vid: sum((c * values[v] for v, c in locs[0].items()), F(0))
        for vid, locs in T.limit.locations.items()
    }


@pytest.mark.parametrize("seed", range(6))
def test_subdivide_at_levels_tiles_each_triangle(seed):
    # compose subdivides q's source at the levels of its target's
    # complexification: the pieces over a triangle, drawn in the plane
    # through two coordinate functions interpolated at their factor-0
    # locations, have the triangle's total area
    cx, f, _ = random_instance(seed, nverts=6, triangles=4)
    r, q = compute_reeb(cx, f)
    rng = random.Random(seed)
    xy = [{v: F(rng.randint(-9, 9)) for v in cx.vertices} for _ in range(2)]

    def area(s, x, y):
        (a, b, c) = s
        return abs((x[b] - x[a]) * (y[c] - y[a]) - (x[c] - x[a]) * (y[b] - y[a])) / 2

    T = _identity_pullback(q)
    assert compose(reeb_of_graph(r)[1], q).source == T.complex
    x, y = (_at_factor_0(T, d) for d in xy)
    for t in (s for s in cx.simplices if len(s) == 3):
        pieces = [s for s in T.complex.simplices if len(s) == 3 and T.supports[s][0] == t]
        assert sum(area(s, x, y) for s in pieces) == area(t, *xy)


@pytest.mark.parametrize("seed", range(10))
def test_compose_with_graph_quotient_is_certified(seed):
    cx, f, _ = random_instance(seed, nverts=6)
    r, q = compute_reeb(cx, f)
    _, p = reeb_of_graph(r)  # r (as a space) -> its minimal Reeb graph
    comp = compose(p, q)
    cert = verify_reeb_quotient(comp)
    assert cert.ok, cert.summary()
    # values are preserved through the composite
    T = _identity_pullback(q)
    assert comp.source == T.complex
    assert comp.h == _at_factor_0(T, q.h)


def test_compose_with_identity_is_unchanged_on_values():
    cx, f, _ = random_instance(11, nverts=5)
    r, q = compute_reeb(cx, f)
    ident = graph_identity_map(r)
    comp = compose(ident, q)
    assert verify_reeb_quotient(comp).ok
    assert comp.h == _at_factor_0(_identity_pullback(q), q.h)
    assert graph_isomorphic(
        minimalize(comp.target), minimalize(r)
    )


def test_compose_rejects_a_map_out_of_another_graph():
    cx, f, _ = random_instance(11, nverts=5)
    _, q = compute_reeb(cx, f)
    with pytest.raises(ValueError, match="codomain of q is not the domain of p"):
        compose(q, q)


# -- restriction to a subdivision -------------------------------------------


def _assert_restriction_agrees(m, out, host):
    """The restricted map sends every level and gap midpoint of a piece
    where the parent map sends it on the piece's host."""
    for piece in out.source.simplices:
        for slot in out.slots_of(piece):
            a, b = out.slot_range(slot)
            t = (a + b) / 2
            assert point_image(out, piece, t) == point_image(m, host[piece], t), (
                piece,
                slot,
            )


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    nverts=st.integers(4, 5),
    triangles=st.integers(1, 2),
)
def test_limit_projection_restriction_agrees_pointwise_property(
    seed, nverts, triangles
):
    # the projections of compose_couplings: the limit of pullback(pg, pg),
    # restricted through maps other than the pullback's own
    cx, f, g = random_instance(
        seed, nverts=nverts, triangles=triangles, second_function=True
    )
    rng = random.Random(seed)
    h = PLFunction(cx, {v: F(rng.randint(-8, 8), rng.randint(1, 3)) for v in cx.vertices})
    _, pf = compute_reeb(cx, f)
    _, pg = compute_reeb(cx, g)
    _, ph = compute_reeb(cx, h)
    c1, c2 = coupling(pf, pg), coupling(pg, ph)
    T = triangulate_limit(pullback(c1.maps[0][1], c2.maps[0][0]))
    for factor, m in ((0, c1.maps[0][0]), (1, c2.maps[0][1])):
        out = limit_projection(T, factor, m)
        host = {s: T.supports[s][factor] for s in T.complex.simplices}
        _assert_restriction_agrees(m, out, host)
        assert verify_reeb_quotient(out).ok


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), nverts=st.integers(5, 7))
def test_fold_restriction_agrees_pointwise_property(seed, nverts):
    # compose with a second function on q's Reeb graph that folds: the
    # composite is p restricted to the identity pullback's subdivision
    cx, f, _ = random_instance(seed, nverts=nverts)
    r, q = compute_reeb(cx, f)
    gc = complexify(r)
    rng = random.Random(seed)
    values = {w: F(rng.randint(-6, 6), rng.randint(1, 2)) for w in gc.complex.vertices}
    _, p = compute_reeb(gc.complex, PLFunction(gc.complex, values))
    comp = compose(p, q)
    assert verify_reeb_quotient(comp).ok
    T = _identity_pullback(q)
    host = {s: T.supports[s][1] for s in T.complex.simplices}
    _assert_restriction_agrees(p, comp, host)


def _edge_map(cells, extra=()):
    """A hand-built map of the edge (0, 1), h = 0 -> 2, onto two edges
    between node 0 (value 0) and node 1 (value 2), with the given cells on
    the edge's slots; the extra simplices sit at value 1 and add a level."""
    cx = SimplicialComplex.from_simplices([(0, 1), *extra])
    h = {v: F(1) for v in cx.vertices}
    h.update({0: F(0), 1: F(2)})
    m = CellMap(cx, h, ReebGraph({0: F(0), 1: F(2)}, [(0, 1), (0, 1)]), {})
    m.assignment = {
        (0,): {0: ("n", 0)},
        (1,): {slot_in(m.levels, F(2)): ("n", 1)},
        (0, 1): dict(enumerate(cells)),
    }
    return m


def test_restrict_cellmap_rejects_host_missing_the_piece():
    m = _edge_map([("n", 0), ("e", 0), ("n", 1)])
    sliced = SimplicialComplex.from_simplices([(0, 5), (5, 1)])
    nh = {0: F(0), 5: F(1), 1: F(2)}
    host = {s: (0, 1) for s in sliced.simplices}
    host[(0,)], host[(1,)] = (0,), (1,)
    assert restrict_cellmap(m, sliced, nh, host).assignment[(5,)] == {2: ("e", 0)}
    host[(0, 5)] = (0,)  # the vertex 0 has the value 0 only
    with pytest.raises(ValueError, match="does not meet"):
        restrict_cellmap(m, sliced, nh, host)


def test_restrict_cellmap_rejects_gap_on_a_node():
    m = _edge_map([("n", 0), ("n", 0), ("n", 1)])
    host = {s: s for s in m.source.simplices}
    with pytest.raises(ValueError, match="maps the gap"):
        restrict_cellmap(m, m.source, m.h, host)


def test_restrict_cellmap_rejects_two_cells_over_one_gap():
    # a level of m at value 1 that the piece's levels skip, with different
    # edges on its two sides
    m = _edge_map(
        [("n", 0), ("e", 0), ("e", 0), ("e", 1), ("n", 1)], extra=[(1, 2)]
    )
    sliced = SimplicialComplex.from_simplices([(0, 1)])
    host = {s: s for s in sliced.simplices}
    with pytest.raises(ValueError, match="several cells"):
        restrict_cellmap(m, sliced, {0: F(0), 1: F(2)}, host)
