import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reebedit import maps
from reebedit.generators import random_instance
from reebedit.geometry import pulling_triangulation, simplex_slice

from oracles import dot, polytope_vertices, rref, solve_affine

F = Fraction


def _affine_dim(points):
    rows = [[x - y for x, y in zip(p, points[0])] for p in points[1:]]
    return len(rref(rows)[1]) if rows else 0


def geometric_pulling_triangulation(verts, ineqs):
    """The pulling triangulation of {key: coords} with H-description ineqs,
    by geometry: a facet is a tight set of an inequality, found by exact
    dot products, whose points span one dimension less than the polytope."""
    keys = sorted(verts)
    d = _affine_dim([verts[k] for k in keys])
    if len(keys) == d + 1:
        return [tuple(keys)]
    v0 = keys[0]
    out = []
    seen = set()
    for a, b in ineqs:
        tight = [k for k in keys if dot(a, verts[k]) == b]
        if v0 in tight or not tight or frozenset(tight) in seen:
            continue
        if _affine_dim([verts[k] for k in tight]) != d - 1:
            continue
        seen.add(frozenset(tight))
        sub = {k: verts[k] for k in tight}
        for simplex in geometric_pulling_triangulation(sub, ineqs):
            out.append(tuple(sorted(simplex + (v0,))))
    assert out, "no facet"
    return out


def tight_sets(verts, ineqs):
    """Per inequality, the keys of the points where it is tight."""
    return [frozenset(k for k, x in verts.items() if dot(a, x) == b) for a, b in ineqs]


def test_dot():
    assert dot([F(1), F(2)], [F(3), F(4)]) == F(11)


def test_rref_identifies_pivots():
    rows = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    reduced, pivots = rref(rows)
    assert pivots == [0, 1]
    for r, c in enumerate(pivots):
        assert reduced[r][c] == F(1)


def test_solve_affine_unique():
    # x + y = 3, x - y = 1  ->  x = 2, y = 1, no free directions
    sol = solve_affine(
        [((F(1), F(1)), F(3)), ((F(1), F(-1)), F(1))],
        2,
    )
    assert sol is not None
    x0, basis = sol
    assert x0 == (F(2), F(1))
    assert basis == []


def test_solve_affine_underdetermined():
    # x + y = 1 on two variables: one free direction
    sol = solve_affine([((F(1), F(1)), F(1))], 2)
    assert sol is not None
    x0, basis = sol
    assert x0[0] + x0[1] == F(1)
    assert len(basis) == 1
    (v,) = basis
    assert v[0] + v[1] == F(0)


def test_solve_affine_inconsistent():
    sol = solve_affine([((F(1), F(0)), F(0)), ((F(1), F(0)), F(1))], 2)
    assert sol is None


def test_polytope_vertices_square():
    ineqs = [
        ((F(1), F(0)), F(1)),
        ((F(-1), F(0)), F(0)),
        ((F(0), F(1)), F(1)),
        ((F(0), F(-1)), F(0)),
    ]
    verts = polytope_vertices(2, [], ineqs)
    got = sorted(tuple(v) for v in verts)
    want = sorted([(F(0), F(0)), (F(0), F(1)), (F(1), F(0)), (F(1), F(1))])
    assert got == want


def test_polytope_vertices_on_affine_slice():
    # segment {x + y = 1, 0 <= x <= 1, 0 <= y <= 1} has two endpoints
    eqs = [((F(1), F(1)), F(1))]
    ineqs = [
        ((F(1), F(0)), F(1)),
        ((F(-1), F(0)), F(0)),
        ((F(0), F(1)), F(1)),
        ((F(0), F(-1)), F(0)),
    ]
    verts = polytope_vertices(2, eqs, ineqs)
    got = sorted(tuple(v) for v in verts)
    assert got == [(F(0), F(1)), (F(1), F(0))]


def test_polytope_vertices_empty():
    ineqs = [((F(1),), F(0)), ((F(-1),), F(-1))]
    assert polytope_vertices(1, [], ineqs) == []


def test_simplex_slice_vertices():
    hs = [F(0), F(2), F(2), F(4)]
    # two simplex vertices at value 2, then the crossing of edge (0, 3)
    assert simplex_slice(hs, F(2)) == [
        (F(0), F(1), F(0), F(0)),
        (F(0), F(0), F(1), F(0)),
        (F(1, 2), F(0), F(0), F(1, 2)),
    ]
    # value 3/2 cuts the four edges from vertices {0, 1} to vertices {2, 3}
    assert len(simplex_slice([F(0), F(1), F(2), F(3)], F(3, 2))) == 4
    assert simplex_slice(hs, F(5)) == []


def test_pulling_triangulation_of_a_square_and_a_prism():
    # the unit square, keys (x, y): x >= 0, y >= 0, x <= 1, y <= 1
    square = {(x, y): (F(x), F(y)) for x in (0, 1) for y in (0, 1)}
    ineqs = [
        ((F(-1), F(0)), F(0)),
        ((F(0), F(-1)), F(0)),
        ((F(1), F(0)), F(1)),
        ((F(0), F(1)), F(1)),
    ]
    faces = tight_sets(square, ineqs)
    want = [((0, 0), (1, 0), (1, 1)), ((0, 0), (0, 1), (1, 1))]
    assert pulling_triangulation(square, faces) == want
    assert geometric_pulling_triangulation(square, ineqs) == want
    # a triangular prism: x, y, 1 - x - y >= 0 and 0 <= z <= 1
    prism = {
        (v, z): (F(int(v == 1)), F(int(v == 2)), F(z))
        for v in range(3)
        for z in (0, 1)
    }
    ineqs = [
        ((F(-1), F(0), F(0)), F(0)),
        ((F(0), F(-1), F(0)), F(0)),
        ((F(1), F(1), F(0)), F(1)),
        ((F(0), F(0), F(-1)), F(0)),
        ((F(0), F(0), F(1)), F(1)),
    ]
    got = pulling_triangulation(prism, tight_sets(prism, ineqs))
    assert got == geometric_pulling_triangulation(prism, ineqs)
    assert len(got) == 3


def test_pulling_triangulation_without_facets_raises():
    with pytest.raises(ValueError, match="found no facet"):
        pulling_triangulation([0, 1, 2], [frozenset({0, 1, 2})])


def _slabs(cx, h, cuts):
    """(simplex, a, b) per slab subdivide_at_levels cuts, in its order."""
    out = []
    for s in cx.maximal_simplices():
        lo, hi = min(h[v] for v in s), max(h[v] for v in s)
        inner = sorted(c for c in cuts if lo < c < hi)
        if inner:
            bounds = [lo] + inner + [hi]
            out += [(s, a, b) for a, b in zip(bounds, bounds[1:])]
    return out


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), nverts=st.integers(4, 7))
def test_slab_faces_and_triangulation_match_geometric_oracle_property(seed, nverts):
    # every slab subdivide_at_levels cuts a simplex into, at random cut
    # sets: its vertices against polytope_vertices on the slab's own
    # inequalities, the tight sets it hands pulling_triangulation against
    # exact dot products there, and its simplices, in order, against the
    # geometric scan
    cx, f, _ = random_instance(seed, nverts=nverts, triangles=3)
    rng = random.Random(seed)
    cuts = {F(rng.randint(-20, 20), rng.randint(1, 4)) for _ in range(rng.randint(1, 4))}
    h = dict(f.values)
    calls = []

    def recorded(keys, faces):
        out = pulling_triangulation(keys, faces)
        calls.append((sorted(keys), faces, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(maps, "pulling_triangulation", recorded)
        _, new_h, _, host = maps.subdivide_at_levels(cx, h, cuts)
    slabs = _slabs(cx, h, cuts)
    assert len(calls) == len(slabs)
    for (s, a, b), (keys, faces, out) in zip(slabs, calls):
        d = len(s)
        hs = [h[v] for v in s]
        ineqs = [(tuple(F(-int(i == j)) for i in range(d)), F(0)) for j in range(d)]
        ineqs += [(tuple(-x for x in hs), -a), (tuple(hs), b)]
        pts = polytope_vertices(d, [(tuple(F(1) for _ in s), F(1))], ineqs)
        # barycentric coordinates on s of each key: a vertex of s, or a cut
        # vertex at value new_h[k] on the edge host[(k,)] of s
        verts = {}
        for k in keys:
            edge = host[(k,)]
            x = [F(0)] * d
            if len(edge) == 1:
                x[s.index(k)] = F(1)
            else:
                u, w = edge
                lam = (new_h[k] - h[u]) / (h[w] - h[u])
                x[s.index(u)], x[s.index(w)] = 1 - lam, lam
            verts[k] = tuple(x)
        assert sorted(verts.values()) == pts
        assert faces == tight_sets(verts, ineqs)
        assert out == geometric_pulling_triangulation(verts, ineqs)
