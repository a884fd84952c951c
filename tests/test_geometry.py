from fractions import Fraction

import pytest

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
