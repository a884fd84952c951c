from fractions import Fraction

from reebedit.geometry import dot, polytope_vertices, rref, simplex_slice, solve_affine

F = Fraction


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
