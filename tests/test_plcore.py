from fractions import Fraction

import pytest

from reebedit.plcore import (
    PLFunction,
    SimplicialComplex,
    UnionFind,
    format_scalar,
    parse_scalar,
    support_components,
)

from oracles import barycentric_subdivision, interval_preimage_components, range_of


def test_parse_scalar_forms():
    assert parse_scalar("3/4") == Fraction(3, 4)
    assert parse_scalar("-2") == Fraction(-2)
    assert parse_scalar(5) == Fraction(5)
    assert parse_scalar(Fraction(1, 3)) == Fraction(1, 3)
    with pytest.raises(TypeError):
        parse_scalar(0.5)  # floats are rejected: exactness is the contract


def test_format_scalar_round_trip():
    for q in [Fraction(0), Fraction(-7, 3), Fraction(4)]:
        assert parse_scalar(format_scalar(q)) == q


def test_union_find_groups():
    uf = UnionFind(range(5))
    uf.union(0, 1)
    uf.union(3, 4)
    groups = uf.groups()
    assert sorted(sorted(g) for g in groups.values()) == [[0, 1], [2], [3, 4]]
    assert uf.find(0) == uf.find(1)
    assert uf.find(0) != uf.find(2)


def test_complex_closure_and_faces():
    cx = SimplicialComplex.from_simplices([(0, 1, 2), (2, 3)])
    assert (0, 1) in cx
    assert (1, 2) in cx
    assert (3,) in cx
    assert cx.maximal_simplices == ((0, 1, 2), (2, 3))
    assert cx.dimension == 2
    assert sorted(cx.facets[(0, 1, 2)]) == [(0, 1), (0, 2), (1, 2)]


def test_complex_connectivity():
    cx = SimplicialComplex.from_simplices([(0, 1), (2, 3)])
    assert not cx.is_connected()
    assert len(cx.components()) == 2
    assert SimplicialComplex.from_simplices([(0, 1), (1, 2)]).is_connected()


def test_plfunction_ranges():
    cx = SimplicialComplex.from_simplices([(0, 1, 2)])
    f = PLFunction(cx, {0: Fraction(0), 1: Fraction(2), 2: Fraction(-1)})
    assert range_of(f.values, (0, 1, 2)) == (Fraction(-1), Fraction(2))
    assert range_of(f.values, (0, 1)) == (Fraction(0), Fraction(2))


def _path(values):
    n = len(values)
    cx = SimplicialComplex.from_simplices([(i, i + 1) for i in range(n - 1)])
    return cx, PLFunction(cx, {i: Fraction(v) for i, v in enumerate(values)})


def test_level_components_counts():
    # W-shaped path: levels through the middle have several components
    cx, f = _path([0, 2, 1, 2, 0])

    def count(t):
        level = [s for s in cx.simplices if range_of(f.values, s)[0] <= t <= range_of(f.values, s)[1]]
        return len(support_components(cx, level))

    assert count(Fraction(1, 2)) == 2
    assert count(Fraction(2)) == 2
    # level 1 = one point on each outer slope plus the middle local minimum
    assert count(Fraction(1)) == 3
    assert count(Fraction(3)) == 0


def test_interval_preimage_components():
    cx, f = _path([0, 2, 1, 2, 0])
    assert len(interval_preimage_components(cx, f, Fraction(0), Fraction(1, 2))) == 2
    assert len(interval_preimage_components(cx, f, Fraction(0), Fraction(2))) == 1
    assert len(interval_preimage_components(cx, f, Fraction(3), Fraction(4))) == 0
    with pytest.raises(ValueError):
        interval_preimage_components(cx, f, Fraction(1), Fraction(0))


def test_barycentric_subdivision_structure():
    cx = SimplicialComplex.from_simplices([(0, 1, 2)])
    f = PLFunction(cx, {0: Fraction(0), 1: Fraction(1), 2: Fraction(2)})
    sd, f2, bary = barycentric_subdivision(cx, f)
    # a triangle subdivides into 6 triangles on 7 vertices
    assert len([s for s in sd.simplices if len(s) == 3]) == 6
    assert len(sd.vertices) == 7
    # new vertex values are the simplex barycenter averages of f
    for s, v in bary.items():
        expect = sum(f(w) for w in s) / len(s)
        assert f2(v) == expect
    assert range_of(f2.values, sd.vertices) == range_of(f.values, cx.vertices)
