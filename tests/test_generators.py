from fractions import Fraction

import pytest

from reebedit.generators import circle, cylinder, path, point, random_instance
from reebedit.plcore import SimplicialComplex

F = Fraction


def test_cylinder_structure():
    cx, f, g = cylinder(8)
    assert cx.is_connected()
    assert SimplicialComplex.from_simplices(cx.simplices) == cx
    # 2n rim vertices on two circles
    assert len(cx.vertices) == 32
    # Euler characteristic of a cylinder is 0
    counts = {}
    for s in cx.simplices:
        counts[len(s)] = counts.get(len(s), 0) + 1
    assert counts[1] - counts[2] + counts[3] == 0
    assert min(f.values.values()) == F(-1) and max(f.values.values()) == F(1)
    assert min(g.values.values()) == F(-1) and max(g.values.values()) == F(1)
    # g separates the two boundary circles: f-range matches on both sections
    for v in cx.vertices:
        assert F(-1) <= f(v) <= F(1)


def test_cylinder_function_relation():
    # g = (f - 1) / 2 on the lower section and (f - 1) / 2 + 1 on the upper
    cx, f, g = cylinder(8)
    for v in cx.vertices:
        assert g(v) in ((f(v) - 1) / 2, (f(v) - 1) / 2 + 1)
    assert max(abs(f(v) - g(v)) for v in cx.vertices) == F(1)


def test_cylinder_rejects_small_n():
    with pytest.raises(ValueError):
        cylinder(1)


def test_circle_path_point():
    cx, f = circle(6)
    assert cx.is_connected()
    assert len(cx.vertices) == 12  # 2n vertices around the loop
    assert min(f.values.values()) == F(-1) and max(f.values.values()) == F(1)

    cx, f = path(4)
    assert cx.is_connected()
    assert cx.dimension == 1

    cx, f = point(F(7))
    assert len(cx.vertices) == 1
    assert min(f.values.values()) == F(7)


def test_random_instance_deterministic_and_connected():
    a = random_instance(12, nverts=7)
    b = random_instance(12, nverts=7)
    assert a[0].simplices == b[0].simplices
    assert a[1].values == b[1].values
    for seed in range(20):
        cx, f, g = random_instance(seed, nverts=6, second_function=True)
        assert cx.is_connected()
        assert set(f.values) == set(cx.vertices)
        assert g is not None and set(g.values) == set(cx.vertices)


def test_random_instance_distinct_seeds_differ():
    a = random_instance(0, nverts=8)
    b = random_instance(1, nverts=8)
    assert a[0].simplices != b[0].simplices or a[1].values != b[1].values
