"""Vertices and triangulations of the small polytopes in the library.

Everything here works over fractions.Fraction.  Polytopes show up as
pullback cells (products of two simplex slabs glued by a value equation)
and as the slabs of a simplex sliced at levels.  Their vertices have a
closed form built from `simplex_slice`, the vertices of one level slice of
a simplex, and the construction also says which inequalities are tight at
each vertex, so `pulling_triangulation` works on those vertex-facet
incidences alone.  The general H-polytope vertex enumeration and its
linear algebra stay only as the tests' oracle, in tests/oracles.py.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def simplex_slice(hs: Sequence[Fraction], t: Fraction) -> list[Vector]:
    """Vertices of the slice {x in simplex : sum_j x_j hs[j] = t}.

    hs are the values of a linear function at the simplex's vertices and x
    are barycentric coordinates.  The vertices are the simplex vertices with
    value t and one point on each edge whose endpoints lie strictly on
    opposite sides of t.
    """
    d = len(hs)
    out: list[Vector] = [
        tuple(ONE if i == j else ZERO for i in range(d))
        for j, hj in enumerate(hs)
        if hj == t
    ]
    for i, j in combinations(range(d), 2):
        if (hs[i] - t) * (hs[j] - t) < 0:
            lam = (t - hs[i]) / (hs[j] - hs[i])
            pt = [ZERO] * d
            pt[i], pt[j] = ONE - lam, lam
            out.append(tuple(pt))
    return out


def pulling_triangulation(keys: Iterable, faces: Sequence[frozenset]) -> list[tuple]:
    """Triangulate a polytope given by its vertex keys and vertex-facet
    incidences.

    faces holds one key set per inequality of the polytope's H-description,
    in order: the vertices where that inequality is tight.  On any face with
    vertex set V, the facets are the inclusion-maximal proper, nonempty sets
    among the f & V, taken in order of first appearance, so the whole face
    lattice is read off faces without coordinates.  A face is a simplex when
    every facet misses exactly one vertex (a face that is not one has a
    facet missing two or more), and a single vertex is the base case.

    Returns simplices as sorted key tuples.  The triangulation is the
    pulling triangulation w.r.t. the key order (De Loera, Rambau & Santos,
    Triangulations, 2010): cone the first key over the facets that miss it.
    The recursion is intrinsic to each face, so it agrees on shared faces
    across neighboring polytopes triangulated with the same order.
    """
    keys = sorted(keys)
    n = len(keys)
    if n == 1:
        return [tuple(keys)]
    vs = frozenset(keys)
    tight: list[frozenset] = []
    for f in faces:
        sub = vs & f
        if sub and len(sub) < n and sub not in tight:
            tight.append(sub)
    facets = [f for f in tight if not any(f < g for g in tight)]
    if facets and all(len(f) == n - 1 for f in facets):
        return [tuple(keys)]
    v0 = keys[0]
    out = [
        tuple(sorted(simplex + (v0,)))
        for f in facets
        if v0 not in f
        for simplex in pulling_triangulation(f, faces)
    ]
    if not out:
        raise ValueError(
            f"pulling triangulation found no facet of a polytope on {n} vertices"
        )
    return out
