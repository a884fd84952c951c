"""Exact rational linear algebra and tiny-dimension polytope utilities.

Everything here works over fractions.Fraction.  Polytopes show up as
pullback cells (products of two simplex slabs glued by a value equation)
and as the slabs of a simplex sliced at levels.  Their vertices have a
closed form built from `simplex_slice`, the vertices of one level slice of
a simplex, and the construction also says which inequalities are tight at
each vertex, so `pulling_triangulation` works on those vertex-facet
incidences alone.  The library calls only those two: `dot`, `rref`,
`solve_affine` and the general H-polytope vertex enumeration
`polytope_vertices` (every d-subset of tight inequalities, C(m, d) solves)
stay only as the tests' independent oracle for the closed forms.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Sequence

Vector = tuple[Fraction, ...]
# (coefficients, rhs): coeffs . x  (= or <=)  rhs
LinearForm = tuple[Vector, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), ZERO)


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def solve_affine(
    eqs: Sequence[LinearForm], nvars: int
) -> Optional[tuple[Vector, list[Vector]]]:
    """Solve A x = b; returns a particular solution and a null-space basis,
    or None when inconsistent."""
    if not eqs:
        x0 = tuple(ZERO for _ in range(nvars))
        basis = []
        for j in range(nvars):
            v = [ZERO] * nvars
            v[j] = ONE
            basis.append(tuple(v))
        return x0, basis
    rows = [list(c) + [rhs] for c, rhs in eqs]
    red, pivots = rref(rows)
    for row in red:
        if all(x == 0 for x in row[:-1]) and row[-1] != 0:
            return None
    free = [j for j in range(nvars) if j not in pivots]
    x0 = [ZERO] * nvars
    for i, p in enumerate(pivots):
        x0[p] = red[i][-1]
    basis: list[Vector] = []
    for fcol in free:
        v = [ZERO] * nvars
        v[fcol] = ONE
        for i, p in enumerate(pivots):
            v[p] = -red[i][fcol]
        basis.append(tuple(v))
    return tuple(x0), basis


def _solve_square(rows: list[list[Fraction]], rhs: list[Fraction]) -> Optional[Vector]:
    n = len(rows)
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    if len(pivots) != n or any(p >= n for p in pivots):
        return None
    sol = [ZERO] * n
    for i, p in enumerate(pivots):
        sol[p] = red[i][-1]
    return tuple(sol)


def polytope_vertices(
    nvars: int, eqs: Sequence[LinearForm], ineqs: Sequence[LinearForm]
) -> list[Vector]:
    """All vertices of {x : eqs hold, a.x <= b for each ineq}, exactly.

    Parametrizes the equality subspace and enumerates tight inequality
    combinations in the reduced coordinates.
    """
    solved = solve_affine(eqs, nvars)
    if solved is None:
        return []
    x0, basis = solved
    d = len(basis)

    def lift(s: Sequence[Fraction]) -> Vector:
        return tuple(
            x0[j] + sum((s[k] * basis[k][j] for k in range(d)), ZERO)
            for j in range(nvars)
        )

    # transform inequalities to reduced coordinates
    red_ineqs: list[LinearForm] = []
    for a, b in ineqs:
        coeffs = tuple(dot(a, basis[k]) for k in range(d))
        red_ineqs.append((coeffs, b - dot(a, x0)))

    def feasible(s: Sequence[Fraction]) -> bool:
        return all(dot(a, s) <= b for a, b in red_ineqs)

    if d == 0:
        return [tuple(x0)] if feasible(()) else []

    verts: set[Vector] = set()
    for combo in combinations(range(len(red_ineqs)), d):
        rows = [list(red_ineqs[i][0]) for i in combo]
        rhs = [red_ineqs[i][1] for i in combo]
        s = _solve_square(rows, rhs)
        if s is not None and feasible(s):
            verts.add(lift(s))
    return sorted(verts)


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
