"""Independent oracles the tests compare the library against.

None of this is called by the library.  The preimage components and the
barycentric subdivision check the Reeb sweep and its invariance under
refinement, and a vertex relabelling feeds the metamorphic tests; the
pointwise images read a quotient map at one value of one
simplex, to check induced maps and restrictions point by point; the exact
linear algebra and the general H-polytope vertex enumeration
`polytope_vertices` (every d-subset of tight inequalities, C(m, d) solves)
check the closed-form pullback cells.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Mapping, Optional, Sequence

from reebedit.geometry import Vector
from reebedit.graphs import GraphComplex, GraphPoint, point_on_edge
from reebedit.maps import Cell, CellMap, slot_in
from reebedit.plcore import (
    PLFunction,
    Simplex,
    SimplicialComplex,
    format_scalar,
    support_components,
)

# (coefficients, rhs): coeffs . x  (= or <=)  rhs
LinearForm = tuple[Vector, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


# -- preimages and subdivision -----------------------------------------------


def range_of(values: Mapping[int, Fraction], s: Simplex) -> tuple[Fraction, Fraction]:
    """Value range over the simplex s of the linear extension of values."""
    vals = [values[v] for v in s]
    return min(vals), max(vals)


def interval_preimage_components(
    complex: SimplicialComplex, f: PLFunction, a: Fraction, b: Fraction
) -> list[frozenset[Simplex]]:
    """Connected components of f^{-1}([a, b]) as sets of simplices."""
    if a > b:
        raise ValueError(f"empty interval: {format_scalar(a)} > {format_scalar(b)}")
    ranges = ((s, range_of(f.values, s)) for s in complex.simplices)
    support = [s for s, (lo, hi) in ranges if lo <= b and hi >= a]
    return [frozenset(c) for c in support_components(complex, support)]


def barycentric_subdivision(
    complex: SimplicialComplex, f: Optional[PLFunction] = None
) -> tuple[SimplicialComplex, Optional[PLFunction], dict[Simplex, int]]:
    """One barycentric subdivision; values extend linearly to barycenters.

    Returns the subdivided complex, the subdivided function (if given) and
    the map from original simplices to their barycenter vertex ids.
    """
    bary_id: dict[Simplex, int] = {}
    next_id = 0
    for s in sorted(complex.simplices):
        bary_id[s] = next_id
        next_id += 1

    maximal = [
        s for s in complex.simplices
        if not any(set(s) < set(t) for t in complex.simplices)
    ]
    new_simplices: set[Simplex] = set()

    def chains(s: Simplex) -> list[list[Simplex]]:
        # Descending chains of proper faces starting at s.
        out = [[s]]
        if len(s) > 1:
            for face in combinations(s, len(s) - 1):
                for c in chains(face):
                    out.append([s] + c)
        return out

    for s in maximal:
        for chain in chains(s):
            new_simplices.add(tuple(sorted(bary_id[t] for t in chain)))

    sd = SimplicialComplex.from_simplices(new_simplices)
    sdf = None
    if f is not None:
        vals = {
            bary_id[s]: sum((f(v) for v in s), Fraction(0)) / len(s)
            for s in complex.simplices
        }
        sdf = PLFunction(sd, vals)
    return sd, sdf, bary_id


# -- pointwise images of quotient maps ---------------------------------------


def relabelled(
    cx: SimplicialComplex, fns: Sequence[PLFunction], rng
) -> tuple[SimplicialComplex, list[PLFunction]]:
    """cx and the functions fns on it under a random injective relabelling
    of the vertices, drawn from rng."""
    n = len(cx.vertices)
    label = dict(zip(cx.vertices, rng.sample(range(2 * n), n)))
    moved = SimplicialComplex.from_simplices(
        tuple(label[v] for v in s) for s in cx.maximal_simplices
    )
    return moved, [
        PLFunction(moved, {label[v]: x for v, x in fn.values.items()}) for fn in fns
    ]


def cell_at(m: CellMap, s: Simplex, t: Fraction) -> Cell:
    """Graph cell containing the image of (the part of) s at value t."""
    lo, hi = range_of(m.h, s)
    if not lo <= t <= hi:
        raise ValueError(f"simplex {s} does not meet value {t}")
    return m.assignment[s][slot_in(m.levels, t)]


def point_of_cell(m: CellMap, cell: Cell, t: Fraction) -> GraphPoint:
    if cell[0] == "n":
        return GraphPoint(node=cell[1])
    return point_on_edge(m.target, cell[1], t)


def point_image(m: CellMap, s: Simplex, t: Fraction) -> GraphPoint:
    return point_of_cell(m, cell_at(m, s, t), t)


def half_containing(gc: GraphComplex, e: int, t: Fraction) -> Simplex:
    """Half simplex of edge e of a complexified graph whose value range
    contains t."""
    lo, hi = gc.graph.edges[e]
    a, b, mid = gc.node_vertex[lo], gc.node_vertex[hi], gc.mid_vertex[e]
    if not gc.values[a] <= t <= gc.values[b]:
        raise ValueError(f"value {format_scalar(t)} outside edge {e}")
    return tuple(sorted((a, mid) if t <= gc.values[mid] else (mid, b)))


def image_point(m: CellMap, gc: GraphComplex, gp: GraphPoint) -> GraphPoint:
    """Image of the point gp of gc's graph under m, a map out of the
    complexified graph gc."""
    if gp.is_node:
        v = gc.node_vertex[gp.node]
        return point_image(m, (v,), m.h[v])
    half = half_containing(gc, gp.edge, gp.t)
    a, b = half
    va, vb = gc.values[a], gc.values[b]
    t = m.h[a] + (m.h[b] - m.h[a]) * (gp.t - va) / (vb - va)
    return point_image(m, half, t)


# -- exact linear algebra and polytope vertices ------------------------------


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
