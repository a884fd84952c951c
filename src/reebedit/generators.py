"""Instance generators: example spaces with exact rational vertex values.

The cylinder family realizes the strict-gap example (a surface whose two
height functions have edit distance 1 but functional-distortion distance
at most 1/2).  Circle-like spaces use rational x-coordinates on a regular
parameter grid rather than floating-point cosines: only the Reeb-level
combinatorics matter, not the embedding geometry.
"""
from __future__ import annotations

import random as _random
from fractions import Fraction
from typing import Optional

from .plcore import PLFunction, Scalar, SimplicialComplex


def cylinder(n: int = 8) -> tuple[SimplicialComplex, PLFunction, PLFunction]:
    """The band {x^2 + y^2 = 1, |2z - x| <= 1} with f = x and g = z.

    The circle is a 2n-gon whose x-coordinates are the grid -1 + 2k/n, two
    arcs sharing the extreme vertices; the slab direction is sampled at its
    two boundary sections z = (x -+ 1)/2 + s for s in {0, 1}.  By the slab
    constraint, |f - g| = |(x + 1)/2 - s| <= 1 everywhere, with equality at
    (x, s) = (1, 0) and (-1, 1).
    """
    if n < 2:
        raise ValueError("cylinder needs n >= 2")
    xs = [Fraction(-1) + Fraction(2 * k, n) for k in range(n + 1)]
    # circle vertex c runs over the 2n-gon: upper arc 0..n, lower arc back
    circle_x = xs + [xs[n - j] for j in range(1, n)]
    m = len(circle_x)  # 2n

    def vid(c: int, s: int) -> int:
        return 2 * c + s

    simplices = []
    for c in range(m):
        d = (c + 1) % m
        simplices.append((vid(c, 0), vid(c, 1), vid(d, 0)))
        simplices.append((vid(c, 1), vid(d, 0), vid(d, 1)))
    cx = SimplicialComplex.from_simplices(simplices)
    fvals = {vid(c, s): circle_x[c] for c in range(m) for s in (0, 1)}
    gvals = {
        vid(c, s): (circle_x[c] - 1) / 2 + s for c in range(m) for s in (0, 1)
    }
    return cx, PLFunction(cx, fvals), PLFunction(cx, gvals)


def circle(n: int = 4) -> tuple[SimplicialComplex, PLFunction]:
    """A 2n-gon (1-complex) with f = x on the grid -1 + 2k/n."""
    if n < 2:
        raise ValueError("circle needs n >= 2")
    xs = [Fraction(-1) + Fraction(2 * k, n) for k in range(n + 1)]
    circle_x = xs + [xs[n - j] for j in range(1, n)]
    m = len(circle_x)
    cx = SimplicialComplex.from_simplices(
        [(c, (c + 1) % m) for c in range(m)]
    )
    return cx, PLFunction(cx, {c: circle_x[c] for c in range(m)})


def path(n: int = 4) -> tuple[SimplicialComplex, PLFunction]:
    """A path with n edges and values on the grid -1 + 2k/n."""
    if n < 1:
        raise ValueError("path needs n >= 1")
    cx = SimplicialComplex.from_simplices(
        [(k, k + 1) for k in range(n)]
    )
    vals = {k: Fraction(-1) + Fraction(2 * k, n) for k in range(n + 1)}
    return cx, PLFunction(cx, vals)


def point(c: Scalar = Fraction(0)) -> tuple[SimplicialComplex, PLFunction]:
    cx = SimplicialComplex.from_simplices([(0,)])
    return cx, PLFunction(cx, {0: Fraction(c)})


def random_instance(
    seed: int,
    nverts: int = 8,
    value_range: tuple[int, int] = (-8, 8),
    extra_edges: int = 3,
    triangles: int = 3,
    second_function: bool = False,
) -> tuple[SimplicialComplex, PLFunction, Optional[PLFunction]]:
    """A connected random 2-complex with rational vertex values.

    Deterministic for a fixed seed: a random spanning tree, extra edges,
    and triangle fill-ins over paths already in the complex.
    """
    if nverts < 1:
        raise ValueError("need at least one vertex")
    rng = _random.Random(seed)
    lo, hi = value_range

    def rand_value() -> Scalar:
        return Fraction(rng.randint(lo, hi), rng.randint(1, 3))

    simplices: set[tuple[int, ...]] = {(v,) for v in range(nverts)}
    edges: set[tuple[int, int]] = set()
    for v in range(1, nverts):
        w = rng.randrange(v)
        edges.add((w, v))
    for _ in range(extra_edges):
        if nverts < 2:
            break
        v, w = rng.sample(range(nverts), 2)
        edges.add((min(v, w), max(v, w)))
    for _ in range(triangles):
        if nverts < 3:
            break
        a, b, c = sorted(rng.sample(range(nverts), 3))
        simplices.add((a, b, c))
        edges.update([(a, b), (a, c), (b, c)])
    simplices.update(edges)
    cx = SimplicialComplex.from_simplices(sorted(simplices))
    f = PLFunction(cx, {v: rand_value() for v in range(nverts)})
    g = (
        PLFunction(cx, {v: rand_value() for v in range(nverts)})
        if second_function
        else None
    )
    return cx, f, g
