"""Exact-arithmetic foundation: scalars, simplicial complexes, PL functions,
and the connectivity of a set of simplices.

All values are exact rationals (fractions.Fraction), so equality tests on
levels and breakpoints are exact.  Level sets are never geometrically
realized; connectivity questions are answered on simplex incidence alone,
which suffices because a simplexwise-linear function has convex (hence
connected) level traces inside every simplex.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Iterable, Mapping, Sequence

Scalar = Fraction

Simplex = tuple[int, ...]


def parse_scalar(x) -> Fraction:
    """Parse a decimal or 'p/q' string (or int/Fraction) into an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    if isinstance(x, float):
        raise TypeError("floating point input is not accepted; use strings or ints")
    raise TypeError(f"cannot parse scalar from {type(x).__name__}")


def format_scalar(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class UnionFind:
    """Union-find over hashable keys, path halving, union by size."""

    def __init__(self, items: Iterable = ()):  # items optional; keys auto-add
        self._parent: dict = {x: x for x in items}
        self._size: dict = dict.fromkeys(self._parent, 1)

    def add(self, x) -> None:
        if x not in self._parent:
            self._parent[x] = x
            self._size[x] = 1

    def find(self, x):
        p = self._parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        return True

    def groups(self) -> dict:
        out: dict = {}
        for x in self._parent:
            out.setdefault(self.find(x), []).append(x)
        return out


class SimplicialComplex:
    """Finite abstract simplicial complex over dense integer vertex ids.

    Simplices are stored as sorted vertex tuples of every dimension,
    including the vertices themselves.  The complex is face-closed by
    construction when built through :meth:`from_simplices`.  It never
    changes, so its sorted vertices, facet table, maximal simplices and
    connectivity are each computed once, on first use.
    """

    def __init__(self, simplices: Iterable[Simplex]):
        simps = {tuple(sorted(s)) for s in simplices}
        for s in simps:
            if len(set(s)) != len(s):
                raise ValueError(f"simplex with repeated vertex: {s}")
        self.simplices: frozenset[Simplex] = frozenset(simps)

    @classmethod
    def from_simplices(cls, maximal: Iterable[Simplex]) -> "SimplicialComplex":
        """Build the face closure of the given simplices."""
        closed: set[Simplex] = set()
        for s in maximal:
            s = tuple(sorted(s))
            for k in range(1, len(s) + 1):
                closed.update(combinations(s, k))
        return cls(closed)

    @cached_property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(s[0] for s in self.simplices if len(s) == 1))

    @property
    def dimension(self) -> int:
        return max(len(s) for s in self.simplices) - 1

    @cached_property
    def facets(self) -> dict[Simplex, list[Simplex]]:
        """Per simplex, its codimension-1 faces that are in the complex."""
        cx = self.simplices
        return {
            s: [f for i in range(len(s)) if (f := s[:i] + s[i + 1 :]) in cx] for s in cx
        }

    @cached_property
    def maximal_simplices(self) -> tuple[Simplex, ...]:
        """The simplices that are no other simplex's facet, sorted."""
        faces = {f for fs in self.facets.values() for f in fs}
        return tuple(sorted(self.simplices - faces))

    def components(self) -> list[frozenset[Simplex]]:
        return [frozenset(c) for c in support_components(self, list(self.simplices))]

    @cached_property
    def _connected(self) -> bool:
        return len(self.components()) <= 1

    def is_connected(self) -> bool:
        return self._connected

    def __contains__(self, s) -> bool:
        return tuple(sorted(s)) in self.simplices

    def __eq__(self, other) -> bool:
        return isinstance(other, SimplicialComplex) and self.simplices == other.simplices

    def __hash__(self) -> int:
        return hash(self.simplices)

    def __repr__(self) -> str:
        dims: dict[int, int] = {}
        for s in self.simplices:
            dims[len(s) - 1] = dims.get(len(s) - 1, 0) + 1
        counts = ", ".join(f"{n} of dim {d}" for d, n in sorted(dims.items()))
        return f"SimplicialComplex({counts})"


@dataclass(frozen=True)
class PLFunction:
    """Simplexwise-linear function given by exact values on every vertex."""

    complex: SimplicialComplex
    values: Mapping[int, Fraction]

    def __post_init__(self):
        missing = [v for v in self.complex.vertices if v not in self.values]
        if missing:
            raise ValueError(f"function undefined on vertices {missing}")

    def __call__(self, v: int) -> Fraction:
        return self.values[v]


def support_components(
    complex: SimplicialComplex, support: Sequence[Simplex]
) -> list[list[Simplex]]:
    """Connected components of a list of simplices of `complex`.

    Two simplices of `support` are joined whenever one is a codim-1 face of
    the other; for the simplices meeting a level or an interval, convexity
    of the trace inside each simplex makes this sufficient for pi_0.
    Components come in the order of their first simplex in `support`, and
    each lists its simplices in `support` order.
    """
    uf = UnionFind(support)
    sel = set(support)
    for s in support:
        for face in complex.facets[s]:
            if face in sel:
                uf.union(s, face)
    return list(uf.groups().values())

