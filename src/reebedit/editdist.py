"""Zigzag diagrams, couplings, and the straight-line-homotopy construction.

Every result here is a certified *upper bound* for the universal edit
distance between two Reeb graphs, shipped with its witness: a zigzag
diagram R_1 <- X_1 -> R_2 <- ... -> R_n of quotient maps, certified by
ZigzagDiagram.validate().  A coupling R_f <- X -> R_g is the one-space
case.  The defining infimum ranges over all possible Reeb domains and is
not enumerable, so no exact values are claimed except where a matching
lower bound is available (point targets).

A zigzag's own cost is exact: the spread of its limit, which is an
iterated pullback, read at the vertices of its triangulation.  The
straight-line homotopy zigzag does not need it: its cost is
||f - g||_infinity, certified by a witness vertex and per-stage gaps (the
source paper's stability argument).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .category import (
    carry_column,
    induced_map,
    limit_projection,
    pullback,
    triangulate_limit,
)
from .graphs import ReebGraph
from .maps import (
    CellMap,
    CertificationError,
    _same_graph,
    verify_reeb_quotient,
)
from .plcore import PLFunction, Scalar, SimplicialComplex
from .reeb import compute_reeb, graph_identity_map

ZERO = Fraction(0)
ONE = Fraction(1)


# -- couplings ---------------------------------------------------------------


def coupling(p_f: CellMap, p_g: CellMap) -> ZigzagDiagram:
    """The certified one-space zigzag R_f <- X -> R_g; raises if the sources
    differ or either map fails the quotient-map axioms."""
    c = ZigzagDiagram([(p_f, p_g)])
    c.validate()
    return c


def coupling_bound(c: ZigzagDiagram) -> Scalar:
    """sup over the coupling space of |f-pullback - g-pullback|, exactly:
    the zero-step case of zigzag_cost."""
    if c.certificates is None or len(c.maps) != 1:
        raise ValueError("not a certified coupling; build it with coupling()")
    return zigzag_cost(c)


def point_graph(c: Scalar = ZERO) -> ReebGraph:
    return ReebGraph(node_values={0: c}, edges=[])


def collapse_map(source: SimplicialComplex, c: Scalar = ZERO) -> CellMap:
    """The constant quotient map of a connected complex onto a point graph."""
    if not source.is_connected():
        raise ValueError("collapse to a point needs a connected source")
    constant = PLFunction(source, dict.fromkeys(source.vertices, c))
    return compute_reeb(source, constant)[1]


def product_coupling(r_f: ReebGraph, r_g: ReebGraph) -> ZigzagDiagram:
    """The always-available coupling over the product R_f x R_g, realized as
    the pullback over the one-point graph."""
    id_f = graph_identity_map(r_f)
    id_g = graph_identity_map(r_g)
    L = pullback(collapse_map(id_f.source), collapse_map(id_g.source))
    T = triangulate_limit(L)
    return coupling(limit_projection(T, 0, id_f), limit_projection(T, 1, id_g))


def point_distance(r_f: ReebGraph, c: Scalar) -> Scalar:
    """The exact edit distance to the one-point graph at value c.

    max over nodes of |value - c| is an upper bound via the product
    coupling and a lower bound because every coupling surjects onto R_f.
    A disconnected R_f has no coupling with a point: the fiber over the
    point would be the whole space, and fibers are connected.
    """
    if not r_f.is_connected():
        raise ValueError("no coupling to a point graph: the graph is disconnected")
    return max(abs(v - c) for v in r_f.node_values.values())


def compose_couplings(c1: ZigzagDiagram, c2: ZigzagDiagram) -> ZigzagDiagram:
    """Couple R_f with R_h through a shared middle graph R_g by pulling the
    two spaces back over R_g; the new bound is at most the sum of the two."""
    if len(c1.maps) != 1 or len(c2.maps) != 1:
        raise ValueError("compose_couplings needs two couplings (one-space zigzags)")
    [(p_f, p_g)], [(q_g, q_h)] = c1.maps, c2.maps
    if not _same_graph(p_g.target, q_g.target):
        raise ValueError("couplings do not share a middle graph")
    T = triangulate_limit(pullback(p_g, q_g))
    return coupling(limit_projection(T, 0, p_f), limit_projection(T, 1, q_h))


# -- zigzag diagrams ---------------------------------------------------------


@dataclass
class ZigzagDiagram:
    """R_1 <- X_1 -> R_2 <- ... -> R_n with certified quotient maps; a
    coupling is the one-space case."""

    maps: list[tuple[CellMap, CellMap]]  # per space: (to R_i, to R_{i+1})
    # per space, the certificates of its two maps; set by validate()
    certificates: Optional[list[tuple]] = field(default=None, repr=False)

    @property
    def graphs(self) -> list[ReebGraph]:
        return [m.target for m, _ in self.maps] + [m.target for _, m in self.maps[-1:]]

    def validate(self) -> None:
        """Check each space's shape, then certify its two maps once."""
        if not self.maps:
            raise ValueError("empty zigzag")
        certificates = []
        for i, (ml, mr) in enumerate(self.maps):
            if ml.source.simplices != mr.source.simplices:
                raise ValueError(f"space {i}: the two maps must share their source")
            if i and not _same_graph(self.maps[i - 1][1].target, ml.target):
                raise ValueError(
                    f"space {i}: left target is not the right target of space {i - 1}"
                )
            certs = (verify_reeb_quotient(ml), verify_reeb_quotient(mr))
            for name, cert in zip(("left", "right"), certs):
                if not cert.ok:
                    raise CertificationError(
                        f"space {i}: {name} map uncertified: {cert.summary()}"
                    )
            certificates.append(certs)
        self.certificates = certificates


def zigzag_cost(z: ZigzagDiagram) -> Scalar:
    """The spread of the zigzag: sup over the diagram limit of
    max_i f_i - min_j f_j, exactly.

    The limit is the iterated pullback ((X_1 x_{R_2} X_2) x_{R_3} X_3) ...
    Each step pulls the running space's map into R_{i+1} back against the
    next space's left map, carries every graph value column to the
    triangulated pullback's vertices, and projects the next space's right
    map onto it.  Every column is affine on each cell, so max_i - min_j is
    convex there and peaks at a vertex.  One space is the zero-step case:
    max |f_1 - f_2| over its vertices.  The cell count grows multiplicatively
    with the number of spaces; past category.CELL_BUDGET cells in one
    pullback it raises RuntimeError.  build_homotopy_zigzag reads only its
    stages' one-space costs here: its total is known from the construction.
    """
    if not z.maps:
        raise ValueError("empty zigzag")
    left, m = z.maps[0]
    columns = [left.h, m.h]
    for nl, nr in z.maps[1:]:
        T = triangulate_limit(pullback(m, nl))
        columns = [carry_column(T, 0, col) for col in columns]
        m = limit_projection(T, 1, nr)
        columns.append(m.h)
    rows = zip(*(map(col.__getitem__, m.h) for col in columns))
    return max(max(vs) - min(vs) for vs in rows)


# -- straight-line homotopy construction -------------------------------------


@dataclass
class HomotopySchedule:
    """Breakpoints of the straight-line homotopy f_t = (1-t)f + tg at which
    some vertex pair swaps order, and the stage midpoints between them."""

    lambdas: list[Scalar]  # 0 = l_1 < ... < l_n = 1
    rhos: list[Scalar]  # stage midpoints


def interpolate(f: PLFunction, g: PLFunction, t: Scalar) -> PLFunction:
    vals = {v: (1 - t) * f.values[v] + t * g.values[v] for v in f.values}
    return PLFunction(f.complex, vals)


def homotopy_breakpoints(
    complex: SimplicialComplex, f: PLFunction, g: PLFunction
) -> HomotopySchedule:
    """All parameters where the vertex order under f_t genuinely changes.

    f_t(v) = f_t(w) is linear in t, so each vertex pair contributes at most
    one interior crossing; pairs with equal values for every t never swap
    and are ignored.  Between consecutive breakpoints the weak vertex order
    is constant, so a stage midpoint's levels go weakly increasingly to
    either end's values, as induced_map requires.
    """
    crossings: set[Scalar] = set()
    for v, w in combinations(complex.vertices, 2):
        df = f.values[v] - f.values[w]
        dg = g.values[v] - g.values[w]
        if df == dg:
            continue
        t = Fraction(df, df - dg)
        if ZERO < t < ONE:
            crossings.add(t)
    lambdas = sorted({ZERO, ONE} | crossings)
    rhos = [(a + b) / 2 for a, b in zip(lambdas, lambdas[1:])]
    return HomotopySchedule(lambdas, rhos)


@dataclass(frozen=True)
class HomotopyCertificate:
    """Why the homotopy zigzag costs exactly ||f - g||_infinity.

    Lower bound: every vertex x of the complex gives a chain of the limit
    whose graph values run from f(x) to g(x), and witness_vertex attains
    |f - g| = cost.  Upper bound: along any chain, the graph values before
    and after stage i are its two maps' values at one point of its space,
    so they differ by at most stage_gaps[i], the stage's own one-space cost
    (zigzag_cost of that stage alone), and the gaps sum to cost.
    """

    cost: Scalar
    witness_vertex: int
    stage_gaps: tuple[Scalar, ...]
    lambdas: tuple[Scalar, ...]  # the homotopy parameter of each graph


def _certify_homotopy(
    complex: SimplicialComplex, f: PLFunction, g: PLFunction, z: ZigzagDiagram
) -> tuple[Scalar, int, tuple[Scalar, ...]]:
    """The cost, witness vertex and stage gaps of a homotopy zigzag's
    certificate; raises CertificationError unless the stage gaps sum to the
    witness's gap."""
    w = max(complex.vertices, key=lambda v: abs(f.values[v] - g.values[v]))
    cost = abs(f.values[w] - g.values[w])
    gaps = tuple(zigzag_cost(ZigzagDiagram([stage])) for stage in z.maps)
    if sum(gaps) != cost:
        raise CertificationError(
            f"stage gaps sum to {sum(gaps)}, but |f - g| = {cost} at vertex {w}"
        )
    return cost, w, gaps


def build_homotopy_zigzag(
    complex: SimplicialComplex, f: PLFunction, g: PLFunction
) -> tuple[ZigzagDiagram, HomotopyCertificate]:
    """The stability zigzag of the straight-line homotopy from f to g.

    Graphs are the Reeb graphs at the breakpoints, spaces the Reeb graphs
    at the stage midpoints, and the maps are induced by the shared source
    (induced_map).  Its cost equals ||f - g||_infinity exactly (the source
    paper's stability argument, d_E(R_f, R_g) <= ||f - g||); the returned
    certificate carries both bounds (see HomotopyCertificate).  f and g
    must both be defined on complex (their complexes have its simplices),
    and compute_reeb needs it connected; else it raises ValueError.
    """
    if any(fn.complex.simplices != complex.simplices for fn in (f, g)):
        raise ValueError("f and g must both be defined on the complex")
    sched = homotopy_breakpoints(complex, f, g)
    quotients = [compute_reeb(complex, interpolate(f, g, t))[1] for t in sched.lambdas]
    maps: list[tuple[CellMap, CellMap]] = []
    for i, rho in enumerate(sched.rhos):
        _, p_rho = compute_reeb(complex, interpolate(f, g, rho))
        maps.append(
            (induced_map(p_rho, quotients[i]), induced_map(p_rho, quotients[i + 1]))
        )
    z = ZigzagDiagram(maps)
    cost, w, gaps = _certify_homotopy(complex, f, g, z)
    return z, HomotopyCertificate(cost, w, gaps, tuple(sched.lambdas))
