from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reebedit import category
from reebedit.category import (
    induced_map,
    limit_projection,
    pullback,
    triangulate_limit,
    zigzag_limit,
)
from reebedit.generators import cylinder, random_instance
from reebedit.geometry import polytope_vertices
from reebedit.graphs import graph_isomorphic, minimalize
from reebedit.maps import MonotonePL, verify_reeb_quotient
from reebedit.plcore import PLFunction
from reebedit.reeb import compute_reeb, graph_identity_map

F = Fraction


@pytest.mark.parametrize("seed", range(8))
def test_pullback_projections_certified_and_connected(seed):
    cx, f, _ = random_instance(seed, nverts=5)
    r, p = compute_reeb(cx, f)
    ident = graph_identity_map(r)
    L = pullback(p, ident)
    assert L.is_connected()
    T = triangulate_limit(L)
    pr0 = limit_projection(T, 0, p)
    pr1 = limit_projection(T, 1, ident)
    assert verify_reeb_quotient(pr0).ok
    assert verify_reeb_quotient(pr1).ok


def _limit_contents(L):
    cells = [(c.pieces, c.modes, c.vkeys, c.coords, c.ineqs) for c in L.cells]
    return cells, L.vertex_ids, L.locations, L.values


def _vertices_by_enumeration(factors, chain, modes):
    eqs, ineqs = category._cell_constraints(factors, chain, modes)
    return polytope_vertices(sum(len(p.simplex) for p in chain), eqs, ineqs)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    nverts=st.integers(3, 5),
    kind=st.sampled_from(["identity", "self", "constant-middle", "chain3"]),
)
def test_fiber_product_cells_match_polytope_vertices_property(seed, nverts, kind):
    # closed-form cell vertices against tight-set enumeration on each cell's
    # own equations and inequalities, over every cell zigzag_limit tries
    cx, f, _ = random_instance(seed, nverts=nverts, triangles=2)
    if kind == "constant-middle":
        tri = max(cx.simplices, key=len)
        f = PLFunction(cx, {v: f(tri[0]) if v in tri else f(v) for v in cx.vertices})
    r, p = compute_reeb(cx, f)
    ident = graph_identity_map(r)
    factors = {
        "identity": [(p, p), (ident, ident)],
        "self": [(p, p), (p, p)],
        "constant-middle": [(p, p), (p, p)],
        "chain3": [(ident, ident), (p, p), (ident, ident)],
    }[kind]
    L = zigzag_limit(factors)
    assert L.cells
    with mock.patch.object(
        category, "_fiber_product_vertices", _vertices_by_enumeration
    ):
        oracle = zigzag_limit(factors)
    assert _limit_contents(L) == _limit_contents(oracle)


def test_pullback_with_itself_spread_zero():
    cx, f, _ = random_instance(2, nverts=5)
    _, p = compute_reeb(cx, f)
    L = pullback(p, p)
    # both pulled-back functions agree on the diagonal-free fiber product
    assert L.spread() == F(0)


def test_pullback_requires_common_target():
    cx, f, g = cylinder(8)
    _, pf = compute_reeb(cx, f)
    _, pg = compute_reeb(cx, g)
    with pytest.raises(ValueError):
        pullback(pf, pg)


def test_zigzag_limit_spread_of_coupling():
    cx, f, g = cylinder(8)
    _, pf = compute_reeb(cx, f)
    _, pg = compute_reeb(cx, g)
    L = zigzag_limit([(pf, pg)])
    # for a one-space zigzag the limit is the space itself, so the spread is
    # the sup-norm of f - g, which is 1 on this cylinder
    assert L.spread() == F(1)
    assert L.is_connected()


def test_zigzag_limit_telescoping_values():
    # two stages sharing a middle graph: limit values pull back consistently
    cx, f, _ = random_instance(4, nverts=5)
    r, p = compute_reeb(cx, f)
    ident = graph_identity_map(r)
    L = zigzag_limit([(p, p), (ident, ident)])
    for vals in L.values.values():
        assert len(vals) == 3
        # every stage here preserves values, so the spread collapses
        assert max(vals) - min(vals) == F(0)


def test_induced_map_identity_reparam():
    cx, f, _ = random_instance(5, nverts=5)
    r, p = compute_reeb(cx, f)
    lo, hi = r.value_range()
    xi = MonotonePL.identity(lo, hi)
    m = induced_map(p, p, xi)
    cert = verify_reeb_quotient(m)
    assert cert.ok, cert.summary()
    assert graph_isomorphic(minimalize(m.target).graph, minimalize(r).graph)


def test_induced_map_affine_reparam():
    cx, f, _ = random_instance(7, nverts=5)
    r, p = compute_reeb(cx, f)
    # g = 2 f + 1 has the same Reeb graph up to rescaling node values
    g = PLFunction(cx, {v: 2 * f(v) + 1 for v in cx.vertices})
    rg, pg = compute_reeb(cx, g)
    lo, hi = r.value_range()
    xi = MonotonePL(((lo, 2 * lo + 1), (hi, 2 * hi + 1)))
    m = induced_map(p, pg, xi)
    cert = verify_reeb_quotient(m)
    assert cert.ok, cert.summary()


def test_induced_map_collapse_to_point():
    cx, f, _ = random_instance(9, nverts=5)
    r, p = compute_reeb(cx, f)
    # constant reparametrization collapses everything to one point graph
    from reebedit.editdist import collapse_map

    q = collapse_map(cx, F(0))
    lo, hi = r.value_range()
    xi = (
        MonotonePL(((lo, F(0)),))
        if lo == hi
        else MonotonePL(((lo, F(0)), (hi, F(0))))
    )
    m = induced_map(p, q, xi)
    assert verify_reeb_quotient(m).ok
    assert len(m.target.nodes) == 1


def test_induced_map_rejects_mismatched_reparam():
    cx, f, _ = random_instance(5, nverts=5)
    r, p = compute_reeb(cx, f)
    g = PLFunction(cx, {v: f(v) + 1 for v in cx.vertices})
    _, pg = compute_reeb(cx, g)
    lo, hi = r.value_range()
    xi = MonotonePL.identity(lo, hi)  # wrong: misses the +1 shift
    with pytest.raises(ValueError, match="mismatch"):
        induced_map(p, pg, xi)
