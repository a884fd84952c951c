import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reebedit import category
from reebedit.editdist import (
    ZigzagDiagram,
    _certify_homotopy,
    build_homotopy_zigzag,
    collapse_map,
    compose_couplings,
    coupling,
    coupling_bound,
    homotopy_breakpoints,
    interpolate,
    point_distance,
    point_graph,
    product_coupling,
    zigzag_cost,
)
from reebedit.generators import cylinder, random_instance
from reebedit.graphs import ReebGraph
from reebedit.category import induced_map
from reebedit.maps import CertificationError, verify_reeb_quotient
from reebedit.plcore import PLFunction, SimplicialComplex
from reebedit.reeb import compute_reeb, graph_identity_map

from oracles import range_of, relabelled

F = Fraction


def _coupled(seed: int, nverts: int = 5):
    cx, f, g = random_instance(seed, nverts=nverts, second_function=True)
    _, pf = compute_reeb(cx, f)
    _, pg = compute_reeb(cx, g)
    return cx, f, g, coupling(pf, pg)


def test_coupling_bound_is_sup_norm_of_difference():
    cx, f, g, c = _coupled(0)
    want = max(abs(f(v) - g(v)) for v in cx.vertices)
    assert coupling_bound(c) == want


def test_cylinder_coupling_bound_is_one():
    cx, f, g = cylinder(8)
    _, pf = compute_reeb(cx, f)
    _, pg = compute_reeb(cx, g)
    assert coupling_bound(coupling(pf, pg)) == F(1)


def test_identity_coupling_bound_zero():
    cx, f, _ = random_instance(3, nverts=5)
    r, _ = compute_reeb(cx, f)
    m = graph_identity_map(r)
    assert coupling_bound(coupling(m, m)) == F(0)


def test_coupling_rejects_different_sources():
    cx1, f1, _ = random_instance(0, nverts=4)
    cx2, f2, _ = random_instance(1, nverts=5)
    _, p1 = compute_reeb(cx1, f1)
    _, p2 = compute_reeb(cx2, f2)
    with pytest.raises(ValueError):
        coupling(p1, p2)


def test_collapse_map_certified():
    cx, f, _ = random_instance(2, nverts=5)
    q = collapse_map(cx, F(3))
    assert verify_reeb_quotient(q).ok
    assert q.target.node_values == {0: F(3)}


def test_point_distance_matches_product_coupling():
    cx, f, _ = random_instance(4, nverts=6)
    r, _ = compute_reeb(cx, f)
    c = F(1, 2)
    want = max(abs(r.value(n) - c) for n in r.nodes)
    assert point_distance(r, c) == want
    pc = product_coupling(r, point_graph(c))
    assert coupling_bound(pc) == want
    # a disconnected graph has no product coupling, and no distance either
    two = ReebGraph({0: F(0), 1: F(1)}, [])
    with pytest.raises(ValueError, match="collapse to a point needs a connected"):
        product_coupling(two, point_graph(c))
    with pytest.raises(ValueError, match="disconnected"):
        point_distance(two, c)


def test_compose_couplings_certified_and_triangle():
    # three functions on one complex give a composable coupling pair
    cx, f, g, c1 = _coupled(5, nverts=4)
    import random as _rnd

    rng = _rnd.Random(99)
    h = PLFunction(
        cx, {v: F(rng.randint(-6, 6), rng.randint(1, 3)) for v in cx.vertices}
    )
    _, pg = compute_reeb(cx, g)
    _, ph = compute_reeb(cx, h)
    c2 = coupling(pg, ph)
    # share the middle graph exactly
    c1 = coupling(c1.maps[0][0], pg)
    comp = compose_couplings(c1, c2)
    assert all(verify_reeb_quotient(m).ok for m in comp.maps[0])
    assert coupling_bound(comp) <= coupling_bound(c1) + coupling_bound(c2)


def test_compose_couplings_rejects_a_longer_zigzag():
    # a validated zigzag of several spaces is not a coupling, in either slot
    cx, f, g = random_instance(1, nverts=4, second_function=True)
    z, _ = build_homotopy_zigzag(cx, f, g)
    z.validate()
    assert len(z.maps) > 1
    c = coupling(*z.maps[0])
    for c1, c2 in ((z, c), (c, z)):
        with pytest.raises(ValueError, match="needs two couplings"):
            compose_couplings(c1, c2)


@pytest.mark.parametrize("seed", range(12))
def test_compose_couplings_with_constant_middle_triangle(seed):
    # g constant on a triangle: the fiber product over that value has
    # 4-dimensional cells (a product of two triangles)
    cx, f, g = random_instance(seed, nverts=4, triangles=1, second_function=True)
    (tri,) = [s for s in cx.simplices if len(s) == 3]
    g = PLFunction(cx, {v: g(tri[0]) if v in tri else g(v) for v in cx.vertices})
    rng = random.Random(seed)
    h = PLFunction(
        cx, {v: F(rng.randint(-8, 8), rng.randint(1, 3)) for v in cx.vertices}
    )
    _, pf = compute_reeb(cx, f)
    _, pg = compute_reeb(cx, g)
    _, ph = compute_reeb(cx, h)
    c1, c2 = coupling(pf, pg), coupling(pg, ph)
    comp = compose_couplings(c1, c2)
    assert max(len(s) for s in comp.maps[0][0].source.simplices) == 5
    for m in (*c1.maps[0], c2.maps[0][1], *comp.maps[0]):
        assert verify_reeb_quotient(m).ok
    (f_lo, f_hi), (h_lo, h_hi) = (range_of(d.values, cx.vertices) for d in (f, h))
    gap = max(abs(f_hi - h_hi), abs(f_lo - h_lo))
    b1, b2 = coupling_bound(c1), coupling_bound(c2)
    assert gap <= coupling_bound(comp) <= b1 + b2


def test_zigzag_from_coupling_cost_equals_bound():
    # a coupling is the one-space zigzag: its cost is the coupling bound,
    # and both are the sup norm of f - g over the shared vertices
    for seed in range(5):
        cx, f, g, c = _coupled(seed)
        want = max(abs(f(v) - g(v)) for v in cx.vertices)
        assert zigzag_cost(c) == coupling_bound(c) == want


def test_zigzag_diagram_validation_catches_mismatch():
    # the first space ends in R_g, the second starts in R_f: the chain breaks
    _, _, _, c = _coupled(1)
    z = ZigzagDiagram([c.maps[0], c.maps[0]])
    with pytest.raises(ValueError, match="space 1: left target"):
        z.validate()
    assert z.certificates is None


def test_zigzag_diagram_validation_rejects_a_space_with_two_sources():
    cx1, f1, _ = random_instance(1, nverts=5)
    cx2, f2, _ = random_instance(2, nverts=5)
    _, p1 = compute_reeb(cx1, f1)
    _, p2 = compute_reeb(cx2, f2)
    z = ZigzagDiagram([(p1, p2)])
    with pytest.raises(ValueError, match="share their source"):
        z.validate()
    assert z.certificates is None


def test_coupling_bound_needs_a_certified_single_space():
    _, _, _, c = _coupled(2)
    assert len(c.certificates) == 1
    assert all(cert.ok for cert in c.certificates[0])
    with pytest.raises(ValueError, match="not a certified coupling"):
        coupling_bound(ZigzagDiagram(c.maps))
    pf, pg = c.maps[0]
    z = ZigzagDiagram([(pf, pg), (pg, pg)])
    z.validate()
    assert len(z.certificates) == 2
    with pytest.raises(ValueError, match="not a certified coupling"):
        coupling_bound(z)


@pytest.mark.parametrize("seed", range(6))
def test_zigzag_cost_matches_limit_spread(seed):
    # the certified cost must agree with the spread of the explicit limit
    cx, f, g = random_instance(seed, nverts=3, second_function=True)
    z, cert = build_homotopy_zigzag(cx, f, g)
    assert cert.cost == zigzag_cost(z)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**20), nverts=st.integers(3, 4))
def test_homotopy_cost_matches_limit_spread_property(seed, nverts):
    # the certified closed form against the explicit limit and the norm
    cx, f, g = random_instance(seed, nverts=nverts, second_function=True)
    z, cert = build_homotopy_zigzag(cx, f, g)
    assume(len(z.maps) <= 5)
    norm = max(abs(f(v) - g(v)) for v in cx.vertices)
    assert cert.cost == zigzag_cost(z) == norm


def _triple(seed):
    """(pf, pg, ph) of three functions on one complex, g constant on no
    triangle (compose_couplings cannot certify such a pullback)."""
    cx, f, g = random_instance(seed, nverts=4, triangles=1, second_function=True)
    assume(not any(len(s) == 3 and len({g(v) for v in s}) == 1 for s in cx.simplices))
    rng = random.Random(seed)
    h = PLFunction(
        cx, {v: F(rng.randint(-8, 8), rng.randint(1, 3)) for v in cx.vertices}
    )
    return tuple(compute_reeb(cx, fn)[1] for fn in (f, g, h))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_two_space_cost_is_max_of_coupling_bounds_property(seed):
    # sup over the limit of max(f, g, h) - min(f, g, h) is the largest of
    # |f - g| and |g - h| (each attained on a factor, onto which the limit
    # projects) and |f - h|, which is the composed coupling's bound
    pf, pg, ph = _triple(seed)
    c1, c2 = coupling(pf, pg), coupling(pg, ph)
    want = max(coupling_bound(c1), coupling_bound(c2),
               coupling_bound(compose_couplings(c1, c2)))
    assert zigzag_cost(ZigzagDiagram([(pf, pg), (pg, ph)])) == want


def test_zigzag_cost_rejects_empty_and_mismatched_zigzags():
    for reject in (zigzag_cost, ZigzagDiagram.validate):
        with pytest.raises(ValueError, match="empty zigzag"):
            reject(ZigzagDiagram([]))
    cx, f, g = cylinder(4)
    _, pf = compute_reeb(cx, f)
    _, pg = compute_reeb(cx, g)
    # the first space ends in R_g, the second starts in R_f
    with pytest.raises(ValueError, match="common target"):
        zigzag_cost(ZigzagDiagram([(pf, pg), (pf, pg)]))


def test_zigzag_cost_respects_cell_budget(monkeypatch):
    cx, f, g = random_instance(1, nverts=4, triangles=1, second_function=True)
    _, pf = compute_reeb(cx, f)
    _, pg = compute_reeb(cx, g)
    z = ZigzagDiagram([(pf, pg), (pg, pf)])
    ncells = len(category.pullback(pg, pg).cells)
    monkeypatch.setattr(category, "CELL_BUDGET", ncells)
    cost = zigzag_cost(z)
    assert cost >= coupling_bound(coupling(pf, pg))
    monkeypatch.setattr(category, "CELL_BUDGET", ncells - 1)
    with pytest.raises(RuntimeError, match="cell budget"):
        zigzag_cost(z)


def test_interpolate_endpoints():
    cx, f, g = random_instance(7, nverts=5, second_function=True)
    assert interpolate(f, g, F(0)).values == f.values
    assert interpolate(f, g, F(1)).values == g.values
    mid = interpolate(f, g, F(1, 2))
    for v in cx.vertices:
        assert mid(v) == (f(v) + g(v)) / 2


def test_homotopy_breakpoints_structure():
    cx, f, g = random_instance(8, nverts=5, second_function=True)
    sched = homotopy_breakpoints(cx, f, g)
    assert sched.lambdas[0] == F(0) and sched.lambdas[-1] == F(1)
    assert len(sched.rhos) == len(sched.lambdas) - 1
    # each crossing parameter equalizes some vertex pair
    verts = sorted(cx.vertices)
    for lam in sched.lambdas[1:-1]:
        ft = interpolate(f, g, lam)
        assert any(
            ft(v) == ft(w) and (f(v), g(v)) != (f(w), g(w))
            for i, v in enumerate(verts)
            for w in verts[i + 1 :]
        )
    # within a stage the weak vertex order is constant: the midpoint order
    # holds weakly at both ends of the stage
    for a, b, rho in zip(sched.lambdas, sched.lambdas[1:], sched.rhos):
        f_rho, f_a, f_b = (interpolate(f, g, t) for t in (rho, a, b))
        for v in verts:
            for w in verts:
                if f_rho(v) <= f_rho(w):
                    assert f_a(v) <= f_a(w) and f_b(v) <= f_b(w)


def test_induced_quotient_via_reparam_certified():
    cx, f, g = random_instance(9, nverts=5, second_function=True)
    sched = homotopy_breakpoints(cx, f, g)
    f_rho = interpolate(f, g, sched.rhos[0])
    f_lam = interpolate(f, g, sched.lambdas[0])
    _, p_rho = compute_reeb(cx, f_rho)
    _, p_lam = compute_reeb(cx, f_lam)
    m = induced_map(p_rho, p_lam)
    cert = verify_reeb_quotient(m)
    assert cert.ok, cert.summary()


def test_induced_quotient_rejects_bad_reparam():
    # two unrelated functions: g is no weakly increasing function of f
    cx, f, g = random_instance(9, nverts=5, second_function=True)
    _, p_f = compute_reeb(cx, f)
    _, p_g = compute_reeb(cx, g)
    with pytest.raises(ValueError, match="reparametrization"):
        induced_map(p_f, p_g)


@pytest.mark.parametrize("seed", range(8))
def test_homotopy_zigzag_certified_and_stable(seed):
    cx, f, g = random_instance(seed, nverts=5, second_function=True)
    z, cert = build_homotopy_zigzag(cx, f, g)
    z.validate()
    norm = max(abs(f(v) - g(v)) for v in cx.vertices)
    assert cert.cost == norm
    w = cert.witness_vertex
    assert abs(f(w) - g(w)) == norm
    assert len(cert.stage_gaps) == len(z.maps)
    assert sum(cert.stage_gaps) == norm
    lams = cert.lambdas
    assert len(lams) == len(z.graphs)
    assert list(cert.stage_gaps) == [
        (b - a) * norm for a, b in zip(lams, lams[1:])
    ]


def test_homotopy_certificate_rejects_gaps_that_miss_the_norm():
    cx, f, g = random_instance(3, nverts=5, second_function=True)
    z, _ = build_homotopy_zigzag(cx, f, g)
    assert len(z.maps) > 1
    left, _ = z.maps[0]
    z.maps[0] = (left, left)  # stage 0 now closes no gap
    with pytest.raises(CertificationError, match="stage gaps sum to"):
        _certify_homotopy(cx, f, g, z)


def test_homotopy_zigzag_identical_functions_costs_zero():
    cx, f, _ = random_instance(4, nverts=5)
    z, cert = build_homotopy_zigzag(cx, f, f)
    assert cert.cost == F(0)
    assert cert.stage_gaps == (F(0),)
    assert len(z.graphs) == 2  # no interior breakpoints


def test_homotopy_zigzag_rejects_a_function_on_another_complex():
    # f2 is defined on a larger complex, and short on cx without vertex 3:
    # neither is a function on cx, in either place
    cx, f, _ = random_instance(1, nverts=4, second_function=True)
    _, f2, _ = random_instance(2, nverts=5)
    sub = SimplicialComplex.from_simplices([s for s in cx.simplices if 3 not in s])
    short = PLFunction(sub, {v: f(v) for v in sub.vertices})
    for g in (f2, short):
        for pair in ((f, g), (g, f)):
            with pytest.raises(ValueError, match="both be defined on the complex"):
                build_homotopy_zigzag(cx, *pair)


def _coupling_bounds(cx, fs):
    # the bounds of the couplings (f, g) and (g, h) and of their composite
    pf, pg, ph = (compute_reeb(cx, fn)[1] for fn in fs)
    c1, c2 = coupling(pf, pg), coupling(pg, ph)
    c13 = compose_couplings(c1, c2)
    return coupling_bound(c1), coupling_bound(c2), coupling_bound(c13)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), nverts=st.integers(3, 5))
def test_compose_couplings_bound_is_invariant_property(seed, nverts):
    # the bounds do not change when the vertices are relabelled (which
    # reorders every pullback's pieces) or every function is negated, and
    # scale by a when every function f becomes a f + b
    cx, f, g = random_instance(seed, nverts=nverts, triangles=1, second_function=True)
    rng = random.Random(seed)
    h = PLFunction(
        cx, {v: F(rng.randint(-8, 8), rng.randint(1, 3)) for v in cx.vertices}
    )
    fs = (f, g, h)
    bounds = _coupling_bounds(cx, fs)
    assert _coupling_bounds(*relabelled(cx, fs, rng)) == bounds
    negated = [PLFunction(cx, {v: -x for v, x in fn.values.items()}) for fn in fs]
    assert _coupling_bounds(cx, negated) == bounds
    a, b = F(3, 2), F(-7, 3)
    affine = [PLFunction(cx, {v: a * x + b for v, x in fn.values.items()}) for fn in fs]
    assert _coupling_bounds(cx, affine) == tuple(a * x for x in bounds)


def _homotopy_terms(cx, f, g):
    z, cert = build_homotopy_zigzag(cx, f, g)
    assert len(z.maps) == len(cert.lambdas) - 1
    return cert.lambdas, cert.stage_gaps, cert.cost


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), nverts=st.integers(3, 5))
def test_homotopy_certificate_is_metamorphic_property(seed, nverts):
    cx, f, g = random_instance(
        seed, nverts=nverts, value_range=(-4, 4), second_function=True
    )
    lambdas, gaps, cost = _homotopy_terms(cx, f, g)
    # swapping f and g runs the homotopy backwards
    backwards = (tuple(1 - t for t in reversed(lambdas)), gaps[::-1], cost)
    assert _homotopy_terms(cx, g, f) == backwards
    # negating both functions, or relabelling the vertices, keeps every term
    negated = [PLFunction(cx, {v: -x for v, x in fn.values.items()}) for fn in (f, g)]
    assert _homotopy_terms(cx, *negated) == (lambdas, gaps, cost)
    moved_cx, moved = relabelled(cx, (f, g), random.Random(seed))
    assert _homotopy_terms(moved_cx, *moved) == (lambdas, gaps, cost)
    # x -> a x + b scales the gaps and the cost by a
    a, b = F(3, 2), F(-7, 3)
    affine = [
        PLFunction(cx, {v: a * x + b for v, x in fn.values.items()}) for fn in (f, g)
    ]
    assert _homotopy_terms(cx, *affine) == (
        lambdas, tuple(a * x for x in gaps), a * cost
    )
