import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reebedit.generators import circle, cylinder, path, point, random_instance
from reebedit.graphs import GraphPoint, ReebGraph, graph_isomorphic, minimalize
from reebedit.maps import verify_reeb_quotient
from reebedit.metrics import d_matrix, sample_points
from reebedit.plcore import PLFunction, SimplicialComplex
from reebedit.reeb import compute_reeb, graph_identity_map, reeb_of_graph

from oracles import barycentric_subdivision, range_of, relabelled

F = Fraction


# -- an independent oracle ----------------------------------------------------
#
# A from-scratch sweep: nodes are the connected components of each critical
# level, edges the components of each gap midpoint level, glued by simplex
# membership.  It shares no code with compute_reeb (own DSU, own adjacency).


def _dsu_find(parent, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _components(simplices, live):
    parent = {s: s for s in live}
    live_set = set(live)
    for s in live:
        for i in range(len(s)):
            f = s[:i] + s[i + 1 :]
            if f in live_set:
                ra, rb = _dsu_find(parent, s), _dsu_find(parent, f)
                if ra != rb:
                    parent[ra] = rb
    comp = {}
    for s in live:
        comp.setdefault(_dsu_find(parent, s), set()).add(s)
    return list(comp.values())


def naive_reeb(cx: SimplicialComplex, f: PLFunction) -> ReebGraph:
    crit = sorted({f(v) for v in cx.vertices})
    node_values = {}
    node_of_level = []
    nid = 0
    for t in crit:
        live = [s for s in cx.simplices if range_of(f.values, s)[0] <= t <= range_of(f.values, s)[1]]
        table = {}
        for comp in _components(cx.simplices, live):
            for s in comp:
                table[s] = nid
            node_values[nid] = t
            nid += 1
        node_of_level.append(table)
    edges = []
    for k in range(len(crit) - 1):
        mid = (crit[k] + crit[k + 1]) / 2
        live = [
            s for s in cx.simplices if range_of(f.values, s)[0] <= mid <= range_of(f.values, s)[1]
        ]
        for comp in _components(cx.simplices, live):
            s = next(iter(comp))
            # a simplex spanning the gap meets both adjacent critical levels
            edges.append((node_of_level[k][s], node_of_level[k + 1][s]))
    return ReebGraph(node_values, edges)


@pytest.mark.parametrize("seed", range(25))
def test_compute_reeb_matches_naive_sweep(seed):
    cx, f, _ = random_instance(seed, nverts=7)
    got, _ = compute_reeb(cx, f)
    want = naive_reeb(cx, f)
    assert graph_isomorphic(minimalize(got), minimalize(want))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**20), n=st.integers(3, 12))
def test_compute_reeb_matches_naive_sweep_dense_property(seed, n):
    # as many extra edges and triangles as vertices: repeated values and
    # 2-simplices spanning several levels are common
    cx, f, _ = random_instance(seed, nverts=n, extra_edges=n, triangles=n)
    got, m = compute_reeb(cx, f)
    want = naive_reeb(cx, f)
    assert len(got.nodes) == len(want.nodes)
    assert len(got.edges) == len(want.edges)
    assert graph_isomorphic(minimalize(got), minimalize(want))
    cert = verify_reeb_quotient(m)
    assert cert.ok, cert.summary()
    # every edge spans one gap of the levels, as induced_map requires
    for e in range(len(got.edges)):
        lo, hi = got.edge_range(e)
        assert m.levels[m.levels.index(lo) + 1] == hi


@pytest.mark.parametrize("seed", range(15))
def test_compute_reeb_subdivision_invariant(seed):
    cx, f, _ = random_instance(seed, nverts=6)
    r1, _ = compute_reeb(cx, f)
    sd, f2, _ = barycentric_subdivision(cx, f)
    r2, _ = compute_reeb(sd, f2)
    assert graph_isomorphic(minimalize(r1), minimalize(r2))


def test_reeb_of_point_and_path():
    cx, f = point(F(3))
    r, p = compute_reeb(cx, f)
    assert r.nodes == [0] and r.value(0) == F(3) and not r.edges
    assert verify_reeb_quotient(p).ok

    cx, f = path(5)
    r, p = compute_reeb(cx, f)
    assert r.betti1() == 0
    assert r.value_range() == range_of(f.values, cx.vertices)
    assert verify_reeb_quotient(p).ok


def test_reeb_of_circle_has_one_loop():
    cx, f = circle(6)
    r, p = compute_reeb(cx, f)
    assert r.betti1() == 1
    assert verify_reeb_quotient(p).ok


def test_reeb_of_cylinder_functions():
    cx, f, g = cylinder(8)
    rf, pf = compute_reeb(cx, f)
    assert rf.betti1() == 1
    assert rf.value_range() == (F(-1), F(1))
    assert verify_reeb_quotient(pf).ok
    rg, pg = compute_reeb(cx, g)
    assert rg.betti1() == 0
    assert all(rg.degree(n) <= 2 for n in rg.nodes)
    assert rg.value_range() == (F(-1), F(1))
    assert verify_reeb_quotient(pg).ok


def test_compute_reeb_rejects_disconnected():
    cx = SimplicialComplex.from_simplices([(0, 1), (2, 3)])
    f = PLFunction(cx, {i: F(i) for i in range(4)})
    with pytest.raises(ValueError):
        compute_reeb(cx, f)


def test_reeb_of_graph_is_minimal_and_certified():
    g = ReebGraph({0: F(0), 1: F(1), 2: F(2)}, [(0, 1), (1, 2)])
    r, p = reeb_of_graph(g)
    assert verify_reeb_quotient(p).ok
    assert graph_isomorphic(minimalize(r), minimalize(g)) is not None


def test_graph_identity_map_certified():
    g = ReebGraph({0: F(-1), 1: F(1)}, [(0, 1), (0, 1)])
    m = graph_identity_map(g)
    assert verify_reeb_quotient(m).ok


def _flipped(g: ReebGraph) -> ReebGraph:
    """g under the negated value function: every edge turns upside down."""
    values = {n: -x for n, x in g.node_values.items()}
    return ReebGraph(values, [(hi, lo) for lo, hi in g.edges])


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), nverts=st.integers(3, 5))
def test_minimal_reeb_graph_is_metamorphic_property(seed, nverts):
    cx, f, _ = random_instance(seed, nverts=nverts, value_range=(-4, 4))
    r = minimalize(compute_reeb(cx, f)[0])
    # a vertex relabelling gives an isomorphic graph
    moved, (moved_f,) = relabelled(cx, (f,), random.Random(seed))
    r_moved = minimalize(compute_reeb(moved, moved_f)[0])
    assert graph_isomorphic(r_moved, r) is not None
    # negation gives the flipped graph, with the same distances between
    # the flipped points
    negated = PLFunction(cx, {v: -x for v, x in f.values.items()})
    flipped = _flipped(r)
    r_negated = minimalize(compute_reeb(cx, negated)[0])
    assert graph_isomorphic(r_negated, flipped) is not None
    points = sample_points(r, 1)
    turned = [p if p.is_node else GraphPoint(edge=p.edge, t=-p.t) for p in points]
    assert d_matrix(flipped, turned) == d_matrix(r, points)
