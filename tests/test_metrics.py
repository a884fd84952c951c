from fractions import Fraction
from itertools import combinations

import pytest

from reebedit.generators import cylinder, random_instance
from reebedit.graphs import GraphPoint, ReebGraph, point_on_edge
from reebedit.metrics import (
    PLGraphMap,
    _cylinder_candidates,
    _map_breakpoints,
    d_f,
    d_matrix,
    distortion,
    sample_points,
)
from reebedit.reeb import compute_reeb

F = Fraction


# -- brute-force oracle for d_f ------------------------------------------------
#
# d_f(x, y) is the least length b - a of a value interval [a, b] whose
# preimage has x and y in one component.  Candidate endpoints can be
# restricted to node values and the two point values, so a full scan over
# (a, b) pairs with an ad-hoc connectivity check is an exact oracle.


def _connected_in_band(g: ReebGraph, x: GraphPoint, y: GraphPoint, a, b) -> bool:
    parent = {}

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    def union(j, k):
        rj, rk = find(j), find(k)
        if rj != rk:
            parent[rj] = rk

    for n, v in g.node_values.items():
        if a <= v <= b:
            parent[("n", n)] = ("n", n)
    for e, (lo, hi) in enumerate(g.edges):
        vl, vh = g.value(lo), g.value(hi)
        if vl <= b and vh >= a:  # the edge meets the band in one subsegment
            key = ("e", e)
            parent[key] = key
            if vl >= a:
                union(key, ("n", lo))
            if vh <= b:
                union(key, ("n", hi))

    def key_of(p: GraphPoint):
        if p.is_node:
            k = ("n", p.node)
        else:
            k = ("e", p.edge)
        return k if k in parent else None

    kx, ky = key_of(x), key_of(y)
    if kx is None or ky is None:
        return False
    if not (a <= x.value(g) <= b and a <= y.value(g) <= b):
        return False
    return find(kx) == find(ky)


def d_f_oracle(g: ReebGraph, x: GraphPoint, y: GraphPoint):
    vx, vy = x.value(g), y.value(g)
    cand = sorted(set(g.node_values.values()) | {vx, vy})
    best = None
    for a in cand:
        if a > min(vx, vy):
            continue
        for b in cand:
            if b < max(vx, vy):
                continue
            if _connected_in_band(g, x, y, a, b):
                if best is None or b - a < best:
                    best = b - a
    assert best is not None, "points must be connectable in a connected graph"
    return best


def _graph_and_points(seed: int):
    cx, f, _ = random_instance(seed, nverts=6)
    r, _ = compute_reeb(cx, f)
    return r, sample_points(r, density=2)


@pytest.mark.parametrize("seed", range(10))
def test_d_matrix_matches_brute_force(seed):
    r, pts = _graph_and_points(seed)
    m = d_matrix(r, pts)
    want = {}
    for i, j in combinations(range(len(pts)), 2):
        want[(i, j)] = d_f_oracle(r, pts[i], pts[j])
        assert m[(i, j)] == want[(i, j)], (seed, pts[i], pts[j])
    # with repeats appended, identical points read 0 from the sweep alone
    index = list(range(len(pts))) + list(range(0, len(pts), 3))
    m = d_matrix(r, [pts[k] for k in index])
    for i, j in combinations(range(len(index)), 2):
        a, b = sorted((index[i], index[j]))
        assert m[(i, j)] == (0 if a == b else want[(a, b)]), (seed, pts[a], pts[b])


@pytest.mark.parametrize("seed", range(5))
def test_d_f_metric_axioms_on_samples(seed):
    r, pts = _graph_and_points(seed)
    pts = pts[:8]
    for x in pts:
        assert d_f(r, x, x) >= abs(F(0))
        for y in pts:
            assert d_f(r, x, y) == d_f(r, y, x)
            assert d_f(r, x, y) >= abs(x.value(r) - y.value(r))
            for z in pts:
                assert d_f(r, x, z) <= d_f(r, x, y) + d_f(r, y, z)


def test_d_f_on_a_circle():
    g = ReebGraph({0: F(-1), 1: F(1)}, [(0, 1), (0, 1)])
    x = point_on_edge(g, 0, F(0))
    y = point_on_edge(g, 1, F(0))
    # same value, but joining them needs to reach a node: interval length 1
    assert d_f(g, x, y) == F(1)
    assert d_f(g, x, x) == F(0)
    assert d_f(g, GraphPoint(node=0), GraphPoint(node=1)) == F(2)


def test_sample_points_include_nodes_and_refine():
    g = ReebGraph({0: F(0), 1: F(1)}, [(0, 1)])
    pts1 = sample_points(g, density=1)
    assert GraphPoint(node=0) in pts1 and GraphPoint(node=1) in pts1
    pts3 = sample_points(g, density=3)
    assert len(pts3) > len(pts1)


def _identity_plmap(g: ReebGraph) -> PLGraphMap:
    vertex_images = {n: GraphPoint(node=n) for n in g.nodes}
    edge_paths = {}
    for e, (lo, hi) in enumerate(g.edges):
        a, b = g.value(lo), g.value(hi)
        mid = (a + b) / 2
        edge_paths[e] = [
            (a, GraphPoint(node=lo)),
            (mid, point_on_edge(g, e, mid)),
            (b, GraphPoint(node=hi)),
        ]
    return PLGraphMap(g, g, vertex_images, edge_paths)


def test_identity_map_zero_distortion_and_tight():
    # on a graph whose sample values are closed under preimages (all edges
    # span the same range), the identity certificate is tight
    r = ReebGraph({0: F(-1), 1: F(1)}, [(0, 1), (0, 1)])
    phi = _identity_plmap(r)
    rep = distortion(phi, phi)
    assert rep.distortion == F(0)
    assert rep.defect_fg == F(0) and rep.defect_gf == F(0)
    assert rep.tight
    assert rep.bound == F(0)


def test_identity_map_zero_distortion_on_random_graph():
    # the sampled maximum is exact here even when the linearity certificate
    # is too conservative to say so (tight may be False on loops whose
    # d-slices kink between sample values)
    cx, f, _ = random_instance(1, nverts=6)
    r, _ = compute_reeb(cx, f)
    phi = _identity_plmap(r)
    rep = distortion(phi, phi)
    assert rep.distortion == F(0)
    assert rep.defect_fg == F(0) and rep.defect_gf == F(0)
    assert rep.bound == F(0)


def test_plgraphmap_value_defect():
    g = ReebGraph({0: F(0), 1: F(1)}, [(0, 1)])
    h = ReebGraph({0: F(0), 1: F(2)}, [(0, 1)])
    vertex_images = {0: GraphPoint(node=0), 1: GraphPoint(node=1)}
    mid_img = point_on_edge(h, 0, F(1))
    edge_paths = {0: [(F(0), GraphPoint(node=0)), (F(1, 2), mid_img),
                      (F(1), GraphPoint(node=1))]}
    phi = PLGraphMap(g, h, vertex_images, edge_paths)
    # worst value change: g-value 1 maps to h-value 2
    assert phi.value_defect() == F(1)


def _cylinder_report(n: int, density: int = 1):
    cx, f, g = cylinder(n)
    phi, psi = _cylinder_candidates(cx, f, g)
    return distortion(phi, psi, density=density)


def test_cylinder_distortion_half_and_tight():
    rep = _cylinder_report(8)
    assert rep.distortion == F(1, 2)
    assert rep.defect_fg == F(0)
    assert rep.defect_gf == F(0)
    assert rep.tight
    assert rep.bound == F(1, 2)


def test_fd_upper_bound_picks_tight_candidate():
    cx, f, g = cylinder(8)
    phi, psi = _cylinder_candidates(cx, f, g)
    r = distortion(phi, psi)
    assert r.tight
    assert r.bound == F(1, 2)


def test_distortion_rejects_a_psi_between_other_graphs():
    phi, psi = _cylinder_candidates(*cylinder(6))
    rf, rg = phi.source, phi.target
    wrong_target = ReebGraph(rf.node_values, [rf.edges[0]])
    wrong_source = ReebGraph(rg.node_values, rg.edges[:-1])
    for bad in (
        PLGraphMap(rg, wrong_target, psi.vertex_images, psi.edge_paths),
        PLGraphMap(wrong_source, rf, psi.vertex_images, psi.edge_paths),
    ):
        with pytest.raises(ValueError, match="psi must map the target graph"):
            distortion(phi, bad)


@pytest.mark.parametrize("n", range(2, 7))
def test_distortion_is_half_the_table_maximum(n):
    phi, psi = _cylinder_candidates(*cylinder(n))
    for density in range(4):
        report = distortion(phi, psi, density=density)
        worst = max(abs(d1 - d2) for *_, d1, d2 in report.rows)
        assert 2 * report.distortion == worst
        for p1, q1, p2, q2, d1, d2 in report.rows:
            assert d1 == d_f(phi.source, p1, p2)
            assert d2 == d_f(phi.target, q1, q2)


# -- sampling on a graph with a node value inside an edge ---------------------
#
# Edge 0 of _FORK runs over [0, 2] and node 2 sits at value 1 on the other
# edge, so 1 is a node value strictly inside edge 0's span.  Per-level
# compute_reeb graphs never have one.

_FORK = ReebGraph({0: F(0), 1: F(2), 2: F(1)}, [(0, 1), (2, 1)])


def _fork_map() -> PLGraphMap:
    # the edge [0, 2] rests on node 0 up to 1/2, climbs to value 3/2 on edge
    # 0 by 3/2 (crossing the node value 1 at 7/6), then ends at node 1
    line = ReebGraph({0: F(0), 1: F(2)}, [(0, 1)])
    path = [
        (F(0), GraphPoint(node=0)),
        (F(1, 2), GraphPoint(node=0)),
        (F(3, 2), GraphPoint(edge=0, t=F(3, 2))),
        (F(2), GraphPoint(node=1)),
    ]
    ends = {0: GraphPoint(node=0), 1: GraphPoint(node=1)}
    return PLGraphMap(line, _FORK, ends, {0: path})


def test_sample_points_add_node_values_inside_an_edge():
    nodes = [GraphPoint(node=n) for n in (0, 1, 2)]
    assert sample_points(_FORK, 0) == nodes + [GraphPoint(edge=0, t=F(1))]


def test_plgraphmap_reads_segment_ends_and_constant_segments():
    phi = _fork_map()
    # at the start of the path, inside the constant segment, and at the end
    # of a segment
    assert phi(GraphPoint(edge=0, t=F(0))) == GraphPoint(node=0)
    assert phi(GraphPoint(edge=0, t=F(1, 4))) == GraphPoint(node=0)
    assert phi(GraphPoint(edge=0, t=F(1, 2))) == GraphPoint(node=0)
    assert phi(GraphPoint(edge=0, t=F(3, 2))) == GraphPoint(edge=0, t=F(3, 2))
    # inside a climbing segment
    assert phi(GraphPoint(edge=0, t=F(7, 6))) == GraphPoint(edge=0, t=F(1))


def test_map_breakpoints_add_node_value_crossings_and_skip_flat_segments():
    # the flat segment adds nothing; the climb crosses value 1 at u = 7/6
    want = [GraphPoint(edge=0, t=u) for u in (F(1, 2), F(7, 6), F(3, 2))]
    assert _map_breakpoints(_fork_map()) == want
