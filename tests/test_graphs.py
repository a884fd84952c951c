from fractions import Fraction

import pytest

from reebedit.graphs import (
    GraphPoint,
    ReebGraph,
    complexify,
    graph_isomorphic,
    minimalize,
    point_on_edge,
)

from oracles import half_containing

F = Fraction


def _circle():
    # two nodes at -1 and 1 joined by two parallel edges
    return ReebGraph({0: F(-1), 1: F(1)}, [(0, 1), (0, 1)])


def test_basic_queries():
    g = _circle()
    assert g.nodes == [0, 1]
    assert g.value(0) == F(-1)
    assert g.edge_range(0) == (F(-1), F(1))
    assert g.degree(0) == 2
    assert g.up_edges(0) == [0, 1]
    assert g.down_edges(1) == [0, 1]
    assert g.value_range() == (F(-1), F(1))
    assert g.is_connected()
    assert g.betti1() == 1


def test_flat_edges_rejected():
    with pytest.raises(ValueError):
        ReebGraph({0: F(0), 1: F(0)}, [(0, 1)])


def test_graph_point_values():
    g = _circle()
    p = point_on_edge(g, 0, F(0))
    assert not p.is_node
    assert p.value(g) == F(0)
    q = GraphPoint(node=1)
    assert q.is_node and q.value(g) == F(1)


def test_complexify_round_trip():
    g = _circle()
    gc = complexify(g)
    # each edge splits into two halves around a midpoint vertex
    assert len([s for s in gc.complex.simplices if len(s) == 2]) == 4
    for n in g.nodes:
        assert gc.values[gc.node_vertex[n]] == g.value(n)
    for e in range(len(g.edges)):
        lh, rh = (half_containing(gc, e, t) for t in g.edge_range(e))
        assert len(lh) == 2 and len(rh) == 2 and lh != rh
        assert gc.values[gc.mid_vertex[e]] == F(0)
        assert gc.host[lh] == ("e", e) and gc.host[rh] == ("e", e)
    assert half_containing(gc, 0, F(-1, 2)) == half_containing(gc, 0, F(-1))


def test_minimalize_smooths_degree_two_nodes():
    g = ReebGraph(
        {0: F(0), 1: F(1), 2: F(2), 3: F(3)},
        [(0, 1), (1, 2), (2, 3)],
    )
    m = minimalize(g)
    assert len(m.nodes) == 2
    assert m.value_range() == (F(0), F(3))
    # a minimal graph is a fixed point
    assert graph_isomorphic(m, minimalize(m)) is not None


def test_minimalize_keeps_branch_nodes():
    g = ReebGraph(
        {0: F(0), 1: F(1), 2: F(2), 3: F(2)},
        [(0, 1), (1, 2), (1, 3)],
    )
    assert len(minimalize(g).nodes) == 4


def test_graph_isomorphic_respects_values_and_multiplicity():
    a = _circle()
    b = ReebGraph({5: F(1), 7: F(-1)}, [(7, 5), (7, 5)])
    iso = graph_isomorphic(a, b)
    assert iso is not None
    assert all(a.value(n) == b.value(m) for n, m in iso.items())
    # a single edge is not isomorphic to a doubled one
    c = ReebGraph({0: F(-1), 1: F(1)}, [(0, 1)])
    assert graph_isomorphic(a, c) is None
    # value mismatch
    d = ReebGraph({0: F(-1), 1: F(2)}, [(0, 1), (0, 1)])
    assert graph_isomorphic(a, d) is None
