import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reebedit.generators import cylinder, random_instance
from reebedit.graphs import ReebGraph
from reebedit.plcore import PLFunction, SimplicialComplex
from reebedit.reeb import compute_reeb
from reebedit.serialize import (
    dump_json,
    graph_from_dict,
    graph_to_dict,
    graph_to_dot,
    instance_from_dict,
    instance_to_dict,
    load_json,
)

F = Fraction


@pytest.mark.parametrize("seed", range(5))
def test_instance_round_trip(seed):
    cx, f, _ = random_instance(seed, nverts=6)
    data = instance_to_dict(cx, f)
    cx2, f2 = instance_from_dict(data)
    assert cx2.simplices == cx.simplices
    assert f2.values == f.values


def test_graph_round_trip():
    cx, f, _ = random_instance(2, nverts=6)
    r, _ = compute_reeb(cx, f)
    r2 = graph_from_dict(graph_to_dict(r))
    assert r2.node_values == r.node_values
    assert r2.edges == r.edges


def test_dump_is_byte_stable(tmp_path):
    cx, f, _ = random_instance(0, nverts=5)
    data = instance_to_dict(cx, f)
    a = dump_json(data, str(tmp_path / "a.json"))
    b = dump_json(data, str(tmp_path / "b.json"))
    assert a == b
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert a.endswith("\n")


def test_load_json_reports_position(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"vertices": [}\n')
    with pytest.raises(ValueError, match="line 1"):
        load_json(str(p))


def test_round_trip_through_file(tmp_path):
    cx, f, g = cylinder(8)
    p = tmp_path / "cyl.json"
    dump_json(instance_to_dict(cx, f), str(p))
    cx2, f2 = instance_from_dict(load_json(str(p)))
    assert cx2.simplices == cx.simplices
    assert f2.values == f.values


def test_instance_from_dict_rejects_missing_values():
    with pytest.raises(ValueError):
        instance_from_dict(
            {"vertices": [{"id": 0, "value": "0"}], "simplices": [[0, 1]]}
        )


def test_graph_to_dot_contains_all_cells():
    g = ReebGraph({0: F(-1), 1: F(1)}, [(0, 1), (0, 1)])
    dot = graph_to_dot(g)
    assert dot.startswith("graph")
    assert dot.count("n0 -- n1;") == 2
    assert '"0: -1"' in dot and '"1: 1"' in dot


def test_exact_fractions_survive_the_trip():
    g = ReebGraph({0: F(-8, 3), 1: F(5, 7)}, [(0, 1)])
    r2 = graph_from_dict(graph_to_dict(g))
    assert r2.node_values == {0: F(-8, 3), 1: F(5, 7)}


FRACTIONS = st.builds(F, st.integers(-50, 50), st.integers(1, 7))


@st.composite
def instances(draw):
    ids = draw(st.lists(st.integers(-20, 40), min_size=2, max_size=7, unique=True))
    simplices = draw(
        st.lists(
            st.lists(st.sampled_from(ids), min_size=2, max_size=4, unique=True),
            max_size=6,
        )
    )
    cx = SimplicialComplex.from_simplices([(v,) for v in ids] + simplices)
    return cx, PLFunction(cx, {v: draw(FRACTIONS) for v in ids})


@st.composite
def graphs(draw):
    ids = draw(st.lists(st.integers(-20, 40), min_size=1, max_size=6, unique=True))
    values = {n: draw(FRACTIONS) for n in ids}
    pairs = [(a, b) for a in ids for b in ids if values[a] < values[b]]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=6)) if pairs else []
    return ReebGraph(values, edges)


@settings(max_examples=60, deadline=None)
@given(instances())
def test_instance_json_round_trip_property(inst):
    cx, f = inst
    data = instance_to_dict(cx, f)
    cx2, f2 = instance_from_dict(json.loads(dump_json(data, None)))
    assert cx2.simplices == cx.simplices
    assert f2.values == f.values
    again = instance_to_dict(cx2, f2)
    assert again["vertices"] == data["vertices"]
    assert sorted(again["simplices"]) == sorted(data["simplices"])


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_graph_json_round_trip_property(g):
    data = graph_to_dict(g)
    g2 = graph_from_dict(json.loads(dump_json(data, None)))
    assert g2.node_values == g.node_values
    assert g2.edges == g.edges
    assert graph_to_dict(g2) == data
