import io
import json
import os
import shlex
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reebedit.cli import main
from reebedit.generators import random_instance
from reebedit.plcore import format_scalar
from reebedit.reeb import compute_reeb
from reebedit.serialize import graph_to_dict, instance_to_dict


def _run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_generate_cylinder_to_files(tmp_path, capsys):
    f_path = tmp_path / "f.json"
    g_path = tmp_path / "g.json"
    code, out, err = _run(
        capsys, "generate", "cylinder", "-n", "8",
        "-o", str(f_path), "--second-output", str(g_path),
    )
    assert code == 0
    data = json.loads(f_path.read_text())
    assert {"vertices", "simplices"} <= set(data)
    assert g_path.exists()


def test_generate_stdout_byte_stable(capsys):
    code1, out1, _ = _run(capsys, "generate", "random", "--seed", "3")
    code2, out2, _ = _run(capsys, "generate", "random", "--seed", "3")
    assert code1 == code2 == 0
    assert out1 == out2


def test_generate_second_output_rejected_for_single_function(tmp_path, capsys):
    code, _, err = _run(
        capsys, "generate", "circle", "--second-output", str(tmp_path / "g.json")
    )
    assert code == 2
    assert "single function" in err


def _cyl_files(tmp_path, capsys):
    f_path = tmp_path / "f.json"
    g_path = tmp_path / "g.json"
    code, _, _ = _run(
        capsys, "generate", "cylinder", "-n", "8",
        "-o", str(f_path), "--second-output", str(g_path),
    )
    assert code == 0
    return str(f_path), str(g_path)


def test_reeb_json_and_dot(tmp_path, capsys):
    f_path, _ = _cyl_files(tmp_path, capsys)
    code, out, _ = _run(capsys, "reeb", f_path)
    assert code == 0
    graph = json.loads(out)
    assert len(graph["edges"]) - len(graph["nodes"]) + 1 == 1  # one loop
    code, out, _ = _run(capsys, "reeb", f_path, "--dot")
    assert code == 0
    assert out.startswith("graph")


def test_reeb_dot_to_file(tmp_path, capsys):
    f_path, _ = _cyl_files(tmp_path, capsys)
    code, want, _ = _run(capsys, "reeb", f_path, "--dot")
    assert code == 0
    dot_path = tmp_path / "rf.dot"
    code, out, _ = _run(capsys, "reeb", f_path, "--dot", "-o", str(dot_path))
    assert (code, out) == (0, "")
    assert dot_path.read_text() == want


def test_reeb_certify(tmp_path, capsys):
    f_path, _ = _cyl_files(tmp_path, capsys)
    code, out, _ = _run(capsys, "reeb", f_path, "--certify")
    assert code == 0
    assert "certified" in out


def test_verify_exit_code(tmp_path, capsys):
    f_path, _ = _cyl_files(tmp_path, capsys)
    code, out, _ = _run(capsys, "verify", f_path)
    assert code == 0
    assert "certified" in out


def test_metric_between_points(tmp_path, capsys):
    f_path, _ = _cyl_files(tmp_path, capsys)
    r_path = tmp_path / "rf.json"
    code, out, _ = _run(capsys, "reeb", f_path, "-o", str(r_path))
    assert code == 0
    graph = json.loads(r_path.read_text())
    lo = min(graph["nodes"], key=lambda n: eval_frac(n["value"]))["id"]
    hi = max(graph["nodes"], key=lambda n: eval_frac(n["value"]))["id"]
    code, out, _ = _run(capsys, "metric", str(r_path), f"n{lo}", f"n{hi}")
    assert code == 0
    assert out.strip() == "2"


def test_metric_rejects_edge_ids_out_of_range(tmp_path, capsys):
    f_path, _ = _cyl_files(tmp_path, capsys)
    r_path = tmp_path / "rf.json"
    _run(capsys, "reeb", f_path, "-o", str(r_path))
    nedges = len(json.loads(r_path.read_text())["edges"])
    for edge in (nedges, 99, -1):
        code, out, err = _run(capsys, "metric", str(r_path), f"e{edge}@5/6", "n0")
        assert (code, out) == (2, "")
        assert err == f"error: no edge {edge}\n"


def test_metric_reads_a_point_on_an_edge(tmp_path, capsys):
    f_path, _ = _cyl_files(tmp_path, capsys)
    r_path = tmp_path / "rf.json"
    _run(capsys, "reeb", f_path, "-o", str(r_path))
    graph = json.loads(r_path.read_text())
    value = {n["id"]: eval_frac(n["value"]) for n in graph["nodes"]}
    lo, hi = graph["edges"][0]
    mid = (value[lo] + value[hi]) / 2
    point = f"e0@{format_scalar(mid)}"
    code, out, _ = _run(capsys, "metric", str(r_path), point, f"n{lo}")
    assert code == 0
    assert eval_frac(out.strip()) == mid - value[lo]
    # a value at an end of the edge is that end node
    for end in (lo, hi):
        at_end = f"e0@{format_scalar(value[end])}"
        for other in (lo, hi):
            _, by_edge, _ = _run(capsys, "metric", str(r_path), at_end, f"n{other}")
            _, by_node, _ = _run(capsys, "metric", str(r_path), f"n{end}", f"n{other}")
            assert by_edge == by_node


@pytest.mark.parametrize(
    "point, message",
    [
        ("n99", "error: no node 99\n"),
        ("x1", "error: point syntax: n<id> or e<edge>@<value>, got 'x1'\n"),
        ("e0", "error: point syntax: n<id> or e<edge>@<value>, got 'e0'\n"),
    ],
)
def test_metric_rejects_a_missing_node_and_malformed_points(
    point, message, tmp_path, capsys
):
    f_path, _ = _cyl_files(tmp_path, capsys)
    r_path = tmp_path / "rf.json"
    _run(capsys, "reeb", f_path, "-o", str(r_path))
    code, out, err = _run(capsys, "metric", str(r_path), "n0", point)
    assert (code, out, err) == (2, "", message)


def eval_frac(s: str):
    from fractions import Fraction

    return Fraction(s)


def test_bound_commands(tmp_path, capsys):
    f_path, g_path = _cyl_files(tmp_path, capsys)
    code, out, _ = _run(capsys, "bound", f_path, g_path)
    assert code == 0
    assert out.strip() == "1"
    # missing second instance is a usage error
    code, _, err = _run(capsys, "bound", f_path)
    assert code == 2


def test_bound_point_mode(tmp_path, capsys):
    f_path, _ = _cyl_files(tmp_path, capsys)
    r_path = tmp_path / "rf.json"
    _run(capsys, "reeb", f_path, "-o", str(r_path))
    code, out, _ = _run(capsys, "bound", str(r_path), "--point", "0")
    assert code == 0
    assert out.strip() == "1"


def test_bound_point_mode_rejects_a_second_instance(tmp_path, capsys):
    f_path, g_path = _cyl_files(tmp_path, capsys)
    missing = str(tmp_path / "missing.json")
    # rejected before anything is loaded: a missing graph file is not read
    code, out, err = _run(capsys, "bound", missing, g_path, "--point", "0")
    assert (code, out) == (2, "")
    assert "not both" in err


def test_bound_point_mode_rejects_a_disconnected_graph(tmp_path, capsys):
    # the fiber over the point would be the whole graph, and fibers are
    # connected: no coupling to a point graph exists
    two = tmp_path / "two_nodes.json"
    two.write_text(json.dumps({
        "nodes": [{"id": 0, "value": "0"}, {"id": 1, "value": "1"}],
        "edges": [],
    }))
    code, out, err = _run(capsys, "bound", str(two), "--point", "0")
    assert (code, out) == (2, "")
    assert "disconnected" in err


def test_failed_certificate_exits_1(tmp_path, capsys, monkeypatch):
    from reebedit import editdist
    from reebedit.maps import Certificate, Violation

    failed = Certificate(False, (), (Violation("fiber", "split fiber"),))
    monkeypatch.setattr(editdist, "verify_reeb_quotient", lambda m: failed)
    f_path, g_path = _cyl_files(tmp_path, capsys)
    code, out, err = _run(capsys, "bound", f_path, g_path)
    assert (code, out) == (1, "")
    assert "[fiber] split fiber" in err


def test_failed_reeb_certificate_exits_1_before_writing(tmp_path, capsys, monkeypatch):
    from reebedit import cli
    from reebedit.maps import Certificate, Violation

    failed = Certificate(False, (), (Violation("fiber", "split fiber"),))
    monkeypatch.setattr(cli, "verify_reeb_quotient", lambda m: failed)
    f_path, _ = _cyl_files(tmp_path, capsys)
    r_path = tmp_path / "rf.json"
    code, out, err = _run(capsys, "reeb", f_path, "--certify", "-o", str(r_path))
    assert (code, out, err) == (1, "FAILED:\n[fiber] split fiber\n", "")
    assert not r_path.exists()
    code, out, _ = _run(capsys, "reeb", f_path, "--certify")
    assert (code, out) == (1, "FAILED:\n[fiber] split fiber\n")


def test_distortion_command(tmp_path, capsys):
    csv_path = tmp_path / "table.csv"
    code, out, _ = _run(
        capsys, "distortion", "-n", "8", "--csv", str(csv_path)
    )
    assert code == 0
    assert "bound = 1/2" in out
    assert "tight = True" in out
    header = csv_path.read_text().splitlines()[0]
    assert header == "p1,q1,p2,q2,d_f,d_g,defect"


def test_malformed_arguments_exit_2_before_writing(tmp_path, capsys):
    csv_path = tmp_path / "table.csv"
    code, out, err = _run(
        capsys, "distortion", "-n", "3", "--density", "-2", "--csv", str(csv_path)
    )
    assert (code, out) == (2, "")
    assert "density must be non-negative" in err
    assert not csv_path.exists()
    f_path, g_path = tmp_path / "a.json", tmp_path / "b.json"
    code, out, err = _run(
        capsys, "generate", "circle", "-o", str(f_path), "--second-output", str(g_path)
    )
    assert (code, out) == (2, "")
    assert "single function" in err
    assert not f_path.exists() and not g_path.exists()


def test_homotopy_command(tmp_path, capsys):
    f_path = tmp_path / "f.json"
    g_path = tmp_path / "g.json"
    _run(capsys, "generate", "random", "--seed", "1", "--nverts", "4",
         "-o", str(f_path), "--second-output", str(g_path))
    w_path = tmp_path / "witness.json"
    code, out, _ = _run(
        capsys, "homotopy", str(f_path), str(g_path), "--certify",
        "-o", str(w_path),
    )
    assert code == 0
    assert "cost <= ||f-g||: OK" in out
    witness = json.loads(w_path.read_text())
    assert set(witness) == {
        "lambdas", "graphs", "cost", "witness_vertex", "stage_gaps"
    }
    assert len(witness["lambdas"]) == len(witness["graphs"])


@pytest.mark.parametrize("command", ["distortion", "homotopy", "reeb"])
def test_unwritable_output_exits_2_with_nothing_printed(command, tmp_path, capsys):
    # each command writes its file before it prints its report
    f_path, g_path = _cyl_files(tmp_path, capsys)
    missing = str(tmp_path / "missing" / "out")
    argv = {
        "distortion": ("distortion", "-n", "4", "--csv", missing),
        "homotopy": ("homotopy", f_path, g_path, "-o", missing),
        "reeb": ("reeb", f_path, "--certify", "-o", missing),
    }[command]
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: [Errno 2]")


@pytest.mark.parametrize("to_file", [True, False])
def test_unwritable_second_output_writes_neither_instance(to_file, tmp_path, capsys):
    f_path = tmp_path / "f.json"
    missing = str(tmp_path / "missing" / "g.json")
    argv = ["generate", "cylinder", "-n", "4", "--second-output", missing]
    if to_file:
        argv += ["-o", str(f_path)]
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: [Errno 2]")
    assert list(tmp_path.iterdir()) == []


def test_reeb_certify_to_file(tmp_path, capsys):
    f_path, _ = _cyl_files(tmp_path, capsys)
    code, want, _ = _run(capsys, "reeb", f_path, "--certify")
    r_path = tmp_path / "rf.json"
    code, out, _ = _run(capsys, "reeb", f_path, "--certify", "-o", str(r_path))
    assert code == 0
    report, text = want.split("\n", 1)
    assert out == report + "\n"
    assert r_path.read_text() == text


def test_homotopy_witness_lambdas_are_breakpoints(tmp_path, capsys):
    f_path = tmp_path / "f.json"
    g_path = tmp_path / "g.json"
    _run(capsys, "generate", "cylinder", "-n", "4",
         "-o", str(f_path), "--second-output", str(g_path))
    w_path = tmp_path / "witness.json"
    code, _, _ = _run(
        capsys, "homotopy", str(f_path), str(g_path), "-o", str(w_path)
    )
    assert code == 0
    witness = json.loads(w_path.read_text())
    assert witness["lambdas"] == ["0", "2/5", "2/3", "6/7", "1"]
    assert witness["stage_gaps"] == ["2/5", "4/15", "4/21", "1/7"]
    assert witness["cost"] == "1"


def test_usage_errors(tmp_path, capsys):
    code, _, _ = _run(capsys, "reeb", str(tmp_path / "missing.json"))
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = _run(capsys, "reeb", str(bad))
    assert code == 2
    assert "parse error" in err
    code, _, _ = _run(capsys, "no-such-command")
    assert code == 2
    bad_id = tmp_path / "bad_id.json"
    for vid, simplex in ((1, [0, "x"]), (1, [0, True]), (1.5, [0, 1])):
        bad_id.write_text(json.dumps({
            "vertices": [{"id": 0, "value": "0"}, {"id": vid, "value": "1"}],
            "simplices": [simplex],
        }))
        code, _, err = _run(capsys, "reeb", str(bad_id))
        assert code == 2
        assert "malformed instance" in err
    bad_graph = tmp_path / "bad_graph.json"
    for nid, edge in (
        (1.9, [0, 1]), (True, [0, 1]), (1, [0, True]), (1, [0, "1"]), (1, [0, 1, 7]),
    ):
        bad_graph.write_text(json.dumps({
            "nodes": [{"id": 0, "value": "0"}, {"id": nid, "value": "1"}],
            "edges": [edge],
        }))
        code, out, err = _run(capsys, "metric", str(bad_graph), "n0", "n1")
        assert code == 2
        assert out == ""
        assert "malformed graph" in err
    big = tmp_path / "big.json"
    big.write_text(json.dumps({
        "vertices": [{"id": v, "value": str(v)} for v in range(5)],
        "simplices": [[0, 1, 2, 3, 4]],
    }))
    code, _, err = _run(capsys, "reeb", str(big))
    assert code == 2
    assert "malformed instance: simplex dimension above 3" in err
    empty = tmp_path / "empty.json"
    for simplex in ([], {}, ""):
        empty.write_text(json.dumps({
            "vertices": [{"id": 0, "value": "0"}, {"id": 1, "value": "1"}],
            "simplices": [[0, 1], simplex],
        }))
        code, out, err = _run(capsys, "reeb", str(empty))
        assert code == 2
        assert out == ""
        assert "malformed instance: empty simplex" in err


def test_graph_without_nodes_is_a_usage_error(tmp_path, capsys):
    empty = tmp_path / "empty_graph.json"
    empty.write_text(json.dumps({"nodes": [], "edges": []}))
    for argv in (
        ("bound", str(empty), "--point", "0"),
        ("metric", str(empty), "n0", "n0"),
    ):
        code, out, err = _run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: malformed graph: no nodes\n"


def test_pair_commands_reject_two_complexes(tmp_path, capsys):
    f_path, _ = _cyl_files(tmp_path, capsys)
    other = tmp_path / "other.json"
    cx, f, _ = random_instance(2, nverts=5)
    other.write_text(json.dumps(instance_to_dict(cx, f)))
    for argv, what in (
        (("bound", f_path, str(other)), "coupling bound"),
        (("homotopy", f_path, str(other)), "homotopy"),
    ):
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"{what} needs two functions on one complex\n"


SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(allow_nan=False)
    | st.text(max_size=3)
)
NON_ITERABLE = st.none() | st.booleans() | st.integers(-3, 3) | st.floats()
NOT_INT = (
    st.none()
    | st.booleans()
    | st.floats()
    | st.text(max_size=3)
    | st.lists(SCALARS, max_size=2)
    | st.dictionaries(st.text(max_size=2), SCALARS, max_size=2)
)
BAD_VALUE = (
    st.none()
    | st.booleans()
    | st.floats()
    | st.lists(SCALARS, max_size=2)
    | st.dictionaries(st.text(max_size=2), SCALARS, max_size=2)
    | st.sampled_from(["", "x", "1/0", "-3/0", "nan", "inf", "--1", "1/2/3"])
)
TOP_LEVEL = SCALARS | st.lists(SCALARS, max_size=3)


def _malform_entries(draw, data, entries_key):
    """Break one id/value entry list of an instance or graph dict."""
    entries = data[entries_key]
    i = draw(st.integers(0, len(entries) - 1))
    kind = draw(st.sampled_from(["entry", "key", "id", "value", "duplicate"]))
    if kind == "entry":
        entries[i] = draw(SCALARS | st.lists(SCALARS, max_size=2))
    elif kind == "key":
        del entries[i][draw(st.sampled_from(["id", "value"]))]
    elif kind == "id":
        entries[i]["id"] = draw(NOT_INT)
    elif kind == "value":
        entries[i]["value"] = draw(BAD_VALUE)
    else:
        entries.append({"id": entries[i]["id"], "value": "0"})


@st.composite
def malformed_instances(draw):
    cx, f, _ = random_instance(draw(st.integers(0, 99)), nverts=5)
    data = instance_to_dict(cx, f)
    ids = sorted(v["id"] for v in data["vertices"])
    simplices = data["simplices"]
    j = draw(st.integers(0, len(simplices) - 1))
    kind = draw(st.sampled_from([
        "top", "missing", "container", "entries", "simplex",
        "simplex vertex", "unknown vertex", "repeated vertex", "dimension",
        "empty simplex",
    ]))
    if kind == "top":
        return draw(TOP_LEVEL)
    if kind == "missing":
        del data[draw(st.sampled_from(["vertices", "simplices"]))]
    elif kind == "container":
        data[draw(st.sampled_from(["vertices", "simplices"]))] = draw(NON_ITERABLE)
    elif kind == "entries":
        _malform_entries(draw, data, "vertices")
    elif kind == "simplex":
        simplices[j] = draw(NON_ITERABLE)
    elif kind == "simplex vertex":
        simplices[j][draw(st.integers(0, len(simplices[j]) - 1))] = draw(NOT_INT)
    elif kind == "unknown vertex":
        simplices.append([ids[0], ids[-1] + 1])
    elif kind == "repeated vertex":
        simplices.append([ids[j % len(ids)]] * 2)
    elif kind == "empty simplex":
        simplices[j] = draw(st.sampled_from([[], {}, ""]))
    else:
        simplices.append(ids[:5])
    return data


@st.composite
def malformed_graphs(draw):
    cx, f, _ = random_instance(draw(st.integers(0, 99)), nverts=4)
    data = graph_to_dict(compute_reeb(cx, f)[0])
    edges = data["edges"]
    assume(edges)
    j = draw(st.integers(0, len(edges) - 1))
    kind = draw(st.sampled_from([
        "top", "missing", "container", "entries", "edge", "edge length",
        "endpoint", "unknown endpoint", "reversed", "loop",
    ]))
    if kind == "top":
        return draw(TOP_LEVEL)
    if kind == "missing":
        del data[draw(st.sampled_from(["nodes", "edges"]))]
    elif kind == "container":
        data[draw(st.sampled_from(["nodes", "edges"]))] = draw(NON_ITERABLE)
    elif kind == "entries":
        _malform_entries(draw, data, "nodes")
    elif kind == "edge":
        edges[j] = draw(NON_ITERABLE | st.text(max_size=3) | st.dictionaries(
            st.text(max_size=2), SCALARS, max_size=2))
    elif kind == "edge length":
        edges[j] = draw(st.sampled_from([[], edges[j][:1], edges[j] + edges[j][:1]]))
    elif kind == "endpoint":
        edges[j][draw(st.integers(0, 1))] = draw(NOT_INT)
    elif kind == "unknown endpoint":
        edges[j][1] = max(n["id"] for n in data["nodes"]) + 1
    elif kind == "reversed":
        edges[j] = edges[j][::-1]
    else:
        edges[j] = [edges[j][0]] * 2
    return data


def _main_on_json(data, *argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([a.replace("{}", path) for a in argv])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(malformed_instances())
def test_malformed_instance_json_exits_2_property(data):
    code, out, err = _main_on_json(data, "reeb", "{}")
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


@settings(max_examples=300, deadline=None)
@given(malformed_graphs())
def test_malformed_graph_json_exits_2_property(data):
    code, out, err = _main_on_json(data, "bound", "{}", "--point", "0")
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def _readme_commands() -> list[list[str]]:
    """The argument lists of the README's "Command line" block, in order."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines()]


def test_readme_command_line_examples_exit_0(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert len(commands) >= 8
    for argv in commands:
        assert argv[0] == "reebedit"
        code, _, err = _run(capsys, *argv[1:])
        assert (argv, code, err) == (argv, 0, "")
