import json

import pytest

from reebedit.cli import main


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


def test_zigzag_command(tmp_path, capsys):
    f_path, g_path = _cyl_files(tmp_path, capsys)
    code, out, _ = _run(capsys, "zigzag", f_path, g_path, "--certify")
    assert code == 0
    assert "zigzag certified" in out
    assert out.strip().endswith("1")


def test_failed_certificate_exits_1(tmp_path, capsys, monkeypatch):
    from reebedit import editdist
    from reebedit.maps import Certificate, Violation

    failed = Certificate(False, (), (Violation("fiber", "split fiber"),))
    monkeypatch.setattr(editdist, "verify_reeb_quotient", lambda m: failed)
    f_path, g_path = _cyl_files(tmp_path, capsys)
    for argv in (("bound", f_path, g_path), ("zigzag", f_path, g_path)):
        code, out, err = _run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "[fiber] split fiber" in err


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
    assert {"lambdas", "graphs", "cost"} <= set(witness)
    assert len(witness["lambdas"]) == len(witness["graphs"])


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
