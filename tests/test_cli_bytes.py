"""The CLI's bytes, pinned.

Runs the commands of the CI byte-stability step through cli.main in a
temporary directory and compares the sha256 of every stdout and every
written file against recorded digests.  A change that alters any output
fails here, not only one that differs across hash seeds.  When an output is
meant to change, regenerate the digests with run_commands() in an empty
directory and say why in the change.
"""
import hashlib
import io
import shlex
from contextlib import redirect_stdout

from reebedit.cli import main

COMMANDS = [
    "generate cylinder -n 8 -o f.json --second-output g.json",
    "generate random --seed 3 --nverts 5 -o r0.json --second-output r1.json",
    "generate path -n 3 -o p.json",
    "generate point --value 1/2 -o pt.json",
    "reeb f.json",
    "reeb f.json -o rf.json",
    "reeb f.json --dot",
    "reeb f.json --certify",
    "verify f.json",
    "bound f.json g.json",
    "bound rf.json --point 0",
    "metric rf.json n0 n3",
    "homotopy f.json g.json --certify -o witness.json",
    "homotopy r0.json r1.json --certify -o witness_r.json",
    "distortion -n 8 --csv table.csv",
    "distortion -n 6 --density 4 --csv table4.csv",
]
WRITTEN = [
    "f.json", "g.json", "r0.json", "r1.json", "p.json", "pt.json", "rf.json",
    "witness.json", "witness_r.json", "table.csv", "table4.csv",
]

DIGESTS = {
    "generate cylinder -n 8 -o f.json --second-output g.json": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "generate random --seed 3 --nverts 5 -o r0.json --second-output r1.json": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "generate path -n 3 -o p.json": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "generate point --value 1/2 -o pt.json": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "reeb f.json": "ffc9a96906bf6b5b9a649677ab0e9d5bd61bcfd41398b584707012d271b09538",
    "reeb f.json -o rf.json": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "reeb f.json --dot": "c24fd93e9310caeb3f92b7df3c43019155db28d58863450c1e3fe0f0f781fccd",
    "reeb f.json --certify": "25ae8cd2b99dd38a81a7a00b2b5d1b90622c1d57a03be27c275fc2dbbd36bc2d",
    "verify f.json": "03e9b67942ef28b1312534df663ff74c0ada84fda1dc4e00411972137fc84576",
    "bound f.json g.json": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "bound rf.json --point 0": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "metric rf.json n0 n3": "de7e55cd172f2065828bdd6c2015c5e92fdd6271ab1bd0f30a5e15104e64678d",
    "homotopy f.json g.json --certify -o witness.json": "dd5995b1e55818ad82b76cae43d9b1c5db1a78e4b9c8772177e261497f044b01",
    "homotopy r0.json r1.json --certify -o witness_r.json": "07e97c4103f268aa5afab6181841a77876b19a5d45259ded648e57561e5ab87e",
    "distortion -n 8 --csv table.csv": "552b511269ac056abfa874f7e0b9ceeb7695911a258d2eac46a74691b9b65e1b",
    "distortion -n 6 --density 4 --csv table4.csv": "552b511269ac056abfa874f7e0b9ceeb7695911a258d2eac46a74691b9b65e1b",
    "f.json": "57779573d3ba85ccd1816b33a754486fd7b8614ec6a11d9adacc745051351389",
    "g.json": "24e9edbecd223cca2f232e357e8ff51c47f9df9adaa4c5219af25d7b2bcb8331",
    "r0.json": "8fdc5e889cd5950c942f790becdee79d169f1a6f10394a94a76597404055b2fe",
    "r1.json": "d5a05729081280c9ee2a5a7f1c8884f6f953280e5496ae572d563a6c9d7f126b",
    "p.json": "f91db213c3f45f25b5a31e69121e5beed7197694d87a18c5e2e415dfba46be1c",
    "pt.json": "b167d80c8e8602a27eae759aed4ce3a9b1bbea5d39f767b3eeab06cde704eae2",
    "rf.json": "ffc9a96906bf6b5b9a649677ab0e9d5bd61bcfd41398b584707012d271b09538",
    "witness.json": "cc0af34dc54875362aca237bb8155793ee5ff8aeb1b548775cc4264c5a255f33",
    "witness_r.json": "6f3e87373906a433a8a297ef1caa945b6edebd3a98f1b963ac703305bf0fe1bd",
    "table.csv": "70d432895cef1dd11d1fbde298c001f8d4839ec57cc6d659f968e11c3a49ab63",
    "table4.csv": "e2bbd173c180ea0df89f525d963de1a0eff87e5a1bd1db4e08784a1a3992c6c0",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_commands() -> dict[str, str]:
    """Digest of each command's stdout, keyed by the command, and of each
    file the commands write, keyed by its name; run in the current
    directory."""
    digests = {}
    for command in COMMANDS:
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(shlex.split(command))
        assert code == 0, command
        digests[command] = _sha(out.getvalue().encode())
    for name in WRITTEN:
        with open(name, "rb") as fh:
            digests[name] = _sha(fh.read())
    return digests


def test_cli_outputs_match_the_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_commands() == DIGESTS
