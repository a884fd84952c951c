"""The four benchmark workloads.

An op is one certified result.  Each workload turns the run seed into a pool
of instances with the library's own generators, writes them as JSON where
a CLI command takes them, runs one op at a time, and checks every output
through numbering-free facts: exit codes, exact printed values, certificate
lines, the bounds ||f-g|| and the triangle inequality, and Reeb-graph
invariants from `oracle.py`.  For the default seed the exact costs, bounds
and invariants are also compared with `answers.json`.

Instance sizes are stratified: each block of the pool holds one instance
from every stratum, in seed-shuffled order, so that every run covers the
same size mix and its medians do not hinge on which sizes a seed happened
to draw.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction

from oracle import graph_invariants, reeb_invariants

DEFAULT_SEED = 0
WARMUP_SEED = 12345


def stratified(rng: random.Random, strata: list, blocks: int) -> list:
    order = []
    for _ in range(blocks):
        block = list(strata)
        rng.shuffle(block)
        order.extend(block)
    return order


def run_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def values_of(data: dict) -> dict:
    return {int(v["id"]): Fraction(v["value"]) for v in data["vertices"]}


def write_json(path: str, data) -> str:
    with open(path, "w") as fh:
        json.dump(data, fh)
    return path


def breakpoints(f: dict, g: dict) -> set:
    """Parameters t in (0, 1) where two vertices swap order under
    (1 - t) f + t g."""
    out = set()
    verts = sorted(f)
    for i, v in enumerate(verts):
        for w in verts[i + 1:]:
            df, dg = f[v] - f[w], g[v] - g[w]
            if df != dg and 0 < df / (df - dg) < 1:
                out.add(df / (df - dg))
    return out


def sup_norm(f: dict, g: dict) -> Fraction:
    return max(abs(f[v] - g[v]) for v in f)


def extreme_gap(f: dict, g: dict) -> Fraction:
    """max(|max f - max g|, |min f - min g|): every coupling or zigzag of the
    two Reeb graphs links a maximum (minimum) of one to some point of the
    other, so its cost is at least this."""
    fv, gv = list(f.values()), list(g.values())
    return max(abs(max(fv) - max(gv)), abs(min(fv) - min(gv)))


class Workload:
    name = ""
    strata: list[tuple] = []  # interpreted by `make`
    blocks = 0
    trace_blocks = 0
    params = ""

    def __init__(self, rb, seed: int, workdir: str, answers: dict | None):
        self.rb = rb
        self.cli = rb.cli
        self.workdir = workdir
        rng = random.Random(f"{self.name}:{seed}")
        self.specs = [self.make(i, stratum, rng.randrange(1 << 30))
                      for i, stratum in enumerate(
                          stratified(rng, self.strata, self.blocks))]
        self.answers = answers.get(self.name) if answers else None
        self._expected: dict[int, dict] = {}
        # the warm-up op is the same for every seed, so set-up time is too
        self.warmup = self.make(-1, self.strata[0], WARMUP_SEED)

    @property
    def trace_plan(self) -> list:
        return self.specs[: self.trace_blocks * len(self.strata)]

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def make(self, i: int, stratum: tuple, iseed: int) -> dict:
        """Spec i: an instance from `stratum`, drawn with seed `iseed`."""
        raise NotImplementedError

    def run(self, spec: dict):
        raise NotImplementedError

    def expect(self, spec: dict) -> dict:
        raise NotImplementedError

    def expected(self, spec: dict) -> dict:
        i = spec["index"]
        if i not in self._expected:
            exp = self.expect(spec)
            if self.answers is not None and i >= 0:
                exp["answer"] = self.answers[i]
            self._expected[i] = exp
        return self._expected[i]

    def check(self, spec: dict, out, exp: dict) -> list[str]:
        raise NotImplementedError

    def corrupt(self, exp: dict) -> dict:
        """A deliberately wrong copy of an expected answer (self-test)."""
        raise NotImplementedError

    def answer(self, spec: dict, out):
        """The exact part of an output recorded in answers.json."""
        return None


class CylinderGap(Workload):
    name = "cylinder-gap"
    why = ("cylinder(n): bound must be 1, distortion 1/2; many levels with "
           "few simplices each, so the level sweep dominates")
    params = "cylinder(n), n in strata [5-6, 7-8, 9-10, 11-12, 13-14]; distortion --density 4"
    strata = [(5, 6), (7, 8), (9, 10), (11, 12), (13, 14)]
    blocks = 32
    trace_blocks = 2

    def make(self, i, stratum, iseed):
        n = random.Random(iseed).randint(*stratum)
        f_path, g_path = self.path(f"cyl{n}-f.json"), self.path(f"cyl{n}-g.json")
        if not os.path.exists(f_path):
            cx, f, g = self.rb.cylinder(n)
            write_json(f_path, self.rb.serialize.instance_to_dict(cx, f))
            write_json(g_path, self.rb.serialize.instance_to_dict(cx, g))
        return {"index": i, "n": n, "f": f_path, "g": g_path}

    def run(self, spec):
        bound = run_cli(self.cli, ["bound", spec["f"], spec["g"]])
        dist = run_cli(self.cli, ["distortion", "-n", str(spec["n"]),
                                  "--density", "4"])
        return bound, dist

    def expect(self, spec):
        return {"bound": "1",
                "distortion": {"distortion D": "1/2", "defect f->g": "0",
                               "defect g->f": "0", "bound": "1/2",
                               "tight": "True"}}

    def check(self, spec, out, exp):
        (rc1, text1, _), (rc2, text2, _) = out
        problems = []
        if rc1 != 0 or rc2 != 0:
            problems.append(f"exit codes {rc1}, {rc2}")
        if text1.strip() != exp["bound"]:
            problems.append(f"bound printed {text1.strip()!r}, want {exp['bound']}")
        report = dict(line.rsplit(" = ", 1) for line in text2.splitlines()
                      if " = " in line)
        if report != exp["distortion"]:
            problems.append(f"distortion report {report}, want {exp['distortion']}")
        return problems

    def corrupt(self, exp):
        return {**exp, "bound": "2"}


class CertifyDense(Workload):
    name = "certify-dense"
    why = ("reeb --certify on random_instance(nverts=extra_edges=triangles=N): "
           "few levels, many simplices per level, so certification dominates")
    params = "random_instance(s, nverts=N, extra_edges=N, triangles=N), N in strata [20-23, ..., 36-39]"
    strata = [(20, 23), (24, 27), (28, 31), (32, 35), (36, 39)]
    blocks = 32
    trace_blocks = 2

    def make(self, i, stratum, iseed):
        n = random.Random(iseed).randint(*stratum)
        cx, f, _ = self.rb.random_instance(iseed, nverts=n, extra_edges=n,
                                           triangles=n)
        data = self.rb.serialize.instance_to_dict(cx, f)
        return {"index": i, "n": n, "data": data,
                "path": write_json(self.path(f"dense{i}.json"), data),
                "out": self.path("dense-out.json")}

    def run(self, spec):
        return run_cli(self.cli, ["reeb", spec["path"], "--certify",
                                  "-o", spec["out"]])

    def expect(self, spec):
        data = spec["data"]
        return {"invariants": reeb_invariants(values_of(data),
                                              data["simplices"])}

    def check(self, spec, out, exp):
        rc, text, _ = out
        if rc != 0:
            return [f"exit code {rc}"]
        if not text.startswith("certified:"):
            return [f"certificate line {text.splitlines()[:1]!r}"]
        got = self.output_invariants(spec)
        problems = []
        for name, want in (("oracle", exp["invariants"]),
                           ("answers.json", exp.get("answer"))):
            if want is not None and got != want:
                problems.append(f"graph invariants {got} != {name} {want}")
        return problems

    def corrupt(self, exp):
        inv = dict(exp["invariants"])
        inv["edges"] += 1
        return {**exp, "invariants": inv}

    def answer(self, spec, out):
        return self.output_invariants(spec)

    @staticmethod
    def output_invariants(spec):
        with open(spec["out"]) as fh:
            graph = json.load(fh)
        return graph_invariants(
            {n["id"]: Fraction(n["value"]) for n in graph["nodes"]},
            [tuple(e) for e in graph["edges"]])


class Homotopy(Workload):
    name = "homotopy"
    why = ("homotopy --certify on random pairs (4-5 vertices, 1-5 "
           "breakpoints): many tiny sweeps and certificates; the max-plus "
           "zigzag cost dominates")
    params = ("random_instance(s, nverts=n, value_range=(-4, 4), "
              "second_function=True), (n, breakpoints) in strata "
              "[(4, 1), (4, 3), (4, 5), (5, 3), (5, 5)]")
    strata = [(4, 1), (4, 3), (4, 5), (5, 3), (5, 5)]
    blocks = 28
    trace_blocks = 2

    def make(self, i, stratum, iseed):
        # Cost grows with the vertex count and steeply with the number of
        # breakpoints, so the pool is stratified on both: draw pairs with
        # n vertices until one has exactly k breakpoints.
        n, k = stratum
        rng = random.Random(iseed)
        while True:
            cx, f, g = self.rb.random_instance(
                rng.randrange(1 << 30), nverts=n, value_range=(-4, 4),
                second_function=True)
            if len(breakpoints(f.values, g.values)) == k:
                break
        to_dict = self.rb.serialize.instance_to_dict
        fd, gd = to_dict(cx, f), to_dict(cx, g)
        fv, gv = values_of(fd), values_of(gd)
        return {"index": i, "fv": fv, "gv": gv,
                "f": write_json(self.path(f"hom{i}-f.json"), fd),
                "g": write_json(self.path(f"hom{i}-g.json"), gd),
                "out": self.path("hom-witness.json")}

    def run(self, spec):
        return run_cli(self.cli, ["homotopy", spec["f"], spec["g"],
                                  "--certify", "-o", spec["out"]])

    def expect(self, spec):
        return {"norm": sup_norm(spec["fv"], spec["gv"]),
                "lower": extreme_gap(spec["fv"], spec["gv"])}

    def check(self, spec, out, exp):
        rc, text, _ = out
        lines = text.splitlines()
        if rc != 0:
            return [f"exit code {rc}"]
        if len(lines) != 2 or not lines[0].startswith("cost = ") \
                or lines[1] != "cost <= ||f-g||: OK":
            return [f"output {lines!r}"]
        cost = Fraction(lines[0][len("cost = "):])
        problems = []
        if not exp["lower"] <= cost <= exp["norm"]:
            problems.append(f"cost {cost} outside [{exp['lower']}, {exp['norm']}]")
        with open(spec["out"]) as fh:
            witness = json.load(fh)
        if Fraction(witness["cost"]) != cost:
            problems.append(f"witness cost {witness['cost']} != printed {cost}")
        if exp.get("answer") is not None and Fraction(exp["answer"]) != cost:
            problems.append(f"cost {cost} != answers.json {exp['answer']}")
        return problems

    def corrupt(self, exp):
        return {**exp, "norm": exp["lower"] - 1}

    def answer(self, spec, out):
        return out[1].splitlines()[0][len("cost = "):]


class Compose(Workload):
    name = "compose"
    why = ("compose_couplings on random triples via the API: the only path "
           "through pullback and limit triangulation; polytope vertex "
           "enumeration dominates")
    params = ("random_instance(s, nverts=4, triangles=1, second_function=True) "
              "plus a third function h; g constant on no triangle")
    strata = [(4,)]
    blocks = 160
    trace_blocks = 10

    def make(self, i, stratum, iseed):
        (n,) = stratum
        # compose_couplings raises ValueError ("simplex dimension above 3")
        # whenever the middle function is constant on a triangle; such
        # triples (about 1 in 700) are redrawn, so that no op fails.
        while True:
            cx, f, g = self.rb.random_instance(iseed, nverts=n, triangles=1,
                                               second_function=True)
            if not any(len(s) == 3 and len({g.values[v] for v in s}) == 1
                       for s in cx.simplices):
                break
            iseed += 1
        rng = random.Random(iseed)
        h = {v: Fraction(rng.randint(-8, 8), rng.randint(1, 3))
             for v in cx.vertices}
        data = self.rb.serialize.instance_to_dict(cx, f)
        return {"index": i, "simplices": data["simplices"],
                "fv": values_of(data),
                "gv": values_of(self.rb.serialize.instance_to_dict(cx, g)), "hv": h}

    def run(self, spec):
        rb = self.rb
        cx = rb.SimplicialComplex.from_simplices(
            [tuple(s) for s in spec["simplices"]] + [(v,) for v in spec["fv"]])
        f, g, h = (rb.PLFunction(cx, dict(spec[k])) for k in ("fv", "gv", "hv"))
        _, pf = rb.compute_reeb(cx, f)
        _, pg = rb.compute_reeb(cx, g)
        _, ph = rb.compute_reeb(cx, h)
        c1, c2 = rb.coupling(pf, pg), rb.coupling(pg, ph)
        c13 = rb.compose_couplings(c1, c2)
        return (rb.coupling_bound(c1), rb.coupling_bound(c2),
                rb.coupling_bound(c13))

    def expect(self, spec):
        f, g, h = spec["fv"], spec["gv"], spec["hv"]
        return {"b1": sup_norm(f, g), "b2": sup_norm(g, h),
                "lower": extreme_gap(f, h)}

    def check(self, spec, out, exp):
        b1, b2, b13 = out
        problems = []
        if b1 != exp["b1"] or b2 != exp["b2"]:
            problems.append(f"coupling bounds {b1}, {b2} != sup norms "
                            f"{exp['b1']}, {exp['b2']}")
        if not exp["lower"] <= b13 <= b1 + b2:
            problems.append(f"composed bound {b13} outside "
                            f"[{exp['lower']}, {b1 + b2}]")
        want = exp.get("answer")
        if want is not None and [str(b) for b in out] != want:
            problems.append(f"bounds {[str(b) for b in out]} != answers.json {want}")
        return problems

    def corrupt(self, exp):
        return {**exp, "b1": exp["b1"] + 1}

    def answer(self, spec, out):
        return [str(b) for b in out]


WORKLOADS = {w.name: w for w in (CylinderGap, CertifyDense, Homotopy, Compose)}
