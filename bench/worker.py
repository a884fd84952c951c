"""Run one workload in this process and print its result.

`run.py` starts this file in a fresh process per workload, with
PYTHONHASHSEED fixed.  Untraced (--trace 0): set up several times, then run
ops in a closed loop (one thread; the next op starts when the previous one
has finished) until the ops have taken --seconds, and print the end-to-end
metrics.  Traced (--trace 1): alternate an untraced and a traced pass over a
fixed op plan until --seconds have passed, and print the per-layer metrics.
The last line of stdout is the JSON result.
"""
from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402
from oracle import reeb_invariants  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Workload  # noqa: E402

SETUPS = 5  # set-ups per run; setup_s is their median
REFERENCE_S = 0.01  # nominal time of one reference computation
TAIL_PERCENTILE = 90
ANSWERS = os.path.join(BENCH, "answers.json")

END_TO_END = {
    "op_p50_s": "s", "op_tail_s": "s", "ops_per_s": "1/s",
    "setup_s": "s", "peak_rss_mib": "MiB",
}

# Per-layer metrics: <module>.<function>.<stat> from the traced pass, the
# self time of every module (and of the benchmark's own op glue, "bench"),
# and the tracing overhead.
FUNCTIONS = {
    "reeb.compute_reeb": ("calls", "self_s", "simplices", "levels", "size_exp"),
    "plcore.level_components": ("calls", "self_s"),
    "maps.verify_reeb_quotient": ("calls", "self_s", "simplices", "size_exp"),
    "editdist.zigzag_cost": ("calls", "self_s", "spaces"),
    "editdist.homotopy_breakpoints": ("calls", "self_s", "stages"),
    "category.induced_map": ("calls", "self_s"),
    "graphs.complexify": ("calls", "self_s"),
    "category.pullback": ("calls", "self_s", "limit_cells"),
    "category.zigzag_limit": ("calls", "self_s"),
    "category.triangulate_limit": ("calls", "self_s", "simplices"),
    "category.limit_projection": ("calls", "self_s"),
    "geometry.polytope_vertices": ("calls", "self_s"),
    "geometry.pulling_triangulation": ("calls", "self_s"),
    "geometry.rref": ("calls",),
    "editdist.coupling": ("calls", "self_s"),
    "editdist.compose_couplings": ("calls", "self_s"),
    "graphs.minimalize": ("calls", "self_s"),
    "metrics.distortion": ("calls", "self_s"),
    "serialize.load_json": ("self_s",),
    "serialize.dump_json": ("self_s",),
    "cli.main": ("calls", "self_s"),
}
MODULES = ("plcore", "graphs", "reeb", "maps", "geometry", "category",
           "metrics", "editdist", "generators", "serialize", "cli", "bench")
STAT_UNITS = {"calls": "count", "self_s": "s", "size_exp": "slope"}


def per_layer_units() -> dict:
    units = {}
    for fn, stats in FUNCTIONS.items():
        for stat in stats:
            units[f"{fn}.{stat}"] = STAT_UNITS.get(stat, "count")
    for mod in MODULES:
        units[f"{mod}.self_s"] = "s"
    units["trace.overhead_frac"] = "frac"
    return units


def fresh_import():
    """Import the library from scratch (set-up is repeated in one process)."""
    for name in [k for k in sys.modules
                 if k == "reebedit" or k.startswith("reebedit.")]:
        del sys.modules[name]
    rb = importlib.import_module("reebedit")
    importlib.import_module("reebedit.cli")
    importlib.import_module("reebedit.serialize")
    return rb


class Tally:
    """Attempted and failed ops, with the first few failure messages."""

    def __init__(self, corrupt: int = 0):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.corrupt = corrupt

    def op(self, wl, spec, recorder=None) -> tuple[float, bool]:
        """Run and check one op; return its duration and whether it passed."""
        corrupt = self.attempted < self.corrupt
        self.attempted += 1
        if recorder:
            recorder.op = self.attempted
            rec = recorder.open("bench.op")
        start = time.perf_counter()
        try:
            out = wl.run(spec)
            err = None
        except Exception as exc:  # a failed op is counted, not fatal
            out, err = None, exc
        took = time.perf_counter() - start
        if recorder:
            recorder.close(rec)
        if err is not None:
            problems = [f"raised {type(err).__name__}: {err}"]
        else:
            try:
                exp = wl.expected(spec)
                problems = wl.check(spec, out, wl.corrupt(exp) if corrupt else exp)
            except Exception as exc:  # a check that cannot run is a failure
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(f"op {spec['index']}: " + "; ".join(problems))
        return took, not problems


class Reference:
    """A fixed pure-Python computation, timed between ops.

    A shared host's speed can drift by tens of percent within minutes,
    which moves every timing of a run together.  The reference does work of
    the same kind as the library (exact rationals, sets, dicts, union-find)
    but never changes, so its mean time measures how fast the machine ran
    during this run; timing metrics are reported scaled to a machine on
    which the reference takes REFERENCE_S.  The mean, not the median, because
    the host switches between a fast and a slow state and an op's time
    averages over both in proportion.
    """

    def __init__(self, grid: int = 4):
        rng = random.Random(7)
        side = grid + 1
        self.values = {v: Fraction(rng.randint(-8, 8), rng.randint(1, 3))
                       for v in range(side * side)}
        self.simplices = []
        for i in range(grid):
            for j in range(grid):
                a = i * side + j
                self.simplices += [(a, a + 1, a + side + 1),
                                   (a, a + side, a + side + 1)]
        self.times: list[float] = []

    def tick(self) -> None:
        start = time.perf_counter()
        reeb_invariants(self.values, self.simplices)
        self.times.append(time.perf_counter() - start)

    def scale(self) -> float:
        """Factor that turns this run's seconds into reference seconds."""
        return REFERENCE_S / statistics.mean(self.times)


def setup(name: str, seed: int, answers, workroot: str, tally: Tally):
    """Import, generate and write the instance pool, warm up."""
    start = time.perf_counter()
    rb = fresh_import()
    wl = WORKLOADS[name](rb, seed, tempfile.mkdtemp(dir=workroot), answers)
    tally.op(wl, wl.warmup)  # untimed
    return wl, time.perf_counter() - start


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    k = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[k - 1]


def tail_percentile(n: int) -> int:
    """TAIL_PERCENTILE when at least 10 samples lie beyond it, else the
    highest whole percentile that still has 10 beyond (50 at the least)."""
    p = TAIL_PERCENTILE
    while p > 50 and n - math.ceil(p / 100 * n) < 10:
        p -= 1
    return p


def environment() -> str:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(path):
                with open(path) as fh:
                    commit = fh.read().strip()
    return (f"python {platform.python_version()}, nproc {os.cpu_count()}, "
            f"cpu {cpu}, commit {commit}, "
            f"PYTHONHASHSEED {os.environ.get('PYTHONHASHSEED')}")


def measure(wl, seconds: float, tally: Tally, ref: Reference) -> dict:
    """Closed loop over the pool until the ops have taken `seconds`, with a
    reference tick after every op."""
    samples: list[float] = []
    busy = 0.0
    i = 0
    while busy < seconds:
        took, ok = tally.op(wl, wl.specs[i % len(wl.specs)])
        ref.tick()
        i += 1
        busy += took
        if ok:
            samples.append(took)
    samples.sort()
    p = tail_percentile(len(samples))
    print(f"ops: {len(samples)} passed of {tally.attempted}; op_tail_s is "
          f"p{p} over {len(samples)} samples "
          f"({len(samples) - math.ceil(p / 100 * len(samples))} beyond)")
    return {
        "op_p50_s": statistics.median(samples) if samples else 0.0,
        "op_tail_s": percentile(samples, p) if samples else 0.0,
        "ops_per_s": len(samples) / busy,
    }


def trace(wl, seconds: float, tally: Tally, out_path: str) -> dict:
    """Alternate untraced and traced passes over the trace plan."""
    recorder = spans.SpanRecorder()
    plan = wl.trace_plan
    untraced = traced = 0.0
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        untraced += sum(tally.op(wl, s)[0] for s in plan)
        undo = spans.install(recorder)
        try:
            traced += sum(tally.op(wl, s, recorder)[0] for s in plan)
        finally:
            spans.uninstall(undo)
        passes += 1
    recorder.dump(out_path)
    stats = spans.layer_stats(recorder, passes)
    funcs, modules = stats["functions"], stats["modules"]
    metrics = {}
    for fn, wanted in FUNCTIONS.items():
        st = funcs.get(fn, {"calls": 0, "self_s": 0.0, "sizes": {}, "points": []})
        for stat in wanted:
            if stat in ("calls", "self_s"):
                metrics[f"{fn}.{stat}"] = st[stat]
            elif stat == "size_exp":
                metrics[f"{fn}.{stat}"] = spans.size_exponent(st["points"])
            else:
                metrics[f"{fn}.{stat}"] = st["sizes"].get(stat, 0)
    for mod in MODULES:
        metrics[f"{mod}.self_s"] = modules.get(mod, 0.0)
    metrics["trace.overhead_frac"] = traced / untraced - 1
    total = sum(modules.values())
    top_mod = max(modules, key=modules.get)
    top_fn = max(funcs, key=lambda k: funcs[k]["self_s"])
    print(f"traced {passes} passes of {len(plan)} ops; spans in {out_path}")
    print(f"dominant layer: {top_mod} ({modules[top_mod] / total:.0%} of "
          f"traced op time); dominant function: {top_fn} "
          f"({funcs[top_fn]['self_s'] / total:.0%})")
    for mod in sorted(modules, key=modules.get, reverse=True):
        print(f"  {mod:<11} {modules[mod]:.4f} s/pass  "
              f"{modules[mod] / total:6.1%}")
    return metrics


def run(args) -> dict:
    answers = None
    if args.seed == DEFAULT_SEED:
        with open(ANSWERS) as fh:
            answers = json.load(fh)
    tally = Tally(args.corrupt)
    workroot = tempfile.mkdtemp(dir=args.workdir)
    setup_ref, ref = Reference(), Reference()
    try:
        setups = []
        for _ in range(SETUPS):
            wl, took = setup(args.workload, args.seed, answers, workroot, tally)
            setups.append(took)
            for _ in range(3):
                setup_ref.tick()
        print(f"workload {wl.name}: {wl.params}; seed {args.seed}; "
              f"pool {len(wl.specs)} ops")
        print(f"environment: {environment()}")
        if args.trace:
            os.makedirs(args.outdir, exist_ok=True)
            metrics = trace(wl, args.seconds, tally, os.path.join(
                args.outdir, f"spans-{wl.name}-seed{args.seed}.jsonl"))
            units = per_layer_units()
        else:
            raw = measure(wl, args.seconds, tally, ref)
            raw["setup_s"] = statistics.median(setups)
            scale = ref.scale()
            print("set-ups: " + ", ".join(f"{t:.4f}" for t in setups) + " s")
            print(f"reference: mean {statistics.mean(ref.times):.6f} s over "
                  f"{len(ref.times)} ticks in the loop, scale {scale:.4f}; "
                  f"{statistics.mean(setup_ref.times):.6f} s over "
                  f"{len(setup_ref.times)} ticks after set-ups, scale "
                  f"{setup_ref.scale():.4f}; unscaled: "
                  + ", ".join(f"{k} = {v:.6g}" for k, v in raw.items()))
            metrics = {
                "op_p50_s": raw["op_p50_s"] * scale,
                "op_tail_s": raw["op_tail_s"] * scale,
                "ops_per_s": raw["ops_per_s"] / scale,
                "setup_s": raw["setup_s"] * setup_ref.scale(),
            }
            metrics["peak_rss_mib"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
            units = END_TO_END
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
    for msg in tally.messages:
        print(f"FAILED {msg}", file=sys.stderr)
    print(f"failed_frac = {tally.failed / tally.attempted:.4f} "
          f"({tally.failed} of {tally.attempted} ops)")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def write_answers(workdir: str) -> None:
    """Record the exact results for the default seed's pools."""
    answers = {}
    for name, cls in WORKLOADS.items():
        if cls.answer is Workload.answer:
            continue  # nothing seed-specific to record
        with tempfile.TemporaryDirectory(dir=workdir) as tmp:
            wl = cls(fresh_import(), DEFAULT_SEED, tmp, None)
            got = []
            for spec in wl.specs:
                out = wl.run(spec)
                problems = wl.check(spec, out, wl.expected(spec))
                if problems:
                    raise SystemExit(f"{name} op {spec['index']}: {problems}")
                got.append(wl.answer(spec, out))
        answers[name] = got
        print(f"{name}: {len(got)} answers")
    with open(ANSWERS, "w") as fh:
        json.dump(answers, fh, indent=0, sort_keys=True)
        fh.write("\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", type=int, default=0,
                    help="corrupt the expected answer of the first N ops")
    ap.add_argument("--write-answers", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--outdir", required=True)
    args = ap.parse_args()
    os.makedirs(args.workdir, exist_ok=True)
    if args.write_answers:
        write_answers(args.workdir)
        return 0
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
