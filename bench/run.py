"""Benchmark entry point for the reebedit library.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S]
    python3 bench/run.py --selftest
    python3 bench/run.py --write-answers

Run from the root of a checkout.  Each workload runs in a fresh Python
process (`worker.py`) with PYTHONHASHSEED fixed, because graph cells are
tuples of strings and ints whose set iteration order, and with it the work
done, follows the string hash.  The last line of stdout is a JSON object
with the keys correct, attempted, failed and metrics.  Scratch files go to
.bench_tmp/ and span dumps of traced runs to .bench_out/ under the root.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
WORKLOADS = ("cylinder-gap", "certify-dense", "homotopy", "compose")
TIMEOUT_S = 170


def worker(extra: list[str], capture: bool = False):
    env = dict(os.environ, PYTHONHASHSEED="0")
    argv = [sys.executable, WORKER,
            "--workdir", os.path.join(ROOT, ".bench_tmp"),
            "--outdir", os.path.join(ROOT, ".bench_out"), *extra]
    pipe = subprocess.PIPE if capture else None
    return subprocess.run(argv, cwd=ROOT, env=env, timeout=TIMEOUT_S,
                          stdout=pipe, stderr=pipe, text=True)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced, with a closing summary table."""
    rows = []
    for name in WORKLOADS:
        proc = worker(["--workload", name, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", "0"], capture=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        rows.append((name, last_json(proc.stdout)))
    print(f"\n{'workload':<14} {'failed_frac':>11}  metrics")
    for name, res in rows:
        frac = res["failed"] / res["attempted"]
        metrics = "  ".join(f"{k} = {m['value']:.4g} {m['unit']}"
                            for k, m in res["metrics"].items())
        print(f"{name:<14} {frac:>11.4f}  {metrics}")
    print(json.dumps({name: res for name, res in rows}))
    return 0


def selftest() -> int:
    """Every workload for a few ops: all metrics present with their units,
    and a corrupted expected answer counted as a failure, not a crash."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        print("selftest: BENCHMARK.json workloads differ from run.py")
        return 1
    for name in WORKLOADS:
        for trace, corrupt in ((0, 1), (1, 0)):
            proc = worker(["--workload", name, "--seconds", "1",
                           "--trace", str(trace), "--corrupt", str(corrupt)],
                          capture=True)
            res = last_json(proc.stdout)
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            problems = []
            if proc.returncode != 0:
                problems.append(f"exit code {proc.returncode}")
            if got != want[trace]:
                problems.append(f"metrics/units differ from BENCHMARK.json: "
                                f"{set(got.items()) ^ set(want[trace].items())}")
            if res["failed"] != corrupt or res["correct"] != (corrupt == 0):
                problems.append(f"{res['failed']} failed of {res['attempted']}"
                                f" with {corrupt} corrupted expected answers")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"selftest {name} trace={trace} corrupt={corrupt}: {status}")
            if problems:
                return 1
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description="reebedit benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true",
                      help="run every workload untraced")
    mode.add_argument("--selftest", action="store_true")
    mode.add_argument("--write-answers", action="store_true",
                      help="record the default seed's exact answers")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "reebedit", "__init__.py")):
        print("error: run from a reebedit checkout (src/reebedit is missing)",
              file=sys.stderr)
        return 2
    if args.selftest:
        return selftest()
    if args.write_answers:
        return worker(["--write-answers"], capture=False).returncode
    if args.all:
        return run_all(args.seed, args.seconds)
    if not args.workload:
        ap.error("--workload, --all, --selftest or --write-answers is required")
    return worker(["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]).returncode


if __name__ == "__main__":
    sys.exit(main())
