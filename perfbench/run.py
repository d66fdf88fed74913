#!/usr/bin/env python3
"""kcenter end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 perfbench/run.py --self-test

Builds perfbench/ (the kcenter library from src/ plus the kc_perfbench
program) under $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
runs one workload and prints every metric by name with its unit.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics with --trace 1.  Exit status 0 when
every output check passed, 1 when one failed (the result line is still
printed), 2 when the benchmark could not build or run (no result line).

Workloads: stream-kcb, dynamic-turnstile, mpc-batch; see
BENCHMARK.json for why each exists and perfbench/NOTES.md for what each
per-layer metric should move.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402

WORKLOADS = ("stream-kcb", "dynamic-turnstile", "mpc-batch")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build(out):
    """Configures and builds kc_perfbench (both quick when current)."""
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", "kc_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return out / "kc_perfbench"


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def print_table(title, rows):
    print(title)
    for name, value, unit in rows:
        print("  %-28s %18.6g  %s" % (name, value, unit))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="run perfbench/selftest.py and exit")
    # Test hooks used by the self-test only.
    ap.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    ap.add_argument("--fail-check", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.self_test:
        return subprocess.run([sys.executable, str(HERE / "selftest.py")]).returncode
    if args.workload is None:
        ap.error("--workload is required")

    try:
        bench = spec()
        out = build_dir()
        exe = build(out)
    except (OSError, ValueError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed:", e)
        return 2

    (out / "data").mkdir(exist_ok=True)
    (out / "out").mkdir(exist_ok=True)
    raw_path = out / "out" / ("%s-%d-%d.json" % (args.workload, args.seed,
                                                 args.trace))
    if raw_path.exists():
        raw_path.unlink()
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", str(raw_path), "--data-dir", str(out / "data"),
           "--scale", repr(args.scale)]
    if args.fail_check:
        cmd.append("--fail-check")
    try:  # a run must end within 180 s
        proc = subprocess.run(cmd, timeout=170)
    except subprocess.TimeoutExpired:
        log("perfbench: kc_perfbench timed out")
        return 2
    if proc.returncode not in (0, 1) or not raw_path.exists():
        log("perfbench: kc_perfbench exited with status", proc.returncode)
        return 2
    with open(raw_path) as f:
        raw = json.load(f)

    if args.trace:
        values = benchlib.layer_metrics(raw)
        wanted = bench["per_layer"]
        log("perfbench: spans written to", raw_path)
        print("replay coverage: %.2f %%" % (
            100.0 * benchlib.root_coverage(raw["spans"], "bench.replay")))
    else:
        values = benchlib.end_to_end_metrics(raw)
        wanted = bench["end_to_end"]
        its = [it for it in raw["iterations"] if it["group"] == "untraced"]
        queries = [q for it in its for q in it["query_ms"]]
        pct, value, beyond, n = benchlib.tail_percentile(queries)
        print("iterations: %d; query samples: %d" % (len(its), n))
        if pct is None:
            print("query tail: no percentile has 10 samples beyond it; "
                  "median %.6g ms" % value)
        else:
            print("query tail: p%g = %.6g ms (%d samples beyond of %d)"
                  % (pct, value, beyond, n))
        print("comm_words (MPC total): %.0f" % values["comm_words"])
    print("fail_ratio: %.6g (%d of %d checked operations failed)"
          % (benchlib.ratio(raw["failed"], raw["attempted"]), raw["failed"],
             raw["attempted"]))
    for msg in raw["failures"]:
        print("check failed:", msg)

    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print_table("%s seed %d (%s)" % (args.workload, args.seed,
                                     "per-layer" if args.trace else "end-to-end"),
                [(k, v["value"], v["unit"]) for k, v in metrics.items()])
    correct = raw["failed"] == 0 and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
