#!/usr/bin/env python3
"""Compares a base revision with the working tree over alternating perfbench pairs.

Run from the repository root:

    python3 tools/perf_pairs.py --base <rev> --workload <name> --pairs <n> \\
        --first-seed <s> [--seconds 28] [--trace 0|1]

The base revision is extracted with `git archive` into
.bench_build/pairs-base-<sha>/. Pair i runs `python3 perfbench/run.py` with
seed first_seed + i once in that copy and once in the working tree,
alternating which side goes first. Each side builds into its own
CARGO_TARGET_DIR (.bench_build/pairs-base-<sha>/target and
.bench_build/pairs-change), so the two builds never share a directory.

Prints, per metric, each side's median with its first and third quartiles
and the number of pairs the change won (ties count for neither side; the
direction comes from BENCHMARK.json). Exits non-zero if any run is not
`correct` or reports failed operations.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def extract_base(root, rev):
    sha = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"],
                         cwd=root, capture_output=True, text=True,
                         check=True).stdout.strip()
    base_dir = os.path.join(root, ".bench_build", "pairs-base-" + sha[:12])
    if not os.path.isfile(os.path.join(base_dir, "perfbench", "run.py")):
        os.makedirs(base_dir, exist_ok=True)
        archive = subprocess.Popen(["git", "archive", sha], cwd=root,
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", base_dir], stdin=archive.stdout,
                       check=True)
        archive.stdout.close()
        if archive.wait() != 0:
            sys.exit(f"perf_pairs: git archive {sha} failed")
    return sha, base_dir


def run_side(side, args, seed):
    env = dict(os.environ, CARGO_TARGET_DIR=side["target"])
    # Keeps run.py in the extracted copy from reporting the enclosing
    # repository's HEAD as its commit.
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(side["cwd"])
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    run = subprocess.run(cmd, cwd=side["cwd"], env=env, capture_output=True,
                         text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stderr[-4000:])
        sys.exit(f"perf_pairs: {side['name']} seed {seed} exited "
                 f"{run.returncode}")
    return json.loads(lines[-1])


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0]
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return q1, q3


def fmt(v):
    return f"{v:.4g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", required=True, type=int)
    ap.add_argument("--first-seed", required=True, type=int)
    ap.add_argument("--seconds", default=28, type=int)
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "BENCHMARK.json")):
        sys.exit("perf_pairs: run from the repository root")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    better = {m["name"]: m["better"]
              for m in bench["end_to_end"] + bench["per_layer"]}

    sha, base_dir = extract_base(root, args.base)
    sides = {
        "base": {"name": "base", "cwd": base_dir,
                 "target": os.path.join(base_dir, "target")},
        "change": {"name": "change", "cwd": root,
                   "target": os.path.join(root, ".bench_build",
                                          "pairs-change")},
    }
    print(f"base {sha[:12]} vs working tree: {args.workload}, "
          f"{args.pairs} pairs from seed {args.first_seed}, "
          f"{args.seconds} s, trace {args.trace}", flush=True)

    values = {"base": {}, "change": {}}
    bad = []
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        results = {}
        for name in order:
            result = run_side(sides[name], args, seed)
            results[name] = result
            if not result["correct"] or result["failed"] != 0:
                bad.append(f"{name} seed {seed}: correct={result['correct']} "
                           f"failed={result['failed']}")
            for metric, m in result["metrics"].items():
                values[name].setdefault(metric, []).append(m["value"])
        print(f"pair {i + 1} seed {seed} ({order[0]} first): " + " ".join(
            f"{metric}={fmt(results['base']['metrics'][metric]['value'])}"
            f"->{fmt(m['value'])}"
            for metric, m in results["change"]["metrics"].items()
            if metric in results["base"]["metrics"]), flush=True)

    print(f"\n{'metric':34s} {'base median [q1-q3]':28s} "
          f"{'change median [q1-q3]':28s} change won")
    for metric, base_vals in values["base"].items():
        change_vals = values["change"].get(metric)
        if not change_vals or len(change_vals) != len(base_vals):
            continue
        won = "-"
        if metric in better:
            sign = -1 if better[metric] == "lower" else 1
            won = sum(1 for b, c in zip(base_vals, change_vals)
                      if sign * (c - b) > 0)
        cells = []
        for vals in (base_vals, change_vals):
            q1, q3 = quartiles(vals)
            cells.append(f"{fmt(statistics.median(vals))} "
                         f"[{fmt(q1)}-{fmt(q3)}]")
        print(f"{metric:34s} {cells[0]:28s} {cells[1]:28s} "
              f"{won}/{len(base_vals)}")
    if bad:
        print("\nFAILED RUNS:\n  " + "\n  ".join(bad))
        sys.exit(1)


if __name__ == "__main__":
    main()
