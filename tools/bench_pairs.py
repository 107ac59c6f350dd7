#!/usr/bin/env python3
"""Judge the working tree against a base revision with alternating perfbench pairs.

Run from the repository root:

    python3 tools/bench_pairs.py HEAD --pairs 10 --seconds 40

The base revision is checked out into a git worktree under --work-dir, or
--base-tree names a checkout of it made beforehand (say with git archive).
Pair i runs `perfbench/run.py --seed S+i-1` once on each side, where S is
--first-seed (default 1), the base first in odd pairs and the working tree
first in even ones; each side builds into its own directory under
--work-dir.  A second set of pairs on fresh seeds is `--first-seed 11`.

Per workload and end-to-end metric of BENCHMARK.json the script prints
both sides' medians and quartiles, the base's interquartile range (IQR),
the pairs each side won, and two verdicts:

  gain rule   "better" when the working tree wins at least 9/10 of the pairs
              (ties count for neither) and its median beats the base median
              by more than the base IQR; "worse" for the mirror case;
              otherwise "no call".
  bound rule  "OVER" when the working tree's median is worse than the
              base's by more than the metric's bound; otherwise
              "unresolved" when the base IQR is wider than bound x base
              median (the spread hides a regression of that size) and not
              every working-tree run beats every base run; otherwise "ok".

Each workload's header also gives each side's failed share, the sum of
`failed` over the sum of `attempted` in the result JSON of every run, and
the number of runs that printed no result at all.

With --trace-runs N, each workload's pairs are followed by N alternating
`--trace 1` runs per side, and a second table gives, for every per_layer
metric of BENCHMARK.json, each side's median and the change.  The table
always includes client.cpu_us_per_req: the load generator's cost per
request tracks the speed of the host, so a shift in it beside a server
metric's change is host drift rather than the change under test.

perfbench/ is only run, never modified.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys


def run_side(tree, build, workload, seed, seconds, trace=0):
    """One perfbench run; returns its JSON result (None if it printed none)."""
    env = dict(os.environ, CARGO_TARGET_DIR=build)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def judge(metric, base, head):
    """Summary row for one metric over paired runs (base[i] with head[i])."""
    sign = 1 if metric["better"] == "higher" else -1
    won = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    lost = sum(1 for b, h in zip(base, head) if sign * (h - b) < 0)
    b_med, h_med = statistics.median(base), statistics.median(head)
    b_q1, b_q3 = quartiles(base)
    h_q1, h_q3 = quartiles(head)
    iqr = b_q3 - b_q1
    gap = sign * (h_med - b_med)
    need = math.ceil(0.9 * len(base))
    if won >= need and gap > iqr:
        verdict = "better"
    elif lost >= need and -gap > iqr:
        verdict = "worse"
    else:
        verdict = "no call"
    worse_by = -gap / abs(b_med) if b_med else 0.0
    dominates = min(sign * h for h in head) > max(sign * b for b in base)
    if worse_by > metric["bound"]:
        bound = "OVER"
    elif iqr > metric["bound"] * abs(b_med) and not dominates:
        bound = "unresolved"
    else:
        bound = "ok"
    return {
        "metric": metric["name"], "base_median": b_med, "head_median": h_med,
        "base_q1": b_q1, "base_q3": b_q3, "head_q1": h_q1, "head_q3": h_q3,
        "base_iqr": iqr,
        "change": (h_med - b_med) / b_med if b_med else 0.0,
        "won": won, "lost": lost, "verdict": verdict,
        "bound": bound,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--work-dir", default=".bench_pairs",
                        help="holds the base worktree and both builds")
    parser.add_argument("--trace-runs", type=int, default=0,
                        help="traced runs per side after each workload's "
                             "pairs (default: none)")
    parser.add_argument("--first-seed", type=int, default=1,
                        help="seed of the first pair; pair i runs seed "
                             "first-seed + i - 1 (default: 1)")
    parser.add_argument("--base-tree",
                        help="an existing checkout of the base revision, "
                             "used instead of a worktree")
    parser.add_argument("--json", help="also write every run and row here")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    work = os.path.abspath(args.work_dir)
    os.makedirs(work, exist_ok=True)
    if args.base_tree:
        base_tree = os.path.abspath(args.base_tree)
    else:
        base_tree = os.path.join(work, "base")
        if os.path.exists(base_tree):
            subprocess.run(["git", "worktree", "remove", "--force",
                            base_tree], check=True)
        subprocess.run(["git", "worktree", "add", "--detach", base_tree,
                        args.base], check=True, stdout=subprocess.DEVNULL)
    sides = {"base": (base_tree, os.path.join(work, "build-base")),
             "head": (os.getcwd(), os.path.join(work, "build-head"))}

    report = {"base": args.base, "seconds": seconds, "pairs": args.pairs,
              "first_seed": args.first_seed, "workloads": {}}
    try:
        for workload in workloads:
            report["workloads"][workload] = run_workload(
                bench, sides, workload, args.pairs, seconds, args.trace_runs,
                args.first_seed)
    finally:
        if not args.base_tree:
            subprocess.run(["git", "worktree", "remove", "--force",
                            base_tree])
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)
    return 0


def alternating_runs(sides, workload, runs, seconds, trace, first_seed):
    """`runs` alternating runs per side on seeds first_seed onwards, the
    base first in odd ones."""
    out = {"base": [], "head": []}
    for i in range(1, runs + 1):
        seed = first_seed + i - 1
        order = ("base", "head") if i % 2 else ("head", "base")
        for side in order:
            tree, build = sides[side]
            result = run_side(tree, build, workload, seed, seconds, trace)
            out[side].append(result)
            ok = result is not None and result.get("correct")
            print("%s seed %d %s%s: %s" % (workload, seed, side,
                                           " traced" if trace else "",
                                           "ok" if ok else "FAILED"),
                  file=sys.stderr)
    return out


def metric_values(runs, name, complete):
    return [runs[i]["metrics"][name]["value"] for i in complete]


def run_workload(bench, sides, workload, pairs, seconds, trace_runs,
                 first_seed):
    """The pairs of one workload, then its traced runs; prints the tables
    and returns the workload's report."""
    runs = alternating_runs(sides, workload, pairs, seconds, 0, first_seed)
    rows = []
    complete = [i for i in range(pairs)
                if runs["base"][i] and runs["head"][i]]
    for metric in bench["end_to_end"]:
        base = metric_values(runs["base"], metric["name"], complete)
        head = metric_values(runs["head"], metric["name"], complete)
        if base:
            rows.append(judge(metric, base, head))
    health = {side: failed_share(runs[side]) for side in runs}
    print_table(workload, len(complete), seconds, rows, health)
    report = {"runs": runs, "rows": rows, "health": health}
    if trace_runs > 0:
        traced = alternating_runs(sides, workload, trace_runs, seconds, 1,
                                  first_seed)
        report["traced_runs"] = traced
        report["trace_rows"] = trace_rows(bench, traced)
        print_trace_table(workload, traced, report["trace_rows"])
    return report


def trace_rows(bench, traced):
    """Per-side medians of every per_layer metric over the traced runs
    that printed a result (each side's own runs, unpaired)."""
    names = [m["name"] for m in bench["per_layer"]]
    if "client.cpu_us_per_req" not in names:
        names.append("client.cpu_us_per_req")
    rows = []
    for name in names:
        medians = {}
        for side in ("base", "head"):
            values = [r["metrics"][name]["value"] for r in traced[side]
                      if r and name in r["metrics"]]
            medians[side] = statistics.median(values) if values else None
        b, h = medians["base"], medians["head"]
        change = (h - b) / b if b and h is not None else None
        rows.append({"metric": name, "base_median": b, "head_median": h,
                     "change": change})
    return rows


def print_trace_table(workload, traced, rows):
    counts = {side: sum(1 for r in traced[side] if r) for side in traced}
    print("\n%s: traced runs (--trace 1), %d base and %d head with a result" %
          (workload, counts["base"], counts["head"]))
    print("%-32s %14s %14s %8s" % ("per-layer metric", "base median",
                                    "head median", "change"))
    for r in rows:
        b, h = r["base_median"], r["head_median"]
        print("%-32s %14s %14s %8s" %
              (r["metric"], "-" if b is None else num(b),
               "-" if h is None else num(h),
               "-" if r["change"] is None else "%+.1f%%" % (100 * r["change"])))


def failed_share(runs):
    """The side's failed share over every run that printed a result, and
    the number of runs that printed none."""
    results = [r for r in runs if r]
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    return {"failed": failed, "attempted": attempted,
            "share": failed / attempted if attempted else 0.0,
            "without_result": len(runs) - len(results)}


def num(v):
    return "{:,.0f}".format(v) if abs(v) >= 1000 else "{:.4g}".format(v)


def print_table(workload, pairs, seconds, rows, health):
    print("\n%s: %d pairs of %g s runs" % (workload, pairs, seconds))
    for side in ("base", "head"):
        h = health[side]
        print("  %s: failed share %.3g (%d of %d operations); "
              "runs without result %d" %
              (side, h["share"], h["failed"], h["attempted"],
               h["without_result"]))
    print("%-22s %30s %30s %8s %7s %10s  %-8s %s" %
          ("metric", "base median [q1, q3]", "head median [q1, q3]", "change",
           "won", "base IQR", "gain", "bound"))
    for r in rows:
        print("%-22s %30s %30s %+7.1f%% %3d/%-3d %10s  %-8s %s" %
              (r["metric"],
               "%s [%s, %s]" % (num(r["base_median"]), num(r["base_q1"]),
                                num(r["base_q3"])),
               "%s [%s, %s]" % (num(r["head_median"]), num(r["head_q1"]),
                                num(r["head_q3"])),
               100 * r["change"], r["won"], pairs, num(r["base_iqr"]),
               r["verdict"], r["bound"]))


if __name__ == "__main__":
    sys.exit(main())
