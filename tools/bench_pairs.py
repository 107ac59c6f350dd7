#!/usr/bin/env python3
"""Judge the working tree against a base revision with alternating perfbench pairs.

Run from the repository root:

    python3 tools/bench_pairs.py HEAD --pairs 10 --seconds 40

The base revision is checked out into a git worktree under --work-dir.
Pair i runs `perfbench/run.py --seed i` once on each side, the base first
in odd pairs and the working tree first in even ones; each side builds into
its own directory under --work-dir.  Per workload and end-to-end metric of
BENCHMARK.json the script prints both sides' medians and quartiles, the
base's interquartile range (IQR), the pairs each side won, and two verdicts:

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

perfbench/ is only run, never modified.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys


def run_side(tree, build, workload, seed, seconds):
    """One perfbench run; returns its JSON result (None if it printed none)."""
    env = dict(os.environ, CARGO_TARGET_DIR=build)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
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
    parser.add_argument("--json", help="also write every run and row here")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    work = os.path.abspath(args.work_dir)
    base_tree = os.path.join(work, "base")
    os.makedirs(work, exist_ok=True)
    if os.path.exists(base_tree):
        subprocess.run(["git", "worktree", "remove", "--force", base_tree],
                       check=True)
    subprocess.run(["git", "worktree", "add", "--detach", base_tree,
                    args.base], check=True, stdout=subprocess.DEVNULL)
    sides = {"base": (base_tree, os.path.join(work, "build-base")),
             "head": (os.getcwd(), os.path.join(work, "build-head"))}

    report = {"base": args.base, "seconds": seconds, "pairs": args.pairs,
              "workloads": {}}
    try:
        for workload in workloads:
            runs = {"base": [], "head": []}
            for seed in range(1, args.pairs + 1):
                order = ("base", "head") if seed % 2 else ("head", "base")
                for side in order:
                    tree, build = sides[side]
                    result = run_side(tree, build, workload, seed, seconds)
                    runs[side].append(result)
                    ok = result is not None and result.get("correct")
                    print("%s seed %d %s: %s" % (workload, seed, side,
                                                 "ok" if ok else "FAILED"),
                          file=sys.stderr)
            rows = []
            complete = [i for i in range(args.pairs)
                        if runs["base"][i] and runs["head"][i]]
            for metric in bench["end_to_end"]:
                name = metric["name"]
                base = [runs["base"][i]["metrics"][name]["value"]
                        for i in complete]
                head = [runs["head"][i]["metrics"][name]["value"]
                        for i in complete]
                if base:
                    rows.append(judge(metric, base, head))
            health = {side: failed_share(runs[side]) for side in runs}
            report["workloads"][workload] = {"runs": runs, "rows": rows,
                                             "health": health}
            print_table(workload, len(complete), seconds, rows, health)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", base_tree])
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)
    return 0


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
