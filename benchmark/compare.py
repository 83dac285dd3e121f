#!/usr/bin/env python3
"""Compare two checkouts on the repository benchmark.

    python3 benchmark/compare.py --base ../parent --head . [--pairs 10]
        [--seed 1] [--workload plan-cold ...] [--out compare.json]

Runs `benchmark/run.py` of each checkout on every workload, in pairs whose
order alternates (base first, then head first, ...), and reports for every
end-to-end metric and workload the median and quartiles of each side and a
verdict:

  regression    the head median is worse than the base median by more than
                the metric's bound in BENCHMARK.json
  unresolved    the base runs spread (quartile distance / median) wider than
                the bound, so "no regression" cannot be told from noise,
                unless every head run reads better than every base run
  gain          the head wins at least 9 of every 10 pairs (ties count for
                neither) and the medians differ by more than the base
                quartile distance
  same          none of the above

The virtual-time metrics (makespan_regret, overhead_pct) of the closed-loop
workloads are deterministic per seed: every run of one side must report
them bit for bit the same, or the comparison fails as nondeterministic.
Comparing a checkout with itself (--base . --head .) checks the benchmark's
own run-to-run agreement.  Exit code 1 on any regression or
nondeterminism.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

VIRTUAL = {"makespan_regret", "overhead_pct"}
DETERMINISTIC_WORKLOADS = {"plan-cold", "solve", "kway"}


def run_side(root, workload, seed, seconds):
    cmd = [sys.executable, str(Path(root) / "benchmark" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("%s: %s exited %d" % (root, workload,
                                                 done.returncode))
    final = json.loads(lines[-1])
    if not final["correct"]:
        raise RuntimeError("%s: %s reported incorrect outputs"
                           % (root, workload))
    return {name: m["value"] for name, m in final["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric, base, head):
    """Verdict for one metric x workload from paired run values."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    b1, b_med, b3 = quartiles(base)
    _, h_med, _ = quartiles(head)
    spread = (b3 - b1) / abs(b_med) if b_med else 0.0

    def better(h, b):
        return h < b if lower else h > b

    worse_by = (h_med - b_med) if lower else (b_med - h_med)
    wins = sum(1 for h, b in zip(head, base) if better(h, b))
    dominant = all(better(h, b) for h in head for b in base)
    if wins >= 0.9 * len(base) and abs(h_med - b_med) > (b3 - b1):
        return "gain", spread, wins
    if worse_by > bound * abs(b_med):
        return "regression", spread, wins
    if spread > bound and not dominant:
        return "unresolved", spread, wins
    return "same", spread, wins


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="parent checkout")
    parser.add_argument("--head", required=True, help="changed checkout")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="limit to these workloads (repeatable)")
    parser.add_argument("--out", help="write every run and verdict (JSON)")
    args = parser.parse_args()

    with open(Path(args.base) / "BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    runs = {w: {"base": [], "head": []} for w in workloads}
    for pair in range(args.pairs):
        order = ("base", "head") if pair % 2 == 0 else ("head", "base")
        for workload in workloads:
            for side in order:
                root = args.base if side == "base" else args.head
                runs[workload][side].append(
                    run_side(root, workload, args.seed, seconds))
                print("pair %d/%d %s %s done" % (pair + 1, args.pairs,
                                                 workload, side),
                      file=sys.stderr, flush=True)

    failed = False
    report = []
    print("%-10s %-16s %-6s %12s %12s %12s %12s %7s %5s  %s"
          % ("workload", "metric", "unit", "base q1", "base med",
             "head med", "head q3", "spread", "wins", "verdict"))
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = [r[name] for r in runs[workload]["base"]]
            head = [r[name] for r in runs[workload]["head"]]
            result, spread, wins = verdict(metric, base, head)
            if name in VIRTUAL and workload in DETERMINISTIC_WORKLOADS:
                for side, values in (("base", base), ("head", head)):
                    if len(set(values)) > 1:
                        result = "nondeterministic (%s)" % side
            failed = failed or result == "regression" or \
                result.startswith("nondeterministic")
            hq1, _, hq3 = quartiles(head)
            bq1, bmed, _ = quartiles(base)
            print("%-10s %-16s %-6s %12.6g %12.6g %12.6g %12.6g %6.1f%% %2d/%-2d  %s"
                  % (workload, name, metric["unit"], bq1, bmed,
                     statistics.median(head), hq3, 100 * spread, wins,
                     len(base), result))
            report.append({"workload": workload, "metric": name,
                           "base": base, "head": head,
                           "head_quartiles": [hq1, hq3],
                           "spread": spread, "wins": wins,
                           "verdict": result})
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
