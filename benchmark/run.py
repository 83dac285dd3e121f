#!/usr/bin/env python3
"""Build and run the repository benchmark.

One workload, as BENCHMARK.json declares it:

    python3 benchmark/run.py --workload plan-cold --seed 1 --seconds 15 --trace 0

Every workload, the per-layer run, a smoke run, results saved:

    python3 benchmark/run.py --seed 1 [--trace] [--smoke] [--out results.json]

The script configures and builds benchmark/ (a CMake project that pulls in
the library from the parent directory) into build-bench/ at the root of
the checkout, runs each workload in its own nbwp_bench process, checks
that the process verified every output and that it reported exactly the
metrics BENCHMARK.json declares with their units, and prints each metric
with its unit.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Untraced runs report the
end-to-end metrics, traced runs (--trace 1) the per-layer metrics.  The
exit code is 0 only when every output was correct.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmark"
BUILD_DIR = ROOT / "build-bench"
BINARY = BUILD_DIR / "nbwp_bench"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configure once, then build nbwp_bench; all output goes to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError("library sources not found next to benchmark/ "
                           "(expected CMakeLists.txt and src/ at %s)" % ROOT)
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "nbwp_bench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(step))


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts that
    are not git repositories."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "benchmark"):
        files += sorted(p for p in (ROOT / top).rglob("*")
                        if p.is_file() and "__pycache__" not in p.parts)
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_workload(workload, args):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        cmd.append("--trace")
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("%s: nbwp_bench exited %d without a result"
                           % (workload, done.returncode))
    return done.returncode, json.loads(lines[-1])


def check_metrics(doc, declared):
    """Problems with the reported metric set, units and values."""
    problems = []
    got = doc["metrics"]
    for name in sorted(set(declared) - set(got)):
        problems.append("metric %s not reported" % name)
    for name in sorted(set(got) - set(declared)):
        problems.append("metric %s reported but not declared" % name)
    for name, entry in declared.items():
        if name not in got:
            continue
        value = got[name]["value"]
        if got[name]["unit"] != entry["unit"]:
            problems.append("metric %s in %s, declared %s"
                            % (name, got[name]["unit"], entry["unit"]))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("metric %s is not a finite number" % name)
        elif "bound" in entry and value <= 0:
            problems.append("end-to-end metric %s is %r" % (name, value))
    return problems


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads,
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed: inputs and traffic order")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"],
                        help="measured window per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1 = per-layer (traced) run")
    parser.add_argument("--smoke", action="store_true",
                        help="1/20 of the window and one set-up per workload")
    parser.add_argument("--out", help="also write every result here (JSON)")
    args = parser.parse_args()

    try:
        build()
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        log("run.py: %s" % e)
        return 2

    kind = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m for m in spec[kind]}
    manifest = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": args.smoke,
    }
    results = {}
    correct = True
    attempted = failed = 0
    for workload in [args.workload] if args.workload else workloads:
        started = time.monotonic()
        try:
            code, doc = run_workload(workload, args)
        except (RuntimeError, OSError, ValueError,
                subprocess.TimeoutExpired) as e:
            log("run.py: %s" % e)
            return 2
        problems = check_metrics(doc, declared)
        problems += ["%s: %s" % (workload, f) for f in doc["failures"]]
        ok = code == 0 and doc["failed"] == 0 and not problems
        correct = correct and ok
        attempted += doc["attempted"]
        failed += doc["failed"]
        # Pool size, admission workers, busy threads, build type.
        manifest.setdefault("workloads", {})[workload] = doc["manifest"]
        results[workload] = doc

        print("%s (seed %d, %s, %.1f s): %d attempted, %d failed%s"
              % (workload, args.seed, "traced" if args.trace else "untraced",
                 time.monotonic() - started, doc["attempted"], doc["failed"],
                 "" if ok else " -- NOT CORRECT"))
        for problem in problems:
            print("  problem: %s" % problem)
        for name in declared:
            m = doc["metrics"].get(name)
            if m:
                print("  %-30s %14.6g %-7s n=%-7d %s"
                      % (name, m["value"], m["unit"], m["samples"],
                         m["stat"]))
        for name, value in sorted(doc["info"].items()):
            print("  info %-40s %.6g" % (name, value))

    print("manifest: " + json.dumps(manifest, sort_keys=True))

    def plain(doc):
        return {name: {"value": doc["metrics"][name]["value"],
                       "unit": doc["metrics"][name]["unit"]}
                for name in declared if name in doc["metrics"]}

    if args.workload:
        metrics = plain(results[args.workload])
    else:
        metrics = {w: plain(doc) for w, doc in results.items()}
    final = {"correct": correct, "attempted": attempted, "failed": failed,
             "metrics": metrics}
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"manifest": manifest, "results": results,
                       "summary": final}, f, indent=1)
    print(json.dumps(final))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
