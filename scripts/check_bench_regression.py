#!/usr/bin/env python3
"""Perf-regression gate over kernels_microbench JSON.

Statistic: the *minimum* real_time over a benchmark's repetitions when
raw repetition entries are present (the best-case run is the least
contaminated by scheduler interference and CPU-quota throttling — by
far the dominant noise on shared runners), falling back to the median
aggregate when the file holds only aggregates.

This is a smoke gate, not a precision instrument: tolerances are sized
to catch sustained regressions (a misrouted accumulator, a lost
optimization — historically 1.25x and worse) while staying quiet under
the ±10-20 % that multi-worker wall times jitter on shared/throttled
machines.  The controlled before/after numbers live in
docs/PERFORMANCE.md.

Two layers of checks:

1. Machine-independent ratio invariants *within* --current (these are the
   acceptance criteria of the adaptive kernels, so they hold on any
   machine, including noisy CI runners):
     - BM_SpgemmParallelAdaptive/<n>/<w> must not be slower than
       BM_SpgemmParallel/<n>/<w> (the SPA-pinned baseline) beyond the
       ratio tolerance, at every measured worker count;
     - BM_SpgemmBandedParallel .../auto:1 (kAuto) must stay within the
       ratio tolerance of .../auto:0 (ForceSpa) on the dense-row input;
     - BM_CcAdaptive/<w> must beat BM_CcLabelProp/<w> (sampling-based
       two-phase CC vs label propagation on the scale-free input) at
       every measured worker count;
     - BM_SpmvParallelBlocked/<w> must beat BM_SpmvParallelRowwise/<w>
       (row-blocked + SIMD vs the per-row parallel_for kernel it
       replaced) on the skewed input;
     - BM_SpgemmNumericRemultiply/<n> must run at most NUMERIC_BOUND of
       BM_SpgemmFullRemultiply/<n> (the >= 1.5x numeric-only re-multiply
       speedup over symbolic+numeric);
     - BM_SpgemmPlanBuild/<n> must run at most PLAN_BOUND of
       BM_SpgemmFullRemultiply/<n> (a plan build is one symbolic walk,
       not the symbolic pass plus a second pattern walk).

   Entries whose worker count (`/<w>` after the size, or `workers:<w>`)
   exceeds the file's context.num_cpus are printed with an
   "oversubscribed" note: their ratios show work reduction, not parallel
   scaling.  The note never fails the gate.

2. Cross-file comparison vs --baseline (the committed BENCH_kernels.json):
   the same ratios must not regress versus the snapshot, and with
   --absolute also each benchmark's time itself must stay within
   --absolute-tolerance.  Absolute times only mean something on the
   machine that produced the baseline, so --absolute is off by default
   and CI runs ratio checks only.

Exit status is non-zero if any check fails; every check is printed.
"""

import argparse
import json
import sys
from collections import defaultdict


def load_stats(path):
    """Map benchmark run_name -> min real_time (ns) over repetitions,
    falling back to the median aggregate where no raw entries exist.

    A file that cannot be parsed, holds no benchmark entries, or holds an
    entry without a usable real_time is a hard error: a malformed
    snapshot must fail the gate, not silently shrink it."""
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise SystemExit(f"{path}: cannot load benchmark JSON: {e}")
    samples = defaultdict(list)
    medians = {}
    for entry in data.get("benchmarks", []):
        name = entry.get("run_name") or entry.get("name")
        try:
            real_time = float(entry["real_time"])
        except (KeyError, TypeError, ValueError):
            raise SystemExit(
                f"{path}: benchmark entry {name!r} has no usable real_time")
        if entry.get("run_type") == "aggregate":
            if entry.get("aggregate_name") == "median":
                medians[name] = real_time
        else:
            samples[name].append(real_time)
    stats = {name: min(values) for name, values in samples.items()}
    for name, median in medians.items():
        stats.setdefault(name, median)
    if not stats:
        raise SystemExit(f"{path}: no benchmark entries found")
    return stats


# Numeric-only SpGEMM must re-multiply at least 1.5x faster than the full
# symbolic+numeric kernel (the PR acceptance criterion), so its time may
# be at most 1/1.5 of the full kernel's.
NUMERIC_BOUND = 1.0 / 1.5

# A plan build is one symbolic walk over A x B plus a copy of C's pattern.
# Calibration (min over 5 reps, 4-vCPU Xeon VM; docs/PERFORMANCE.md):
# 0.36-0.45 of the full product, against 0.74-0.82 for the two-walk build
# it replaced, so 0.65 keeps ~1.4x headroom and still fails the old build.
PLAN_BOUND = 0.65

# The adaptive-CC and blocked-SpMV kernels must beat the kernels they
# replaced, with headroom for shared-runner jitter on oversubscribed
# multi-worker wall times.  Calibration (min over 5 reps, 1-core runner;
# see docs/PERFORMANCE.md): cc adaptive-vs-lp measured 0.19-0.36 across
# w=2/4/8 -> bound 0.75 keeps ~2x headroom; spmv blocked-vs-rowwise
# measured 0.69-0.83 -> bound 0.95 keeps the must-beat property with
# ~15% jitter allowance.
CC_BOUND = 0.75
SPMV_BOUND = 0.95


def ratio_pairs(medians, default_bound):
    """(label, numerator, denominator, bound) tuples present in a run.

    Each tuple asserts medians[numerator] <= bound * medians[denominator];
    `bound` is `default_bound` (1 + --ratio-tolerance) for the not-worse
    invariants and a hard < 1 constant for the must-beat invariants.
    """
    pairs = []
    for name in sorted(medians):
        if name.startswith("BM_SpgemmParallelAdaptive/"):
            base = name.replace("BM_SpgemmParallelAdaptive/",
                                "BM_SpgemmParallel/")
            if base in medians:
                pairs.append((f"adaptive-vs-spa {name.split('/', 1)[1]}",
                              name, base, default_bound))
        if name.startswith("BM_SpgemmBandedParallel/") and \
                name.endswith("/auto:1"):
            base = name[: -len("1")] + "0"
            if base in medians:
                pairs.append(("banded kAuto-vs-ForceSpa", name, base,
                              default_bound))
        if name.startswith("BM_CcAdaptive/"):
            base = name.replace("BM_CcAdaptive/", "BM_CcLabelProp/")
            if base in medians:
                pairs.append((f"cc adaptive-vs-lp {name.split('/', 1)[1]}",
                              name, base, CC_BOUND))
        if name.startswith("BM_SpmvParallelBlocked/"):
            base = name.replace("BM_SpmvParallelBlocked/",
                                "BM_SpmvParallelRowwise/")
            if base in medians:
                pairs.append((f"spmv blocked-vs-rowwise "
                              f"{name.split('/', 1)[1]}",
                              name, base, SPMV_BOUND))
        if name.startswith("BM_SpgemmNumericRemultiply"):
            base = name.replace("BM_SpgemmNumericRemultiply",
                                "BM_SpgemmFullRemultiply")
            if base in medians:
                suffix = name.split("/", 1)[1] if "/" in name else ""
                pairs.append((f"spgemm numeric-vs-full {suffix}".rstrip(),
                              name, base, NUMERIC_BOUND))
        if name.startswith("BM_SpgemmPlanBuild"):
            base = name.replace("BM_SpgemmPlanBuild",
                                "BM_SpgemmFullRemultiply")
            if base in medians:
                suffix = name.split("/", 1)[1] if "/" in name else ""
                pairs.append((f"spgemm plan-build-vs-full {suffix}".rstrip(),
                              name, base, PLAN_BOUND))
    return pairs


def worker_count(name):
    """The worker count a benchmark name carries, else None: a
    `workers:<w>` argument, or the last of two or more positional ones
    (BM_X/<size>/<w>)."""
    args = name.split("/")[1:]
    for arg in args:
        if arg.startswith("workers:") and arg[8:].isdigit():
            return int(arg[8:])
    if len(args) >= 2 and args[-1].isdigit():
        return int(args[-1])
    return None


def note_oversubscribed(path, stats):
    """Print a note for every entry run with more workers than CPUs."""
    with open(path, encoding="utf-8") as f:
        cpus = json.load(f).get("context", {}).get("num_cpus")
    if not cpus:
        return
    for name in sorted(stats):
        w = worker_count(name)
        if w is not None and w > cpus:
            print(f"  note {name}: {w} workers on {cpus} CPU(s) — "
                  f"oversubscribed: shows work reduction, not scaling")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH_kernels.json")
    parser.add_argument("--current", required=True,
                        help="freshly produced benchmark JSON")
    parser.add_argument("--ratio-tolerance", type=float, default=0.25,
                        help="allowed adaptive/pinned ratio above 1.0 and "
                             "allowed ratio regression vs baseline")
    parser.add_argument("--absolute", action="store_true",
                        help="also compare absolute medians vs baseline "
                             "(same-machine runs only)")
    parser.add_argument("--absolute-tolerance", type=float, default=0.30,
                        help="allowed per-benchmark median slowdown vs "
                             "baseline with --absolute")
    args = parser.parse_args()

    failures = []

    def check(ok, line):
        print(("  ok   " if ok else "  FAIL ") + line)
        if not ok:
            failures.append(line)

    baseline = load_stats(args.baseline)
    current = load_stats(args.current)

    for path, stats in {args.baseline: baseline,
                        args.current: current}.items():
        print(f"worker counts in {path}:")
        note_oversubscribed(path, stats)

    print(f"ratio invariants in {args.current}:")
    default_bound = 1.0 + args.ratio_tolerance
    pairs = ratio_pairs(current, default_bound)
    if not pairs:
        check(False, "no gated benchmark pairs found "
                     "(wrong --benchmark_filter?)")
    for label, fast, base, bound in pairs:
        ratio = current[fast] / current[base]
        check(ratio <= bound,
              f"{label}: ratio {ratio:.3f} = {current[fast]:.0f}ns / "
              f"{current[base]:.0f}ns (bound {bound:.2f})")

    print(f"ratio drift vs {args.baseline}:")
    drift_bound = default_bound
    for label, fast, base, _ in pairs:
        # A gated pair absent from the committed snapshot means the
        # baseline was never regenerated for this gate: fail loudly
        # instead of skipping the drift check.
        if fast not in baseline or base not in baseline:
            check(False, f"{label}: {fast if fast not in baseline else base} "
                         f"missing from baseline {args.baseline} "
                         f"(regenerate with scripts/bench_snapshot.sh)")
            continue
        base_ratio = baseline[fast] / baseline[base]
        ratio = current[fast] / current[base]
        # A ratio that was already generous in the snapshot may not creep
        # further; one that was comfortable may use the headroom up to the
        # invariant bound checked above.
        limit = max(drift_bound, base_ratio * drift_bound)
        check(ratio <= limit,
              f"{label}: ratio {ratio:.3f} = {current[fast]:.0f}ns / "
              f"{current[base]:.0f}ns vs snapshot {base_ratio:.3f} "
              f"(limit {limit:.2f})")

    if args.absolute:
        print(f"absolute medians vs {args.baseline}:")
        abs_bound = 1.0 + args.absolute_tolerance
        shared = sorted(set(baseline) & set(current))
        if not shared:
            check(False, "baseline and current share no benchmarks")
        for name in shared:
            ratio = current[name] / baseline[name]
            check(ratio <= abs_bound,
                  f"{name}: {current[name]:.0f}ns vs "
                  f"{baseline[name]:.0f}ns ({ratio:.2f}x)")

    if failures:
        print(f"check_bench_regression: FAIL ({len(failures)} checks)")
        return 1
    print("check_bench_regression: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
