#!/usr/bin/env bash
# Refresh the committed perf baseline at the repo root: BENCH_kernels.json,
# the google-benchmark aggregates from kernels_microbench.
#
# Run on an otherwise idle machine.  Repetitions + random interleaving
# defend the medians against the frequency/thermal drift that single
# back-to-back runs suffer from; scripts/check_bench_regression.py then
# gates on machine-independent *ratios* within one file, so a snapshot
# from any reasonably quiet box is a usable baseline.
#
# Usage: scripts/bench_snapshot.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
REPS="${BENCH_REPS:-5}"

# Provenance for the run manifests (obs::collect_provenance): baselines
# committed from this snapshot stay traceable to the exact commit.
NBWP_GIT_SHA="$(git rev-parse HEAD 2>/dev/null || echo '')"
export NBWP_GIT_SHA

if [[ ! -x "$BUILD_DIR/bench/kernels_microbench" ]]; then
  echo "bench_snapshot: $BUILD_DIR/bench/kernels_microbench not built" >&2
  echo "  cmake -B $BUILD_DIR -S . -DCMAKE_BUILD_TYPE=Release && cmake --build $BUILD_DIR -j" >&2
  exit 1
fi

echo "bench_snapshot: loadavg $(cut -d' ' -f1-3 /proc/loadavg 2>/dev/null || echo '?')"

# kernels_microbench writes BENCH_kernels.json into the CWD by itself;
# the flags here replace single runs with interleaved median-of-N.
"$BUILD_DIR/bench/kernels_microbench" \
  --benchmark_repetitions="$REPS" \
  --benchmark_enable_random_interleaving=true \
  --benchmark_report_aggregates_only=true

# The adaptive-vs-pinned pairs that the CI gate keys on get a second,
# dedicated pass: a long full-suite run spans minutes of frequency /
# thermal drift that interleaving cannot fully cancel, while a short
# filtered run measures both sides of each ratio under one machine
# state — the same way the CI job measures its fresh side.  Raw
# repetitions are kept (no aggregates-only) because the regression
# gate keys on the min over repetitions.  These entries replace the
# full-suite ones in the snapshot.
"$BUILD_DIR/bench/kernels_microbench" \
  --benchmark_filter='BM_SpgemmParallel(Adaptive)?/|BM_SpgemmBandedParallel|BM_Cc(LabelProp|Adaptive)/|BM_SpmvParallel(Rowwise|Blocked)/|BM_Spgemm(Full|Numeric)Remultiply|BM_SpgemmPlanBuild' \
  --benchmark_min_time=0.3 \
  --benchmark_repetitions="$REPS" \
  --benchmark_enable_random_interleaving=true \
  --benchmark_out=BENCH_pairs.tmp.json \
  --benchmark_out_format=json

python3 - <<'EOF'
import json
full = json.load(open("BENCH_kernels.json"))
pairs = json.load(open("BENCH_pairs.tmp.json"))
refreshed = {b["run_name"] for b in pairs["benchmarks"]}
full["benchmarks"] = [
    b for b in full["benchmarks"] if b["run_name"] not in refreshed
] + pairs["benchmarks"]
json.dump(full, open("BENCH_kernels.json", "w"), indent=1)
print(f"bench_snapshot: refreshed {len(refreshed)} gated benchmarks "
      "from the dedicated pass")
EOF
rm -f BENCH_pairs.tmp.json

python3 scripts/check_bench_regression.py \
  --baseline BENCH_kernels.json --current BENCH_kernels.json
echo "bench_snapshot: wrote BENCH_kernels.json"
