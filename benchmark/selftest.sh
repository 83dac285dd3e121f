#!/usr/bin/env bash
# Smoke-test the benchmark: run every workload at 1/20 of its window,
# untraced and traced, and check that the result line carries exactly the
# metrics BENCHMARK.json declares for that mode, each with its declared
# unit, and that every output was correct.  Takes about 20 s after the
# build.
#
#   bash benchmark/selftest.sh
set -euo pipefail
cd "$(dirname "$0")/.."

for trace in 0 1; do
  result=$(python3 benchmark/run.py --smoke --seed 1 --trace "$trace" | tail -n 1)
  python3 - "$trace" "$result" <<'EOF'
import json
import sys

trace, result = int(sys.argv[1]), json.loads(sys.argv[2])
spec = json.load(open("BENCHMARK.json"))
declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
problems = []
if not result["correct"] or result["failed"] != 0:
    problems.append("outputs not correct")
for workload in (w["name"] for w in spec["workloads"]):
    got = result["metrics"].get(workload)
    if got is None:
        problems.append(f"{workload}: no metrics")
        continue
    for name in sorted(set(declared) - set(got)):
        problems.append(f"{workload}: {name} missing")
    for name in sorted(set(got) - set(declared)):
        problems.append(f"{workload}: {name} not declared")
    for name in sorted(set(got) & set(declared)):
        if got[name]["unit"] != declared[name]:
            problems.append(f"{workload}: {name} in {got[name]['unit']}, "
                            f"declared {declared[name]}")
mode = "traced" if trace else "untraced"
if problems:
    print(f"selftest ({mode}) FAILED:\n  " + "\n  ".join(problems))
    sys.exit(1)
print(f"selftest ({mode}): {len(declared)} metrics x "
      f"{len(spec['workloads'])} workloads ok")
EOF
done
