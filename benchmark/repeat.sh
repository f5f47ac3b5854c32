#!/usr/bin/env bash
# Noise self-check: runs the whole suite (every workload, untraced then
# traced) N times (default 5), twice over, and compares the two sets. Both
# sets use seeds 1..N, so they differ by the host's noise alone. Prints per
# workload and end-to-end metric the two medians, their gap and each set's
# inter-quartile spread; exits non-zero if a gap exceeds the metric's bound
# in BENCHMARK.json either way, or if a count that must repeat exactly
# differs between two runs of a seed. Run from the repository root. The two
# sets alternate run by run, so slow drift of the host reaches both alike.
set -euo pipefail
n="${1:-5}"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"
out=".bench_build/repeat"
rm -rf "$out"
mkdir -p "$out/set1" "$out/set2"
for seed in $(seq 1 "$n"); do
  for set in 1 2; do
    bash benchmark/run.sh -all -seed "$seed" -seconds "$seconds" \
      -out "$out/set$set/$seed.json" | tail -n 1 > /dev/null
    echo "set $set seed $seed done" >&2
  done
done
exec .bench_build/dashbench -summarize "$out"
