#!/usr/bin/env bash
# Repeatability check: runs the whole benchmark as two sets of runs of
# the same tree — one run per workload and seed 1..N in each set, as the
# acceptance driver does — and writes benchmark/REPEATABILITY.md with
# every (metric, workload)'s per-set median, quartiles, spread and
# between-set difference. Exits non-zero if a spread exceeds its bound or
# two sets differ by more than half of it.
#
#   benchmark/repeat.sh [runs-per-set]     (default 10, at least 5)
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
runs="${1:-10}"
if [ "$runs" -lt 5 ]; then
  echo "repeat.sh: at least 5 runs per set" >&2
  exit 2
fi
out="$here/out/repeat"
rm -rf "$out"
mkdir -p "$out"

for set in 1 2; do
  for seed in $(seq 1 "$runs"); do
    for w in warm_serve cold_sweep commit_rescan fleet_commit; do
      echo "set $set seed $seed $w" >&2
      "$here/run.sh" --workload "$w" --seed "$seed" --trace 0 \
        >"$out/set${set}_${w}_${seed}.out" 2>>"$out/stderr.log"
    done
  done
done

"$(dirname "$here")/.bench_build/bin/kbenchrun" -report "$out" >"$here/REPEATABILITY.md"
