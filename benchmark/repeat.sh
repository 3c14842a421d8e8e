#!/usr/bin/env bash
# Repeatability: runs every workload N times (default 2), each run with
# another seed (1..N) as the driver does, or all with one seed given
# --same-seed S; prints per workload x end-to-end metric the spread between
# the runs against the metric's bound, fails if any exceeds it, and records
# medians, spreads (the noise floor) and fingerprints in benchmark/baseline.json.
#
#   benchmark/repeat.sh [N] [--same-seed S]
set -euo pipefail
cd "$(dirname "$0")/.."
n=2
same=
while [ $# -gt 0 ]; do
  case $1 in
    --same-seed) same=$2; shift 2 ;;
    *) n=$1; shift ;;
  esac
done
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
logs=benchmark/out/repeat
rm -rf "$logs"
mkdir -p "$logs"
for k in $(seq 1 "$n"); do
  seed=${same:-$k}
  for w in serve_unique serve_skewed embed_paper embed_sharded; do
    echo "run $k/$n: $w seed $seed" >&2
    benchmark/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 >"$logs/$w.$seed-$k.log"
  done
done
python3 benchmark/compare.py spread "$logs" --write benchmark/baseline.json
