#!/usr/bin/env bash
# Builds `gsr` and the benchmark in release mode and runs one workload, or
# all four when --workload is not given.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
#
# The last line of each workload's output is its JSON result line.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
target=${CARGO_TARGET_DIR:-$root/benchmark/target}
case $target in /*) ;; *) target=$root/$target ;; esac
export CARGO_TARGET_DIR=$target

cargo build --release --offline --quiet --manifest-path Cargo.toml -p gsr-cli
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

out=$root/benchmark/out
mkdir -p "$out"

run_one() {
  "$target/release/gsr-benchmark" --gsr "$target/release/gsr" --out "$out" "$@" &
  local pid=$!
  trap 'kill "$pid" 2>/dev/null' INT TERM
  local status=0
  wait "$pid" || status=$?
  trap - INT TERM
  # The benchmark removes its scratch directory and reaps its `gsr serve`
  # children itself; if it was killed, do both here.
  local scratch=$out/run-$pid
  if [ -d "$scratch" ]; then
    for f in "$scratch"/serve-*.pid; do
      [ -e "$f" ] && kill -9 "$(cat "$f")" 2>/dev/null || true
    done
    rm -rf "$scratch"
  fi
  return "$status"
}

case " $* " in
  *" --workload "*) run_one "$@" ;;
  *)
    for w in serve_unique serve_skewed embed_paper embed_sharded; do
      run_one --workload "$w" "$@"
    done
    ;;
esac
