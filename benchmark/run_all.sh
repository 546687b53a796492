#!/usr/bin/env bash
# Runs every workload of BENCHMARK.json into benchmark/results/<set>/:
# <workload>.jsonl gets one untraced result line per seed (seeds N, N+1,
# …), <workload>.trace.json the traced run of seed N, and
# <workload>.trace.jsonl that run's spans (not committed).
#
#   benchmark/run_all.sh [--seed N] [--runs R] [--set NAME]
#   benchmark/run_all.sh -- --agree benchmark/results/A benchmark/results/B
#
# Ten runs per workload is what the driver's own spread check uses.
set -euo pipefail
cd "$(dirname "$0")/.."

bench=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)
if [[ "${1:-}" == "--" ]]; then
  shift
  exec "${bench[@]}" "$@"
fi

seed=1
runs=10
set_name="set-$(date +%Y%m%d-%H%M%S)"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --runs) runs="$2"; shift 2 ;;
    --set) set_name="$2"; shift 2 ;;
    *) echo "usage: $0 [--seed N] [--runs R] [--set NAME] | -- --agree A B" >&2; exit 2 ;;
  esac
done

seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
workloads=$(sed -n '/"workloads"/,/\]/s/.*"name": *"\([^"]*\)".*/\1/p' BENCHMARK.json)
out="benchmark/results/$set_name"
mkdir -p "$out"

for w in $workloads; do
  : > "$out/$w.jsonl"
  for ((i = 0; i < runs; i++)); do
    "${bench[@]}" --workload "$w" --seed $((seed + i)) --seconds "$seconds" --trace 0 \
      | tail -n 1 >> "$out/$w.jsonl"
  done
  "${bench[@]}" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1 \
    --trace-out "$out/$w.trace.jsonl" | tail -n 1 > "$out/$w.trace.json"
  echo "$w: $runs untraced runs + 1 traced run in $out" >&2
done
