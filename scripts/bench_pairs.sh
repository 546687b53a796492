#!/usr/bin/env bash
# Alternating parent/change pairs of one benchmark workload, judged by the
# rule a performance claim has to meet: the change wins at least nine
# tenths of the pairs (ties count for neither side) and the medians differ
# by more than the distance between the quartiles of the parent's runs.
#
#   scripts/bench_pairs.sh <parent-ref> <workload> [pairs=10]
#
# "change" is the working tree; "parent" is <parent-ref>, exported with
# `git archive` and built into a target directory of its own, both under
# $BENCH_PAIRS_DIR (default .bench_build/, git-ignored). Each side builds
# benchmark/ from its own sources, as the driver does. Pair i runs seed i
# on both sides for BENCHMARK.json's run_seconds; odd pairs run the parent
# first, even pairs the change. Every result line is kept in
# $BENCH_PAIRS_DIR/<workload>.{parent,change}.jsonl, and every end-to-end
# metric of BENCHMARK.json gets a row: each side's median and quartiles
# (exclusive method, as the driver takes them), wins/ties/losses over the
# pairs, and a verdict — `gain`, `regressed` (median worse than the
# parent's by more than the metric's bound), or `-`.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 2 || $# -gt 3 ]]; then
    echo "usage: $0 <parent-ref> <workload> [pairs=10]" >&2
    exit 2
fi
parent_ref=$1
workload=$2
pairs=${3:-10}
if ! [[ $pairs =~ ^[1-9][0-9]*$ ]]; then
    echo "pairs must be a positive number, got '$pairs'" >&2
    exit 2
fi
if ! grep -q "\"name\": *\"$workload\"" BENCHMARK.json; then
    echo "unknown workload '$workload' (see BENCHMARK.json)" >&2
    exit 2
fi
sha=$(git rev-parse --verify --quiet "$parent_ref^{commit}") || {
    echo "unknown ref '$parent_ref'" >&2
    exit 2
}

work=${BENCH_PAIRS_DIR:-.bench_build}
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
mkdir -p "$work"
work=$(cd "$work" && pwd)

src="$work/parent-$sha"
if [[ ! -d $src ]]; then
    mkdir -p "$src.partial"
    git archive "$sha" | tar -x -C "$src.partial"
    mv "$src.partial" "$src"
fi
echo "building parent $sha and the working tree" >&2
cargo build --release --offline --quiet --manifest-path "$src/benchmark/Cargo.toml" \
    --target-dir "$work/target-parent"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
cp "$work/target-parent/release/jvolve-benchmark" "$work/parent.bin"
cp benchmark/target/release/jvolve-benchmark "$work/change.bin"

run() { # side seed
    "$work/$1.bin" --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0 \
        | tail -n 1 >> "$work/$workload.$1.jsonl"
}
: > "$work/$workload.parent.jsonl"
: > "$work/$workload.change.jsonl"
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then order="parent change"; else order="change parent"; fi
    for side in $order; do run "$side" "$i"; done
    echo "pair $i/$pairs done ($order)" >&2
done

# name:better:bound for every end-to-end metric.
metrics=$(awk '
    /"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
    on && /"name"/   { gsub(/[",]/, ""); name = $2 }
    on && /"better"/ { gsub(/[",]/, ""); better = $2 }
    on && /"bound"/  { gsub(/[",]/, ""); print name ":" better ":" $2 }' BENCHMARK.json)

echo "$workload: $pairs pairs, parent $sha vs working tree, ${seconds}s runs"
for side in parent change; do
    awk -v side="$side" '
        { if ($0 !~ /"correct":true/) bad++
          match($0, /"attempted":[0-9]+/); att += substr($0, RSTART + 12, RLENGTH - 12)
          match($0, /"failed":[0-9]+/);    fail += substr($0, RSTART + 9, RLENGTH - 9) }
        END { printf "%-7s runs=%d incorrect=%d failed=%d/%d operations\n", side, NR, bad, fail, att }
    ' "$work/$workload.$side.jsonl"
done
printf '%-16s %-6s %38s %38s %9s %8s  %s\n' metric better "parent median [q1 .. q3]" \
    "change median [q1 .. q3]" "w/t/l" "gap" verdict
for m in $metrics; do
    IFS=: read -r name better bound <<< "$m"
    values() { sed -n "s/.*\"$name\":{\"value\":\([-+0-9.eE]*\).*/\1/p" "$1"; }
    paste <(values "$work/$workload.parent.jsonl") <(values "$work/$workload.change.jsonl") \
        | awk -v name="$name" -v better="$better" -v bound="$bound" '
        function sorted(src, dst, n,    i, j, t) {
            for (i = 1; i <= n; i++) dst[i] = src[i]
            for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
        }
        function quartile(v, n, k,    pos, lo) {
            if (n < 2) return v[1]
            pos = k * (n + 1) / 4; lo = int(pos)
            if (lo < 1) lo = 1; if (lo > n - 1) lo = n - 1
            return v[lo] + (v[lo + 1] - v[lo]) * (pos - lo)
        }
        { p[NR] = $1; c[NR] = $2
          d = (better == "higher") ? $2 - $1 : $1 - $2
          if (d > 0) wins++; else if (d < 0) losses++; else ties++ }
        END {
            n = NR; sorted(p, ps, n); sorted(c, cs, n)
            pm = quartile(ps, n, 2); cm = quartile(cs, n, 2)
            piqr = quartile(ps, n, 3) - quartile(ps, n, 1)
            gain = (better == "higher") ? cm - pm : pm - cm
            verdict = "-"
            if (wins >= 0.9 * n && gain > piqr) verdict = "gain"
            else if (pm != 0 && -gain / (pm < 0 ? -pm : pm) > bound) verdict = "regressed"
            printf "%-16s %-6s %12.6g [%10.6g .. %10.6g] %12.6g [%10.6g .. %10.6g] %3d/%d/%-3d %+7.1f%%  %s\n",
                name, better, pm, quartile(ps, n, 1), quartile(ps, n, 3),
                cm, quartile(cs, n, 1), quartile(cs, n, 3),
                wins, ties, losses, pm != 0 ? 100 * (cm - pm) / pm : 0, verdict
        }'
done
echo "gain: the change won >= 9/10 of the pairs and the median gap exceeds the parent's q3 - q1"
