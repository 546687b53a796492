#!/usr/bin/env bash
# How stable a perf gate is: runs one `gates` gate in N fresh processes,
# one after the other, and prints how many runs passed and, for every
# ratio the gate reports, its range (min / median / max) over the N runs.
#
#   scripts/gate_stability.sh N [gate=interp]
#
# Builds the release `gates` binary of this checkout first. To audit
# another build (say, a parent commit exported with `git archive` and
# built in a directory of its own), point GATES at its binary:
#
#   GATES=/path/to/target/release/gates scripts/gate_stability.sh 20
#
# Each run is `gates <gate>` at its default iteration count, as
# scripts/tier1.sh runs it. Exit 0 whatever the pass count: this measures
# a gate, it is not one.
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: $0 N [gate=interp]"
if [[ $# -lt 1 || $# -gt 2 || ! $1 =~ ^[1-9][0-9]*$ ]]; then
    echo "$usage" >&2
    exit 2
fi
runs=$1
gate=${2:-interp}

if [[ -z ${GATES:-} ]]; then
    cargo build --release -q -p jvolve-bench --bin gates
    GATES=target/release/gates
fi

log=$(mktemp)
trap 'rm -f "$log"' EXIT
passed=0
for ((i = 1; i <= runs; i++)); do
    if out=$("$GATES" "$gate" 2>/dev/null); then
        passed=$((passed + 1))
        verdict=pass
    else
        verdict=FAIL
    fi
    # Ratio lines read "  <what>   <ratio>x (<bound>) <verdict>".
    ratios=$(sed -n 's/^  \(.*[^ ]\) \{1,\}\([0-9.]*\)x (.*$/\1\t\2/p' <<<"$out")
    printf '%s\n' "$ratios" >>"$log"
    printf 'run %2d: %s  %s\n' "$i" "$verdict" "$(cut -f2 <<<"$ratios" | paste -sd' ')"
done

echo "gate $gate: $passed/$runs runs passed"
sort -t$'\t' -k1,1 -k2,2g "$log" | awk -F'\t' '
    $1 != name { if (name != "") report(); name = $1; n = 0 }
    { v[++n] = $2 }
    END { if (name != "") report() }
    function report() {
        printf "  %-40s min %.2fx  median %.2fx  max %.2fx  (%d runs)\n",
            name, v[1], v[int((n + 1) / 2)], v[n], n
    }'
