#!/usr/bin/env bash
# Tier-1 gate: release build, clippy, full workspace test suite, the
# named oracles, a benchmark/ smoke, and the quick bench gates — exact
# counts and same-run ratios; no step reads a committed file. Run from
# the repository root:
#
#   scripts/tier1.sh
#
# Pass --skip-bench to skip the bench gates (e.g. on heavily loaded CI
# machines where even best-of-N timing is meaningless).
set -euo pipefail
cd "$(dirname "$0")/.."

skip_bench=0
for arg in "$@"; do
    case "$arg" in
        --skip-bench) skip_bench=1 ;;
        *) echo "unknown argument: $arg" >&2; exit 2 ;;
    esac
done

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo clippy (workspace, warnings denied) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: cargo test (workspace) =="
cargo test -q --workspace

# The differential oracles: an update is deterministic down to heap
# addresses (two identically booted VMs, same update, same cells at the
# same addresses, same logs and stats); and the template JIT on vs off
# is observationally identical (fingerprints, transformer traces,
# retired steps, slice counts) across eager, lazy, and rolled-back
# updates. Part of the workspace run above, but named so a
# gate failure here is unambiguous in CI logs.
echo "== tier-1: differential oracles (update determinism, template JIT) =="
cargo test -q --test differential -- --skip tiers_match_base_and_host

# The jit off and on: random guest programs over every simple op,
# trapping forms included, run as unfused code and as fused code with
# frameless leaf calls against a host model — same result or same trap,
# and for the jit the unfused code's retired steps and post-trap heap.
echo "== tier-1: jit differential (unfused vs fused+leaf vs host model) =="
cargo test -q --test differential tiers_match_base_and_host

# The lazy-migration differential oracle: a lazily committed update (the
# update-GC as an incremental copy) must be observationally identical to
# the eager one under arbitrary interleavings of guest execution, copy
# steps and full GCs, with the epoch's invariants checked after every step.
echo "== tier-1: lazy-migration differential oracle (guest execution, copy steps and full GCs) =="
cargo test -q --test lazy_differential

# The plan ≡ interpreted oracle: lowering pure field-copy transformers to
# native copy plans must change nothing observable — outcome, heap and
# registry fingerprints, objects transformed, user-transformer order —
# over all 42 guest-app release pairs and the List example, eager and
# lazy; plus the plan builder's property tests.
echo "== tier-1: plan == interpreted transformer oracle (42 release pairs, eager + lazy) =="
cargo test -q -p jvolve-upt --test plan_oracle
cargo test -q --test plan_props

# Fleet fault injection: a mid-roll update rejection or health-check
# timeout must roll the whole fleet back to bit-identical registry
# fingerprints with zero dropped or incorrect responses.
echo "== tier-1: fleet fault-injection rollback oracle (bad transformers + health timeout) =="
cargo test -q -p jvolve-apps --test fleet_faults

# Fuzz smoke: a fixed-seed, bounded-budget pass of all five mutator
# families over the untrusted-update path (typed rejections only,
# fingerprint-convergent aborts), then a replay of the committed
# regression corpus so no fixed crash can silently return.
echo "== tier-1: adversarial update fuzz smoke (all families, fixed seed) =="
cargo run --release -q -p jvolve-fuzz --bin fuzz_run -- --seed 1 --iters 250
echo "== tier-1: fuzz regression-corpus replay =="
cargo run --release -q -p jvolve-fuzz --bin fuzz_run -- --replay crates/fuzz/corpus

# The serving path's host-allocation budget: webserver 5.1.6 and kvstore
# 1.20 serve 10 000 requests each under a counting global allocator, and
# the allocations made inside Vm::step_slice are pinned (two per request:
# the reply and its queue slot). The timing-free guard for guest strings
# being read in place; part of the workspace run above, named here so a
# string op that goes back to copying through the host fails under its
# own heading.
echo "== tier-1: host-allocation budget of the serving path (<= 4 per request) =="
cargo test -q --test alloc_budget

# The stand-alone benchmark package (benchmark/, its own manifest and
# target directory) names jvolve::Update / UpdateController / Vm items in
# benchmark/src/layers.rs but is not a workspace member, so nothing above
# builds it. Build it and run the steady-state serving workload and the
# release-stream workload for a second each: exit 0 with "correct":true
# means it still builds against this tree and every reply verified. Not
# a timing gate, so --skip-bench does not skip it.
for workload in web_steady kv_stream_eager; do
    echo "== tier-1: benchmark package builds and runs ($workload, 1 s smoke) =="
    bench_smoke=$(cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0)
    case "$bench_smoke" in
        *'"correct":true'*) echo "benchmark smoke ok" ;;
        *) echo "benchmark smoke did not report \"correct\":true: $bench_smoke" >&2; exit 1 ;;
    esac
done

# The performance gates, one runner (crates/bench/src/bin/gates.rs):
# gc — exact update-GC copy counts (cells, words, and every copied word
# unscanned: the population holds no reference), 100%-updated GC <= 2.5x the
# 0%-updated one, plan pause <= 0.5x the interpreted one; interp — exact
# checksum/calls/compile counts/fusion coverage, jit >= 2.48x base,
# post-update parity at both tiers; lazy — the eager heap's words after
# the commit (exact), pause <= 25% of eager, pause flatness <= 2x and
# step flatness <= 4x across heap sizes, copy <= 1.25x the eager pause,
# post-drain steady state;
# fleet — 2-shard throughput >= 1.6x one shard's; stream — the longest
# release-stream pause under an absolute 25 ms ceiling. Every ratio is
# best-of-N of one run, re-measured once at 3x before it fails.
gates_banner="performance gates (gc copied + unscanned counts + 2 ratios, interp counts + 3 ratios, lazy 1 count + 5 ratios, fleet 2/1 shards >= 1.6x, stream pause <= 25 ms)"
if [ "$skip_bench" = 0 ]; then
    echo "== tier-1: $gates_banner =="
    cargo run --release -q -p jvolve-bench --bin gates -- --iters 5
else
    echo "== tier-1: $gates_banner skipped (--skip-bench) =="
fi

echo "== tier-1: OK =="
