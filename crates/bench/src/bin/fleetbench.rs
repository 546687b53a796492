//! Fleet throughput and rolling-update regression harness.
//!
//! Measures the sharded serving stack's two claims:
//!
//! 1. **Scaling**: a 4-shard webserver fleet must complete a closed
//!    request batch at ≥ [`SCALING_MIN`]× the aggregate throughput of a
//!    single shard. Shards are OS threads, so this gate only runs on
//!    hosts with at least [`FLEET_GATE_MIN_CPUS`] CPUs.
//! 2. **Roll integrity**: rolling the webserver 5.1.0 → 5.1.1 lazy
//!    update across a loaded 4-shard fleet must promote every shard,
//!    drop nothing, serve zero incorrect responses, keep serving *during*
//!    the roll, and leave every shard with an identical registry
//!    fingerprint. This gate is unconditional — it is the ISSUE 7
//!    zero-dropped-responses acceptance check.
//!
//! No gate compares nanoseconds with a file recorded on another host:
//! the scaling gate is a same-run ratio and the roll gate counts.
//!
//! Usage (same dialect as `gcbench`/`interpbench`/`lazybench`):
//!
//! * `cargo run --release -p jvolve-bench --bin fleetbench` — measure and
//!   write `BENCH_fleet.json` (`--out FILE`; to refresh the committed
//!   record, `--out results/BENCH_fleet.json`).
//! * `... --bin fleetbench -- --check` — re-measure and exit nonzero if
//!   any gate fails; it reads no file, so `--baseline` is refused.
//!   `scripts/tier1.sh` runs this. The scaling gate compares *best-of-N*
//!   and re-measures with 3× iterations before declaring a failure.
//!
//! `--iters N` controls timed iterations per shard count (default 5).

use jvolve_bench::fleet::{measure_roll, measure_throughput, RollRun, ThroughputRun};
use jvolve_bench::timing::{fmt_ns, Samples};
use jvolve_bench::{arg_flag, arg_value, enforce_gate_args, gate_iters};
use jvolve_json::Json;

/// Shard counts measured; the pair carries the scaling gate.
const SHARD_POINTS: [usize; 2] = [1, 4];

/// Requests per timed batch — large enough that per-request cost
/// dominates channel round-trip and scheduling noise, small enough for a
/// tier-1 gate (a batch is a few milliseconds in release builds).
const REQUESTS: u64 = 2000;

/// A 4-shard fleet must reach at least this aggregate speedup over one
/// shard (ISSUE 7 acceptance: ≥ 2×).
const SCALING_MIN: f64 = 2.0;

/// Shards are OS threads: below this CPU count the scaling gate measures
/// the scheduler, not the fleet, so it is skipped (gcbench's rule).
const FLEET_GATE_MIN_CPUS: usize = 4;

struct Entry {
    shards: usize,
    /// Best-of-N. The check gates compare this, not the median.
    ns_per_request_min: f64,
    ns_per_request_median: f64,
}

/// Best-of-`iters` timed batches at one shard count. Every run boots a
/// fresh fleet, so iterations are independent; any incorrect response
/// fails immediately (throughput of wrong answers is not throughput).
fn best_of(shards: usize, iters: usize) -> Samples {
    let mut per_request = Vec::with_capacity(iters);
    for _ in 0..iters {
        let run: ThroughputRun = measure_throughput(shards, REQUESTS);
        assert_eq!(run.incorrect, 0, "fleet served incorrect responses while measuring");
        per_request.push(run.ns_per_request() as u64);
    }
    Samples::from_ns(per_request)
}

fn measure(iters: usize) -> (Vec<Entry>, RollRun) {
    let mut entries = Vec::new();
    for &shards in &SHARD_POINTS {
        eprint!("\rmeasuring {shards} shard(s)...        ");
        let samples = best_of(shards, iters);
        entries.push(Entry {
            shards,
            ns_per_request_min: samples.min_ns() as f64,
            ns_per_request_median: samples.median_ns() as f64,
        });
    }
    eprint!("\rmeasuring rolling update...        ");
    let roll = measure_roll(*SHARD_POINTS.last().expect("shard points"));
    eprintln!();
    (entries, roll)
}

/// Aggregate throughput speedup of the largest point over one shard.
fn scaling(entries: &[Entry]) -> f64 {
    entries[0].ns_per_request_min / entries.last().expect("entries").ns_per_request_min
}

fn to_json(entries: &[Entry], roll: &RollRun, iters: usize, cpus: usize) -> Json {
    Json::obj([
        ("schema", Json::from("jvolve-fleetbench-v1")),
        ("iters", Json::from(iters)),
        ("requests", Json::from(REQUESTS)),
        ("cpus", Json::from(cpus)),
        (
            "entries",
            Json::Arr(
                entries
                    .iter()
                    .map(|e| {
                        Json::obj([
                            ("shards", Json::from(e.shards)),
                            ("ns_per_request_min", Json::from(e.ns_per_request_min)),
                            ("ns_per_request_median", Json::from(e.ns_per_request_median)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("scaling_x", Json::from(scaling(entries))),
        (
            "roll",
            Json::obj([
                ("shards", Json::from(roll.shards)),
                ("promoted", Json::from(roll.promoted)),
                ("rolled_back", Json::from(roll.rolled_back)),
                ("mid_roll_responses", Json::from(roll.mid_roll_responses)),
                ("dropped", Json::from(roll.dropped)),
                ("incorrect", Json::from(roll.incorrect)),
                ("fingerprints_converged", Json::from(roll.converged)),
            ]),
        ),
    ])
}

fn print_table(entries: &[Entry], roll: &RollRun) {
    println!("{:>7} {:>16} {:>16}", "shards", "ns/req (min)", "ns/req (median)");
    for e in entries {
        println!(
            "{:>7} {:>16} {:>16}",
            e.shards,
            fmt_ns(e.ns_per_request_min as u64),
            fmt_ns(e.ns_per_request_median as u64)
        );
    }
    println!("aggregate scaling at {} shards: {:.2}x", SHARD_POINTS[1], scaling(entries));
    println!(
        "rolling lazy update across {} shards: {} promoted, {} mid-roll responses, \
         {} dropped, {} incorrect, fingerprints {}{}",
        roll.shards,
        roll.promoted,
        roll.mid_roll_responses,
        roll.dropped,
        roll.incorrect,
        if roll.converged { "converged" } else { "DIVERGED" },
        if roll.rolled_back { " [ROLLED BACK]" } else { "" },
    );
}

fn check(entries: &[Entry], roll: &RollRun, iters: usize) -> Vec<String> {
    let mut failures = Vec::new();

    // Gate 2 (unconditional): roll integrity. No timing, no retry — a
    // dropped or incorrect response is a correctness bug at any speed.
    println!("\nroll integrity gate ({} shards):", roll.shards);
    let checks: [(&str, bool); 5] = [
        ("every shard promoted", !roll.rolled_back && roll.promoted == roll.shards),
        ("zero dropped responses", roll.dropped == 0),
        ("zero incorrect responses", roll.incorrect == 0),
        ("served during the roll", roll.mid_roll_responses > 0),
        ("registry fingerprints converged", roll.converged),
    ];
    for (what, ok) in checks {
        println!("  {} {}", if ok { "ok  " } else { "FAIL" }, what);
        if !ok {
            failures.push(format!("roll integrity: {what}"));
        }
    }

    // Gate 1: aggregate scaling — only meaningful with real parallelism.
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if cpus < FLEET_GATE_MIN_CPUS {
        println!(
            "\nscaling gate skipped: host has {cpus} CPU(s), gate needs {FLEET_GATE_MIN_CPUS} \
             (shards are OS threads; below that the gate measures the scheduler)"
        );
    } else {
        let mut one = entries[0].ns_per_request_min;
        let mut four = entries.last().expect("entries").ns_per_request_min;
        let mut speedup = one / four;
        if speedup < SCALING_MIN {
            one = one.min(best_of(SHARD_POINTS[0], iters * 3).min_ns() as f64);
            four = four.min(best_of(SHARD_POINTS[1], iters * 3).min_ns() as f64);
            speedup = one / four;
        }
        println!(
            "\nscaling gate: {} vs {} per request = {:.2}x at {} shards (limit {:.1}x)",
            fmt_ns(one as u64),
            fmt_ns(four as u64),
            speedup,
            SHARD_POINTS[1],
            SCALING_MIN,
        );
        if speedup < SCALING_MIN {
            failures.push(format!(
                "aggregate throughput scaled {:.2}x at {} shards (limit {:.1}x)",
                speedup, SHARD_POINTS[1], SCALING_MIN
            ));
        }
    }
    failures
}

fn main() {
    enforce_gate_args("fleetbench");
    if arg_value("--baseline").is_some() {
        eprintln!("fleetbench: no gate compares a recorded file; --check reads no baseline");
        std::process::exit(2);
    }
    let iters = gate_iters();
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    let (entries, roll) = measure(iters);
    print_table(&entries, &roll);

    if arg_flag("--check") {
        let failures = check(&entries, &roll, iters);
        if !failures.is_empty() {
            eprintln!("\nfleet gate failure(s):");
            for f in &failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
        println!("no fleet regressions.");
    } else {
        let out = arg_value("--out").unwrap_or_else(|| "BENCH_fleet.json".to_string());
        std::fs::write(&out, to_json(&entries, &roll, iters, cpus).pretty() + "\n")
            .expect("write output");
        println!("\nwrote {out}");
    }
}
