//! Release-stream regression harness: the kvstore's 20-version chain,
//! prepared by the UPT, applied end-to-end under sustained verified load.
//!
//! Gates (ISSUE 10 acceptance):
//!
//! 1. **Stream integrity** (unconditional): the full chain applies on an
//!    eager stream *and* a lazy stream — every update commits, zero
//!    aborted, zero incorrect responses, zero unanswered probes; the
//!    lazy stream serializes at least one release that arrived while the
//!    previous epoch was still draining; both streams end on the same
//!    registry version fingerprint.
//! 2. **Pause bound**: the longest single-update pause across the eager
//!    stream (best-of-N) must stay under the absolute [`PAUSE_CEILING_NS`].
//!    Nothing is compared with a pause recorded on another host.
//!
//! Usage (same dialect as `gcbench`/`interpbench`/`lazybench`/`fleetbench`):
//!
//! * `cargo run --release -p jvolve-bench --bin streambench` — measure
//!   and write `BENCH_stream.json` (`--out FILE`; to refresh the
//!   committed record, `--out results/BENCH_stream.json`).
//! * `... --bin streambench -- --check` — re-measure and exit nonzero if
//!   any gate fails; it reads no file, so `--baseline` is refused.
//!   `scripts/tier1.sh` runs this.
//!
//! `--iters N` controls full eager-stream iterations (default 5).

use jvolve_apps::StreamReport;
use jvolve_bench::stream::{chain_len, measure_eager, measure_lazy};
use jvolve_bench::timing::{fmt_ns, Samples};
use jvolve_bench::{arg_flag, arg_value, gate_iters};
use jvolve_json::Json;

/// Absolute ceiling on the longest single-update pause in the eager
/// stream. The paper's pauses are dominated by the update GC; a chain
/// update on the kvstore's working set is far below this — the ceiling
/// catches pathological regressions on any host.
const PAUSE_CEILING_NS: u64 = 25_000_000;

/// Best-of-`iters` eager streams. Every run must be clean — a stream
/// with a wrong answer has no pause number worth comparing.
fn best_of_eager(iters: usize) -> (Samples, StreamReport) {
    let mut pauses = Vec::with_capacity(iters);
    let mut last = None;
    for _ in 0..iters {
        let report = measure_eager();
        assert!(
            report.clean(chain_len()) && report.unanswered == 0,
            "eager stream not clean while measuring: {report:?}"
        );
        pauses.push(report.max_pause.as_nanos() as u64);
        last = Some(report);
    }
    (Samples::from_ns(pauses), last.expect("at least one iteration"))
}

fn to_json(pauses: &Samples, eager: &StreamReport, lazy: &StreamReport, iters: usize) -> Json {
    Json::obj([
        ("schema", Json::from("jvolve-streambench-v1")),
        ("iters", Json::from(iters)),
        ("updates", Json::from(chain_len())),
        ("pause_ns_min", Json::from(pauses.min_ns())),
        ("pause_ns_median", Json::from(pauses.median_ns())),
        (
            "eager",
            Json::obj([
                ("responses", Json::from(eager.responses)),
                ("incorrect", Json::from(eager.incorrect)),
                ("unanswered", Json::from(eager.unanswered)),
            ]),
        ),
        (
            "lazy",
            Json::obj([
                ("responses", Json::from(lazy.responses)),
                ("incorrect", Json::from(lazy.incorrect)),
                ("unanswered", Json::from(lazy.unanswered)),
                ("queued_mid_drain", Json::from(lazy.queued_mid_drain)),
            ]),
        ),
    ])
}

fn print_table(pauses: &Samples, eager: &StreamReport, lazy: &StreamReport) {
    let updates = chain_len();
    println!(
        "eager stream: {}/{} updates, {} responses, {} incorrect, {} unanswered",
        eager.versions_applied, updates, eager.responses, eager.incorrect, eager.unanswered
    );
    println!(
        "lazy stream:  {}/{} updates, {} responses, {} incorrect, {} unanswered, \
         {} queued mid-drain",
        lazy.versions_applied,
        updates,
        lazy.responses,
        lazy.incorrect,
        lazy.unanswered,
        lazy.queued_mid_drain
    );
    println!(
        "max per-update pause: {} (min) / {} (median) over {} eager stream(s)",
        fmt_ns(pauses.min_ns()),
        fmt_ns(pauses.median_ns()),
        pauses.len()
    );
}

fn check(pauses: &Samples, eager: &StreamReport, lazy: &StreamReport) -> Vec<String> {
    let mut failures = Vec::new();
    let updates = chain_len();

    // Gate 1 (unconditional): stream integrity. No timing, no retry.
    println!("\nstream integrity gate ({updates} updates):");
    let checks: [(&str, bool); 6] = [
        ("eager: full chain applied, zero aborted", eager.clean(updates)),
        ("eager: zero incorrect, zero unanswered", eager.incorrect == 0 && eager.unanswered == 0),
        ("lazy: full chain applied, zero aborted", lazy.clean(updates)),
        ("lazy: zero incorrect, zero unanswered", lazy.incorrect == 0 && lazy.unanswered == 0),
        ("lazy: serialized a mid-drain arrival", lazy.queued_mid_drain >= 1),
        (
            "eager and lazy registry fingerprints converged",
            eager.version_fingerprint == lazy.version_fingerprint,
        ),
    ];
    for (what, ok) in checks {
        println!("  {} {}", if ok { "ok  " } else { "FAIL" }, what);
        if !ok {
            failures.push(format!("stream integrity: {what}"));
        }
    }

    // Gate 2: the pause bound, an absolute ceiling.
    let pause = pauses.min_ns();
    println!(
        "\npause gate: max pause {} (ceiling {}) {}",
        fmt_ns(pause),
        fmt_ns(PAUSE_CEILING_NS),
        if pause <= PAUSE_CEILING_NS { "ok" } else { "FAIL" }
    );
    if pause > PAUSE_CEILING_NS {
        failures.push(format!(
            "per-update pause {} exceeds the absolute ceiling {}",
            fmt_ns(pause),
            fmt_ns(PAUSE_CEILING_NS)
        ));
    }
    failures
}

fn main() {
    jvolve_bench::enforce_gate_args("streambench");
    if arg_value("--baseline").is_some() {
        eprintln!("streambench: no gate compares a recorded file; --check reads no baseline");
        std::process::exit(2);
    }
    let iters = gate_iters();

    eprint!("\rmeasuring eager stream...        ");
    let (pauses, eager) = best_of_eager(iters);
    eprint!("\rmeasuring lazy stream...         ");
    let lazy = measure_lazy();
    eprintln!();
    print_table(&pauses, &eager, &lazy);

    if arg_flag("--check") {
        let failures = check(&pauses, &eager, &lazy);
        if !failures.is_empty() {
            eprintln!("\nstream gate failure(s):");
            for f in &failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
        println!("no release-stream regressions.");
    } else {
        let out = arg_value("--out").unwrap_or_else(|| "BENCH_stream.json".to_string());
        std::fs::write(&out, to_json(&pauses, &eager, &lazy, iters).pretty() + "\n")
            .expect("write output");
        println!("\nwrote {out}");
    }
}
