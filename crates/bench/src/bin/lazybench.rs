//! Lazy-migration pause and steady-state regression harness.
//!
//! Measures the tentpole claim of the lazy mode at §4.1-shaped heap
//! points (the paper's object counts scaled down, 100% updated — the
//! worst case for an eager commit):
//!
//! 1. **Pause**: the lazy commit pause (safe point + install + barrier
//!    arm + class transformers, everything before the mutator is
//!    released) must be at most [`PAUSE_RATIO_LIMIT`] of the eager pause
//!    at the largest heap point — O(roots) vs O(heap).
//! 2. **Steady state**: after the epoch drains and the barrier is
//!    disarmed, a field-read spin loop must cost no more than
//!    `REGRESSION_LIMIT` over the same loop after an eager commit —
//!    the zero-steady-state-overhead half of the claim.
//! 3. **Flatness**: the lazy pause at the largest heap point must be
//!    within [`FLATNESS_LIMIT`] of the smallest point's — with the SATB
//!    watermark arm there is no per-object work left in the pause, so it
//!    must not grow with the heap.
//! 4. **Step flatness**: the longest controller step *after* the mutator
//!    is released (SATB scan, scavenge, forwarding collapse, close) must
//!    be within [`STEP_FLATNESS_LIMIT`] at the largest point of the
//!    smallest point's. Every step stops at a budget, so a step's work —
//!    and the longest stall of a guest whose slices run between steps —
//!    must not grow with the heap. The population lives in one array, so
//!    a sweep that cannot stop inside an array fails this gate.
//! 5. **Drain**: the lazy drain (everything from the release to the
//!    commit: SATB scan, scavenge, forwarding collapse) must cost at most
//!    [`DRAIN_RATIO_LIMIT`] × the eager pause at the largest heap point —
//!    the background work of a lazy commit stays within a small factor of
//!    the one full-heap copy an eager commit pays. The scan converts
//!    planned objects as it finds them; a drain that visits them a second
//!    time reads ≈ 2.4× and fails.
//!
//! All five are ratios of two measurements taken in the same run, so no
//! gate compares nanoseconds recorded on another host.
//!
//! Every gate runs on the product default, where the generated field-copy
//! transformer is lowered to a copy plan. The eager pause and the lazy
//! drain are also measured with every transformer interpreted (the
//! paper-faithful path) and reported beside the plan numbers; they carry
//! no gate of their own.
//!
//! Usage (same dialect as `gcbench`/`interpbench`):
//!
//! * `cargo run --release -p jvolve-bench --bin lazybench` — measure and
//!   write `BENCH_lazy.json` (`--out FILE`; to refresh the committed
//!   record, `--out results/BENCH_lazy.json`).
//! * `... --bin lazybench -- --check` — re-measure and exit nonzero if
//!   any gate fails; it reads no file, so `--baseline` is refused.
//!   `scripts/tier1.sh` runs this. Gates compare *best-of-N* times and
//!   re-measure with 3× iterations before declaring a failure.
//!
//! `--iters N` controls timed iterations per configuration (default 5).

use jvolve_bench::lazy::{measure_update, UpdateRun};
use jvolve_bench::micro::paper_object_counts;
use jvolve_bench::timing::{fmt_ns, gate_best_of, Samples};
use jvolve_bench::{arg_flag, arg_value, enforce_gate_args, gate_iters};
use jvolve_json::Json;

/// The lazy commit pause may cost at most this fraction of the eager
/// pause at the largest heap point.
const PAUSE_RATIO_LIMIT: f64 = 0.25;

/// The lazy commit pause at the largest §4.1 point may be at most this
/// multiple of the pause at the smallest point (a ~13× heap-size spread).
/// Heap-size-independent work (safe point, install, class transformers)
/// dominates the pause, so the ratio sits near 1; the old commit-time
/// linear heap scan put it near the heap-size spread instead.
const FLATNESS_LIMIT: f64 = 2.0;

/// The longest controller step after the release, at the largest point
/// over the smallest point's, may be at most this. Every step stops at
/// its budget, but a budget's cells are cache-resident at the small point
/// and not at the large one, so the same step costs up to ~2× more there
/// (0.7–2.1× on a 2-vCPU host); a collapse sweep that charges a whole
/// array as one cell reads 17–19× on the same host.
const STEP_FLATNESS_LIMIT: f64 = 4.0;

/// The lazy drain at the largest heap point may cost at most this
/// multiple of the eager pause there (best-of-N each).
const DRAIN_RATIO_LIMIT: f64 = 1.5;

/// Paper object counts are scaled by 1/80 (the gate must run in seconds,
/// not minutes); the largest point is still the harness's biggest heap.
const SCALE_DIV: usize = 80;

/// Every object is an instance of the updated class: the eager pause is
/// maximal and the lazy drain does the most possible deferred work.
const FRACTION: f64 = 1.0;

/// Spin-loop iterations per steady-state measurement (three field reads
/// and an array load each).
const SPIN_ITERS: i64 = 200_000;

struct Entry {
    objects: usize,
    eager_pause_ns: f64,
    eager_pause_min_ns: f64,
    lazy_pause_ns: f64,
    /// Best-of-N. The check gates compare this, not the median.
    lazy_pause_min_ns: f64,
    /// Best-of-N barrier-arm portion of the lazy pause (the entire
    /// in-pause heap cost; recorded for the O(roots) story).
    arm_min_ns: f64,
    /// Best-of-N over runs of each run's longest controller step after
    /// the mutator is released.
    max_step_min_ns: f64,
    lazy_drain_ns: f64,
    /// Best-of-N lazy drain. Gate 5 compares this with the best-of-N
    /// eager pause.
    lazy_drain_min_ns: f64,
    /// Best-of-N eager pause with every transformer interpreted.
    interp_eager_pause_min_ns: f64,
    /// Lazy drain (last run) with every transformer interpreted.
    interp_lazy_drain_ns: f64,
    steady_eager_min_ns_per_op: f64,
    steady_lazy_min_ns_per_op: f64,
    transformed: usize,
}

impl Entry {
    /// Best-of-N lazy pause as a fraction of best-of-N eager pause.
    fn pause_ratio(&self) -> f64 {
        self.lazy_pause_min_ns / self.eager_pause_min_ns
    }

    /// Best-of-N lazy drain over best-of-N eager pause.
    fn drain_ratio(&self) -> f64 {
        self.lazy_drain_min_ns / self.eager_pause_min_ns
    }
}

/// `iters` runs of one configuration in one mode.
struct Runs {
    pause: Samples,
    /// Steady-state ns/op, ascending.
    steady: Vec<f64>,
    arm: Samples,
    max_step: Samples,
    drain: Samples,
    last: UpdateRun,
}

/// Best-of-`iters` runs of one configuration in one mode (warmup first;
/// each run builds a fresh VM, so iterations are independent).
fn best_of(objects: usize, lazy: bool, interpret: bool, iters: usize) -> Runs {
    measure_update(objects, FRACTION, lazy, interpret, SPIN_ITERS);
    let mut pause = Vec::with_capacity(iters);
    let mut steady = Vec::with_capacity(iters);
    let mut arm = Vec::with_capacity(iters);
    let mut max_step = Vec::with_capacity(iters);
    let mut drain = Vec::with_capacity(iters);
    let mut last = None;
    for _ in 0..iters {
        let r = measure_update(objects, FRACTION, lazy, interpret, SPIN_ITERS);
        pause.push(r.pause_ns);
        steady.push(r.steady_ns_per_op);
        arm.push(r.arm_ns);
        max_step.push(r.max_step_ns);
        drain.push(r.drain_ns);
        last = Some(r);
    }
    steady.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    Runs {
        pause: Samples::from_ns(pause),
        steady,
        arm: Samples::from_ns(arm),
        max_step: Samples::from_ns(max_step),
        drain: Samples::from_ns(drain),
        last: last.expect("at least one iteration"),
    }
}

fn measure(iters: usize) -> Vec<Entry> {
    // First and last scaled §4.1 points: the small one shows the scan is
    // cheap even when the heap is, the large one carries the gates.
    let counts = paper_object_counts(SCALE_DIV);
    let points = [counts[0], *counts.last().expect("paper counts")];
    let mut entries = Vec::new();
    for &objects in &points {
        eprint!("\rmeasuring {objects} objects, eager...        ");
        let eager = best_of(objects, false, false, iters);
        eprint!("\rmeasuring {objects} objects, lazy...         ");
        let lazy = best_of(objects, true, false, iters);
        eprint!("\rmeasuring {objects} objects, interpreted...  ");
        let interp_eager = best_of(objects, false, true, iters);
        let interp_lazy = best_of(objects, true, true, iters);
        for other in [&lazy.last, &interp_eager.last, &interp_lazy.last] {
            assert_eq!(
                eager.last.spin_result, other.spin_result,
                "modes disagree on the heap contents"
            );
        }
        entries.push(Entry {
            objects,
            eager_pause_ns: eager.pause.median_ns() as f64,
            eager_pause_min_ns: eager.pause.min_ns() as f64,
            lazy_pause_ns: lazy.pause.median_ns() as f64,
            lazy_pause_min_ns: lazy.pause.min_ns() as f64,
            arm_min_ns: lazy.arm.min_ns() as f64,
            max_step_min_ns: lazy.max_step.min_ns() as f64,
            lazy_drain_ns: lazy.last.drain_ns as f64,
            lazy_drain_min_ns: lazy.drain.min_ns() as f64,
            interp_eager_pause_min_ns: interp_eager.pause.min_ns() as f64,
            interp_lazy_drain_ns: interp_lazy.last.drain_ns as f64,
            steady_eager_min_ns_per_op: eager.steady[0],
            steady_lazy_min_ns_per_op: lazy.steady[0],
            transformed: lazy.last.transformed,
        });
    }
    eprintln!();
    entries
}

fn to_json(entries: &[Entry], iters: usize) -> Json {
    Json::obj([
        ("schema", Json::from("jvolve-lazybench-v5")),
        ("iters", Json::from(iters)),
        ("spin_iters", Json::from(SPIN_ITERS as f64)),
        (
            "entries",
            Json::Arr(
                entries
                    .iter()
                    .map(|e| {
                        Json::obj([
                            ("objects", Json::from(e.objects)),
                            ("fraction", Json::from(FRACTION)),
                            ("eager_pause_ns", Json::from(e.eager_pause_ns)),
                            ("eager_pause_min_ns", Json::from(e.eager_pause_min_ns)),
                            ("lazy_pause_ns", Json::from(e.lazy_pause_ns)),
                            ("lazy_pause_min_ns", Json::from(e.lazy_pause_min_ns)),
                            ("arm_min_ns", Json::from(e.arm_min_ns)),
                            ("pause_ratio", Json::from(e.pause_ratio())),
                            ("lazy_max_step_min_ns", Json::from(e.max_step_min_ns)),
                            ("lazy_drain_ns", Json::from(e.lazy_drain_ns)),
                            ("lazy_drain_min_ns", Json::from(e.lazy_drain_min_ns)),
                            ("drain_ratio", Json::from(e.drain_ratio())),
                            (
                                "interpreted_eager_pause_min_ns",
                                Json::from(e.interp_eager_pause_min_ns),
                            ),
                            ("interpreted_lazy_drain_ns", Json::from(e.interp_lazy_drain_ns)),
                            (
                                "steady_eager_min_ns_per_op",
                                Json::from(e.steady_eager_min_ns_per_op),
                            ),
                            (
                                "steady_lazy_min_ns_per_op",
                                Json::from(e.steady_lazy_min_ns_per_op),
                            ),
                            ("transformed", Json::from(e.transformed)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn print_table(entries: &[Entry]) {
    println!(
        "{:>9} {:>14} {:>14} {:>8} {:>10} {:>10} {:>13} {:>16} {:>15}",
        "objects", "eager pause", "lazy pause", "ratio", "arm", "max step", "lazy drain",
        "steady eager/op", "steady lazy/op"
    );
    for e in entries {
        println!(
            "{:>9} {:>14} {:>14} {:>7.1}% {:>10} {:>10} {:>13} {:>16.1} {:>15.1}",
            e.objects,
            fmt_ns(e.eager_pause_ns as u64),
            fmt_ns(e.lazy_pause_ns as u64),
            e.pause_ratio() * 100.0,
            fmt_ns(e.arm_min_ns as u64),
            fmt_ns(e.max_step_min_ns as u64),
            fmt_ns(e.lazy_drain_ns as u64),
            e.steady_eager_min_ns_per_op,
            e.steady_lazy_min_ns_per_op,
        );
    }
    println!("\ncopy plans vs every transformer interpreted (best-of-N eager pause, last lazy drain):");
    for e in entries {
        println!(
            "{:>9} objects: eager pause {} vs {} interpreted ({:.2}x), lazy drain {} vs {} interpreted ({:.2}x)",
            e.objects,
            fmt_ns(e.eager_pause_min_ns as u64),
            fmt_ns(e.interp_eager_pause_min_ns as u64),
            e.eager_pause_min_ns / e.interp_eager_pause_min_ns,
            fmt_ns(e.lazy_drain_ns as u64),
            fmt_ns(e.interp_lazy_drain_ns as u64),
            e.lazy_drain_ns / e.interp_lazy_drain_ns,
        );
    }
}

/// A flatness gate: the best-of-N lazy measurement `read` at the largest
/// point over the smallest point's must stay within `limit`. A tripped
/// gate re-measures both points with 3× iterations (`remeasure` picks the
/// same measurement out of the new runs) before failing: these are
/// microseconds, so scheduling noise needs the retry.
fn check_flatness(
    what: &str,
    limit: f64,
    entries: &[Entry],
    iters: usize,
    read: fn(&Entry) -> f64,
    remeasure: fn(&Runs) -> u64,
) -> Option<String> {
    let smallest = entries.first().expect("at least one entry");
    let largest = entries.last().expect("at least one entry");
    let (mut small, mut large) = (read(smallest), read(largest));
    let mut flatness = large / small;
    if flatness > limit {
        let again = |objects| remeasure(&best_of(objects, true, false, iters * 3)) as f64;
        small = small.min(again(smallest.objects));
        large = large.min(again(largest.objects));
        flatness = large / small;
    }
    println!(
        "{what} flatness gate: {} at {} objects vs {} at {} objects = {:.2}x (limit {:.1}x)",
        fmt_ns(large as u64),
        largest.objects,
        fmt_ns(small as u64),
        smallest.objects,
        flatness,
        limit,
    );
    (flatness > limit).then(|| {
        format!(
            "{what} grew {:.2}x from {} to {} objects (limit {:.1}x): it is not \
             heap-size independent",
            flatness, smallest.objects, largest.objects, limit
        )
    })
}

fn check(entries: &[Entry], iters: usize) -> Vec<String> {
    let mut failures = Vec::new();
    let largest = entries.last().expect("at least one entry");

    // Gate 1: the pause contract at the largest heap point. A tripped
    // gate re-measures both modes with 3× iterations before failing.
    let mut lazy_min = largest.lazy_pause_min_ns;
    let mut eager_min = largest.eager_pause_min_ns;
    let mut ratio = lazy_min / eager_min;
    if ratio > PAUSE_RATIO_LIMIT {
        let again = |lazy| best_of(largest.objects, lazy, false, iters * 3).pause.min_ns() as f64;
        lazy_min = lazy_min.min(again(true));
        eager_min = eager_min.min(again(false));
        ratio = lazy_min / eager_min;
    }
    println!(
        "\npause gate ({} objects): lazy {} / eager {} = {:.1}% (limit {:.0}%)",
        largest.objects,
        fmt_ns(lazy_min as u64),
        fmt_ns(eager_min as u64),
        ratio * 100.0,
        PAUSE_RATIO_LIMIT * 100.0,
    );
    if ratio > PAUSE_RATIO_LIMIT {
        failures.push(format!(
            "lazy pause is {:.1}% of eager at {} objects (limit {:.0}%)",
            ratio * 100.0,
            largest.objects,
            PAUSE_RATIO_LIMIT * 100.0
        ));
    }

    // Gate 3: the pause is flat across heap sizes (the smallest and
    // largest §4.1 points differ ~13× in heap size).
    failures.extend(check_flatness(
        "lazy pause",
        FLATNESS_LIMIT,
        entries,
        iters,
        |e| e.lazy_pause_min_ns,
        |r| r.pause.min_ns(),
    ));

    // Gate 4: so is the longest controller step after the release.
    failures.extend(check_flatness(
        "longest lazy step",
        STEP_FLATNESS_LIMIT,
        entries,
        iters,
        |e| e.max_step_min_ns,
        |r| r.max_step.min_ns(),
    ));

    // Gate 5: the drain costs a small multiple of the eager pause. A
    // tripped gate re-measures both modes with 3× iterations.
    let mut drain_min = largest.lazy_drain_min_ns;
    let mut eager_min = largest.eager_pause_min_ns;
    let mut ratio = drain_min / eager_min;
    if ratio > DRAIN_RATIO_LIMIT {
        let again = |lazy| best_of(largest.objects, lazy, false, iters * 3);
        drain_min = drain_min.min(again(true).drain.min_ns() as f64);
        eager_min = eager_min.min(again(false).pause.min_ns() as f64);
        ratio = drain_min / eager_min;
    }
    println!(
        "drain gate ({} objects): lazy drain {} / eager pause {} = {:.2}x (limit {:.1}x)",
        largest.objects,
        fmt_ns(drain_min as u64),
        fmt_ns(eager_min as u64),
        ratio,
        DRAIN_RATIO_LIMIT,
    );
    if ratio > DRAIN_RATIO_LIMIT {
        failures.push(format!(
            "lazy drain is {:.2}x the eager pause at {} objects (limit {:.1}x)",
            ratio, largest.objects, DRAIN_RATIO_LIMIT
        ));
    }

    // Gate 2: zero steady-state overhead once the epoch has drained.
    let g = gate_best_of(
        largest.steady_lazy_min_ns_per_op,
        largest.steady_eager_min_ns_per_op,
        || best_of(largest.objects, true, false, iters * 3).steady[0],
    );
    println!(
        "steady-state gate ({} objects): eager {:.1} -> lazy {:.1} ns/op ({:+.1}%) {}",
        largest.objects,
        largest.steady_eager_min_ns_per_op,
        g.current,
        g.delta * 100.0,
        g.verdict(),
    );
    if g.regressed() {
        failures.push(format!(
            "post-drain steady state {:.1}% over eager at {} objects",
            g.delta * 100.0,
            largest.objects
        ));
    }
    failures
}

fn main() {
    enforce_gate_args("lazybench");
    if arg_value("--baseline").is_some() {
        eprintln!("lazybench: every gate is a same-run ratio; --check reads no baseline");
        std::process::exit(2);
    }
    let iters = gate_iters();

    let entries = measure(iters);
    print_table(&entries);

    if arg_flag("--check") {
        let failures = check(&entries, iters);
        if !failures.is_empty() {
            eprintln!("\nlazy migration gate failure(s):");
            for f in &failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
        println!("no lazy migration regressions.");
    } else {
        let out = arg_value("--out").unwrap_or_else(|| "BENCH_lazy.json".to_string());
        std::fs::write(&out, to_json(&entries, iters).pretty() + "\n").expect("write output");
        println!("\nwrote {out}");
    }
}
