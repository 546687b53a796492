//! The tier-1 performance gates in one runner. Every gate is an exact
//! count, a ratio of two best-of-N measurements taken in the same run, or
//! (for the release stream) one absolute ceiling; no gate reads a file.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p jvolve-bench --bin gates -- [--iters N] [gc|interp|lazy|fleet|stream]...
//! ```
//!
//! No names runs all five. `--iters N` (default 5, at least 1) sets the
//! timed runs per configuration. Each gate prints one table and its
//! verdicts; the exit code is 1 if any gate failed and 2 on a malformed
//! command line.
//!
//! * `gc` — the §4.1 update-GC at 0/50/100 % updated, two heap sizes, copy
//!   plans and interpreted transformers: exact copied cells and words per
//!   configuration, every copied word unscanned (the population is
//!   host-rooted and its references are null); on the plan path, the
//!   100 %-updated GC per object ≤ 2.5× the 0 %-updated one; the plan
//!   pause ≤ 0.5× the interpreted one.
//! * `interp` — dispatch throughput with the jit off and on, each warm
//!   and after an update: exact checksum, calls, compile and fused-compile
//!   counts and fusion coverage; jit ≥ 2.48× base, each
//!   post-update configuration ≥ 1/1.15 of its warm twin.
//! * `lazy` — a 100 %-updated population at the smallest and largest
//!   scaled §4.1 heap points: lazy pause ≤ 0.25× eager; post-drain steady
//!   state ≤ 1.15× eager's; lazy pause ≤ 2× and longest step after the
//!   release ≤ 4× across the two heap points; lazy drain ≤ 1.25× the
//!   eager pause; and, exactly, the lazy commit leaves the eager heap's
//!   words in use.
//! * `fleet` — a 2-shard webserver fleet completes a closed batch at
//!   ≥ 1.6× the aggregate throughput of one shard.
//! * `stream` — the kvstore's 20-update eager release stream: the longest
//!   per-update pause (best-of-N) ≤ 25 ms.
//!
//! A ratio compares best-of-N times, not medians: noise only adds time,
//! so min-of-N is the stable statistic at these scales. A ratio that
//! misses its bound re-measures both sides once at 3× the iterations and
//! fails only if the better readings still miss. The fleet roll's and the
//! release stream's correctness (nothing dropped, nothing incorrect,
//! fingerprints converged) are workspace tests:
//! `crates/apps/tests/{fleet,release_stream}.rs`.

use std::fmt;
use std::time::Duration;

use jvolve_apps::StreamReport;
use jvolve_bench::fleet::measure_throughput;
use jvolve_bench::interp::{self, Config, InterpSample};
use jvolve_bench::lazy::{measure_update, UpdateRun};
use jvolve_bench::micro::{
    measure_body_only_pause, measure_pause_with, paper_object_counts, PauseSample,
};
use jvolve_bench::stream::{chain_len, measure_eager};
use jvolve_bench::timing::{fmt_ns, Samples};

/// A gate's name and the function that measures it at `--iters N` and
/// returns its failures.
type Gate = (&'static str, fn(usize) -> Vec<String>);

const GATES: [Gate; 5] =
    [("gc", gc), ("interp", interp), ("lazy", lazy), ("fleet", fleet), ("stream", stream)];

const USAGE: &str = "usage: gates [--iters N] [gc|interp|lazy|fleet|stream]...";

fn main() {
    let (iters, gates) = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("gates: {e}");
        eprintln!("{USAGE}");
        std::process::exit(2);
    });
    let mut failures = Vec::new();
    for (name, gate) in gates {
        println!("\n== {name} ==");
        failures.extend(gate(iters).into_iter().map(|f| format!("{name}: {f}")));
    }
    if !failures.is_empty() {
        eprintln!("\ngate failure(s):");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!("\nevery gate holds.");
}

/// `[--iters N] [NAME]...`: `N` is a positive integer given at most once,
/// each name a gate given at most once; no names means every gate.
fn parse_args(
    mut args: impl Iterator<Item = String>,
) -> Result<(usize, Vec<Gate>), String> {
    let mut iters = None;
    let mut gates: Vec<Gate> = Vec::new();
    while let Some(arg) = args.next() {
        if arg == "--iters" {
            if iters.is_some() {
                return Err("duplicate flag --iters".into());
            }
            let value = args.next().ok_or("--iters needs a value")?;
            match value.parse::<usize>() {
                Ok(n) if n > 0 => iters = Some(n),
                _ => return Err(format!("--iters expects a positive integer, got `{value}`")),
            }
        } else if arg.starts_with('-') {
            return Err(format!("unknown flag {arg}"));
        } else {
            let gate = GATES
                .iter()
                .find(|(name, _)| *name == arg)
                .ok_or_else(|| format!("unknown gate `{arg}`"))?;
            if gates.iter().any(|(name, _)| *name == gate.0) {
                return Err(format!("duplicate gate `{arg}`"));
            }
            gates.push(*gate);
        }
    }
    if gates.is_empty() {
        gates = GATES.to_vec();
    }
    Ok((iters.unwrap_or(5), gates))
}

/// The side of its bound a same-run ratio must stay on.
#[derive(Clone, Copy)]
enum Bound {
    AtLeast(f64),
    AtMost(f64),
}

impl Bound {
    fn holds(self, ratio: f64) -> bool {
        match self {
            Bound::AtLeast(floor) => ratio >= floor,
            Bound::AtMost(ceiling) => ratio <= ceiling,
        }
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::AtLeast(floor) => write!(f, "floor {floor:.2}x"),
            Bound::AtMost(ceiling) => write!(f, "ceiling {ceiling:.2}x"),
        }
    }
}

/// A same-run ratio gate: `num / den`, two best-of-N times, must meet
/// `bound`. A first reading that misses calls `remeasure(3 * iters)` for
/// fresh best-of-N readings of both sides and judges each side's better
/// reading: a real regression survives the longer look, scheduler noise
/// (which only ever adds time) does not.
fn ratio_gate(
    what: &str,
    bound: Bound,
    (num, den): (f64, f64),
    iters: usize,
    remeasure: impl FnOnce(usize) -> (f64, f64),
) -> Option<String> {
    let mut ratio = num / den;
    let retried = !bound.holds(ratio);
    if retried {
        let (again_num, again_den) = remeasure(3 * iters);
        ratio = num.min(again_num) / den.min(again_den);
    }
    let verdict = match (bound.holds(ratio), retried) {
        (false, _) => "FAILED",
        (true, true) => "ok (after retry)",
        (true, false) => "ok",
    };
    println!("  {what:<54} {ratio:>6.2}x ({bound}) {verdict}");
    (!bound.holds(ratio)).then(|| format!("{what}: {ratio:.2}x ({bound})"))
}

/// An exact-count gate: `got` must equal `want` on any host.
fn exact<T: PartialEq + fmt::Debug>(what: &str, got: T, want: T) -> Option<String> {
    if got == want {
        println!("  {what:<54} ok");
        None
    } else {
        println!("  {what:<54} DIFFERS: {got:?}, expected {want:?}");
        Some(format!("{what}: {got:?}, expected {want:?}"))
    }
}

/// How far a post-update or post-drain steady state may fall behind its
/// warm twin: 15 %.
const REGRESSION_LIMIT: f64 = 0.15;

// ---------------------------------------------------------------- gc ----

/// Two heap sizes (the semispace scales with the object count) × three
/// updated fractions × two transformer modes.
const GC_OBJECTS: [usize; 2] = [5_000, 20_000];
const GC_FRACTIONS: [f64; 3] = [0.0, 0.5, 1.0];

/// On the plan path, the update-GC per object with every object updated
/// may cost at most this multiple of the same GC with none updated: a
/// planned object is one copy of a one-word-larger cell, so the ratio
/// sits near 1.1. On a noisy 2-vCPU host best-of-5 reads 0.8–1.8×: the
/// remapped 20 000-object rows swing with the host's memory state while
/// the 0 % row does not.
const UPDATED_GC_LIMIT: f64 = 2.5;

/// The plan path's whole pause at 100 % updated may be at most this
/// fraction of the interpreted path's.
const PLAN_TOTAL_LIMIT: f64 = 0.5;

/// A body-only update's pause at the larger heap may be at most this
/// multiple of its pause at the smaller one: it copies nothing, so its
/// pause does not depend on the heap.
const BODY_ONLY_SIZE_LIMIT: f64 = 1.5;

/// Best-of-`iters` body-only pauses at one heap size (after a warmup), and
/// the (copied cells, collections) of the last run.
fn body_only_row(objects: usize, iters: usize) -> (Samples, (usize, u64)) {
    eprint!("\rmeasuring {objects} objects, body-only update...   ");
    measure_body_only_pause(objects);
    let runs: Vec<_> = (0..iters).map(|_| measure_body_only_pause(objects)).collect();
    let last = runs.last().expect("iters is at least 1");
    let pauses = Samples::from_ns(runs.iter().map(|s| s.total_time.as_nanos() as u64).collect());
    (pauses, (last.copied_cells, last.gcs))
}

/// Words of a `Change`/`NoChange` cell at the old layout (header + three
/// int and three reference fields), and of `Change` at the new one (+ `w`).
const OLD_CELL_WORDS: usize = 7;
const NEW_CELL_WORDS: usize = 8;

struct GcRow {
    objects: usize,
    fraction: f64,
    /// Every transformer interpreted (`true`) or the default plan path.
    interpreted: bool,
    semispace_words: usize,
    gc: Samples,
    total: Samples,
    /// Cells and words the update-GC copied, and how many of the words
    /// its scan skipped.
    copied: (usize, usize, usize),
}

fn mode_name(interpreted: bool) -> &'static str {
    if interpreted {
        "interpreted"
    } else {
        "plan"
    }
}

/// Best-of-`iters` update pauses at one configuration, after a warmup;
/// every run builds a fresh VM.
fn gc_row(objects: usize, fraction: f64, interpreted: bool, iters: usize) -> GcRow {
    eprint!(
        "\rmeasuring {objects} objects, {:>3.0}% updated, {}...   ",
        fraction * 100.0,
        mode_name(interpreted)
    );
    measure_pause_with(objects, fraction, interpreted);
    let runs: Vec<_> =
        (0..iters).map(|_| measure_pause_with(objects, fraction, interpreted)).collect();
    let last = runs.last().expect("iters is at least 1");
    let ns = |time: fn(&PauseSample) -> Duration| {
        Samples::from_ns(runs.iter().map(|s| time(s).as_nanos() as u64).collect())
    };
    GcRow {
        objects,
        fraction,
        interpreted,
        semispace_words: last.semispace_words,
        gc: ns(|s| s.gc_time),
        total: ns(|s| s.total_time),
        copied: (last.gc_copied_cells, last.gc_copied_words, last.gc_unscanned_words),
    }
}

fn gc(iters: usize) -> Vec<String> {
    let mut rows = Vec::new();
    for &objects in &GC_OBJECTS {
        for &fraction in &GC_FRACTIONS {
            for interpreted in [false, true] {
                rows.push(gc_row(objects, fraction, interpreted, iters));
            }
        }
    }
    eprintln!();
    println!(
        "{:>9} {:>9} {:>12} {:>10} {:>16} {:>18} {:>14}",
        "objects", "updated%", "transformers", "heap(MB)", "gc ns/object", "total ns/object",
        "copied cells"
    );
    for r in &rows {
        println!(
            "{:>9} {:>8.0}% {:>12} {:>10.1} {:>16.1} {:>18.1} {:>14}",
            r.objects,
            r.fraction * 100.0,
            mode_name(r.interpreted),
            (r.semispace_words * 2 * 8) as f64 / (1024.0 * 1024.0),
            r.gc.median_ns() as f64 / r.objects as f64,
            r.total.median_ns() as f64 / r.objects as f64,
            r.copied.0,
        );
    }

    // A planned object is copied once, at the new layout; an interpreted
    // one is duplicated into an old copy and a new object. Every root is a
    // host root and every reference null, so no copied cell holds a
    // reference and the scan skips every copied word.
    let mut failures = Vec::new();
    for r in &rows {
        let updated = (r.objects as f64 * r.fraction).round() as usize;
        let (cells_each, words_each) =
            if r.interpreted { (2, OLD_CELL_WORDS + NEW_CELL_WORDS) } else { (1, NEW_CELL_WORDS) };
        let words = (r.objects - updated) * OLD_CELL_WORDS + updated * words_each;
        let want = (r.objects - updated + updated * cells_each, words, words);
        let what = format!(
            "cells/words/unscanned, {} objects {:.0}% {}",
            r.objects,
            r.fraction * 100.0,
            mode_name(r.interpreted)
        );
        failures.extend(exact(&what, r.copied, want));
    }

    let objects = GC_OBJECTS[GC_OBJECTS.len() - 1];
    let pick = |fraction: f64, interpreted: bool| {
        rows.iter()
            .find(|r| (r.objects, r.fraction, r.interpreted) == (objects, fraction, interpreted))
            .expect("every configuration is measured")
    };
    failures.extend(ratio_gate(
        &format!("update-GC 100% / 0% updated, plan, {objects} objects"),
        Bound::AtMost(UPDATED_GC_LIMIT),
        (pick(1.0, false).gc.min_ns() as f64, pick(0.0, false).gc.min_ns() as f64),
        iters,
        |n| {
            let min = |fraction| gc_row(objects, fraction, false, n).gc.min_ns() as f64;
            (min(1.0), min(0.0))
        },
    ));
    failures.extend(ratio_gate(
        &format!("pause plan / interpreted, 100% updated, {objects} objects"),
        Bound::AtMost(PLAN_TOTAL_LIMIT),
        (pick(1.0, false).total.min_ns() as f64, pick(1.0, true).total.min_ns() as f64),
        iters,
        |n| {
            let min = |interpreted| gc_row(objects, 1.0, interpreted, n).total.min_ns() as f64;
            (min(false), min(true))
        },
    ));

    // A body-only update (ROADMAP 1(d)): no copy, no collection, and a
    // pause that does not follow the heap.
    let body: Vec<_> = GC_OBJECTS.iter().map(|&n| (n, body_only_row(n, iters))).collect();
    eprintln!();
    for (n, (pauses, counts)) in &body {
        println!("  body-only update, {n:>6} objects: pause {}", fmt_ns(pauses.median_ns()));
        failures.extend(exact(
            &format!("copied cells/collections, body-only, {n} objects"),
            *counts,
            (0, 0),
        ));
    }
    let (small, large) = (GC_OBJECTS[0], GC_OBJECTS[GC_OBJECTS.len() - 1]);
    failures.extend(ratio_gate(
        &format!("body-only pause {large} / {small} objects"),
        Bound::AtMost(BODY_ONLY_SIZE_LIMIT),
        (body[1].1 .0.min_ns() as f64, body[0].1 .0.min_ns() as f64),
        iters,
        |n| {
            let min = |objects| body_only_row(objects, n).0.min_ns() as f64;
            (min(large), min(small))
        },
    ));
    failures
}

// ------------------------------------------------------------ interp ----

/// Guest loop iterations per timed run (`CALLS_PER_ITER` calls each).
const GUEST_ITERS: i64 = 100_000;

/// Best-of-N jit-on speed over jit-off: superinstruction fusion plus
/// the leaf-call fast path measured 2.75–2.88× over seven runs on a
/// 2-vCPU host; the floor is the lowest less 10 %.
const JIT_FLOOR: f64 = 2.48;

/// The share of its warm twin's speed a post-update configuration keeps.
const PARITY_FLOOR: f64 = 1.0 / (1.0 + REGRESSION_LIMIT);

/// What must repeat exactly on any host, per configuration: the guest's
/// checksum, the calls it made, the (compiles, fused compiles) — with the
/// jit on every compile fuses — and the share of steps retired inside
/// superinstructions.
type InterpCounts = (i64, u64, (u64, u64), f64);

const INTERP_COUNTS: [(Config, InterpCounts); 4] = [
    (Config::Base, (3_400_000, 1_000_000, (8, 0), 0.0)),
    (Config::BaseUpdated, (4_400_000, 1_000_000, (12, 0), 0.0)),
    (Config::Jit, (3_400_000, 1_000_000, (8, 8), 0.5976990249827271)),
    (Config::JitUpdated, (4_400_000, 1_000_000, (12, 12), 0.5976990249827271)),
];

/// Same-run speed ratios: (what, slower config, faster config, floor).
/// The jit must keep earning its keep, and an update must not cost
/// steady-state speed once invalidated code recompiles.
const INTERP_RATIOS: [(&str, Config, Config, f64); 3] = [
    ("speed jit / base", Config::Base, Config::Jit, JIT_FLOOR),
    ("speed post-update base / warm", Config::Base, Config::BaseUpdated, PARITY_FLOOR),
    ("speed post-update jit / warm", Config::Jit, Config::JitUpdated, PARITY_FLOOR),
];

/// Sorted ns/call of `iters` timed runs after a warmup, and the last run.
fn interp_runs(config: Config, iters: usize) -> (Vec<f64>, InterpSample) {
    interp::measure(config, GUEST_ITERS);
    let mut runs: Vec<_> = (0..iters).map(|_| interp::measure(config, GUEST_ITERS)).collect();
    let mut ns: Vec<f64> = runs.iter().map(InterpSample::ns_per_call).collect();
    ns.sort_by(f64::total_cmp);
    (ns, runs.pop().expect("iters is at least 1"))
}

fn interp(iters: usize) -> Vec<String> {
    let rows: Vec<_> = INTERP_COUNTS
        .iter()
        .map(|&(config, _)| {
            eprint!("\rmeasuring {} ...          ", config.key());
            (config, interp_runs(config, iters))
        })
        .collect();
    eprintln!();
    println!(
        "{:>20} {:>14} {:>14} {:>12} {:>16} {:>8}",
        "config", "ns/call", "min ns/call", "calls", "compiles/fused", "fused"
    );
    for (config, (ns, last)) in &rows {
        println!(
            "{:>20} {:>14.1} {:>14.1} {:>12} {:>16} {:>7.1}%",
            config.key(),
            ns[ns.len() / 2],
            ns[0],
            last.calls,
            format!("{}/{}", last.compiles.0, last.compiles.1),
            last.fusion_coverage() * 100.0,
        );
    }

    let mut failures = Vec::new();
    for ((config, (_, last)), (_, want)) in rows.iter().zip(&INTERP_COUNTS) {
        let got = (last.checksum, last.calls, last.compiles, last.fusion_coverage());
        failures.extend(exact(&format!("counts {}", config.key()), got, *want));
    }
    let min = |config: Config| {
        rows.iter().find(|(c, _)| *c == config).map(|(_, (ns, _))| ns[0]).expect("measured")
    };
    for (what, slow, fast, floor) in INTERP_RATIOS {
        failures.extend(ratio_gate(
            what,
            Bound::AtLeast(floor),
            (min(slow), min(fast)),
            iters,
            |n| (interp_runs(slow, n).0[0], interp_runs(fast, n).0[0]),
        ));
    }
    failures
}

// -------------------------------------------------------------- lazy ----

/// The lazy commit pause over the eager pause at the largest heap point:
/// O(roots) against O(heap).
const PAUSE_RATIO_LIMIT: f64 = 0.25;

/// The lazy pause at the largest heap point over the smallest's (a ~13×
/// heap-size spread). Heap-size-independent work (safe point, install,
/// class transformers) dominates it, so it sits near 1.
const FLATNESS_LIMIT: f64 = 2.0;

/// The longest controller step after the release, largest point over
/// smallest. Every step stops at its budget — inside an array, if it runs
/// out there — but a budget's cells are cache-resident at the small point
/// and not at the large one; a step that copied a whole array at once
/// would grow with the heap.
const STEP_FLATNESS_LIMIT: f64 = 4.0;

/// The lazy drain (the incremental copy's steps) over the eager pause at
/// the largest heap point: the same copy, spread over steps. A drain with
/// a second heap-wide pass (the forwarding collapse it replaced) read
/// 1.17–1.21×, one that visits planned objects a second time ≈ 2.4×.
const DRAIN_RATIO_LIMIT: f64 = 1.25;

/// Paper object counts scaled by 1/80, so the gate runs in seconds.
const LAZY_SCALE_DIV: usize = 80;

/// Every object is an instance of the updated class: the eager pause is
/// maximal and the lazy drain does the most deferred work.
const LAZY_FRACTION: f64 = 1.0;

/// Spin-loop iterations per steady-state measurement (three field reads
/// and an array load each).
const SPIN_ITERS: i64 = 200_000;

/// `iters` runs of one configuration in one mode.
struct LazyRuns {
    pause: Samples,
    /// Steady-state ns/op, ascending.
    steady: Vec<f64>,
    arm: Samples,
    /// Each run's longest controller step after the release.
    max_step: Samples,
    drain: Samples,
    last: UpdateRun,
}

/// Best-of-`iters` runs after a warmup; every run builds a fresh VM.
fn lazy_runs(objects: usize, lazy: bool, interpret: bool, iters: usize) -> LazyRuns {
    let run = || measure_update(objects, LAZY_FRACTION, lazy, interpret, SPIN_ITERS);
    run();
    let runs: Vec<_> = (0..iters).map(|_| run()).collect();
    let ns = |field: fn(&UpdateRun) -> u64| Samples::from_ns(runs.iter().map(field).collect());
    let mut steady: Vec<f64> = runs.iter().map(|r| r.steady_ns_per_op).collect();
    steady.sort_by(f64::total_cmp);
    LazyRuns {
        pause: ns(|r| r.pause_ns),
        steady,
        arm: ns(|r| r.arm_ns),
        max_step: ns(|r| r.max_step_ns),
        drain: ns(|r| r.drain_ns),
        last: *runs.last().expect("iters is at least 1"),
    }
}

struct LazyPoint {
    objects: usize,
    eager: LazyRuns,
    lazy: LazyRuns,
    /// The same two modes with every transformer interpreted, reported
    /// beside the plan path; no gate reads them.
    interp_eager: LazyRuns,
    interp_lazy: LazyRuns,
}

fn lazy_point(objects: usize, iters: usize) -> LazyPoint {
    eprint!("\rmeasuring {objects} objects, eager...        ");
    let eager = lazy_runs(objects, false, false, iters);
    eprint!("\rmeasuring {objects} objects, lazy...         ");
    let lazy = lazy_runs(objects, true, false, iters);
    eprint!("\rmeasuring {objects} objects, interpreted...  ");
    let interp_eager = lazy_runs(objects, false, true, iters);
    let interp_lazy = lazy_runs(objects, true, true, iters);
    for other in [&lazy, &interp_eager, &interp_lazy] {
        assert_eq!(
            eager.last.spin_result, other.last.spin_result,
            "modes disagree on the heap contents"
        );
    }
    LazyPoint { objects, eager, lazy, interp_eager, interp_lazy }
}

fn lazy(iters: usize) -> Vec<String> {
    // The first and last scaled §4.1 points: flatness compares them, the
    // large one carries the pause, drain and steady-state gates.
    let counts = paper_object_counts(LAZY_SCALE_DIV);
    let small = lazy_point(counts[0], iters);
    let large = lazy_point(counts[counts.len() - 1], iters);
    eprintln!();
    println!(
        "{:>9} {:>14} {:>14} {:>8} {:>10} {:>10} {:>13} {:>16} {:>15}",
        "objects", "eager pause", "lazy pause", "ratio", "arm", "max step", "lazy drain",
        "steady eager/op", "steady lazy/op"
    );
    for p in [&small, &large] {
        println!(
            "{:>9} {:>14} {:>14} {:>7.1}% {:>10} {:>10} {:>13} {:>16.1} {:>15.1}",
            p.objects,
            fmt_ns(p.eager.pause.median_ns()),
            fmt_ns(p.lazy.pause.median_ns()),
            p.lazy.pause.min_ns() as f64 / p.eager.pause.min_ns() as f64 * 100.0,
            fmt_ns(p.lazy.arm.min_ns()),
            fmt_ns(p.lazy.max_step.min_ns()),
            fmt_ns(p.lazy.last.drain_ns),
            p.eager.steady[0],
            p.lazy.steady[0],
        );
    }
    println!("copy plans vs every transformer interpreted (best-of-N eager pause, last lazy drain):");
    for p in [&small, &large] {
        let (plan_drain, interp_drain) = (p.lazy.last.drain_ns, p.interp_lazy.last.drain_ns);
        println!(
            "{:>9} objects: eager pause {} vs {} interpreted ({:.2}x), lazy drain {} vs {} interpreted ({:.2}x)",
            p.objects,
            fmt_ns(p.eager.pause.min_ns()),
            fmt_ns(p.interp_eager.pause.min_ns()),
            p.eager.pause.min_ns() as f64 / p.interp_eager.pause.min_ns() as f64,
            fmt_ns(plan_drain),
            fmt_ns(interp_drain),
            plan_drain as f64 / interp_drain as f64,
        );
    }

    let (s, l) = (small.objects, large.objects);
    let at = |objects, lazy, n| lazy_runs(objects, lazy, false, n);
    let min = |samples: &Samples| samples.min_ns() as f64;
    let mut failures = Vec::new();
    failures.extend(exact(
        &format!("lazy heap words after the commit = eager's, {l} objects"),
        large.lazy.last.used_words,
        large.eager.last.used_words,
    ));
    failures.extend(ratio_gate(
        &format!("lazy pause / eager pause, {l} objects"),
        Bound::AtMost(PAUSE_RATIO_LIMIT),
        (min(&large.lazy.pause), min(&large.eager.pause)),
        iters,
        |n| (min(&at(l, true, n).pause), min(&at(l, false, n).pause)),
    ));
    failures.extend(ratio_gate(
        &format!("post-drain steady state lazy / eager, {l} objects"),
        Bound::AtMost(1.0 + REGRESSION_LIMIT),
        (large.lazy.steady[0], large.eager.steady[0]),
        iters,
        |n| (at(l, true, n).steady[0], at(l, false, n).steady[0]),
    ));
    failures.extend(ratio_gate(
        &format!("lazy pause {l} / {s} objects"),
        Bound::AtMost(FLATNESS_LIMIT),
        (min(&large.lazy.pause), min(&small.lazy.pause)),
        iters,
        |n| (min(&at(l, true, n).pause), min(&at(s, true, n).pause)),
    ));
    failures.extend(ratio_gate(
        &format!("longest lazy step {l} / {s} objects"),
        Bound::AtMost(STEP_FLATNESS_LIMIT),
        (min(&large.lazy.max_step), min(&small.lazy.max_step)),
        iters,
        |n| (min(&at(l, true, n).max_step), min(&at(s, true, n).max_step)),
    ));
    failures.extend(ratio_gate(
        &format!("lazy drain / eager pause, {l} objects"),
        Bound::AtMost(DRAIN_RATIO_LIMIT),
        (min(&large.lazy.drain), min(&large.eager.pause)),
        iters,
        |n| (min(&at(l, true, n).drain), min(&at(l, false, n).pause)),
    ));
    failures
}

// ------------------------------------------------------------- fleet ----

/// Requests per timed batch: large enough that per-request cost dominates
/// channel round-trips, small enough for a tier-1 gate.
const FLEET_REQUESTS: u64 = 2000;

/// Aggregate throughput of 2 shards over 1. Shards are OS threads, so
/// the ratio needs two CPUs; a 2-core host read 2.27–2.45×.
const FLEET_SCALING_FLOOR: f64 = 1.6;

/// Nanoseconds per request at 1 and at 2 shards, `iters` timed batches
/// each, every batch on a freshly booted fleet. The two sides alternate
/// batch by batch: on a shared 2-CPU host a neighbour's burst lasts
/// seconds, and one that lands on only one side's block of batches
/// moves the ratio by 1.5×. An incorrect response fails at once:
/// throughput of wrong answers is not throughput.
fn fleet_runs(iters: usize) -> (Samples, Samples) {
    let batch = |shards| {
        let run = measure_throughput(shards, FLEET_REQUESTS);
        assert_eq!(run.incorrect, 0, "fleet served incorrect responses while measuring");
        run.ns_per_request() as u64
    };
    let (one, two): (Vec<u64>, Vec<u64>) = (0..iters).map(|_| (batch(1), batch(2))).unzip();
    (Samples::from_ns(one), Samples::from_ns(two))
}

fn fleet(iters: usize) -> Vec<String> {
    eprint!("\rmeasuring 1 and 2 shards...        ");
    let (one, two) = fleet_runs(iters);
    eprintln!();
    println!("{:>7} {:>16} {:>16}", "shards", "ns/req (min)", "ns/req (median)");
    for (shards, s) in [(1, &one), (2, &two)] {
        println!("{:>7} {:>16} {:>16}", shards, fmt_ns(s.min_ns()), fmt_ns(s.median_ns()));
    }
    let min = |s: &Samples| s.min_ns() as f64;
    ratio_gate(
        "aggregate throughput 2 shards / 1 shard",
        Bound::AtLeast(FLEET_SCALING_FLOOR),
        (min(&one), min(&two)),
        iters,
        |n| {
            let (one, two) = fleet_runs(n);
            (min(&one), min(&two))
        },
    )
    .into_iter()
    .collect()
}

// ------------------------------------------------------------ stream ----

/// Ceiling on the longest single-update pause of the eager stream. A
/// chain update on the kvstore's working set is far below it; it catches
/// pathological regressions on any host.
const PAUSE_CEILING_NS: u64 = 25_000_000;

fn stream(iters: usize) -> Vec<String> {
    eprint!("\rmeasuring eager stream...        ");
    let runs: Vec<StreamReport> = (0..iters)
        .map(|_| {
            let report = measure_eager();
            // A stream with a wrong answer has no pause worth judging.
            assert!(
                report.clean(chain_len()) && report.unanswered == 0,
                "eager stream not clean while measuring: {report:?}"
            );
            report
        })
        .collect();
    eprintln!();
    let pauses = Samples::from_ns(runs.iter().map(|r| r.max_pause.as_nanos() as u64).collect());
    let last = runs.last().expect("iters is at least 1");
    println!(
        "eager stream: {}/{} updates, {} responses; longest per-update pause {} (min) / {} \
         (median) over {} stream(s)",
        last.versions_applied,
        chain_len(),
        last.responses,
        fmt_ns(pauses.min_ns()),
        fmt_ns(pauses.median_ns()),
        pauses.len()
    );
    let pause = pauses.min_ns();
    let ok = pause <= PAUSE_CEILING_NS;
    let what = "longest per-update pause";
    println!(
        "  {what:<54} {:>7} (ceiling {}) {}",
        fmt_ns(pause),
        fmt_ns(PAUSE_CEILING_NS),
        if ok { "ok" } else { "FAILED" }
    );
    if ok {
        Vec::new()
    } else {
        vec![format!("{what} {} over the ceiling {}", fmt_ns(pause), fmt_ns(PAUSE_CEILING_NS))]
    }
}
