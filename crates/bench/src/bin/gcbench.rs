//! Update-GC pause regression harness.
//!
//! Measures the **update-GC phase** of the §4.1 microbenchmark — the part
//! the flattened `LayoutSnapshot` hot path optimizes — as median
//! nanoseconds per live object, at 0%/50%/100% updated fractions and two
//! heap sizes, and gates changes against the committed baseline. Every
//! configuration is measured twice: as the product default — the
//! generated field-copy transformer lowered to a copy plan and applied
//! inside the copy — and with every transformer interpreted (the
//! paper-faithful path), so the two can be read side by side.
//!
//! Usage:
//!
//! * `cargo run --release -p jvolve-bench --bin gcbench` — measure and
//!   write `BENCH_gc.json` (override with `--out FILE`; to refresh the
//!   committed baseline, `--out results/BENCH_gc.json`).
//! * `cargo run --release -p jvolve-bench --bin gcbench -- --check` —
//!   quick mode: re-measure and exit nonzero if any plan-path
//!   configuration's GC phase regressed more than 15% vs
//!   `results/BENCH_gc.json` (override with `--baseline FILE`).
//!   `scripts/tier1.sh` runs this. The gate compares *best-of-N* times,
//!   not medians — noise only adds time, so min-of-N is the stable
//!   statistic at microsecond scales.
//!
//!   `--check` also gates the plan path against the interpreted one: at
//!   the largest configuration, 100% updated, the whole pause per object
//!   on the plan path must be at most half the interpreted path's in the
//!   same run (ROADMAP item 2's gate).
//!
//! `--iters N` controls timed iterations per configuration (default 5).

use jvolve_bench::micro::{measure_pause_with, PauseSample};
use jvolve_bench::timing::{fmt_ns, gate_best_of, Samples, REGRESSION_LIMIT};
use jvolve_bench::{arg_value, baseline_for_check, enforce_gate_args, gate_iters};
use jvolve_json::Json;

/// The gated configurations: two heap sizes (the semispace scales with the
/// object count) × three updated fractions × two transformer modes.
const OBJECT_COUNTS: [usize; 2] = [5_000, 20_000];
const FRACTIONS: [f64; 3] = [0.0, 0.5, 1.0];

/// The plan path's total pause per object at 100% updated may be at most
/// this fraction of the interpreted path's.
const PLAN_TOTAL_LIMIT: f64 = 0.5;

struct Entry {
    objects: usize,
    fraction: f64,
    /// Every transformer interpreted (`true`) or the default plan path.
    interpreted: bool,
    semispace_words: usize,
    gc_ns_per_object: f64,
    /// Best-of-N GC phase time. The check gate compares this, not the
    /// median: scheduler noise only ever adds time, so min-of-N is far
    /// more stable at these microsecond scales.
    gc_min_ns_per_object: f64,
    total_ns_per_object: f64,
    total_min_ns_per_object: f64,
    gc_copied_cells: usize,
    gc_copied_words: usize,
}

fn measure_one(objects: usize, fraction: f64, interpreted: bool, iters: usize) -> Entry {
    eprint!(
        "\rmeasuring {objects} objects, {:>3.0}% updated, {}...",
        fraction * 100.0,
        mode_name(interpreted)
    );
    let mut gc_ns = Vec::with_capacity(iters);
    let mut total_ns = Vec::with_capacity(iters);
    let mut last: Option<PauseSample> = None;
    // Warmup run, then timed runs; measure_pause_with builds a fresh VM
    // each time, so iterations are independent.
    measure_pause_with(objects, fraction, interpreted);
    for _ in 0..iters {
        let s = measure_pause_with(objects, fraction, interpreted);
        gc_ns.push(s.gc_time.as_nanos() as u64);
        total_ns.push(s.total_time.as_nanos() as u64);
        last = Some(s);
    }
    let last = last.expect("at least one iteration");
    let (gc, total) = (Samples::from_ns(gc_ns), Samples::from_ns(total_ns));
    Entry {
        objects,
        fraction,
        interpreted,
        semispace_words: last.semispace_words,
        gc_ns_per_object: gc.median_ns() as f64 / objects as f64,
        gc_min_ns_per_object: gc.min_ns() as f64 / objects as f64,
        total_ns_per_object: total.median_ns() as f64 / objects as f64,
        total_min_ns_per_object: total.min_ns() as f64 / objects as f64,
        gc_copied_cells: last.gc_copied_cells,
        gc_copied_words: last.gc_copied_words,
    }
}

fn mode_name(interpreted: bool) -> &'static str {
    if interpreted {
        "interpreted"
    } else {
        "plan"
    }
}

fn measure(iters: usize) -> Vec<Entry> {
    let mut entries = Vec::new();
    for &objects in &OBJECT_COUNTS {
        for &fraction in &FRACTIONS {
            for interpreted in [false, true] {
                entries.push(measure_one(objects, fraction, interpreted, iters));
            }
        }
    }
    eprintln!();
    entries
}

fn to_json(entries: &[Entry], iters: usize) -> Json {
    Json::obj([
        ("schema", Json::from("jvolve-gcbench-v4")),
        ("iters", Json::from(iters)),
        (
            "entries",
            Json::Arr(
                entries
                    .iter()
                    .map(|e| {
                        Json::obj([
                            ("objects", Json::from(e.objects)),
                            ("fraction", Json::from(e.fraction)),
                            ("transformers", Json::from(mode_name(e.interpreted))),
                            ("semispace_words", Json::from(e.semispace_words)),
                            ("gc_ns_per_object", Json::from(e.gc_ns_per_object)),
                            ("gc_min_ns_per_object", Json::from(e.gc_min_ns_per_object)),
                            ("total_ns_per_object", Json::from(e.total_ns_per_object)),
                            ("total_min_ns_per_object", Json::from(e.total_min_ns_per_object)),
                            ("gc_copied_cells", Json::from(e.gc_copied_cells)),
                            ("gc_copied_words", Json::from(e.gc_copied_words)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn baseline_gc_ns(baseline: &Json, objects: usize, fraction: f64) -> Option<f64> {
    baseline.get("entries")?.as_arr()?.iter().find_map(|e| {
        let obj = e.get("objects")?.as_u64()? as usize;
        let frac = e.get("fraction")?.as_f64()?;
        // v1/v2 baselines predate the transformer axis; their rows stand
        // in for the plan path. (v3 rows also carry a collector worker
        // count, 1 on every row of the committed baseline; it is not read.)
        let plan = e.get("transformers").and_then(Json::as_str).unwrap_or("plan") == "plan";
        (obj == objects && plan && (frac - fraction).abs() < 1e-9)
            .then(|| e.get("gc_min_ns_per_object")?.as_f64())
            .flatten()
    })
}

fn print_table(entries: &[Entry]) {
    println!(
        "{:>9} {:>9} {:>12} {:>10} {:>16} {:>18} {:>14}",
        "objects", "updated%", "transformers", "heap(MB)", "gc ns/object", "total ns/object",
        "copied cells"
    );
    for e in entries {
        println!(
            "{:>9} {:>8.0}% {:>12} {:>10.1} {:>16.1} {:>18.1} {:>14}",
            e.objects,
            e.fraction * 100.0,
            mode_name(e.interpreted),
            (e.semispace_words * 2 * 8) as f64 / (1024.0 * 1024.0),
            e.gc_ns_per_object,
            e.total_ns_per_object,
            e.gc_copied_cells,
        );
    }
}

/// The plan-path-vs-baseline regression gate. Returns human-readable
/// descriptions of configurations beyond the limit.
fn check_baseline(entries: &[Entry], baseline: &Json, path: &str, iters: usize) -> Vec<String> {
    let mut regressions = Vec::new();
    println!("\nregression check vs {path} (limit +{:.0}%):", REGRESSION_LIMIT * 100.0);
    for e in entries.iter().filter(|e| !e.interpreted) {
        let Some(base) = baseline_gc_ns(baseline, e.objects, e.fraction) else {
            println!(
                "  {:>7} objects {:>3.0}%: no baseline entry — skipped",
                e.objects,
                e.fraction * 100.0
            );
            continue;
        };
        // A tripped gate re-measures with 3x iterations before declaring
        // a regression: a real one survives the retry, scheduler noise
        // does not.
        let g = gate_best_of(e.gc_min_ns_per_object, base, || {
            measure_one(e.objects, e.fraction, false, iters * 3).gc_min_ns_per_object
        });
        println!(
            "  {:>7} objects {:>3.0}%: {:>9} -> {:>9} per object ({:>+6.1}%) {}",
            e.objects,
            e.fraction * 100.0,
            fmt_ns(base as u64),
            fmt_ns(g.current as u64),
            g.delta * 100.0,
            g.verdict(),
        );
        if g.regressed() {
            regressions.push(format!(
                "{} objects at {:.0}%: {:.1} -> {:.1} ns/object",
                e.objects,
                e.fraction * 100.0,
                base,
                g.current
            ));
        }
    }
    regressions
}

/// The plan-vs-interpreted gate: at the largest configuration with every
/// object updated, the plan path's best-of-N total pause must be at most
/// `PLAN_TOTAL_LIMIT` of the interpreted path's, measured in the same
/// run. A tripped gate re-measures both with 3× iterations first.
fn check_plan(entries: &[Entry], iters: usize) -> Vec<String> {
    let objects = *OBJECT_COUNTS.last().expect("object counts");
    let pick = |interpreted: bool| {
        entries
            .iter()
            .find(|e| e.objects == objects && e.fraction == 1.0 && e.interpreted == interpreted)
            .map(|e| e.total_min_ns_per_object)
            .expect("100% rows are always measured")
    };
    let (mut plan, mut interpreted) = (pick(false), pick(true));
    if plan > PLAN_TOTAL_LIMIT * interpreted {
        let again = |mode| measure_one(objects, 1.0, mode, iters * 3).total_min_ns_per_object;
        plan = plan.min(again(false));
        interpreted = interpreted.min(again(true));
    }
    println!(
        "\nplan-vs-interpreted gate ({objects} objects, 100% updated): total pause \
         interpreted {} -> plan {} per object = {:.2}x (limit {:.2}x)",
        fmt_ns(interpreted as u64),
        fmt_ns(plan as u64),
        plan / interpreted,
        PLAN_TOTAL_LIMIT,
    );
    if plan > PLAN_TOTAL_LIMIT * interpreted {
        vec![format!(
            "plan path is {:.2}x the interpreted pause at {objects} objects, 100% updated \
             (limit {PLAN_TOTAL_LIMIT:.2}x)",
            plan / interpreted
        )]
    } else {
        Vec::new()
    }
}

fn main() {
    enforce_gate_args("gcbench");
    let iters = gate_iters();
    let baseline = baseline_for_check("gcbench", "results/BENCH_gc.json");

    let entries = measure(iters);
    print_table(&entries);

    if let Some((path, baseline)) = baseline {
        let mut regressions = check_baseline(&entries, &baseline, &path, iters);
        regressions.extend(check_plan(&entries, iters));
        if !regressions.is_empty() {
            eprintln!("\nGC pause regression(s) beyond {:.0}%:", REGRESSION_LIMIT * 100.0);
            for r in &regressions {
                eprintln!("  {r}");
            }
            std::process::exit(1);
        }
        println!("no GC pause regressions.");
    } else {
        let out = arg_value("--out").unwrap_or_else(|| "BENCH_gc.json".to_string());
        std::fs::write(&out, to_json(&entries, iters).pretty() + "\n").expect("write output");
        println!("\nwrote {out}");
    }
}
