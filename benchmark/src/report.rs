//! Every metric the benchmark prints, and how a run's measurements turn
//! into them. `BENCHMARK.json` lists the same names (a unit test checks).

use std::collections::BTreeMap;

use crate::layers::{Counters, Json};
use crate::serve::{ServePhase, UpdateSample};
use crate::stats;

/// End-to-end metrics: `(name, unit)`. Printed by an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("rps", "1/s"),
    ("post_update_rps", "1/s"),
    ("req_p50_us", "us"),
    ("pause_ms", "ms"),
    ("update_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics: `(name, unit)`. Printed by a traced run; 0 where a
/// workload does not exercise the layer.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Guest execution, around `Vm::step_slice` (+ `call_static_sync`).
    ("guest.slice_ms", "ms"),
    ("guest.slices", "count"),
    ("guest.steps", "count"),
    ("guest.ns_per_step", "ns"),
    ("guest.steps_per_req", "count"),
    ("guest.slices_per_req", "count"),
    ("guest.idle_slices", "count"),
    ("guest.epoch_ns_per_step", "ns"),
    ("guest.post_ns_per_step", "ns"),
    ("interp.fused_share", "%"),
    ("interp.ic_hit_rate", "%"),
    ("interp.base_compiles", "count"),
    ("interp.opt_compiles", "count"),
    ("interp.jit_compiles", "count"),
    ("interp.deopts", "count"),
    ("interp.post_update_base_compiles", "count"),
    ("interp.post_update_opt_compiles", "count"),
    ("interp.post_update_jit_compiles", "count"),
    ("interp.post_update_deopts", "count"),
    // Plain whole-run medians of the rates the end-to-end metrics take
    // the best decile of, the tails too noisy on a shared host to gate
    // on, and the traced run's own pause and update time (what its
    // `controller.*` and `update.*` times are shares of).
    ("serve.rps_p50", "1/s"),
    ("serve.post_update_rps_p50", "1/s"),
    ("serve.req_p99_us", "us"),
    ("update.pause_ms_p50", "ms"),
    ("update.pause_ms_p90", "ms"),
    ("update.update_ms_p50", "ms"),
    // Ordinary collections and the simulated network.
    ("heap.gcs", "count"),
    ("heap.gc_slice_ms", "ms"),
    ("heap.plain_gc_ms_p50", "ms"),
    ("heap.live_words", "count"),
    ("heap.used_words_after_update", "count"),
    ("heap.alloc_ns_per_object", "ns"),
    ("net.client_ms", "ms"),
    ("net.ns_per_req", "ns"),
    // The harness itself.
    ("harness.self_ms", "ms"),
    ("harness.wall_ms", "ms"),
    ("harness.trace_overhead_pct", "%"),
    ("harness.req_samples", "count"),
    ("harness.update_samples", "count"),
    // Controller phases, timed per `UpdateController::step`.
    ("controller.safepoint_ms_p50", "ms"),
    ("controller.safepoint_polls", "count"),
    ("controller.slices_waited", "count"),
    ("controller.pump_ms_p50", "ms"),
    ("controller.install_ms_p50", "ms"),
    ("controller.transform_heap_ms_p50", "ms"),
    ("controller.lazy_ms_p50", "ms"),
    ("controller.lazy_steps", "count"),
    ("controller.lazy_step_ms_max", "ms"),
    // The controller's own `UpdateStats`.
    ("update.classload_ms_p50", "ms"),
    ("update.classes_loaded", "count"),
    ("update.bodies_swapped", "count"),
    ("update.methods_invalidated", "count"),
    ("update.osr_replacements", "count"),
    ("update.barriers_installed", "count"),
    ("update.gc_ms_p50", "ms"),
    ("update.gc_copied_words", "count"),
    ("update.gc_ns_per_copied_word", "ns"),
    ("update.transform_ms_p50", "ms"),
    ("update.objects_transformed", "count"),
    ("update.transform_ns_per_object", "ns"),
    ("update.arm_ms_p50", "ms"),
    ("update.lazy_scan_ms_p50", "ms"),
    ("update.lazy_collapse_ms_p50", "ms"),
    // Set-up.
    ("lang.compile_ms", "ms"),
    ("upt.prepare_ms_p50", "ms"),
    ("vm.load_classes_ms", "ms"),
];

/// Everything a workload measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted and failed: requests, updates, repetitions.
    pub attempted: u64,
    pub failed: u64,
    /// One sample per complete set-up, in seconds.
    pub setup_s: Vec<f64>,
    pub compile_ms: Vec<f64>,
    pub prepare_ms: Vec<f64>,
    pub load_classes_ms: Vec<f64>,
    pub alloc_ns_per_object: Vec<f64>,
    /// Serving before any update reached the VM (kv: across the stream).
    pub pre: ServePhase,
    /// Serving on updated, re-warmed code.
    pub post: ServePhase,
    /// Every update applied; the first `first_rep_updates` belong to the
    /// first repetition and supply the counts that must repeat exactly.
    pub updates: Vec<UpdateSample>,
    pub first_rep_updates: usize,
    /// Absolute counters of the first repetition's VM at its commit
    /// (its last one, for a chain).
    pub at_commit: Counters,
    /// `Vm::collect_full(&NoRemap)` on the population before the update.
    pub plain_gc_ns: Vec<u64>,
    /// `Heap::used_words` right after that collection.
    pub live_words: u64,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn p50(updates: &[UpdateSample], f: impl Fn(&UpdateSample) -> u64) -> f64 {
    stats::median(&updates.iter().map(|u| ms(f(u))).collect::<Vec<_>>())
}

/// The typical cost of an update: per update kind (the 20 updates of a
/// chain are 20 kinds; elsewhere there is one) the median over its
/// repetitions — the same work every time — then the median over the
/// kinds. Not the best decile the rates use: a lazy 100 % update's
/// longest step is a hash-table growth whose fresh pages the allocator
/// now and then has ready, a sparse fast tail (5–7 ms under a floor of
/// 8.2 ms, three to five repetitions in thirty) the decile falls into on
/// some runs and not on others (ten-seed spread 33 %, the median's 7 %).
fn typical_ms(updates: &[UpdateSample], f: impl Fn(&UpdateSample) -> u64) -> f64 {
    let kinds = updates.iter().map(|u| u.kind + 1).max().unwrap_or(0);
    let per_kind: Vec<f64> = (0..kinds)
        .map(|kind| {
            let reps: Vec<f64> = updates
                .iter()
                .filter(|u| u.kind == kind)
                .map(|u| ms(f(u)))
                .collect();
            stats::median(&reps)
        })
        .collect();
    stats::median(&per_kind)
}

/// `VmHWM` from `/proc/self/status`, in MB (0 where there is no procfs).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

impl Outcome {
    fn committed(&self) -> Vec<UpdateSample> {
        self.updates
            .iter()
            .filter(|u| u.committed)
            .cloned()
            .collect()
    }

    /// The end-to-end metrics. Rates and latency are best-decile values
    /// (see [`stats::best_decile`]), pauses and set-up medians.
    pub fn end_to_end(&self) -> BTreeMap<&'static str, f64> {
        let committed = self.committed();
        let latency: Vec<f64> = self.pre.windows.iter().map(|w| w.latency_p50_us).collect();
        BTreeMap::from([
            ("rps", stats::best_decile(&self.pre.rates(None), true)),
            (
                "post_update_rps",
                stats::best_decile(&self.post.rates(None), true),
            ),
            ("req_p50_us", stats::best_decile(&latency, false)),
            ("pause_ms", typical_ms(&committed, |u| u.pause_ns)),
            ("update_ms", typical_ms(&committed, |u| u.update_ns)),
            ("peak_rss_mb", peak_rss_mb()),
            ("setup_s", stats::median(&self.setup_s)),
        ])
    }

    /// The per-layer metrics; `harness_ms` etc. come from the recording
    /// windows, exact counts from the fixed windows and the first
    /// repetition.
    pub fn per_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect();
        let mut set = |name: &'static str, v: f64| {
            assert!(m.insert(name, v).is_some(), "{name} is not in PER_LAYER");
        };

        let t = &self.pre.traced;
        let tc = &t.counters;
        set("guest.slice_ms", t.guest_ms);
        set("guest.slices", tc.slices as f64);
        set("guest.steps", tc.steps as f64);
        set(
            "guest.ns_per_step",
            ratio(t.guest_ms * 1e6, tc.steps as f64),
        );
        set("heap.gcs", tc.gcs as f64);
        set("heap.gc_slice_ms", t.gc_slice_ms);
        set("net.client_ms", t.net_ms);
        set("net.ns_per_req", ratio(t.net_ms * 1e6, t.requests as f64));
        set("harness.self_ms", t.harness_ms);
        set("harness.wall_ms", ms(t.wall_ns));
        set("harness.trace_overhead_pct", self.pre.trace_overhead_pct());
        let served = |p: &ServePhase| p.windows.len() as u64 * p.window_requests;
        set(
            "harness.req_samples",
            (served(&self.pre) + served(&self.post)) as f64,
        );
        set("harness.update_samples", self.updates.len() as f64);

        let f = &self.pre.fixed;
        let fc = &f.counters;
        set(
            "guest.steps_per_req",
            ratio(fc.steps as f64, f.requests as f64),
        );
        set(
            "guest.slices_per_req",
            ratio(fc.slices as f64, f.requests as f64),
        );
        set("guest.idle_slices", f.idle_slices as f64);
        set(
            "interp.fused_share",
            100.0 * ratio(fc.fused_steps as f64, fc.steps as f64),
        );
        set(
            "interp.ic_hit_rate",
            100.0 * ratio(fc.ic_hits as f64, (fc.ic_hits + fc.ic_misses) as f64),
        );
        let at = &self.pre.at_fixed;
        set("interp.base_compiles", at.base_compiles as f64);
        set("interp.opt_compiles", at.opt_compiles as f64);
        set("interp.jit_compiles", at.jit_compiles as f64);
        set("interp.deopts", at.deopts as f64);
        if self.post.fixed_done() && self.first_rep_updates > 0 {
            let d = self.post.at_fixed.since(&self.at_commit);
            set("interp.post_update_base_compiles", d.base_compiles as f64);
            set("interp.post_update_opt_compiles", d.opt_compiles as f64);
            set("interp.post_update_jit_compiles", d.jit_compiles as f64);
            set("interp.post_update_deopts", d.deopts as f64);
        }
        let pt = &self.post.traced;
        set(
            "guest.post_ns_per_step",
            ratio(pt.guest_ms * 1e6, pt.counters.steps as f64),
        );

        set("serve.rps_p50", stats::median(&self.pre.rates(None)));
        set(
            "serve.post_update_rps_p50",
            stats::median(&self.post.rates(None)),
        );
        let p99s: Vec<f64> = self.pre.windows.iter().map(|w| w.latency_p99_us).collect();
        set("serve.req_p99_us", stats::median(&p99s));

        let ups = self.committed();
        set("update.pause_ms_p50", p50(&ups, |u| u.pause_ns));
        set("update.update_ms_p50", p50(&ups, |u| u.update_ns));
        let epoch_ns: u64 = ups.iter().map(|u| u.epoch_guest_ns).sum();
        let epoch_steps: u64 = ups.iter().map(|u| u.epoch_steps).sum();
        set(
            "guest.epoch_ns_per_step",
            ratio(epoch_ns as f64, epoch_steps as f64),
        );
        set("controller.safepoint_ms_p50", p50(&ups, |u| u.safepoint_ns));
        set("controller.pump_ms_p50", p50(&ups, |u| u.pump_ns));
        set("controller.install_ms_p50", p50(&ups, |u| u.install_ns));
        set(
            "controller.transform_heap_ms_p50",
            p50(&ups, |u| u.transform_heap_ns),
        );
        set("controller.lazy_ms_p50", p50(&ups, |u| u.lazy_ns));
        set(
            "controller.lazy_step_ms_max",
            ms(ups.iter().map(|u| u.lazy_step_max_ns).max().unwrap_or(0)),
        );
        let mut pauses: Vec<f64> = ups.iter().map(|u| ms(u.pause_ns)).collect();
        stats::sort(&mut pauses);
        set(
            "update.pause_ms_p90",
            stats::percentile(&pauses, 0.9).unwrap_or(0.0),
        );
        set(
            "update.classload_ms_p50",
            p50(&ups, |u| u.numbers.classload_ns),
        );
        set("update.gc_ms_p50", p50(&ups, |u| u.numbers.gc_ns));
        set("update.arm_ms_p50", p50(&ups, |u| u.numbers.arm_ns));
        set(
            "update.lazy_scan_ms_p50",
            p50(&ups, |u| u.numbers.lazy_scan_ns),
        );
        set(
            "update.lazy_collapse_ms_p50",
            p50(&ups, |u| u.numbers.lazy_collapse_ns),
        );
        // Transformer time: eager runs them inside `transform_time`; lazy
        // runs class transformers there and object transformers in the
        // scavenger share of `lazy_time`.
        let transform_ns = |u: &UpdateSample| {
            let n = &u.numbers;
            n.transform_ns
                + n.lazy_ns
                    .saturating_sub(n.lazy_scan_ns + n.lazy_collapse_ns)
        };
        set("update.transform_ms_p50", p50(&ups, transform_ns));
        let per_unit = |num: &dyn Fn(&UpdateSample) -> u64, den: &dyn Fn(&UpdateSample) -> u64| {
            let xs: Vec<f64> = ups
                .iter()
                .filter(|u| den(u) > 0)
                .map(|u| num(u) as f64 / den(u) as f64)
                .collect();
            stats::median(&xs)
        };
        set(
            "update.gc_ns_per_copied_word",
            per_unit(&|u| u.numbers.gc_ns, &|u| u.numbers.gc_copied_words),
        );
        set(
            "update.transform_ns_per_object",
            per_unit(&transform_ns, &|u| u.numbers.objects_transformed),
        );

        // Counts that must repeat exactly: totals over the first repetition.
        let first = &self.updates[..self.first_rep_updates.min(self.updates.len())];
        let total = |f: &dyn Fn(&UpdateSample) -> u64| first.iter().map(f).sum::<u64>() as f64;
        set("controller.safepoint_polls", total(&|u| u.safepoint_polls));
        set(
            "controller.slices_waited",
            total(&|u| u.numbers.slices_waited),
        );
        set("controller.lazy_steps", total(&|u| u.lazy_steps));
        set(
            "update.classes_loaded",
            total(&|u| u.numbers.classes_loaded),
        );
        set(
            "update.bodies_swapped",
            total(&|u| u.numbers.bodies_swapped),
        );
        set(
            "update.methods_invalidated",
            total(&|u| u.numbers.methods_invalidated),
        );
        set(
            "update.osr_replacements",
            total(&|u| u.numbers.osr_replacements),
        );
        set(
            "update.barriers_installed",
            total(&|u| u.numbers.barriers_installed),
        );
        set(
            "update.gc_copied_words",
            total(&|u| u.numbers.gc_copied_words),
        );
        set(
            "update.objects_transformed",
            total(&|u| u.numbers.objects_transformed),
        );
        set(
            "heap.used_words_after_update",
            first.last().map_or(0.0, |u| u.used_words_after as f64),
        );

        let gc_ms: Vec<f64> = self.plain_gc_ns.iter().map(|&ns| ms(ns)).collect();
        set("heap.plain_gc_ms_p50", stats::median(&gc_ms));
        set("heap.live_words", self.live_words as f64);
        set(
            "heap.alloc_ns_per_object",
            stats::median(&self.alloc_ns_per_object),
        );
        set("lang.compile_ms", stats::median(&self.compile_ms));
        set("upt.prepare_ms_p50", stats::median(&self.prepare_ms));
        set("vm.load_classes_ms", stats::median(&self.load_classes_ms));
        m
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self, traced: bool) -> String {
        let (table, values) = if traced {
            (PER_LAYER, self.per_layer())
        } else {
            (END_TO_END, self.end_to_end())
        };
        let metrics = table
            .iter()
            .map(|&(name, unit)| {
                let value = values.get(name).copied().unwrap_or(0.0);
                (
                    name,
                    Json::obj([("value", Json::Num(value)), ("unit", Json::from(unit))]),
                )
            })
            .collect::<Vec<_>>();
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(Json::as_str).expect("string").to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key} differs from report.rs");
        }
    }

    #[test]
    fn result_line_has_every_metric_of_its_kind() {
        let outcome = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for (traced, table) in [(false, END_TO_END), (true, PER_LAYER)] {
            let doc = Json::parse(&outcome.result_line(traced)).unwrap();
            assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(3));
            let metrics = doc.get("metrics").unwrap();
            for (name, unit) in table {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{name} missing"));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit));
                assert!(m.get("value").and_then(Json::as_f64).is_some());
            }
        }
    }
}
