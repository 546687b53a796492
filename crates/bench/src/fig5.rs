//! Figure 5: webserver throughput and latency, stock vs DSU-capable.
//!
//! The paper compares Jetty 5.1.6 on stock Jikes RVM, on JVolve, and on
//! JVolve after a dynamic update from 5.1.5 — finding the three
//! "essentially identical". Here the configurations are:
//!
//! * `Stock` — the pre-fast-path VM: epoch-guarded dispatch caches *off*
//!   and the template-JIT tier *off* (both lean on the epoch machinery),
//!   running 5.1.6 from scratch (no DSU activity);
//! * `JvolveNoJit` — the DSU-capable VM with caches on but the jit tier
//!   off, isolating what the jit row adds;
//! * `Jvolve` — the default DSU-capable VM (caches + template-JIT tier),
//!   driver linked and idle (the paper's claim is exactly that this
//!   costs nothing at steady state);
//! * `JvolveUpdated` — started at 5.1.5, dynamically updated to 5.1.6
//!   under way, then measured (jit-deopted code must re-promote).

use jvolve_apps::harness::{attempt_update, bench_apply_options, boot_with};
use jvolve_apps::webserver::{Webserver, PORT};
use jvolve_apps::workload::{drive_http, LoadStats};
use jvolve_apps::GuestApp;
use jvolve_vm::VmConfig;

/// Benchmark configuration identifiers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Config {
    /// 5.1.6 from scratch, no DSU machinery exercised (caches and jit off).
    Stock,
    /// 5.1.6 from scratch on the DSU-capable VM, template-JIT tier off.
    JvolveNoJit,
    /// 5.1.6 from scratch on the default DSU-capable VM (caches + jit).
    Jvolve,
    /// 5.1.5 dynamically updated to 5.1.6, then measured.
    JvolveUpdated,
}

impl Config {
    /// All four: the paper's three, plus the no-jit ablation row.
    pub fn all() -> [Config; 4] {
        [Config::Stock, Config::JvolveNoJit, Config::Jvolve, Config::JvolveUpdated]
    }

    /// Label as printed in the figure.
    pub fn label(self) -> &'static str {
        match self {
            Config::Stock => "Jikes RVM (stock)",
            Config::JvolveNoJit => "Jvolve (no jit)",
            Config::Jvolve => "Jvolve",
            Config::JvolveUpdated => "Jvolve updated",
        }
    }

    /// Whether the template-JIT tier runs in this configuration.
    pub fn jit(self) -> bool {
        matches!(self, Config::Jvolve | Config::JvolveUpdated)
    }
}

/// The standard measurement: saturating closed-loop load for `slices`
/// scheduler slices at the given concurrency. Returns the load stats,
/// the inline-cache hit rate over the measured window (0 for `Stock`,
/// which runs with the dispatch fast path off), and the whole-run jit
/// promotion count (0 unless [`Config::jit`]).
pub fn measure(config: Config, concurrency: usize, slices: u64) -> (LoadStats, f64, u64) {
    let vm_config = VmConfig {
        semispace_words: 512 * 1024,
        quantum: 300,
        // `Stock` holds the pre-fast-path dispatch behavior; the JVolve
        // configurations run the DSU VM, with the jit axis per config.
        enable_inline_caches: config != Config::Stock,
        enable_jit: config.jit(),
        ..VmConfig::default()
    };
    let paths = ["/index.html", "/about.html", "/data.json", "/missing.html"];
    let mut vm = match config {
        Config::Stock | Config::JvolveNoJit | Config::Jvolve => {
            let from = Webserver.versions().len() - 5; // 5.1.6
            let mut vm = boot_with(&Webserver, from, vm_config);
            warmup(&mut vm, &paths, concurrency);
            vm
        }
        Config::JvolveUpdated => {
            let from = Webserver.versions().len() - 6; // 5.1.5
            let mut vm = boot_with(&Webserver, from, vm_config);
            warmup(&mut vm, &paths, concurrency);
            let (outcome, _) = attempt_update(&mut vm, &Webserver, from, &bench_apply_options());
            assert!(outcome.supported(), "5.1.5 -> 5.1.6 must apply: {outcome}");
            // Post-update warm-up: invalidated methods re-baseline and
            // re-promote to the jit, as the paper describes.
            warmup(&mut vm, &paths, concurrency);
            vm
        }
    };
    let (hits0, misses0) = (vm.stats().ic_hits, vm.stats().ic_misses);
    let stats = drive_http(&mut vm, PORT, &paths, concurrency, slices);
    let lookups = (vm.stats().ic_hits - hits0) + (vm.stats().ic_misses - misses0);
    let hit_rate = if lookups == 0 {
        0.0
    } else {
        (vm.stats().ic_hits - hits0) as f64 / lookups as f64
    };
    (stats, hit_rate, vm.stats().jit_compiles)
}

fn warmup(vm: &mut jvolve_vm::Vm, paths: &[&str], concurrency: usize) {
    drive_http(vm, PORT, paths, concurrency, 3_000);
}

/// Median and inter-quartile range over repeated runs, as the paper
/// reports ("with 21 runs, the range between the quartiles serves as a
/// 98% confidence interval").
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Configuration measured.
    pub config: Config,
    /// Median throughput (requests per 1000 slices) across runs.
    pub throughput_median: f64,
    /// Lower/upper quartile of throughput across runs.
    pub throughput_quartiles: (f64, f64),
    /// Median of per-run median latencies (slices).
    pub latency_median: f64,
    /// Quartiles of per-run median latencies.
    pub latency_quartiles: (f64, f64),
    /// Median inline-cache hit rate across runs (0 for `Stock`).
    pub ic_hit_rate: f64,
    /// Jit promotions in the last run (0 unless [`Config::jit`]).
    pub jit_compiles: u64,
    /// Number of runs.
    pub runs: usize,
}

/// Runs `runs` measurements of `config` and aggregates them.
pub fn run_config(config: Config, runs: usize, concurrency: usize, slices: u64) -> Fig5Row {
    let mut throughputs = Vec::with_capacity(runs);
    let mut latencies = Vec::with_capacity(runs);
    let mut hit_rates = Vec::with_capacity(runs);
    let mut jit_compiles = 0;
    for _ in 0..runs {
        let (stats, hit_rate, jits) = measure(config, concurrency, slices);
        throughputs.push(stats.throughput_per_kslice());
        latencies.push(stats.median_latency());
        hit_rates.push(hit_rate);
        jit_compiles = jits;
    }
    Fig5Row {
        config,
        throughput_median: fmedian(&mut throughputs.clone()),
        throughput_quartiles: fquartiles(&mut throughputs.clone()),
        latency_median: fmedian(&mut latencies.clone()),
        latency_quartiles: fquartiles(&mut latencies.clone()),
        ic_hit_rate: fmedian(&mut hit_rates),
        jit_compiles,
        runs,
    }
}

/// One window of the post-update warm-up series.
#[derive(Debug, Clone)]
pub struct WarmupWindow {
    /// Window index (0 = immediately after the update).
    pub window: usize,
    /// Throughput in the window (requests per 1000 slices).
    pub throughput: f64,
    /// Cumulative baseline compilations since VM start.
    pub base_compiles: u64,
    /// Cumulative jit-tier promotions since VM start.
    pub jit_compiles: u64,
}

/// Measures the adaptive-recompilation warm-up after a dynamic update
/// (paper §3.3: invalidated methods are first base-compiled on next call,
/// then re-promoted to the jit tier — "any added overhead due to
/// recompilation will be short-lived").
pub fn warmup_series(windows: usize, window_slices: u64, concurrency: usize) -> Vec<WarmupWindow> {
    let vm_config = VmConfig { semispace_words: 512 * 1024, quantum: 300, ..VmConfig::default() };
    let paths = ["/index.html", "/about.html", "/data.json"];
    let from = Webserver.versions().len() - 6; // 5.1.5
    let mut vm = boot_with(&Webserver, from, vm_config);
    warmup(&mut vm, &paths, concurrency);
    let (outcome, _) = attempt_update(&mut vm, &Webserver, from, &bench_apply_options());
    assert!(outcome.supported(), "5.1.5 -> 5.1.6 must apply: {outcome}");

    (0..windows)
        .map(|window| {
            let stats = drive_http(&mut vm, PORT, &paths, concurrency, window_slices);
            WarmupWindow {
                window,
                throughput: stats.throughput_per_kslice(),
                base_compiles: vm.stats().base_compiles,
                jit_compiles: vm.stats().jit_compiles,
            }
        })
        .collect()
}

fn fmedian(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    xs[xs.len() / 2]
}

fn fquartiles(xs: &mut [f64]) -> (f64, f64) {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let q1 = xs[(xs.len() as f64 * 0.25) as usize];
    let q3 = xs[((xs.len() as f64 * 0.75) as usize).min(xs.len() - 1)];
    (q1, q3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_configurations_serve_requests() {
        for config in Config::all() {
            let (stats, hit_rate, jit_compiles) = measure(config, 4, 4_000);
            assert!(
                stats.completed > 0,
                "{}: no requests completed",
                config.label()
            );
            if config == Config::Stock {
                assert_eq!(hit_rate, 0.0, "stock runs with caches off");
            } else {
                assert!(hit_rate > 0.5, "{}: hit rate {hit_rate}", config.label());
            }
            if config.jit() {
                assert!(jit_compiles > 0, "{}: jit tier never engaged", config.label());
            } else {
                assert_eq!(jit_compiles, 0, "{}: jit must stay off", config.label());
            }
        }
    }
}
