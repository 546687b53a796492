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

use std::time::{Duration, Instant};

use jvolve_apps::harness::{attempt_update, bench_apply_options, boot_with};
use jvolve_apps::webserver::{Webserver, PORT};
use jvolve_apps::workload::{drive_http, percentile};
use jvolve_apps::GuestApp;
use jvolve_vm::{Vm, VmConfig};

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

/// A closed-loop load run timed on the host clock.
#[derive(Debug, Clone, Default)]
pub struct Served {
    /// Requests that received a response.
    pub completed: u64,
    /// Wall time of the whole run.
    pub wall: Duration,
    /// Per-request latency from send to response, in nanoseconds.
    pub latencies_ns: Vec<u64>,
}

impl Served {
    /// Requests completed per wall-clock second.
    pub fn requests_per_sec(&self) -> f64 {
        self.completed as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Median request latency in microseconds.
    pub fn p50_us(&self) -> f64 {
        percentile(&self.latencies_ns, 50.0) / 1e3
    }
}

/// `drive_http`'s closed loop — keep `concurrency` requests in flight
/// for `slices` scheduler slices — with every request timed by `Instant`
/// from send to response. Every configuration retires the same slices
/// per request, so only host time tells them apart.
fn serve(vm: &mut Vm, paths: &[&str], concurrency: usize, slices: u64) -> Served {
    let mut served = Served::default();
    let mut in_flight: Vec<(usize, Instant)> = Vec::with_capacity(concurrency);
    let mut next_path = 0usize;
    let started = Instant::now();
    for _ in 0..slices {
        while in_flight.len() < concurrency {
            let Some(conn) = vm.net_mut().client_connect(PORT) else { break };
            vm.net_mut().client_send(conn, format!("GET {}", paths[next_path % paths.len()]));
            next_path += 1;
            in_flight.push((conn, Instant::now()));
        }
        vm.step_slice();
        let mut i = 0;
        while i < in_flight.len() {
            let (conn, sent) = in_flight[i];
            if vm.net_mut().client_recv(conn).is_some() {
                vm.net_mut().client_close(conn);
                served.completed += 1;
                served.latencies_ns.push(sent.elapsed().as_nanos() as u64);
                in_flight.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }
    served.wall = started.elapsed();
    for (conn, _) in in_flight {
        vm.net_mut().client_close(conn);
    }
    served
}

/// The standard measurement: saturating closed-loop load for `slices`
/// scheduler slices at the given concurrency. Returns the timed run,
/// the inline-cache hit rate over the measured window (0 for `Stock`,
/// which runs with the dispatch fast path off), and the whole-run jit
/// promotion count (0 unless [`Config::jit`]).
pub fn measure(config: Config, concurrency: usize, slices: u64) -> (Served, f64, u64) {
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
    let served = serve(&mut vm, &paths, concurrency, slices);
    let lookups = (vm.stats().ic_hits - hits0) + (vm.stats().ic_misses - misses0);
    let hit_rate = if lookups == 0 {
        0.0
    } else {
        (vm.stats().ic_hits - hits0) as f64 / lookups as f64
    };
    (served, hit_rate, vm.stats().jit_compiles)
}

fn warmup(vm: &mut Vm, paths: &[&str], concurrency: usize) {
    drive_http(vm, PORT, paths, concurrency, 3_000);
}

/// Median and inter-quartile range over repeated runs, as the paper
/// reports ("with 21 runs, the range between the quartiles serves as a
/// 98% confidence interval").
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Configuration measured.
    pub config: Config,
    /// Median throughput (requests per wall-clock second) across runs.
    pub throughput_median: f64,
    /// Lower/upper quartile of throughput across runs.
    pub throughput_quartiles: (f64, f64),
    /// Median of per-run median latencies (µs).
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

/// Runs `runs` rounds of every configuration and aggregates each one.
/// A round measures the four in turn, so a burst of host noise, which on
/// a shared host lasts seconds, lands on every row alike instead of on
/// whichever configuration happened to be running.
pub fn run_all(runs: usize, concurrency: usize, slices: u64) -> Vec<Fig5Row> {
    let mut samples: Vec<Vec<(Served, f64, u64)>> = Config::all().map(|_| Vec::new()).into();
    for _ in 0..runs {
        for (config, runs) in Config::all().into_iter().zip(&mut samples) {
            runs.push(measure(config, concurrency, slices));
        }
    }
    Config::all()
        .into_iter()
        .zip(samples)
        .map(|(config, samples)| {
            let column = |f: fn(&(Served, f64, u64)) -> f64| -> Vec<f64> {
                samples.iter().map(f).collect()
            };
            let mut throughputs = column(|s| s.0.requests_per_sec());
            let mut latencies = column(|s| s.0.p50_us());
            let mut hit_rates = column(|s| s.1);
            Fig5Row {
                config,
                throughput_median: fmedian(&mut throughputs),
                throughput_quartiles: fquartiles(&mut throughputs),
                latency_median: fmedian(&mut latencies),
                latency_quartiles: fquartiles(&mut latencies),
                ic_hit_rate: fmedian(&mut hit_rates),
                jit_compiles: samples.last().map_or(0, |s| s.2),
                runs,
            }
        })
        .collect()
}

/// One window of the post-update warm-up series.
#[derive(Debug, Clone)]
pub struct WarmupWindow {
    /// Window index (0 = immediately after the update).
    pub window: usize,
    /// Throughput in the window (requests per wall-clock second).
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
                throughput: stats.throughput_per_wall_sec(),
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
            let (served, hit_rate, jit_compiles) = measure(config, 4, 4_000);
            assert!(
                served.completed > 0,
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
