//! Figure 5: webserver throughput and latency, stock vs DSU-capable.
//!
//! The paper compares Jetty 5.1.6 on stock Jikes RVM, on JVolve, and on
//! JVolve after a dynamic update from 5.1.5 — finding the three
//! "essentially identical". Here the configurations are:
//!
//! * `Stock` — the template JIT *off*, running 5.1.6 from scratch as
//!   unfused code with no DSU activity;
//! * `Jvolve` — the default DSU-capable VM (template JIT on), driver
//!   linked and idle (the paper's claim is exactly that this costs
//!   nothing at steady state);
//! * `JvolveUpdated` — started at 5.1.5, dynamically updated to 5.1.6
//!   under way, then measured (invalidated code recompiles fused on its
//!   next call).

use std::time::{Duration, Instant};

use jvolve_apps::harness::{attempt_update, bench_apply_options, boot_with};
use jvolve_apps::webserver::{Webserver, PORT};
use jvolve_apps::workload::{drive_http, percentile};
use jvolve_apps::GuestApp;
use jvolve_vm::{Vm, VmConfig};

/// Benchmark configuration identifiers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Config {
    /// 5.1.6 from scratch, no DSU machinery exercised (jit off).
    Stock,
    /// 5.1.6 from scratch on the default DSU-capable VM (jit on).
    Jvolve,
    /// 5.1.5 dynamically updated to 5.1.6, then measured.
    JvolveUpdated,
}

impl Config {
    /// The paper's three.
    pub fn all() -> [Config; 3] {
        [Config::Stock, Config::Jvolve, Config::JvolveUpdated]
    }

    /// Label as printed in the figure.
    pub fn label(self) -> &'static str {
        match self {
            Config::Stock => "Jikes RVM (stock)",
            Config::Jvolve => "Jvolve",
            Config::JvolveUpdated => "Jvolve updated",
        }
    }

    /// Whether the template JIT runs in this configuration.
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
/// the base instructions retired inside superinstructions or leaf callees
/// over the measured window (0 for `Stock`), and the whole-run fused
/// compile count (0 unless [`Config::jit`]).
pub fn measure(config: Config, concurrency: usize, slices: u64) -> (Served, u64, u64) {
    let vm_config = VmConfig {
        semispace_words: 512 * 1024,
        quantum: 300,
        enable_jit: config.jit(),
        ..VmConfig::default()
    };
    let paths = ["/index.html", "/about.html", "/data.json", "/missing.html"];
    let mut vm = match config {
        Config::Stock | Config::Jvolve => {
            let from = Webserver.versions().len() - 5; // 5.1.6
            let mut vm = boot_with(&Webserver, from, vm_config);
            warmup(&mut vm, &paths, concurrency);
            vm
        }
        Config::JvolveUpdated => {
            let from = Webserver.versions().len() - 6; // 5.1.5
            let mut vm = boot_with(&Webserver, from, vm_config);
            warmup(&mut vm, &paths, concurrency);
            attempt_update(&mut vm, &Webserver, from, &bench_apply_options(), |_, _| {})
                .unwrap_or_else(|e| panic!("5.1.5 -> 5.1.6 must apply: {e}"));
            // Post-update warm-up: invalidated methods recompile on their
            // next call, as the paper describes.
            warmup(&mut vm, &paths, concurrency);
            vm
        }
    };
    let fused0 = vm.stats().fused_steps;
    let served = serve(&mut vm, &paths, concurrency, slices);
    (served, vm.stats().fused_steps - fused0, vm.stats().jit_compiles)
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
    /// Fused compiles in the last run (0 unless [`Config::jit`]).
    pub jit_compiles: u64,
    /// Number of runs.
    pub runs: usize,
}

/// Runs `runs` rounds of every configuration and aggregates each one.
/// A round measures the three in turn, so a burst of host noise, which on
/// a shared host lasts seconds, lands on every row alike instead of on
/// whichever configuration happened to be running.
pub fn run_all(runs: usize, concurrency: usize, slices: u64) -> Vec<Fig5Row> {
    let mut samples: Vec<Vec<(Served, u64, u64)>> = Config::all().map(|_| Vec::new()).into();
    for _ in 0..runs {
        for (config, runs) in Config::all().into_iter().zip(&mut samples) {
            runs.push(measure(config, concurrency, slices));
        }
    }
    Config::all()
        .into_iter()
        .zip(samples)
        .map(|(config, samples)| {
            let column = |f: fn(&(Served, u64, u64)) -> f64| -> Vec<f64> {
                samples.iter().map(f).collect()
            };
            let mut throughputs = column(|s| s.0.requests_per_sec());
            let mut latencies = column(|s| s.0.p50_us());
            Fig5Row {
                config,
                throughput_median: fmedian(&mut throughputs),
                throughput_quartiles: fquartiles(&mut throughputs),
                latency_median: fmedian(&mut latencies),
                latency_quartiles: fquartiles(&mut latencies),
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
    /// Cumulative compiles since VM start.
    pub base_compiles: u64,
    /// Cumulative fused compiles since VM start (all of them, jit on).
    pub jit_compiles: u64,
}

/// Measures the recompilation warm-up after a dynamic update (paper
/// §3.3: invalidated methods are recompiled on their next call — "any
/// added overhead due to recompilation will be short-lived").
pub fn warmup_series(windows: usize, window_slices: u64, concurrency: usize) -> Vec<WarmupWindow> {
    let vm_config = VmConfig { semispace_words: 512 * 1024, quantum: 300, ..VmConfig::default() };
    let paths = ["/index.html", "/about.html", "/data.json"];
    let from = Webserver.versions().len() - 6; // 5.1.5
    let mut vm = boot_with(&Webserver, from, vm_config);
    warmup(&mut vm, &paths, concurrency);
    attempt_update(&mut vm, &Webserver, from, &bench_apply_options(), |_, _| {})
        .unwrap_or_else(|e| panic!("5.1.5 -> 5.1.6 must apply: {e}"));

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
            let (served, fused_steps, jit_compiles) = measure(config, 4, 4_000);
            assert!(
                served.completed > 0,
                "{}: no requests completed",
                config.label()
            );
            if config.jit() {
                assert!(jit_compiles > 0, "{}: the jit never engaged", config.label());
                assert!(fused_steps > 0, "{}: no fused op or leaf callee ran", config.label());
            } else {
                assert_eq!(jit_compiles, 0, "{}: jit must stay off", config.label());
                assert_eq!(fused_steps, 0, "{}: nothing fuses with jit off", config.label());
            }
        }
    }
}
