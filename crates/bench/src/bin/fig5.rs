//! Regenerates the paper's **Figure 5**: webserver throughput and latency
//! under saturating load for the stock VM (template JIT off), the
//! DSU-capable VM, and the DSU-capable VM after a dynamic 5.1.5 → 5.1.6
//! update.
//!
//! Usage: `cargo run --release -p jvolve-bench --bin fig5 [--runs N] [--slices N]`
//! (paper: 21 runs of 60 s; default here: 5 runs of 20k slices)

use jvolve_bench::arg_value;
use jvolve_bench::fig5::{run_all, Config};

fn main() {
    let runs: usize = arg_value("--runs").and_then(|s| s.parse().ok()).unwrap_or(5);
    let slices: u64 = arg_value("--slices").and_then(|s| s.parse().ok()).unwrap_or(20_000);
    let concurrency = 8;

    println!(
        "Figure 5: webserver 5.1.6 under saturating load ({runs} runs x {slices} slices, \
         concurrency {concurrency})\n"
    );
    println!(
        "{:<22} {:>11} {:>17} {:>9} {:>13} {:>6}",
        "Config.", "Tput (r/s)", "quartiles", "p50 (µs)", "quartiles", "fused"
    );

    eprintln!("measuring {runs} rounds of every configuration ...");
    let rows = run_all(runs, concurrency, slices);
    for row in &rows {
        println!(
            "{:<22} {:>11.0} {:>8.0}/{:>8.0} {:>9.2} {:>6.2}/{:>6.2} {:>6}",
            row.config.label(),
            row.throughput_median,
            row.throughput_quartiles.0,
            row.throughput_quartiles.1,
            row.latency_median,
            row.latency_quartiles.0,
            row.latency_quartiles.1,
            row.jit_compiles
        );
    }

    let tput = |c: Config| {
        rows.iter()
            .find(|r| r.config == c)
            .map(|r| r.throughput_median)
            .expect("config measured")
            .max(1e-9)
    };
    println!(
        "\nshape: updated/stock throughput = {:.3} (paper: essentially identical; \
         inter-quartile ranges largely overlap)",
        tput(Config::JvolveUpdated) / tput(Config::Stock)
    );
    println!(
        "shape: updated/jit throughput = {:.3} (post-update steady state must \
         recover the jit's)",
        tput(Config::JvolveUpdated) / tput(Config::Jvolve)
    );

    // Post-update warm-up: invalidated methods recompile, fused, on their
    // next call (paper §3.3).
    println!("\npost-update warm-up (recompilation):");
    println!(
        "{:>8} {:>14} {:>14} {:>13}",
        "window", "tput (r/s)", "compiles", "fused"
    );
    for w in jvolve_bench::fig5::warmup_series(5, 2_000, concurrency) {
        println!(
            "{:>8} {:>14.0} {:>14} {:>13}",
            w.window, w.throughput, w.base_compiles, w.jit_compiles
        );
    }
}
