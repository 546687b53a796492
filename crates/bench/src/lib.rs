//! Benchmark harnesses regenerating every table and figure of the JVolve
//! paper's evaluation (§4). See DESIGN.md's per-experiment index.
//!
//! Harness binaries (run with `--release` for meaningful numbers):
//!
//! * `table1` — update pause time vs heap size × updated fraction
//! * `fig5`   — webserver throughput/latency, four configurations
//!   (stock, DSU no-jit, DSU, DSU after update)
//! * `fig6`   — pause-time series at the largest configuration
//! * `table2` / `table3` / `table4` — per-release summaries + live updates
//! * `summary` — the "20 of 22" headline and the E&C comparison
//! * `ablation` — eager vs lazy (epoch copied, epoch held open)
//!   steady-state time and heap words; jit on/off/updated;
//!   barriers/OSR machinery
//! * `gates` — the tier-1 performance gates in one runner: exact counts
//!   and same-run best-of-N ratios for the update-GC (`gc`), dispatch
//!   tiers (`interp`), lazy migration (`lazy`) and the sharded fleet
//!   (`fleet`), and an absolute pause ceiling on the kvstore release
//!   stream (`stream`); reads and writes no file

pub mod ablation;
pub mod fig5;
pub mod fleet;
pub mod interp;
pub mod lazy;
pub mod micro;
pub mod stream;
pub mod tables;
pub mod timing;

/// Parses `--flag value` style arguments from `std::env::args`.
pub fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
}

/// Whether a bare `--flag` is present.
pub fn arg_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}
