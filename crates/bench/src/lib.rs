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
//! * `ablation` — eager vs lazy (epoch drained, epoch held open)
//!   steady-state time and heap words; jit tier on/off/updated;
//!   barriers/OSR machinery
//! * `gcbench` — update-GC gate: exact copy counts plus same-run ratios
//!   (100%- vs 0%-updated GC, plan vs interpreted pause); writes
//!   `results/BENCH_gc.json`
//! * `interpbench` — steady-state dispatch throughput gate vs
//!   `results/BENCH_interp.json` (inline caches on/off/after-update plus
//!   the template-JIT tier on and on-after-update)
//! * `lazybench` — lazy-migration same-run ratio gates (commit pause ≤ 25%
//!   of eager, pause and longest later step flat across heap sizes,
//!   barrier-free steady state after the epoch drains); writes
//!   `results/BENCH_lazy.json`
//! * `fleetbench` — sharded fleet throughput scaling and rolling-update
//!   integrity gate (zero dropped/incorrect responses during a rolling lazy
//!   update; ≥2× aggregate throughput at 4 shards on hosts with ≥4 CPUs);
//!   writes `results/BENCH_fleet.json`
//! * `streambench` — UPT release-stream gate (the kvstore's 20-update
//!   chain applies eager and lazy with zero incorrect responses,
//!   mid-drain arrivals serialized, and the longest per-update pause under
//!   an absolute ceiling); writes `results/BENCH_stream.json`

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

/// Validates the gate binaries' shared CLI
/// (`[--check] [--iters N] [--baseline FILE] [--out FILE]`): anything
/// else prints the usage line and exits 2. Every gate binary speaks this
/// dialect; all but `interpbench` then refuse `--baseline`, because their
/// gates read no file.
pub fn enforce_gate_args(bin: &str) {
    let mut raw = std::env::args().skip(1);
    while let Some(a) = raw.next() {
        match a.as_str() {
            "--check" => {}
            "--iters" | "--baseline" | "--out" => {
                raw.next();
            }
            other => {
                eprintln!("{bin}: unknown argument `{other}`");
                eprintln!("usage: {bin} [--check] [--iters N] [--baseline FILE] [--out FILE]");
                std::process::exit(2);
            }
        }
    }
}

/// `--iters N` with the gate binaries' shared default of 5.
pub fn gate_iters() -> usize {
    arg_value("--iters").and_then(|s| s.parse().ok()).unwrap_or(5)
}

/// In `--check` mode, loads the baseline JSON *before* any measurement so
/// a missing or malformed file fails immediately, not after the timed
/// runs. Returns `(path, parsed)`, or `None` outside `--check`.
pub fn baseline_for_check(bin: &str, default_path: &str) -> Option<(String, jvolve_json::Json)> {
    arg_flag("--check").then(|| {
        let path = arg_value("--baseline").unwrap_or_else(|| default_path.to_string());
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("{bin}: cannot read baseline {path}: {e}");
            std::process::exit(2);
        });
        let baseline = jvolve_json::Json::parse(&text).expect("baseline parses");
        (path, baseline)
    })
}
