//! `jvolve-benchmark`: one workload per invocation, one JSON result line.
//!
//! ```text
//! jvolve-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]
//! jvolve-benchmark --agree DIR_A DIR_B [--bounds BENCHMARK.json]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` reruns the same
//! workload with spans recorded and prints the per-layer metrics. See
//! `README.md`.

mod agree;
mod gen;
mod layers;
mod report;
mod serve;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

const USAGE: &str =
    "usage: jvolve-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]
       jvolve-benchmark --agree DIR_A DIR_B [--bounds BENCHMARK.json]";

struct RunArgs {
    workload: workloads::Workload,
    name: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_out: Option<String>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut traced, mut trace_out) =
        (None, None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            "--trace-out" => trace_out = Some(value.clone()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let workload = workloads::lookup(&name).ok_or_else(|| {
        let known: Vec<&str> = workloads::WORKLOADS.iter().map(|&(n, _)| n).collect();
        format!("unknown workload {name}; one of {known:?}")
    })?;
    Ok(RunArgs {
        workload,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        trace_out,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--agree") {
        return match agree::main(&args[1..]) {
            Ok(clean) => ExitCode::from(u8::from(!clean)),
            Err(e) => {
                eprintln!("jvolve-benchmark: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let run = match parse_run_args(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("jvolve-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut ctx = workloads::Ctx::new(run.seed, run.seconds, run.traced);
    if let Err(e) = (run.workload)(&mut ctx) {
        // Nothing could be measured at all: no result line.
        eprintln!("jvolve-benchmark: {}: {e}", run.name);
        return ExitCode::FAILURE;
    }
    if let Err(e) = ctx.tracer.finish(run.trace_out.as_deref()) {
        eprintln!("jvolve-benchmark: writing the trace: {e}");
        return ExitCode::FAILURE;
    }
    println!("{}", ctx.out.result_line(run.traced));
    ExitCode::SUCCESS
}
