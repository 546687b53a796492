//! `fleet_run` — serve a guest application on a sharded multi-VM fleet,
//! optionally rolling a live update across the shards.
//!
//! ```text
//! fleet_run --app webserver|emailserver|ftpserver|kvstore [--shards N] [--from I]
//!           [--requests N] [--no-jit]
//!           [--roll [--eager] [--probes N] [--update-bundle dir/]]
//! ```
//!
//! Boots `--shards` OS-thread VM shards, each running its own copy of the
//! app at version index `--from`, serves `--requests` verified exchanges
//! round-robin across them, and — with `--roll` — rolls the update to
//! version `--from + 1` shard-by-shard: drain, apply (lazily unless
//! `--eager`), health-gate via the typed event stream plus `--probes`
//! verified probe exchanges, promote — or roll the fleet back to the old
//! version on the first failure.
//!
//! `--no-jit` turns the template JIT off on every shard's VM, exactly as
//! on `jvolve_run`. With
//! `--update-bundle` the rolled update comes from a UPT-emitted bundle
//! directory (re-verified on load) instead of the app's built-in next
//! version.
//!
//! Unknown flags, missing or malformed values, duplicate flags, and
//! conflicting combinations (`--eager`/`--probes`/`--update-bundle`
//! without `--roll`) are rejected with the usage message and exit code 2.

use std::process::ExitCode;
use std::sync::Arc;

use jvolve_apps::fleet::{Fleet, RollOptions};
use jvolve_apps::harness::{app_vm_config, bench_apply_options, prepare_next};
use jvolve_apps::{AppInstance, Emailserver, Ftpserver, GuestApp, Kvstore, Webserver};

const USAGE: &str = "usage: fleet_run --app webserver|emailserver|ftpserver|kvstore [--shards N] [--from I] \
     [--requests N] [--no-jit] \
     [--roll [--eager] [--probes N] [--update-bundle dir/]]";

/// Parsed command line. Every flag is strict: unknown names, missing or
/// malformed values, duplicates, and conflicts are parse errors.
struct Cli {
    app: String,
    shards: usize,
    from: usize,
    requests: u64,
    jit: bool,
    roll: bool,
    eager: bool,
    probes: u32,
    update_bundle: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut values: [(&str, Option<String>); 6] = [
        ("--app", None),
        ("--shards", None),
        ("--from", None),
        ("--requests", None),
        ("--probes", None),
        ("--update-bundle", None),
    ];
    let mut jit = true;
    let mut roll = false;
    let mut eager = false;

    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        match arg {
            "--roll" => {
                if roll {
                    return Err("duplicate flag --roll".into());
                }
                roll = true;
                i += 1;
            }
            "--eager" => {
                if eager {
                    return Err("duplicate flag --eager".into());
                }
                eager = true;
                i += 1;
            }
            "--no-jit" => {
                if !jit {
                    return Err("duplicate flag --no-jit".into());
                }
                jit = false;
                i += 1;
            }
            _ if arg.starts_with("--") => {
                // All value-taking flags share one fetch-and-dedup path.
                let slot = values
                    .iter_mut()
                    .find(|(name, _)| *name == arg)
                    .map(|(_, slot)| slot)
                    .ok_or_else(|| format!("unknown flag {arg}"))?;
                if slot.is_some() {
                    return Err(format!("duplicate flag {arg}"));
                }
                let v = args.get(i + 1).ok_or_else(|| format!("{arg} needs a value"))?;
                if v.starts_with("--") {
                    return Err(format!("{arg} needs a value, got flag {v}"));
                }
                *slot = Some(v.clone());
                i += 2;
            }
            _ => return Err(format!("unexpected argument {arg}")),
        }
    }
    let mut take = |name: &str| {
        values.iter_mut().find(|(n, _)| *n == name).expect("known flag").1.take()
    };
    let app = take("--app").ok_or_else(|| "--app is required".to_string())?;
    let shards = take("--shards");
    let from = take("--from");
    let requests = take("--requests");
    let probes = take("--probes");
    let update_bundle = take("--update-bundle");

    if !roll {
        for (flag, set) in [
            ("--eager", eager),
            ("--probes", probes.is_some()),
            ("--update-bundle", update_bundle.is_some()),
        ] {
            if set {
                return Err(format!("{flag} requires --roll"));
            }
        }
    }
    Ok(Cli {
        app,
        shards: parse_num("--shards", shards)?.unwrap_or(4).max(1),
        from: parse_num("--from", from)?.unwrap_or(0),
        requests: parse_num("--requests", requests)?.unwrap_or(50) as u64,
        jit,
        roll,
        eager,
        probes: parse_num("--probes", probes)?.unwrap_or(4).max(1) as u32,
        update_bundle,
    })
}

fn parse_num(flag: &str, value: Option<String>) -> Result<Option<usize>, String> {
    value
        .map(|v| v.parse().map_err(|_| format!("{flag} expects a number, got {v}")))
        .transpose()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("fleet_run: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let app: Box<dyn GuestApp> = match cli.app.as_str() {
        "webserver" => Box::new(Webserver),
        "emailserver" => Box::new(Emailserver),
        "ftpserver" => Box::new(Ftpserver),
        "kvstore" => Box::new(Kvstore),
        other => {
            eprintln!("fleet_run: unknown app {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let versions = app.versions();
    let last_bootable = if cli.roll { versions.len() - 2 } else { versions.len() - 1 };
    if cli.from > last_bootable {
        eprintln!(
            "fleet_run: --from {} out of range for {} ({} versions{})",
            cli.from,
            app.name(),
            versions.len(),
            if cli.roll { ", --roll needs a successor" } else { "" }
        );
        return ExitCode::FAILURE;
    }

    let mut config = app_vm_config();
    config.lazy_migration = cli.roll && !cli.eager;
    config.enable_jit = cli.jit;
    let instance: Arc<dyn AppInstance> = match cli.app.as_str() {
        "webserver" => Arc::new(Webserver),
        "emailserver" => Arc::new(Emailserver),
        "kvstore" => Arc::new(Kvstore),
        _ => Arc::new(Ftpserver),
    };
    let classes = versions[cli.from].compile();
    eprintln!(
        "fleet_run: booting {} shards of {} {}",
        cli.shards,
        app.name(),
        versions[cli.from].label
    );
    let mut fleet = Fleet::boot(instance, classes, cli.shards, &config);

    let report = fleet.run_requests(cli.requests);
    println!(
        "served {} requests across {} shards in {:.1} ms ({} incorrect)",
        report.completed,
        cli.shards,
        report.wall.as_secs_f64() * 1e3,
        report.incorrect
    );
    if report.incorrect > 0 {
        return ExitCode::FAILURE;
    }

    if cli.roll {
        let update = match &cli.update_bundle {
            // A UPT-emitted bundle replaces the built-in next version's
            // prepared update (spec and payloads re-verified on load).
            Some(dir) => match jvolve::bundle::load(std::path::Path::new(dir)) {
                Ok(update) => update,
                Err(e) => {
                    eprintln!("fleet_run: {dir}: {e}");
                    fleet.shutdown();
                    return ExitCode::FAILURE;
                }
            },
            None => prepare_next(app.as_ref(), cli.from),
        };
        let mode = if cli.eager { "eager" } else { "lazy" };
        eprintln!(
            "fleet_run: rolling {} -> {} ({mode}) ...",
            versions[cli.from].label,
            versions[cli.from + 1].label
        );
        let ropts = RollOptions { probes_per_shard: cli.probes, ..RollOptions::default() };
        let roll = fleet.roll(&update, &bench_apply_options(), &ropts);
        for s in &roll.shards {
            println!("shard {}: {}", s.shard, s.detail);
        }
        println!(
            "roll {}: {} mid-roll responses, {} dropped, {} incorrect, fingerprints {}",
            if roll.rolled_back { "ROLLED BACK" } else { "complete" },
            roll.mid_roll_responses,
            roll.dropped,
            roll.incorrect,
            if roll.fingerprints_converged() { "converged" } else { "DIVERGED" }
        );
        if roll.rolled_back || !roll.fingerprints_converged() {
            fleet.shutdown();
            return ExitCode::FAILURE;
        }
    }
    fleet.shutdown();
    ExitCode::SUCCESS
}
