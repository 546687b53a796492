//! `jvolve_run` — run an MJ program on the VM, optionally applying a
//! dynamic update while it runs (the paper's Figure 1 workflow as one
//! command).
//!
//! ```text
//! jvolve_run <v1.mj> --main Class.method [--slices N]
//!            [--no-jit]
//!            [--update <v2.mj> --after N [--prefix vN_] [--transformers t.mj]
//!             [--lazy] [--lazy-batch N] [--trace results/update_trace.json]]
//! ```
//!
//! With `--lazy` the update commits in lazy-migration mode
//! (`VmConfig::lazy_migration`): the pause is O(roots) — the semispaces
//! flip and the roots' referents are evacuated — and the rest of the
//! update-GC runs as an incremental copy, controller steps and the read
//! barrier evacuating and transforming objects, interleaved with the
//! running program. `--lazy-batch` scales the per-step budgets. Either
//! way the last line reports the objects transformed and the words the
//! update's collection copied.
//!
//! When an update is applied, the controller's structured event stream
//! (phase transitions, safe-point polls, install counts, GC outcome) is
//! written as JSON to `--trace` (default `results/update_trace.json`).
//!
//! `--no-jit` disables the template JIT (`VmConfig::enable_jit`): code
//! then runs unfused.
//!
//! Unknown flags, missing flag values, malformed numbers, duplicate
//! flags, and conflicting combinations (`--lazy` without `--update`) are
//! all rejected with the usage message and exit code 2.

use std::process::ExitCode;

use jvolve::{
    ApplyOptions, JsonTraceSink, StepProgress, Update, UpdateController, UpdateError, UpdatePhase,
};
use jvolve_vm::{Vm, VmConfig};

const USAGE: &str = "usage: jvolve_run <v1.mj> --main Class.method [--slices N] \
     [--no-jit] \
     [(--update <v2.mj> [--prefix vN_] [--transformers t.mj] | --update-bundle dir/) \
      --after N [--lazy] [--lazy-batch N] [--trace out.json]]";

/// Parsed command line. Every flag is strict: unknown names, missing or
/// malformed values, duplicates, and conflicts are parse errors.
struct Cli {
    program: String,
    main_spec: String,
    slices: usize,
    after: usize,
    prefix: String,
    jit: bool,
    lazy: bool,
    lazy_batch: Option<usize>,
    update: Option<String>,
    update_bundle: Option<String>,
    transformers: Option<String>,
    trace: String,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut program: Option<String> = None;
    let mut values: [(&str, Option<String>); 9] = [
        ("--main", None),
        ("--slices", None),
        ("--after", None),
        ("--prefix", None),
        ("--lazy-batch", None),
        ("--update", None),
        ("--update-bundle", None),
        ("--transformers", None),
        ("--trace", None),
    ];
    let mut jit = true;
    let mut lazy = false;

    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        match arg {
            "--no-jit" => {
                if !jit {
                    return Err("duplicate flag --no-jit".into());
                }
                jit = false;
                i += 1;
            }
            "--lazy" => {
                if lazy {
                    return Err("duplicate flag --lazy".into());
                }
                lazy = true;
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
            _ => {
                if program.is_some() {
                    return Err(format!("unexpected extra argument {arg}"));
                }
                program = Some(arg.to_string());
                i += 1;
            }
        }
    }
    let mut take = |name: &str| {
        values.iter_mut().find(|(n, _)| *n == name).expect("known flag").1.take()
    };
    let program = program.ok_or_else(|| "no program file given".to_string())?;
    let main_spec = take("--main");
    let slices = take("--slices");
    let after = take("--after");
    let prefix = take("--prefix");
    let lazy_batch = take("--lazy-batch");
    let update = take("--update");
    let update_bundle = take("--update-bundle");
    let transformers = take("--transformers");
    let trace = take("--trace");

    if update.is_some() && update_bundle.is_some() {
        return Err("--update-bundle conflicts with --update".into());
    }
    if update_bundle.is_some() {
        // A bundle carries its own prefix and transformers.
        for (flag, set) in
            [("--prefix", prefix.is_some()), ("--transformers", transformers.is_some())]
        {
            if set {
                return Err(format!("{flag} conflicts with --update-bundle"));
            }
        }
    }
    if update.is_none() && update_bundle.is_none() {
        for (flag, set) in [
            ("--after", after.is_some()),
            ("--prefix", prefix.is_some()),
            ("--transformers", transformers.is_some()),
            ("--trace", trace.is_some()),
            ("--lazy", lazy),
        ] {
            if set {
                return Err(format!("{flag} requires --update"));
            }
        }
    }
    if lazy_batch.is_some() && !lazy {
        return Err("--lazy-batch requires --lazy".into());
    }
    Ok(Cli {
        program,
        main_spec: main_spec.unwrap_or_else(|| "Main.main".to_string()),
        slices: parse_num("--slices", slices)?.unwrap_or(100_000),
        after: parse_num("--after", after)?.unwrap_or(0),
        prefix: prefix.unwrap_or_else(|| "v1_".to_string()),
        jit,
        lazy,
        lazy_batch: parse_num("--lazy-batch", lazy_batch)?.map(|n| n.max(1)),
        update,
        update_bundle,
        transformers,
        trace: trace.unwrap_or_else(|| "results/update_trace.json".to_string()),
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
            eprintln!("jvolve_run: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (main_class, main_method) =
        cli.main_spec.split_once('.').unwrap_or((cli.main_spec.as_str(), "main"));

    let v1 = match std::fs::read_to_string(&cli.program)
        .map_err(|e| e.to_string())
        .and_then(|s| jvolve_lang::compile(&s).map_err(|e| e.to_string()))
    {
        Ok(c) => c,
        Err(e) => {
            eprintln!("jvolve_run: {}: {e}", cli.program);
            return ExitCode::FAILURE;
        }
    };

    let mut vm = Vm::new(VmConfig {
        echo_output: true,
        enable_jit: cli.jit,
        lazy_migration: cli.lazy,
        ..VmConfig::default()
    });
    if let Err(e) = vm.load_classes(&v1) {
        eprintln!("jvolve_run: load failed: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = vm.spawn(main_class, main_method) {
        eprintln!("jvolve_run: {e}");
        return ExitCode::FAILURE;
    }

    let update = match (&cli.update, &cli.update_bundle) {
        // A UPT-emitted bundle: spec + transformers + payloads, verified
        // and cross-checked against a fresh diff on load.
        (None, Some(dir)) => match jvolve::bundle::load(std::path::Path::new(dir)) {
            Ok(update) => Some(update),
            Err(e) => {
                eprintln!("jvolve_run: {dir}: {e}");
                return ExitCode::FAILURE;
            }
        },
        (None, None) => None,
        (Some(path), _) => {
            let v2 = match std::fs::read_to_string(path)
                .map_err(|e| e.to_string())
                .and_then(|s| jvolve_lang::compile(&s).map_err(|e| e.to_string()))
            {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("jvolve_run: {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let mut update = match Update::prepare(&v1, &v2, &cli.prefix) {
                Ok(u) => u,
                Err(e) => {
                    eprintln!("jvolve_run: prepare failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Some(tpath) = &cli.transformers {
                match std::fs::read_to_string(tpath) {
                    Ok(src) => update.set_transformers_source(src),
                    Err(e) => {
                        eprintln!("jvolve_run: {tpath}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            Some(update)
        }
    };

    vm.run_slices(cli.after.max(1));
    if let Some(update) = update {
        eprintln!("jvolve_run: applying update after {} slices ...", cli.after);
        let mut trace = JsonTraceSink::new();
        // `--lazy-batch N` scales both per-step budgets from their
        // defaults: N duplicated objects per copy step and proportionally
        // many budget units of scan work (the default ratio is 128
        // objects : 4096 units; a reference array's elements are a unit
        // each).
        let opts = match cli.lazy_batch {
            Some(n) => ApplyOptions {
                lazy_scavenge_batch: n,
                lazy_step_cells: n.saturating_mul(32),
                ..ApplyOptions::default()
            },
            None => ApplyOptions::default(),
        };
        let mut controller = UpdateController::new(&update, opts);
        controller.attach_sink(&mut trace);
        // Like `run_to_completion`, but interleaves guest slices with the
        // copy steps while a lazy epoch copies — the mode's whole point.
        let result = loop {
            match controller.step(&mut vm) {
                StepProgress::Pending(UpdatePhase::LazyMigrating) => {
                    vm.run_slices(1);
                }
                StepProgress::Pending(_) => {}
                StepProgress::Committed => break Ok(controller.stats().clone()),
                StepProgress::Aborted => {
                    break Err(controller.error().cloned().unwrap_or_else(|| {
                        UpdateError::Compile("aborted without error".into())
                    }))
                }
            }
        };
        if let Some(dir) = std::path::Path::new(&cli.trace).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match trace.write(&cli.trace) {
            Ok(()) => eprintln!("jvolve_run: phase-event trace written to {}", cli.trace),
            Err(e) => eprintln!("jvolve_run: could not write {}: {e}", cli.trace),
        }
        match result {
            Ok(stats) => eprintln!(
                "jvolve_run: updated ({} objects transformed, {} of them by copy plan, \
                 {} words copied, {} of them unscanned, pause {:?})",
                stats.objects_transformed,
                stats.objects_planned,
                stats.gc_copied_words,
                stats.gc_unscanned_words,
                stats.total_time
            ),
            Err(e) => {
                eprintln!("jvolve_run: update failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    vm.run_to_completion(cli.slices);
    ExitCode::SUCCESS
}
