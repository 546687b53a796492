//! `upt_run` — the Update Preparation Tool CLI (paper §3.1 / Figure 1).
//!
//! ```text
//! upt_run --old <old.mj> --new <new.mj> [--prefix vN_]
//!         [--override Class=methods.mj]... [--emit bundle_dir/]
//!         [--spec out.json] [--transformers out.mj]
//! ```
//!
//! Diffs the two program versions through the controller's own
//! classifier, prints the per-release summary row, the per-class change
//! classification, the indirect-method closure, and the restricted-set
//! size, and optionally writes:
//!
//! * `--spec` — the update specification as JSON;
//! * `--transformers` — the merged `JvolveTransformers` MJ source
//!   (generated defaults with `--override` substitutions applied);
//! * `--emit` — a complete on-disk update bundle (spec + transformers +
//!   encoded class payloads) that `jvolve_run --update-bundle` and
//!   `fleet_run --update-bundle` apply directly.
//!
//! `--override Class=file.mj` replaces the generated transformer pair for
//! exactly that class with the file's contents (a class-body-level
//! `jvolve_class_X`/`jvolve_object_X` method pair); it may repeat for
//! different classes. The merged source is compiled and shape-checked
//! before anything is written, so a broken override fails here, not
//! mid-update.
//!
//! Unknown flags, missing or malformed values, duplicate flags (including
//! a repeated `--override` class), and a malformed `Class=file` form are
//! rejected with the usage message and exit code 2. Semantic failures
//! (unreadable files, compile errors, an override naming a class without
//! a class update, identical versions) exit 1.

use std::path::Path;
use std::process::ExitCode;

use jvolve_upt::{emit_bundle, prepare_files, UptOptions};

const USAGE: &str = "usage: upt_run --old <old.mj> --new <new.mj> [--prefix vN_] \
     [--override Class=methods.mj]... [--emit bundle_dir/] \
     [--spec out.json] [--transformers out.mj]";

/// Parsed command line. Every flag is strict: unknown names, missing or
/// malformed values, duplicates, and malformed overrides are parse errors.
struct Cli {
    old: String,
    new: String,
    prefix: String,
    /// `(class, file)` pairs, in order, classes deduplicated.
    overrides: Vec<(String, String)>,
    emit: Option<String>,
    spec: Option<String>,
    transformers: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut values: [(&str, Option<String>); 6] = [
        ("--old", None),
        ("--new", None),
        ("--prefix", None),
        ("--emit", None),
        ("--spec", None),
        ("--transformers", None),
    ];
    let mut overrides: Vec<(String, String)> = Vec::new();

    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        match arg {
            "--override" => {
                let v = args.get(i + 1).ok_or_else(|| format!("{arg} needs a value"))?;
                if v.starts_with("--") {
                    return Err(format!("{arg} needs a value, got flag {v}"));
                }
                let (class, file) = v
                    .split_once('=')
                    .ok_or_else(|| format!("--override needs Class=file.mj, got {v}"))?;
                if class.is_empty() || file.is_empty() {
                    return Err(format!("--override needs Class=file.mj, got {v}"));
                }
                if overrides.iter().any(|(c, _)| c == class) {
                    return Err(format!("duplicate --override for class {class}"));
                }
                overrides.push((class.to_string(), file.to_string()));
                i += 2;
            }
            _ if arg.starts_with("--") => {
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
        values.iter_mut().find(|(n, _)| *n == name).and_then(|(_, slot)| slot.take())
    };
    Ok(Cli {
        old: take("--old").ok_or("--old is required")?,
        new: take("--new").ok_or("--new is required")?,
        prefix: take("--prefix").unwrap_or_else(|| "v1_".to_string()),
        overrides,
        emit: take("--emit"),
        spec: take("--spec"),
        transformers: take("--transformers"),
    })
}

fn run(cli: &Cli) -> Result<(), String> {
    let mut opts = UptOptions::with_prefix(cli.prefix.clone());
    for (class, file) in &cli.overrides {
        let source = std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read override {file}: {e}"))?;
        opts.overrides.insert(class.clone(), source);
    }

    let release = prepare_files(Path::new(&cli.old), Path::new(&cli.new), &opts)
        .map_err(|e| e.to_string())?;

    let summary = release.summary();
    println!("{}", jvolve::ReleaseSummary::table_header());
    println!("{summary}");
    print!("{}", release.classification());
    if !release.overridden.is_empty() {
        let names: Vec<&str> = release.overridden.iter().map(|c| c.as_str()).collect();
        println!("transformer overrides applied: {}", names.join(", "));
    }

    if let Some(path) = &cli.spec {
        std::fs::write(path, release.update.spec.to_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote spec to {path}");
    }
    if let Some(path) = &cli.transformers {
        std::fs::write(path, release.update.transformers_source())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote transformers to {path}");
    }
    if let Some(dir) = &cli.emit {
        emit_bundle(Path::new(dir), &release).map_err(|e| e.to_string())?;
        println!("wrote bundle to {dir}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("upt_run: {e}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&cli) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("upt_run: {e}");
            ExitCode::FAILURE
        }
    }
}
