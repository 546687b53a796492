//! Family (e): random program pairs through the update preparation tool.
//!
//! A generated guest program (`Data` with random int fields, a `Main`
//! holder whose probe sums them) evolves one release; the *pair* is fed
//! to `jvolve_upt::prepare_sources` with randomly chosen options — clean,
//! with a valid per-class override, with a blacklist, or hostile
//! (identical versions, garbage sources, overrides naming unknown
//! classes, syntactically broken or mis-typed overrides). Oracles:
//!
//! * the UPT never panics: every failure is a typed [`UptError`] of the
//!   *expected* variant for the injected hostility;
//! * everything the UPT accepts is genuinely applicable: the emitted
//!   update passes [`jvolve::validate_update`] and commits on lockstep
//!   eager and lazy VMs with the probe value the mirror model predicts
//!   and bit-identical registry and heap fingerprints.

use std::panic::{catch_unwind, AssertUnwindSafe};

use jvolve::{validate_update, ClassChangeKind};
use jvolve_classfile::MethodRef;
use jvolve_upt::{prepare_sources, PreparedRelease, UptError, UptOptions};
use jvolve_vm::{Value, Vm, VmConfig};

use crate::rng::Rng;
use crate::{apply_counted, panic_message, Family, FuzzFailure, FuzzReport};

/// Version prefix used by every generated release.
const PREFIX: &str = "u1_";

/// The mirror model: program shape plus the live `Data` object's values.
#[derive(Clone)]
struct Model {
    /// Field name → value held by the live object.
    fields: Vec<(String, i64)>,
    /// Probe multiplier (changes are method-body-only updates).
    mult: i64,
    /// Whether the unreferenced `Aux` class exists in this release.
    aux: bool,
    /// Fresh-field counter, so added fields never collide with deleted ones.
    next_field: usize,
}

/// What one evolution step did — decides which hostile options make sense.
#[derive(Clone, Copy)]
struct Evolution {
    /// `Data`'s field layout changed (a class update with a transformer).
    layout_changed: bool,
}

impl Model {
    fn new(rng: &mut Rng) -> Model {
        let n = rng.range(1, 4);
        Model {
            fields: (0..n).map(|i| (format!("f{i}"), rng.range(1, 100) as i64)).collect(),
            mult: 1,
            aux: false,
            next_field: n,
        }
    }

    /// Expected `Main.probe()` for the live object.
    fn probe(&self) -> i64 {
        self.mult * self.fields.iter().map(|(_, v)| v).sum::<i64>()
    }

    /// MJ source for the current program shape.
    fn source(&self) -> String {
        let decls: String =
            self.fields.iter().map(|(f, _)| format!("  field {f}: int;\n")).collect();
        let inits: String =
            self.fields.iter().map(|(f, v)| format!(" this.{f} = {v};")).collect();
        let sum = self
            .fields
            .iter()
            .map(|(f, _)| format!("Main.d.{f}"))
            .collect::<Vec<_>>()
            .join(" + ");
        let aux = if self.aux {
            "class Aux {\n  static method ping(): int { return 1; }\n}\n"
        } else {
            ""
        };
        format!(
            "class Data {{\n{decls}  ctor() {{{inits} }}\n}}\n{aux}\
             class Main {{\n\
             \x20 static field d: Data;\n\
             \x20 static method setup(): void {{ Main.d = new Data(); }}\n\
             \x20 static method probe(): int {{ return ({sum}) * {}; }}\n\
             }}",
            self.mult
        )
    }

    /// Evolves into the next release: 1–2 random shape changes.
    fn evolve(&self, rng: &mut Rng) -> (Model, Evolution) {
        let mut next = self.clone();
        let mut evo = Evolution { layout_changed: false };
        for _ in 0..rng.range(1, 3) {
            match rng.below(4) {
                // Add a field: the live object sees it as 0 (the default
                // transformer copies same-name fields only).
                0 => {
                    let name = format!("f{}", next.next_field);
                    next.next_field += 1;
                    next.fields.push((name, 0));
                    evo.layout_changed = true;
                }
                // Delete a field (keep at least one).
                1 if next.fields.len() > 1 => {
                    let at = rng.below(next.fields.len());
                    next.fields.remove(at);
                    evo.layout_changed = true;
                }
                // Add or delete the unreferenced Aux class.
                2 => next.aux = !next.aux,
                // Change the probe multiplier (method-body-only).
                _ => next.mult = rng.range(2, 6) as i64,
            }
        }
        (next, evo)
    }

    /// A hand-written — but behaviorally default — override for `Data`:
    /// copies every field both versions share, exactly what the generated
    /// default does, so the mirror model is unaffected.
    fn override_for(&self, next: &Model) -> String {
        let copies: String = next
            .fields
            .iter()
            .filter(|(f, _)| self.fields.iter().any(|(of, _)| of == f))
            .map(|(f, _)| format!(" to.{f} = from.{f};"))
            .collect();
        format!(
            "  static method jvolve_class_Data(): void {{ }}\n\
             \x20 static method jvolve_object_Data(to: Data, from: {PREFIX}Data): void {{{copies} }}\n"
        )
    }
}

fn probe(vm: &mut Vm) -> i64 {
    match vm.call_static_sync("Main", "probe", &[]) {
        Ok(Some(Value::Int(n))) => n,
        other => panic!("probe returned {other:?}"),
    }
}

fn boot(lazy: bool, source: &str) -> Vm {
    let classes = jvolve_lang::compile(source).expect("generated source compiles");
    let mut vm = Vm::new(VmConfig { lazy_migration: lazy, ..VmConfig::small() });
    vm.load_classes(&classes).expect("release 0 loads");
    vm.call_static_sync("Main", "setup", &[]).expect("setup runs");
    vm
}

/// One preparation scenario and the [`UptError`] variant it must produce
/// (`None` means the UPT must accept).
enum Scenario {
    Clean,
    ValidOverride,
    Blacklist,
    IdenticalPair,
    GarbageNew,
    GarbageOld,
    UnknownOverrideClass,
    BrokenOverride,
    RetypedOverride,
}

impl Scenario {
    fn label(&self) -> &'static str {
        match self {
            Scenario::Clean => "clean",
            Scenario::ValidOverride => "valid-override",
            Scenario::Blacklist => "blacklist",
            Scenario::IdenticalPair => "identical-pair",
            Scenario::GarbageNew => "garbage-new",
            Scenario::GarbageOld => "garbage-old",
            Scenario::UnknownOverrideClass => "unknown-override-class",
            Scenario::BrokenOverride => "broken-override",
            Scenario::RetypedOverride => "retyped-override",
        }
    }
}

fn error_variant(e: &UptError) -> &'static str {
    match e {
        UptError::Io { .. } => "Io",
        UptError::Compile { which, .. } => {
            if *which == "old" {
                "Compile(old)"
            } else {
                "Compile(new)"
            }
        }
        UptError::Prepare(_) => "Prepare",
        UptError::OverrideUnknownClass { .. } => "OverrideUnknownClass",
        UptError::BadTransformers { .. } => "BadTransformers",
        UptError::Bundle(_) => "Bundle",
    }
}

pub(crate) fn run(seed: u64, iters: u64) -> Result<FuzzReport, FuzzFailure> {
    let mut report = FuzzReport::default();
    for iter in 0..iters {
        report.iters += 1;
        let mut rng = Rng::for_iter(seed, iter);
        let fail = |message: String| FuzzFailure { family: Family::Upt, seed, iter, message };

        let model = Model::new(&mut rng);
        let old_src = model.source();
        // Evolution steps can cancel out (toggle Aux twice, add then
        // delete the same field); re-roll until the release is a real
        // change, so every scenario's expected outcome is well-defined.
        let (next, evo) = loop {
            let (next, evo) = model.evolve(&mut rng);
            if next.source() != old_src {
                break (next, evo);
            }
        };
        let new_src = next.source();

        // Hostile override mutations of `Data` only make sense when the
        // release actually class-updates it.
        let menu: &[Scenario] = if evo.layout_changed {
            &[
                Scenario::Clean,
                Scenario::Clean,
                Scenario::ValidOverride,
                Scenario::Blacklist,
                Scenario::IdenticalPair,
                Scenario::GarbageNew,
                Scenario::GarbageOld,
                Scenario::UnknownOverrideClass,
                Scenario::BrokenOverride,
                Scenario::RetypedOverride,
            ]
        } else {
            &[
                Scenario::Clean,
                Scenario::Clean,
                Scenario::Blacklist,
                Scenario::IdenticalPair,
                Scenario::GarbageNew,
                Scenario::GarbageOld,
                Scenario::UnknownOverrideClass,
            ]
        };
        let scenario = &menu[rng.below(menu.len())];
        let label = scenario.label();

        let mut opts = UptOptions::with_prefix(PREFIX);
        let (old_input, new_input): (&str, &str) = match scenario {
            Scenario::Clean => (&old_src, &new_src),
            Scenario::ValidOverride => {
                opts.overrides.insert("Data".to_string(), model.override_for(&next));
                (&old_src, &new_src)
            }
            Scenario::Blacklist => {
                // Resolvable, never on stack once setup has returned.
                opts.blacklist.push(MethodRef::new("Main", "setup"));
                (&old_src, &new_src)
            }
            Scenario::IdenticalPair => (&old_src, &old_src),
            Scenario::GarbageNew => (&old_src, "class Broken { this is not MJ }"),
            Scenario::GarbageOld => ("}{ not a program", &new_src),
            Scenario::UnknownOverrideClass => {
                opts.overrides.insert("Ghost".to_string(), "  // nothing\n".to_string());
                (&old_src, &new_src)
            }
            Scenario::BrokenOverride => {
                opts.overrides
                    .insert("Data".to_string(), "  static method jvolve_object_Data(".to_string());
                (&old_src, &new_src)
            }
            Scenario::RetypedOverride => {
                // Wrong `from` type: the signature check must reject it.
                opts.overrides.insert(
                    "Data".to_string(),
                    "  static method jvolve_class_Data(): void { }\n\
                     \x20 static method jvolve_object_Data(to: Data, from: Data): void { }\n"
                        .to_string(),
                );
                (&old_src, &new_src)
            }
        };

        let expected_error = match scenario {
            Scenario::Clean | Scenario::ValidOverride | Scenario::Blacklist => None,
            Scenario::IdenticalPair => Some("Prepare"),
            Scenario::GarbageNew => Some("Compile(new)"),
            Scenario::GarbageOld => Some("Compile(old)"),
            Scenario::UnknownOverrideClass => Some("OverrideUnknownClass"),
            Scenario::BrokenOverride | Scenario::RetypedOverride => Some("BadTransformers"),
        };

        let prepared: Result<Result<PreparedRelease, UptError>, _> =
            catch_unwind(AssertUnwindSafe(|| prepare_sources(old_input, new_input, &opts)));
        let prepared = match prepared {
            Err(payload) => {
                return Err(fail(format!("{label}: UPT panicked: {}", panic_message(payload))));
            }
            Ok(r) => r,
        };

        match (expected_error, prepared) {
            (Some(expected), Err(e)) => {
                if error_variant(&e) != expected {
                    return Err(fail(format!("{label}: expected {expected}, got {e}")));
                }
                report.reject();
            }
            (Some(expected), Ok(_)) => {
                return Err(fail(format!("{label}: hostile input accepted (expected {expected})")));
            }
            (None, Err(e)) => {
                return Err(fail(format!("{label}: clean pair rejected: {e}")));
            }
            (None, Ok(release)) => {
                // Sanity on the classification the UPT reports.
                if evo.layout_changed
                    && !release
                        .update
                        .spec
                        .changed
                        .iter()
                        .any(|d| d.kind == ClassChangeKind::ClassUpdate)
                {
                    return Err(fail(format!("{label}: layout change not classified as ClassUpdate")));
                }
                if matches!(scenario, Scenario::Blacklist) {
                    let rs = release.restricted();
                    if !rs.blacklisted.contains(&MethodRef::new("Main", "setup")) {
                        return Err(fail(format!("{label}: blacklist missing from restricted set")));
                    }
                }
                // Everything the UPT emits must be applicable as-is.
                if let Err(e) = validate_update(&release.update) {
                    return Err(fail(format!("{label}: emitted update fails validation: {e}")));
                }
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    let mut eager = boot(false, &old_src);
                    let mut lazy = boot(true, &old_src);
                    // The UPT ships the compiled transformers: neither VM
                    // may have to compile them.
                    for (mode, vm) in [("eager", &mut eager), ("lazy", &mut lazy)] {
                        let (result, counters) = apply_counted(vm, &release.update);
                        result.map_err(|e| format!("{mode} apply failed: {e}"))?;
                        if counters.transformer_compiles != 0 {
                            return Err(format!("{mode} apply compiled the UPT's transformers"));
                        }
                    }
                    let (pe, pl) = (probe(&mut eager), probe(&mut lazy));
                    if pe != next.probe() {
                        return Err(format!("probe {pe}, mirror model expected {}", next.probe()));
                    }
                    if pl != pe {
                        return Err(format!("eager probe {pe} != lazy probe {pl}"));
                    }
                    if eager.registry().version_fingerprint() != lazy.registry().version_fingerprint()
                    {
                        return Err("registry fingerprints diverge".to_string());
                    }
                    if eager.heap_fingerprint() != lazy.heap_fingerprint() {
                        return Err("heap fingerprints diverge".to_string());
                    }
                    Ok(())
                }));
                match outcome {
                    Err(payload) => {
                        return Err(fail(format!(
                            "{label}: apply panicked: {}",
                            panic_message(payload)
                        )));
                    }
                    Ok(Err(msg)) => return Err(fail(format!("{label}: {msg}"))),
                    Ok(Ok(())) => report.accept(),
                }
            }
        }
    }
    Ok(report)
}
