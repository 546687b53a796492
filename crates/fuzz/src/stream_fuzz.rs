//! Family (d): random release streams driven end-to-end.
//!
//! A generated guest program (`Data` with a random set of int fields, a
//! `Main` holder, and a probe that sums them) evolves through a random
//! stream of releases: fields are added and deleted, the probe multiplier
//! changes. A Rust-side mirror model predicts every probe value — live
//! objects keep the values they had, added fields appear as 0 (the
//! default transformer's contract), deleted fields vanish.
//!
//! Each release optionally injects a fault at a phase boundary before the
//! clean release is applied: spec/payload desynchronization or a broken
//! or retyped transformer (all rejected in `Pending`, before a single
//! safe-point poll), or a transformer batch that compiles but cannot be
//! loaded (rejected at the end of the install step, after renames, loads
//! and swaps, exercising the rollback ledger). After every fault the
//! registry and heap fingerprints must be bit-identical to the pre-update
//! snapshot, and no update may compile transformers inside the pause. Every clean release is
//! applied to an eager VM *and* a lazy VM; at stream end both must agree
//! on the probe value and the registry fingerprint.

use std::panic::{catch_unwind, AssertUnwindSafe};

use jvolve::{ClassChangeKind, Update, UpdateError};
use jvolve_classfile::{ClassFile, ClassName, MethodRef};
use jvolve_vm::{Value, Vm, VmConfig};

use crate::rng::Rng;
use crate::{
    apply_counted, make_transformers_unloadable, panic_message, Family, FuzzFailure, FuzzReport,
    BYSTANDER,
};

/// The mirror model: what the guest program looks like and what its live
/// `Data` object holds.
#[derive(Clone)]
struct Model {
    /// Field name → value held by the live object.
    fields: Vec<(String, i64)>,
    /// Probe multiplier (changes are method-body-only updates).
    mult: i64,
    /// Fresh-field counter, so added fields never collide with deleted ones.
    next_field: usize,
}

impl Model {
    fn new(rng: &mut Rng) -> Model {
        let n = rng.range(1, 4);
        Model {
            fields: (0..n).map(|i| (format!("f{i}"), rng.range(1, 100) as i64)).collect(),
            mult: 1,
            next_field: n,
        }
    }

    /// Expected `Main.probe()` for the live object.
    fn probe(&self) -> i64 {
        self.mult * self.fields.iter().map(|(_, v)| v).sum::<i64>()
    }

    /// MJ source for the current program shape. Constructor inits matter
    /// only for objects allocated *after* this release; the live object's
    /// values come from the model.
    fn source(&self) -> String {
        let decls: String =
            self.fields.iter().map(|(f, _)| format!("  field {f}: int;\n")).collect();
        let inits: String = self
            .fields
            .iter()
            .map(|(f, v)| format!(" this.{f} = {v};"))
            .collect();
        let sum = self
            .fields
            .iter()
            .map(|(f, _)| format!("Main.d.{f}"))
            .collect::<Vec<_>>()
            .join(" + ");
        format!(
            "class Data {{\n{decls}  ctor() {{{inits} }}\n}}\n\
             class Main {{\n\
             \x20 static field d: Data;\n\
             \x20 static method setup(): void {{ Main.d = new Data(); }}\n\
             \x20 static method probe(): int {{ return ({sum}) * {}; }}\n\
             }}",
            self.mult
        )
    }

    /// Evolves into the next release: 1–2 random shape changes.
    fn evolve(&self, rng: &mut Rng) -> Model {
        let mut next = self.clone();
        for _ in 0..rng.range(1, 3) {
            match rng.below(3) {
                // Add a field: the live object sees it as 0 (the default
                // transformer copies same-name fields only).
                0 => {
                    let name = format!("f{}", next.next_field);
                    next.next_field += 1;
                    next.fields.push((name, rng.range(1, 100) as i64));
                    let added = next.fields.last_mut().expect("just pushed");
                    added.1 = 0; // live-object value, not the ctor init
                }
                // Delete a field (keep at least one).
                1 if next.fields.len() > 1 => {
                    let at = rng.below(next.fields.len());
                    next.fields.remove(at);
                }
                // Change the probe multiplier (method-body-only).
                _ => next.mult = rng.range(2, 6) as i64,
            }
        }
        next
    }
}

fn probe(vm: &mut Vm) -> i64 {
    match vm.call_static_sync("Main", "probe", &[]) {
        Ok(Some(Value::Int(n))) => n,
        other => panic!("probe returned {other:?}"),
    }
}

/// A fault to inject before the clean release.
enum Fault {
    FlipKind,
    DropPayloadClass,
    DanglingIndirect,
    EmptyTransformers,
    GarbageTransformers,
    RetypedTransformer,
    UnloadableTransformers,
}

impl Fault {
    /// Corrupts `update`; returns which error variant must surface.
    fn inject(&self, update: &mut Update) -> &'static str {
        match self {
            Fault::FlipKind => {
                let d = update
                    .spec
                    .changed
                    .iter_mut()
                    .find(|d| d.kind == ClassChangeKind::ClassUpdate)
                    .expect("fault requires a class update");
                d.kind = ClassChangeKind::MethodBodyOnly;
                "BadSpec"
            }
            Fault::DropPayloadClass => {
                update.new_classes.remove(&ClassName::from("Data"));
                "BadSpec"
            }
            Fault::DanglingIndirect => {
                update.spec.indirect_methods.push(MethodRef::new("Phantom", "walk"));
                "BadSpec"
            }
            Fault::EmptyTransformers => {
                update.set_transformers_source("class JvolveTransformers { }");
                "Compile"
            }
            Fault::GarbageTransformers => {
                update.set_transformers_source("this is not a valid MJ program {{{");
                "Compile"
            }
            Fault::RetypedTransformer => {
                update.set_transformers_source(
                    "class JvolveTransformers {
                       static method jvolve_object_Data(to: Data, from: Data): void { }
                     }",
                );
                "BadTransformer"
            }
            Fault::UnloadableTransformers => {
                make_transformers_unloadable(update);
                "Vm"
            }
        }
    }
}

fn error_variant(e: &UpdateError) -> &'static str {
    match e {
        UpdateError::BadSpec { .. } => "BadSpec",
        UpdateError::Compile(_) => "Compile",
        UpdateError::BadTransformer { .. } => "BadTransformer",
        UpdateError::Timeout { .. } => "Timeout",
        UpdateError::StaleBase { .. } => "StaleBase",
        UpdateError::Vm(_) => "Vm",
        UpdateError::Empty => "Empty",
        UpdateError::Unsupported { .. } => "Unsupported",
    }
}

struct StreamVm {
    vm: Vm,
    classes: Vec<ClassFile>,
}

fn boot(lazy: bool, source: &str) -> StreamVm {
    let classes = jvolve_lang::compile(source).expect("generated source compiles");
    let mut vm =
        Vm::new(VmConfig { lazy_migration: lazy, ..VmConfig::small() });
    vm.load_classes(&classes).expect("release 0 loads");
    vm.load_source(BYSTANDER).expect("bystander loads");
    vm.call_static_sync("Main", "setup", &[]).expect("setup runs");
    StreamVm { vm, classes }
}

pub(crate) fn run(seed: u64, iters: u64) -> Result<FuzzReport, FuzzFailure> {
    let mut report = FuzzReport::default();
    for iter in 0..iters {
        report.iters += 1;
        let mut rng = Rng::for_iter(seed, iter);
        let fail = |message: String| FuzzFailure { family: Family::Stream, seed, iter, message };

        let mut model = Model::new(&mut rng);
        let mut eager = boot(false, &model.source());
        let mut lazy = boot(true, &model.source());
        if probe(&mut eager.vm) != model.probe() {
            return Err(fail("release 0: probe disagrees with the mirror model".into()));
        }

        let releases = rng.range(1, 4);
        for r in 0..releases {
            let next = model.evolve(&mut rng);
            let next_classes =
                jvolve_lang::compile(&next.source()).expect("generated source compiles");
            let prefix = format!("r{r}_");
            let prepare = |current: &[ClassFile]| Update::prepare(current, &next_classes, &prefix);

            // The only diff with no work at all would be an identical
            // model; evolve always changes something, but a deleted field
            // can cancel an added one — skip such no-op releases.
            let update = match prepare(&eager.classes) {
                Ok(u) => u,
                Err(UpdateError::Empty) => continue,
                Err(e) => return Err(fail(format!("release {r}: prepare failed: {e}"))),
            };

            // Optional fault first: corrupted copy, typed abort, rollback.
            let has_class_update =
                update.spec.changed.iter().any(|d| d.kind == ClassChangeKind::ClassUpdate);
            let menu: &[Option<Fault>] = if has_class_update {
                &[
                    None,
                    Some(Fault::UnloadableTransformers),
                    Some(Fault::FlipKind),
                    Some(Fault::DropPayloadClass),
                    Some(Fault::DanglingIndirect),
                    Some(Fault::EmptyTransformers),
                    Some(Fault::GarbageTransformers),
                    Some(Fault::RetypedTransformer),
                ]
            } else {
                // With no class update no transformer class loads, so an
                // unloadable one is no fault: its slot (kept, so the draws
                // of later releases stay put) corrupts nothing.
                &[
                    None,
                    None,
                    Some(Fault::DropPayloadClass),
                    Some(Fault::DanglingIndirect),
                    Some(Fault::GarbageTransformers),
                ]
            };
            let choice = rng.below(menu.len());
            if let Some(fault) = &menu[choice] {
                let mut corrupted = update.clone();
                let expected = fault.inject(&mut corrupted);
                let reg_before = eager.vm.registry().version_fingerprint();
                let heap_before = eager.vm.heap_fingerprint();
                let outcome =
                    catch_unwind(AssertUnwindSafe(|| apply_counted(&mut eager.vm, &corrupted)));
                match outcome {
                    Err(payload) => {
                        return Err(fail(format!(
                            "release {r}: fault panicked: {}",
                            panic_message(payload)
                        )));
                    }
                    Ok((Ok(_), _)) => {
                        return Err(fail(format!(
                            "release {r}: corrupted update ({expected}) was accepted"
                        )));
                    }
                    Ok((Err(e), counters)) => {
                        if error_variant(&e) != expected {
                            return Err(fail(format!(
                                "release {r}: expected {expected}, got {e}"
                            )));
                        }
                        // Only the unloadable batch gets past `Pending`.
                        if (counters.polls > 0) != (expected == "Vm") {
                            return Err(fail(format!(
                                "release {r}: {expected} rejected after {} safe-point polls",
                                counters.polls
                            )));
                        }
                        if eager.vm.registry().version_fingerprint() != reg_before {
                            return Err(fail(format!(
                                "release {r}: registry fingerprint diverged after abort"
                            )));
                        }
                        if eager.vm.heap_fingerprint() != heap_before {
                            return Err(fail(format!(
                                "release {r}: heap fingerprint diverged after abort"
                            )));
                        }
                        if probe(&mut eager.vm) != model.probe() {
                            return Err(fail(format!(
                                "release {r}: old version broken after abort"
                            )));
                        }
                    }
                }
            }

            // The clean release must commit on both protocols.
            apply_counted(&mut eager.vm, &update)
                .0
                .map_err(|e| fail(format!("release {r}: eager apply failed: {e}")))?;
            let lazy_update = prepare(&lazy.classes)
                .map_err(|e| fail(format!("release {r}: lazy prepare failed: {e}")))?;
            apply_counted(&mut lazy.vm, &lazy_update)
                .0
                .map_err(|e| fail(format!("release {r}: lazy apply failed: {e}")))?;
            eager.classes = next_classes.clone();
            lazy.classes = next_classes;
            model = next;

            let got = probe(&mut eager.vm);
            if got != model.probe() {
                return Err(fail(format!(
                    "release {r}: probe {got} disagrees with the mirror model {}",
                    model.probe()
                )));
            }
        }

        // Stream end: the two protocols must have converged.
        let (pe, pl) = (probe(&mut eager.vm), probe(&mut lazy.vm));
        if pe != pl {
            return Err(fail(format!("stream end: eager probe {pe} != lazy probe {pl}")));
        }
        if eager.vm.registry().version_fingerprint() != lazy.vm.registry().version_fingerprint() {
            return Err(fail("stream end: registry fingerprints diverge".into()));
        }
        if eager.vm.heap_fingerprint() != lazy.vm.heap_fingerprint() {
            return Err(fail("stream end: heap fingerprints diverge".into()));
        }
        report.accept();
    }
    Ok(report)
}
