//! Family (c): semantic mutation of *valid* prepared updates.
//!
//! Start from an update that `Update::prepare` produced — spec and
//! payload in perfect agreement — then desynchronize exactly one thing:
//! drop or retype a transformer, flip a `ClassChangeKind`, remove a class
//! from the payload, truncate the delta batch, dangle an indirect method.
//! Oracles:
//!
//! * every rejection is the *expected* typed [`UpdateError`] variant
//!   (never a panic, never a silent commit of a corrupted update);
//! * every abort leaves the VM bit-identical — both
//!   `Registry::version_fingerprint` and the heap fingerprint;
//! * a corrupted spec, payload or transformer source is rejected in
//!   `Pending`, before a single safe-point poll; only the unloadable
//!   transformer batch gets as far as the install step (and its rollback
//!   ledger), and no update ever compiles transformers inside the pause;
//! * benign mutants (no mutation, or an extra-but-resolvable indirect
//!   method) must commit with the expected guest-visible result, and the
//!   eager and lazy protocols must agree on it;
//! * a default transformer with an instruction spliced in is no longer a
//!   pure field copy: it must run interpreted (a copy plan would drop the
//!   spliced effect), the untouched default must be planned.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use jvolve::{ClassChangeKind, Update, UpdateError, UpdateStats};
use jvolve_classfile::{ClassFile, ClassName, MethodRef};
use jvolve_vm::{Value, Vm, VmConfig, VmError};

use crate::rng::Rng;
use crate::{
    apply_counted, make_transformers_unloadable, panic_message, Family, FuzzFailure, FuzzReport,
    BYSTANDER,
};

/// A guest program pair with a known post-update probe value.
struct Pair {
    v1: &'static str,
    v2: &'static str,
    /// `Main.probe()` before the update.
    probe_before: i64,
    /// `Main.probe()` after a clean update.
    probe_after: i64,
    /// Whether the diff contains a `ClassUpdate` (transformer mutations
    /// only make sense when a transformer is required).
    has_class_update: bool,
}

/// Pair A: a layout change (field added) — a class update with a required
/// object transformer. The default transformer copies `a` and zeroes `b`.
const PAIR_A: Pair = Pair {
    v1: "
class P {
  field a: int;
  ctor(x: int) { this.a = x; }
  method get(): int { return this.a; }
}
class Main {
  static field p: P;
  static method setup(): void { Main.p = new P(7); }
  static method probe(): int { return Main.p.get(); }
}",
    v2: "
class P {
  field a: int;
  field b: int;
  ctor(x: int) { this.a = x; this.b = 1; }
  method get(): int { return this.a + this.b; }
}
class Main {
  static field p: P;
  static method setup(): void { Main.p = new P(7); }
  static method probe(): int { return Main.p.get(); }
}",
    probe_before: 7,
    probe_after: 7, // live object keeps a=7, gains b=0
    has_class_update: true,
};

/// Pair B: class added, class deleted, method body changed — no class
/// update, so no transformer is required.
const PAIR_B: Pair = Pair {
    v1: "
class Old {
  static method f(): int { return 1; }
}
class Main {
  static field x: int;
  static method setup(): void { Main.x = Old.f(); }
  static method probe(): int { return Main.x + 100; }
}",
    v2: "
class Fresh {
  static method f(): int { return 2; }
}
class Main {
  static field x: int;
  static method setup(): void { Main.x = Fresh.f(); }
  static method probe(): int { return Main.x + 200; }
}",
    probe_before: 101,
    probe_after: 201, // x=1 survives; probe body swapped
    has_class_update: false,
};

fn compiled(pair: &Pair) -> &'static (Vec<ClassFile>, Vec<ClassFile>) {
    static CACHE: [OnceLock<(Vec<ClassFile>, Vec<ClassFile>)>; 2] =
        [OnceLock::new(), OnceLock::new()];
    let slot = if pair.has_class_update { &CACHE[0] } else { &CACHE[1] };
    slot.get_or_init(|| {
        (
            jvolve_lang::compile(pair.v1).expect("fixture v1 compiles"),
            jvolve_lang::compile(pair.v2).expect("fixture v2 compiles"),
        )
    })
}

fn boot(pair: &Pair, lazy: bool) -> (Vm, Update) {
    let (v1, v2) = compiled(pair);
    let mut vm =
        Vm::new(VmConfig { lazy_migration: lazy, ..VmConfig::small() });
    vm.load_classes(v1).expect("v1 loads");
    vm.load_source(BYSTANDER).expect("bystander loads");
    vm.call_static_sync("Main", "setup", &[]).expect("setup runs");
    let update = Update::prepare(v1, v2, "v1_").expect("update prepares");
    (vm, update)
}

fn probe(vm: &mut Vm) -> i64 {
    match vm.call_static_sync("Main", "probe", &[]) {
        Ok(Some(Value::Int(n))) => n,
        other => panic!("probe returned {other:?}"),
    }
}

/// What a mutation is expected to do to the update.
enum Expect {
    /// Commits; the probe reads `probe_after`.
    Commit,
    /// Commits through the interpreter; the probe reads `probe_after`
    /// plus this much.
    CommitSpliced(i64),
    BadSpec,
    Compile,
    BadTransformer,
    /// Fails loading the transformer batch, at the end of the install
    /// step: the one expectation that reaches a safe point first.
    InstallFailure,
}

/// Applies one mutation to `update`; returns the expectation and a label.
fn mutate(rng: &mut Rng, pair: &Pair, update: &mut Update) -> (Expect, &'static str) {
    // Transformer mutations need a required transformer; spec mutations
    // need a changed/added/deleted class to damage — both pairs have those.
    let menu: &[usize] = if pair.has_class_update {
        &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]
    } else {
        &[0, 1, 3, 4, 5, 6]
    };
    match rng.pick(menu) {
        // Benign: untouched update — or, on a coin drawn after the pick (so
        // every other mutation keeps its seed), the same update with a
        // transformer batch that collides with a loaded class. An update
        // with no class update loads no transformer class, so it commits.
        0 => {
            if rng.bool() {
                make_transformers_unloadable(update);
                let expect =
                    if pair.has_class_update { Expect::InstallFailure } else { Expect::Commit };
                (expect, "unloadable-transformer-batch")
            } else {
                (Expect::Commit, "none")
            }
        }
        // Benign: an extra indirect method that resolves in the old
        // version — a superset spec is safe and must still commit.
        1 => {
            let extra = MethodRef::new("Main", "setup");
            if !update.spec.indirect_methods.contains(&extra) {
                update.spec.indirect_methods.push(extra);
            }
            (Expect::Commit, "extra-resolvable-indirect")
        }
        // Flip the class-update kind: code compiled for the new layout
        // would run over untransformed objects. Must die in validation.
        2 => {
            let d = update
                .spec
                .changed
                .iter_mut()
                .find(|d| d.kind == ClassChangeKind::ClassUpdate)
                .expect("pair has a class update");
            d.kind = ClassChangeKind::MethodBodyOnly;
            (Expect::BadSpec, "flipped-kind")
        }
        // Desynchronize spec and payload: a changed class vanishes from
        // the new version.
        3 => {
            let name = update.spec.changed.first().expect("has deltas").name.clone();
            update.new_classes.remove(&name);
            (Expect::BadSpec, "payload-missing-class")
        }
        // Truncate the batch: drop a delta the payload diff requires.
        4 => {
            update.spec.changed.clear();
            (Expect::BadSpec, "truncated-deltas")
        }
        // Dangling indirect method.
        5 => {
            update.spec.indirect_methods.push(MethodRef::new("Ghost", "haunt"));
            (Expect::BadSpec, "dangling-indirect")
        }
        // Dangling added class.
        6 => {
            update.spec.added_classes.push(ClassName::from("Ghost"));
            (Expect::BadSpec, "dangling-added")
        }
        // Drop the required transformer.
        7 => {
            update.set_transformers_source("class JvolveTransformers { }");
            (Expect::Compile, "dropped-transformer")
        }
        // Splice an instruction into the generated default: `to.a = from.a`
        // becomes `to.a = from.a + k`.
        9 => {
            let k = 1 + rng.below(9) as i64;
            let default = update.transformers_source();
            let spliced = default.replace("to.a = from.a;", &format!("to.a = from.a + {k};"));
            assert_ne!(spliced, default, "pair A's default transformer copies `a`");
            update.set_transformers_source(spliced);
            (Expect::CommitSpliced(k), "spliced-transformer")
        }
        // Retype the required transformer: wrong `from` parameter type.
        _ => {
            update.set_transformers_source(
                "class JvolveTransformers {
                   static method jvolve_object_P(to: P, from: P): void { to.a = from.a; }
                 }",
            );
            (Expect::BadTransformer, "retyped-transformer")
        }
    }
}

/// Checks a committed update: the probe reads `want`, and the pair's one
/// live `P` was converted by a copy plan exactly when the transformer was
/// left a pure field copy.
fn check_commit(
    vm: &mut Vm,
    stats: &UpdateStats,
    expect: &Expect,
    pair: &Pair,
    fail: &impl Fn(String) -> FuzzFailure,
    label: &str,
) -> Result<(u64, String), FuzzFailure> {
    let (shift, planned) = match expect {
        Expect::CommitSpliced(k) => (*k, 0),
        _ => (0, usize::from(pair.has_class_update)),
    };
    let got = probe(vm);
    if got != pair.probe_after + shift {
        return Err(fail(format!(
            "{label}: committed probe {got}, expected {}",
            pair.probe_after + shift
        )));
    }
    if stats.objects_planned != planned {
        return Err(fail(format!(
            "{label}: {} objects planned, expected {planned}",
            stats.objects_planned
        )));
    }
    Ok((vm.heap_fingerprint(), vm.registry().version_fingerprint()))
}

pub(crate) fn run(seed: u64, iters: u64) -> Result<FuzzReport, FuzzFailure> {
    let mut report = FuzzReport::default();
    for iter in 0..iters {
        report.iters += 1;
        let mut rng = Rng::for_iter(seed, iter);
        let pair = if rng.bool() { &PAIR_A } else { &PAIR_B };
        let fail = |message: String| FuzzFailure { family: Family::Semantic, seed, iter, message };

        let (mut vm, mut update) = boot(pair, false);
        if probe(&mut vm) != pair.probe_before {
            return Err(fail("fixture probe drifted before the update".into()));
        }
        let reg_before = vm.registry().version_fingerprint();
        let heap_before = vm.heap_fingerprint();
        let (expect, label) = mutate(&mut rng, pair, &mut update);

        let outcome = catch_unwind(AssertUnwindSafe(|| apply_counted(&mut vm, &update)));
        let (outcome, counters) = match outcome {
            Err(payload) => {
                return Err(fail(format!("{label}: panicked: {}", panic_message(payload))));
            }
            Ok(o) => o,
        };

        match (&expect, outcome) {
            (Expect::Commit | Expect::CommitSpliced(_), Ok(stats)) => {
                let (heap_eager, reg_eager) =
                    check_commit(&mut vm, &stats, &expect, pair, &fail, label)?;
                // Differential: the same benign update must commit to the
                // same observable state under the lazy protocol.
                let (mut lazy_vm, mut lazy_update) = boot(pair, true);
                let mut lazy_rng = Rng::for_iter(seed, iter);
                let _ = lazy_rng.bool(); // keep pair pick in lockstep
                let _ = mutate(&mut lazy_rng, pair, &mut lazy_update);
                let lazy_stats = apply_counted(&mut lazy_vm, &lazy_update)
                    .0
                    .map_err(|e| fail(format!("{label}: lazy apply failed: {e}")))?;
                let (heap_lazy, reg_lazy) =
                    check_commit(&mut lazy_vm, &lazy_stats, &expect, pair, &fail, label)?;
                if heap_lazy != heap_eager || reg_lazy != reg_eager {
                    return Err(fail(format!("{label}: eager and lazy outcomes diverge")));
                }
                report.accept();
            }
            (Expect::Commit | Expect::CommitSpliced(_), Err(e)) => {
                return Err(fail(format!("{label}: benign update rejected: {e}")));
            }
            (_, Ok(_)) => {
                return Err(fail(format!("{label}: corrupted update was accepted")));
            }
            (_, Err(e)) => {
                let matches_expected = matches!(
                    (&expect, &e),
                    (Expect::BadSpec, UpdateError::BadSpec { .. })
                        | (Expect::Compile, UpdateError::Compile(_))
                        | (Expect::BadTransformer, UpdateError::BadTransformer { .. })
                        | (Expect::InstallFailure, UpdateError::Vm(VmError::LoadError { .. }))
                );
                if !matches_expected {
                    return Err(fail(format!("{label}: wrong error type: {e}")));
                }
                let installing = matches!(expect, Expect::InstallFailure);
                if (counters.polls > 0) != installing {
                    return Err(fail(format!(
                        "{label}: {} safe-point polls before the rejection",
                        counters.polls
                    )));
                }
                if vm.registry().version_fingerprint() != reg_before {
                    return Err(fail(format!("{label}: registry fingerprint diverged after abort")));
                }
                if vm.heap_fingerprint() != heap_before {
                    return Err(fail(format!("{label}: heap fingerprint diverged after abort")));
                }
                if probe(&mut vm) != pair.probe_before {
                    return Err(fail(format!("{label}: old version broken after abort")));
                }
                report.reject();
            }
        }
    }
    Ok(report)
}
