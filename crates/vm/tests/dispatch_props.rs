//! Property tests for call dispatch under registry mutation: no call runs
//! code that is no longer installed.
//!
//! A guest thread sits in a tight loop printing the result of one call —
//! virtual in one test, static-direct in the other — so the call site
//! stays hot across thousands of dispatches (and, with the jit on, the
//! caller runs fused and the callee as a leaf). The host, standing in for
//! the update driver, interleaves random registry mutations at slice
//! boundaries (safe points): body swaps, invalidations, method strips and
//! restores, rollbacks from saved state, and code republishes. The
//! property: every value the guest prints is the value of a body that was
//! actually installed at the time, and after each semantic change the new
//! value shows up within the one in-flight call the thread may have been
//! carrying — a call that kept running replaced code would either freeze
//! the output on the old value or print garbage, and both fail.

use jvolve_classfile::{ClassName, MethodDef};
use jvolve_vm::{SliceOutcome, Vm, VmConfig};

/// SplitMix64, as in `gc_props.rs`: deterministic, seedable, no deps.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0xD1B5_4A32_D192_ED03))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The distinct return values the swappable body cycles through.
const VERSIONS: [i64; 4] = [100, 101, 102, 103];

/// Guest whose hot call site is a *virtual* dispatch (`o.v()`).
fn virtual_src(val: i64) -> String {
    format!(
        "class Obj {{ method v(): int {{ return {val}; }} }}
         class Main {{
           static method main(): void {{
             var o: Obj = new Obj();
             var i: int = 0;
             while (i < 1000000000) {{ Sys.printInt(o.v()); i = i + 1; }}
           }}
         }}"
    )
}

/// Guest whose hot call site is a *direct* (static) dispatch (`Util.f()`).
fn direct_src(val: i64) -> String {
    format!(
        "class Util {{ static method f(): int {{ return {val}; }} }}
         class Main {{
           static method main(): void {{
             var i: int = 0;
             while (i < 1000000000) {{ Sys.printInt(Util.f()); i = i + 1; }}
           }}
         }}"
    )
}

/// Compiles `src` and extracts the [`MethodDef`] for `class::method`.
fn def_of(src: &str, class: &str, method: &str) -> MethodDef {
    let files = jvolve_lang::compile(src).expect("variant source compiles");
    files
        .iter()
        .find(|f| f.name == ClassName::from(class))
        .expect("variant declares the class")
        .methods
        .iter()
        .find(|m| m.name == method)
        .expect("variant declares the method")
        .clone()
}

/// Runs slices until the guest has printed `settle` consecutive values
/// equal to `expected`. At most `max_stale` prints of `prev` are allowed
/// first (the call that was in flight when the mutation landed); anything
/// else — a value from neither body, or `prev` reappearing after
/// `expected` was seen — is a stale-dispatch bug and panics.
fn drain_until_settled(vm: &mut Vm, cursor: &mut usize, expected: i64, prev: i64) {
    const SETTLE: usize = 3;
    const MAX_STALE: usize = 2;
    const MAX_SLICES: usize = 400;

    let mut stale = 0usize;
    let mut run = 0usize;
    for _ in 0..MAX_SLICES {
        let report = vm.step_slice();
        if let SliceOutcome::Trapped(e) = &report.event {
            panic!("guest trapped under registry mutation: {e:?}");
        }
        assert!(
            !matches!(report.event, SliceOutcome::Finished | SliceOutcome::Idle),
            "guest loop ended early — raise the guest iteration bound"
        );
        let out = vm.output();
        while *cursor < out.len() {
            let val: i64 = out[*cursor].parse().expect("Sys.printInt output");
            *cursor += 1;
            if val == expected {
                run += 1;
                if run >= SETTLE {
                    // Consume everything already printed this slice: once
                    // the new value has appeared, the old one may not.
                    while *cursor < out.len() {
                        let rest: i64 = out[*cursor].parse().expect("Sys.printInt output");
                        *cursor += 1;
                        assert_eq!(rest, expected, "{rest} printed after {expected} had settled");
                    }
                    return;
                }
            } else {
                assert_eq!(run, 0, "value {val} printed after {expected} had settled");
                assert_eq!(val, prev, "value {val} matches no installed body (want {expected})");
                stale += 1;
                assert!(stale <= MAX_STALE, "{stale} stale prints of {prev}: old code still runs");
            }
        }
    }
    panic!("guest never settled on {expected} within {MAX_SLICES} slices (stale dispatch?)");
}

/// One randomized interleaving: boot the guest at `VERSIONS[0]`, then
/// alternate host-side registry mutations with guest slices, checking the
/// printed stream after every operation.
///
/// With `jit` set, every method is fused at its first compile — so every
/// mutation lands on a *fused* caller whose call site sits inside a
/// superinstruction, and re-resolution runs through recompiled fused
/// code.
fn run_interleaving(
    seed: u64,
    ops: usize,
    class: &str,
    method: &str,
    src: fn(i64) -> String,
    jit: bool,
) {
    let mut rng = Rng::new(seed);
    // Small quantum = many safe points per print burst.
    let mut vm = Vm::new(VmConfig {
        quantum: 500,
        enable_jit: jit,
        ..VmConfig::small()
    });
    vm.load_source(&src(VERSIONS[0])).expect("guest loads");
    let defs: Vec<MethodDef> =
        VERSIONS.iter().map(|&val| def_of(&src(val), class, method)).collect();
    let cid = vm.registry().class_id(&ClassName::from(class)).expect("class loaded");
    let mid = vm.registry().find_method(cid, method).expect("method loaded");

    vm.spawn("Main", "main").expect("guest spawns");
    let mut cursor = 0usize;
    let mut expected = VERSIONS[0];
    // (def, compiled, invalidations, value) captured before an install —
    // what the update controller's rollback ledger would hold.
    let mut saved: Option<(MethodDef, _, u32, i64)> = None;

    // Warm up: the call site is hot.
    drain_until_settled(&mut vm, &mut cursor, expected, expected);

    for _ in 0..ops {
        let prev = expected;
        match rng.below(6) {
            // Install a (possibly identical) version, as a body update does.
            0 | 1 => {
                let k = rng.below(VERSIONS.len());
                if rng.below(2) == 0 {
                    let info = vm.registry().method(mid);
                    saved = Some((
                        info.def.clone(),
                        info.compiled.clone(),
                        info.invalidations,
                        expected,
                    ));
                }
                vm.registry_mut()
                    .replace_method_body(cid, method, defs[k].clone())
                    .expect("method exists");
                expected = VERSIONS[k];
            }
            // Invalidate: recompile on next call, semantics unchanged.
            2 => vm.registry_mut().invalidate(mid),
            // Strip the class and restore it, as an aborted update does.
            3 => {
                let snap = vm.registry_mut().snapshot_class_methods(cid);
                vm.registry_mut().strip_methods(cid);
                vm.registry_mut().restore_class_methods(cid, snap);
            }
            // Roll back to a previously captured ledger entry.
            4 => {
                if let Some((def, compiled, invalidations, val)) = saved.take() {
                    vm.registry_mut().restore_method_state(mid, def, compiled, invalidations);
                    expected = val;
                }
            }
            // Republish the current code object (same code) — what an OSR
            // republish looks like to fused callers.
            _ => {
                if let Some(code) = vm.registry().method(mid).compiled.clone() {
                    vm.registry_mut().set_compiled(mid, code);
                }
            }
        }
        drain_until_settled(&mut vm, &mut cursor, expected, prev);
    }

    if jit {
        let stats = vm.stats();
        assert!(stats.jit_compiles > 0, "seed {seed}: the jit never engaged");
        assert!(stats.fused_steps > 0, "seed {seed}: no superinstruction ever retired");
    }
}

#[test]
fn virtual_calls_never_run_stale_code() {
    for seed in 0..6 {
        run_interleaving(seed, 40, "Obj", "v", virtual_src, false);
    }
}

#[test]
fn direct_calls_never_run_stale_code() {
    for seed in 100..106 {
        run_interleaving(seed, 40, "Util", "f", direct_src, false);
    }
}

#[test]
fn jit_promoted_virtual_calls_never_run_stale_code() {
    for seed in 200..206 {
        run_interleaving(seed, 40, "Obj", "v", virtual_src, true);
    }
}

#[test]
fn jit_promoted_direct_calls_never_run_stale_code() {
    for seed in 300..306 {
        run_interleaving(seed, 40, "Util", "f", direct_src, true);
    }
}
