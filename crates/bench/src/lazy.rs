//! Lazy-vs-eager migration measurement (the `gates` binary's `lazy` gate).
//!
//! The lazy mode's claim is twofold: the *commit pause* shrinks from
//! O(heap) — a full update-GC plus every object transformer — to O(roots),
//! a flip that evacuates the roots' referents (the rest of the update-GC
//! runs afterwards as a controller-stepped incremental copy), and once
//! the copy ends the read barrier's range test is false again, so the
//! *steady state* costs exactly what an eager commit would — on the same
//! heap words. This module measures both
//! halves of the claim on a §4.1-shaped population and a field-read spin
//! loop, running the [`UpdateController`] with a pump that times the
//! moment the mutator is released (its first `LazyMigrating` call) and
//! the copy steps between its calls.

use std::time::Instant;

use jvolve::{ApplyOptions, Update, UpdateController, UpdatePhase};
use jvolve_vm::{Value, Vm, VmConfig};

/// §4.1-shaped guest, old version: `Change`/`NoChange` with three int
/// and three reference fields, plus a driver that owns the population
/// and a dispatch-free field-read spin loop for steady-state timing.
pub const LAZY_V1: &str = "
class Change {
  field a: int; field b: int; field c: int;
  field x: Object; field y: Object; field z: Object;
  ctor(i: int) { this.a = i; this.b = 2 * i; this.c = 3 * i; }
}
class NoChange {
  field a: int; field b: int; field c: int;
  field x: Object; field y: Object; field z: Object;
  ctor(i: int) { this.a = i; this.b = 2 * i; this.c = 3 * i; }
}
class Driver {
  static field changes: Change[];
  static field others: NoChange[];
  static field sink: int;
  static method build(nc: int, nn: int): void {
    var cs: Change[] = new Change[nc];
    var os: NoChange[] = new NoChange[nn];
    var i: int = 0;
    while (i < nc) { cs[i] = new Change(i); i = i + 1; }
    i = 0;
    while (i < nn) { os[i] = new NoChange(i); i = i + 1; }
    Driver.changes = cs;
    Driver.others = os;
  }
  static method spin(iters: int): int {
    var s: int = 0;
    var i: int = 0;
    var n: int = Driver.changes.length;
    var o: Change = null;
    while (i < iters) {
      o = Driver.changes[i % n];
      s = s + o.a + o.b + o.c;
      i = i + 1;
    }
    Driver.sink = s;
    return s;
  }
}";

/// New version: `Change` gains an integer field, exactly the paper's
/// microbenchmark update. The default generated transformer copies the
/// existing fields and zeroes `w`.
pub const LAZY_V2: &str = "
class Change {
  field a: int; field b: int; field c: int; field w: int;
  field x: Object; field y: Object; field z: Object;
  ctor(i: int) { this.a = i; this.b = 2 * i; this.c = 3 * i; }
}
class NoChange {
  field a: int; field b: int; field c: int;
  field x: Object; field y: Object; field z: Object;
  ctor(i: int) { this.a = i; this.b = 2 * i; this.c = 3 * i; }
}
class Driver {
  static field changes: Change[];
  static field others: NoChange[];
  static field sink: int;
  static method build(nc: int, nn: int): void {
    var cs: Change[] = new Change[nc];
    var os: NoChange[] = new NoChange[nn];
    var i: int = 0;
    while (i < nc) { cs[i] = new Change(i); i = i + 1; }
    i = 0;
    while (i < nn) { os[i] = new NoChange(i); i = i + 1; }
    Driver.changes = cs;
    Driver.others = os;
  }
  static method spin(iters: int): int {
    var s: int = 0;
    var i: int = 0;
    var n: int = Driver.changes.length;
    var o: Change = null;
    while (i < iters) {
      o = Driver.changes[i % n];
      s = s + o.a + o.b + o.c;
      i = i + 1;
    }
    Driver.sink = s;
    return s;
  }
}";

/// One measured update at one configuration, in one mode.
#[derive(Debug, Clone, Copy)]
pub struct UpdateRun {
    /// Stop-the-world commit pause: for an eager update the whole apply;
    /// for a lazy one, everything up to the first copy step — the
    /// point at which the controller would hand slices back to the guest.
    pub pause_ns: u64,
    /// Lazy only: wall time from mutator release to `Committed` (the copy
    /// steps). Zero when eager.
    pub drain_ns: u64,
    /// Lazy only: the flip's portion of the pause
    /// (`UpdateStats::arm_time`) — the entire in-pause heap cost, which
    /// the O(roots) claim says is independent of heap size. Zero when
    /// eager.
    pub arm_ns: u64,
    /// Lazy only: the longest single controller step after the mutator
    /// is released — the longest the guest waits when the embedder runs
    /// its slices between steps. Zero when eager.
    pub max_step_ns: u64,
    /// Objects the transformers migrated (must equal the `Change` count).
    pub transformed: usize,
    /// Heap words in use right after the commit: the update-GC's copy,
    /// old copies included, in either mode.
    pub used_words: usize,
    /// Post-commit steady-state cost of one spin iteration (three field
    /// reads plus an array load), in nanoseconds.
    pub steady_ns_per_op: f64,
    /// The spin loop's checksum — identical across modes by construction,
    /// so callers can use it as a correctness oracle.
    pub spin_result: i64,
}

/// Runs one configuration end to end: build `objects` live objects (a
/// `fraction` of them `Change`), apply the v1→v2 update in the requested
/// mode, then time the steady-state spin loop.
/// `interpret` runs the generated transformer as a compiled method (the
/// paper-faithful path) where the default lowers it to a copy plan.
///
/// # Panics
///
/// Panics on fixture errors (the classes always compile and the update
/// always applies).
pub fn measure_update(
    objects: usize,
    fraction: f64,
    lazy: bool,
    interpret: bool,
    spin_iters: i64,
) -> UpdateRun {
    // Live data is ~9 words per object plus the two arrays; the update
    // additionally materializes an old copy and a new object per updated
    // object. Size generously, as the paper does.
    let semispace_words = (objects * 14 * 3).max(64 * 1024);
    let mut vm = Vm::new(VmConfig {
        semispace_words,
        lazy_migration: lazy,
        ..VmConfig::default()
    });

    let v1 = jvolve_lang::compile(LAZY_V1).expect("lazy v1 compiles");
    let v2 = jvolve_lang::compile(LAZY_V2).expect("lazy v2 compiles");
    vm.load_classes(&v1).expect("lazy classes load");

    let n_change = (objects as f64 * fraction).round() as usize;
    let n_other = objects - n_change;
    vm.call_static_sync(
        "Driver",
        "build",
        &[Value::Int(n_change as i64), Value::Int(n_other as i64)],
    )
    .expect("population builds");

    let update = Update::prepare(&v1, &v2, "v1_").expect("non-empty update");
    let opts = ApplyOptions { interpret_all_transformers: interpret, ..ApplyOptions::default() };
    let mut controller = UpdateController::new(&update, opts);

    // The pump's first `LazyMigrating` call is the moment a real
    // deployment resumes the guest, so everything before it is the pause
    // and everything after it is the drain. The pump does nothing else, so
    // the gap between two of its calls, and from its last call to the
    // commit, is one copy step.
    let t0 = Instant::now();
    let mut pause_ns = None;
    let mut last_ns = 0;
    let mut max_step_ns = 0;
    controller
        .run(&mut vm, |_, phase| {
            if phase == UpdatePhase::LazyMigrating {
                let now = t0.elapsed().as_nanos() as u64;
                if pause_ns.is_some() {
                    max_step_ns = max_step_ns.max(now - last_ns);
                }
                pause_ns.get_or_insert(now);
                last_ns = now;
            }
        })
        .unwrap_or_else(|e| panic!("the update must commit: {e}"));
    let total_ns = t0.elapsed().as_nanos() as u64;
    if pause_ns.is_some() {
        max_step_ns = max_step_ns.max(total_ns - last_ns);
    }
    let pause_ns = pause_ns.unwrap_or(total_ns);
    let arm_ns = controller.stats().arm_time.as_nanos() as u64;
    let transformed = controller.stats().objects_transformed;
    assert_eq!(transformed, n_change, "every Change instance migrates exactly once");
    let planned = if interpret { 0 } else { n_change };
    assert_eq!(controller.stats().objects_planned, planned, "copy plans applied as configured");
    let used_words = vm.heap().used_words();

    // Steady state: the epoch is over, so the spin loop must run on the
    // barrier-free fast path in both modes. (With no Change instances
    // there is nothing to spin over — `i % n` would divide by zero.)
    let (steady_ns_per_op, spin_result) = if n_change == 0 {
        (0.0, 0)
    } else {
        let t = Instant::now();
        let spin_result = match vm
            .call_static_sync("Driver", "spin", &[Value::Int(spin_iters)])
            .expect("spin runs")
        {
            Some(Value::Int(v)) => v,
            other => panic!("spin returned {other:?}"),
        };
        (t.elapsed().as_nanos() as f64 / spin_iters as f64, spin_result)
    };

    UpdateRun {
        pause_ns,
        drain_ns: total_ns - pause_ns,
        arm_ns,
        max_step_ns,
        transformed,
        used_words,
        steady_ns_per_op,
        spin_result,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eager_and_lazy_agree_on_the_work_and_the_answer() {
        let eager = measure_update(800, 0.5, false, false, 2_000);
        let lazy = measure_update(800, 0.5, true, false, 2_000);
        for interpreted in [
            measure_update(800, 0.5, false, true, 2_000),
            measure_update(800, 0.5, true, true, 2_000),
        ] {
            assert_eq!(interpreted.transformed, 400);
            assert_eq!(interpreted.spin_result, eager.spin_result);
        }
        assert_eq!(eager.transformed, 400);
        assert_eq!(lazy.transformed, 400);
        assert_eq!(eager.used_words, lazy.used_words, "the epoch ends on the eager heap");
        assert_eq!(eager.spin_result, lazy.spin_result);
        assert_eq!(eager.drain_ns, 0, "eager commits entirely inside the pause");
        assert!(lazy.drain_ns > 0, "lazy drains after the mutator is released");
        assert_eq!(eager.arm_ns, 0, "eager never flips for an epoch");
        assert!(lazy.arm_ns > 0, "the lazy flip was measured");
        assert!(lazy.arm_ns <= lazy.pause_ns, "the arm is part of the pause");
        assert_eq!(eager.max_step_ns, 0, "eager has no step after the pause");
        assert!(lazy.max_step_ns > 0 && lazy.max_step_ns <= lazy.drain_ns, "steps are the drain");
    }

    #[test]
    fn zero_fraction_still_commits_in_both_modes() {
        // The update always changes class Change, so it is non-empty even
        // when no instances exist.
        let eager = measure_update(300, 0.0, false, false, 1_000);
        let lazy = measure_update(300, 0.0, true, false, 1_000);
        assert_eq!(eager.transformed, 0);
        assert_eq!(lazy.transformed, 0);
        assert_eq!(eager.spin_result, lazy.spin_result);
    }
}
