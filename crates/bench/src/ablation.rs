//! Ablations over the paper's design choices.
//!
//! * **Eager (GC-time) vs lazy (access-time) transformation** — the paper
//!   argues eager updating has *zero* steady-state overhead while
//!   JDrums/DVM-style indirection pays on every access (§5, ~10% for
//!   DVM). One lazy mechanism stands in for both lazy systems: a
//!   lazy-migration epoch copied to completion (the read barrier's range
//!   test is false again) and one held open (the controller is never
//!   stepped past the flip, so the copy never finishes and every load of a
//!   reference the copy has not rewritten pays the barrier forever). We
//!   time a CPU-bound field-access churn in all four configurations and
//!   report the memory each keeps: the heap in use, the from-space a
//!   held-open copy keeps reserved, and the old copies the update log
//!   keeps alive.
//! * **Return barriers / OSR on vs off** — the safe-point machinery of
//!   §3.2. Without OSR, updates restricted by category-2 methods on
//!   always-running stacks time out; without barriers, reaching a safe
//!   point under load takes longer.
//! * **Template JIT on vs off** — the stock-vs-DSU overhead story with
//!   real compiled code in the picture: fused superinstructions embed
//!   resolved offsets and call targets, so a dynamic update must
//!   invalidate them and their next call recompile them, and steady state
//!   afterwards must still match the warm-jit run.

use jvolve::{apply, ApplyOptions, StepProgress, UpdateController, UpdateError, UpdatePhase};
use jvolve_apps::harness::{app_vm_config, boot_with, prepare_next};
use jvolve_apps::webserver::{Webserver, PORT};
use jvolve_apps::workload::drive_http;
use jvolve_vm::VmConfig;

const PATHS: [&str; 3] = ["/index.html", "/about.html", "/data.json"];

/// Guest program for the CPU-bound indirection-overhead measurement: a
/// linked-list traversal that is nothing but field accesses and virtual
/// dispatch — the operations a held-open epoch's read barrier taxes.
pub const CHURN_V1: &str = "
class Node {
  field value: int;
  field next: Node;
  ctor(v: int, n: Node) { this.value = v; this.next = n; }
  method get(): int { return this.value; }
}
class Bench {
  static field head: Node;
  static method setup(n: int): void {
    var head: Node = null;
    var i: int = 0;
    while (i < n) { head = new Node(i, head); i = i + 1; }
    Bench.head = head;
  }
  static method churn(iters: int): int {
    var sum: int = 0;
    var i: int = 0;
    while (i < iters) {
      var cur: Node = Bench.head;
      while (cur != null) { sum = sum + cur.get(); cur = cur.next; }
      i = i + 1;
    }
    return sum;
  }
}
";

/// New version for the update variants: `Node` gains a field.
pub const CHURN_V2: &str = "
class Node {
  field value: int;
  field tag: int;
  field next: Node;
  ctor(v: int, n: Node) { this.value = v; this.next = n; this.tag = 0; }
  method get(): int { return this.value; }
}
class Bench {
  static field head: Node;
  static method setup(n: int): void {
    var head: Node = null;
    var i: int = 0;
    while (i < n) { head = new Node(i, head); i = i + 1; }
    Bench.head = head;
  }
  static method churn(iters: int): int {
    var sum: int = 0;
    var i: int = 0;
    while (i < iters) {
      var cur: Node = Bench.head;
      while (cur != null) { sum = sum + cur.get(); cur = cur.next; }
      i = i + 1;
    }
    return sum;
  }
}
";

/// Which steady-state configuration to time.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChurnMode {
    /// Plain VM, no update.
    Eager,
    /// After an eager (GC-based) update — no check ever runs.
    EagerUpdated,
    /// `lazy_migration` VM after a lazy update whose epoch the controller
    /// stepped to completion: the copy is done, the barrier never fires.
    LazyDrained,
    /// `lazy_migration` VM after a lazy update whose controller was never
    /// stepped past the flip: touched objects migrate through the read
    /// barrier, which every load of an unrewritten reference keeps paying
    /// — the JDrums/DVM indirection baseline (paper §5).
    LazyHeldOpen,
}

/// One timed churn run.
#[derive(Clone, Copy, Debug)]
pub struct ChurnRun {
    /// Wall-clock time of the timed traversal.
    pub wall: std::time::Duration,
    /// The guest's checksum — identical across modes, the correctness
    /// anchor.
    pub checksum: i64,
    /// `Heap::used_words` after the timed run.
    pub used_words: usize,
    /// From-space words an unfinished copy keeps reserved
    /// (`Heap::from_space_words`; zero once a copy is done).
    pub from_words: usize,
    /// Old-copy words the update log keeps alive (`Vm::update_log_words`).
    pub log_words: usize,
}

/// The CPU-bound churn under `mode`, with the template JIT on or off (the
/// jit ablation axis: same churn, same checksum, with fused code either
/// carrying the hot loops or unfused code doing so).
pub fn churn_wall_time_with_jit(mode: ChurnMode, nodes: i64, iters: i64, jit: bool) -> ChurnRun {
    use jvolve_vm::Value;
    let mut vm = jvolve_vm::Vm::new(VmConfig {
        lazy_migration: matches!(mode, ChurnMode::LazyDrained | ChurnMode::LazyHeldOpen),
        semispace_words: 512 * 1024,
        enable_jit: jit,
        ..VmConfig::default()
    });
    let old = jvolve_lang::compile(CHURN_V1).expect("churn v1 compiles");
    vm.load_classes(&old).expect("churn loads");
    vm.call_static_sync("Bench", "setup", &[Value::Int(nodes)]).expect("setup runs");

    if mode != ChurnMode::Eager {
        let new = jvolve_lang::compile(CHURN_V2).expect("churn v2 compiles");
        let update = jvolve::Update::prepare(&old, &new, "v1_").expect("non-empty churn update");
        if mode == ChurnMode::LazyHeldOpen {
            // Arm the epoch, then abandon the controller on purpose: the
            // JDrums/DVM baseline, which `run` would drain, so keep this loop.
            let mut controller = UpdateController::new(&update, ApplyOptions::default());
            loop {
                match controller.step(&mut vm) {
                    StepProgress::Pending(UpdatePhase::LazyMigrating) => break,
                    StepProgress::Pending(_) => {}
                    other => {
                        panic!("churn update ended unarmed: {other:?} {:?}", controller.error())
                    }
                }
            }
        } else {
            apply(&mut vm, &update, &ApplyOptions::default()).expect("churn update");
        }
    }

    // Warm up (compiles every body), then measure.
    vm.call_static_sync("Bench", "churn", &[Value::Int(iters / 4)]).expect("warmup");
    let start = std::time::Instant::now();
    let sum = vm
        .call_static_sync("Bench", "churn", &[Value::Int(iters)])
        .expect("churn runs")
        .expect("churn returns");
    let wall = start.elapsed();
    if mode == ChurnMode::LazyHeldOpen {
        assert!(vm.lazy_epoch_active(), "the held-open epoch must still be open");
    }
    ChurnRun {
        wall,
        checksum: sum.as_int(),
        used_words: vm.heap().used_words(),
        from_words: vm.heap().from_space_words(),
        log_words: vm.update_log_words(),
    }
}

/// Outcome of the safe-point machinery ablation.
#[derive(Debug, Clone)]
pub struct SafepointAblation {
    /// Slices to reach a safe point with barriers + OSR (the paper's
    /// configuration).
    pub with_machinery: Option<u64>,
    /// Slices with return barriers disabled (plain polling).
    pub without_barriers: Option<u64>,
    /// Whether the update still applied with OSR disabled (category-2
    /// frames then block like changed methods).
    pub without_osr_applied: bool,
}

/// Measures how the §3.2 machinery affects reaching a safe point for the
/// webserver 5.1.6 → 5.1.7 update while a long-running method holds
/// category-2 state on stack.
pub fn safepoint_ablation() -> SafepointAblation {
    let attempt = |barriers: bool, osr: bool| -> Result<u64, UpdateError> {
        let mut vm = boot_with(&Webserver, 6, app_vm_config());
        drive_http(&mut vm, PORT, &PATHS, 4, 1_500);
        let update = prepare_next(&Webserver, 6);
        let opts = ApplyOptions {
            timeout_slices: 3_000,
            use_return_barriers: barriers,
            use_osr: osr,
            ..ApplyOptions::default()
        };
        apply(&mut vm, &update, &opts).map(|s| s.slices_waited)
    };

    SafepointAblation {
        with_machinery: attempt(true, true).ok(),
        without_barriers: attempt(false, true).ok(),
        without_osr_applied: attempt(true, false).is_ok(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_modes_agree_and_the_held_open_epoch_keeps_its_stale_copies() {
        let run = |mode| churn_wall_time_with_jit(mode, 50, 8, true);
        let eager = run(ChurnMode::Eager);
        for mode in [ChurnMode::EagerUpdated, ChurnMode::LazyDrained] {
            let other = run(mode);
            assert_eq!(other.checksum, eager.checksum, "{mode:?}");
            assert_eq!((other.from_words, other.log_words), (0, 0), "{mode:?}: {other:?}");
        }
        // The held-open copy keeps the whole v1 heap reserved in
        // from-space, the stale originals of the nodes it migrated
        // included; the plan logged nothing.
        let held = run(ChurnMode::LazyHeldOpen);
        assert_eq!(held.checksum, eager.checksum);
        assert!(held.from_words >= eager.used_words, "{held:?} vs {eager:?}");
        assert_eq!(held.log_words, 0, "{held:?}");
    }

    #[test]
    fn safepoint_machinery_reaches_safe_point() {
        let ablation = safepoint_ablation();
        assert!(
            ablation.with_machinery.is_some(),
            "5.1.7 update must apply with the full machinery: {ablation:?}"
        );
        // 5.1.7 is a FileStore class update; `main` holds it on stack
        // forever, so without OSR the update cannot apply.
        assert!(!ablation.without_osr_applied, "{ablation:?}");
    }
}
