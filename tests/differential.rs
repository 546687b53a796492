//! Differential testing.
//!
//! * The optimizing tier (inlining) must compute exactly what the
//!   baseline tier computes, on randomly generated guest programs.
//! * An update is deterministic: two VMs booted alike and given the same
//!   update agree address for address — same cells at the same heap
//!   addresses, registry fingerprint, transformer execution order
//!   (= update-log order; allocation order while nothing has been
//!   collected), event stream, and `UpdateStats` (minus wall-clock
//!   fields).
//! * The template-JIT tier (superinstruction fusion) must be
//!   observationally invisible: jit-on and jit-off runs agree on every
//!   non-profiling observable — including step and slice counts, since
//!   fused ops retire exactly the base instruction count — across
//!   applied, rolled-back, and lazily-committed updates.

mod testkit;

use std::fmt::Write as _;

use testkit::Rng;

use jvolve_repro::dsu::{ApplyOptions, MemorySink, Update, UpdateController, UpdateEvent};
use jvolve_repro::vm::{ClassId, GcRef, MethodId, Value, Vm, VmConfig};

/// A tiny expression language over two variables and helper calls,
/// rendered to MJ. Helpers are small enough to be inlined, so evaluating
/// the same program with and without the optimizing tier exercises the
/// inliner end-to-end.
#[derive(Debug, Clone)]
enum Expr {
    A,
    B,
    Lit(i8),
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    /// `h1(x, y) = x * 2 - y`
    H1(Box<Expr>, Box<Expr>),
    /// `h2(x) = h1(x, 3) + 1` (nested inlining)
    H2(Box<Expr>),
    /// `abs(x)` with a branch (inlined control flow)
    Abs(Box<Expr>),
}

impl Expr {
    fn render(&self) -> String {
        match self {
            Expr::A => "a".into(),
            Expr::B => "b".into(),
            Expr::Lit(v) => format!("({v})"),
            Expr::Add(x, y) => format!("({} + {})", x.render(), y.render()),
            Expr::Sub(x, y) => format!("({} - {})", x.render(), y.render()),
            Expr::Mul(x, y) => format!("({} * {})", x.render(), y.render()),
            Expr::H1(x, y) => format!("T.h1({}, {})", x.render(), y.render()),
            Expr::H2(x) => format!("T.h2({})", x.render()),
            Expr::Abs(x) => format!("T.abs({})", x.render()),
        }
    }

    fn eval(&self, a: i64, b: i64) -> i64 {
        match self {
            Expr::A => a,
            Expr::B => b,
            Expr::Lit(v) => i64::from(*v),
            Expr::Add(x, y) => x.eval(a, b).wrapping_add(y.eval(a, b)),
            Expr::Sub(x, y) => x.eval(a, b).wrapping_sub(y.eval(a, b)),
            Expr::Mul(x, y) => x.eval(a, b).wrapping_mul(y.eval(a, b)),
            Expr::H1(x, y) => x.eval(a, b).wrapping_mul(2).wrapping_sub(y.eval(a, b)),
            Expr::H2(x) => Expr::H1(x.clone(), Box::new(Expr::Lit(3))).eval(a, b).wrapping_add(1),
            Expr::Abs(x) => x.eval(a, b).wrapping_abs(),
        }
    }
}

/// Random expression with a bounded depth; leaves get likelier as the
/// budget shrinks, matching the old recursive-strategy shape.
fn expr(rng: &mut Rng, depth: usize) -> Expr {
    if depth == 0 || rng.below(4) == 0 {
        return match rng.below(3) {
            0 => Expr::A,
            1 => Expr::B,
            _ => Expr::Lit(rng.i8()),
        };
    }
    let d = depth - 1;
    match rng.below(6) {
        0 => Expr::Add(Box::new(expr(rng, d)), Box::new(expr(rng, d))),
        1 => Expr::Sub(Box::new(expr(rng, d)), Box::new(expr(rng, d))),
        2 => Expr::Mul(Box::new(expr(rng, d)), Box::new(expr(rng, d))),
        3 => Expr::H1(Box::new(expr(rng, d)), Box::new(expr(rng, d))),
        4 => Expr::H2(Box::new(expr(rng, d))),
        _ => Expr::Abs(Box::new(expr(rng, d))),
    }
}

fn program_for(e: &Expr) -> String {
    format!(
        "class T {{
           static method h1(x: int, y: int): int {{ return x * 2 - y; }}
           static method h2(x: int): int {{ return T.h1(x, 3) + 1; }}
           static method abs(x: int): int {{ if (x < 0) {{ return -x; }} return x; }}
           static method f(a: int, b: int): int {{ return {}; }}
         }}",
        e.render()
    )
}

fn run_tier(src: &str, opt: bool, a: i64, b: i64, reps: u32) -> i64 {
    let mut vm = Vm::new(VmConfig {
        enable_opt: opt,
        opt_threshold: 2,
        ..VmConfig::small()
    });
    vm.load_source(src).expect("program loads");
    let mut last = 0;
    // Repeat so the opt tier actually kicks in (threshold 2).
    for _ in 0..reps {
        last = vm
            .call_static_sync("T", "f", &[Value::Int(a), Value::Int(b)])
            .expect("runs")
            .expect("returns")
            .as_int();
    }
    last
}

#[test]
fn opt_tier_matches_base_tier_and_host() {
    for seed in 0..64 {
        let mut rng = Rng::new(seed);
        let e = expr(&mut rng, 4);
        let a = rng.i64_in(-1000, 1000);
        let b = rng.i64_in(-1000, 1000);
        let src = program_for(&e);
        let expected = e.eval(a, b);
        let base = run_tier(&src, false, a, b, 1);
        let opt = run_tier(&src, true, a, b, 5);
        assert_eq!(base, expected, "seed {seed}: baseline vs host model\n{src}");
        assert_eq!(opt, expected, "seed {seed}: opt (inlining) vs host model\n{src}");
    }
}

// ---- update determinism -------------------------------------------------

/// v1 workload: a ring of `Node`s densely cross-linked through `peer`
/// (every node is shared by several others) plus the backing array, all
/// reachable from statics — the array and three nodes of the ring, so a
/// collection starts from several roots into one shared graph.
/// `App.trace` accumulates an order-sensitive hash the object
/// transformers feed.
const GC_ORACLE_V1: &str = "
class Node {
  field id: int;
  field next: Node;
  field peer: Node;
  ctor(i: int) { this.id = i; }
}
class App {
  static field nodes: Node[];
  static field a: Node;
  static field b: Node;
  static field c: Node;
  static field trace: int;
  static method build(n: int): void {
    var arr: Node[] = new Node[n];
    var i: int = 0;
    while (i < n) { arr[i] = new Node(i); i = i + 1; }
    i = 0;
    while (i < n) {
      arr[i].next = arr[(i + 1) % n];
      arr[i].peer = arr[(i * 7 + 3) % n];
      i = i + 1;
    }
    App.nodes = arr;
    App.a = arr[n / 4];
    App.b = arr[n / 2];
    App.c = arr[(3 * n) / 4];
    App.trace = 1;
  }
  static method checksum(): int {
    var sum: int = 0;
    var i: int = 0;
    var n: int = App.nodes.length;
    while (i < n) {
      sum = sum * 31 + App.nodes[i].id + App.nodes[i].peer.id + App.nodes[i].next.id;
      i = i + 1;
    }
    return sum;
  }
}";

/// v2: `Node` gains a `gen` field the transformer stamps.
const GC_ORACLE_V2: &str = "
class Node {
  field id: int;
  field gen: int;
  field next: Node;
  field peer: Node;
  ctor(i: int) { this.id = i; this.gen = 0; }
}
class App {
  static field nodes: Node[];
  static field a: Node;
  static field b: Node;
  static field c: Node;
  static field trace: int;
  static method build(n: int): void {
    var arr: Node[] = new Node[n];
    var i: int = 0;
    while (i < n) { arr[i] = new Node(i); i = i + 1; }
    i = 0;
    while (i < n) {
      arr[i].next = arr[(i + 1) % n];
      arr[i].peer = arr[(i * 7 + 3) % n];
      i = i + 1;
    }
    App.nodes = arr;
    App.a = arr[n / 4];
    App.b = arr[n / 2];
    App.c = arr[(3 * n) / 4];
    App.trace = 1;
  }
  static method checksum(): int {
    var sum: int = 0;
    var i: int = 0;
    var n: int = App.nodes.length;
    while (i < n) {
      sum = sum * 31 + App.nodes[i].id + App.nodes[i].peer.id + App.nodes[i].next.id;
      i = i + 1;
    }
    return sum;
  }
}";

/// Order-sensitive transformer: `App.trace` becomes a rolling hash of the
/// transformer *execution order* — any divergence from the update log's
/// from-space-address order changes it.
const GC_ORACLE_TRANSFORMERS: &str = "
class JvolveTransformers {
  static method jvolve_class_Node(): void { }
  static method jvolve_object_Node(to: Node, from: v1_Node): void {
    to.id = from.id;
    to.next = from.next;
    to.peer = from.peer;
    to.gen = 1;
    App.trace = App.trace * 31 + from.id + 1;
  }
}";

/// A deterministic dump of the registry (same scheme as the controller's
/// rollback tests): classes, methods, and the JTOC, with map-backed
/// tables sorted.
fn registry_fingerprint(vm: &Vm) -> String {
    let reg = vm.registry();
    let mut out = String::new();
    for class in reg.classes() {
        writeln!(out, "class {} name={} super={:?}", class.id, class.name, class.super_id)
            .unwrap();
        writeln!(out, "  layout={:?} ref_map={:?} tib={:?}", class.layout, class.ref_map, class.tib)
            .unwrap();
        let mut vslots: Vec<_> = class.vslots.iter().collect();
        vslots.sort();
        let mut statics: Vec<_> = class.statics.iter().collect();
        statics.sort_by_key(|(name, _)| name.as_str());
        writeln!(out, "  vslots={vslots:?} statics={statics:?}").unwrap();
    }
    for i in 0..reg.method_count() {
        let m = reg.method(MethodId(i as u32));
        writeln!(out, "method {} class={} name={}", m.id, m.class, m.name).unwrap();
    }
    for slot in 0..reg.jtoc_len() {
        writeln!(out, "jtoc[{slot}]={} ref={}", reg.jtoc_get(slot as u32), reg.jtoc_is_ref(slot as u32))
            .unwrap();
    }
    out
}

/// Everything two runs of the same update must agree on. No wall-clock:
/// `UpdateStats` Duration fields and `PhaseExited` events (which carry
/// elapsed time) are excluded; everything else must be bit-identical,
/// heap addresses included.
#[derive(Debug, PartialEq, Eq)]
struct OracleOutcome {
    used_words: usize,
    /// Every object in the active semispace, in address order.
    objects: Vec<(GcRef, ClassId)>,
    heap_fingerprint: u64,
    registry_fingerprint: String,
    /// Rolling hash of transformer execution order (= update-log order).
    trace: i64,
    checksum: i64,
    stats: (u64, usize, usize, usize, usize, usize, usize, usize, usize, usize),
    events: Vec<String>,
}

fn run_gc_oracle(nodes: i64) -> OracleOutcome {
    let mut vm = Vm::new(VmConfig::default());
    let old = jvolve_repro::lang::compile(GC_ORACLE_V1).expect("v1 compiles");
    let new = jvolve_repro::lang::compile(GC_ORACLE_V2).expect("v2 compiles");
    vm.load_classes(&old).expect("v1 loads");
    vm.call_static_sync("App", "build", &[Value::Int(nodes)]).expect("build runs");

    let mut update = Update::prepare(&old, &new, "v1_").expect("update prepares");
    update.set_transformers_source(GC_ORACLE_TRANSFORMERS);

    let mut events = MemorySink::default();
    let mut controller = UpdateController::new(&update, ApplyOptions::default());
    controller.attach_sink(&mut events);
    let stats = controller.run_to_completion(&mut vm).expect("update applies");

    let trace = match vm.read_static("App", "trace") {
        Value::Int(t) => t,
        other => panic!("trace is {other:?}"),
    };
    let checksum = vm
        .call_static_sync("App", "checksum", &[])
        .expect("checksum runs")
        .expect("returns")
        .as_int();
    let snapshot = vm.registry_mut().layout_snapshot();
    let mut objects = Vec::new();
    vm.heap().for_each_object(&snapshot, |r, class| objects.push((r, class)));
    OracleOutcome {
        used_words: vm.heap().used_words(),
        objects,
        heap_fingerprint: vm.heap_fingerprint(),
        registry_fingerprint: registry_fingerprint(&vm),
        trace,
        checksum,
        stats: (
            stats.slices_waited,
            stats.barriers_installed,
            stats.osr_replacements,
            stats.active_migrations,
            stats.classes_loaded,
            stats.bodies_swapped,
            stats.methods_invalidated,
            stats.objects_transformed,
            stats.gc_copied_cells,
            stats.gc_copied_words,
        ),
        events: events
            .events
            .iter()
            .filter(|e| !matches!(e, UpdateEvent::PhaseExited { .. }))
            .map(|e| match e {
                // Commit/abort events carry wall-clock; keep the fact
                // that they fired, drop the timing.
                UpdateEvent::Committed { .. } => "Committed".to_string(),
                UpdateEvent::Aborted { .. } => "Aborted".to_string(),
                other => format!("{other:?}"),
            })
            .collect(),
    }
}

/// What the oracle transformers leave in `App.trace` after running over
/// nodes with these ids, in this order.
fn trace_of(ids: impl Iterator<Item = i64>) -> i64 {
    ids.fold(1, |t, id| t.wrapping_mul(31).wrapping_add(id + 1))
}

/// The determinism gate: the same workload + update under
/// `VmConfig::default()`, twice, must agree in every non-wall-clock
/// observable down to heap addresses, and the transformers must have run
/// in update-log order — allocation order here, where nothing is
/// collected before the update.
#[test]
fn same_update_twice_agrees_address_for_address() {
    const NODES: i64 = 400;
    let first = run_gc_oracle(NODES);
    assert_eq!(first.stats.7, NODES as usize, "every node transformed");
    assert!(first.objects.len() >= NODES as usize, "the heap walk saw the nodes");
    assert_eq!(first.trace, trace_of(0..NODES), "transformers ran in update-log order");
    assert_eq!(first, run_gc_oracle(NODES));
}

// ---- inline-cache on/off oracle ----------------------------------------

/// Everything the cache oracle compares across `enable_inline_caches`
/// settings. VM stats deliberately exclude `ic_hits`/`ic_misses` (the two
/// modes differ there by construction) but include `steps`: the caches
/// must not change which instructions execute, only how dispatch resolves.
#[derive(Debug, PartialEq, Eq)]
struct CacheOracleOutcome {
    heap_fingerprint: u64,
    registry_fingerprint: String,
    trace: i64,
    checksum: i64,
    /// (slices, steps, gcs, base_compiles, opt_compiles).
    vm_stats: (u64, u64, u64, u64, u64),
    events: Vec<String>,
}

/// Makes `update` fail at the very end of its install step — after the
/// renames, strips, batch load, body swaps, invalidation and OSR — so the
/// controller replays a full rollback ledger: the VM gets a class no
/// payload knows about, and the transformer batch is made to define it
/// too. The source still compiles and type-checks (a source that does
/// not is rejected in `Pending`, before anything is installed); only the
/// load collides.
fn rig_install_failure(vm: &mut Vm, update: &mut Update) {
    const BYSTANDER: &str = "class Bystander { }";
    let bystander = jvolve_repro::lang::compile(BYSTANDER).expect("bystander compiles");
    vm.load_classes(&bystander).expect("bystander loads");
    let source = format!("{}{BYSTANDER}", update.transformers_source());
    update.set_transformers_source(source);
}

/// Runs the §4.2-style workload with dispatch caches on or off, applies an
/// update (or induces a mid-install failure and controller *rollback* when
/// `rollback` is set), then keeps executing guest code through the same
/// call sites. Dispatch must re-resolve identically in both modes.
fn run_cache_oracle(enable_inline_caches: bool, rollback: bool) -> CacheOracleOutcome {
    const NODES: i64 = 300;
    let mut vm = Vm::new(VmConfig { enable_inline_caches, ..VmConfig::small() });
    let old = jvolve_repro::lang::compile(GC_ORACLE_V1).expect("v1 compiles");
    let new = jvolve_repro::lang::compile(GC_ORACLE_V2).expect("v2 compiles");
    vm.load_classes(&old).expect("v1 loads");
    vm.call_static_sync("App", "build", &[Value::Int(NODES)]).expect("build runs");
    // Warm every call site so the caches hold pre-update targets when the
    // update (or rollback) invalidates them.
    for _ in 0..3 {
        vm.call_static_sync("App", "checksum", &[]).expect("warm checksum runs");
    }

    let mut update = Update::prepare(&old, &new, "v1_").expect("update prepares");
    update.set_transformers_source(GC_ORACLE_TRANSFORMERS);
    if rollback {
        rig_install_failure(&mut vm, &mut update);
    }

    let mut events = MemorySink::default();
    let mut controller = UpdateController::new(&update, ApplyOptions::default());
    controller.attach_sink(&mut events);
    let result = controller.run_to_completion(&mut vm);
    assert_eq!(result.is_err(), rollback, "rollback={rollback}: {result:?}");

    // Post-event guest execution: every cached target filled before the
    // update must re-resolve (to new code, or — after rollback — to the
    // restored old code), never serve a stale method.
    let checksum = vm
        .call_static_sync("App", "checksum", &[])
        .expect("post-update checksum runs")
        .expect("returns")
        .as_int();
    let trace = match vm.read_static("App", "trace") {
        Value::Int(t) => t,
        other => panic!("trace is {other:?}"),
    };
    let s = vm.stats();
    CacheOracleOutcome {
        heap_fingerprint: vm.heap_fingerprint(),
        registry_fingerprint: registry_fingerprint(&vm),
        trace,
        checksum,
        vm_stats: (s.slices, s.steps, s.gcs, s.base_compiles, s.opt_compiles),
        events: events
            .events
            .iter()
            .filter(|e| !matches!(e, UpdateEvent::PhaseExited { .. }))
            .map(|e| match e {
                UpdateEvent::Committed { .. } => "Committed".to_string(),
                UpdateEvent::Aborted { .. } => "Aborted".to_string(),
                other => format!("{other:?}"),
            })
            .collect(),
    }
}

/// The caches-on/off oracle: identical heap, registry, transformer trace,
/// guest results, step counts, and normalized event streams across an
/// applied update AND a rolled-back one.
#[test]
fn inline_caches_are_observationally_invisible() {
    for rollback in [false, true] {
        let off = run_cache_oracle(false, rollback);
        let on = run_cache_oracle(true, rollback);
        assert_eq!(off, on, "rollback={rollback}: cache modes diverged");
        if rollback {
            assert_eq!(on.trace, 1, "no transformer ran before the rollback");
            assert!(on.events.iter().any(|e| e == "Aborted"), "{:?}", on.events);
            assert!(
                on.events.iter().any(|e| e.starts_with("OsrApplied")),
                "the install must have run to its last step before failing: {:?}",
                on.events
            );
        } else {
            assert!(on.trace != 1, "transformers fed the trace");
        }
    }
}

// ---- template-JIT on/off oracle ----------------------------------------

/// Everything the jit oracle compares across `enable_jit` settings. VM
/// stats deliberately exclude the tier-population counters that differ by
/// construction (`opt_compiles` — a method can reach the jit threshold
/// before the opt threshold; `jit_compiles`, `deopts`, `fused_steps`) but
/// include `steps` and `slices`: fused superinstructions must retire
/// *exactly* the base instruction count at exactly the same yield points,
/// so even the scheduler's interleaving is bit-identical.
#[derive(Debug, PartialEq, Eq)]
struct JitOracleOutcome {
    heap_fingerprint: u64,
    registry_fingerprint: String,
    trace: i64,
    checksum: i64,
    /// (slices, steps, gcs, base_compiles).
    vm_stats: (u64, u64, u64, u64),
    events: Vec<String>,
}

/// Runs the ring workload with the template-JIT tier on or off (threshold
/// low enough that the loopy `checksum` promotes via OSR-in mid-warmup),
/// applies an update — eagerly, lazily, or inducing a mid-install failure
/// and rollback — then keeps executing through the same (invalidated and
/// re-resolved) code. Returns the cross-mode observables plus the raw
/// stats so callers can assert the jit tier actually engaged.
fn run_jit_oracle(
    enable_jit: bool,
    rollback: bool,
    lazy: bool,
) -> (JitOracleOutcome, jvolve_repro::vm::VmStats) {
    const NODES: i64 = 300;
    let mut vm = Vm::new(VmConfig {
        enable_jit,
        jit_threshold: 40,
        lazy_migration: lazy,
        ..VmConfig::small()
    });
    let old = jvolve_repro::lang::compile(GC_ORACLE_V1).expect("v1 compiles");
    let new = jvolve_repro::lang::compile(GC_ORACLE_V2).expect("v2 compiles");
    vm.load_classes(&old).expect("v1 loads");
    vm.call_static_sync("App", "build", &[Value::Int(NODES)]).expect("build runs");
    // Warm until checksum's loop trips cross the jit threshold (first
    // call already OSRs in) and the fused code holds pre-update operands.
    for _ in 0..3 {
        vm.call_static_sync("App", "checksum", &[]).expect("warm checksum runs");
    }

    let mut update = Update::prepare(&old, &new, "v1_").expect("update prepares");
    update.set_transformers_source(GC_ORACLE_TRANSFORMERS);
    if rollback {
        rig_install_failure(&mut vm, &mut update);
    }

    let mut events = MemorySink::default();
    let mut controller = UpdateController::new(&update, ApplyOptions::default());
    controller.attach_sink(&mut events);
    let result = controller.run_to_completion(&mut vm);
    assert_eq!(result.is_err(), rollback, "rollback={rollback}: {result:?}");

    // Post-update execution through the invalidated call sites and (in
    // jit mode) the deopted/re-promoted bodies.
    let checksum = vm
        .call_static_sync("App", "checksum", &[])
        .expect("post-update checksum runs")
        .expect("returns")
        .as_int();
    let trace = match vm.read_static("App", "trace") {
        Value::Int(t) => t,
        other => panic!("trace is {other:?}"),
    };
    let s = vm.stats().clone();
    let outcome = JitOracleOutcome {
        heap_fingerprint: vm.heap_fingerprint(),
        registry_fingerprint: registry_fingerprint(&vm),
        trace,
        checksum,
        vm_stats: (s.slices, s.steps, s.gcs, s.base_compiles),
        events: events
            .events
            .iter()
            .filter(|e| !matches!(e, UpdateEvent::PhaseExited { .. }))
            .map(|e| match e {
                UpdateEvent::Committed { .. } => "Committed".to_string(),
                UpdateEvent::Aborted { .. } => "Aborted".to_string(),
                // Keeps the watermark, drops the barrier-arming wall time.
                UpdateEvent::LazyEpochBegun { watermark_words, .. } => {
                    format!("LazyEpochBegun {{ watermark_words: {watermark_words} }}")
                }
                other => format!("{other:?}"),
            })
            .collect(),
    };
    (outcome, s)
}

/// The jit-on/off oracle: identical heap and registry fingerprints,
/// transformer trace, guest results, step/slice counts, and normalized
/// event streams across an applied update AND a rolled-back one, in both
/// eager and lazy commit modes — while the jit run provably compiled,
/// fused, and executed superinstructions.
#[test]
fn jit_tier_is_observationally_invisible() {
    for (rollback, lazy) in [(false, false), (true, false), (false, true), (true, true)] {
        let (off, off_stats) = run_jit_oracle(false, rollback, lazy);
        let (on, on_stats) = run_jit_oracle(true, rollback, lazy);
        assert_eq!(off, on, "rollback={rollback} lazy={lazy}: jit modes diverged");
        assert_eq!(off_stats.jit_compiles, 0, "jit off never jit-compiles");
        assert!(
            on_stats.jit_compiles > 0,
            "rollback={rollback} lazy={lazy}: the jit tier never engaged"
        );
        assert!(
            on_stats.fused_steps > 0,
            "rollback={rollback} lazy={lazy}: no superinstruction ever retired"
        );
        if rollback {
            assert_eq!(on.trace, 1, "no transformer ran before the rollback");
            assert!(on.events.iter().any(|e| e == "Aborted"), "{:?}", on.events);
            assert!(
                on.events.iter().any(|e| e.starts_with("OsrApplied")),
                "the install must have run to its last step before failing: {:?}",
                on.events
            );
        } else {
            assert!(on.trace != 1, "transformers fed the trace");
        }
    }
}

// ---- recursive transformer ordering (paper §4.2) -----------------------

/// Chain workload for the recursion stress: `Node(i).next = Node(i+1)`.
const GC_CHAIN_V1: &str = "
class Node {
  field id: int;
  field next: Node;
  ctor(i: int, n: Node) { this.id = i; this.next = n; }
}
class App {
  static field head: Node;
  static field trace: int;
  static method build(n: int): void {
    var head: Node = null;
    var i: int = n - 1;
    while (i >= 0) { head = new Node(i, head); i = i - 1; }
    App.head = head;
    App.trace = 1;
  }
}";

const GC_CHAIN_V2: &str = "
class Node {
  field id: int;
  field depth: int;
  field next: Node;
  ctor(i: int, n: Node) { this.id = i; this.next = n; this.depth = 0; }
}
class App {
  static field head: Node;
  static field trace: int;
  static method build(n: int): void {
    var head: Node = null;
    var i: int = n - 1;
    while (i >= 0) { head = new Node(i, head); i = i - 1; }
    App.head = head;
    App.trace = 1;
  }
}";

/// \"Transform `o` before I read it\" (paper §3.4/§4.2): each transformer
/// forces its referent first, so resolution recurses to the chain tail
/// and unwinds back. The trace records *completion* order.
const GC_CHAIN_TRANSFORMERS: &str = "
class JvolveTransformers {
  static method jvolve_class_Node(): void { }
  static method jvolve_object_Node(to: Node, from: v1_Node): void {
    to.id = from.id;
    to.next = from.next;
    if (from.next != null) {
      Dsu.forceTransform(from.next);
      to.depth = from.next.depth + 1;
    }
    App.trace = App.trace * 31 + from.id + 1;
  }
}";

/// Runs the chain update and returns (trace transcript hash, head depth).
fn run_chain_oracle(nodes: i64) -> (i64, i64) {
    let mut vm = Vm::new(VmConfig::small());
    let old = jvolve_repro::lang::compile(GC_CHAIN_V1).expect("v1 compiles");
    let new = jvolve_repro::lang::compile(GC_CHAIN_V2).expect("v2 compiles");
    vm.load_classes(&old).expect("v1 loads");
    vm.call_static_sync("App", "build", &[Value::Int(nodes)]).expect("build runs");

    let mut update = Update::prepare(&old, &new, "v1_").expect("update prepares");
    update.set_transformers_source(GC_CHAIN_TRANSFORMERS);
    let stats = jvolve_repro::dsu::apply(&mut vm, &update, &ApplyOptions::default())
        .expect("update applies");
    assert_eq!(stats.objects_transformed, nodes as usize);

    let trace = match vm.read_static("App", "trace") {
        Value::Int(t) => t,
        other => panic!("trace is {other:?}"),
    };
    let Value::Ref(head) = vm.read_static("App", "head") else { panic!("head is null") };
    let Value::Int(depth) = vm.read_field(head, "depth") else { panic!("depth unset") };
    (trace, depth)
}

/// Recursive "transform before read" requests resolve in update-log
/// order: the chain is allocated tail first, so the completion-order
/// transcript lists the ids descending, and every depth is computed from
/// an already-transformed referent.
#[test]
fn recursive_transformer_ordering_follows_the_update_log() {
    const NODES: i64 = 40;
    let (trace, depth) = run_chain_oracle(NODES);
    assert_eq!(trace, trace_of((0..NODES).rev()), "transcript diverged");
    assert_eq!(depth, NODES - 1, "depth propagated from the chain tail");
}
