//! Differential oracle for lazy migration: an update committed in lazy
//! mode (read barrier + scavenger, `VmConfig::lazy_migration`) must be
//! observationally identical to the same update committed eagerly — same
//! final heap fingerprint, same reachable-state checksums, same
//! transformer multiset — no matter how guest execution, scavenger steps,
//! and full GCs interleave while the epoch drains.

mod testkit;

use testkit::Rng;

use jvolve_repro::dsu::{
    ApplyOptions, MemorySink, StepProgress, Update, UpdateController, UpdateError, UpdateEvent,
    UpdatePhase,
};
use jvolve_repro::vm::heap::NoRemap;
use jvolve_repro::vm::{LazyStage, Value, Vm, VmConfig, VmError};

// ---- fixtures ----------------------------------------------------------

/// v1 ring workload: densely cross-linked `Node`s behind statics. Same
/// shape as the determinism gate's in `differential.rs`, but the
/// transformer trace is *commutative* (a sum, not a rolling hash): lazy
/// mode transforms the same multiset as eager but in a touch-dependent
/// order.
const RING_V1: &str = "
class Node {
  field id: int;
  field next: Node;
  field peer: Node;
  ctor(i: int) { this.id = i; }
}
class App {
  static field nodes: Node[];
  static field trace: int;
  static field sink: int;
  static field extra: Node;
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
    App.trace = 0;
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
  static method churn(): void {
    var r: int = 0;
    while (r < 50) { App.sink = App.sink + App.checksum(); r = r + 1; }
  }
  static method allocone(k: int): void { App.extra = new Node(9000 + k); }
}";

const RING_V2: &str = "
class Node {
  field id: int;
  field gen: int;
  field next: Node;
  field peer: Node;
  ctor(i: int) { this.id = i; this.gen = 0; }
}
class App {
  static field nodes: Node[];
  static field trace: int;
  static field sink: int;
  static field extra: Node;
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
    App.trace = 0;
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
  static method churn(): void {
    var r: int = 0;
    while (r < 50) { App.sink = App.sink + App.checksum(); r = r + 1; }
  }
  static method allocone(k: int): void { App.extra = new Node(9000 + k); }
}";

/// Commutative transformer: `App.trace` accumulates a sum, so any
/// transformation *order* yields the same final value while still proving
/// every node was transformed exactly once (ids are distinct).
const RING_TRANSFORMERS: &str = "
class JvolveTransformers {
  static method jvolve_class_Node(): void { }
  static method jvolve_object_Node(to: Node, from: v1_Node): void {
    to.id = from.id;
    to.next = from.next;
    to.peer = from.peer;
    to.gen = 1;
    App.trace = App.trace + from.id * 2 + 1;
  }
}";

/// Chain fixture, tail allocated first: ascending heap address = tail →
/// head, so both the eager update log and the lazy worklist process the
/// tail first and `Dsu.forceTransform(from.next)` always hits an
/// already-transformed referent by the time depth is read. The rolling
/// (order-sensitive) trace must therefore match *exactly* across modes.
const CHAIN_V1: &str = "
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

const CHAIN_V2: &str = "
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

const CHAIN_TRANSFORMERS: &str = "
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

/// Chain allocated *head first*: the first worklist/update-log entry is
/// the head, so a forcing transformer recurses through the entire chain
/// before anything unwinds — the depth-limit stress.
const DEEP_CHAIN_V1: &str = "
class Node {
  field id: int;
  field next: Node;
  ctor(i: int) { this.id = i; }
}
class App {
  static field head: Node;
  static method build(n: int): void {
    var head: Node = new Node(0);
    var cur: Node = head;
    var i: int = 1;
    while (i < n) { var nn: Node = new Node(i); cur.next = nn; cur = nn; i = i + 1; }
    App.head = head;
  }
}";

const DEEP_CHAIN_V2: &str = "
class Node {
  field id: int;
  field depth: int;
  field next: Node;
  ctor(i: int) { this.id = i; this.depth = 0; }
}
class App {
  static field head: Node;
  static method build(n: int): void {
    var head: Node = new Node(0);
    var cur: Node = head;
    var i: int = 1;
    while (i < n) { var nn: Node = new Node(i); cur.next = nn; cur = nn; i = i + 1; }
    App.head = head;
  }
}";

const DEEP_CHAIN_TRANSFORMERS: &str = "
class JvolveTransformers {
  static method jvolve_class_Node(): void { }
  static method jvolve_object_Node(to: Node, from: v1_Node): void {
    to.id = from.id;
    to.next = from.next;
    if (from.next != null) {
      Dsu.forceTransform(from.next);
      to.depth = from.next.depth + 1;
    }
  }
}";

/// Two nodes forcing each other: an ill-defined transformer set the VM
/// must reject with `TransformerCycle` (paper §3.4), not hang or recurse.
const CYCLE_V1: &str = "
class Node {
  field id: int;
  field next: Node;
  ctor(i: int) { this.id = i; }
}
class App {
  static field a: Node;
  static method build(): void {
    var a: Node = new Node(0);
    var b: Node = new Node(1);
    a.next = b;
    b.next = a;
    App.a = a;
  }
}";

const CYCLE_V2: &str = "
class Node {
  field id: int;
  field gen: int;
  field next: Node;
  ctor(i: int) { this.id = i; this.gen = 0; }
}
class App {
  static field a: Node;
  static method build(): void {
    var a: Node = new Node(0);
    var b: Node = new Node(1);
    a.next = b;
    b.next = a;
    App.a = a;
  }
}";

const CYCLE_TRANSFORMERS: &str = "
class JvolveTransformers {
  static method jvolve_class_Node(): void { }
  static method jvolve_object_Node(to: Node, from: v1_Node): void {
    to.id = from.id;
    to.next = from.next;
    Dsu.forceTransform(from.next);
    to.gen = 1;
  }
}";

/// Every node lives in one array and no node references another: the
/// array holds every reference the collapse has to rewrite, so one array
/// is all the collapse sweep ever finds forwarded.
const FLAT_V1: &str = "
class Node {
  field id: int;
  field next: Node;
  ctor(i: int) { this.id = i; }
}
class App {
  static field nodes: Node[];
  static field trace: int;
  static method build(n: int): void {
    var arr: Node[] = new Node[n];
    var i: int = 0;
    while (i < n) { arr[i] = new Node(i); i = i + 1; }
    App.nodes = arr;
    App.trace = 0;
  }
  static method checksum(): int {
    var sum: int = 0;
    var i: int = 0;
    var n: int = App.nodes.length;
    while (i < n) { sum = sum * 31 + App.nodes[i].id; i = i + 1; }
    return sum;
  }
}";

const FLAT_V2: &str = "
class Node {
  field id: int;
  field gen: int;
  field next: Node;
  ctor(i: int) { this.id = i; this.gen = 0; }
}
class App {
  static field nodes: Node[];
  static field trace: int;
  static method build(n: int): void {
    var arr: Node[] = new Node[n];
    var i: int = 0;
    while (i < n) { arr[i] = new Node(i); i = i + 1; }
    App.nodes = arr;
    App.trace = 0;
  }
  static method checksum(): int {
    var sum: int = 0;
    var i: int = 0;
    var n: int = App.nodes.length;
    while (i < n) { sum = sum * 31 + App.nodes[i].id; i = i + 1; }
    return sum;
  }
}";

const FLAT_TRANSFORMERS: &str = "
class JvolveTransformers {
  static method jvolve_class_Node(): void { }
  static method jvolve_object_Node(to: Node, from: v1_Node): void {
    to.id = from.id;
    to.next = from.next;
    to.gen = 1;
    App.trace = App.trace + from.id * 2 + 1;
  }
}";

/// The same update with a pure field-copy transformer: it lowers to a
/// copy plan, so the discovery scan converts every node itself and the
/// drain only sees what the scan had no room to convert.
const FLAT_PLANNED_TRANSFORMERS: &str = "
class JvolveTransformers {
  static method jvolve_class_Node(): void { }
  static method jvolve_object_Node(to: Node, from: v1_Node): void {
    to.id = from.id;
    to.next = from.next;
  }
}";

/// A Figure-3-style release (the paper's email server 1.3.2): `User`'s
/// forward list changes from `String[]` to `EmailAddress[]`, so its
/// transformer allocates, loops and calls a native and must be
/// interpreted; `Tag` only gains a field, so its transformer is a copy
/// plan. The scan converts the tags and queues the users for the drain.
const MAIL_V1: &str = "
class Tag { field label: String; ctor(s: String) { this.label = s; } }
class User {
  field name: String; field tag: Tag; field forwards: String[];
  ctor(n: String, t: Tag, f: String[]) { this.name = n; this.tag = t; this.forwards = f; }
}
class App {
  static field users: User[];
  static field trace: int;
  static method build(n: int): void {
    var users: User[] = new User[n];
    var i: int = 0;
    while (i < n) {
      var f: String[] = new String[2];
      f[0] = \"u\" + Str.fromInt(i) + \"@a.org\";
      f[1] = \"w\" + Str.fromInt(i) + \"@mail.example.net\";
      users[i] = new User(\"user\" + Str.fromInt(i), new Tag(Str.fromInt(i % 7)), f);
      i = i + 1;
    }
    App.users = users;
    App.trace = 1;
  }
  static method checksum(): int {
    var sum: int = 0;
    var i: int = 0;
    while (i < App.users.length) {
      var u: User = App.users[i];
      sum = sum * 31 + Str.len(u.name) + Str.len(u.tag.label) + Str.len(u.forwards[1]);
      i = i + 1;
    }
    return sum;
  }
}";

const MAIL_V2: &str = "
class Tag { field label: String; field hits: int; ctor(s: String) { this.label = s; } }
class EmailAddress {
  field user: String; field host: String;
  ctor(u: String, h: String) { this.user = u; this.host = h; }
}
class User {
  field name: String; field tag: Tag; field forwards: EmailAddress[];
  ctor(n: String, t: Tag, f: EmailAddress[]) { this.name = n; this.tag = t; this.forwards = f; }
}
class App {
  static field users: User[];
  static field trace: int;
  static method build(n: int): void { App.users = new User[n]; App.trace = 1; }
  static method checksum(): int {
    var sum: int = 0;
    var i: int = 0;
    while (i < App.users.length) {
      var u: User = App.users[i];
      sum = sum * 31 + Str.len(u.name) + Str.len(u.tag.label) + Str.len(u.forwards[1].host);
      i = i + 1;
    }
    return sum;
  }
}";

const MAIL_TRANSFORMERS: &str = "
class JvolveTransformers {
  static method jvolve_class_Tag(): void { }
  static method jvolve_object_Tag(to: Tag, from: v1_Tag): void {
    to.label = from.label;
  }
  static method jvolve_class_User(): void { }
  static method jvolve_object_User(to: User, from: v1_User): void {
    to.name = from.name;
    to.tag = from.tag;
    var len: int = from.forwards.length;
    to.forwards = new EmailAddress[len];
    var i: int = 0;
    while (i < len) {
      var parts: String[] = Str.split(from.forwards[i], \"@\");
      to.forwards[i] = new EmailAddress(parts[0], parts[1]);
      i = i + 1;
    }
    App.trace = App.trace * 31 + Str.len(from.name);
  }
}";

// ---- harness -----------------------------------------------------------

struct Fixture {
    v1: &'static str,
    v2: &'static str,
    transformers: &'static str,
    build_args: Vec<Value>,
}

fn make_vm(fixture: &Fixture, lazy: bool) -> (Vm, Update) {
    make_vm_sized(fixture, lazy, VmConfig::small().semispace_words)
}

fn make_vm_sized(fixture: &Fixture, lazy: bool, semispace_words: usize) -> (Vm, Update) {
    let mut vm = Vm::new(VmConfig { lazy_migration: lazy, semispace_words, ..VmConfig::small() });
    let old = jvolve_repro::lang::compile(fixture.v1).expect("v1 compiles");
    let new = jvolve_repro::lang::compile(fixture.v2).expect("v2 compiles");
    vm.load_classes(&old).expect("v1 loads");
    vm.call_static_sync("App", "build", &fixture.build_args).expect("build runs");
    let mut update = Update::prepare(&old, &new, "v1_").expect("update prepares");
    update.set_transformers_source(fixture.transformers);
    (vm, update)
}

/// Everything the lazy-vs-eager oracle compares. Addresses differ between
/// the two protocols (lazy allocates duplicates mid-heap and compacts at
/// completion), so only address-independent observables qualify:
/// `heap_fingerprint` hashes by BFS visit index, and the trace/checksum
/// are guest-computed.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    heap_fingerprint: u64,
    trace: i64,
    checksum: i64,
    objects_transformed: usize,
}

fn outcome(vm: &mut Vm, objects_transformed: usize) -> Outcome {
    let trace = match vm.read_static("App", "trace") {
        Value::Int(t) => t,
        other => panic!("trace is {other:?}"),
    };
    let checksum = vm
        .call_static_sync("App", "checksum", &[])
        .expect("checksum runs")
        .expect("returns")
        .as_int();
    Outcome {
        heap_fingerprint: vm.heap_fingerprint(),
        trace,
        checksum,
        objects_transformed,
    }
}

fn ring_fixture(nodes: i64) -> Fixture {
    Fixture {
        v1: RING_V1,
        v2: RING_V2,
        transformers: RING_TRANSFORMERS,
        build_args: vec![Value::Int(nodes)],
    }
}

fn run_eager(fixture: &Fixture) -> Outcome {
    run_eager_sized(fixture, VmConfig::small().semispace_words)
}

fn run_eager_sized(fixture: &Fixture, semispace_words: usize) -> Outcome {
    let (mut vm, update) = make_vm_sized(fixture, false, semispace_words);
    let stats = jvolve_repro::dsu::apply(&mut vm, &update, &ApplyOptions::default())
        .expect("eager update applies");
    assert!(!vm.lazy_epoch_active());
    outcome(&mut vm, stats.objects_transformed)
}

/// [`FLAT_V1`]'s population: one array longer than a collapse step's
/// budget many times over, on a heap that holds the whole epoch (the
/// originals, an old copy and a new object per node) without collecting.
const FLAT_NODES: i64 = 20_000;
const FLAT_HEAP_WORDS: usize = 512 * 1024;
/// The collapse budget of the flat tests: a fortieth of the array.
const FLAT_STEP_CELLS: usize = 512;

fn flat_fixture() -> Fixture {
    Fixture {
        v1: FLAT_V1,
        v2: FLAT_V2,
        transformers: FLAT_TRANSFORMERS,
        build_args: vec![Value::Int(FLAT_NODES)],
    }
}

fn flat_planned_fixture() -> Fixture {
    Fixture { transformers: FLAT_PLANNED_TRANSFORMERS, ..flat_fixture() }
}

/// The `(found, planned)` of every discovery-scan step in `events`.
fn scan_steps(events: &[UpdateEvent]) -> Vec<(usize, usize)> {
    events
        .iter()
        .filter_map(|e| match *e {
            UpdateEvent::LazyScanStep { found, planned, .. } => Some((found, planned)),
            _ => None,
        })
        .collect()
}

/// The `(transformed, planned)` of every scavenge step in `events`.
fn scavenge_steps(events: &[UpdateEvent]) -> Vec<(usize, usize)> {
    events
        .iter()
        .filter_map(|e| match *e {
            UpdateEvent::LazyScavengeStep { transformed, planned, .. } => {
                Some((transformed, planned))
            }
            _ => None,
        })
        .collect()
}

/// The `(objects_transformed, objects_planned)` the epoch reported.
fn epoch_totals(events: &[UpdateEvent]) -> (usize, usize) {
    events
        .iter()
        .find_map(|e| match *e {
            UpdateEvent::TransformersRun { objects_transformed, objects_planned } => {
                Some((objects_transformed, objects_planned))
            }
            _ => None,
        })
        .expect("the epoch reported its totals")
}

/// Sums each column of `(a, b)` rows.
fn totals(rows: &[(usize, usize)]) -> (usize, usize) {
    rows.iter().fold((0, 0), |(a, b), &(x, y)| (a + x, b + y))
}

/// The `(cells, rewritten, done)` of every collapse step in `events`.
fn collapse_steps(events: &[UpdateEvent]) -> Vec<(usize, usize, bool)> {
    events
        .iter()
        .filter_map(|e| match *e {
            UpdateEvent::LazyCollapseStep { cells, rewritten, done } => {
                Some((cells, rewritten, done))
            }
            _ => None,
        })
        .collect()
}

// ---- tests -------------------------------------------------------------

/// The core oracle: a controller-driven lazy commit (SATB scan, scavenger
/// drain, forwarding collapse) is observationally identical to the eager
/// commit, and its event stream tells the lazy story (epoch begun with the
/// watermark, scan steps discovering every stale node, scavenge steps,
/// collapse steps, commit).
#[test]
fn lazy_commit_is_observationally_identical_to_eager() {
    const NODES: i64 = 400;
    let fixture = ring_fixture(NODES);
    let eager = run_eager(&fixture);
    assert_eq!(eager.objects_transformed, NODES as usize);
    assert_eq!(eager.trace, NODES * NODES, "sum of 2i+1 over all ids");

    let (mut vm, update) = make_vm(&fixture, true);
    let mut events = MemorySink::default();
    let mut controller = UpdateController::new(
        &update,
        ApplyOptions { lazy_scavenge_batch: 64, ..ApplyOptions::default() },
    );
    controller.attach_sink(&mut events);
    let stats = controller.run_to_completion(&mut vm).expect("lazy update applies");
    assert!(!vm.lazy_epoch_active(), "epoch completed");

    let lazy = outcome(&mut vm, stats.objects_transformed);
    assert_eq!(lazy, eager, "lazy diverged from eager");

    let begun = events.events.iter().find_map(|e| match e {
        UpdateEvent::LazyEpochBegun { watermark_words, .. } => Some(*watermark_words),
        _ => None,
    });
    assert!(begun.expect("epoch begun") > 0, "watermark snapshots the v1 heap");
    let found: usize = events
        .events
        .iter()
        .filter_map(|e| match e {
            UpdateEvent::LazyScanStep { found, .. } => Some(*found),
            _ => None,
        })
        .sum();
    assert_eq!(found, NODES as usize, "SATB scan discovered every stale node");
    let scavenged: usize = events
        .events
        .iter()
        .filter_map(|e| match e {
            UpdateEvent::LazyScavengeStep { transformed, .. } => Some(*transformed),
            _ => None,
        })
        .sum();
    assert_eq!(scavenged, NODES as usize, "scavenger transformed the whole worklist");
    assert!(
        events.events.iter().any(|e| matches!(e, UpdateEvent::LazyCollapseStep { .. })),
        "forwarding collapse ran"
    );
    assert!(
        events.events.iter().any(|e| matches!(e, UpdateEvent::Committed { .. })),
        "lazy run committed"
    );
    // Lazy-phase wall time is booked; no commit collection runs (the
    // in-pause heap cost is the O(roots) barrier arm); and the phase
    // sum stays consistent with the independently-measured total.
    assert!(stats.lazy_time > std::time::Duration::ZERO);
    assert_eq!(stats.gc_time, std::time::Duration::ZERO, "lazy mode never runs a commit GC");
    assert!(stats.phase_sum() <= stats.total_time, "{stats:?}");
}

/// The JDrums/DVM indirection baseline is an epoch held open: the
/// controller is stepped only until the barrier arms, then never again.
/// Every node must still migrate — through the read barrier alone, with
/// the update's real transformer, across a full collection that lands in
/// the middle of the guest's traversal — and the epoch must stay open
/// with no scavenge or collapse step ever run. A barrier that is skipped
/// outside a controller step (say, once the SATB scan has finished) lets
/// the traversal read stale layouts and fails the trace/checksum oracle.
#[test]
fn held_open_epoch_migrates_through_the_barrier_alone() {
    const NODES: i64 = 400;
    let fixture = ring_fixture(NODES);
    let eager = run_eager(&fixture);

    let (mut vm, update) = make_vm(&fixture, true);
    let mut events = MemorySink::default();
    {
        let mut controller = UpdateController::new(&update, ApplyOptions::default());
        controller.attach_sink(&mut events);
        loop {
            match controller.step(&mut vm) {
                StepProgress::Pending(UpdatePhase::LazyMigrating) => break,
                StepProgress::Pending(_) => {}
                other => panic!("update ended before arming: {other:?} {:?}", controller.error()),
            }
        }
    }

    // One slice reaches part way through the ring; the collection then
    // completes the SATB scan and copies a half-migrated heap.
    let id = vm.spawn("App", "checksum").expect("checksum spawns");
    vm.run_slices(1);
    assert!(vm.thread(id).is_some_and(|t| t.is_live()), "the GC lands mid-traversal");
    vm.collect_full(&NoRemap).expect("mid-epoch GC succeeds");
    assert!(vm.run_to_completion(1_000_000));
    let first = vm.thread(id).and_then(|t| t.result).expect("checksum returns").as_int();
    assert_eq!(first, eager.checksum, "traversal across the GC diverged");

    // Compared field by field: `heap_fingerprint` walks from the worklist
    // roots, which mid-epoch still name forwarded stale originals.
    let again = vm.call_static_sync("App", "checksum", &[]).expect("checksum runs");
    assert_eq!(again, Some(Value::Int(eager.checksum)));
    assert_eq!(vm.read_static("App", "trace"), Value::Int(eager.trace));
    assert!(vm.lazy_epoch_active(), "nothing closed the epoch");
    assert!(
        !events.events.iter().any(|e| matches!(
            e,
            UpdateEvent::LazyScavengeStep { .. } | UpdateEvent::LazyCollapseStep { .. }
        )),
        "the held-open epoch ran a scavenge or collapse step"
    );
}

/// Objects allocated while the epoch drains land above the SATB
/// watermark: the scanner must never visit them (they are born
/// new-version, and no executable code can allocate old-version instances
/// once the update is installed), the transformed count stays exactly the
/// v1 population, and the final state matches an eager commit followed by
/// the same allocations.
#[test]
fn allocation_during_epoch_stays_above_the_watermark() {
    const NODES: i64 = 150;
    const EXTRA: i64 = 40;
    let fixture = ring_fixture(NODES);

    // Eager reference: commit first, then allocate.
    let (mut vm, update) = make_vm(&fixture, false);
    let stats = jvolve_repro::dsu::apply(&mut vm, &update, &ApplyOptions::default())
        .expect("eager update applies");
    for k in 0..EXTRA {
        vm.call_static_sync("App", "allocone", &[Value::Int(k)]).expect("allocone runs");
    }
    let eager = outcome(&mut vm, stats.objects_transformed);
    assert_eq!(eager.objects_transformed, NODES as usize);

    // Lazy: interleave one allocation with every controller step while
    // the epoch drains, finishing any remainder after the commit (the
    // reference allocated all of them post-commit, which is equivalent —
    // both sequences only keep the last extra node live).
    let (mut vm, update) = make_vm(&fixture, true);
    let mut events = MemorySink::default();
    let mut controller = UpdateController::new(
        &update,
        ApplyOptions { lazy_scavenge_batch: 16, lazy_step_cells: 64, ..ApplyOptions::default() },
    );
    controller.attach_sink(&mut events);
    let mut allocated = 0;
    let stats = loop {
        match controller.step(&mut vm) {
            StepProgress::Pending(UpdatePhase::LazyMigrating) => {
                if allocated < EXTRA {
                    vm.call_static_sync("App", "allocone", &[Value::Int(allocated)])
                        .expect("mid-epoch allocone runs");
                    allocated += 1;
                }
            }
            StepProgress::Pending(_) => {}
            StepProgress::Committed => break controller.stats().clone(),
            StepProgress::Aborted => panic!("lazy update aborted: {:?}", controller.error()),
        }
    };
    assert!(allocated > 0, "allocations actually happened mid-epoch");
    for k in allocated..EXTRA {
        vm.call_static_sync("App", "allocone", &[Value::Int(k)]).expect("allocone runs");
    }

    let lazy = outcome(&mut vm, stats.objects_transformed);
    assert_eq!(lazy, eager, "mid-epoch allocation diverged from eager-then-allocate");

    // The scan discovered exactly the v1 population: nothing above the
    // watermark was ever visited.
    let found: usize = events
        .events
        .iter()
        .filter_map(|e| match e {
            UpdateEvent::LazyScanStep { found, .. } => Some(*found),
            _ => None,
        })
        .sum();
    assert_eq!(found, NODES as usize, "scan crossed the allocation watermark");
}

/// Recursive `Dsu.forceTransform` chains (paper §3.4's "transform before
/// I read") must resolve identically in lazy mode: the order-sensitive
/// completion trace and the recursively-computed depths match eager's.
#[test]
fn recursive_force_transform_matches_eager_ordering() {
    const NODES: i64 = 40;
    let fixture = Fixture {
        v1: CHAIN_V1,
        v2: CHAIN_V2,
        transformers: CHAIN_TRANSFORMERS,
        build_args: vec![Value::Int(NODES)],
    };

    let read_chain = |vm: &mut Vm| -> (i64, i64) {
        let trace = match vm.read_static("App", "trace") {
            Value::Int(t) => t,
            other => panic!("trace is {other:?}"),
        };
        let Value::Ref(head) = vm.read_static("App", "head") else { panic!("head is null") };
        let Value::Int(depth) = vm.read_field(head, "depth") else { panic!("depth unset") };
        (trace, depth)
    };

    let (mut vm, update) = make_vm(&fixture, false);
    let stats = jvolve_repro::dsu::apply(&mut vm, &update, &ApplyOptions::default())
        .expect("eager update applies");
    assert_eq!(stats.objects_transformed, NODES as usize);
    let (eager_trace, eager_depth) = read_chain(&mut vm);
    assert_eq!(eager_depth, NODES - 1, "depth propagated from the chain tail");

    let (mut vm, update) = make_vm(&fixture, true);
    let stats = jvolve_repro::dsu::apply(&mut vm, &update, &ApplyOptions::default())
        .expect("lazy update applies");
    assert_eq!(stats.objects_transformed, NODES as usize);
    let (lazy_trace, lazy_depth) = read_chain(&mut vm);
    assert_eq!(lazy_trace, eager_trace, "completion order diverged");
    assert_eq!(lazy_depth, eager_depth);
}

/// Full collections forced mid-epoch — between scavenger batches, with
/// the worklist half drained and forwarding words live — must not lose
/// untouched stale objects or corrupt the pending pairs.
#[test]
fn gc_forced_mid_lazy_epoch_preserves_the_oracle() {
    const NODES: i64 = 300;
    let fixture = ring_fixture(NODES);
    let eager = run_eager(&fixture);

    let (mut vm, update) = make_vm(&fixture, true);
    let mut controller = UpdateController::new(
        &update,
        ApplyOptions { lazy_scavenge_batch: 17, ..ApplyOptions::default() },
    );
    let mut in_epoch = false;
    let stats = loop {
        match controller.step(&mut vm) {
            StepProgress::Pending(UpdatePhase::LazyMigrating) => {
                // A full collection between every scavenge batch:
                // copies the half-migrated heap, rewrites the
                // worklist tail and pending pairs.
                assert!(vm.lazy_epoch_active());
                vm.collect_full(&NoRemap).expect("mid-epoch GC succeeds");
                in_epoch = true;
            }
            StepProgress::Pending(_) => {}
            StepProgress::Committed => break controller.stats().clone(),
            StepProgress::Aborted => {
                panic!("lazy update aborted: {:?}", controller.error())
            }
        }
    };
    assert!(in_epoch, "the update actually went through a lazy epoch");
    let lazy = outcome(&mut vm, stats.objects_transformed);
    assert_eq!(lazy, eager, "mid-epoch GCs broke the oracle");
}

/// A collapse step sweeps at most its budget even when one reference
/// array holds every forwarded referent: the array's elements count one
/// cell each and the sweep resumes inside the array, so the 20 000 slots
/// are rewritten over many steps, never in one.
#[test]
fn collapse_steps_stay_inside_their_budget_on_one_long_array() {
    let fixture = flat_fixture();
    let eager = run_eager_sized(&fixture, FLAT_HEAP_WORDS);

    let (mut vm, update) = make_vm_sized(&fixture, true, FLAT_HEAP_WORDS);
    let mut events = MemorySink::default();
    let mut controller = UpdateController::new(
        &update,
        ApplyOptions { lazy_step_cells: FLAT_STEP_CELLS, ..ApplyOptions::default() },
    );
    controller.attach_sink(&mut events);
    let stats = controller.run_to_completion(&mut vm).expect("lazy update applies");
    drop(controller);
    let lazy = outcome(&mut vm, stats.objects_transformed);
    assert_eq!(lazy, eager, "the bounded collapse diverged from eager");

    let steps = collapse_steps(&events.events);
    for (i, &(cells, rewritten, _)) in steps.iter().enumerate() {
        assert!(
            rewritten <= FLAT_STEP_CELLS && cells <= FLAT_STEP_CELLS,
            "collapse step {i} charged {cells} cells and rewrote {rewritten} slots \
             on a budget of {FLAT_STEP_CELLS}"
        );
    }
    let rewritten: usize = steps.iter().map(|s| s.1).sum();
    assert_eq!(rewritten, FLAT_NODES as usize, "every array slot is rewritten exactly once");
    assert!(steps.len() > FLAT_NODES as usize / FLAT_STEP_CELLS, "{} steps", steps.len());
}

/// A full collection that lands between two collapse steps, with the
/// sweep stopped inside the array, finishes the collapse itself: the
/// epoch commits with the eager heap fingerprint and runs no further
/// collapse step.
#[test]
fn gc_between_collapse_steps_inside_an_array_matches_eager() {
    let fixture = flat_fixture();
    let eager = run_eager_sized(&fixture, FLAT_HEAP_WORDS);

    let (mut vm, update) = make_vm_sized(&fixture, true, FLAT_HEAP_WORDS);
    let mut events = MemorySink::default();
    let mut controller = UpdateController::new(
        &update,
        ApplyOptions { lazy_step_cells: FLAT_STEP_CELLS, ..ApplyOptions::default() },
    );
    controller.attach_sink(&mut events);
    // Two collapse steps, then the collection: both steps end inside the
    // array, which is longer than two budgets.
    let mut collapse_steps_run = 0;
    let stats = loop {
        let collapsing = vm.lazy_stage() == LazyStage::Collapse;
        match controller.step(&mut vm) {
            StepProgress::Pending(UpdatePhase::LazyMigrating) if collapsing => {
                collapse_steps_run += 1;
                if collapse_steps_run == 2 {
                    vm.collect_full(&NoRemap).expect("mid-collapse GC succeeds");
                    assert_eq!(vm.lazy_stage(), LazyStage::Done, "the copy finished the sweep");
                }
            }
            StepProgress::Pending(_) => {}
            StepProgress::Committed => break controller.stats().clone(),
            StepProgress::Aborted => panic!("lazy update aborted: {:?}", controller.error()),
        }
    };
    drop(controller);
    let lazy = outcome(&mut vm, stats.objects_transformed);
    assert_eq!(lazy, eager, "a GC inside the array's sweep broke the oracle");

    let steps = collapse_steps(&events.events);
    assert_eq!(steps.len(), 2, "no collapse step runs after the collection: {steps:?}");
    for (cells, rewritten, done) in steps {
        assert!(!done && cells == FLAT_STEP_CELLS && rewritten > 0, "{cells} {rewritten} {done}");
    }
}

/// A Figure-3-style release mixes both kinds of transformer: the scan
/// converts every planned `Tag` as it finds it, and only the `User`s,
/// whose transformer must be interpreted, reach the drain — in ascending
/// address order, as the eager update log runs them, so the
/// order-sensitive trace matches.
#[test]
fn figure3_users_drain_while_the_scan_converts_their_tags() {
    const USERS: i64 = 300;
    let fixture = Fixture {
        v1: MAIL_V1,
        v2: MAIL_V2,
        transformers: MAIL_TRANSFORMERS,
        build_args: vec![Value::Int(USERS)],
    };
    let eager = run_eager(&fixture);
    assert_eq!(eager.objects_transformed, 2 * USERS as usize);

    let (mut vm, update) = make_vm(&fixture, true);
    let mut events = MemorySink::default();
    let mut controller = UpdateController::new(
        &update,
        ApplyOptions { lazy_scavenge_batch: 16, lazy_step_cells: 256, ..ApplyOptions::default() },
    );
    controller.attach_sink(&mut events);
    let stats = controller.run_to_completion(&mut vm).expect("lazy update applies");
    drop(controller);
    let lazy = outcome(&mut vm, stats.objects_transformed);
    assert_eq!(lazy, eager, "the converting scan diverged from eager");
    assert_ne!(lazy.trace, 1, "the User transformer ran");

    let users = USERS as usize;
    let scans = scan_steps(&events.events);
    assert!(scans.len() > 1, "the scan ran in several steps: {scans:?}");
    assert_eq!(totals(&scans), (2 * users, users), "found every object, converted every Tag");
    assert_eq!(totals(&scavenge_steps(&events.events)), (users, 0), "the drain ran the Users");
    assert_eq!(epoch_totals(&events.events), (2 * users, users));
    assert_eq!((stats.objects_transformed, stats.objects_planned), (2 * users, users));
}

/// A semispace that fills part way through the scan: the conversions it
/// has no room for fall back to the worklist — the unconverted tail, in
/// ascending address order — and the drain collects and converts them.
/// The epoch ends on the eager heap with the eager count.
#[test]
fn a_semispace_full_mid_scan_leaves_the_tail_to_the_drain() {
    let fixture = flat_planned_fixture();
    let nodes = FLAT_NODES as usize;
    // Room for the v1 heap plus half as many words again as the nodes
    // hold: an eager commit fits (each node grows by one word), but
    // converting every node beside its original does not.
    let (probe, _) = make_vm_sized(&fixture, true, FLAT_HEAP_WORDS);
    let semispace = probe.heap().used_words() + 2 * nodes;
    drop(probe);
    let eager = run_eager_sized(&fixture, semispace);
    assert_eq!(eager.objects_transformed, nodes);

    let (mut vm, update) = make_vm_sized(&fixture, true, semispace);
    let mut events = MemorySink::default();
    let mut controller = UpdateController::new(&update, ApplyOptions::default());
    controller.attach_sink(&mut events);
    let mut tail = None;
    let stats = loop {
        let scanning = vm.lazy_stage() == LazyStage::Scan;
        match controller.step(&mut vm) {
            StepProgress::Pending(UpdatePhase::LazyMigrating) => {
                if scanning && vm.lazy_stage() != LazyStage::Scan {
                    tail = Some(vm.lazy_worklist().to_vec());
                }
            }
            StepProgress::Pending(_) => {}
            StepProgress::Committed => break controller.stats().clone(),
            StepProgress::Aborted => panic!("lazy update aborted: {:?}", controller.error()),
        }
    };
    drop(controller);
    let lazy = outcome(&mut vm, stats.objects_transformed);
    assert_eq!(lazy, eager, "the refused conversions diverged from eager");
    assert_eq!((stats.objects_transformed, stats.objects_planned), (nodes, nodes));

    let tail = tail.expect("the scan finished");
    let (found, converted) = totals(&scan_steps(&events.events));
    assert_eq!(found, nodes, "the scan found every node");
    assert!(converted > 0 && converted < nodes, "the semispace filled mid-scan: {converted}");
    assert_eq!(tail.len(), nodes - converted, "every refused conversion was queued");
    assert!(tail.windows(2).all(|w| w[0].0 < w[1].0), "the tail is out of address order");
    assert_eq!(totals(&scavenge_steps(&events.events)), (tail.len(), tail.len()));
}

/// A full collection that lands between two scan steps completes the
/// scan first, and that completion scan converts too: the collection
/// leaves nothing to drain, no further scan step runs, and the epoch ends
/// on the eager heap.
#[test]
fn gc_between_scan_steps_converts_in_the_completion_scan() {
    let fixture = flat_planned_fixture();
    let nodes = FLAT_NODES as usize;
    let eager = run_eager_sized(&fixture, FLAT_HEAP_WORDS);

    let (mut vm, update) = make_vm_sized(&fixture, true, FLAT_HEAP_WORDS);
    let mut events = MemorySink::default();
    let mut controller = UpdateController::new(
        &update,
        ApplyOptions { lazy_step_cells: FLAT_STEP_CELLS, ..ApplyOptions::default() },
    );
    controller.attach_sink(&mut events);
    let mut collected = false;
    let stats = loop {
        let scanning = vm.lazy_stage() == LazyStage::Scan;
        match controller.step(&mut vm) {
            StepProgress::Pending(UpdatePhase::LazyMigrating) if scanning && !collected => {
                assert_eq!(vm.lazy_stage(), LazyStage::Scan, "one step did not finish the scan");
                vm.collect_full(&NoRemap).expect("mid-scan GC succeeds");
                collected = true;
                assert_eq!(vm.lazy_stage(), LazyStage::Collapse, "nothing was left to drain");
            }
            StepProgress::Pending(_) => {}
            StepProgress::Committed => break controller.stats().clone(),
            StepProgress::Aborted => panic!("lazy update aborted: {:?}", controller.error()),
        }
    };
    drop(controller);
    let lazy = outcome(&mut vm, stats.objects_transformed);
    assert_eq!(lazy, eager, "a GC between scan steps broke the oracle");
    assert_eq!((stats.objects_transformed, stats.objects_planned), (nodes, nodes));

    let scans = scan_steps(&events.events);
    assert_eq!(scans.len(), 1, "no scan step runs after the collection: {scans:?}");
    assert!(scans[0].1 > 0 && scans[0].1 < nodes, "{scans:?}");
    assert!(scavenge_steps(&events.events).is_empty(), "the drain ran");
}

/// Property test: randomized interleavings of guest execution (touching
/// objects through the read barrier), scavenger batches, and forced full
/// GCs while the epoch drains. Every interleaving must converge to the
/// eager outcome.
#[test]
fn random_interleavings_of_guest_scavenger_and_gc_match_eager() {
    const NODES: i64 = 120;
    let fixture = ring_fixture(NODES);
    let eager = run_eager(&fixture);

    for seed in 0..12 {
        let mut rng = Rng::new(seed);
        let (mut vm, update) = make_vm(&fixture, true);
        // A guest thread that keeps reading the whole ring while the
        // epoch drains: every read goes through the barrier.
        vm.spawn("App", "churn").expect("churn spawns");

        let batch = 1 + rng.below(9);
        let mut controller = UpdateController::new(
            &update,
            ApplyOptions { lazy_scavenge_batch: batch, ..ApplyOptions::default() },
        );
        let stats = loop {
            match controller.step(&mut vm) {
                StepProgress::Pending(UpdatePhase::LazyMigrating) => match rng.below(4) {
                    0 => {
                        vm.collect_full(&NoRemap).expect("mid-epoch GC succeeds");
                    }
                    1 => {}
                    _ => {
                        vm.run_slices(1 + rng.below(3));
                    }
                },
                StepProgress::Pending(_) => {}
                StepProgress::Committed => break controller.stats().clone(),
                StepProgress::Aborted => {
                    panic!("seed {seed}: lazy update aborted: {:?}", controller.error())
                }
            }
        };
        // Let the churner finish before fingerprinting.
        vm.run_to_completion(1_000_000);
        let lazy = outcome(&mut vm, stats.objects_transformed);
        assert_eq!(lazy, eager, "seed {seed} (batch {batch}): interleaving diverged");
    }
}

/// A transformer set that force-chases a deep chain raises the typed
/// depth error — from the eager update-log path and from the lazy
/// barrier path alike — instead of overflowing the guest stack. A chain
/// under the limit still transforms fine in both modes.
#[test]
fn deep_force_transform_chains_raise_a_typed_depth_error() {
    let fixture = |n: i64| Fixture {
        v1: DEEP_CHAIN_V1,
        v2: DEEP_CHAIN_V2,
        transformers: DEEP_CHAIN_TRANSFORMERS,
        build_args: vec![Value::Int(n)],
    };

    for lazy in [false, true] {
        // Under the limit: commits, and the head's depth proves the
        // recursion reached the tail.
        let (mut vm, update) = make_vm(&fixture(100), lazy);
        let stats = jvolve_repro::dsu::apply(&mut vm, &update, &ApplyOptions::default())
            .unwrap_or_else(|e| panic!("lazy={lazy}: 100-node chain applies: {e}"));
        assert_eq!(stats.objects_transformed, 100);
        let Value::Ref(head) = vm.read_static("App", "head") else { panic!("head is null") };
        assert_eq!(vm.read_field(head, "depth"), Value::Int(99), "lazy={lazy}");

        // Over the limit: the typed error, not a guest stack overflow.
        let (mut vm, update) = make_vm(&fixture(200), lazy);
        let err = jvolve_repro::dsu::apply(&mut vm, &update, &ApplyOptions::default())
            .expect_err("200-node forced chain must exceed the depth limit");
        match err {
            UpdateError::Vm(VmError::TransformerDepthExceeded { limit }) => {
                assert_eq!(limit, jvolve_repro::vm::MAX_TRANSFORMER_DEPTH, "lazy={lazy}");
            }
            other => panic!("lazy={lazy}: expected depth error, got {other:?}"),
        }
    }
}

/// Transformers that force a reference cycle are ill-defined; both
/// protocols must reject them with `TransformerCycle` (paper §3.4).
#[test]
fn force_transform_cycles_raise_a_typed_cycle_error() {
    let fixture = Fixture {
        v1: CYCLE_V1,
        v2: CYCLE_V2,
        transformers: CYCLE_TRANSFORMERS,
        build_args: vec![],
    };
    for lazy in [false, true] {
        let (mut vm, update) = make_vm(&fixture, lazy);
        let err = jvolve_repro::dsu::apply(&mut vm, &update, &ApplyOptions::default())
            .expect_err("cyclic force-transform must abort");
        match err {
            UpdateError::Vm(VmError::TransformerCycle) => {}
            other => panic!("lazy={lazy}: expected cycle error, got {other:?}"),
        }
    }
}
