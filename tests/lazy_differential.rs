//! Differential oracle for lazy migration: an update committed in lazy
//! mode (the update-GC as an incremental copy behind a read barrier,
//! `VmConfig::lazy_migration`) must be observationally identical to the
//! same update committed eagerly — same final heap fingerprint, same
//! reachable-state checksums, same transformer multiset — no matter how
//! guest execution, copy steps, and full GCs interleave while the epoch
//! copies. Every step loop also checks the epoch's invariants
//! (`Vm::check_epoch_invariants`) after every step.

mod testkit;

use testkit::Rng;

use jvolve_repro::dsu::{
    ApplyOptions, MemorySink, StepProgress, Update, UpdateController, UpdateError, UpdateEvent,
    UpdatePhase, UpdateStats,
};
use jvolve_repro::vm::heap::NoRemap;
use jvolve_repro::vm::{CopyStep, LazyStage, Value, Vm, VmConfig, VmError};

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
/// head, so the eager update log runs the tail first, and the lazy copy —
/// which reaches the head first, through the static — forces its way down
/// to the tail before anything unwinds: `Dsu.forceTransform(from.next)`
/// always hits an already-transformed referent by the time depth is read.
/// The rolling (order-sensitive) trace must therefore match *exactly*
/// across modes.
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

/// Chain allocated *head first*: the first update-log entry is the head in
/// both modes, so a forcing transformer recurses through the entire chain
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

/// Every node lives in one array and no node references another: an array
/// many copy-step budgets long, which the copy evacuates unfilled and then
/// fills piecewise. `garbage`, `keep` and `litter` let a test allocate
/// mid-epoch.
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
  static field big: int[];
  static method garbage(words: int): void { var a: int[] = new int[words]; }
  static method keep(words: int): void { App.big = new int[words]; }
  static method litter(n: int): void {
    var i: int = 0;
    while (i < n) { var a: int[] = new int[4]; i = i + 1; }
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
  static field big: int[];
  static method garbage(words: int): void { var a: int[] = new int[words]; }
  static method keep(words: int): void { App.big = new int[words]; }
  static method litter(n: int): void {
    var i: int = 0;
    while (i < n) { var a: int[] = new int[4]; i = i + 1; }
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
/// copy plan, so the copy converts every node where it evacuates it and
/// logs nothing.
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
/// plan. The copy converts the tags where it evacuates them and logs the
/// users, whose transformers its steps run.
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
/// the two protocols (the copy's order follows the steps and the guest's
/// loads), so only address-independent observables qualify:
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

/// An eager commit's outcome, its stats, and the heap words it leaves in
/// use (read before the outcome's checksum runs).
struct Eager {
    outcome: Outcome,
    stats: UpdateStats,
    used_words: usize,
}

fn run_eager(fixture: &Fixture) -> Eager {
    run_eager_sized(fixture, VmConfig::small().semispace_words)
}

fn run_eager_sized(fixture: &Fixture, semispace_words: usize) -> Eager {
    let (mut vm, update) = make_vm_sized(fixture, false, semispace_words);
    let stats = jvolve_repro::dsu::apply(&mut vm, &update, &ApplyOptions::default())
        .expect("eager update applies");
    assert!(!vm.lazy_epoch_active());
    let used_words = vm.heap().used_words();
    Eager { outcome: outcome(&mut vm, stats.objects_transformed), stats, used_words }
}

/// Panics with the first violated epoch invariant.
fn check_epoch(vm: &mut Vm) {
    vm.check_epoch_invariants().unwrap_or_else(|e| panic!("epoch invariant broken: {e}"));
}

/// Steps `controller` to its commit. After every `LazyMigrating` step —
/// the flip's, then each copy step's — it checks the epoch's invariants,
/// hands `between` the VM and the number of copy steps run so far — for
/// guest slices, collections, allocations: whatever the test interleaves
/// — and checks them again.
fn drive(
    controller: &mut UpdateController,
    vm: &mut Vm,
    mut between: impl FnMut(&mut Vm, usize),
) -> UpdateStats {
    let mut copy_steps = 0;
    loop {
        copy_steps += usize::from(controller.phase() == UpdatePhase::LazyMigrating);
        match controller.step(vm) {
            StepProgress::Pending(UpdatePhase::LazyMigrating) => {
                check_epoch(vm);
                between(vm, copy_steps);
                check_epoch(vm);
            }
            StepProgress::Pending(_) => {}
            StepProgress::Committed => return controller.stats().clone(),
            StepProgress::Aborted => panic!("lazy update aborted: {:?}", controller.error()),
        }
    }
}

/// [`FLAT_V1`]'s population: one array longer than a copy step's budget
/// many times over, on a heap that holds the whole epoch (the originals,
/// an old copy and a new object per node) without collecting.
const FLAT_NODES: i64 = 20_000;
const FLAT_HEAP_WORDS: usize = 512 * 1024;
/// The copy budget of the flat tests: a fortieth of the array.
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

/// Every copy step in `events`.
fn copy_steps(events: &[UpdateEvent]) -> Vec<CopyStep> {
    events
        .iter()
        .filter_map(|e| match *e {
            UpdateEvent::LazyCopyStep { cells, words, planned, logged, done } => {
                Some(CopyStep { cells, words, planned, logged, done })
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

/// The `(planned, logged)` sums over copy steps.
fn step_totals(steps: &[CopyStep]) -> (usize, usize) {
    steps.iter().fold((0, 0), |(p, l), s| (p + s.planned, l + s.logged))
}

// ---- tests -------------------------------------------------------------

/// The core oracle: a controller-driven lazy commit — the flip, copy
/// steps that evacuate and transform, the epoch's end — is
/// observationally identical to the eager commit, copies exactly the
/// cells and words the eager update-GC copies, and leaves exactly the
/// eager heap's words in use; and its event stream tells the story.
#[test]
fn lazy_commit_is_observationally_identical_to_eager() {
    const NODES: i64 = 400;
    let fixture = ring_fixture(NODES);
    let eager = run_eager(&fixture);
    assert_eq!(eager.outcome.objects_transformed, NODES as usize);
    assert_eq!(eager.outcome.trace, NODES * NODES, "sum of 2i+1 over all ids");

    let (mut vm, update) = make_vm(&fixture, true);
    let mut events = MemorySink::default();
    let mut controller = UpdateController::new(
        &update,
        ApplyOptions { lazy_scavenge_batch: 64, ..ApplyOptions::default() },
    );
    controller.attach_sink(&mut events);
    let stats = drive(&mut controller, &mut vm, |_, _| {});
    drop(controller);
    assert!(!vm.lazy_epoch_active(), "epoch completed");
    assert_eq!(vm.heap().used_words(), eager.used_words, "the epoch ends on the eager heap");

    let lazy = outcome(&mut vm, stats.objects_transformed);
    assert_eq!(lazy, eager.outcome, "lazy diverged from eager");
    assert_eq!(
        (stats.gc_copied_cells, stats.gc_copied_words),
        (eager.stats.gc_copied_cells, eager.stats.gc_copied_words),
        "the incremental copy copied what the update-GC copies"
    );

    let from_words = events.events.iter().find_map(|e| match e {
        UpdateEvent::LazyEpochBegun { from_words, .. } => Some(*from_words),
        _ => None,
    });
    assert!(from_words.expect("epoch begun") > 0, "the flip left the v1 heap in from-space");
    let steps = copy_steps(&events.events);
    assert_eq!(step_totals(&steps).1, NODES as usize, "the steps logged every stale node once");
    assert!(steps.last().is_some_and(|s| s.done), "{steps:?}");
    assert!(
        events.events.iter().any(|e| matches!(e, UpdateEvent::GcCompleted { .. })),
        "the copy was reported as the update's collection"
    );
    assert!(
        events.events.iter().any(|e| matches!(e, UpdateEvent::Committed { .. })),
        "lazy run committed"
    );
    // Lazy-phase wall time is booked; no stop-the-world collection runs
    // (the in-pause heap cost is the O(roots) flip); and the phase sum
    // stays consistent with the independently-measured total.
    assert!(stats.lazy_time > std::time::Duration::ZERO);
    assert_eq!(stats.gc_time, std::time::Duration::ZERO, "lazy mode never runs a commit GC");
    assert_eq!(stats.lazy_collapse_time, std::time::Duration::ZERO, "no collapse pass");
    assert!(stats.phase_sum() <= stats.total_time, "{stats:?}");
}

/// The JDrums/DVM indirection baseline is an epoch held open: the
/// controller is stepped only until the copy starts, then never again.
/// Every node must still migrate — through the read barrier alone, with
/// the update's real transformer — until a full collection that lands in
/// the middle of the guest's traversal finishes the copy. The epoch stays
/// open with no copy step ever run, yet ends on the eager heap. A barrier
/// that let the guest see a node before its transformer ran fails the
/// trace/checksum oracle.
#[test]
fn held_open_epoch_migrates_through_the_barrier_alone() {
    const NODES: i64 = 400;
    let fixture = ring_fixture(NODES);
    let eager = run_eager(&fixture).outcome;

    let (mut vm, update) = make_vm(&fixture, true);
    let mut events = MemorySink::default();
    {
        let mut controller = UpdateController::new(&update, ApplyOptions::default());
        controller.attach_sink(&mut events);
        loop {
            check_epoch(&mut vm);
            match controller.step(&mut vm) {
                StepProgress::Pending(UpdatePhase::LazyMigrating) => break,
                StepProgress::Pending(_) => {}
                other => panic!("update ended before arming: {other:?} {:?}", controller.error()),
            }
        }
    }
    check_epoch(&mut vm);

    // One slice reaches part way through the ring; the collection then
    // finishes the copy of a half-migrated heap.
    let id = vm.spawn("App", "checksum").expect("checksum spawns");
    vm.run_slices(1);
    assert!(vm.thread(id).is_some_and(|t| t.is_live()), "the GC lands mid-traversal");
    check_epoch(&mut vm);
    vm.collect_full(&NoRemap).expect("mid-epoch GC succeeds");
    check_epoch(&mut vm);
    assert_eq!(vm.lazy_stage(), LazyStage::Done, "the collection finished the copy");
    assert!(vm.run_to_completion(1_000_000));
    let first = vm.thread(id).and_then(|t| t.result).expect("checksum returns").as_int();
    assert_eq!(first, eager.checksum, "traversal across the GC diverged");

    let again = vm.call_static_sync("App", "checksum", &[]).expect("checksum runs");
    assert_eq!(again, Some(Value::Int(eager.checksum)));
    assert_eq!(vm.read_static("App", "trace"), Value::Int(eager.trace));
    assert_eq!(vm.heap_fingerprint(), eager.heap_fingerprint, "the copy ended on another heap");
    assert!(vm.lazy_epoch_active(), "nothing closed the epoch");
    assert!(copy_steps(&events.events).is_empty(), "the held-open epoch ran a copy step");
}

/// Objects allocated while the epoch copies land in to-space, behind
/// nothing the copy could remap: they are born new-version (no executable
/// code can allocate an old-version instance once the update is
/// installed), the copy logs exactly the v1 population, and the final
/// state matches an eager commit followed by the same allocations.
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

    // Lazy: one allocation after every copy step while the epoch copies,
    // finishing any remainder after the commit (the reference allocated
    // all of them post-commit, which is equivalent — both sequences only
    // keep the last extra node live).
    let (mut vm, update) = make_vm(&fixture, true);
    let mut events = MemorySink::default();
    let mut controller = UpdateController::new(
        &update,
        ApplyOptions { lazy_scavenge_batch: 16, lazy_step_cells: 64, ..ApplyOptions::default() },
    );
    controller.attach_sink(&mut events);
    let mut allocated = 0;
    let stats = drive(&mut controller, &mut vm, |vm, _| {
        if allocated < EXTRA {
            vm.call_static_sync("App", "allocone", &[Value::Int(allocated)])
                .expect("mid-epoch allocone runs");
            allocated += 1;
        }
    });
    drop(controller);
    assert!(allocated > 0, "allocations actually happened mid-epoch");
    for k in allocated..EXTRA {
        vm.call_static_sync("App", "allocone", &[Value::Int(k)]).expect("allocone runs");
    }

    let lazy = outcome(&mut vm, stats.objects_transformed);
    assert_eq!(lazy, eager, "mid-epoch allocation diverged from eager-then-allocate");
    let steps = copy_steps(&events.events);
    assert!(steps.len() > 1, "the copy ran in several steps: {steps:?}");
    assert_eq!(step_totals(&steps).1, NODES as usize, "the copy logged a node allocated mid-epoch");
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
    let mut controller = UpdateController::new(&update, ApplyOptions::default());
    let stats = drive(&mut controller, &mut vm, |_, _| {});
    drop(controller);
    assert_eq!(stats.objects_transformed, NODES as usize);
    let (lazy_trace, lazy_depth) = read_chain(&mut vm);
    assert_eq!(lazy_trace, eager_trace, "completion order diverged");
    assert_eq!(lazy_depth, eager_depth);
}

/// Full collections forced mid-epoch — the first finishes the copy and
/// flips, the later ones flip the finished heap while logged pairs may
/// still wait — must not lose stale objects or corrupt the pending pairs.
#[test]
fn gc_forced_mid_lazy_epoch_preserves_the_oracle() {
    const NODES: i64 = 300;
    let fixture = ring_fixture(NODES);
    let eager = run_eager(&fixture).outcome;

    let (mut vm, update) = make_vm(&fixture, true);
    let mut controller = UpdateController::new(
        &update,
        ApplyOptions { lazy_scavenge_batch: 17, ..ApplyOptions::default() },
    );
    let mut in_epoch = false;
    let stats = drive(&mut controller, &mut vm, |vm, _| {
        assert!(vm.lazy_epoch_active());
        vm.collect_full(&NoRemap).expect("mid-epoch GC succeeds");
        in_epoch = true;
    });
    drop(controller);
    assert!(in_epoch, "the update actually went through a lazy epoch");
    let lazy = outcome(&mut vm, stats.objects_transformed);
    assert_eq!(lazy, eager, "mid-epoch GCs broke the oracle");
}

/// A copy step charges at most its budget even when one reference array
/// holds every stale referent: the array is evacuated unfilled and filled
/// an element a unit, the step stopping inside it, so the 20 000 slots
/// fill over many steps, never in one — and the array reads correctly
/// throughout, from to-space below the fill cursor and from its original
/// above it.
#[test]
fn copy_steps_stop_inside_a_long_array_within_their_budget() {
    let fixture = flat_planned_fixture();
    let eager = run_eager_sized(&fixture, FLAT_HEAP_WORDS).outcome;

    let (mut vm, update) = make_vm_sized(&fixture, true, FLAT_HEAP_WORDS);
    let mut events = MemorySink::default();
    let mut controller = UpdateController::new(
        &update,
        ApplyOptions { lazy_step_cells: FLAT_STEP_CELLS, ..ApplyOptions::default() },
    );
    controller.attach_sink(&mut events);
    let inside = FLAT_NODES as usize / FLAT_STEP_CELLS;
    let (mut unfilled_after, mut read_across) = (0, false);
    let stats = drive(&mut controller, &mut vm, |vm, steps| {
        let Value::Ref(nodes) = vm.read_static("App", "nodes") else { panic!("nodes is null") };
        if vm.heap().header_tag(nodes) != 0 {
            unfilled_after += 1;
            if steps == inside / 2 {
                // A guest read across the fill cursor sees every node.
                let sum = vm.call_static_sync("App", "checksum", &[]).expect("checksum runs");
                assert_eq!(sum, Some(Value::Int(eager.checksum)), "a half-filled array misread");
                read_across = true;
            }
        }
    });
    drop(controller);
    let lazy = outcome(&mut vm, stats.objects_transformed);
    assert_eq!(lazy, eager, "the bounded copy diverged from eager");

    let steps = copy_steps(&events.events);
    for (i, step) in steps.iter().enumerate() {
        assert!(step.cells <= FLAT_STEP_CELLS, "copy step {i} charged {} cells", step.cells);
    }
    assert!(unfilled_after >= inside, "{unfilled_after} steps ended inside the array");
    assert!(read_across, "the guest never read the half-filled array");
    assert_eq!(stats.objects_planned, FLAT_NODES as usize);
}

/// A full collection that lands between two copy steps, with the array
/// still being filled, finishes the copy itself — its interpreted
/// transformers included: the epoch commits with the eager heap
/// fingerprint and runs no further copy step.
#[test]
fn gc_between_copy_steps_inside_an_array_finishes_the_copy() {
    let fixture = flat_fixture();
    let eager = run_eager_sized(&fixture, FLAT_HEAP_WORDS).outcome;

    let (mut vm, update) = make_vm_sized(&fixture, true, FLAT_HEAP_WORDS);
    let mut events = MemorySink::default();
    let mut controller = UpdateController::new(
        &update,
        ApplyOptions {
            lazy_step_cells: FLAT_STEP_CELLS,
            lazy_scavenge_batch: FLAT_STEP_CELLS,
            ..ApplyOptions::default()
        },
    );
    controller.attach_sink(&mut events);
    // Two copy steps, then the collection: both steps end inside the
    // array, which is longer than two budgets.
    let stats = drive(&mut controller, &mut vm, |vm, steps| {
        if steps == 2 {
            assert_eq!(vm.lazy_stage(), LazyStage::Copy);
            vm.collect_full(&NoRemap).expect("mid-copy GC succeeds");
            assert_eq!(vm.lazy_stage(), LazyStage::Done, "the collection finished the copy");
        }
    });
    drop(controller);
    let lazy = outcome(&mut vm, stats.objects_transformed);
    assert_eq!(lazy, eager, "a GC inside the array's fill broke the oracle");

    let steps = copy_steps(&events.events);
    assert_eq!(steps.len(), 2, "no copy step runs after the collection: {steps:?}");
    for step in steps {
        assert!(!step.done && step.cells == FLAT_STEP_CELLS && step.logged > 0, "{step:?}");
    }
}

/// A Figure-3-style release mixes both kinds of transformer: the copy
/// converts every planned `Tag` where it evacuates it, and logs the
/// `User`s, whose transformer must be interpreted — the steps run them in
/// ascending address order, as the eager update log does, so the
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
    let eager = run_eager(&fixture).outcome;
    assert_eq!(eager.objects_transformed, 2 * USERS as usize);

    let (mut vm, update) = make_vm(&fixture, true);
    let mut events = MemorySink::default();
    let mut controller = UpdateController::new(
        &update,
        ApplyOptions { lazy_scavenge_batch: 16, lazy_step_cells: 256, ..ApplyOptions::default() },
    );
    controller.attach_sink(&mut events);
    let stats = drive(&mut controller, &mut vm, |_, _| {});
    drop(controller);
    let lazy = outcome(&mut vm, stats.objects_transformed);
    assert_eq!(lazy, eager, "the copy diverged from eager");
    assert_ne!(lazy.trace, 1, "the User transformer ran");

    let users = USERS as usize;
    let steps = copy_steps(&events.events);
    assert!(steps.len() > 1, "the copy ran in several steps: {steps:?}");
    assert!(steps.iter().all(|s| s.logged <= 16), "a step overran its batch: {steps:?}");
    assert_eq!(step_totals(&steps), (users, users), "converted every Tag, logged every User");
    assert_eq!(epoch_totals(&events.events), (2 * users, users));
    assert_eq!((stats.objects_transformed, stats.objects_planned), (2 * users, users));
}

/// The epoch needs no more room than the eager commit: on a semispace
/// sized to exactly what an eager commit leaves in use, the lazy commit
/// fits too — the copy goes into the other semispace and frees the one it
/// copies from — and ends on exactly the eager heap's words.
#[test]
fn an_epoch_fits_wherever_eager_fits() {
    let fixture = flat_planned_fixture();
    let semispace = run_eager_sized(&fixture, FLAT_HEAP_WORDS).used_words;
    let eager = run_eager_sized(&fixture, semispace);
    assert_eq!(eager.used_words, semispace, "the eager commit fills the semispace");

    let (mut vm, update) = make_vm_sized(&fixture, true, semispace);
    let mut controller = UpdateController::new(
        &update,
        ApplyOptions { lazy_step_cells: FLAT_STEP_CELLS, ..ApplyOptions::default() },
    );
    let stats = drive(&mut controller, &mut vm, |_, _| {});
    drop(controller);
    assert_eq!(vm.heap().used_words(), eager.used_words, "the epoch ended on another heap");
    assert_eq!(stats.gc_copied_words, eager.stats.gc_copied_words);
    assert_eq!(vm.stats().gcs, 0, "the epoch needed no collection");
    let lazy = outcome(&mut vm, stats.objects_transformed);
    assert_eq!(lazy, eager.outcome, "the tight epoch diverged from eager");
    assert_eq!(
        (stats.objects_transformed, stats.objects_planned),
        (FLAT_NODES as usize, FLAT_NODES as usize)
    );
}

/// A mutator that allocates mid-epoch in a tight semispace: its garbage
/// fills to-space until an allocation fails with the copy still running.
/// The collection that follows finishes the copy in the room held back
/// for it and then flips, reclaiming the garbage, and the retried
/// allocation fits. The run still matches eager, which flips once for
/// the same allocations after its commit.
#[test]
fn a_full_to_space_mid_epoch_finishes_the_copy_then_flips() {
    let fixture = flat_planned_fixture();
    let live = run_eager_sized(&fixture, FLAT_HEAP_WORDS).used_words;
    // Three eager heaps of room: garbage of 1.5 heaps fits beside the
    // copy, a 1.6-heap array then fits neither beside the copy nor beside
    // the finished copy and the garbage — only after the flip.
    let semispace = 3 * live;
    let (garbage, keep) = (Value::Int((live * 3 / 2) as i64), Value::Int((live * 8 / 5) as i64));
    let allocate = |vm: &mut Vm| {
        vm.call_static_sync("App", "garbage", &[garbage]).expect("garbage fits");
        vm.call_static_sync("App", "keep", &[keep]).expect("keep fits after a flip");
    };

    let (mut vm, update) = make_vm_sized(&fixture, false, semispace);
    let stats = jvolve_repro::dsu::apply(&mut vm, &update, &ApplyOptions::default())
        .expect("eager update applies");
    let gcs = vm.stats().gcs;
    allocate(&mut vm);
    assert_eq!(vm.stats().gcs, gcs + 1, "eager flips once for the allocations");
    let eager = outcome(&mut vm, stats.objects_transformed);

    let (mut vm, update) = make_vm_sized(&fixture, true, semispace);
    let mut controller = UpdateController::new(
        &update,
        ApplyOptions { lazy_step_cells: FLAT_STEP_CELLS, ..ApplyOptions::default() },
    );
    let mut allocated = false;
    let stats = drive(&mut controller, &mut vm, |vm, steps| {
        if steps == 1 && !allocated {
            allocated = true;
            assert_eq!(vm.lazy_stage(), LazyStage::Copy, "one step does not finish the copy");
            let gcs = vm.stats().gcs;
            allocate(vm);
            assert_eq!(vm.lazy_stage(), LazyStage::Done, "the full to-space finished the copy");
            assert_eq!(vm.stats().gcs, gcs + 1, "the collection flipped once");
        }
    });
    drop(controller);
    assert!(allocated, "the update went through a lazy epoch");
    let lazy = outcome(&mut vm, stats.objects_transformed);
    assert_eq!(lazy, eager, "finish-then-flip diverged from eager");
}

/// Small garbage allocated mid-epoch on a semispace only twice the eager
/// heap: one and a half heaps of five-word arrays after the first copy
/// step, far more than to-space holds beside the copy. Mutator allocation
/// is refused while it would eat into the room the copy may still need,
/// so the collection it triggers can always finish the copy and then flip
/// the garbage away — with a copy plan and with interpreted transformers
/// alike. Eager commits, then collects the same garbage.
#[test]
fn small_garbage_mid_epoch_on_a_tight_heap_matches_eager() {
    for fixture in [flat_planned_fixture(), flat_fixture()] {
        let live = run_eager_sized(&fixture, FLAT_HEAP_WORDS).used_words;
        let semispace = 2 * live;
        let arrays = Value::Int((live * 3 / 2 / 5) as i64);
        let litter = |vm: &mut Vm| {
            vm.call_static_sync("App", "litter", &[arrays]).expect("the garbage is collectable");
        };

        let (mut vm, update) = make_vm_sized(&fixture, false, semispace);
        let stats = jvolve_repro::dsu::apply(&mut vm, &update, &ApplyOptions::default())
            .expect("eager update applies");
        litter(&mut vm);
        let eager = outcome(&mut vm, stats.objects_transformed);

        let (mut vm, update) = make_vm_sized(&fixture, true, semispace);
        let mut controller = UpdateController::new(
            &update,
            ApplyOptions { lazy_step_cells: FLAT_STEP_CELLS, ..ApplyOptions::default() },
        );
        let mut littered = false;
        let stats = drive(&mut controller, &mut vm, |vm, steps| {
            if steps == 1 && !littered {
                littered = true;
                assert_eq!(vm.lazy_stage(), LazyStage::Copy, "one step does not finish the copy");
                litter(vm);
                assert_eq!(vm.lazy_stage(), LazyStage::Done, "a collection finished the copy");
            }
        });
        drop(controller);
        assert!(littered, "the update went through a lazy epoch");
        let lazy = outcome(&mut vm, stats.objects_transformed);
        assert_eq!(lazy, eager, "garbage beside the copy diverged from eager");
    }
}

/// A full collection that lands between two copy steps finishes the copy
/// itself, converting every node the steps had not reached: the
/// collection leaves nothing for another step, and the epoch ends on the
/// eager heap.
#[test]
fn gc_between_scan_steps_converts_in_the_completion_scan() {
    let fixture = flat_planned_fixture();
    let nodes = FLAT_NODES as usize;
    let eager = run_eager_sized(&fixture, FLAT_HEAP_WORDS).outcome;

    let (mut vm, update) = make_vm_sized(&fixture, true, FLAT_HEAP_WORDS);
    let mut events = MemorySink::default();
    let mut controller = UpdateController::new(
        &update,
        ApplyOptions { lazy_step_cells: FLAT_STEP_CELLS, ..ApplyOptions::default() },
    );
    controller.attach_sink(&mut events);
    let mut collected = false;
    let stats = drive(&mut controller, &mut vm, |vm, steps| {
        if steps == 1 && !collected {
            assert_eq!(vm.lazy_stage(), LazyStage::Copy, "one step did not finish the copy");
            vm.collect_full(&NoRemap).expect("mid-copy GC succeeds");
            collected = true;
            assert_eq!(vm.lazy_stage(), LazyStage::Done, "nothing was left to copy");
        }
    });
    drop(controller);
    let lazy = outcome(&mut vm, stats.objects_transformed);
    assert_eq!(lazy, eager, "a GC between copy steps broke the oracle");
    assert_eq!((stats.objects_transformed, stats.objects_planned), (nodes, nodes));

    let steps = copy_steps(&events.events);
    assert_eq!(steps.len(), 1, "no copy step runs after the collection: {steps:?}");
    assert!(steps[0].planned > 0 && steps[0].planned < nodes, "{steps:?}");
}

/// Property test: randomized interleavings of guest execution (loading
/// objects through the read barrier), copy steps, and forced full GCs
/// while the epoch copies. Every interleaving must converge to the eager
/// outcome.
#[test]
fn random_interleavings_of_guest_scavenger_and_gc_match_eager() {
    const NODES: i64 = 120;
    let fixture = ring_fixture(NODES);
    let eager = run_eager(&fixture).outcome;

    for seed in 0..12 {
        let mut rng = Rng::new(seed);
        let (mut vm, update) = make_vm(&fixture, true);
        // A guest thread that keeps reading the whole ring while the
        // epoch copies: every load of a from-space node is a barrier hit.
        vm.spawn("App", "churn").expect("churn spawns");

        let batch = 1 + rng.below(9);
        let mut controller = UpdateController::new(
            &update,
            ApplyOptions { lazy_scavenge_batch: batch, ..ApplyOptions::default() },
        );
        let stats = drive(&mut controller, &mut vm, |vm, _| match rng.below(4) {
            0 => {
                vm.collect_full(&NoRemap).expect("mid-epoch GC succeeds");
            }
            1 => {}
            _ => {
                vm.run_slices(1 + rng.below(3));
            }
        });
        drop(controller);
        // Let the churner finish before fingerprinting.
        vm.run_to_completion(1_000_000);
        let lazy = outcome(&mut vm, stats.objects_transformed);
        assert_eq!(lazy, eager, "seed {seed} (batch {batch}): interleaving diverged");
    }
}

/// A transformer set that force-chases a deep chain raises the typed
/// depth error — from the eager update-log path and from the lazy
/// copy alike — instead of overflowing the guest stack. A chain under the
/// limit still transforms fine in both modes.
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
