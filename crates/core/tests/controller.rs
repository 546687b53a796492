//! Controller-level tests: phase stepping, rollback fidelity, and the
//! atomicity guarantee (no embedder observation sees a half-installed
//! class).
//!
//! The rollback tests compare *deterministic registry fingerprints* taken
//! before the update starts and after it aborts: classes (name, layout,
//! ref map, TIB, dispatch and static tables, class-file method lists),
//! methods (definition, compiled code, counters), and the JTOC must all be
//! identical — the old version verifiably still runs.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use jvolve::{
    ApplyOptions, ControllerCounters, MemorySink, StepProgress, Update, UpdateController,
    UpdateError, UpdateEvent, UpdateEventSink, UpdatePhase, UpdateStats,
};
use jvolve_apps::harness::{app_vm_config, bench_apply_options, boot_with, custom_transformer};
use jvolve_apps::stream::prepare_via_upt;
use jvolve_apps::workload::scripted_session;
use jvolve_apps::{Emailserver, GuestApp};
use jvolve_upt::{prepare_classes, UptOptions};
use jvolve_vm::{LazyStage, MethodId, Value, Vm, VmConfig, VmError};

/// A deterministic dump of every registry table (HashMap-backed tables are
/// sorted before printing, so rebuilding a map during rollback cannot
/// produce a spurious diff).
fn registry_fingerprint(vm: &Vm) -> String {
    let reg = vm.registry();
    let mut out = String::new();
    for class in reg.classes() {
        writeln!(out, "class {} name={} super={:?}", class.id, class.name, class.super_id)
            .unwrap();
        writeln!(out, "  layout={:?}", class.layout).unwrap();
        writeln!(out, "  ref_map={:?}", class.ref_map).unwrap();
        writeln!(out, "  tib={:?}", class.tib).unwrap();
        let mut vslots: Vec<_> = class.vslots.iter().collect();
        vslots.sort();
        writeln!(out, "  vslots={vslots:?}").unwrap();
        let mut statics: Vec<_> = class.statics.iter().collect();
        statics.sort_by_key(|(name, _)| name.as_str());
        writeln!(out, "  statics={statics:?}").unwrap();
        writeln!(out, "  file_methods={:?}", class.file.methods).unwrap();
    }
    for i in 0..reg.method_count() {
        let m = reg.method(MethodId(i as u32));
        writeln!(
            out,
            "method {} class={} name={} invalidations={}",
            m.id, m.class, m.name, m.invalidations
        )
        .unwrap();
        writeln!(out, "  def={:?}", m.def).unwrap();
        writeln!(out, "  compiled={:?}", m.compiled()).unwrap();
    }
    for slot in 0..reg.jtoc_len() {
        writeln!(
            out,
            "jtoc[{slot}]={} ref={}",
            reg.jtoc_get(slot as u32),
            reg.jtoc_is_ref(slot as u32)
        )
        .unwrap();
    }
    out
}

fn compile(src: &str) -> Vec<jvolve_classfile::ClassFile> {
    jvolve_lang::compile(src).expect("test source compiles")
}

/// v1 of a guest whose `spin` runs an effectively unbounded loop — any
/// update changing `spin` can never reach a DSU safe point.
const SPINNER_V1: &str = "
class App {
  static field mode: int;
  static method work(): int { App.mode = App.mode + 1; return App.mode; }
  static method spin(): int {
    var i: int = 0;
    while (i < 100000000) { i = i + 1; }
    return i;
  }
  static method main(): void { Sys.printInt(App.spin()); }
}";

/// v2 changes both `spin` (making it restricted and always on stack) and
/// `work` (an observable behavior change: +10 per call instead of +1).
const SPINNER_V2: &str = "
class App {
  static field mode: int;
  static method work(): int { App.mode = App.mode + 10; return App.mode; }
  static method spin(): int {
    var i: int = 0;
    while (i < 100000000) { i = i + 2; }
    return i;
  }
  static method main(): void { Sys.printInt(App.spin()); }
}";

fn boot_spinner() -> Vm {
    let mut vm = Vm::new(VmConfig { quantum: 50, ..VmConfig::small() });
    vm.load_classes(&compile(SPINNER_V1)).expect("v1 loads");
    vm.spawn("App", "main").expect("main spawns");
    // Get spin() onto the stack.
    for _ in 0..10 {
        vm.step_slice();
    }
    vm
}

#[test]
fn timeout_rolls_back_to_a_bit_identical_registry() {
    let mut vm = boot_spinner();
    let update = Update::prepare(&compile(SPINNER_V1), &compile(SPINNER_V2), "v1_")
        .expect("non-empty update");

    let before = registry_fingerprint(&vm);
    let mut events = MemorySink::default();
    let mut controller =
        UpdateController::new(&update, ApplyOptions { timeout_slices: 50, ..Default::default() });
    controller.attach_sink(&mut events);
    let err = controller.run(&mut vm, |_, _| {}).expect_err("spin blocks forever");
    assert!(
        matches!(&err, UpdateError::Timeout { blocking, .. } if blocking.iter().any(|b| b.contains("spin"))),
        "expected a timeout naming spin, got: {err}"
    );

    // The rollback must leave every registry table exactly as it was. The
    // spinner never enters or leaves a method while waiting, so even the
    // JIT counters cannot legitimately differ.
    let after = registry_fingerprint(&vm);
    assert_eq!(before, after, "timeout rollback must restore the registry bit-for-bit");

    // The event stream records the rollback.
    assert!(
        events.events.iter().any(|e| matches!(e, UpdateEvent::RolledBack { .. })),
        "a RolledBack event must be emitted"
    );
    assert!(
        events
            .events
            .iter()
            .any(|e| matches!(e, UpdateEvent::Aborted { rolled_back: true, .. })),
        "the Aborted event must record that the VM was rolled back"
    );

    // And the old version still runs: work() is v1's +1, not v2's +10.
    assert_eq!(
        vm.call_static_sync("App", "work", &[]).expect("old code runs"),
        Some(Value::Int(1))
    );
}

/// An embedder that steps the controller itself never runs `run`'s
/// reclaim; the next update's `Pending` step frees the code an earlier
/// change left retired, except what a frame still runs.
#[test]
fn the_pending_step_reclaims_retired_code_no_frame_runs() {
    let mut vm = boot_spinner();
    vm.call_static_sync("App", "work", &[]).expect("work runs");
    let app = vm.registry().class_id(&"App".into()).expect("App loaded");
    let work = vm.registry().find_method(app, "work").expect("work");
    let spin = vm.registry().find_method(app, "spin").expect("spin");
    let work_code = Arc::downgrade(vm.registry().method(work).compiled().expect("work ran"));
    vm.registry_mut().invalidate(work);
    vm.registry_mut().invalidate(spin);
    assert_eq!(vm.registry().retired().count(), 2);

    let update = Update::prepare(&compile(SPINNER_V1), &compile(SPINNER_V2), "v1_")
        .expect("non-empty update");
    let mut controller = UpdateController::new(&update, ApplyOptions::default());
    assert_eq!(controller.step(&mut vm), StepProgress::Pending(UpdatePhase::WaitingForSafePoint));
    assert!(work_code.upgrade().is_none(), "no frame ran work's old code");
    let kept: Vec<MethodId> = vm.registry().retired().map(|c| c.method).collect();
    assert_eq!(kept, [spin], "the spinning frame still runs spin's old code");
    assert_eq!(vm.check_code_refs(), Ok(()));
}

#[test]
fn bad_transformers_abort_in_pending_without_costing_a_safe_point() {
    // spin() is changed and always on stack, so this update can never
    // reach a safe point. A broken or retyped transformer source used to
    // be discovered only inside the install step: here that meant waiting
    // out the whole timeout and reporting `Timeout`. It is now rejected in
    // `Pending`, before a single poll, with nothing to roll back.
    let retyped = "class JvolveTransformers {
        static method jvolve_object_App(to: App, from: App): void { }
    }";
    let v2_layout = SPINNER_V2.replace("static field mode: int;", "static field mode: int; field pad: int;");
    for (source, want_compile) in [("this is not a valid MJ program {{{", true), (retyped, false)] {
        let mut vm = boot_spinner();
        let mut update = Update::prepare(&compile(SPINNER_V1), &compile(&v2_layout), "v1_")
            .expect("non-empty update");
        update.set_transformers_source(source);

        let before = registry_fingerprint(&vm);
        let slices_before = vm.stats().slices;
        let mut events = MemorySink::default();
        let mut controller = UpdateController::new(
            &update,
            ApplyOptions { timeout_slices: 50, ..Default::default() },
        );
        controller.attach_sink(&mut events);
        let err = controller.run(&mut vm, |_, _| {}).expect_err("transformers are unusable");
        if want_compile {
            assert!(matches!(err, UpdateError::Compile(_)), "got: {err}");
        } else {
            assert!(matches!(err, UpdateError::BadTransformer { .. }), "got: {err}");
        }
        assert_eq!(controller.phase(), UpdatePhase::Aborted);
        assert_eq!(controller.stats().slices_waited, 0, "no slice may be waited");
        let counters = controller.counters();
        assert_eq!(counters.polls, 0, "no safe-point poll may run");
        assert_eq!(counters.transformer_compiles, 1, "the hand-set source is compiled once");
        assert_eq!(counters.pause_compiles, 0);
        drop(controller);
        assert_eq!(vm.stats().slices, slices_before, "the guest was never stepped");

        assert!(
            events.events.iter().any(|e| matches!(e, UpdateEvent::RolledBack { actions_undone: 0, .. })),
            "the ledger must have been empty: {:?}",
            events.events
        );
        assert!(
            !events.events.iter().any(|e| matches!(e, UpdateEvent::PhaseEntered { .. })),
            "no phase may be entered: {:?}",
            events.events
        );
        assert_eq!(before, registry_fingerprint(&vm), "the registry must be untouched");
    }
}

/// A class the VM has loaded but no update payload knows about. A
/// transformer source that *also* defines it compiles, verifies and passes
/// the signature checks, but cannot be loaded: the one way left to fail at
/// the very end of the install step, after renames, strips, the new
/// batch, body swaps, invalidation and OSR.
const BYSTANDER: &str = "class Bystander { }";

/// Loads [`BYSTANDER`] into `vm` and makes `update`'s transformer batch
/// collide with it. A transformer class loads only with a class update,
/// so the update also class-updates a `Padded` class it ships.
fn rig_install_failure(vm: &mut Vm, update: &mut Update) {
    vm.load_classes(&compile(&format!("{BYSTANDER} class Padded {{ }}"))).expect("rig loads");
    let with = |set: &jvolve_classfile::ClassSet, src: &str| {
        set.iter().cloned().chain(compile(src)).collect::<Vec<_>>()
    };
    let old = with(&update.old_classes, "class Padded { }");
    let new = with(&update.new_classes, "class Padded { field pad: int; }");
    *update = Update::prepare(&old, &new, &update.spec.version_prefix).expect("rigged update");
    let source = format!("{}{BYSTANDER}", update.transformers_source());
    update.set_transformers_source(source);
}

#[test]
fn install_failure_rolls_back_mid_install() {
    // No thread is running restricted code, so the controller sails
    // through the safe point and fails *inside* the install phase when the
    // transformer batch cannot be loaded — after classes were renamed,
    // stripped, and the new batch loaded. All of it must be undone.
    let v1 = compile("class Counter { static field hits: int; field pad: int;
        static method bump(): int { Counter.hits = Counter.hits + 1; return Counter.hits; } }");
    let v2 = compile("class Counter { static field hits: int; field pad: int; field extra: int;
        static method bump(): int { Counter.hits = Counter.hits + 2; return Counter.hits; } }");
    let mut vm = Vm::new(VmConfig::small());
    vm.load_classes(&v1).expect("v1 loads");
    assert_eq!(vm.call_static_sync("Counter", "bump", &[]).unwrap(), Some(Value::Int(1)));

    let mut update = Update::prepare(&v1, &v2, "v1_").expect("non-empty update");
    rig_install_failure(&mut vm, &mut update);

    let before = registry_fingerprint(&vm);
    let mut events = MemorySink::default();
    let mut controller = UpdateController::new(&update, ApplyOptions::default());
    controller.attach_sink(&mut events);
    let err = controller.run(&mut vm, |_, _| {}).expect_err("transformer batch collides");
    assert!(matches!(err, UpdateError::Vm(VmError::LoadError { .. })), "got: {err}");
    assert_eq!(controller.phase(), UpdatePhase::Aborted);
    assert_eq!(controller.counters().pause_compiles, 0);
    drop(controller);
    assert!(
        events.events.iter().any(
            |e| matches!(e, UpdateEvent::RolledBack { actions_undone, .. } if *actions_undone >= 3)
        ),
        "rename, strip and batch load must all have been on the ledger: {:?}",
        events.events
    );

    let after = registry_fingerprint(&vm);
    assert_eq!(before, after, "mid-install rollback must restore the registry bit-for-bit");

    // Old code, old semantics, preserved statics: 1 + 1 = 2, not + 2.
    assert_eq!(vm.call_static_sync("Counter", "bump", &[]).unwrap(), Some(Value::Int(2)));
}

#[test]
fn malformed_spec_aborts_with_bad_spec_and_rolls_back() {
    // A spec that names a class missing from the payload used to panic the
    // host via expect(); it must now abort with BadSpec and roll back.
    let v1 = compile("class Widget { field a: int; method get(): int { return this.a; } }");
    let v2 = compile(
        "class Widget { field a: int; field b: int; method get(): int { return this.a; } }",
    );
    let mut vm = Vm::new(VmConfig::small());
    vm.load_classes(&v1).expect("v1 loads");

    let mut update = Update::prepare(&v1, &v2, "v1_").expect("non-empty update");
    // Sabotage the payload: the spec still lists Widget as a class update,
    // but the new version no longer carries it.
    update.new_classes.remove(&jvolve_classfile::ClassName::from("Widget"));

    let before = registry_fingerprint(&vm);
    let mut controller = UpdateController::new(&update, ApplyOptions::default());
    let err = controller.run(&mut vm, |_, _| {}).expect_err("payload is malformed");
    assert!(
        matches!(&err, UpdateError::BadSpec { message } if message.contains("Widget")),
        "got: {err}"
    );

    let after = registry_fingerprint(&vm);
    assert_eq!(before, after, "BadSpec rollback must restore the registry bit-for-bit");
    // In particular the rename of Widget → v1_Widget was undone.
    assert!(vm.registry().class_id(&jvolve_classfile::ClassName::from("Widget")).is_some());
    assert!(vm.registry().class_id(&jvolve_classfile::ClassName::from("v1_Widget")).is_none());
}

/// v1 of a guest that spins for a *bounded* stretch inside a changed
/// method, so the update must wait but eventually applies. `probe`
/// returns a version marker.
const SERVER_V1: &str = "
class Srv {
  static method probe(): int { return 1; }
  static method handle(): int {
    var i: int = 0;
    while (i < 60000) { i = i + 1; }
    return i;
  }
  static method main(): void { Sys.printInt(Srv.handle()); }
}";

const SERVER_V2: &str = "
class Srv {
  static method probe(): int { return 2; }
  static method handle(): int {
    var i: int = 0;
    while (i < 60000) { i = i + 2; }
    return i;
  }
  static method main(): void { Sys.printInt(Srv.handle()); }
}";

#[test]
fn interleaved_stepping_never_observes_a_half_installed_class() {
    let mut vm = Vm::new(VmConfig { quantum: 50, ..VmConfig::small() });
    vm.load_classes(&compile(SERVER_V1)).expect("v1 loads");
    vm.spawn("Srv", "main").expect("main spawns");
    for _ in 0..5 {
        vm.step_slice();
    }

    let update = Update::prepare(&compile(SERVER_V1), &compile(SERVER_V2), "v1_")
        .expect("non-empty update");
    let mut controller = UpdateController::new(&update, ApplyOptions::default());

    // Step the controller while serving "requests" (probe calls) between
    // waiting polls — the embedder keeps working mid-update. Every
    // observation must be fully-old (1) before commit and fully-new (2)
    // after; anything else would mean a request saw a half-installed
    // class.
    let mut observations_before_commit = 0;
    let committed = loop {
        match controller.step(&mut vm) {
            StepProgress::Pending(UpdatePhase::WaitingForSafePoint) => {
                let v = vm
                    .call_static_sync("Srv", "probe", &[])
                    .expect("probe serves during the wait");
                assert_eq!(
                    v,
                    Some(Value::Int(1)),
                    "a request observed non-v1 state before the update committed"
                );
                observations_before_commit += 1;
            }
            StepProgress::Pending(_) => {}
            StepProgress::Committed => break true,
            StepProgress::Aborted => break false,
        }
    };
    assert!(committed, "the bounded handler must eventually let the update in: {:?}",
        controller.error());
    assert!(
        observations_before_commit > 0,
        "the update must actually have waited while requests were served"
    );
    assert_eq!(
        vm.call_static_sync("Srv", "probe", &[]).expect("probe serves after the update"),
        Some(Value::Int(2)),
        "after commit every request sees v2"
    );
}

#[test]
fn phase_events_tell_the_protocol_story() {
    // A trivially-applicable update emits the phases in protocol order.
    let v1 = compile("class K { static method f(): int { return 1; } }");
    let v2 = compile("class K { static method f(): int { return 2; } }");
    let mut vm = Vm::new(VmConfig::small());
    vm.load_classes(&v1).expect("v1 loads");

    let update = Update::prepare(&v1, &v2, "v1_").expect("non-empty update");
    let mut events = MemorySink::default();
    let mut controller = UpdateController::new(&update, ApplyOptions::default());
    controller.attach_sink(&mut events);
    controller.run(&mut vm, |_, _| {}).expect("update applies");
    assert_eq!(controller.phase(), UpdatePhase::Committed);
    // The stats the wrapper returns flow from the same event stream.
    let stats = controller.stats().clone();
    drop(controller);
    assert_eq!(stats.bodies_swapped, 1);

    let entered: Vec<UpdatePhase> = events
        .events
        .iter()
        .filter_map(|e| match e {
            UpdateEvent::PhaseEntered { phase, .. } => Some(*phase),
            _ => None,
        })
        .collect();
    assert_eq!(
        entered,
        vec![
            UpdatePhase::WaitingForSafePoint,
            UpdatePhase::Installing,
            UpdatePhase::TransformingHeap
        ]
    );
    assert!(events.events.iter().any(|e| matches!(e, UpdateEvent::SafePointReached { .. })));
    assert!(events.events.iter().any(|e| matches!(e, UpdateEvent::Committed { .. })));
}

#[test]
fn json_trace_is_valid_and_ordered() {
    let v1 = compile("class K { field x: int; method get(): int { return this.x; } }");
    let v2 =
        compile("class K { field x: int; field y: int; method get(): int { return this.x; } }");
    let mut vm = Vm::new(VmConfig::small());
    vm.load_classes(&v1).expect("v1 loads");

    let update = Update::prepare(&v1, &v2, "v1_").expect("non-empty update");
    let mut trace = jvolve::JsonTraceSink::new();
    let mut controller = UpdateController::new(&update, ApplyOptions::default());
    controller.attach_sink(&mut trace);
    controller.run(&mut vm, |_, _| {}).expect("update applies");

    let json = trace.to_json();
    let reparsed = jvolve_json::Json::parse(&json.pretty()).expect("trace is valid JSON");
    assert_eq!(
        reparsed.get("schema").and_then(|v| v.as_str()),
        Some(jvolve::TRACE_SCHEMA),
        "trace carries the schema tag"
    );
    assert_eq!(
        reparsed.get("mode").and_then(|v| v.as_str()),
        Some("eager"),
        "an eager commit is labeled as such"
    );
    let entries = reparsed.get("events").and_then(|v| v.as_arr()).expect("trace has events");
    assert!(!entries.is_empty());
    let kinds: Vec<&str> =
        entries.iter().filter_map(|e| e.get("event").and_then(|v| v.as_str())).collect();
    assert_eq!(kinds.first(), Some(&"phase_entered"));
    assert_eq!(kinds.last(), Some(&"committed"));
    assert!(kinds.contains(&"classes_loaded"));
    assert!(kinds.contains(&"gc_completed"));
}

#[test]
fn rollback_re_resolves_warm_call_sites() {
    // Warm the call sites with hot pre-update targets (the installed
    // code is the template JIT's fused form), induce a mid-install
    // failure, and verify every call after the rollback runs the
    // *restored* old code: v1 semantics and a bit-identical registry.
    let v1 = compile(
        "class Counter {
           field n: int;
           ctor() { this.n = 0; }
           method tick(): int { this.n = this.n + 1; return this.n; }
         }
         class App {
           static field c: Counter;
           static method init(): void { App.c = new Counter(); }
           static method drive(calls: int): int {
             var last: int = 0;
             var i: int = 0;
             while (i < calls) { last = App.c.tick(); i = i + 1; }
             return last;
           }
         }",
    );
    let v2 = compile(
        "class Counter {
           field n: int;
           ctor() { this.n = 0; }
           method tick(): int { this.n = this.n + 1; return this.n + 1000; }
         }
         class App {
           static field c: Counter;
           static method init(): void { App.c = new Counter(); }
           static method drive(calls: int): int {
             var last: int = 0;
             var i: int = 0;
             while (i < calls) { last = App.c.tick(); i = i + 1; }
             return last;
           }
         }",
    );
    let mut vm = Vm::new(VmConfig::small());
    vm.load_classes(&v1).expect("v1 loads");
    vm.call_static_sync("App", "init", &[]).expect("init runs");
    // 500 calls: the installed `tick` is fused code and the sites are as
    // warm as they get.
    assert_eq!(
        vm.call_static_sync("App", "drive", &[Value::Int(500)]).unwrap(),
        Some(Value::Int(500))
    );

    let mut update = Update::prepare(&v1, &v2, "v1_").expect("non-empty update");
    rig_install_failure(&mut vm, &mut update);

    let before = registry_fingerprint(&vm);
    let mut controller = UpdateController::new(&update, ApplyOptions::default());
    let err = controller.run(&mut vm, |_, _| {}).expect_err("transformer batch collides");
    assert!(matches!(err, UpdateError::Vm(VmError::LoadError { .. })), "got: {err}");

    let after = registry_fingerprint(&vm);
    assert_eq!(before, after, "rollback must restore the registry bit-for-bit");

    // Execution through the previously warm sites: v1 semantics exactly
    // (tick is +1, not v2's +1000 offset), continuing the preserved state.
    assert_eq!(
        vm.call_static_sync("App", "drive", &[Value::Int(3)]).unwrap(),
        Some(Value::Int(503))
    );
}

// ---- transformer class files: compiled once, never inside the pause --------

const SHAPE_V1: &str = "
class Shape {
  field w: int;
  ctor(w: int) { this.w = w; }
  method area(): int { return this.w; }
}
class Main {
  static field s: Shape;
  static method setup(): void { Main.s = new Shape(6); }
  static method probe(): int { return Main.s.area(); }
}";

/// `Shape` gains a field (a class update with a required object
/// transformer) and `area` changes body.
const SHAPE_V2: &str = "
class Shape {
  field w: int;
  field h: int;
  ctor(w: int) { this.w = w; this.h = 1; }
  method area(): int { return this.w * 10 + this.h; }
}
class Main {
  static field s: Shape;
  static method setup(): void { Main.s = new Shape(6); }
  static method probe(): int { return Main.s.area(); }
}";

/// Boots [`SHAPE_V1`], applies `update` and returns the controller's
/// counters; the live `Shape` must read `want` afterwards.
fn apply_counted(update: &Update, lazy: bool, want: i64) -> ControllerCounters {
    let mut vm = Vm::new(VmConfig { lazy_migration: lazy, ..VmConfig::small() });
    vm.load_classes(&compile(SHAPE_V1)).expect("v1 loads");
    vm.call_static_sync("Main", "setup", &[]).expect("setup runs");
    let mut controller = UpdateController::new(update, ApplyOptions::default());
    controller.run(&mut vm, |_, _| {}).expect("update applies");
    let counters = controller.counters();
    drop(controller);
    assert_eq!(vm.call_static_sync("Main", "probe", &[]).unwrap(), Some(Value::Int(want)));
    counters
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("jvolve-controller-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn transformers_compile_at_most_once_and_never_inside_the_pause() {
    let (v1, v2) = (compile(SHAPE_V1), compile(SHAPE_V2));
    let upt = || {
        prepare_classes(&v1, &v2, &UptOptions::with_prefix("v1_")).expect("UPT prepares").update
    };
    for lazy in [false, true] {
        // UPT-prepared: the class files ship with the update.
        let c = apply_counted(&upt(), lazy, 60);
        assert_eq!((c.transformer_compiles, c.pause_compiles), (0, 0), "upt, lazy={lazy}");

        // Hand-prepared: the generated defaults are compiled in Pending.
        let hand = Update::prepare(&v1, &v2, "v1_").expect("update prepares");
        let c = apply_counted(&hand, lazy, 60);
        assert_eq!((c.transformer_compiles, c.pause_compiles), (1, 0), "prepare, lazy={lazy}");

        // Rebuilt from parts: compiled on arrival, not at apply time.
        let parts = Update::from_parts(hand.spec.clone(), &v1, &v2, hand.transformers_source())
            .expect("parts form an update");
        let c = apply_counted(&parts, lazy, 60);
        assert_eq!((c.transformer_compiles, c.pause_compiles), (0, 0), "from_parts, lazy={lazy}");

        // Bundle round trip: the bundle carries source only; the load
        // compiles it.
        let dir = temp_dir(if lazy { "bundle-lazy" } else { "bundle-eager" });
        jvolve::bundle::emit(&dir, &upt()).expect("bundle emits");
        let loaded = jvolve::bundle::load(&dir).expect("bundle loads");
        let _ = std::fs::remove_dir_all(&dir);
        let c = apply_counted(&loaded, lazy, 60);
        assert_eq!((c.transformer_compiles, c.pause_compiles), (0, 0), "bundle, lazy={lazy}");

        // Customised after the UPT ran: the shipped class files are
        // dropped, the new source is compiled in Pending, and it runs.
        let mut custom = upt();
        let edited = custom.transformers_source().replace("to.w = from.w;", "to.w = from.w + 1;");
        assert_ne!(edited, custom.transformers_source(), "the default copies `w`");
        custom.set_transformers_source(edited);
        let c = apply_counted(&custom, lazy, 70);
        assert_eq!((c.transformer_compiles, c.pause_compiles), (1, 0), "custom, lazy={lazy}");
    }
}

#[test]
fn setting_the_source_after_the_upt_ran_replaces_the_shipped_transformer() {
    // The paper's Figure 3 on the live email server (1.3.1 → 1.3.2): the
    // UPT's default leaves `User.forwardAddresses` null (its type changed);
    // the developer's transformer converts it. Attaching that transformer
    // to an update the UPT already compiled must drop the compiled
    // defaults — alice's forward list is the oracle.
    let app = Emailserver;
    let from = 5;
    let forwards = |vm: &mut Vm| {
        scripted_session(vm, 1100, &["USER alice", "FWD", "QUIT"], 40_000).expect("POP session")[1]
            .clone()
    };
    for lazy in [false, true] {
        for customise in [false, true] {
            let config = VmConfig { lazy_migration: lazy, ..app_vm_config() };
            let mut vm = boot_with(&app, from, config);
            assert_eq!(forwards(&mut vm), "+OK carol@ext.example.org");

            let mut update = prepare_via_upt(&app, from);
            if customise {
                let label = app.versions()[from + 1].label;
                update.set_transformers_source(custom_transformer(&app, label).expect("Figure 3"));
            }
            let mut controller = UpdateController::new(&update, bench_apply_options());
            controller.run(&mut vm, |_, _| {}).expect("1.3.2 applies");
            let counters = controller.counters();
            drop(controller);
            assert_eq!(counters.transformer_compiles, u64::from(customise));
            assert_eq!(counters.pause_compiles, 0);
            assert_eq!(
                forwards(&mut vm) == "+OK carol@ext.example.org",
                customise,
                "lazy={lazy}: the forward list survives exactly when Figure 3's transformer ran"
            );
        }
    }
}

#[test]
fn bundle_round_trip_compiles_to_the_same_bytes_as_the_upt() {
    let release = prepare_classes(
        &compile(SHAPE_V1),
        &compile(SHAPE_V2),
        &UptOptions::with_prefix("v1_"),
    )
    .expect("UPT prepares");
    let dir = temp_dir("bundle-bytes");
    jvolve::bundle::emit(&dir, &release.update).expect("bundle emits");
    let loaded = jvolve::bundle::load(&dir).expect("bundle loads");
    let _ = std::fs::remove_dir_all(&dir);

    let encode = |u: &Update| -> Vec<Vec<u8>> {
        let classes = u.compiled_transformers().expect("transformers compile");
        classes.iter().map(jvolve_classfile::codec::encode).collect()
    };
    assert_eq!(encode(&loaded), encode(&release.update));
}

#[test]
fn controllers_sharing_one_update_compile_it_once_between_them() {
    // The fleet shape: every shard's controller borrows the same update.
    let update = Update::prepare(&compile(SHAPE_V1), &compile(SHAPE_V2), "v1_")
        .expect("update prepares");
    let barrier = std::sync::Barrier::new(2);
    let compiles: u64 = std::thread::scope(|scope| {
        let shards: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    apply_counted(&update, false, 60)
                })
            })
            .collect();
        shards
            .into_iter()
            .map(|s| {
                let c = s.join().expect("shard thread");
                assert_eq!(c.pause_compiles, 0);
                c.transformer_compiles
            })
            .sum()
    });
    assert_eq!(compiles, 1, "one compile per release, not one per shard");
}

#[test]
fn eager_and_lazy_commits_of_one_update_both_leave_a_heap_that_checks() {
    // The two modes are one copy, finished inside the pause or stepped
    // after it: each commit must leave a heap that parses cell by cell,
    // every reference null or live, holding the same graph — through a
    // copy plan and through an interpreted transformer alike.
    let update =
        Update::prepare(&compile(SHAPE_V1), &compile(SHAPE_V2), "v1_").expect("update prepares");
    let mut prints = Vec::new();
    for interpret_all_transformers in [false, true] {
        for lazy in [false, true] {
            let mut vm = Vm::new(VmConfig { lazy_migration: lazy, ..VmConfig::small() });
            vm.load_classes(&compile(SHAPE_V1)).expect("v1 loads");
            vm.call_static_sync("Main", "setup", &[]).expect("setup runs");
            let opts = ApplyOptions { interpret_all_transformers, ..ApplyOptions::default() };
            let stats = jvolve::apply(&mut vm, &update, &opts).expect("update applies");
            assert_eq!(stats.objects_planned, usize::from(!interpret_all_transformers));
            let snapshot = vm.registry_mut().layout_snapshot();
            vm.heap().check_heap(&snapshot).unwrap_or_else(|e| panic!("lazy {lazy}: {e}"));
            assert_eq!(vm.call_static_sync("Main", "probe", &[]).unwrap(), Some(Value::Int(60)));
            prints.push(vm.heap_fingerprint());
        }
    }
    assert!(prints.windows(2).all(|w| w[0] == w[1]), "the commits diverge: {prints:?}");
}

#[test]
fn an_epoch_closed_outside_the_controller_aborts_with_a_typed_error() {
    // The embedder closes the lazy epoch itself, behind the controller's
    // back: the controller's next step finds no epoch. That is a typed
    // abort without rollback (the epoch's migrations already happened),
    // not a host panic.
    let mut vm = Vm::new(VmConfig { lazy_migration: true, ..VmConfig::small() });
    vm.load_classes(&compile(SHAPE_V1)).expect("v1 loads");
    vm.call_static_sync("Main", "setup", &[]).expect("setup runs");
    let update =
        Update::prepare(&compile(SHAPE_V1), &compile(SHAPE_V2), "v1_").expect("update prepares");
    let mut events = MemorySink::default();
    let mut controller = UpdateController::new(&update, ApplyOptions::default());
    controller.attach_sink(&mut events);
    while vm.lazy_stage() != LazyStage::Done {
        let progress = controller.step(&mut vm);
        assert!(matches!(progress, StepProgress::Pending(_)), "{progress:?}");
    }
    vm.finish_update_copy();

    assert_eq!(controller.step(&mut vm), StepProgress::Aborted);
    assert!(
        matches!(controller.error(), Some(UpdateError::Vm(VmError::Internal { .. }))),
        "{:?}",
        controller.error()
    );
    drop(controller);
    assert!(
        events.events.iter().any(|e| matches!(e, UpdateEvent::Aborted { rolled_back: false, .. })),
        "the abort must record that nothing was rolled back"
    );
    assert_eq!(vm.call_static_sync("Main", "probe", &[]).unwrap(), Some(Value::Int(60)));
}

// ---- OSR of a frame that has callees above it ---------------------------

/// `outer → mid → inner`, parked inside `inner`'s loop: `mid` sits in the
/// middle of the stack with a pending operand (`b`) under its call.
const NESTED_V1: &str = "
class Main {
  static field out: int;
  static method outer(n: int): int { var a: int = n * 2; return a + Main.mid(n + 1); }
  static method mid(n: int): int { var b: int = n * 3; return b + Main.inner(n + 1); }
  static method inner(n: int): int {
    var i: int = 0;
    var acc: int = 0;
    while (i < 20000) { acc = acc + n; i = i + 1; }
    return acc;
  }
  static method main(): void { Main.out = Main.outer(1); }
}";

/// v2 changes only `mid`: the same code up to the call's return point, then
/// two more locals — migrating the on-stack frame has to grow its slots
/// underneath `inner`'s. It computes what v1 computes.
const NESTED_V2_MID: &str = "static method mid(n: int): int {
    var b: int = n * 3;
    var r: int = b + Main.inner(n + 1);
    var extra: int = 7;
    return r + extra - 7;
  }";

/// (code identity, pc, locals, operands) of every frame of the one guest
/// thread.
fn stack_shape(vm: &Vm) -> Vec<(usize, u32, Vec<Value>, Vec<Value>)> {
    let t = vm.threads().next().expect("guest thread");
    let frame = |(i, f): (usize, &jvolve_vm::thread::Frame)| {
        let code = std::ptr::from_ref(f.code()) as usize;
        (code, f.pc, t.locals(i).to_vec(), t.operands(i).to_vec())
    };
    t.frames.iter().enumerate().map(frame).collect()
}

fn boot_nested() -> Vm {
    let config = VmConfig { quantum: 500, ..VmConfig::small() };
    let mut vm = Vm::new(config);
    vm.load_classes(&compile(NESTED_V1)).expect("v1 loads");
    vm.spawn("Main", "main").expect("main spawns");
    for _ in 0..5 {
        vm.step_slice();
    }
    assert_eq!(stack_shape(&vm).len(), 4, "main, outer, mid, inner");
    vm
}

fn nested_update() -> Update {
    let v1_mid = "static method mid(n: int): int { var b: int = n * 3; return b + Main.inner(n + 1); }";
    let v2 = NESTED_V1.replace(v1_mid, NESTED_V2_MID);
    assert_ne!(v2, NESTED_V1, "patch point exists");
    Update::prepare(&compile(NESTED_V1), &compile(&v2), "v1_").expect("non-empty update")
}

fn migrating() -> ApplyOptions {
    ApplyOptions { migrate_active_methods: true, ..ApplyOptions::default() }
}

#[test]
fn osr_of_a_middle_frame_grows_its_locals_under_its_callees() {
    let mut plain = boot_nested();
    assert!(plain.run_to_completion(100_000));

    let mut vm = boot_nested();
    let before = stack_shape(&vm);
    let stats = jvolve::apply(&mut vm, &nested_update(), &migrating()).expect("update applies");
    assert_eq!(stats.active_migrations, 1, "{stats:?}");

    let after = stack_shape(&vm);
    // `mid` is on its new version with two more (null) locals and its
    // pending operand; every other frame is untouched.
    let (mid_before, mid_after) = (&before[2], &after[2]);
    assert_ne!(mid_after.0, mid_before.0, "mid runs its new code");
    assert_eq!(mid_after.2[..2], mid_before.2[..], "old slots carry over");
    assert_eq!(mid_after.2[2..], [Value::Null, Value::Null], "new slots are nulled");
    assert_eq!(mid_after.3, mid_before.3, "the pending operand stays");
    for i in [0, 1, 3] {
        assert_eq!(after[i], before[i], "frame {i} moved intact");
    }

    assert!(vm.run_to_completion(100_000));
    assert_eq!(vm.read_static("Main", "out"), plain.read_static("Main", "out"));
}

#[test]
fn rollback_shrinks_a_migrated_middle_frame_back() {
    let mut vm = boot_nested();
    let mut update = nested_update();
    rig_install_failure(&mut vm, &mut update);
    let (shape, heap, registry) =
        (stack_shape(&vm), vm.heap_fingerprint(), registry_fingerprint(&vm));
    let tid = vm.threads().next().expect("guest thread").id;
    let mid_code = Arc::downgrade(&vm.frame_code(tid, 2).expect("mid's code"));

    let mut events = MemorySink::default();
    let mut controller = UpdateController::new(&update, migrating());
    controller.attach_sink(&mut events);
    controller.run(&mut vm, |_, _| {}).expect_err("transformer batch collides");
    drop(controller);
    // `run` reclaimed after the abort: the restored frame's code survived.
    assert!(mid_code.upgrade().is_some(), "the restored frame's code is alive");
    assert_eq!(vm.check_code_refs(), Ok(()));
    assert!(
        events.events.iter().any(|e| matches!(e, UpdateEvent::OsrApplied { migrated: 1, .. })),
        "the abort must come after the frame migrated: {:?}",
        events.events
    );

    assert_eq!(stack_shape(&vm), shape, "every frame's code, pc, locals and operands");
    assert_eq!(vm.heap_fingerprint(), heap);
    assert_eq!(registry_fingerprint(&vm), registry);
    assert!(vm.run_to_completion(100_000));
    assert_eq!(vm.read_static("Main", "out"), Value::Int(2 + 6 + 20000 * 3));
}

// ---- the shipped old version must be the running one -------------------

/// The VM runs `P { a = 42 }` and `H.peek()`, which reads `H.p.a`. The
/// bundle was built against an `H` whose `peek` returns 7, so its diff
/// leaves `peek` out of the indirect closure while `P` gains a field in
/// front of `a`: applied, the live `peek` would keep its compiled offset
/// and read the new `z`.
#[test]
fn a_bundle_built_against_another_version_is_a_stale_base() {
    const LIVE: &str = "
      class P { field a: int; ctor() { this.a = 42; } }
      class H {
        static field p: P;
        static method init(): void { H.p = new P(); }
        static method peek(): int { return H.p.a; }
      }";
    let shipped_old = LIVE.replace("return H.p.a;", "return 7;");
    let new = shipped_old.replace("field a: int;", "field z: int; field a: int;");
    let mut vm = Vm::new(VmConfig::small());
    vm.load_classes(&compile(LIVE)).expect("live version loads");
    vm.call_static_sync("H", "init", &[]).expect("init runs");
    assert_eq!(vm.call_static_sync("H", "peek", &[]).unwrap(), Some(Value::Int(42)));

    let update = Update::prepare(&compile(&shipped_old), &compile(&new), "v1_").expect("prepares");
    let before = registry_fingerprint(&vm);
    let mut events = MemorySink::default();
    let mut controller = UpdateController::new(&update, ApplyOptions::default());
    controller.attach_sink(&mut events);
    let err = controller.run(&mut vm, |_, _| {}).expect_err("stale base");
    drop(controller);
    assert!(
        matches!(&err, UpdateError::StaleBase { class, .. } if class.as_str() == "H"),
        "{err}"
    );
    assert!(
        events.events.iter().any(|e| matches!(e, UpdateEvent::RolledBack { actions_undone: 0, .. })),
        "rejected with an empty ledger: {:?}",
        events.events
    );
    assert_eq!(registry_fingerprint(&vm), before, "the registry is untouched");
    assert_eq!(vm.call_static_sync("H", "peek", &[]).unwrap(), Some(Value::Int(42)));

    // A bundle that ships `P` alone leaves the loaded `H`, whose code
    // names `P`, outside the update: rejected the same way.
    let p_only = |src: &str| compile(&src[..src.find("class H").expect("H follows P")]);
    let update = Update::prepare(&p_only(LIVE), &p_only(&new), "v1_").expect("prepares");
    let err = jvolve::apply(&mut vm, &update, &ApplyOptions::default()).expect_err("H not shipped");
    assert!(
        matches!(&err, UpdateError::StaleBase { class, .. } if class.as_str() == "H"),
        "{err}"
    );
    assert_eq!(registry_fingerprint(&vm), before, "the registry is untouched");
}

// ---- OSR inside the pause lands on the VM's one compiled form ----------

/// `main` calls `work`, whose loop reads `Main.p.a`; v2 puts a field in
/// front of `a`, so both frames run indirect methods and are OSR-replaced
/// inside the pause.
const OSR_V1: &str = "
class P { field a: int; }
class Main {
  static field p: P;
  static method work(n: int): int {
    var i: int = 0;
    var acc: int = 0;
    while (i < n) { acc = acc + Main.p.a; i = i + 1; }
    return acc;
  }
  static method main(): void {
    Main.p = new P();
    Main.p.a = 3;
    Sys.printInt(Main.work(20000));
    Sys.printInt(Main.p.a);
  }
}";

#[test]
fn a_frame_osr_replaced_in_the_pause_lands_on_fused_code() {
    let run = |enable_jit: bool| {
        let mut vm = Vm::new(VmConfig { enable_jit, quantum: 500, ..VmConfig::small() });
        vm.load_classes(&compile(OSR_V1)).expect("v1 loads");
        vm.spawn("Main", "main").expect("main spawns");
        for _ in 0..5 {
            vm.step_slice();
        }
        assert_eq!(vm.threads().next().expect("guest").frames.len(), 2, "main, work");
        let v2 = OSR_V1.replace("class P { field a: int; }", "class P { field z: int; field a: int; }");
        let update = Update::prepare(&compile(OSR_V1), &compile(&v2), "v1_").expect("prepares");
        let stats = jvolve::apply(&mut vm, &update, &ApplyOptions::default()).expect("applies");
        assert_eq!(stats.osr_replacements, 2, "{stats:?}");
        let frames = &vm.threads().next().expect("guest").frames;
        for f in frames {
            assert_eq!(!f.code().base_pc.is_empty(), enable_jit, "frame of {}", f.method);
        }
        // `work`'s loop guard and increment are superinstructions.
        let work = &frames[1].code().code;
        assert_eq!(work.iter().any(|op| op.covers() > 1), enable_jit, "{work:?}");
        assert!(vm.run_to_completion(100_000));
        vm.output().to_vec()
    };
    let (on, off) = (run(true), run(false));
    assert_eq!(on, off, "the jit changes nothing the guest prints");
    assert_eq!(on, ["60000", "3"]);
}

#[test]
fn a_batch_the_live_registry_rejects_aborts_in_pending_with_an_empty_ledger() {
    // `prepare` verifies the new version against itself, where `Lib` has
    // `n`. Shipping the live `Lib` (no `n`) in both versions keeps the
    // spec, the payload diff and the base check content, but the added
    // `Reader` reads a field the live `Lib` lacks. Verifying against the
    // registry as the install would leave it rejects the batch in
    // `Pending`: no slice waited, nothing to roll back.
    let app = |probe: i64| format!("class App {{ static method probe(): int {{ return {probe}; }} }}");
    let live = compile(&format!("class Lib {{ field m: int; }} {}", app(1)));
    let old = compile(&format!("class Lib {{ field m: int; field n: int; }} {}", app(1)));
    let new = compile(&format!(
        "class Lib {{ field m: int; field n: int; }} {}
         class Reader {{ static method read(l: Lib): int {{ return l.n; }} }}",
        app(2)
    ));
    let mut vm = Vm::new(VmConfig::small());
    vm.load_classes(&live).expect("live version loads");
    let mut update = Update::prepare(&old, &new, "v1_").expect("prepare accepts the payload");
    let live_lib = live.iter().find(|c| c.name.as_str() == "Lib").unwrap().clone();
    update.old_classes.insert(live_lib.clone());
    update.new_classes.insert(live_lib);

    let before = vm.registry().version_fingerprint();
    let mut events = MemorySink::default();
    let mut controller = UpdateController::new(&update, ApplyOptions::default());
    controller.attach_sink(&mut events);
    let err = controller.run(&mut vm, |_, _| {}).expect_err("the live registry rejects Reader");
    assert!(
        matches!(&err, UpdateError::Vm(VmError::LoadError { class, .. }) if class.as_str() == "Reader"),
        "got: {err}"
    );
    assert_eq!(controller.stats().slices_waited, 0, "no slice may be waited");
    assert_eq!(controller.counters().polls, 0, "no safe-point poll may run");
    drop(controller);
    assert!(
        events.events.iter().any(|e| matches!(e, UpdateEvent::RolledBack { actions_undone: 0, .. })),
        "the ledger must have been empty: {:?}",
        events.events
    );
    assert!(
        !events.events.iter().any(|e| matches!(e, UpdateEvent::PhaseEntered { .. })),
        "no phase may be entered: {:?}",
        events.events
    );
    assert_eq!(before, vm.registry().version_fingerprint(), "the registry must be untouched");
    assert_eq!(vm.call_static_sync("App", "probe", &[]).unwrap(), Some(Value::Int(1)));
}

/// v1 of a guest whose changed `Work.run` stays on stack for a few hundred
/// slices, plus a `Box` the update class-updates.
const WAIT_V1: &str = "
class Box { field a: int; }
class Work {
  static field out: int;
  static method run(n: int): int { var i: int = 0; while (i < n) { i = i + 1; } return i; }
  static method main(): void { Work.out = Work.run(3000); }
}";

/// A class the waiting update does not ship, body-updated by a second one.
const TOOL_V1: &str = "class Tool { static method f(): int { return 1; } }";

fn boot_waiter() -> Vm {
    let mut vm = Vm::new(VmConfig { quantum: 50, ..VmConfig::small() });
    vm.load_classes(&compile(WAIT_V1)).expect("v1 loads");
    vm.load_classes(&compile(TOOL_V1)).expect("tool loads");
    vm.spawn("Work", "main").expect("main spawns");
    for _ in 0..3 {
        vm.step_slice();
    }
    vm
}

#[test]
fn a_registry_changed_during_the_wait_is_verified_again_in_the_pause() {
    let v2 = WAIT_V1.replace("class Box { field a: int; }", "class Box { field a: int; field b: int; }")
        .replace("i = i + 1; } return i;", "i = i + 1; } return i + 0;");
    let waiting = Update::prepare(&compile(WAIT_V1), &compile(&v2), "v1_").expect("class update");
    let tool = Update::prepare(
        &compile(TOOL_V1),
        &compile(&TOOL_V1.replace("return 1;", "return 2;")),
        "t1_",
    )
    .expect("body-only update");
    let opts = ApplyOptions { timeout_slices: 100_000, ..ApplyOptions::default() };

    // A: the body-only update commits while the class update waits.
    let mut a = boot_waiter();
    let mut controller = UpdateController::new(&waiting, opts.clone());
    assert_eq!(controller.step(&mut a), StepProgress::Pending(UpdatePhase::WaitingForSafePoint));
    assert_eq!(controller.step(&mut a), StepProgress::Pending(UpdatePhase::WaitingForSafePoint));
    // Compiling and invalidating do not move the generation.
    let generation = a.registry().generation();
    assert_eq!(a.call_static_sync("Tool", "f", &[]).unwrap(), Some(Value::Int(1)));
    let f = a.registry().find_method(a.registry().class_id(&"Tool".into()).unwrap(), "f").unwrap();
    assert!(a.registry().method(f).compiled().is_some(), "the call compiled Tool.f");
    a.registry_mut().invalidate(f);
    a.step_slice();
    assert_eq!(a.registry().generation(), generation, "compile and invalidate leave it alone");
    let stats = jvolve::apply(&mut a, &tool, &opts).expect("the body-only update commits");
    assert_eq!(stats.gc_copied_cells, 0, "a body-only update copies nothing");
    assert_ne!(a.registry().generation(), generation, "a body swap moves it");
    controller.run(&mut a, |_, _| {}).expect("the class update commits");
    assert_eq!(
        controller.counters().pause_verifications,
        2,
        "both stale batches are verified again in the pause"
    );
    drop(controller);

    // B: the same two updates, the body-only one before the other's
    // `Pending`, so its batches verify against the registry they load into.
    let mut b = boot_waiter();
    jvolve::apply(&mut b, &tool, &opts).expect("the body-only update commits");
    let mut controller = UpdateController::new(&waiting, opts);
    controller.run(&mut b, |_, _| {}).expect("the class update commits");
    assert_eq!(controller.counters().pause_verifications, 0);
    drop(controller);

    assert_eq!(a.registry().version_fingerprint(), b.registry().version_fingerprint());
    for vm in [&mut a, &mut b] {
        assert!(vm.run_to_completion(100_000), "the guest finishes");
        assert_eq!(vm.read_static("Work", "out"), Value::Int(3000));
        assert_eq!(vm.call_static_sync("Tool", "f", &[]).unwrap(), Some(Value::Int(2)));
    }
}

// ---- `run`: the one driving loop and its pause contract ------------------

#[test]
fn safe_point_polling_builds_the_restricted_set_once() {
    // The restricted set is computed on entering the wait and the check
    // buffers are reused, so however many polls run, there is one build.
    let mut vm = boot_spinner();
    let update = Update::prepare(&compile(SPINNER_V1), &compile(SPINNER_V2), "v1_")
        .expect("non-empty update");
    let mut controller =
        UpdateController::new(&update, ApplyOptions { timeout_slices: 20, ..Default::default() });
    controller.run(&mut vm, |_, _| {}).expect_err("spin blocks forever");
    let counters = controller.counters();
    assert!(counters.polls > 1, "the controller never reached the polling loop");
    assert_eq!(
        counters.restricted_builds, 1,
        "safe-point polling rebuilt the restricted set ({} builds over {} polls)",
        counters.restricted_builds, counters.polls
    );
}

/// What one `run` showed, in order: the phases entered, the end of the
/// update, and every pump call.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Seen {
    Entered(UpdatePhase),
    Ended,
    Pump(UpdatePhase),
}

#[derive(Clone, Default)]
struct SeenLog(Arc<Mutex<Vec<Seen>>>);

impl UpdateEventSink for SeenLog {
    fn event(&mut self, event: &UpdateEvent) {
        let seen = match event {
            UpdateEvent::PhaseEntered { phase, .. } => Seen::Entered(*phase),
            UpdateEvent::Committed { .. } | UpdateEvent::Aborted { .. } => Seen::Ended,
            _ => return,
        };
        self.0.lock().unwrap().push(seen);
    }
}

/// Runs `update` with a pump that records each call and runs one guest
/// slice. Returns `run`'s result, the controller's `error()` (as `Debug`)
/// and what the run showed.
fn run_recorded(
    vm: &mut Vm,
    update: &Update,
    opts: ApplyOptions,
) -> (Result<UpdateStats, UpdateError>, Option<String>, Vec<Seen>) {
    let log = SeenLog::default();
    let mut sink = log.clone();
    let mut controller = UpdateController::new(update, opts);
    controller.attach_sink(&mut sink);
    let result = controller.run(vm, |vm, phase| {
        log.0.lock().unwrap().push(Seen::Pump(phase));
        vm.step_slice();
    });
    let error = controller.error().map(|e| format!("{e:?}"));
    drop(controller);
    let seen = log.0.lock().unwrap().clone();
    (result, error, seen)
}

/// The pump sees only the two phases in which the guest may run, and no
/// pump call falls between entering `Installing` and the step that ends
/// the pause (the commit, the start of the lazy epoch, a fall-back to
/// waiting, or an abort).
fn assert_pause_contract(seen: &[Seen]) {
    let mut in_pause = false;
    for s in seen {
        match *s {
            Seen::Entered(UpdatePhase::Installing) => in_pause = true,
            Seen::Entered(UpdatePhase::WaitingForSafePoint | UpdatePhase::LazyMigrating)
            | Seen::Ended => in_pause = false,
            Seen::Entered(_) => {}
            Seen::Pump(phase) => {
                assert!(
                    matches!(phase, UpdatePhase::WaitingForSafePoint | UpdatePhase::LazyMigrating),
                    "the pump saw {phase}: {seen:?}"
                );
                assert!(!in_pause, "a pump call fell inside the pause: {seen:?}");
            }
        }
    }
}

#[test]
fn run_pumps_only_while_the_guest_may_run() {
    // `Work.run` is changed and on stack for a few hundred slices, so the
    // update waits; `Box` is class-updated, so a lazy commit has an epoch.
    let v2 = WAIT_V1
        .replace("class Box { field a: int; }", "class Box { field a: int; field b: int; }")
        .replace("i = i + 1; } return i;", "i = i + 1; } return i + 0;");
    let update = Update::prepare(&compile(WAIT_V1), &compile(&v2), "v1_").expect("class update");
    let opts = ApplyOptions {
        timeout_slices: 100_000,
        lazy_step_cells: 8,
        lazy_scavenge_batch: 1,
        ..ApplyOptions::default()
    };
    for lazy in [false, true] {
        let mut vm = Vm::new(VmConfig { quantum: 50, lazy_migration: lazy, ..VmConfig::small() });
        vm.load_classes(&compile(WAIT_V1)).expect("v1 loads");
        vm.spawn("Work", "main").expect("main spawns");
        vm.step_slice();
        let (result, error, seen) = run_recorded(&mut vm, &update, opts.clone());
        result.unwrap_or_else(|e| panic!("lazy {lazy}: {e}"));
        assert_eq!(error, None);
        assert_pause_contract(&seen);
        assert!(
            seen.contains(&Seen::Pump(UpdatePhase::WaitingForSafePoint)),
            "lazy {lazy}: the update never waited: {seen:?}"
        );
        assert_eq!(
            seen.contains(&Seen::Pump(UpdatePhase::LazyMigrating)),
            lazy,
            "lazy {lazy}: only a lazy commit pumps in an epoch: {seen:?}"
        );
        assert!(vm.run_to_completion(100_000), "lazy {lazy}: the guest finishes");
        assert_eq!(vm.read_static("Work", "out"), Value::Int(3000));
    }
}

#[test]
fn run_returns_the_error_the_aborted_controller_holds() {
    // A timeout: `spin` never leaves the stack.
    let mut vm = boot_spinner();
    let update = Update::prepare(&compile(SPINNER_V1), &compile(SPINNER_V2), "v1_")
        .expect("non-empty update");
    let opts = ApplyOptions { timeout_slices: 20, ..ApplyOptions::default() };
    let (result, error, seen) = run_recorded(&mut vm, &update, opts.clone());
    let err = result.expect_err("spin blocks forever");
    assert!(matches!(err, UpdateError::Timeout { .. }), "got: {err}");
    assert_eq!(error, Some(format!("{err:?}")));
    assert_pause_contract(&seen);
    assert!(seen.contains(&Seen::Pump(UpdatePhase::WaitingForSafePoint)), "{seen:?}");

    // An abort in `Pending`: the transformer source does not compile.
    let v2_layout =
        SPINNER_V2.replace("static field mode: int;", "static field mode: int; field pad: int;");
    let mut update = Update::prepare(&compile(SPINNER_V1), &compile(&v2_layout), "v1_")
        .expect("non-empty update");
    update.set_transformers_source("this is not a valid MJ program {{{");
    let (result, error, seen) = run_recorded(&mut vm, &update, opts);
    let err = result.expect_err("the transformers do not compile");
    assert!(matches!(err, UpdateError::Compile(_)), "got: {err}");
    assert_eq!(error, Some(format!("{err:?}")));
    assert_eq!(seen, vec![Seen::Ended], "an update rejected in Pending never pumps");
}
