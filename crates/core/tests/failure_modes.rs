//! Failure-injection tests: updates that go wrong must fail loudly and
//! leave the system in a known state.

use jvolve::{
    apply, ApplyOptions, MemorySink, Update, UpdateController, UpdateError, UpdateEvent,
};
use jvolve_vm::{Value, Vm, VmConfig, VmError};

fn prepare(vm_cfg: VmConfig, old_src: &str, new_src: &str) -> (Vm, Update) {
    let old = jvolve_lang::compile(old_src).unwrap();
    let new = jvolve_lang::compile(new_src).unwrap();
    let mut vm = Vm::new(vm_cfg);
    vm.load_classes(&old).unwrap();
    let update = Update::prepare(&old, &new, "v1_").unwrap();
    (vm, update)
}

#[test]
fn transformer_trap_aborts_the_update() {
    // A buggy custom transformer null-dereferences: the update must fail
    // with the trap, not corrupt the heap silently.
    let (mut vm, mut update) = prepare(
        VmConfig::small(),
        "class P { field a: int; }
         class H { static field p: P; static method init(): void { H.p = new P(); } }",
        "class P { field a: int; field b: int; }
         class H { static field p: P; static method init(): void { H.p = new P(); } }",
    );
    vm.call_static_sync("H", "init", &[]).unwrap();
    update.set_transformers_source(
        "class JvolveTransformers {
           static method jvolve_class_P(): void { }
           static method jvolve_object_P(to: P, from: v1_P): void {
             var dead: P = null;
             to.a = dead.a;
           }
         }",
    );
    let err = apply(&mut vm, &update, &ApplyOptions::default()).unwrap_err();
    assert!(
        matches!(err, UpdateError::Vm(VmError::NullPointer { .. })),
        "{err}"
    );
}

/// Applies an update whose transformers are unusable and returns the
/// error, having checked that the rejection was free: no slice waited, an
/// empty rollback ledger, no compile inside the pause, and a registry
/// fingerprint that never moved.
fn rejected_before_the_safe_point(vm: &mut Vm, update: &Update) -> UpdateError {
    let before = vm.registry().version_fingerprint();
    let mut events = MemorySink::default();
    let mut controller = UpdateController::new(update, ApplyOptions::default());
    controller.attach_sink(&mut events);
    let err = controller.run(vm, |_, _| {}).unwrap_err();
    assert_eq!(controller.stats().slices_waited, 0);
    assert_eq!(controller.counters().polls, 0);
    assert_eq!(controller.counters().pause_compiles, 0);
    drop(controller);
    assert!(
        events.events.iter().any(|e| matches!(e, UpdateEvent::RolledBack { actions_undone: 0, .. })),
        "{:?}",
        events.events
    );
    assert_eq!(vm.registry().version_fingerprint(), before);
    err
}

#[test]
fn transformer_missing_method_is_a_compile_style_error() {
    let (mut vm, mut update) = prepare(
        VmConfig::small(),
        "class P { field a: int; }",
        "class P { field a: int; field b: int; }",
    );
    // Custom source that forgets the object transformer entirely.
    update.set_transformers_source("class JvolveTransformers { }");
    let err = rejected_before_the_safe_point(&mut vm, &update);
    assert!(matches!(err, UpdateError::Compile(_)), "{err}");
}

#[test]
fn transformer_source_syntax_error_is_reported() {
    let (mut vm, mut update) = prepare(
        VmConfig::small(),
        "class P { field a: int; }",
        "class P { field a: int; field b: int; }",
    );
    update.set_transformers_source("class JvolveTransformers { this is not MJ }");
    let err = rejected_before_the_safe_point(&mut vm, &update);
    assert!(matches!(err, UpdateError::Compile(_)), "{err}");
}

#[test]
fn retyped_transformer_is_rejected_before_the_safe_point() {
    let (mut vm, mut update) = prepare(
        VmConfig::small(),
        "class P { field a: int; }",
        "class P { field a: int; field b: int; }",
    );
    update.set_transformers_source(
        "class JvolveTransformers {
           static method jvolve_object_P(to: P, from: P): void { to.a = from.a; }
         }",
    );
    let err = rejected_before_the_safe_point(&mut vm, &update);
    assert!(matches!(err, UpdateError::BadTransformer { .. }), "{err}");
}

#[test]
fn update_gc_overflow_surfaces_out_of_memory() {
    // Fill most of a small heap with updatable objects that each grow by a
    // word: the new versions cannot fit in to-space, even though a copy
    // plan spares the update GC the old-layout duplicates.
    let (mut vm, update) = prepare(
        VmConfig { semispace_words: 4 * 1024, ..VmConfig::default() },
        "class Blob { field a: int; field b: int; field c: int; field d: int; }
         class H {
           static field keep: Blob[];
           static method init(): void {
             H.keep = new Blob[650];
             var i: int = 0;
             while (i < 650) { H.keep[i] = new Blob(); i = i + 1; }
           }
         }",
        "class Blob { field a: int; field b: int; field c: int; field d: int; field e: int; }
         class H {
           static field keep: Blob[];
           static method init(): void {
             H.keep = new Blob[650];
             var i: int = 0;
             while (i < 650) { H.keep[i] = new Blob(); i = i + 1; }
           }
         }",
    );
    vm.call_static_sync("H", "init", &[]).unwrap();
    let err = apply(&mut vm, &update, &ApplyOptions::default()).unwrap_err();
    assert!(
        matches!(err, UpdateError::Vm(VmError::OutOfMemory { .. })),
        "{err}"
    );
}

#[test]
fn empty_update_is_rejected_at_prepare() {
    let src = "class A { method f(): int { return 1; } }";
    let classes = jvolve_lang::compile(src).unwrap();
    let err = Update::prepare(&classes, &classes, "v1_").unwrap_err();
    assert!(matches!(err, UpdateError::Empty), "{err}");
}

#[test]
fn ill_typed_new_version_is_rejected_at_prepare() {
    // Hand-corrupt the new version's bytecode after compilation: prepare
    // must catch it via verification (the paper's safety keystone).
    let old = jvolve_lang::compile("class A { static method f(): int { return 1; } }").unwrap();
    let mut new =
        jvolve_lang::compile("class A { static method f(): int { return 2; } }").unwrap();
    let code = new[0].methods.iter_mut().find(|m| m.name == "f").unwrap();
    std::sync::Arc::make_mut(code.code.as_mut().unwrap())
        .instrs
        .insert(0, jvolve_classfile::bytecode::Instr::Pop);
    let err = Update::prepare(&old, &new, "v1_").unwrap_err();
    assert!(matches!(err, UpdateError::Compile(_)), "{err}");
}

#[test]
fn update_to_not_loaded_class_fails_cleanly() {
    // The VM runs a different program than the update's old version.
    let (mut vm, _) = prepare(
        VmConfig::small(),
        "class Unrelated { }",
        "class Unrelated { field x: int; }",
    );
    let old = jvolve_lang::compile("class Ghost { field a: int; }").unwrap();
    let new = jvolve_lang::compile("class Ghost { field a: int; field b: int; }").unwrap();
    let update = Update::prepare(&old, &new, "g_").unwrap();
    let err = apply(&mut vm, &update, &ApplyOptions::default()).unwrap_err();
    // Rejected in `Pending`, before the VM is touched: Ghost is shipped as
    // an old class but is not loaded.
    assert!(matches!(&err, UpdateError::StaleBase { class, .. } if class.as_str() == "Ghost"), "{err}");
}

#[test]
fn timeout_leaves_old_version_fully_functional() {
    let (mut vm, update) = prepare(
        VmConfig { quantum: 50, ..VmConfig::small() },
        "class S {
           static field beats: int;
           static method run(): void {
             while (true) { S.beats = S.beats + 1; Sys.yieldNow(); }
           }
           static method peek(): int { return S.beats; }
         }",
        "class S {
           static field beats: int;
           static method run(): void {
             while (true) { S.beats = S.beats + 2; Sys.yieldNow(); }
           }
           static method peek(): int { return S.beats; }
         }",
    );
    vm.spawn("S", "run").unwrap();
    vm.run_slices(10);
    let before = vm.read_static("S", "beats");

    let opts = ApplyOptions { timeout_slices: 100, ..ApplyOptions::default() };
    let err = apply(&mut vm, &update, &opts).unwrap_err();
    assert!(matches!(err, UpdateError::Timeout { .. }), "{err}");

    // The old loop keeps beating (old code, old data, barriers cleared).
    vm.run_slices(50);
    let after = vm.read_static("S", "beats");
    assert!(after.as_int() > before.as_int(), "old version still runs");
    assert_eq!(vm.update_count(), 0);
    assert_eq!(
        vm.call_static_sync("S", "peek", &[]).unwrap(),
        Some(Value::Int(after.as_int())),
    );
}

#[test]
fn deleted_class_with_live_instances_is_safe() {
    // Instances of a deleted class survive the update (unreachable from
    // new code, but the heap must stay consistent).
    let (mut vm, update) = prepare(
        VmConfig::small(),
        "class Legacy { field v: int; }
         class K {
           static field l: Legacy;
           static field tag: int;
           static method init(): void { K.l = new Legacy(); K.tag = 9; }
         }",
        "class K {
           static field tag: int;
           static method init(): void { K.tag = 9; }
         }",
    );
    vm.call_static_sync("K", "init", &[]).unwrap();
    apply(&mut vm, &update, &ApplyOptions::default()).unwrap();
    assert_eq!(vm.read_static("K", "tag"), Value::Int(9));
    // The GC still runs cleanly afterwards.
    vm.collect_full(&jvolve_vm::heap::NoRemap).unwrap();
}

#[test]
fn update_while_thread_blocked_on_network_read() {
    // A thread parked in Net.readLine inside an unrestricted method does
    // not block unrelated updates, and resumes correctly afterwards.
    let (mut vm, update) = prepare(
        VmConfig::small(),
        "class Srv {
           static method serve(): void {
             var l: int = Net.listen(4242);
             var c: int = Net.accept(l);
             var line: String = Net.readLine(c);
             Net.write(c, \"got \" + line);
             Net.close(c);
           }
         }
         class Other { static method f(): int { return 1; } }",
        "class Srv {
           static method serve(): void {
             var l: int = Net.listen(4242);
             var c: int = Net.accept(l);
             var line: String = Net.readLine(c);
             Net.write(c, \"got \" + line);
             Net.close(c);
           }
         }
         class Other { static method f(): int { return 2; } }",
    );
    vm.spawn("Srv", "serve").unwrap();
    vm.run_slices(5);
    let conn = vm.net_mut().client_connect(4242).unwrap();
    vm.run_slices(5); // now blocked in readLine

    apply(&mut vm, &update, &ApplyOptions::default()).unwrap();
    assert_eq!(vm.call_static_sync("Other", "f", &[]).unwrap(), Some(Value::Int(2)));

    vm.net_mut().client_send(conn, "ping");
    vm.run_slices(20);
    assert_eq!(vm.net_mut().client_recv(conn), Some("got ping".to_string()));
}
