//! VM edge cases: resource exhaustion, adaptive recompilation, scheduler
//! corner cases, string semantics.

use jvolve_vm::compiled::RInstr;
use jvolve_vm::thread::ThreadState;
use jvolve_vm::{LazyStage, Value, Vm, VmConfig, VmError};

#[test]
fn out_of_memory_is_a_trap_not_a_panic() {
    let mut vm = Vm::new(VmConfig { semispace_words: 1024, ..VmConfig::default() });
    vm.load_source(
        "class Hog {
           static field keep: int[][];
           static method main(): void {
             Hog.keep = new int[64][];
             var i: int = 0;
             while (i < 64) { Hog.keep[i] = new int[1024]; i = i + 1; }
           }
         }",
    )
    .unwrap();
    let tid = vm.spawn("Hog", "main").unwrap();
    vm.run_to_completion(100_000);
    assert!(matches!(
        &vm.thread(tid).unwrap().state,
        ThreadState::Trapped(VmError::OutOfMemory { .. })
    ));
}

#[test]
fn deep_recursion_overflows_cleanly() {
    let mut vm = Vm::new(VmConfig { max_stack_depth: 64, ..VmConfig::small() });
    vm.load_source(
        "class R { static method down(n: int): int { return R.down(n + 1); }
                   static method main(): void { Sys.printInt(R.down(0)); } }",
    )
    .unwrap();
    let tid = vm.spawn("R", "main").unwrap();
    vm.run_to_completion(100_000);
    assert!(matches!(
        &vm.thread(tid).unwrap().state,
        ThreadState::Trapped(VmError::StackOverflow)
    ));
}

#[test]
fn invalidated_method_recompiles_and_reoptimizes() {
    // The paper: after invalidation the adaptive system recompiles the
    // method on its next call. Here that one compile is the fused form.
    let mut vm = Vm::new(VmConfig::small());
    vm.load_source("class W { static method w(x: int): int { return x + 1; } }").unwrap();
    assert_eq!(vm.call_static_sync("W", "w", &[Value::Int(1)]).unwrap(), Some(Value::Int(2)));
    let w_class = vm.registry().class_id(&"W".into()).unwrap();
    let w = vm.registry().find_method(w_class, "w").unwrap();
    let fused = |vm: &Vm| {
        let code = vm.registry().method(w).compiled.clone().expect("compiled");
        matches!(code.code[..], [RInstr::FusedLoadConstAddReturn { slot: 0, k: 1 }])
    };
    assert!(fused(&vm), "the first compile fuses");
    let jit_compiles_before = vm.stats().jit_compiles;

    // Invalidate (as an update would): the next call recompiles, fused.
    vm.registry_mut().invalidate(w);
    assert!(vm.registry().method(w).compiled.is_none());
    assert_eq!(vm.call_static_sync("W", "w", &[Value::Int(0)]).unwrap(), Some(Value::Int(1)));
    assert!(fused(&vm), "the recompile fuses");
    assert_eq!(vm.stats().jit_compiles, jit_compiles_before + 1);
    // Further calls run that code; nothing recompiles.
    for i in 0..30 {
        vm.call_static_sync("W", "w", &[Value::Int(i)]).unwrap();
    }
    assert_eq!(vm.stats().jit_compiles, jit_compiles_before + 1);
}

#[test]
fn string_value_semantics() {
    let mut vm = Vm::new(VmConfig::small());
    vm.load_source(
        "class S {
           static method eq(): bool { return \"a\" + \"b\" == \"ab\"; }
           static method ne(): bool { return \"x\" != \"y\"; }
           static method nullable(s: String): bool { return s == null; }
         }",
    )
    .unwrap();
    assert_eq!(vm.call_static_sync("S", "eq", &[]).unwrap(), Some(Value::Bool(true)));
    assert_eq!(vm.call_static_sync("S", "ne", &[]).unwrap(), Some(Value::Bool(true)));
    assert_eq!(
        vm.call_static_sync("S", "nullable", &[Value::Null]).unwrap(),
        Some(Value::Bool(true))
    );
}

#[test]
fn string_builtins_match_rust_semantics() {
    let mut vm = Vm::new(VmConfig::small());
    vm.load_source(
        "class S {
           static method test(): void {
             Sys.printInt(Str.indexOf(\"hello world\", \"world\"));
             Sys.printInt(Str.indexOf(\"hello\", \"zzz\"));
             Sys.print(Str.substr(\"abcdef\", 1, 4));
             Sys.printInt(Str.charAt(\"A\", 0));
             var parts: String[] = Str.split(\"a,b,,c\", \",\");
             Sys.printInt(parts.length);
             Sys.print(parts[2]);
             Sys.printInt(Str.toInt(\"-42\"));
             Sys.printInt(Str.toInt(\"nonsense\"));
           }
         }",
    )
    .unwrap();
    vm.call_static_sync("S", "test", &[]).unwrap();
    assert_eq!(vm.output(), ["6", "-1", "bcd", "65", "4", "", "-42", "0"]);
}

#[test]
fn negative_array_length_traps() {
    let mut vm = Vm::new(VmConfig::small());
    vm.load_source(
        "class N { static method main(): void { var a: int[] = new int[0 - 3]; } }",
    )
    .unwrap();
    let tid = vm.spawn("N", "main").unwrap();
    vm.run_to_completion(10_000);
    assert!(matches!(
        &vm.thread(tid).unwrap().state,
        ThreadState::Trapped(VmError::IndexOutOfBounds { index: -3, .. })
    ));
}

#[test]
fn run_to_completion_detects_deadlock() {
    // A thread blocked on a connection nobody will write to: with no
    // sleepers and no external input, run_to_completion must give up.
    let mut vm = Vm::new(VmConfig::small());
    vm.load_source(
        "class D { static method main(): void {
           var l: int = Net.listen(1);
           var c: int = Net.accept(l);
         } }",
    )
    .unwrap();
    vm.spawn("D", "main").unwrap();
    assert!(!vm.run_to_completion(10_000), "accept never completes");
}

#[test]
fn many_threads_round_robin_fairly() {
    let mut vm = Vm::new(VmConfig { quantum: 50, ..VmConfig::small() });
    vm.load_source(
        "class W {
           field id: int;
           ctor(id: int) { this.id = id; }
           method run(): void {
             var i: int = 0;
             while (i < 1000) { i = i + 1; }
             Sys.printInt(this.id);
           }
         }
         class M {
           static method main(): void {
             var i: int = 0;
             while (i < 8) { Sys.spawn(new W(i)); i = i + 1; }
           }
         }",
    )
    .unwrap();
    vm.spawn("M", "main").unwrap();
    assert!(vm.run_to_completion(1_000_000));
    let mut out: Vec<i64> = vm.output().iter().map(|s| s.parse().unwrap()).collect();
    out.sort_unstable();
    assert_eq!(out, (0..8).collect::<Vec<_>>());
}

#[test]
fn gc_during_deep_call_stack_preserves_locals() {
    // Locals and operand stacks across many frames are GC roots.
    let mut vm = Vm::new(VmConfig { semispace_words: 4 * 1024, ..VmConfig::default() });
    vm.load_source(
        "class Node { field v: int; ctor(v: int) { this.v = v; } }
         class G {
           static method down(n: int, carry: Node): int {
             if (n == 0) { return carry.v; }
             var mine: Node = new Node(n);
             // Churn to force collections at every depth.
             var i: int = 0;
             while (i < 300) { var g: Node = new Node(i); i = i + 1; }
             return G.down(n - 1, carry) + mine.v;
           }
           static method main(): void {
             Sys.printInt(G.down(40, new Node(7)));
           }
         }",
    )
    .unwrap();
    vm.spawn("G", "main").unwrap();
    assert!(vm.run_to_completion(1_000_000));
    // 7 + sum(1..=40)
    assert_eq!(vm.output(), [(7 + (1..=40).sum::<i64>()).to_string()]);
    assert!(vm.heap().collections() > 0);
}

#[test]
fn spawn_without_run_method_traps() {
    let mut vm = Vm::new(VmConfig::small());
    vm.load_source(
        "class NotAThread { }
         class M { static method main(): void { Sys.spawn(new NotAThread()); } }",
    )
    .unwrap();
    let tid = vm.spawn("M", "main").unwrap();
    vm.run_to_completion(10_000);
    assert!(matches!(
        &vm.thread(tid).unwrap().state,
        ThreadState::Trapped(VmError::ResolutionError { .. })
    ));
}

#[test]
fn spawn_through_stripped_class_traps_gracefully() {
    // Mid-update the driver strips an old class's methods and TIB; a
    // Sys.spawn through a surviving instance of it must trap like a stale
    // CallVirtual does — not panic — and the VM must keep running.
    let mut vm = Vm::new(VmConfig::small());
    vm.load_source(
        "class W { method run(): void { Sys.printInt(7); } }
         class M {
           static field w: W;
           static method mk(): void { M.w = new W(); }
           static method go(): void { Sys.spawn(M.w); }
           static method ping(): int { return 42; }
         }",
    )
    .unwrap();
    vm.call_static_sync("M", "mk", &[]).unwrap();

    let cid = vm
        .registry()
        .class_id(&jvolve_classfile::ClassName::from("W"))
        .unwrap();
    vm.registry_mut().strip_methods(cid);

    let tid = vm.spawn("M", "go").unwrap();
    vm.run_to_completion(10_000);
    assert!(
        matches!(
            &vm.thread(tid).unwrap().state,
            ThreadState::Trapped(VmError::ResolutionError { .. } | VmError::Internal { .. })
        ),
        "spawn through a stripped class must trap, got {:?}",
        vm.thread(tid).unwrap().state
    );
    // No output from W::run, and the VM still executes code.
    assert!(vm.output().is_empty());
    let pong = vm.call_static_sync("M", "ping", &[]).unwrap();
    assert_eq!(pong, Some(Value::Int(42)));
}

#[test]
fn virtual_dispatch_selects_most_derived_override() {
    let mut vm = Vm::new(VmConfig::small());
    vm.load_source(
        "class A { method who(): String { return \"A\"; } }
         class B extends A { method who(): String { return \"B\"; } }
         class C extends B { }
         class D extends C { method who(): String { return \"D\"; } }
         class M {
           static method probe(a: A): String { return a.who(); }
           static method main(): void {
             Sys.print(M.probe(new A()));
             Sys.print(M.probe(new B()));
             Sys.print(M.probe(new C()));
             Sys.print(M.probe(new D()));
           }
         }",
    )
    .unwrap();
    vm.spawn("M", "main").unwrap();
    assert!(vm.run_to_completion(10_000));
    assert_eq!(vm.output(), ["A", "B", "B", "D"]);
}

#[test]
fn super_constructor_chain_initializes_all_levels() {
    let mut vm = Vm::new(VmConfig::small());
    vm.load_source(
        "class A { field a: int; ctor(x: int) { this.a = x; } }
         class B extends A { field b: int; ctor(x: int) { super(x * 2); this.b = x; } }
         class M {
           static method main(): void {
             var o: B = new B(5);
             Sys.printInt(o.a);
             Sys.printInt(o.b);
           }
         }",
    )
    .unwrap();
    vm.spawn("M", "main").unwrap();
    assert!(vm.run_to_completion(10_000));
    assert_eq!(vm.output(), ["10", "5"]);
}

#[test]
fn osr_migrate_rejects_bad_pcs() {
    let mut vm = Vm::new(VmConfig { quantum: 10, ..VmConfig::small() });
    vm.load_source(
        "class M {
           static method spin(): int {
             var i: int = 0;
             while (i < 100000) { i = i + 1; }
             return i;
           }
           static method other(): int { return 5; }
           static method main(): void { Sys.printInt(M.spin()); }
         }",
    )
    .unwrap();
    let tid = vm.spawn("M", "main").unwrap();
    for _ in 0..20 {
        vm.step_slice();
        if vm.thread(tid).unwrap().frames.len() == 2 {
            break;
        }
    }
    let m = vm.registry().class_id(&"M".into()).unwrap();
    let other = vm.registry().find_method(m, "other").unwrap();
    // Out-of-range pc is rejected.
    let err = vm.osr_migrate(tid, 1, other, 999).unwrap_err();
    assert!(matches!(err, VmError::Internal { .. }), "{err}");
    // A valid migration to pc 0 of another same-shape method works (the
    // driver is responsible for semantic equivalence).
    vm.osr_migrate(tid, 1, other, 0).unwrap();
    assert!(vm.run_to_completion(100_000));
    assert_eq!(vm.output(), ["5"], "the frame now runs `other`");
}

#[test]
fn osr_migrate_inside_a_fused_op_is_an_error_not_a_panic() {
    let mut vm = Vm::new(VmConfig { quantum: 10, ..VmConfig::small() });
    vm.load_source(
        "class M {
           static method spin(): int {
             var i: int = 0;
             while (i < 1000) { i = i + 1; }
             return i;
           }
           static method five(): int { var x: int = 4; return x + 1; }
           static method main(): void { Sys.printInt(M.spin()); }
         }",
    )
    .unwrap();
    let tid = vm.spawn("M", "main").unwrap();
    while vm.thread(tid).unwrap().frames.len() != 2 {
        vm.step_slice();
    }
    let m = vm.registry().class_id(&"M".into()).unwrap();
    let spin = vm.registry().find_method(m, "spin").unwrap();
    let five = vm.registry().find_method(m, "five").unwrap();
    // `five` is ConstInt 4, Store 0, then Load 0 / ConstInt 1 / Add /
    // ReturnValue fused into one op at bytecode pc 2: pc 3 is inside it.
    let err = vm.osr_migrate(tid, 1, five, 3).unwrap_err();
    assert!(matches!(err, VmError::Internal { .. }), "{err}");
    assert_eq!(vm.thread(tid).unwrap().frames[1].method, spin, "the frame is untouched");
    // The op's own start is a boundary.
    vm.osr_migrate(tid, 1, five, 2).unwrap();
    let frame = &vm.thread(tid).unwrap().frames[1];
    assert!(matches!(frame.compiled.code[frame.pc as usize], RInstr::FusedLoadConstAddReturn { .. }));
}

#[test]
fn substr_inside_a_character_traps_the_thread_not_the_vm() {
    // The line comes off the network, so a remote client chooses the
    // bytes: cutting `é` after its first byte must trap the handler
    // thread with a typed error while the server keeps accepting.
    let mut vm = Vm::new(VmConfig::small());
    vm.load_source(
        "class Handler {
           field conn: int;
           ctor(c: int) { this.conn = c; }
           method run(): void {
             var line: String = Net.readLine(this.conn);
             Net.write(this.conn, Str.substr(line, 0, 1));
             Net.close(this.conn);
           }
         }
         class Main {
           static method main(): void {
             var l: int = Net.listen(7100);
             while (true) { Sys.spawn(new Handler(Net.accept(l))); }
           }
         }",
    )
    .unwrap();
    let server = vm.spawn("Main", "main").unwrap();
    vm.run_slices(10);
    let serve = |vm: &mut Vm, line: &str| {
        let conn = vm.net_mut().client_connect(7100).expect("listening");
        vm.net_mut().client_send(conn, line);
        vm.run_slices(50);
        vm.net_mut().client_recv(conn)
    };

    assert_eq!(serve(&mut vm, "é"), None, "no reply: the handler died");
    let trapped: Vec<&ThreadState> =
        vm.threads().map(|t| &t.state).filter(|s| matches!(s, ThreadState::Trapped(_))).collect();
    assert_eq!(trapped, [&ThreadState::Trapped(VmError::NotCharBoundary { index: 1 })]);

    assert_eq!(serve(&mut vm, "abc").as_deref(), Some("a"), "other threads keep serving");
    assert_eq!(serve(&mut vm, "éa").as_deref(), None);
    assert_eq!(serve(&mut vm, "x").as_deref(), Some("x"));
    assert!(vm.thread(server).unwrap().is_live(), "the accept loop is still running");
}

#[test]
fn force_transform_at_the_stack_limit_overflows_without_starting_the_entry() {
    // A guest already at `max_stack_depth` forces a logged object: the
    // transformer frame must be refused like any other frame, and refused
    // *before* the log entry is marked in progress.
    const LIMIT: usize = 16;
    let mut vm = Vm::new(VmConfig { max_stack_depth: LIMIT, quantum: 8, ..VmConfig::small() });
    vm.load_source(&format!(
        "class Leaf {{ field v: int; }}
         class Holder {{ static field p: Leaf; }}
         class Probe {{ static field ran: int; }}
         class Main {{
           static method main(): void {{ Holder.p = new Leaf(); Holder.p.v = 7; }}
           static method dive(n: int): void {{
             if (n > 0) {{ Main.dive(n - 1); return; }}
             Dsu.forceTransform(Holder.p);
           }}
           static method force(): void {{ Main.dive({}); }}
         }}",
        LIMIT - 2 // force + dive(LIMIT-2) .. dive(0) = LIMIT frames
    ))
    .unwrap();
    vm.spawn("Main", "main").unwrap();
    assert!(vm.run_to_completion(10_000));

    let old_id = vm.registry().class_id(&"Leaf".into()).unwrap();
    vm.registry_mut().rename_class(old_id, "v1_Leaf".into()).unwrap();
    let mut externs = jvolve_classfile::ClassSet::new();
    externs.insert(vm.registry().class(old_id).file.clone());
    let probe = vm.registry().class_id(&"Probe".into()).unwrap();
    externs.insert(vm.registry().class(probe).file.clone());
    let new_classes = jvolve_lang::compile("class Leaf { field v: int; field w: int; }").unwrap();
    let new_id = vm.load_classes(&new_classes).unwrap()[0];
    externs.insert(new_classes[0].clone());
    // The transformer yields mid-body, so a frame pushed past the limit
    // would be visible between slices.
    let transformer = jvolve_lang::compile_with(
        "class JvolveTransformers {
           static method jvolve_object_Leaf(to: Leaf, from: v1_Leaf): void {
             Probe.ran = Probe.ran + 1;
             Sys.yieldNow();
             to.v = from.v;
             to.w = 1;
           }
         }",
        &jvolve_lang::CompileOptions { externs, override_access: true },
    )
    .unwrap();
    let tids = vm.load_classes(&transformer).unwrap();
    let tmid = vm.registry().find_method(tids[0], "jvolve_object_Leaf").unwrap();
    let remap = std::collections::HashMap::from([(old_id, new_id)]);
    let tf = std::collections::HashMap::from([(new_id, jvolve_vm::ObjectTransformer::Method(tmid))]);
    // An eager commit's copy, its transformers not run yet.
    vm.begin_update_copy(remap, tf, None).unwrap();
    assert_eq!(vm.lazy_stage(), LazyStage::Copy, "a logged pair waits");
    assert_eq!(vm.update_log_words(), 2, "one pair: the old Leaf's header and field");

    let tid = vm.spawn("Main", "force").unwrap();
    let mut deepest = 0;
    while vm.thread(tid).unwrap().is_live() {
        vm.step_slice();
        let depth = vm.thread(tid).unwrap().frames.len();
        assert!(depth <= LIMIT, "{depth} frames on a stack limited to {LIMIT}");
        deepest = deepest.max(depth);
    }
    assert_eq!(deepest, LIMIT, "the guest must reach the limit before forcing");
    assert!(matches!(
        &vm.thread(tid).unwrap().state,
        ThreadState::Trapped(VmError::StackOverflow)
    ));
    assert_eq!(vm.read_static("Probe", "ran"), Value::Int(0), "the forced transformer ran");

    // The entry is still pending: the log walk runs it now (an entry left
    // in progress would be skipped).
    assert_eq!(vm.run_transformers().unwrap(), 1);
    vm.finish_update_copy();
    assert_eq!(vm.read_static("Probe", "ran"), Value::Int(1));
    let Value::Ref(p) = vm.read_static("Holder", "p") else { panic!("Holder.p is a ref") };
    assert_eq!(vm.read_field(p, "v"), Value::Int(7));
    assert_eq!(vm.read_field(p, "w"), Value::Int(1));
}

#[test]
fn a_full_collection_refuses_a_remap() {
    // An update's copy starts with `begin_update_copy`, which registers the
    // transformers; a remapping `collect_full` could only zero the new
    // objects, so it is a typed error that leaves the heap untouched.
    struct EveryClass;
    impl jvolve_vm::heap::GcRemap for EveryClass {
        fn remap(&self, class: jvolve_vm::ClassId) -> Option<jvolve_vm::ClassId> {
            Some(class)
        }
    }
    let mut vm = Vm::new(VmConfig::small());
    vm.load_source("class P { field v: int; }").unwrap();
    let p = vm.host_alloc("P").unwrap();
    vm.write_field(vm.host_root(p), "v", Value::Int(5));
    let (at, gcs) = (vm.host_root(p), vm.stats().gcs);
    let err = vm.collect_full(&EveryClass).unwrap_err();
    assert!(matches!(err, VmError::Internal { .. }), "{err}");
    assert_eq!((vm.host_root(p), vm.stats().gcs), (at, gcs), "nothing was collected");
    vm.collect_full(&jvolve_vm::heap::NoRemap).unwrap();
    assert_eq!(vm.read_field(vm.host_root(p), "v"), Value::Int(5));
}

#[test]
fn array_index_beyond_u32_traps_instead_of_wrapping() {
    // 2^32 truncates to 0 as a u32; the bounds check must not.
    let mut vm = Vm::new(VmConfig::small());
    vm.load_source(
        "class A {
           static method get(): int { var a: int[] = new int[4]; return a[4294967296]; }
           static method put(): void { var a: int[] = new int[4]; a[4294967297] = 1; }
         }",
    )
    .unwrap();
    for method in ["get", "put"] {
        let err = vm.call_static_sync("A", method, &[]).unwrap_err();
        assert!(matches!(err, VmError::IndexOutOfBounds { len: 4, .. }), "{method}: {err}");
    }
}

#[test]
fn operand_stack_underflow_is_rejected_at_load() {
    // On the shared value stack an underflowing pop would read the frame
    // below instead of panicking, so the verifier has to keep such code
    // out: one hand-assembled body per pop arity, each one operand short.
    use jvolve_classfile::builder::ClassBuilder;
    use jvolve_classfile::bytecode::Instr::{self, *};
    use jvolve_classfile::Type;

    let table: [(&str, Vec<Instr>); 6] = [
        ("unary", vec![Neg, ReturnValue]),
        ("binary", vec![ConstInt(1), Add, ReturnValue]),
        ("PutField", {
            let put = PutField { class: "U".into(), field: "f".into() };
            vec![ConstInt(1), put, ConstInt(0), ReturnValue]
        }),
        ("AStore", vec![ConstInt(0), ConstInt(1), AStore, ConstInt(0), ReturnValue]),
        ("call with too few arguments", {
            let call = CallStatic { class: "U".into(), method: "two".into(), argc: 2 };
            vec![ConstInt(1), call, ReturnValue]
        }),
        ("ReturnValue on an empty stack", vec![ReturnValue]),
    ];
    for (what, body) in table {
        let class = ClassBuilder::new("U")
            .field("f", Type::Int)
            .static_method("two", [Type::Int, Type::Int], Type::Int, |m| {
                m.instrs([Load(0), Load(1), Add, ReturnValue]);
            })
            .static_method("bad", [], Type::Int, |m| {
                m.instrs(body);
            })
            .build();
        let mut vm = Vm::new(VmConfig::small());
        let err = vm.load_classes(&[class]).expect_err(what);
        assert!(
            matches!(&err, VmError::LoadError { message, .. } if message.contains("underflow")),
            "{what}: {err}"
        );
        // Rejected before anything could run or compile it.
        assert!(vm.registry().class_id(&"U".into()).is_none(), "{what}: class registered");
        assert!(vm.spawn("U", "bad").is_err(), "{what}: spawnable");
        assert_eq!(vm.stats().base_compiles, 0, "{what}: compiled");
    }
}
