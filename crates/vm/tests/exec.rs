//! End-to-end execution tests for the VM substrate.

use std::collections::HashMap;

use jvolve_vm::thread::ThreadState;
use jvolve_vm::{SliceOutcome, Value, Vm, VmConfig, VmError};

fn run_main(src: &str) -> Vm {
    let mut vm = Vm::new(VmConfig::small());
    vm.load_source(src).unwrap();
    vm.spawn("Main", "main").unwrap();
    assert!(vm.run_to_completion(1_000_000), "program did not finish");
    vm
}

#[test]
fn fibonacci_recursion() {
    let vm = run_main(
        "class Main {
           static method fib(n: int): int {
             if (n < 2) { return n; }
             return Main.fib(n - 1) + Main.fib(n - 2);
           }
           static method main(): void { Sys.printInt(Main.fib(15)); }
         }",
    );
    assert_eq!(vm.output(), ["610"]);
}

#[test]
fn objects_and_virtual_dispatch() {
    let vm = run_main(
        "class Shape { method area(): int { return 0; } }
         class Square extends Shape {
           field side: int;
           ctor(s: int) { this.side = s; }
           method area(): int { return this.side * this.side; }
         }
         class Rect extends Shape {
           field w: int; field h: int;
           ctor(w: int, h: int) { this.w = w; this.h = h; }
           method area(): int { return this.w * this.h; }
         }
         class Main {
           static method main(): void {
             var shapes: Shape[] = new Shape[3];
             shapes[0] = new Square(4);
             shapes[1] = new Rect(2, 5);
             shapes[2] = new Shape();
             var total: int = 0;
             var i: int = 0;
             while (i < shapes.length) { total = total + shapes[i].area(); i = i + 1; }
             Sys.printInt(total);
           }
         }",
    );
    assert_eq!(vm.output(), ["26"]);
}

#[test]
fn string_operations() {
    let vm = run_main(
        "class Main {
           static method main(): void {
             var parts: String[] = Str.split(\"alice@example.com\", \"@\");
             Sys.print(parts[0]);
             Sys.print(parts[1]);
             Sys.printInt(Str.len(parts[1]));
             Sys.print(Str.substr(\"hello world\", 6, 11));
             if (Str.startsWith(\"GET /index\", \"GET\")) { Sys.print(\"is-get\"); }
             Sys.printInt(Str.toInt(\" 42 \"));
           }
         }",
    );
    assert_eq!(vm.output(), ["alice", "example.com", "11", "world", "is-get", "42"]);
}

#[test]
fn linked_list_survives_gc_pressure() {
    // Allocate far more than a semispace worth of garbage while keeping a
    // linked list live; the collector must preserve it.
    let mut vm = Vm::new(VmConfig { semispace_words: 8 * 1024, ..VmConfig::default() });
    vm.load_source(
        "class Node {
           field value: int; field next: Node;
           ctor(v: int, n: Node) { this.value = v; this.next = n; }
         }
         class Main {
           static method main(): void {
             var head: Node = null;
             var i: int = 0;
             while (i < 200) {
               head = new Node(i, head);
               // Garbage churn.
               var j: int = 0;
               while (j < 50) { var g: Node = new Node(j, null); j = j + 1; }
               i = i + 1;
             }
             var sum: int = 0;
             var cur: Node = head;
             while (cur != null) { sum = sum + cur.value; cur = cur.next; }
             Sys.printInt(sum);
           }
         }",
    )
    .unwrap();
    vm.spawn("Main", "main").unwrap();
    assert!(vm.run_to_completion(1_000_000));
    assert_eq!(vm.output(), ["19900"]);
    assert!(vm.heap().collections() > 0, "GC should have run");
}

#[test]
fn static_fields_are_gc_roots() {
    let mut vm = Vm::new(VmConfig { semispace_words: 8 * 1024, ..VmConfig::default() });
    vm.load_source(
        "class Holder { static field name: String; }
         class Main {
           static method main(): void {
             Holder.name = \"persistent\";
             var i: int = 0;
             while (i < 2000) { var s: String = \"garbage\" + Str.fromInt(i); i = i + 1; }
             Sys.print(Holder.name);
           }
         }",
    )
    .unwrap();
    vm.spawn("Main", "main").unwrap();
    assert!(vm.run_to_completion(1_000_000));
    assert_eq!(vm.output(), ["persistent"]);
    assert!(vm.heap().collections() > 0);
}

#[test]
fn traps_surface_as_thread_state() {
    let mut vm = Vm::new(VmConfig::small());
    vm.load_source(
        "class Main {
           static method main(): void {
             var xs: int[] = new int[2];
             Sys.printInt(xs[5]);
           }
         }",
    )
    .unwrap();
    let tid = vm.spawn("Main", "main").unwrap();
    vm.run_to_completion(10_000);
    let t = vm.thread(tid).unwrap();
    assert!(
        matches!(&t.state, ThreadState::Trapped(VmError::IndexOutOfBounds { index: 5, .. })),
        "{:?}",
        t.state
    );
}

#[test]
fn null_pointer_trap() {
    let mut vm = Vm::new(VmConfig::small());
    vm.load_source(
        "class A { field x: int; }
         class Main {
           static method main(): void {
             var a: A = null;
             Sys.printInt(a.x);
           }
         }",
    )
    .unwrap();
    let tid = vm.spawn("Main", "main").unwrap();
    vm.run_to_completion(10_000);
    assert!(matches!(
        &vm.thread(tid).unwrap().state,
        ThreadState::Trapped(VmError::NullPointer { .. })
    ));
}

#[test]
fn division_by_zero_trap() {
    let mut vm = Vm::new(VmConfig::small());
    vm.load_source(
        "class Main { static method main(): void { Sys.printInt(1 / (1 - 1)); } }",
    )
    .unwrap();
    let tid = vm.spawn("Main", "main").unwrap();
    vm.run_to_completion(10_000);
    assert!(matches!(
        &vm.thread(tid).unwrap().state,
        ThreadState::Trapped(VmError::DivisionByZero)
    ));
}

#[test]
fn hot_methods_get_jit_compiled() {
    let mut vm = Vm::new(VmConfig::small());
    vm.load_source(
        "class Main {
           static method inc(x: int): int { return x + 1; }
           static method main(): void {
             var i: int = 0;
             var v: int = 0;
             while (i < 500) { v = Main.inc(v); i = i + 1; }
             Sys.printInt(v);
           }
         }",
    )
    .unwrap();
    let tid = vm.spawn("Main", "main").unwrap();
    // The first call already runs fused code: main's first frame is on it.
    let main_code = &vm.thread(tid).unwrap().frames[0].compiled;
    assert!(!main_code.base_pc.is_empty(), "main's first frame runs unfused code");
    assert!(main_code.code.iter().any(|op| op.covers() > 1), "{:?}", main_code.code);
    assert!(vm.run_to_completion(1_000_000));
    assert_eq!(vm.output(), ["500"]);
    let stats = vm.stats();
    assert_eq!(stats.jit_compiles, stats.base_compiles, "every compile fuses");
    assert!(stats.jit_compiles >= 2, "inc and main should have been compiled");
    let class = vm.registry().class_id(&"Main".into()).unwrap();
    for method in ["inc", "main"] {
        let mid = vm.registry().find_method(class, method).unwrap();
        let code = vm.registry().method(mid).compiled.as_ref().unwrap();
        assert!(code.code.iter().any(|op| op.covers() > 1), "{method}: {:?}", code.code);
    }
}

#[test]
fn spawned_threads_run_concurrently() {
    let mut vm = Vm::new(VmConfig { quantum: 50, ..VmConfig::small() });
    vm.load_source(
        "class Worker {
           field id: int;
           ctor(id: int) { this.id = id; }
           method run(): void {
             var i: int = 0;
             while (i < 100) { i = i + 1; }
             Sys.print(\"done \" + Str.fromInt(this.id));
           }
         }
         class Main {
           static method main(): void {
             var i: int = 0;
             while (i < 3) { Sys.spawn(new Worker(i)); i = i + 1; }
             Sys.print(\"spawned\");
           }
         }",
    )
    .unwrap();
    vm.spawn("Main", "main").unwrap();
    assert!(vm.run_to_completion(1_000_000));
    let mut out = vm.output().to_vec();
    out.sort();
    assert_eq!(out, ["done 0", "done 1", "done 2", "spawned"]);
}

#[test]
fn echo_server_over_simulated_network() {
    let mut vm = Vm::new(VmConfig { quantum: 200, ..VmConfig::small() });
    vm.load_source(
        "class Main {
           static method main(): void {
             var l: int = Net.listen(7000);
             var conn: int = Net.accept(l);
             while (true) {
               var line: String = Net.readLine(conn);
               if (line == null) { break; }
               Net.write(conn, \"echo: \" + line);
             }
             Net.close(conn);
           }
         }",
    )
    .unwrap();
    vm.spawn("Main", "main").unwrap();
    // Let the server reach accept (it blocks).
    vm.run_slices(10);
    let conn = vm.net_mut().client_connect(7000).unwrap();
    vm.net_mut().client_send(conn, "hello");
    vm.net_mut().client_send(conn, "world");
    vm.run_slices(20);
    assert_eq!(vm.net_mut().client_recv(conn), Some("echo: hello".to_string()));
    assert_eq!(vm.net_mut().client_recv(conn), Some("echo: world".to_string()));
    vm.net_mut().client_close(conn);
    assert!(vm.run_to_completion(10_000));
}

#[test]
fn sleep_blocks_and_wakes() {
    let mut vm = Vm::new(VmConfig::small());
    vm.load_source(
        "class Main {
           static method main(): void {
             var before: int = Sys.time();
             Sys.sleep(10);
             var after: int = Sys.time();
             if (after >= before + 10) { Sys.print(\"slept\"); }
           }
         }",
    )
    .unwrap();
    vm.spawn("Main", "main").unwrap();
    assert!(vm.run_to_completion(10_000));
    assert_eq!(vm.output(), ["slept"]);
}

#[test]
fn call_static_sync_returns_value() {
    let mut vm = Vm::new(VmConfig::small());
    vm.load_source("class M { static method triple(x: int): int { return x * 3; } }").unwrap();
    let v = vm.call_static_sync("M", "triple", &[Value::Int(14)]).unwrap();
    assert_eq!(v, Some(Value::Int(42)));
}

#[test]
fn return_barrier_fires_on_return() {
    let mut vm = Vm::new(VmConfig { quantum: 10, ..VmConfig::small() });
    vm.load_source(
        "class Main {
           static method work(): int {
             var i: int = 0;
             while (i < 2000) { i = i + 1; }
             return i;
           }
           static method main(): void {
             Sys.printInt(Main.work());
           }
         }",
    )
    .unwrap();
    let tid = vm.spawn("Main", "main").unwrap();
    // Run until `work` is on the stack.
    let mut on_stack = false;
    for _ in 0..50 {
        vm.step_slice();
        let t = vm.thread(tid).unwrap();
        if t.frames.len() == 2 {
            on_stack = true;
            break;
        }
    }
    assert!(on_stack, "work() should be on the stack");
    let frame_idx = vm.thread(tid).unwrap().frames.len() - 1;
    vm.install_return_barrier(tid, frame_idx).unwrap();

    let mut barrier_hit = false;
    for _ in 0..10_000 {
        let report = vm.step_slice();
        if let SliceOutcome::ReturnBarrier { .. } = report.event {
            barrier_hit = true;
            break;
        }
    }
    assert!(barrier_hit, "return barrier should fire when work() returns");
    assert!(vm.run_to_completion(10_000));
    assert_eq!(vm.output(), ["2000"]);
}

#[test]
fn osr_replaces_base_compiled_frame() {
    let mut vm = Vm::new(VmConfig { quantum: 10, ..VmConfig::small() });
    vm.load_source(
        "class Main {
           static method spin(): int {
             var i: int = 0;
             while (i < 5000) { i = i + 1; }
             return i;
           }
           static method main(): void { Sys.printInt(Main.spin()); }
         }",
    )
    .unwrap();
    let tid = vm.spawn("Main", "main").unwrap();
    for _ in 0..20 {
        vm.step_slice();
        if vm.thread(tid).unwrap().frames.len() == 2 {
            break;
        }
    }
    let before = vm.thread(tid).unwrap().frames[1].pc;
    vm.osr_replace(tid, 1).unwrap();
    let after = vm.thread(tid).unwrap().frames[1].pc;
    assert_eq!(before, after, "OSR keeps the pc (1:1 base mapping)");
    assert!(vm.run_to_completion(100_000));
    assert_eq!(vm.output(), ["5000"]);
}

#[test]
fn update_gc_and_transformers_end_to_end() {
    // A miniature of the §3.4 flow, using VM mechanisms directly: class
    // Point gets a new field `z`; the transformer copies x/y and sets
    // z = x + y.
    let mut vm = Vm::new(VmConfig::small());
    vm.load_source(
        "class Point {
           field x: int; field y: int;
           ctor(x: int, y: int) { this.x = x; this.y = y; }
         }
         class Holder { static field p: Point; }
         class Main {
           static method main(): void { Holder.p = new Point(3, 4); }
         }",
    )
    .unwrap();
    vm.spawn("Main", "main").unwrap();
    assert!(vm.run_to_completion(10_000));

    // Rename the old class and load the new version plus transformer.
    let old_id = vm.registry().class_id(&"Point".into()).unwrap();
    vm.registry_mut().rename_class(old_id, "v1_Point".into()).unwrap();
    vm.registry_mut().strip_methods(old_id);

    let old_stub = vm.registry().class(old_id).file.clone();
    let mut externs = jvolve_classfile::ClassSet::new();
    externs.insert(old_stub);
    let new_classes = jvolve_lang::compile_with(
        "class Point {
           field x: int; field y: int; field z: int;
           ctor(x: int, y: int) { this.x = x; this.y = y; this.z = 0; }
         }",
        &jvolve_lang::CompileOptions { externs: externs.clone(), override_access: false },
    )
    .unwrap();
    let new_ids = vm.load_classes(&new_classes).unwrap();
    let new_id = new_ids[0];
    externs.insert(new_classes[0].clone());

    let transformer = jvolve_lang::compile_with(
        "class JvolveTransformers {
           static method jvolve_object_Point(to: Point, from: v1_Point): void {
             to.x = from.x;
             to.y = from.y;
             to.z = from.x + from.y;
           }
         }",
        &jvolve_lang::CompileOptions { externs, override_access: true },
    )
    .unwrap();
    let tids = vm.load_classes(&transformer).unwrap();
    let tmid = vm.registry().find_method(tids[0], "jvolve_object_Point").unwrap();

    let mut remap = HashMap::new();
    remap.insert(old_id, new_id);
    let mut tf = HashMap::new();
    tf.insert(new_id, jvolve_vm::ObjectTransformer::Method(tmid));
    // An eager commit: the whole copy, then the logged pair's transformer.
    vm.begin_update_copy(remap, tf, None).unwrap();
    assert_eq!(vm.run_transformers().unwrap(), 1, "one pair was logged");
    vm.finish_update_copy();

    // The static still points at a valid Point, now with z = 7.
    let p = vm.read_static("Holder", "p");
    let Value::Ref(r) = p else { panic!("Holder.p should be a ref") };
    assert_eq!(vm.read_field(r, "x"), Value::Int(3));
    assert_eq!(vm.read_field(r, "y"), Value::Int(4));
    assert_eq!(vm.read_field(r, "z"), Value::Int(7));
    assert_eq!(vm.update_count(), 1);
}
