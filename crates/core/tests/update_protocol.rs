//! Integration tests for the full update protocol (paper §2–§3).

use jvolve::{apply, ApplyOptions, Update, UpdateError};
use jvolve_classfile::MethodRef;
use jvolve_vm::{Value, Vm, VmConfig};

fn vm_with(src: &str) -> (Vm, Vec<jvolve_classfile::ClassFile>) {
    let classes = jvolve_lang::compile(src).unwrap();
    let mut vm = Vm::new(VmConfig::small());
    vm.load_classes(&classes).unwrap();
    (vm, classes)
}

fn quick_opts() -> ApplyOptions {
    ApplyOptions { timeout_slices: 2_000, ..ApplyOptions::default() }
}

#[test]
fn figure_2_3_email_update_end_to_end() {
    // The paper's running example: User.forwardAddresses changes from
    // String[] to EmailAddress[], with the Figure 3 custom transformer
    // splitting each address at '@'.
    let old_src = "
      class User {
        private final field username: String;
        private field forwardAddresses: String[];
        ctor(u: String) {
          this.username = u;
          this.forwardAddresses = new String[2];
          this.forwardAddresses[0] = \"alice@example.com\";
          this.forwardAddresses[1] = \"bob@test.org\";
        }
        method describe(): String { return this.username; }
      }
      class Store {
        static field user: User;
        static method init(): void { Store.user = new User(\"admin\"); }
        static method describe(): String { return Store.user.describe(); }
      }";
    let new_src = "
      class EmailAddress {
        field username: String; field domain: String;
        ctor(u: String, d: String) { this.username = u; this.domain = d; }
        method render(): String { return this.username + \"@\" + this.domain; }
      }
      class User {
        private final field username: String;
        private field forwardAddresses: EmailAddress[];
        ctor(u: String) {
          this.username = u;
          this.forwardAddresses = new EmailAddress[0];
        }
        method describe(): String {
          var s: String = this.username;
          var i: int = 0;
          while (i < this.forwardAddresses.length) {
            s = s + \" \" + this.forwardAddresses[i].render();
            i = i + 1;
          }
          return s;
        }
      }
      class Store {
        static field user: User;
        static method init(): void { Store.user = new User(\"admin\"); }
        static method describe(): String { return Store.user.describe(); }
      }";
    let (mut vm, old) = vm_with(old_src);
    vm.call_static_sync("Store", "init", &[]).unwrap();

    let new = jvolve_lang::compile(new_src).unwrap();
    let mut update = Update::prepare(&old, &new, "v131_").unwrap();

    // The Figure 3 customization.
    update.set_transformers_source(
        "class JvolveTransformers {
           static method jvolve_class_User(): void { }
           static method jvolve_object_User(to: User, from: v131_User): void {
             to.username = from.username;
             var len: int = from.forwardAddresses.length;
             to.forwardAddresses = new EmailAddress[len];
             var i: int = 0;
             while (i < len) {
               var parts: String[] = Str.split(from.forwardAddresses[i], \"@\");
               to.forwardAddresses[i] = new EmailAddress(parts[0], parts[1]);
               i = i + 1;
             }
           }
         }",
    );

    let stats = apply(&mut vm, &update, &quick_opts()).unwrap();
    assert_eq!(stats.objects_transformed, 1, "one User instance");
    assert!(stats.gc_copied_cells >= 2, "update GC duplicated the User instance");
    assert!(stats.gc_copied_words > stats.gc_copied_cells, "cells carry headers + fields");

    let v = vm.call_static_sync("Store", "describe", &[]).unwrap().unwrap();
    assert_eq!(
        vm.display_value(v),
        "admin alice@example.com bob@test.org",
        "old state was converted element-wise by the custom transformer"
    );
}

#[test]
fn wait_is_why_store_static_survives() {
    // Regression guard for the previous test: Store is a class update
    // too? No — Store's *bytecode* changed? Its source is identical in
    // both versions, so it must NOT be a class update, and its static
    // must survive untouched without a transformer.
    let old_src = "
      class A { field x: int; }
      class Store {
        static field n: int;
        static method init(): void { Store.n = 77; }
      }";
    let new_src = "
      class A { field x: int; field y: int; }
      class Store {
        static field n: int;
        static method init(): void { Store.n = 77; }
      }";
    let (mut vm, old) = vm_with(old_src);
    vm.call_static_sync("Store", "init", &[]).unwrap();
    let new = jvolve_lang::compile(new_src).unwrap();
    let update = Update::prepare(&old, &new, "v1_").unwrap();
    apply(&mut vm, &update, &quick_opts()).unwrap();
    assert_eq!(vm.read_static("Store", "n"), Value::Int(77));
}

#[test]
fn default_transformer_preserves_unchanged_fields() {
    let old_src = "
      class Item {
        field name: String; field price: int;
        ctor(n: String, p: int) { this.name = n; this.price = p; }
      }
      class Shop {
        static field first: Item;
        static method init(): void { Shop.first = new Item(\"apple\", 3); }
      }";
    let new_src = "
      class Item {
        field name: String; field price: int; field stock: int;
        ctor(n: String, p: int) { this.name = n; this.price = p; this.stock = 0; }
      }
      class Shop {
        static field first: Item;
        static method init(): void { Shop.first = new Item(\"apple\", 3); }
      }";
    let (mut vm, old) = vm_with(old_src);
    vm.call_static_sync("Shop", "init", &[]).unwrap();
    let new = jvolve_lang::compile(new_src).unwrap();
    let update = Update::prepare(&old, &new, "v1_").unwrap();
    // Default transformers only — no customization.
    apply(&mut vm, &update, &quick_opts()).unwrap();

    let Value::Ref(item) = vm.read_static("Shop", "first") else { panic!() };
    assert_eq!(vm.display_value(vm.read_field(item, "name")), "apple");
    assert_eq!(vm.read_field(item, "price"), Value::Int(3));
    assert_eq!(vm.read_field(item, "stock"), Value::Int(0), "new field defaults to 0");
}

#[test]
fn update_waits_for_restricted_method_to_leave_stack() {
    // A changed method is running when the update is requested: the
    // driver must install a return barrier, wait, then apply.
    let src_v1 = "
      class Main {
        static field progress: int;
        static method work(): void {
          var i: int = 0;
          while (i < 30000) { i = i + 1; }
          Main.progress = i;
        }
        static method tag(): int { return 1; }
        static method main(): void {
          Main.work();
          Sys.printInt(Main.tag());
        }
      }";
    let src_v2 = src_v1.replace("return 1;", "return 2;").replace("i < 30000", "i < 30001");
    let (mut vm, old) = vm_with(src_v1);
    let new = jvolve_lang::compile(&src_v2).unwrap();
    vm.spawn("Main", "main").unwrap();
    // Run until work() is on stack.
    let mut cfg_hit = false;
    for _ in 0..50 {
        vm.step_slice();
        if vm.threads().any(|t| t.frames.len() == 2) {
            cfg_hit = true;
            break;
        }
    }
    assert!(cfg_hit);

    let update = Update::prepare(&old, &new, "v1_").unwrap();
    let stats = apply(&mut vm, &update, &quick_opts()).unwrap();
    assert!(stats.slices_waited > 0, "had to wait for work() to return");
    assert!(stats.barriers_installed > 0, "a return barrier was used");

    assert!(vm.run_to_completion(100_000));
    // tag() ran AFTER the update, so the new version executed.
    assert_eq!(vm.output(), ["2"]);
}

#[test]
fn update_times_out_on_always_running_method() {
    // The paper's two unsupported updates: the changed method contains an
    // infinite loop that is always on stack (Jetty 5.1.3 acceptSocket,
    // JavaEmailServer 1.3 processing loops).
    let src_v1 = "
      class Server {
        static method serve(): void {
          while (true) { Sys.yieldNow(); }
        }
      }";
    let src_v2 = src_v1.replace("Sys.yieldNow();", "Sys.yieldNow(); Sys.yieldNow();");
    let (mut vm, old) = vm_with(src_v1);
    vm.spawn("Server", "serve").unwrap();
    vm.run_slices(5);

    let new = jvolve_lang::compile(&src_v2).unwrap();
    let update = Update::prepare(&old, &new, "v1_").unwrap();
    let opts = ApplyOptions { timeout_slices: 200, ..ApplyOptions::default() };
    let err = apply(&mut vm, &update, &opts).unwrap_err();
    let UpdateError::Timeout { blocking, .. } = err else {
        panic!("expected timeout, got {err}");
    };
    assert!(blocking.iter().any(|b| b.contains("serve")), "{blocking:?}");

    // The VM still runs the old version and barriers are cleared.
    assert!(vm.threads().all(|t| t.frames.iter().all(|f| !f.return_barrier)));
    vm.run_slices(5);
}

#[test]
fn category_2_methods_get_osr_when_on_stack() {
    // Main.spin() references class A (reads a field in its loop). A gains
    // a field, so spin is category-2. spin never returns until done, but
    // it is base-compiled, so OSR lifts the restriction.
    let src_v1 = "
      class A {
        field x: int;
        ctor(x: int) { this.x = x; }
      }
      class Main {
        static field result: int;
        static method spin(a: A): void {
          var i: int = 0;
          var acc: int = 0;
          while (i < 60000) { acc = acc + a.x; i = i + 1; }
          Main.result = acc;
        }
        static method main(): void { Main.spin(new A(1)); }
      }";
    // New version: field added BEFORE x (shifting its offset), and an
    // unrelated method body tweak elsewhere to make the update non-empty
    // beyond A.
    let src_v2 = "
      class A {
        field pad: int;
        field x: int;
        ctor(x: int) { this.pad = 0; this.x = x; }
      }
      class Main {
        static field result: int;
        static method spin(a: A): void {
          var i: int = 0;
          var acc: int = 0;
          while (i < 60000) { acc = acc + a.x; i = i + 1; }
          Main.result = acc;
        }
        static method main(): void { Main.spin(new A(1)); }
      }";
    let mut vm = Vm::new(VmConfig { quantum: 500, ..VmConfig::small() });
    let old = jvolve_lang::compile(src_v1).unwrap();
    vm.load_classes(&old).unwrap();
    vm.spawn("Main", "main").unwrap();
    for _ in 0..5 {
        vm.step_slice();
    }
    assert!(
        vm.threads().any(|t| t.frames.len() >= 2),
        "spin() should be running"
    );

    let new = jvolve_lang::compile(src_v2).unwrap();
    let update = Update::prepare(&old, &new, "v1_").unwrap();
    assert!(
        update.spec.indirect_methods.contains(&MethodRef::new("Main", "spin")),
        "spin must be category-2: {:?}",
        update.spec.indirect_methods
    );
    let stats = apply(&mut vm, &update, &quick_opts()).unwrap();
    assert!(stats.osr_replacements > 0, "OSR should have replaced spin's frame");

    assert!(vm.run_to_completion(1_000_000));
    // spin kept reading a.x correctly across the layout change.
    assert_eq!(vm.read_static("Main", "result"), Value::Int(60_000));
}

#[test]
fn without_osr_category_2_update_times_out() {
    // Ablation: same scenario as above but OSR disabled — the update
    // cannot be applied while spin runs.
    let src_v1 = "
      class A { field x: int; ctor(x: int) { this.x = x; } }
      class Main {
        static method spin(a: A): int {
          var i: int = 0;
          var acc: int = 0;
          while (i < 1000000) { acc = acc + a.x; i = i + 1; }
          return acc;
        }
        static method main(): void { Sys.printInt(Main.spin(new A(1))); }
      }";
    let src_v2 = src_v1.replace("field x: int; ctor", "field pad: int; field x: int; ctor");
    let mut vm = Vm::new(VmConfig { quantum: 500, ..VmConfig::small() });
    let old = jvolve_lang::compile(src_v1).unwrap();
    vm.load_classes(&old).unwrap();
    vm.spawn("Main", "main").unwrap();
    for _ in 0..5 {
        vm.step_slice();
    }

    let new = jvolve_lang::compile(&src_v2).unwrap();
    let update = Update::prepare(&old, &new, "v1_").unwrap();
    let opts = ApplyOptions { timeout_slices: 100, use_osr: false, ..ApplyOptions::default() };
    let err = apply(&mut vm, &update, &opts).unwrap_err();
    assert!(matches!(err, UpdateError::Timeout { .. }), "{err}");
}

#[test]
fn blacklisted_method_blocks_update() {
    // Paper §3.2's handle/process/cleanup version-consistency example:
    // the user restricts an otherwise-unchanged method.
    let src_v1 = "
      class H {
        static method handle(): void {
          var i: int = 0;
          while (i < 50000) { i = i + 1; }
        }
        static method tweak(): int { return 1; }
      }";
    let src_v2 = src_v1.replace("return 1;", "return 2;");
    let (mut vm, old) = vm_with(src_v1);
    vm.spawn("H", "handle").unwrap();
    vm.step_slice();

    let new = jvolve_lang::compile(&src_v2).unwrap();
    let mut update = Update::prepare(&old, &new, "v1_").unwrap();
    update.blacklist([MethodRef::new("H", "handle")]);
    let opts = ApplyOptions { timeout_slices: 30, ..ApplyOptions::default() };
    let err = apply(&mut vm, &update, &opts).unwrap_err();
    let UpdateError::Timeout { blocking, .. } = err else { panic!("{err}") };
    assert!(blocking.iter().any(|b| b.contains("handle")));
}

#[test]
fn hierarchy_update_propagates_to_subclass_instances() {
    // Deleting a parent field: subclass instances must be transformed too
    // (paper §2.2).
    let src_v1 = "
      class P { field a: int; field stale: int; ctor() { this.a = 10; this.stale = 99; } }
      class C extends P { field c: int; ctor() { super(); this.c = 30; } }
      class Keep {
        static field obj: C;
        static method init(): void { Keep.obj = new C(); }
      }";
    let src_v2 = "
      class P { field a: int; ctor() { this.a = 10; } }
      class C extends P { field c: int; ctor() { super(); this.c = 30; } }
      class Keep {
        static field obj: C;
        static method init(): void { Keep.obj = new C(); }
      }";
    let (mut vm, old) = vm_with(src_v1);
    vm.call_static_sync("Keep", "init", &[]).unwrap();
    let new = jvolve_lang::compile(src_v2).unwrap();
    let update = Update::prepare(&old, &new, "v1_").unwrap();
    let stats = apply(&mut vm, &update, &quick_opts()).unwrap();
    assert_eq!(stats.objects_transformed, 1);

    let Value::Ref(obj) = vm.read_static("Keep", "obj") else { panic!() };
    assert_eq!(vm.read_field(obj, "a"), Value::Int(10), "inherited field survived");
    assert_eq!(vm.read_field(obj, "c"), Value::Int(30), "own field survived");
    // The new layout has exactly two fields.
    let class = vm.heap().class_of(obj);
    assert_eq!(vm.registry().class(class).layout.len(), 2);
}

#[test]
fn successive_updates_compose() {
    let v1 = "class K { static field n: int;
               static method get(): int { return K.n; }
               static method set(v: int): void { K.n = v; } }";
    let v2 = "class K { static field n: int;
               static method get(): int { return K.n + 100; }
               static method set(v: int): void { K.n = v; } }";
    let v3 = "class K { static field n: int; static field extra: int;
               static method get(): int { return K.n + K.extra + 1000; }
               static method set(v: int): void { K.n = v; } }";
    let c1 = jvolve_lang::compile(v1).unwrap();
    let c2 = jvolve_lang::compile(v2).unwrap();
    let c3 = jvolve_lang::compile(v3).unwrap();

    let mut vm = Vm::new(VmConfig::small());
    vm.load_classes(&c1).unwrap();
    vm.call_static_sync("K", "set", &[Value::Int(5)]).unwrap();

    let u12 = Update::prepare(&c1, &c2, "v1_").unwrap();
    apply(&mut vm, &u12, &quick_opts()).unwrap();
    assert_eq!(vm.call_static_sync("K", "get", &[]).unwrap(), Some(Value::Int(105)));

    let u23 = Update::prepare(&c2, &c3, "v2_").unwrap();
    apply(&mut vm, &u23, &quick_opts()).unwrap();
    assert_eq!(
        vm.call_static_sync("K", "get", &[]).unwrap(),
        Some(Value::Int(1005)),
        "static state survived two updates (extra defaults to 0)"
    );
    assert_eq!(vm.update_count(), 2);
}

#[test]
fn method_deletion_and_addition() {
    let v1 = "class M {
                method old(): int { return 1; }
                method stable(): int { return this.old(); }
              }
              class D { static field m: M; static method init(): void { D.m = new M(); }
                        static method poke(): int { return D.m.stable(); } }";
    let v2 = "class M {
                method fresh(): int { return 2; }
                method stable(): int { return this.fresh(); }
              }
              class D { static field m: M; static method init(): void { D.m = new M(); }
                        static method poke(): int { return D.m.stable(); } }";
    let (mut vm, old) = vm_with(v1);
    vm.call_static_sync("D", "init", &[]).unwrap();
    assert_eq!(vm.call_static_sync("D", "poke", &[]).unwrap(), Some(Value::Int(1)));

    let new = jvolve_lang::compile(v2).unwrap();
    let update = Update::prepare(&old, &new, "v1_").unwrap();
    apply(&mut vm, &update, &quick_opts()).unwrap();
    assert_eq!(
        vm.call_static_sync("D", "poke", &[]).unwrap(),
        Some(Value::Int(2)),
        "existing instance dispatches through the new TIB"
    );
}

#[test]
fn update_with_live_threads_and_heap_churn() {
    // Update while several guest threads allocate heavily: the update GC
    // and the transformers must coexist with real heap pressure.
    let v1 = "
      class Rec { field id: int; ctor(id: int) { this.id = id; } }
      class Worker {
        ctor() { }
        method run(): void {
          var i: int = 0;
          while (i < 3000) {
            var r: Rec = new Rec(i);
            i = i + 1;
          }
        }
      }
      class Main {
        static field keep: Rec;
        static method main(): void {
          Main.keep = new Rec(42);
          var i: int = 0;
          while (i < 3) { Sys.spawn(new Worker()); i = i + 1; }
        }
      }";
    let v2 = v1.replace(
        "class Rec { field id: int; ctor(id: int) { this.id = id; } }",
        "class Rec { field id: int; field tag: int; ctor(id: int) { this.id = id; this.tag = 7; } }",
    );
    let mut vm =
        Vm::new(VmConfig { semispace_words: 64 * 1024, quantum: 200, ..VmConfig::default() });
    let old = jvolve_lang::compile(v1).unwrap();
    vm.load_classes(&old).unwrap();
    vm.spawn("Main", "main").unwrap();
    vm.run_slices(10);

    let new = jvolve_lang::compile(&v2).unwrap();
    let update = Update::prepare(&old, &new, "v1_").unwrap();
    let stats = apply(&mut vm, &update, &ApplyOptions { timeout_slices: 50_000, ..Default::default() })
        .unwrap();
    assert!(stats.objects_transformed >= 1);

    assert!(vm.run_to_completion(1_000_000));
    let Value::Ref(keep) = vm.read_static("Main", "keep") else { panic!() };
    assert_eq!(vm.read_field(keep, "id"), Value::Int(42));
    assert_eq!(vm.read_field(keep, "tag"), Value::Int(0), "default transformer zeroes new field");
}

#[test]
fn force_transform_allows_dereferencing_untransformed_referents() {
    // A transformer needs from.next's NEW version to be initialized before
    // reading it: Dsu.forceTransform makes that safe (paper §3.4).
    let v1 = "
      class Node {
        field value: int; field next: Node;
        ctor(v: int, n: Node) { this.value = v; this.next = n; }
      }
      class L {
        static field head: Node;
        static method init(): void { L.head = new Node(1, new Node(2, null)); }
      }";
    let v2 = "
      class Node {
        field value: int; field nextValue: int; field next: Node;
        ctor(v: int, n: Node) { this.value = v; this.next = n; this.nextValue = 0; }
      }
      class L {
        static field head: Node;
        static method init(): void { L.head = new Node(1, new Node(2, null)); }
      }";
    let (mut vm, old) = vm_with(v1);
    vm.call_static_sync("L", "init", &[]).unwrap();

    let new = jvolve_lang::compile(v2).unwrap();
    let mut update = Update::prepare(&old, &new, "v1_").unwrap();
    // Custom transformer caches next.value into nextValue — requires the
    // referent to be transformed first.
    update.set_transformers_source(
        "class JvolveTransformers {
           static method jvolve_class_Node(): void { }
           static method jvolve_object_Node(to: Node, from: v1_Node): void {
             to.value = from.value;
             to.next = from.next;
             if (from.next != null) {
               Dsu.forceTransform(from.next);
               to.nextValue = from.next.value;
             }
           }
         }",
    );
    apply(&mut vm, &update, &quick_opts()).unwrap();

    let Value::Ref(head) = vm.read_static("L", "head") else { panic!() };
    assert_eq!(vm.read_field(head, "value"), Value::Int(1));
    assert_eq!(vm.read_field(head, "nextValue"), Value::Int(2));
}

#[test]
fn transformer_cycle_is_detected_and_aborts() {
    // Two mutually-referencing nodes whose transformers force each other:
    // an ill-defined transformer set; the VM must detect the cycle
    // (paper §3.4: "we detect cycles with a simple check, and abort").
    let v1 = "
      class Pair {
        field other: Pair; field v: int;
        ctor() { this.v = 1; }
      }
      class G {
        static field a: Pair;
        static method init(): void {
          G.a = new Pair();
          var b: Pair = new Pair();
          G.a.other = b;
          b.other = G.a;
        }
      }";
    let v2 = v1.replace("field v: int;", "field v: int; field w: int;");
    let (mut vm, old) = vm_with(v1);
    vm.call_static_sync("G", "init", &[]).unwrap();

    let new = jvolve_lang::compile(&v2).unwrap();
    let mut update = Update::prepare(&old, &new, "v1_").unwrap();
    update.set_transformers_source(
        "class JvolveTransformers {
           static method jvolve_class_Pair(): void { }
           static method jvolve_object_Pair(to: Pair, from: v1_Pair): void {
             to.v = from.v;
             to.other = from.other;
             if (from.other != null) {
               Dsu.forceTransform(from.other);
               to.w = from.other.v;
             }
           }
         }",
    );
    let err = apply(&mut vm, &update, &quick_opts()).unwrap_err();
    assert!(
        matches!(err, UpdateError::Vm(jvolve_vm::VmError::TransformerCycle)),
        "{err}"
    );
}

#[test]
fn steady_state_code_is_untouched_when_unrelated() {
    // Updating class B must not invalidate compiled code that never
    // mentions B — the zero-steady-state-overhead story.
    let v1 = "class Hot { static method f(x: int): int { return x * 2; } }
              class B { field b: int; }";
    let v2 = "class Hot { static method f(x: int): int { return x * 2; } }
              class B { field b: int; field b2: int; }";
    let (mut vm, old) = vm_with(v1);
    // Warm Hot.f.
    for _ in 0..5 {
        vm.call_static_sync("Hot", "f", &[Value::Int(1)]).unwrap();
    }
    let hot = vm.registry().class_id(&"Hot".into()).unwrap();
    let f = vm.registry().find_method(hot, "f").unwrap();
    let invalidations_before = vm.registry().method(f).invalidations;

    let new = jvolve_lang::compile(v2).unwrap();
    let update = Update::prepare(&old, &new, "v1_").unwrap();
    apply(&mut vm, &update, &quick_opts()).unwrap();

    assert_eq!(
        vm.registry().method(f).invalidations,
        invalidations_before,
        "Hot.f does not reference B and must keep its compiled code"
    );
}

#[test]
fn update_spec_json_written_and_read_back() {
    let v1 = "class A { field x: int; }";
    let v2 = "class A { field x: int; field y: int; }";
    let old = jvolve_lang::compile(v1).unwrap();
    let new = jvolve_lang::compile(v2).unwrap();
    let update = Update::prepare(&old, &new, "v1_").unwrap();
    let json = update.spec.to_json();
    let parsed = jvolve::UpdateSpec::from_json(&json).unwrap();
    assert_eq!(parsed, update.spec);
}

#[test]
fn migration_falls_back_to_barriers_when_pc_is_unmappable() {
    // The running method's hot region is DELETED in the new version: the
    // frame's pc cannot map, so even with migration enabled the driver
    // must wait for the frame to return (barrier path).
    let src_v1 = "
      class W {
        static method work(): void {
          var i: int = 0;
          while (i < 30000) { i = i + 1; }
        }
        static method main(): void {
          W.work();
          Sys.printInt(9);
        }
      }";
    let src_v2 = "
      class W {
        static method work(): void {
          Sys.yieldNow();
        }
        static method main(): void {
          W.work();
          Sys.printInt(9);
        }
      }";
    let (mut vm, old) = vm_with(src_v1);
    vm.spawn("W", "main").unwrap();
    for _ in 0..50 {
        vm.step_slice();
        if vm.threads().any(|t| t.frames.len() == 2) {
            break;
        }
    }
    let new = jvolve_lang::compile(src_v2).unwrap();
    let update = Update::prepare(&old, &new, "v1_").unwrap();
    let opts = ApplyOptions {
        timeout_slices: 2_000,
        migrate_active_methods: true,
        ..ApplyOptions::default()
    };
    let stats = apply(&mut vm, &update, &opts).unwrap();
    assert_eq!(stats.active_migrations, 0, "the loop body is gone; no migration possible");
    assert!(stats.barriers_installed > 0, "fell back to the return-barrier path");
    assert!(vm.run_to_completion(100_000));
    assert_eq!(vm.output(), ["9"]);
}

#[test]
fn total_time_is_wall_clock_and_tracks_phase_sum() {
    let old_src = "
      class A { field x: int; ctor() { this.x = 3; } }
      class Store {
        static field a: A;
        static method init(): void { Store.a = new A(); }
      }";
    let new_src = "
      class A { field x: int; field y: int; ctor() { this.x = 3; } }
      class Store {
        static field a: A;
        static method init(): void { Store.a = new A(); }
      }";
    let (mut vm, old) = vm_with(old_src);
    vm.call_static_sync("Store", "init", &[]).unwrap();
    let new = jvolve_lang::compile(new_src).unwrap();
    let update = Update::prepare(&old, &new, "v1_").unwrap();
    let stats = apply(&mut vm, &update, &quick_opts()).unwrap();

    // total_time spans the whole apply, so it bounds the disjoint phases;
    // the remainder is untimed bookkeeping and must stay negligible.
    assert!(
        stats.total_time >= stats.phase_sum(),
        "total {:?} < phase sum {:?}",
        stats.total_time,
        stats.phase_sum()
    );
    let gap = stats.total_time - stats.phase_sum();
    assert!(
        gap < std::time::Duration::from_millis(100),
        "untimed bookkeeping gap too large: {gap:?}"
    );
}

#[test]
fn field_moved_from_superclass_to_subclass_keeps_its_value() {
    // The default transformer of `C` reads `from.m` through the renamed
    // old subclass; `m` was declared by the *old* `P`. The registry must
    // resolve `v1_C`'s superclass to `v1_P`, not to the new `P` (which no
    // longer has `m`) — with either transformer path.
    let old_src = "
      class P { field a: int; field m: int; }
      class C extends P { field c: int; }
      class H {
        static field o: C;
        static method init(): void {
          H.o = new C(); H.o.a = 1; H.o.m = 2; H.o.c = 3;
        }
        static method sum(): int { return H.o.a * 100 + H.o.m * 10 + H.o.c; }
      }";
    let new_src = old_src
        .replace("class P { field a: int; field m: int; }", "class P { field a: int; }")
        .replace("class C extends P { field c: int; }", "class C extends P { field c: int; field m: int; }");
    let new = jvolve_lang::compile(&new_src).unwrap();
    for interpret_all_transformers in [false, true] {
        let (mut vm, old) = vm_with(old_src);
        vm.call_static_sync("H", "init", &[]).unwrap();
        let update = Update::prepare(&old, &new, "v1_").unwrap();
        let opts = ApplyOptions { interpret_all_transformers, ..quick_opts() };
        let stats = apply(&mut vm, &update, &opts).unwrap();
        assert_eq!(stats.objects_transformed, 1);
        assert_eq!(stats.objects_planned, usize::from(!interpret_all_transformers));
        let sum = vm.call_static_sync("H", "sum", &[]).unwrap();
        assert_eq!(sum, Some(Value::Int(123)));
    }
}
