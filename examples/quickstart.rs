//! Quickstart: the paper's §2.3 example — add a field to a `List` class
//! and update the running program, transforming every live instance.
//!
//! Run with: `cargo run --example quickstart`

use jvolve_repro::dsu::{apply, ApplyOptions, Update};
use jvolve_repro::vm::{Value, Vm, VmConfig};

fn main() {
    // Version 1: a linked list without the `x` field.
    let v1 = jvolve_repro::lang::compile(
        "class List {
           field next: List;
           ctor(n: List) { this.next = n; }
           method length(): int {
             if (this.next == null) { return 1; }
             return 1 + this.next.length();
           }
         }
         class Program {
           static field head: List;
           static method build(): void {
             Program.head = new List(new List(new List(null)));
           }
           static method len(): int { return Program.head.length(); }
         }",
    )
    .expect("v1 compiles");

    // Version 2: `List` gains an int field `x` (paper §2.3: the default
    // transformer keeps `next` and zeroes `x`).
    let v2 = jvolve_repro::lang::compile(
        "class List {
           field next: List;
           field x: int;
           ctor(n: List) { this.next = n; this.x = 0; }
           method length(): int {
             if (this.next == null) { return 1; }
             return 1 + this.next.length();
           }
           method sumX(): int {
             if (this.next == null) { return this.x; }
             return this.x + this.next.sumX();
           }
         }
         class Program {
           static field head: List;
           static method build(): void {
             Program.head = new List(new List(new List(null)));
           }
           static method len(): int { return Program.head.length(); }
           static method sum(): int { return Program.head.sumX(); }
         }",
    )
    .expect("v2 compiles");

    // Start the program on the VM and build some state.
    let mut vm = Vm::new(VmConfig::small());
    vm.load_classes(&v1).expect("v1 loads");
    vm.call_static_sync("Program", "build", &[]).expect("build runs");
    let len = vm.call_static_sync("Program", "len", &[]).expect("len runs");
    println!("v1: list length = {:?}", len);

    // Prepare the update. The UPT diffs the versions, classifies the
    // changes, and generates default transformers.
    let update = Update::prepare(&v1, &v2, "v1_").expect("update is non-empty");
    println!("\nupdate specification:\n{}", update.spec.to_json());
    println!("generated transformers:\n{}", update.transformers_source());

    // Apply it to the running VM: safe point, class installation, update
    // GC, transformers.
    let stats = apply(&mut vm, &update, &ApplyOptions::default()).expect("update applies");
    println!(
        "applied: {} objects transformed, pause = {:?}",
        stats.objects_transformed, stats.total_time
    );

    // The same list survived — with the new field, zero-initialized.
    let len = vm.call_static_sync("Program", "len", &[]).expect("len runs");
    let sum = vm.call_static_sync("Program", "sum", &[]).expect("sum runs");
    println!("v2: list length = {:?} (state preserved), sum of new x fields = {:?}", len, sum);
    assert_eq!(len, Some(Value::Int(3)));
    assert_eq!(sum, Some(Value::Int(0)));
}
