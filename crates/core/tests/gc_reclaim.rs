//! Paper §3.4: "Once it processes all pairs, the log is deleted, making
//! the duplicate old versions unreachable. Since they are unreachable,
//! the next garbage collection will naturally reclaim them."

//!
//! That is the interpreted-transformer path. A class whose transformer
//! lowers to a copy plan never has an old copy in the first place.

use jvolve::{apply, ApplyOptions, Update};
use jvolve_vm::heap::NoRemap;
use jvolve_vm::{Vm, VmConfig};

/// Boots 2000 live two-field `Item`s, collects, and applies the update
/// that adds a third field. Returns the VM and the pre-update live size.
fn updated_items(opts: &ApplyOptions) -> (Vm, usize) {
    let old_src = "
      class Item { field a: int; field b: int; }
      class H {
        static field keep: Item[];
        static method init(n: int): void {
          H.keep = new Item[n];
          var i: int = 0;
          while (i < n) { H.keep[i] = new Item(); i = i + 1; }
        }
      }
      class M { static method main(): void { H.init(2000); } }";
    let new_src = old_src.replace(
        "class Item { field a: int; field b: int; }",
        "class Item { field a: int; field b: int; field c: int; }",
    );
    let old = jvolve_lang::compile(old_src).unwrap();
    let new = jvolve_lang::compile(&new_src).unwrap();
    let config = VmConfig { semispace_words: 256 * 1024, ..VmConfig::default() };
    let mut vm = Vm::new(config);
    vm.load_classes(&old).unwrap();
    vm.spawn("M", "main").unwrap();
    assert!(vm.run_to_completion(1_000_000));

    // Live set: 2000 Items of 2 fields + the array.
    vm.collect_full(&NoRemap).unwrap();
    let baseline = vm.heap().used_words();

    let update = Update::prepare(&old, &new, "v1_").unwrap();
    let stats = apply(&mut vm, &update, opts).unwrap();
    assert_eq!(stats.objects_transformed, 2000);
    let planned = if opts.interpret_all_transformers {
        0
    } else {
        2000
    };
    assert_eq!(stats.objects_planned, planned);
    (vm, baseline)
}

#[test]
fn old_copies_are_reclaimed_by_the_next_collection() {
    let opts = ApplyOptions {
        interpret_all_transformers: true,
        ..ApplyOptions::default()
    };
    let (mut vm, baseline) = updated_items(&opts);

    // Immediately after the update the heap holds the new objects AND the
    // unreachable old copies.
    let after_update = vm.heap().used_words();
    assert!(
        after_update > baseline + 2000 * 3,
        "old copies still occupy the heap: {after_update} vs {baseline}"
    );

    // The next collection reclaims them: usage returns to roughly the new
    // live set (old live set + one extra word per transformed Item).
    vm.collect_full(&NoRemap).unwrap();
    let after_gc = vm.heap().used_words();
    assert!(
        after_gc < after_update - 2000 * 2,
        "old copies should be gone: {after_gc} vs {after_update}"
    );
    assert!(
        after_gc >= baseline + 2000,
        "new objects are one word larger each: {after_gc} vs {baseline}"
    );
}

#[test]
fn a_planned_object_never_has_an_old_copy_to_reclaim() {
    let (mut vm, baseline) = updated_items(&ApplyOptions::default());

    // The update GC allocated exactly the new objects, one word larger
    // each, and the next collection finds nothing more to drop.
    let after_update = vm.heap().used_words();
    assert_eq!(after_update, baseline + 2000);
    vm.collect_full(&NoRemap).unwrap();
    assert_eq!(vm.heap().used_words(), after_update);
}
