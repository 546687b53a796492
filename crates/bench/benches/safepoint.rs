//! Bench: DSU safe-point machinery costs — restricted-set computation and
//! full stack scans on a running, loaded VM (§3.2). Run with
//! `cargo bench -p jvolve-bench`. That the controller builds the
//! restricted set once per wait, not once per poll, is a workspace test
//! (`crates/core/tests/controller.rs`).

use jvolve::restricted::{check_stacks, check_stacks_into, RestrictedSet, StackCheck};
use jvolve_apps::harness::{app_vm_config, boot_with, prepare_next};
use jvolve_apps::webserver::{Webserver, PORT};
use jvolve_apps::workload::drive_http;
use jvolve_bench::timing::{report, run};

fn main() {
    // A loaded webserver with worker threads mid-flight.
    let mut vm = boot_with(&Webserver, 4, app_vm_config());
    drive_http(&mut vm, PORT, &["/index.html"], 4, 1_000);
    let update = prepare_next(&Webserver, 4);
    let mut old_set = update.old_classes.clone();
    for b in jvolve_lang::builtins::builtin_classes() {
        old_set.insert(b);
    }

    println!("safepoint: §3.2 machinery, median of 100 runs\n");
    let s = run(100, || RestrictedSet::compute(&update.spec, &old_set, &[]));
    report("restricted_set_compute", &s);

    let restricted = RestrictedSet::compute(&update.spec, &old_set, &[]);
    let s = run(100, || check_stacks(&vm, &restricted));
    report("stack_scan_all_threads", &s);

    // The scratch-reusing variant the controller polls with.
    let mut scratch = StackCheck::default();
    let s = run(100, || check_stacks_into(&vm, &restricted, &mut scratch));
    report("stack_scan_reused_scratch", &s);
}
