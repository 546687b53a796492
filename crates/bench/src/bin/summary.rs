//! The paper's §4 headline numbers:
//!
//! * JVolve supports **20 of the 22** updates (the two failures change
//!   methods inside always-on-stack loops);
//! * method-body-only ("edit and continue") systems support far fewer;
//! * update phase timings (§4.1's "thread-suspend < 1 ms, classloading
//!   < 20 ms, pause dominated by GC + transformers"), with the `Pending`
//!   step — validation and, for these hand-prepared updates, the
//!   transformer compile — in a column of its own: it is not pause time.
//!
//! Usage: `cargo run --release -p jvolve-bench --bin summary`

use jvolve::{apply, UpdateOutcome};
use jvolve_apps::harness::{bench_apply_options, boot, prepare_next};

fn main() {
    let migrate = std::env::args().any(|a| a == "--migrate");
    let mut opts = bench_apply_options();
    if migrate {
        // The paper's §3.5 future work: UpStare-style active-method
        // migration.
        opts.migrate_active_methods = true;
    }
    let mut total = 0;
    let mut supported = 0;
    let mut body_only_supported = 0;
    let mut failures: Vec<String> = Vec::new();
    let mut phase_lines: Vec<String> = Vec::new();

    for app in jvolve_apps::all_apps() {
        let versions = app.versions();
        for from in 0..versions.len() - 1 {
            total += 1;
            let to_label = versions[from + 1].label;
            let update = prepare_next(app.as_ref(), from);
            if update.spec.is_body_only() {
                body_only_supported += 1;
            }
            let mut vm = boot(app.as_ref(), from);
            let result = apply(&mut vm, &update, &opts);
            if result.is_ok() {
                supported += 1;
            } else {
                let outcome = UpdateOutcome::from(&result);
                failures.push(format!("{} -> {to_label}: {outcome}", app.name()));
            }
            if let Ok(s) = result {
                phase_lines.push(format!(
                    "{:<12} {:<7} pending {:>8.3}ms  safepoint {:>8.3}ms  load {:>8.3}ms  \
                     gc {:>8.3}ms  transform {:>8.3}ms  wall {:>8.3}ms (phases {:>8.3}ms)  \
                     (objects {:>4}, cells {:>5}, barriers {}, OSR {})",
                    app.name(),
                    to_label,
                    s.pending_time.as_secs_f64() * 1e3,
                    s.safepoint_time.as_secs_f64() * 1e3,
                    s.classload_time.as_secs_f64() * 1e3,
                    s.gc_time.as_secs_f64() * 1e3,
                    s.transform_time.as_secs_f64() * 1e3,
                    s.total_time.as_secs_f64() * 1e3,
                    s.phase_sum().as_secs_f64() * 1e3,
                    s.objects_transformed,
                    s.gc_copied_cells,
                    s.barriers_installed,
                    s.osr_replacements + s.active_migrations,
                ));
            }
            eprint!("\r{total} updates attempted...");
        }
    }
    eprintln!();

    if migrate {
        println!("== JVolve reproduction + §3.5 active-method migration ==\n");
    } else {
        println!("== JVolve reproduction: update-support summary (paper §4) ==\n");
    }
    println!("updates attempted:            {total}   (paper: 22)");
    println!("supported by JVolve:          {supported}   (paper: 20)");
    println!("supported by method-body-only systems: {body_only_supported}   (paper: 9)");
    println!("\nunsupported updates:");
    for f in &failures {
        println!("  {f}");
    }
    println!("\nper-update phase breakdown (paper §4.1):");
    for line in &phase_lines {
        println!("  {line}");
    }
}
