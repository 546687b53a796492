//! Live-update the webserver under load (the paper's Figure 5 scenario):
//! start version 5.1.5, saturate it with requests, dynamically update to
//! 5.1.6, and keep serving — comparing throughput before and after.
//!
//! Run with: `cargo run --release --example webserver_live_update`

use jvolve_repro::dsu::UpdateOutcome;
use jvolve_repro::apps::harness::{attempt_update, bench_apply_options, boot};
use jvolve_repro::apps::webserver::{Webserver, PORT};
use jvolve_repro::apps::workload::drive_http;
use jvolve_repro::apps::GuestApp;

fn main() {
    let app = Webserver;
    let versions = app.versions();
    let from = versions.iter().position(|v| v.label == "5.1.5").expect("5.1.5 exists");
    let paths = ["/index.html", "/about.html", "/data.json"];

    println!("booting webserver {} with {} worker threads ...", versions[from].label, 4);
    let mut vm = boot(&app, from);

    println!("driving load before the update ...");
    let before = drive_http(&mut vm, PORT, &paths, 8, 10_000);
    println!(
        "  before: {} requests, {:.1} req/kslice, median latency {} slices",
        before.completed,
        before.throughput_per_kslice(),
        before.median_latency()
    );

    println!("\napplying 5.1.5 -> 5.1.6 while the server runs ...");
    let result = attempt_update(&mut vm, &app, from, &bench_apply_options(), |_, _| {});
    println!("outcome: {}", UpdateOutcome::from(&result));
    let stats = result.expect("update applied");
    println!(
        "  pause: safepoint {:?} + load {:?} + gc {:?} + transform {:?}",
        stats.safepoint_time, stats.classload_time, stats.gc_time, stats.transform_time
    );

    println!("\ndriving load after the update ...");
    let after = drive_http(&mut vm, PORT, &paths, 8, 10_000);
    println!(
        "  after:  {} requests, {:.1} req/kslice, median latency {} slices",
        after.completed,
        after.throughput_per_kslice(),
        after.median_latency()
    );

    let ratio = after.throughput_per_kslice() / before.throughput_per_kslice();
    println!("\nthroughput ratio after/before = {ratio:.3} (paper: essentially identical)");
    assert!(after.completed > 0);
}
