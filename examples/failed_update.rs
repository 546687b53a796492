//! The paper's *unsupported* update (§4.2): webserver 5.1.2 → 5.1.3
//! changes `ThreadedServer.acceptLoop` (the paper's `acceptSocket`) — a
//! method that is always on some thread's stack. JVolve installs return
//! barriers, waits, and finally aborts at the timeout, leaving the old
//! version running untouched.
//!
//! Run with: `cargo run --example failed_update`

use jvolve_repro::apps::harness::{attempt_update, boot};
use jvolve_repro::apps::workload::one_shot;
use jvolve_repro::apps::{AppInstance, GuestApp, Webserver};
use jvolve_repro::dsu::{ApplyOptions, UpdateOutcome};

fn main() {
    let app = Webserver;
    let versions = app.versions();
    let from = versions.iter().position(|v| v.label == "5.1.2").expect("5.1.2 exists");

    println!("booting webserver {} ...", versions[from].label);
    let mut vm = boot(&app, from);
    let resp = one_shot(&mut vm, app.port(), "GET /index.html", 20_000).expect("serves");
    println!("serving: {:?}", resp.0);

    println!("\nattempting 5.1.2 -> 5.1.3 (changes the always-running accept loop) ...");
    let opts = ApplyOptions { timeout_slices: 1_000, ..ApplyOptions::default() };
    let result = attempt_update(&mut vm, &app, from, &opts, |_, _| {});
    let outcome = UpdateOutcome::from(&result);
    println!("outcome: {outcome}");
    assert!(matches!(outcome, UpdateOutcome::TimedOut { .. }));

    // The abort is clean: the old version keeps serving.
    let resp = one_shot(&mut vm, app.port(), "GET /about.html", 20_000)
        .expect("old version still serves");
    println!("\nafter the aborted update the old version still serves: {:?}", resp.0);
    println!(
        "(the paper reports exactly this for Jetty 5.1.3 and JavaEmailServer 1.3: \
         no safe point is ever reached, so the update is abandoned)"
    );
}
