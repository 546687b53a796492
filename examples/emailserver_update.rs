//! The paper's running example (Figures 2 and 3), live: update the email
//! server from 1.3.1 to 1.3.2 while it runs. `User.forwardAddresses`
//! changes from `String[]` to `EmailAddress[]`; the developer-customized
//! transformer splits each stored string at `@` and builds the new
//! objects — no state is lost and no session is dropped.
//!
//! Run with: `cargo run --example emailserver_update`

use jvolve_repro::dsu::UpdateOutcome;
use jvolve_repro::apps::harness::{attempt_update, bench_apply_options, boot};
use jvolve_repro::apps::workload::scripted_session;
use jvolve_repro::apps::{Emailserver, GuestApp};

fn main() {
    let app = Emailserver;
    let versions = app.versions();
    let from = versions.iter().position(|v| v.label == "1.3.1").expect("1.3.1 exists");

    println!("booting emailserver {} ...", versions[from].label);
    let mut vm = boot(&app, from);

    // Alice's account carries forwarded addresses stored as strings.
    let before = scripted_session(&mut vm, 1100, &["USER alice", "FWD", "QUIT"], 50_000)
        .expect("POP session works");
    println!("before update: USER alice -> {:?}", before);

    // The 1.3.2 update ships the Figure 3 transformer.
    println!("\napplying 1.3.1 -> 1.3.2 (class update: User, new class EmailAddress) ...");
    let result = attempt_update(&mut vm, &app, from, &bench_apply_options(), |_, _| {});
    println!("outcome: {}", UpdateOutcome::from(&result));
    let stats = result.expect("update applied");
    println!(
        "  {} objects transformed ({} by copy plan), {} OSR replacements, pause {:?}",
        stats.objects_transformed,
        stats.objects_planned,
        stats.osr_replacements,
        stats.total_time
    );

    // Same data, now held as EmailAddress objects rendered by new code.
    let after = scripted_session(&mut vm, 1100, &["USER alice", "FWD", "QUIT"], 50_000)
        .expect("POP session still works");
    println!("\nafter update:  USER alice -> {:?}", after);
    assert_eq!(before[1], after[1], "forward addresses survived the representation change");
    println!("\nforward addresses were converted String[] -> EmailAddress[] in place.");
}
