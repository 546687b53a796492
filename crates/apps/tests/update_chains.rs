//! Long-lived servers surviving *chains* of consecutive live updates with
//! traffic between each — the deployment pattern DSU exists for ("one to
//! two years' worth of releases", paper §4). The unsupported releases
//! (webserver 5.1.3, emailserver 1.3) require a restart, exactly as they
//! would have in the paper's deployments.

use jvolve::UpdateOutcome;
use jvolve_apps::harness::{attempt_update, bench_apply_options, boot};
use jvolve_apps::workload::{one_shot, pop_list, scripted_session, smtp_send};
use jvolve_apps::{AppInstance, Emailserver, GuestApp, Webserver};

#[test]
fn webserver_survives_seven_consecutive_updates() {
    // Boot at 5.1.3 and ride every remaining release on one VM.
    let app = Webserver;
    let versions = app.versions();
    let start = 3; // 5.1.3
    let mut vm = boot(&app, start);
    let mut served = 0u64;
    for from in start..versions.len() - 1 {
        let to = versions[from + 1].label;
        for _ in 0..3 {
            let resp = one_shot(&mut vm, app.port(), "GET /index.html", 40_000)
                .unwrap_or_else(|| panic!("unresponsive before {to}"));
            assert!(resp.0.starts_with("200"), "{to}: {resp:?}");
            served += 1;
        }
        let result = attempt_update(&mut vm, &app, from, &bench_apply_options(), |_, _| {});
        let outcome = UpdateOutcome::from(&result);
        assert!(outcome.supported(), "update to {to} on the long-lived VM: {outcome}");
    }
    // After all seven updates the server still serves, on the same VM,
    // with the same worker threads.
    for path in ["/index.html", "/about.html", "/data.json"] {
        let resp = one_shot(&mut vm, app.port(), &format!("GET {path}"), 40_000)
            .expect("final version serves");
        assert!(resp.0.starts_with("200"), "{resp:?}");
        served += 1;
    }
    assert_eq!(vm.update_count(), 7);
    assert!(served >= 24);
}

#[test]
fn emailserver_survives_five_consecutive_updates_with_mail_state() {
    // Boot at 1.3 and ride 1.3.1 → 1.4 on one VM; mail delivered under
    // early versions must remain readable under the last.
    let app = Emailserver;
    let versions = app.versions();
    let start = 4; // 1.3
    let mut vm = boot(&app, start);
    let mut sent = 0i64;
    for from in start..versions.len() - 1 {
        let to = versions[from + 1].label;
        let replies = smtp_send(&mut vm, 2525, "alice", "bob", &format!("msg{from}"), 60_000)
            .unwrap_or_else(|| panic!("SMTP unresponsive before {to}"));
        assert_eq!(replies[0], "250 ok", "{to}: {replies:?}");
        sent += 1;
        // Let the sender thread flush before updating.
        vm.run_slices(300);

        let result = attempt_update(&mut vm, &app, from, &bench_apply_options(), |_, _| {});

        let outcome = UpdateOutcome::from(&result);
        assert!(outcome.supported(), "update to {to} on the long-lived VM: {outcome}");
    }
    assert_eq!(vm.update_count(), 5);

    // All mail sent across five program versions is still in bob's box —
    // the Mailbox/MailMessage instances were transformed at each update.
    let pop = pop_list(&mut vm, 1100, "bob", 60_000).expect("POP serves at 1.4");
    assert_eq!(pop[0], "+OK");
    assert!(
        pop[1].ends_with(&sent.to_string()),
        "expected {sent} messages, got {:?}",
        pop[1]
    );

    // And alice's forwards survived the String[] -> EmailAddress[]
    // conversion performed mid-chain by the 1.3.2 custom transformer.
    let fwd = scripted_session(&mut vm, 1100, &["USER alice", "FWD", "QUIT"], 60_000)
        .expect("FWD serves");
    assert_eq!(fwd[1], "+OK carol@ext.example.org");

    // The 1.4 vacation feature works on the carried-over User objects.
    let vac = scripted_session(&mut vm, 1100, &["USER alice", "VAC", "QUIT"], 60_000)
        .expect("VAC serves");
    assert_eq!(vac[1], "+OK here", "vacationOn defaults to 0 after the update");
}

#[test]
fn early_webserver_chain_up_to_the_unsupported_release() {
    // 5.1.0 → 5.1.1 → 5.1.2 on one VM; then 5.1.3 fails as always.
    let app = Webserver;
    let mut vm = boot(&app, 0);
    for from in 0..2 {
        let result = attempt_update(&mut vm, &app, from, &bench_apply_options(), |_, _| {});
        let outcome = UpdateOutcome::from(&result);
        assert!(outcome.supported(), "{outcome}");
        let resp = one_shot(&mut vm, app.port(), "GET /index.html", 40_000).expect("serves");
        assert!(resp.0.starts_with("200"));
    }
    let result = attempt_update(&mut vm, &app, 2, &bench_apply_options(), |_, _| {});
    let outcome = UpdateOutcome::from(&result);
    assert!(!outcome.supported(), "5.1.3 stays unsupported on a long-lived VM");
    // The 5.1.2 code keeps serving after the aborted update.
    let resp = one_shot(&mut vm, app.port(), "GET /index.html", 40_000).expect("serves");
    assert!(resp.0.starts_with("200"));
    assert_eq!(vm.update_count(), 2);
}

#[test]
fn statics_survive_class_updates_across_releases() {
    // 5.1.5 turns Stats into a class update (new fields + methods); the
    // request counters accumulated by the running server must survive via
    // the default class transformer.
    let app = Webserver;
    let mut vm = boot(&app, 4); // 5.1.4
    for _ in 0..5 {
        one_shot(&mut vm, app.port(), "GET /index.html", 40_000).expect("serves");
    }
    let before = vm.call_static_sync("Stats", "report", &[]).expect("report runs").unwrap();
    let before = vm.display_value(before);
    assert!(before.contains("requests=5"), "{before}");

    let result = attempt_update(&mut vm, &app, 4, &bench_apply_options(), |_, _| {});

    let outcome = UpdateOutcome::from(&result);
    assert!(outcome.supported(), "{outcome}");

    let after = vm.call_static_sync("Stats", "report", &[]).expect("report runs").unwrap();
    let after = vm.display_value(after);
    assert!(
        after.contains("requests=5") && after.contains("bytes=0"),
        "counter preserved, new fields defaulted: {after}"
    );

    // New traffic keeps counting on the preserved counter.
    for _ in 0..2 {
        one_shot(&mut vm, app.port(), "GET /index.html", 40_000).expect("serves");
    }
    let later = vm.call_static_sync("Stats", "report", &[]).expect("report runs").unwrap();
    let later = vm.display_value(later);
    assert!(later.contains("requests=7"), "{later}");
}
