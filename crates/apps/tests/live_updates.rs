//! The paper's §4 headline, as a test: apply every release of the three
//! applications to a *running* server. 20 of the 22 updates must apply;
//! the two that change always-on-stack methods must time out.

use jvolve::UpdateOutcome;
use jvolve_apps::harness::{
    app_vm_config, attempt_update, bench_apply_options, boot, boot_with,
};
use jvolve_apps::workload::{ftp_retr, one_shot, pop_list, smtp_send};
use jvolve_apps::{AppInstance, Emailserver, Ftpserver, GuestApp, Webserver};
use jvolve_vm::{Vm, VmConfig};

#[test]
fn webserver_updates_match_paper() {
    let app = Webserver;
    let versions = app.versions();
    let mut outcomes = Vec::new();
    for from in 0..versions.len() - 1 {
        let to_label = versions[from + 1].label;
        let mut vm = boot(&app, from);
        // Light load so the server has live worker state.
        for _ in 0..3 {
            let resp = one_shot(&mut vm, app.port(), "GET /index.html", 20_000)
                .unwrap_or_else(|| panic!("{to_label}: server unresponsive before update"));
            assert!(resp.0.starts_with("200"), "{to_label}: {resp:?}");
        }
        let result = attempt_update(&mut vm, &app, from, &bench_apply_options(), |_, _| {});
        let outcome = UpdateOutcome::from(&result);
        if outcome.supported() {
            // The updated server still serves correctly.
            let resp = one_shot(&mut vm, app.port(), "GET /about.html", 40_000)
                .unwrap_or_else(|| panic!("{to_label}: server unresponsive after update"));
            assert!(resp.0.starts_with("200"), "{to_label}: {resp:?}");
        }
        outcomes.push((to_label, outcome));
    }

    for (label, outcome) in &outcomes {
        let expected_fail = app.expected_failures().contains(label);
        assert_eq!(
            !outcome.supported(),
            expected_fail,
            "webserver update to {label}: {outcome}"
        );
    }
    let supported = outcomes.iter().filter(|(_, o)| o.supported()).count();
    assert_eq!(supported, 9, "9 of 10 webserver updates supported");
}

#[test]
fn webserver_serves_requests_between_controller_steps() {
    // The resumable controller lets the embedder keep draining requests
    // while the update waits for a safe point: every request served
    // mid-update must see a fully consistent server — a complete, correct
    // response, never a half-installed class.
    let app = Webserver;
    let mut vm = boot(&app, 0);
    let mut served_mid_update = 0;
    let result = attempt_update(
        &mut vm,
        &app,
        0,
        &bench_apply_options(),
        |vm, _| {
            let resp = one_shot(vm, app.port(), "GET /index.html", 20_000)
                .expect("server must answer between controller steps");
            assert_eq!(resp.0, "200 <html>welcome</html>", "mid-update response corrupted");
            served_mid_update += 1;
        },
    );
    let (outcome, stats) = (UpdateOutcome::from(&result), result.ok());
    assert!(outcome.supported(), "{outcome}");
    assert!(stats.is_some());
    assert!(
        served_mid_update >= 1,
        "the waiting phase must have interleaved with request serving"
    );
    // And the updated server serves correctly afterwards.
    let resp = one_shot(&mut vm, app.port(), "GET /about.html", 40_000)
        .expect("server unresponsive after interleaved update");
    assert!(resp.0.starts_with("200"), "{resp:?}");
}

#[test]
fn webserver_serves_verified_responses_while_lazy_epoch_drains() {
    // Lazy mode end to end on a real app: the 5.1.4 → 5.1.5 update (the
    // webserver's largest class update) commits behind the read barrier
    // while the server keeps serving. The controller yields at least once
    // in the lazy phase, so the pump provably runs mid-epoch — and every
    // response served there must be complete and correct.
    let app = Webserver;
    let from = 4; // 5.1.4 → 5.1.5
    let mut config = app_vm_config();
    config.lazy_migration = true;
    let mut vm = boot_with(&app, from, config);
    for _ in 0..3 {
        let resp = one_shot(&mut vm, app.port(), "GET /index.html", 20_000)
            .expect("server unresponsive before update");
        assert!(resp.0.starts_with("200"), "{resp:?}");
    }

    let mut served_mid_update = 0;
    let result = attempt_update(
        &mut vm,
        &app,
        from,
        &bench_apply_options(),
        |vm, _| {
            let resp = one_shot(vm, app.port(), "GET /index.html", 20_000)
                .expect("server must answer while the update is in flight");
            assert!(resp.0.starts_with("200"), "mid-migration response corrupted: {resp:?}");
            served_mid_update += 1;
        },
    );
    let (outcome, stats) = (UpdateOutcome::from(&result), result.ok());
    assert!(outcome.supported(), "{outcome}");
    let stats = stats.expect("stats on commit");
    assert!(
        stats.lazy_time > std::time::Duration::ZERO,
        "the update must have gone through the lazy phase"
    );
    assert!(served_mid_update >= 1, "requests must be served while the epoch drains");

    // And the updated server serves correctly afterwards.
    let resp = one_shot(&mut vm, app.port(), "GET /about.html", 40_000)
        .expect("server unresponsive after lazy update");
    assert!(resp.0.starts_with("200"), "{resp:?}");
}

/// A closed-loop client that keeps [`InFlight::DEPTH`] `GET /index.html`
/// requests open across calls and runs one scheduler slice per call, so
/// an update lands while handler frames are mid-request.
#[derive(Default)]
struct InFlight {
    open: Vec<usize>,
    served: u64,
}

impl InFlight {
    const DEPTH: usize = 8;

    fn pump(&mut self, vm: &mut Vm) {
        while self.open.len() < Self::DEPTH {
            let conn = vm.net_mut().client_connect(Webserver.port()).expect("server listens");
            vm.net_mut().client_send(conn, "GET /index.html");
            self.open.push(conn);
        }
        vm.step_slice();
        let net = vm.net_mut();
        self.open.retain(|&conn| {
            let Some(reply) = net.client_recv(conn) else { return true };
            assert_eq!(reply, "200 <html>welcome</html>", "response corrupted");
            net.client_close(conn);
            self.served += 1;
            false
        });
    }
}

#[test]
fn webserver_update_with_requests_in_flight_needs_no_return_barrier() {
    // 5.1.5 → 5.1.6 while handlers run: their frames are category-2
    // (indirect) methods, which OSR lifts in place at the first poll.
    // Nothing inlines, so no frame is left for a return barrier to wait on —
    // with an inlining opt tier, warm handlers sat in inlined code and the
    // update waited on barriers (and under the no-jit load never
    // committed).
    let app = Webserver;
    let from = 5; // 5.1.5 → 5.1.6
    let no_jit = VmConfig { enable_jit: false, ..app_vm_config() };
    for (config, warm_rounds) in [(app_vm_config(), 300), (no_jit, 3_000)] {
        let jit = config.enable_jit;
        let mut vm = boot_with(&app, from, config);
        let mut client = InFlight::default();
        for _ in 0..warm_rounds {
            client.pump(&mut vm);
        }
        assert!(client.served > 0, "jit={jit}: warm-up served nothing");
        let result = attempt_update(
            &mut vm,
            &app,
            from,
            &bench_apply_options(),
            |vm, _| client.pump(vm),
        );
        let (outcome, stats) = (UpdateOutcome::from(&result), result.ok());
        assert!(matches!(outcome, UpdateOutcome::Applied { .. }), "jit={jit}: {outcome}");
        let stats = stats.expect("stats on commit");
        assert_eq!(stats.barriers_installed, 0, "jit={jit}: waited on a return barrier");
        assert!(stats.osr_replacements >= 1, "jit={jit}: no handler frame was OSR-lifted");
        // The requests in flight across the update finish on 5.1.6.
        let served = client.served;
        for _ in 0..300 {
            client.pump(&mut vm);
        }
        assert!(client.served > served, "jit={jit}: nothing served after the update");
    }
}

#[test]
fn webserver_513_blocks_on_accept_loop() {
    let app = Webserver;
    let mut vm = boot(&app, 2); // 5.1.2
    let result = attempt_update(&mut vm, &app, 2, &bench_apply_options(), |_, _| {});
    let outcome = UpdateOutcome::from(&result);
    let UpdateOutcome::TimedOut { blocking } = outcome else {
        panic!("5.1.3 must time out, got {outcome}");
    };
    assert!(
        blocking.iter().any(|b| b.contains("acceptLoop") || b.contains("run")),
        "the always-on-stack loops must be reported: {blocking:?}"
    );
}

#[test]
fn emailserver_updates_match_paper() {
    let app = Emailserver;
    let versions = app.versions();
    let mut outcomes = Vec::new();
    let mut osr_releases = Vec::new();
    for from in 0..versions.len() - 1 {
        let to_label = versions[from + 1].label;
        let mut vm = boot(&app, from);
        // Deliver a message and read mail once so real state exists.
        let replies = smtp_send(&mut vm, 2525, "alice", "bob", "hi", 40_000)
            .unwrap_or_else(|| panic!("{to_label}: SMTP unresponsive before update"));
        assert_eq!(replies[0], "250 ok", "{to_label}: {replies:?}");
        let pop = pop_list(&mut vm, 1100, "alice", 40_000)
            .unwrap_or_else(|| panic!("{to_label}: POP unresponsive before update"));
        assert_eq!(pop[0], "+OK", "{to_label}: {pop:?}");

        let result = attempt_update(&mut vm, &app, from, &bench_apply_options(), |_, _| {});

        let (outcome, stats) = (UpdateOutcome::from(&result), result.ok());
        if let Some(stats) = &stats {
            if stats.osr_replacements > 0 {
                osr_releases.push(to_label);
            }
        }
        if outcome.supported() {
            let replies = smtp_send(&mut vm, 2525, "bob", "alice", "yo", 40_000)
                .unwrap_or_else(|| panic!("{to_label}: SMTP unresponsive after update"));
            assert_eq!(replies[0], "250 ok", "{to_label}: {replies:?}");
        }
        outcomes.push((to_label, outcome));
    }

    for (label, outcome) in &outcomes {
        let expected_fail = app.expected_failures().contains(label);
        assert_eq!(
            !outcome.supported(),
            expected_fail,
            "emailserver update to {label}: {outcome}"
        );
    }
    let supported = outcomes.iter().filter(|(_, o)| o.supported()).count();
    assert_eq!(supported, 8, "8 of 9 emailserver updates supported");
    // The paper's §4.3: the always-running processor loops are lifted by
    // OSR when the classes they reference are updated (1.2.3 and 1.3.2).
    assert!(
        osr_releases.contains(&"1.2.3") && osr_releases.contains(&"1.3.2"),
        "OSR expected for 1.2.3 and 1.3.2, got {osr_releases:?}"
    );
}

#[test]
fn emailserver_132_converts_forward_addresses() {
    // The Figure 2/3 update end-to-end on the live server: alice's
    // forwarded addresses (strings "user@domain") become EmailAddress
    // objects, with observable state preserved across the update.
    let app = Emailserver;
    let from = 5; // 1.3.1 → 1.3.2
    let mut vm = boot(&app, from);
    let fwd_before = jvolve_apps::workload::scripted_session(
        &mut vm,
        1100,
        &["USER alice", "FWD", "QUIT"],
        40_000,
    )
    .expect("POP before update");
    assert_eq!(fwd_before[1], "+OK carol@ext.example.org");

    let result = attempt_update(&mut vm, &app, from, &bench_apply_options(), |_, _| {});

    let outcome = UpdateOutcome::from(&result);
    assert!(outcome.supported(), "{outcome}");

    let fwd_after = jvolve_apps::workload::scripted_session(
        &mut vm,
        1100,
        &["USER alice", "FWD", "QUIT"],
        40_000,
    )
    .expect("POP after update");
    assert_eq!(
        fwd_after[1], "+OK carol@ext.example.org",
        "the custom transformer rebuilt the forward list as EmailAddress objects"
    );
}

#[test]
fn emailserver_13_blocks_on_processing_loops() {
    let app = Emailserver;
    let mut vm = boot(&app, 3); // 1.2.4 → 1.3
    let result = attempt_update(&mut vm, &app, 3, &bench_apply_options(), |_, _| {});
    let outcome = UpdateOutcome::from(&result);
    let UpdateOutcome::TimedOut { blocking } = outcome else {
        panic!("1.3 must time out, got {outcome}");
    };
    assert!(blocking.iter().any(|b| b.contains("run")), "{blocking:?}");
}

#[test]
fn ftpserver_updates_apply_when_idle() {
    let app = Ftpserver;
    let versions = app.versions();
    for from in 0..versions.len() - 1 {
        let to_label = versions[from + 1].label;
        let mut vm = boot(&app, from);
        // Exercise a full session, then go idle (session thread exits).
        let replies = ftp_retr(&mut vm, 2121, "admin", "adminpw", "/motd.txt", 60_000)
            .unwrap_or_else(|| panic!("{to_label}: FTP unresponsive before update"));
        assert_eq!(replies[1], "230 ok", "{to_label}: {replies:?}");
        assert!(replies[2].starts_with("226"), "{to_label}: {replies:?}");
        // Let the handler thread finish.
        vm.run_slices(200);

        let result = attempt_update(&mut vm, &app, from, &bench_apply_options(), |_, _| {});

        let outcome = UpdateOutcome::from(&result);
        assert!(outcome.supported(), "ftpserver update to {to_label}: {outcome}");

        let replies = ftp_retr(&mut vm, 2121, "admin", "adminpw", "/motd.txt", 60_000)
            .unwrap_or_else(|| panic!("{to_label}: FTP unresponsive after update"));
        assert!(replies[2].starts_with("226"), "{to_label}: {replies:?}");
    }
}

#[test]
fn ftpserver_108_blocks_with_active_sessions() {
    // Paper §4.4: "JVolve could only apply the update from 1.07 to 1.08
    // when the server was relatively idle" — RequestHandler.run() changed
    // and is always on stack while sessions are active.
    let app = Ftpserver;
    let mut vm = boot(&app, 2); // 1.07
    // Open a session and keep it open (logged in, no QUIT).
    let conn = vm.net_mut().client_connect(2121).unwrap();
    vm.net_mut().client_send(conn, "USER admin adminpw");
    for _ in 0..2_000 {
        vm.step_slice();
        if vm.net_mut().client_recv(conn).is_some() {
            break;
        }
    }

    let result = attempt_update(&mut vm, &app, 2, &bench_apply_options(), |_, _| {});

    let outcome = UpdateOutcome::from(&result);
    let UpdateOutcome::TimedOut { blocking } = outcome else {
        panic!("1.08 must time out under load, got {outcome}");
    };
    assert!(blocking.iter().any(|b| b.contains("run")), "{blocking:?}");

    // Close the session; the handler exits; the same update now applies.
    vm.net_mut().client_send(conn, "QUIT");
    for _ in 0..2_000 {
        vm.step_slice();
        if vm.net_mut().client_recv(conn).is_some() {
            break;
        }
    }
    vm.net_mut().client_close(conn);
    vm.run_slices(300);
    let result = attempt_update(&mut vm, &app, 2, &bench_apply_options(), |_, _| {});
    let outcome = UpdateOutcome::from(&result);
    assert!(outcome.supported(), "idle 1.08 update must apply: {outcome}");
}

#[test]
fn twenty_of_twentytwo_updates_supported() {
    // The paper's headline, computed over all three applications with the
    // idle-friendly methodology used in Tables 2–4.
    let mut supported = 0;
    let mut total = 0;
    for app in jvolve_apps::all_apps() {
        let versions = app.versions();
        for from in 0..versions.len() - 1 {
            total += 1;
            let mut vm = boot(app.as_ref(), from);
            let result =
                attempt_update(&mut vm, app.as_ref(), from, &bench_apply_options(), |_, _| {});
            let outcome = UpdateOutcome::from(&result);
            if outcome.supported() {
                supported += 1;
            } else {
                let to = versions[from + 1].label;
                assert!(
                    app.expected_failures().contains(&to),
                    "{} update to {to} unexpectedly failed: {outcome}",
                    app.name()
                );
            }
        }
    }
    assert_eq!(total, 22);
    assert_eq!(supported, 20, "20 of 22 updates supported (paper §4)");
}

#[test]
fn emailserver_serves_verified_responses_mid_update() {
    // The 1.2.2 → 1.2.3 class update (OSR lifts the processor loops)
    // through the same interleaved harness path the webserver uses: the
    // SMTP and POP listeners must answer verified responses between
    // controller steps while the update waits for its safe point.
    let app = Emailserver;
    let from = 1; // 1.2.2 → 1.2.3
    let mut vm = boot(&app, from);
    let mut served_mid_update = 0u64;
    let result = attempt_update(
        &mut vm,
        &app,
        from,
        &bench_apply_options(),
        |vm, _| {
            // The shared probe alternates SMTP submission and POP list,
            // verifying each reply through apps::common::verify_replies.
            app.probe(vm, served_mid_update, 40_000)
                .expect("verified response between controller steps");
            served_mid_update += 1;
        },
    );
    let outcome = UpdateOutcome::from(&result);
    assert!(outcome.supported(), "{outcome}");
    assert!(served_mid_update >= 1, "SMTP/POP must serve mid-update");
    // Both protocols still answer on the new version.
    let replies = smtp_send(&mut vm, 2525, "bob", "alice", "hi", 40_000)
        .expect("SMTP unresponsive after update");
    assert_eq!(replies[0], "250 ok", "{replies:?}");
    let pop = pop_list(&mut vm, 1100, "alice", 40_000).expect("POP unresponsive after update");
    assert_eq!(pop[0], "+OK", "{pop:?}");
}

#[test]
fn ftpserver_serves_verified_responses_mid_update() {
    // FTP sessions spawn RequestHandler threads, so the probe pump is
    // bounded: serve a few full sessions mid-update, then idle so the
    // handlers exit and the safe point becomes reachable (paper §4.4's
    // "relatively idle" condition, here produced by the drain itself).
    let app = Ftpserver;
    let from = 0; // 1.05 → 1.06
    let mut vm = boot(&app, from);
    let mut served_mid_update = 0u64;
    let result = attempt_update(
        &mut vm,
        &app,
        from,
        &bench_apply_options(),
        |vm, _| {
            if served_mid_update < 2 {
                app.probe(vm, served_mid_update, 60_000)
                    .expect("verified FTP session between controller steps");
                served_mid_update += 1;
            } else {
                vm.run_slices(50);
            }
        },
    );
    let outcome = UpdateOutcome::from(&result);
    assert!(outcome.supported(), "{outcome}");
    assert!(served_mid_update >= 1, "FTP must serve mid-update");
    let replies = ftp_retr(&mut vm, 2121, "admin", "adminpw", "/motd.txt", 60_000)
        .expect("FTP unresponsive after update");
    assert!(replies[2].starts_with("226"), "{replies:?}");
}
