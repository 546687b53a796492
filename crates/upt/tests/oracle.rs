//! UPT equivalence oracle: a release prepared automatically by the UPT
//! must be semantically identical to the hand-authored preparation path
//! the harness has always used (`Update::prepare` plus, for the paper's
//! Figure 3 case, the developer's custom `User` transformer) — both
//! statically (same spec, same restricted set, same transformer source)
//! and dynamically (bit-identical post-commit heap and registry
//! fingerprints when the two updates are applied to identically driven
//! VMs).

mod common;

use jvolve::restricted::RestrictedSet;
use jvolve::{apply, Update, UpdateOutcome};
use jvolve_apps::harness::{bench_apply_options, boot, prepare_next};
use jvolve_apps::{Emailserver, Ftpserver, GuestApp, Kvstore, Webserver};
use jvolve_upt::{prepare_files, UptOptions};

/// The UPT side of the oracle, with the paper's Figure 3 `User` override.
fn upt_prepare(app: &dyn GuestApp, from: usize) -> Update {
    common::upt_prepare_with(app, from, jvolve_apps::emailserver::FIGURE3_USER_METHODS)
}

fn assert_statically_equivalent(app: &dyn GuestApp, from: usize) {
    let versions = app.versions();
    let label = format!("{} update to {}", app.name(), versions[from + 1].label);
    let hand = prepare_next(app, from);
    let upt = upt_prepare(app, from);

    assert_eq!(hand.spec, upt.spec, "{label}: specs differ");
    assert_eq!(
        hand.transformers_source(), upt.transformers_source(),
        "{label}: transformer sources differ"
    );
    let hand_rs = RestrictedSet::compute(&hand.spec, &hand.old_classes, &hand.blacklist);
    let upt_rs = RestrictedSet::compute(&upt.spec, &upt.old_classes, &upt.blacklist);
    assert_eq!(hand_rs.changed, upt_rs.changed, "{label}: category-1 sets differ");
    assert_eq!(hand_rs.indirect, upt_rs.indirect, "{label}: category-2 sets differ");
    assert_eq!(hand_rs.blacklisted, upt_rs.blacklisted, "{label}: category-3 sets differ");
}

#[test]
fn upt_matches_hand_preparation_for_every_guest_app_pair() {
    let apps: [&dyn GuestApp; 4] = [&Webserver, &Emailserver, &Ftpserver, &Kvstore];
    for app in apps {
        for from in 0..app.versions().len() - 1 {
            assert_statically_equivalent(app, from);
        }
    }
}

#[test]
fn upt_matches_hand_preparation_for_the_list_example() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/mj");
    let old_path = dir.join("list_v1.mj");
    let new_path = dir.join("list_v2.mj");

    let compile = |p: &std::path::Path| {
        jvolve_lang::compile(&std::fs::read_to_string(p).expect("read example"))
            .expect("example compiles")
    };
    let hand = Update::prepare(&compile(&old_path), &compile(&new_path), "v2_")
        .expect("hand preparation of the list example");

    let upt = prepare_files(&old_path, &new_path, &UptOptions::with_prefix("v2_"))
        .expect("UPT preparation of the list example")
        .update;

    assert_eq!(hand.spec, upt.spec, "list example: specs differ");
    assert_eq!(
        hand.transformers_source(), upt.transformers_source(),
        "list example: transformer sources differ"
    );
}

/// Applies `update` to a freshly booted `app` VM under a fixed probe
/// script and returns the post-commit (heap, registry) fingerprints.
fn fingerprints_after(app: &dyn GuestApp, from: usize, update: &Update) -> (u64, String) {
    let mut vm = boot(app, from);
    for seq in 0..3 {
        app.probe(&mut vm, seq, 20_000)
            .unwrap_or_else(|e| panic!("{}: probe before update failed: {e:?}", app.name()));
    }
    let outcome = UpdateOutcome::from(&apply(&mut vm, update, &bench_apply_options()));
    assert!(outcome.supported(), "{}: update {from}->{} failed: {outcome}", app.name(), from + 1);
    for seq in 3..6 {
        app.probe(&mut vm, seq, 20_000)
            .unwrap_or_else(|e| panic!("{}: probe after update failed: {e:?}", app.name()));
    }
    (vm.heap_fingerprint(), vm.registry().version_fingerprint())
}

#[test]
fn upt_prepared_updates_commit_to_bit_identical_state() {
    // One body-only kvstore edit, one kvstore class update whose indirect
    // closure forces OSR of `main`, and the emailserver Figure 3 release
    // prepared via the per-class override. Both sides of each pair run
    // the exact same workload, so the fingerprints must match bit for
    // bit.
    let cases: [(&dyn GuestApp, usize); 3] = [(&Kvstore, 0), (&Kvstore, 4), (&Emailserver, 5)];
    for (app, from) in cases {
        let hand = fingerprints_after(app, from, &prepare_next(app, from));
        let upt = fingerprints_after(app, from, &upt_prepare(app, from));
        assert_eq!(
            hand, upt,
            "{}: {from}->{}: hand-prepared and UPT-prepared commits diverge",
            app.name(),
            from + 1
        );
    }
}
