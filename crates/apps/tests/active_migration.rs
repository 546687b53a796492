//! The paper's §3.5 future work, exercised: with UpStare-style active-
//! method migration enabled, the two updates JVolve cannot apply — the
//! ones that change methods stuck inside always-running loops — become
//! applicable, taking the supported count from 20 of 22 to 22 of 22.

use jvolve::{ApplyOptions, UpdateOutcome};
use jvolve_apps::harness::{attempt_update, boot};
use jvolve_apps::workload::{one_shot, smtp_send};
use jvolve_apps::{AppInstance, Emailserver, Webserver};

fn migrating_opts() -> ApplyOptions {
    ApplyOptions {
        timeout_slices: 3_000,
        migrate_active_methods: true,
        ..ApplyOptions::default()
    }
}

#[test]
fn webserver_513_applies_with_active_migration() {
    // 5.1.2 -> 5.1.3 changes the always-on-stack accept loop and worker
    // loops; the alignment-derived pc maps migrate those frames in place.
    let app = Webserver;
    let mut vm = boot(&app, 2);
    let resp = one_shot(&mut vm, app.port(), "GET /index.html", 30_000).expect("serves");
    assert!(resp.0.starts_with("200"));

    let update = jvolve_apps::harness::prepare_next(&app, 2);
    let stats = jvolve::apply(&mut vm, &update, &migrating_opts())
        .expect("5.1.3 must apply with migration");
    assert!(
        stats.active_migrations >= 2,
        "the accept loop and worker loops must have been migrated: {stats:?}"
    );

    // The 5.1.3 server is fully functional: it serves, counts accepts
    // through the new static, and enforces the new request filter.
    let resp = one_shot(&mut vm, app.port(), "GET /index.html", 40_000)
        .expect("serves after migration");
    assert!(resp.0.starts_with("200"), "{resp:?}");
    let denied = one_shot(&mut vm, app.port(), "GET /../etc", 40_000)
        .expect("filter responds");
    assert!(denied.0.starts_with("403"), "new 5.1.3 code is live: {denied:?}");
    let accepted = vm.read_static("ThreadedServer", "accepted");
    assert!(
        accepted.as_int() >= 2,
        "the migrated accept loop increments the new counter: {accepted:?}"
    );
}

#[test]
fn emailserver_13_applies_with_active_migration() {
    // 1.2.4 -> 1.3 reworks configuration and changes all three processor
    // loops.
    let app = Emailserver;
    let mut vm = boot(&app, 3);
    let replies = smtp_send(&mut vm, 2525, "alice", "bob", "pre", 60_000).expect("SMTP serves");
    assert_eq!(replies[0], "250 ok");

    let mut update = jvolve_apps::harness::prepare_next(&app, 3);
    // The 1.3 code consults the *added* FileConfig class, whose statics
    // start at defaults; as in the paper's model, the developer customizes
    // a transformer to initialize the new configuration state.
    let patched = update.transformers_source().replace(
        "static method jvolve_class_User(): void {",
        "static method jvolve_class_User(): void {\n    FileConfig.load();",
    );
    assert_ne!(patched, update.transformers_source(), "patch point exists");
    update.set_transformers_source(patched);

    let stats =
        jvolve::apply(&mut vm, &update, &migrating_opts()).expect("1.3 must apply with migration");
    assert!(stats.active_migrations >= 3, "{stats:?}");

    // New 1.3 behaviour is live: the customized transformer initialized
    // the new configuration and mail still flows through the migrated
    // processor loops.
    assert_eq!(vm.read_static("FileConfig", "maxLine").as_int(), 1024);
    let replies = smtp_send(&mut vm, 2525, "bob", "alice", "post", 60_000)
        .expect("SMTP serves after migration");
    assert_eq!(replies[0], "250 ok");
}

#[test]
fn all_22_updates_apply_with_active_migration() {
    let mut supported = 0;
    let mut total = 0;
    let mut migrations = 0;
    for app in jvolve_apps::all_apps() {
        let versions = app.versions();
        for from in 0..versions.len() - 1 {
            total += 1;
            let mut vm = boot(app.as_ref(), from);
            let result = attempt_update(&mut vm, app.as_ref(), from, &migrating_opts(), |_, _| {});
            let (outcome, stats) = (UpdateOutcome::from(&result), result.ok());
            if let Some(s) = stats {
                migrations += s.active_migrations;
            }
            assert!(
                outcome.supported(),
                "{} update to {} with migration: {outcome}",
                app.name(),
                versions[from + 1].label
            );
            supported += 1;
        }
    }
    assert_eq!(total, 22);
    assert_eq!(supported, 22, "future-work extension lifts both failures");
    assert!(migrations >= 5, "the two hard updates used migration");
}

#[test]
fn migration_respects_the_blacklist() {
    // Category-3 restrictions are semantic (version consistency): even
    // with migration on, a blacklisted method must block the update.
    use jvolve_classfile::MethodRef;
    let app = Webserver;
    let mut vm = boot(&app, 0);
    let mut update = jvolve_apps::harness::prepare_next(&app, 0);
    update.blacklist([MethodRef::new("ThreadedServer", "acceptLoop")]);
    let opts = ApplyOptions {
        timeout_slices: 150,
        migrate_active_methods: true,
        ..ApplyOptions::default()
    };
    let err = jvolve::apply(&mut vm, &update, &opts).unwrap_err();
    assert!(matches!(err, jvolve::UpdateError::Timeout { .. }), "{err}");
}
