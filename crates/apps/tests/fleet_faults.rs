//! Fleet fault injection: fail one shard's update mid-roll and assert
//! the coordinator rolls the whole fleet back to the old version — every
//! shard's registry fingerprint bit-identical — with no dropped
//! responses.
//!
//! Two failure shapes:
//! * **bad transformers** — the faulted shard's transformers class does
//!   not compile, so its controller rejects the update in `Pending`: the
//!   shard never stops a thread and has nothing to roll back, but the
//!   shards promoted before it do;
//! * **health-check timeout** — the faulted shard *commits*, but its
//!   probe responses never reach the coordinator in time, so the
//!   coordinator must redeploy it to the old version alongside every
//!   already-promoted shard.

use std::sync::Arc;

use jvolve_apps::fleet::{Fleet, RollFault, RollOptions};
use jvolve_apps::harness::{app_vm_config, bench_apply_options, prepare_next};
use jvolve::UpdateEvent;
use jvolve_apps::{AppInstance, GuestApp, Webserver};
use jvolve_vm::VmConfig;

fn lazy_config() -> VmConfig {
    let mut config = app_vm_config();
    config.lazy_migration = true;
    config
}

/// Boots a 3-shard fleet at webserver 5.1.0 and snapshots the old
/// version's fingerprint.
fn fleet_with_baseline() -> (Fleet, String) {
    let app: Arc<dyn AppInstance> = Arc::new(Webserver);
    let classes = Webserver.versions()[0].compile();
    let mut fleet = Fleet::boot(app, classes, 3, &lazy_config());
    fleet.run_requests(6);
    let baseline = fleet.version_fingerprints();
    assert!(
        baseline.windows(2).all(|w| w[0] == w[1]),
        "freshly booted shards must fingerprint identically"
    );
    (fleet, baseline.into_iter().next().unwrap())
}

fn assert_rolled_back_to(fleet_report: &jvolve_apps::RollReport, baseline: &str) {
    assert!(fleet_report.rolled_back, "the roll must have been abandoned");
    assert_eq!(fleet_report.dropped, 0, "no request dropped through the rollback");
    assert_eq!(fleet_report.incorrect, 0, "no incorrect response through the rollback");
    assert!(
        fleet_report.fingerprints_converged(),
        "every shard must converge after rollback"
    );
    for (i, fp) in fleet_report.fingerprints.iter().enumerate() {
        assert_eq!(
            fp, baseline,
            "shard {i} must be bit-identical to the pre-roll registry"
        );
    }
}

#[test]
fn bad_transformers_mid_roll_roll_the_fleet_back() {
    let (mut fleet, baseline) = fleet_with_baseline();
    let update = prepare_next(&Webserver, 0);
    // Shard 0 promotes; shard 1 rejects its update after shard 0 already
    // runs the new version — the coordinator must pull shard 0 back.
    let ropts = RollOptions { fault: Some(RollFault::BadTransformers { shard: 1 }), ..RollOptions::default() };
    let report = fleet.roll(&update, &bench_apply_options(), &ropts);

    assert_eq!(report.shards.len(), 2, "the roll stops at the failing shard");
    assert!(report.shards[0].healthy, "{report:?}");
    assert!(!report.shards[1].committed, "faulted update must abort: {report:?}");
    // The rejection was free on the shard: no safe point, an empty ledger.
    let shard1: Vec<&UpdateEvent> =
        report.events.iter().filter(|(s, _)| *s == 1).map(|(_, e)| e).collect();
    assert!(
        shard1.iter().any(|e| matches!(e, UpdateEvent::RolledBack { actions_undone: 0, .. })),
        "{shard1:?}"
    );
    assert!(
        !shard1.iter().any(|e| matches!(e, UpdateEvent::SafePointReached { .. })),
        "{shard1:?}"
    );
    assert_rolled_back_to(&report, &baseline);
    assert!(
        report.rollback_reason.as_deref().unwrap_or("").contains("shard 1"),
        "{report:?}"
    );

    // The rolled-back fleet still serves the old version.
    let after = fleet.run_requests(9);
    assert_eq!(after.completed, 9);
    assert_eq!(after.incorrect, 0);
    fleet.shutdown();
}

#[test]
fn health_timeout_mid_roll_rolls_the_fleet_back() {
    let (mut fleet, baseline) = fleet_with_baseline();
    let update = prepare_next(&Webserver, 0);
    // Shard 1 commits its update but its health probes "time out": the
    // coordinator must redeploy it (a committed shard cannot replay its
    // spent ledger) together with already-promoted shard 0.
    let ropts = RollOptions { fault: Some(RollFault::HealthTimeout { shard: 1 }), ..RollOptions::default() };
    let report = fleet.roll(&update, &bench_apply_options(), &ropts);

    assert_eq!(report.shards.len(), 2, "the roll stops at the unhealthy shard");
    assert!(report.shards[0].healthy, "{report:?}");
    assert!(
        report.shards[1].committed && !report.shards[1].healthy,
        "the faulted shard commits but flunks the health gate: {report:?}"
    );
    assert_rolled_back_to(&report, &baseline);

    let after = fleet.run_requests(9);
    assert_eq!(after.completed, 9);
    assert_eq!(after.incorrect, 0);
    fleet.shutdown();
}
