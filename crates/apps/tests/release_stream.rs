//! The kvstore 20-update release stream, UPT-prepared end to end, applied
//! under sustained verified load — eagerly, lazily, and with updates
//! arriving while a lazy epoch is still draining.

use jvolve_apps::{run_release_stream, Kvstore, StreamOptions};

const UPDATES: usize = jvolve_apps::kvstore::VERSIONS - 1;

#[test]
fn eager_stream_applies_cleanly_under_load() {
    let report = run_release_stream(&Kvstore, &StreamOptions::eager());
    assert!(report.clean(UPDATES), "{report:?}");
    assert_eq!(report.incorrect, 0, "{report:?}");
    assert_eq!(report.unanswered, 0, "{report:?}");
    assert!(report.responses > 0, "{report:?}");
}

#[test]
fn lazy_stream_serializes_mid_drain_arrivals() {
    let report = run_release_stream(&Kvstore, &StreamOptions::lazy());
    assert!(report.clean(UPDATES), "{report:?}");
    assert_eq!(report.incorrect, 0, "{report:?}");
    assert_eq!(report.unanswered, 0, "{report:?}");
    assert!(
        report.queued_mid_drain >= 1,
        "at least one release must arrive while an epoch drains: {report:?}"
    );
}

#[test]
fn eager_and_lazy_streams_converge() {
    let eager = run_release_stream(&Kvstore, &StreamOptions::eager());
    let lazy = run_release_stream(&Kvstore, &StreamOptions::lazy());
    assert!(eager.clean(UPDATES), "{eager:?}");
    assert!(lazy.clean(UPDATES), "{lazy:?}");
    // Both modes must land on the same final class versions. (Heap
    // fingerprints are *not* compared across modes here: the lazy pump
    // serves more probes, so heap contents legitimately differ. The UPT
    // equivalence oracle compares heap fingerprints under identical
    // workloads.)
    assert_eq!(
        eager.version_fingerprint, lazy.version_fingerprint,
        "registry fingerprints must converge"
    );
}

#[test]
fn a_stream_that_skips_a_release_is_rejected_not_corrupted() {
    use jvolve::UpdateError;
    use jvolve_apps::harness::{bench_apply_options, boot};
    use jvolve_apps::stream::prepare_via_upt;

    let mut vm = boot(&Kvstore, 0);
    jvolve::apply(&mut vm, &prepare_via_upt(&Kvstore, 0), &bench_apply_options())
        .expect("release 1 commits");
    let fingerprint = vm.registry().version_fingerprint();
    // Release 3 is built against release 2, which this VM never got.
    let err = jvolve::apply(&mut vm, &prepare_via_upt(&Kvstore, 2), &bench_apply_options())
        .expect_err("a skipped release is a stale base");
    assert!(matches!(err, UpdateError::StaleBase { .. }), "{err}");
    assert_eq!(vm.registry().version_fingerprint(), fingerprint, "the VM still runs release 1");
    // The release that was skipped still applies, and the stream goes on.
    jvolve::apply(&mut vm, &prepare_via_upt(&Kvstore, 1), &bench_apply_options())
        .expect("release 2 commits");
    jvolve::apply(&mut vm, &prepare_via_upt(&Kvstore, 2), &bench_apply_options())
        .expect("release 3 commits");
}
