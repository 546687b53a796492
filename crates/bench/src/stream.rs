//! Release-stream measurement harness: the kvstore's whole UPT-prepared
//! 20-update version chain applied to one serving VM under verified
//! load, driving [`jvolve_apps::run_release_stream`] the way the `gates`
//! binary's `stream` gate does. (Stream integrity, eager and lazy, is a
//! workspace test, `crates/apps/tests/release_stream.rs`.)

use jvolve_apps::{run_release_stream, Kvstore, StreamOptions, StreamReport};

/// Updates in the kvstore release chain.
pub fn chain_len() -> usize {
    use jvolve_apps::GuestApp;
    Kvstore.versions().len() - 1
}

/// One full eager stream: every update commits stop-the-world, so
/// `max_pause` is the honest per-update pause the gate bounds.
pub fn measure_eager() -> StreamReport {
    run_release_stream(&Kvstore, &StreamOptions::eager())
}
