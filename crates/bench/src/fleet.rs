//! Fleet measurement harness: aggregate throughput across VM shard
//! counts, driving [`jvolve_apps::fleet`] the way the `gates` binary's
//! `fleet` gate does. (Rolling-update integrity is a workspace test,
//! `crates/apps/tests/fleet.rs`.)

use std::sync::Arc;
use std::time::Instant;

use jvolve_apps::fleet::Fleet;
use jvolve_apps::harness::app_vm_config;
use jvolve_apps::{AppInstance, GuestApp, Webserver};

/// One timed throughput run at a shard count.
#[derive(Clone, Copy, Debug)]
pub struct ThroughputRun {
    /// Shards serving.
    pub shards: usize,
    /// Requests completed (all of them, or the run is invalid).
    pub requests: u64,
    /// Wall nanoseconds for the whole batch.
    pub wall_ns: f64,
    /// Responses that failed verification.
    pub incorrect: u64,
}

impl ThroughputRun {
    /// Amortized cost of one request (lower is better; aggregate
    /// throughput scaling at S shards is `ns_per_request(1) /
    /// ns_per_request(S)`).
    pub fn ns_per_request(&self) -> f64 {
        self.wall_ns / self.requests as f64
    }
}

/// Boots a fresh webserver fleet at `shards`, warms it up, and times one
/// closed batch of `requests` verified exchanges.
pub fn measure_throughput(shards: usize, requests: u64) -> ThroughputRun {
    let app: Arc<dyn AppInstance> = Arc::new(Webserver);
    let classes = Webserver.versions()[0].compile();
    let mut fleet = Fleet::boot(app, classes, shards, &app_vm_config());
    // Warmup: fault in compiled methods on every shard.
    fleet.run_requests((requests / 4).max(shards as u64));
    let started = Instant::now();
    let report = fleet.run_requests(requests);
    let wall_ns = started.elapsed().as_nanos() as f64;
    assert_eq!(report.completed, requests, "fleet dropped requests while measuring");
    let incorrect = report.incorrect;
    fleet.shutdown();
    ThroughputRun { shards, requests, wall_ns, incorrect }
}
