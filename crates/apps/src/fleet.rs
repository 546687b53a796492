//! The sharded serving fleet: N OS-thread VM shards behind one
//! connection-distributing acceptor, updated one shard at a time.
//!
//! The paper updates *one* VM while it serves traffic; the fleet scales
//! that to many isolated VMs behind a front end — the deployment shape a
//! "millions of users" service actually runs. Each shard is an OS thread
//! owning its own [`Vm`] plus an embedded [`AppInstance`]; the
//! coordinator distributes requests round-robin over the serving shards
//! and rolls an update across them:
//!
//! 1. **drain** — the shard's command queue is FIFO and every exchange is
//!    served to completion before the next command, so queueing the
//!    update *behind* the in-flight requests drains them by construction;
//!    requests that race in during the safe-point wait or the lazy epoch
//!    are served by the update pump, so nothing is ever dropped;
//! 2. **apply** — the shard runs its own [`UpdateController`] through
//!    [`UpdateController::run`], the loop every other embedder uses,
//!    forwarding every typed [`UpdateEvent`] to the coordinator over a
//!    `Send` channel sink;
//! 3. **health gate** — the coordinator requires a `Committed` event (and
//!    no `Aborted`) in the shard's event stream, then a burst of verified
//!    probe exchanges against the updated shard;
//! 4. **promote or roll back** — on success the next shard rolls; on an
//!    abort the failing shard is still (or, after an install failure,
//!    back) on the old version — its controller rejects an unusable update
//!    in `Pending` and replays its rollback ledger for anything later —
//!    and the coordinator rolls the
//!    *fleet* back by redeploying every already-promoted shard to the old
//!    version, converging all shards to a bit-identical
//!    [`version_fingerprint`](jvolve_vm::Registry::version_fingerprint).
//!
//! Mixed versions mid-roll are expected and tolerated: probes verify
//! status prefixes, not version-specific bodies, exactly the
//! backward-compatibility discipline a rolling deployment needs.

use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use jvolve::{
    ApplyOptions, Update, UpdateController, UpdateEvent, UpdateEventSink, UpdateOutcome,
};
use jvolve_classfile::ClassFile;
use jvolve_vm::VmConfig;

use crate::common::{AppInstance, ProbeFailure};
use crate::harness::boot_classes;

/// Slice budget for one client exchange against a shard.
const EXCHANGE_BUDGET: usize = 40_000;
/// Coordinator poll tick while waiting on shard messages.
const RECV_TICK: Duration = Duration::from_millis(5);
/// Hard ceiling on any single coordinator wait; a shard that stays silent
/// this long is a bug, not a slow update.
const HARD_WAIT: Duration = Duration::from_secs(300);
/// Outstanding requests allowed per serving shard while a roll pumps
/// background load.
const IN_FLIGHT_PER_SHARD: u64 = 4;

/// Commands the coordinator sends a shard. The queue is FIFO and every
/// command is handled to completion, which is what makes "drain then
/// update" a matter of message ordering.
enum ShardCmd {
    /// Serve one verified client exchange (`seq` varies the request).
    Exchange { seq: u64 },
    /// Apply a prepared update via the shard's own controller.
    Update { update: Arc<Update>, opts: Box<ApplyOptions> },
    /// Run `count` verified health probes and report the tally.
    Probe { count: u32 },
    /// Replace the VM with a fresh boot of `classes` (fleet rollback of
    /// an already-committed shard).
    Redeploy { classes: Arc<Vec<ClassFile>> },
    /// Report the registry's defs-only version fingerprint.
    Fingerprint,
    /// Exit the shard thread.
    Stop,
}

/// Messages shards send back to the coordinator.
enum ShardMsg {
    /// One exchange finished.
    Response { result: Result<String, ProbeFailure> },
    /// One controller event, forwarded mid-update.
    Event { shard: usize, event: UpdateEvent },
    /// The shard's update attempt finished.
    UpdateDone { shard: usize, outcome: UpdateOutcome },
    /// A probe burst finished.
    ProbeDone { shard: usize, ok: u32, failed: u32 },
    /// A redeploy finished.
    Redeployed { shard: usize },
    /// A fingerprint, as requested.
    Fingerprint { shard: usize, digest: String },
    /// The shard thread is exiting.
    Stopped,
}

/// An [`UpdateEventSink`] that forwards the typed event stream across the
/// shard → coordinator channel (possible because sinks are `Send`).
struct ChannelSink {
    shard: usize,
    tx: Sender<ShardMsg>,
}

impl UpdateEventSink for ChannelSink {
    fn event(&mut self, event: &UpdateEvent) {
        let _ = self.tx.send(ShardMsg::Event { shard: self.shard, event: event.clone() });
    }
}

/// The shard thread: boot, then serve commands until [`ShardCmd::Stop`].
fn shard_main(
    shard: usize,
    app: Arc<dyn AppInstance>,
    classes: Arc<Vec<ClassFile>>,
    config: VmConfig,
    rx: Receiver<ShardCmd>,
    tx: Sender<ShardMsg>,
) {
    let mut vm = boot_classes(&*app, &classes, config.clone());
    let mut seq_fallback = 0u64;
    let mut stashed: VecDeque<ShardCmd> = VecDeque::new();
    loop {
        let cmd = match stashed.pop_front() {
            Some(cmd) => cmd,
            None => match rx.recv() {
                Ok(cmd) => cmd,
                Err(_) => return, // coordinator gone
            },
        };
        match cmd {
            ShardCmd::Exchange { seq } => {
                let result = app.probe(&mut vm, seq, EXCHANGE_BUDGET);
                if tx.send(ShardMsg::Response { result }).is_err() {
                    return;
                }
            }
            ShardCmd::Update { update, opts } => {
                // Client traffic is drained (FIFO put it before this
                // command); let session-handler threads exit so the safe
                // point is reachable.
                let settle = app.settle_slices();
                if settle > 0 {
                    vm.run_slices(settle);
                }
                let mut sink = ChannelSink { shard, tx: tx.clone() };
                let mut controller = UpdateController::new(&update, *opts);
                controller.attach_sink(&mut sink);
                let result = controller.run(&mut vm, |vm, _| {
                    // The guest may run: serve exchanges that raced in
                    // after the update command — mid-update serving is the
                    // whole point. Anything else waits its turn.
                    match rx.try_recv() {
                        Ok(ShardCmd::Exchange { seq }) => {
                            let result = app.probe(vm, seq, EXCHANGE_BUDGET);
                            let _ = tx.send(ShardMsg::Response { result });
                        }
                        Ok(other) => stashed.push_back(other),
                        Err(TryRecvError::Empty | TryRecvError::Disconnected) => {
                            vm.run_slices(1);
                        }
                    }
                });
                let outcome = UpdateOutcome::from(&result);
                if tx.send(ShardMsg::UpdateDone { shard, outcome }).is_err() {
                    return;
                }
            }
            ShardCmd::Probe { count } => {
                let mut ok = 0;
                let mut failed = 0;
                for _ in 0..count {
                    seq_fallback += 1;
                    match app.probe(&mut vm, seq_fallback, EXCHANGE_BUDGET) {
                        Ok(_) => ok += 1,
                        Err(_) => failed += 1,
                    }
                }
                if tx.send(ShardMsg::ProbeDone { shard, ok, failed }).is_err() {
                    return;
                }
            }
            ShardCmd::Redeploy { classes } => {
                vm = boot_classes(&*app, &classes, config.clone());
                if tx.send(ShardMsg::Redeployed { shard }).is_err() {
                    return;
                }
            }
            ShardCmd::Fingerprint => {
                let digest = vm.registry().version_fingerprint();
                if tx.send(ShardMsg::Fingerprint { shard, digest }).is_err() {
                    return;
                }
            }
            ShardCmd::Stop => {
                let _ = tx.send(ShardMsg::Stopped);
                return;
            }
        }
    }
}

struct ShardHandle {
    tx: Sender<ShardCmd>,
    join: Option<JoinHandle<()>>,
    /// Whether the acceptor may route new requests here.
    serving: bool,
}

/// Aggregate counters for a batch of fleet requests.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Requests that completed with a verified-correct response.
    pub completed: u64,
    /// Requests whose response failed verification (or timed out).
    pub incorrect: u64,
    /// Host wall-clock time of the batch.
    pub wall: Duration,
}

/// Fault injection for [`Fleet::roll`] (test/bench hooks).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RollFault {
    /// Hand the named shard an update whose transformer source does not
    /// compile: its controller rejects it in `Pending` — no thread stopped,
    /// nothing to roll back on the shard — and reports the abort.
    BadTransformers {
        /// Shard index the fault hits.
        shard: usize,
    },
    /// Let the named shard commit, then treat its health probes as timed
    /// out — the "update applied but the service is sick" case only the
    /// coordinator can see.
    HealthTimeout {
        /// Shard index the fault hits.
        shard: usize,
    },
}

/// Knobs for [`Fleet::roll`].
#[derive(Clone, Debug)]
pub struct RollOptions {
    /// Verified probe exchanges required to promote each updated shard.
    pub probes_per_shard: u32,
    /// Keep submitting background requests to the serving shards while
    /// each shard updates (the rolling-under-load shape).
    pub load_during_roll: bool,
    /// Injected fault, if any.
    pub fault: Option<RollFault>,
}

impl Default for RollOptions {
    fn default() -> Self {
        RollOptions { probes_per_shard: 4, load_during_roll: true, fault: None }
    }
}

/// Per-shard outcome of one roll.
#[derive(Clone, Debug)]
pub struct ShardRollReport {
    /// Shard index, in roll order.
    pub shard: usize,
    /// Whether this shard's controller committed the update.
    pub committed: bool,
    /// Probes answered correctly at the health gate.
    pub probes_ok: u32,
    /// Probes failed at the health gate.
    pub probes_failed: u32,
    /// Whether the shard passed the full health gate (event stream +
    /// probes) and was promoted.
    pub healthy: bool,
    /// Human-readable detail (commit, abort reason, injected fault).
    pub detail: String,
}

/// What one [`Fleet::roll`] did.
#[derive(Clone, Debug, Default)]
pub struct RollReport {
    /// Per-shard results, in roll order (shards the roll never reached
    /// are absent).
    pub shards: Vec<ShardRollReport>,
    /// Whether the coordinator rolled the fleet back to the old version.
    pub rolled_back: bool,
    /// Why, when it did.
    pub rollback_reason: Option<String>,
    /// Responses served while some shard's update was in flight.
    pub mid_roll_responses: u64,
    /// Requests submitted during the roll that never got a response.
    pub dropped: u64,
    /// Responses that failed verification during the roll.
    pub incorrect: u64,
    /// Every shard's defs-only registry fingerprint, collected after the
    /// roll settled; all-equal means the fleet converged on one version.
    pub fingerprints: Vec<String>,
    /// The typed controller event stream, tagged by shard.
    pub events: Vec<(usize, UpdateEvent)>,
}

impl RollReport {
    /// Whether every collected fingerprint is bit-identical.
    pub fn fingerprints_converged(&self) -> bool {
        self.fingerprints.windows(2).all(|w| w[0] == w[1])
    }
}

/// The coordinator: owns the shard threads, the acceptor's round-robin
/// cursor, and the roll state machine.
pub struct Fleet {
    app: Arc<dyn AppInstance>,
    base_classes: Arc<Vec<ClassFile>>,
    shards: Vec<ShardHandle>,
    rx: Receiver<ShardMsg>,
    next_shard: usize,
    next_seq: u64,
    submitted: u64,
    completed: u64,
    incorrect: u64,
    /// Event log + mid-roll counter, live only inside [`Fleet::roll`].
    roll_events: Vec<(usize, UpdateEvent)>,
    mid_roll_responses: u64,
    counting_mid_roll: bool,
}

impl Fleet {
    /// Boots `shards` VM shards, each serving `app` booted from
    /// `classes`, and waits until every shard listens.
    ///
    /// # Panics
    ///
    /// Panics if a shard thread cannot be spawned (boot failures panic on
    /// the shard thread and surface at the first exchange).
    pub fn boot(
        app: Arc<dyn AppInstance>,
        classes: Vec<ClassFile>,
        shards: usize,
        config: &VmConfig,
    ) -> Fleet {
        assert!(shards >= 1, "a fleet needs at least one shard");
        let base_classes = Arc::new(classes);
        let (msg_tx, msg_rx) = channel();
        let handles = (0..shards)
            .map(|i| {
                let (cmd_tx, cmd_rx) = channel();
                let app = Arc::clone(&app);
                let classes = Arc::clone(&base_classes);
                let config = config.clone();
                let tx = msg_tx.clone();
                let join = std::thread::Builder::new()
                    .name(format!("shard-{i}"))
                    .spawn(move || shard_main(i, app, classes, config, cmd_rx, tx))
                    .expect("spawn shard thread");
                ShardHandle { tx: cmd_tx, join: Some(join), serving: true }
            })
            .collect();
        Fleet {
            app,
            base_classes,
            shards: handles,
            rx: msg_rx,
            next_shard: 0,
            next_seq: 0,
            submitted: 0,
            completed: 0,
            incorrect: 0,
            roll_events: Vec::new(),
            mid_roll_responses: 0,
            counting_mid_roll: false,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The embedded application.
    pub fn app(&self) -> &dyn AppInstance {
        &*self.app
    }

    /// Submits one request to the next serving shard (round-robin).
    /// Returns `false` when no shard is accepting (mid-rollback).
    pub fn submit(&mut self) -> bool {
        let n = self.shards.len();
        for _ in 0..n {
            let i = self.next_shard % n;
            self.next_shard += 1;
            if self.shards[i].serving {
                let seq = self.next_seq;
                self.next_seq += 1;
                if self.shards[i].tx.send(ShardCmd::Exchange { seq }).is_ok() {
                    self.submitted += 1;
                    return true;
                }
            }
        }
        false
    }

    /// Requests submitted but not yet answered.
    pub fn in_flight(&self) -> u64 {
        self.submitted - self.completed - self.incorrect
    }

    /// Handles one shard message against the global counters, returning
    /// it if it is *not* a plain response/event (i.e. something a wait
    /// loop is looking for).
    fn note(&mut self, msg: ShardMsg) -> Option<ShardMsg> {
        match msg {
            ShardMsg::Response { result } => {
                match result {
                    Ok(_) => self.completed += 1,
                    Err(_) => self.incorrect += 1,
                }
                if self.counting_mid_roll {
                    self.mid_roll_responses += 1;
                }
                None
            }
            ShardMsg::Event { shard, event } => {
                self.roll_events.push((shard, event));
                None
            }
            other => Some(other),
        }
    }

    /// Blocks until `pred` accepts a non-response message, pumping
    /// background load when `load` is set.
    ///
    /// # Panics
    ///
    /// Panics when a shard stays silent for [`HARD_WAIT`] (infrastructure
    /// bug) or sends a message no wait loop expects (protocol bug).
    fn wait_for<T>(
        &mut self,
        load: bool,
        mut pred: impl FnMut(&ShardMsg) -> Option<T>,
    ) -> T {
        let start = Instant::now();
        loop {
            if load {
                let cap = IN_FLIGHT_PER_SHARD
                    * self.shards.iter().filter(|s| s.serving).count() as u64;
                if self.in_flight() < cap {
                    self.submit();
                }
            }
            match self.rx.recv_timeout(RECV_TICK) {
                Ok(msg) => {
                    if let Some(msg) = self.note(msg) {
                        match pred(&msg) {
                            Some(t) => return t,
                            None => panic!("unexpected shard message mid-wait"),
                        }
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    assert!(
                        start.elapsed() < HARD_WAIT,
                        "fleet wait exceeded {HARD_WAIT:?}"
                    );
                }
                Err(RecvTimeoutError::Disconnected) => panic!("all shards gone"),
            }
        }
    }

    /// Blocks until every submitted request has a response.
    fn drain_responses(&mut self) {
        let start = Instant::now();
        while self.in_flight() > 0 {
            match self.rx.recv_timeout(RECV_TICK) {
                Ok(msg) => {
                    if self.note(msg).is_some() {
                        panic!("unexpected shard message while draining");
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    assert!(
                        start.elapsed() < HARD_WAIT,
                        "response drain exceeded {HARD_WAIT:?}"
                    );
                }
                Err(RecvTimeoutError::Disconnected) => panic!("all shards gone"),
            }
        }
    }

    /// Submits `requests` round-robin across the serving shards and waits
    /// for every response — the fleet's closed-batch load driver.
    pub fn run_requests(&mut self, requests: u64) -> LoadReport {
        let (c0, i0) = (self.completed, self.incorrect);
        let started = Instant::now();
        for _ in 0..requests {
            assert!(self.submit(), "no serving shard accepts requests");
        }
        self.drain_responses();
        LoadReport {
            completed: self.completed - c0,
            incorrect: self.incorrect - i0,
            wall: started.elapsed(),
        }
    }

    /// Every shard's defs-only registry fingerprint, in shard order.
    pub fn version_fingerprints(&mut self) -> Vec<String> {
        self.drain_responses();
        for s in &self.shards {
            s.tx.send(ShardCmd::Fingerprint).expect("shard alive");
        }
        let mut digests = vec![None; self.shards.len()];
        for _ in 0..self.shards.len() {
            let (shard, digest) = self.wait_for(false, |msg| match msg {
                ShardMsg::Fingerprint { shard, digest } => Some((*shard, digest.clone())),
                _ => None,
            });
            digests[shard] = Some(digest);
        }
        digests.into_iter().map(|d| d.expect("every shard reported")).collect()
    }

    /// Rolls `update` across the fleet shard-by-shard: drain, apply
    /// (each shard's own controller), health-gate via the event stream
    /// plus `probes_per_shard` verified probes, promote — or roll the
    /// fleet back to the old version on the first failure.
    pub fn roll(
        &mut self,
        update: &Update,
        opts: &ApplyOptions,
        ropts: &RollOptions,
    ) -> RollReport {
        let mut report = RollReport::default();
        self.roll_events.clear();
        self.mid_roll_responses = 0;
        let incorrect_before = self.incorrect;
        let update = Arc::new(update.clone());
        let mut promoted: Vec<usize> = Vec::new();

        'roll: for target in 0..self.shards.len() {
            // Drain: stop routing new requests to the target; everything
            // already queued is served before the update command arrives.
            self.shards[target].serving = false;
            let payload = match ropts.fault {
                Some(RollFault::BadTransformers { shard }) if shard == target => {
                    let mut bad = (*update).clone();
                    bad.set_transformers_source("class JvolveTransformers { syntax error! }");
                    Arc::new(bad)
                }
                _ => Arc::clone(&update),
            };
            self.shards[target]
                .tx
                .send(ShardCmd::Update { update: payload, opts: Box::new(opts.clone()) })
                .expect("shard alive");

            self.counting_mid_roll = true;
            let outcome = self.wait_for(ropts.load_during_roll, |msg| match msg {
                ShardMsg::UpdateDone { shard, outcome } if *shard == target => {
                    Some(outcome.clone())
                }
                _ => None,
            });
            self.counting_mid_roll = false;

            let committed = outcome.supported();
            // Health gate half 1: the typed event stream must show a
            // commit and no abort for this shard.
            let saw_committed = self.roll_events.iter().any(|(s, e)| {
                *s == target && matches!(e, UpdateEvent::Committed { .. })
            });
            let saw_aborted = self.roll_events.iter().any(|(s, e)| {
                *s == target && matches!(e, UpdateEvent::Aborted { .. })
            });
            let stream_healthy = committed && saw_committed && !saw_aborted;

            // Health gate half 2: verified probe responses.
            let (mut probes_ok, mut probes_failed) = (0, 0);
            if stream_healthy {
                self.shards[target]
                    .tx
                    .send(ShardCmd::Probe { count: ropts.probes_per_shard })
                    .expect("shard alive");
                let (ok, failed) = self.wait_for(ropts.load_during_roll, |msg| match msg {
                    ShardMsg::ProbeDone { shard, ok, failed } if *shard == target => {
                        Some((*ok, *failed))
                    }
                    _ => None,
                });
                probes_ok = ok;
                probes_failed = failed;
            }
            let timed_out_health = matches!(
                ropts.fault,
                Some(RollFault::HealthTimeout { shard }) if shard == target
            );
            let healthy =
                stream_healthy && probes_failed == 0 && probes_ok > 0 && !timed_out_health;

            let detail = if timed_out_health {
                "health-check timeout (injected)".to_string()
            } else if healthy {
                format!("committed, {probes_ok} probes verified")
            } else {
                format!("{outcome}")
            };
            report.shards.push(ShardRollReport {
                shard: target,
                committed,
                probes_ok,
                probes_failed,
                healthy,
                detail: detail.clone(),
            });

            if healthy {
                self.shards[target].serving = true;
                promoted.push(target);
                continue;
            }

            // Fleet-wide rollback. The failing shard either never left the
            // old version (its controller aborted, replaying whatever its
            // ledger held) or committed but flunked the health gate — the
            // latter must be redeployed to the old version alongside every
            // already-promoted shard.
            let mut to_redeploy = promoted.clone();
            if committed {
                to_redeploy.push(target);
            }
            for &s in &to_redeploy {
                self.shards[s].serving = false;
                self.shards[s]
                    .tx
                    .send(ShardCmd::Redeploy { classes: Arc::clone(&self.base_classes) })
                    .expect("shard alive");
            }
            for _ in 0..to_redeploy.len() {
                let shard = self.wait_for(false, |msg| match msg {
                    ShardMsg::Redeployed { shard } => Some(*shard),
                    _ => None,
                });
                self.shards[shard].serving = true;
            }
            self.shards[target].serving = true;
            report.rolled_back = true;
            report.rollback_reason = Some(format!("shard {target}: {detail}"));
            break 'roll;
        }

        // Settle: answer everything in flight, then fingerprint the fleet
        // to prove convergence (on the new version, or back on the old).
        self.drain_responses();
        report.fingerprints = self.version_fingerprints();
        report.mid_roll_responses = self.mid_roll_responses;
        report.dropped = self.in_flight();
        report.incorrect = self.incorrect - incorrect_before;
        report.events = std::mem::take(&mut self.roll_events);
        report
    }

    /// Stops every shard thread and joins them.
    pub fn shutdown(mut self) {
        self.stop_all();
    }

    fn stop_all(&mut self) {
        for s in &self.shards {
            let _ = s.tx.send(ShardCmd::Stop);
        }
        for s in &mut self.shards {
            if let Some(join) = s.join.take() {
                let _ = join.join();
            }
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.stop_all();
    }
}
