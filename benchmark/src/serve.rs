//! The closed-loop client, serving windows and the update stepper.
//!
//! One host thread is both the client and the VM driver: every loop
//! iteration tops the in-flight requests up to the client count, runs one
//! guest slice, and collects the replies that slice produced. A request's
//! latency runs from the clock read before its send to the clock read
//! after the slice that answered it. A traced window reads the clock
//! twice more per iteration to split the iteration into `net.client`
//! (the `Net::client_*` calls), `vm.step_slice`, and the harness's own
//! work (checking replies, building the next request lines).

use crate::gen::{Expect, Traffic};
use crate::layers::{Counters, Guest, Phase, Prepared, Progress, Slice, UpdateNumbers, Updater};
use crate::stats;
use crate::trace::Tracer;

/// Iterations without a single reply after which the server is declared
/// wedged (a healthy server answers within a handful of slices).
const STALL_ITERATIONS: u32 = 200_000;

struct Flight {
    conn: usize,
    sent_ns: u64,
    expect: Expect,
}

/// A closed-loop client keeping `clients` single-line requests in flight.
pub struct Client {
    port: u16,
    clients: usize,
    in_flight: Vec<Flight>,
    staged: Vec<(String, Expect)>,
    replies: Vec<(usize, String)>,
    /// Send → receive latency of every answered request, in ns.
    pub latencies_ns: Vec<u32>,
    /// Requests answered (right or wrong).
    pub completed: u64,
    /// Requests answered wrongly, never answered, or refused.
    pub failed: u64,
    /// Guest threads that trapped under this client's traffic.
    pub trapped: u64,
    /// Slices in which no guest thread was runnable.
    pub idle_slices: u64,
    /// Set when the server stopped answering; the workload gives up.
    pub wedged: bool,
}

impl Client {
    pub fn new(port: u16, clients: usize) -> Client {
        Client {
            port,
            clients,
            in_flight: Vec::with_capacity(clients),
            staged: Vec::with_capacity(clients),
            replies: Vec::with_capacity(clients),
            latencies_ns: Vec::new(),
            completed: 0,
            failed: 0,
            trapped: 0,
            idle_slices: 0,
            wedged: false,
        }
    }

    /// Stages request lines until the in-flight set would be full again
    /// (harness time: it happens after the replies are checked).
    fn stage(&mut self, traffic: &mut dyn Traffic) {
        while self.in_flight.len() + self.staged.len() < self.clients {
            self.staged.push(traffic.next_request());
        }
    }

    /// Sends the staged requests: tops the in-flight set up to the
    /// client count.
    fn top_up(&mut self, guest: &mut Guest, tracer: &mut Tracer, traffic: &mut dyn Traffic) {
        self.stage(traffic);
        let t0 = tracer.now();
        for (line, expect) in self.staged.drain(..) {
            match guest.send_request(self.port, &line) {
                Some(conn) => self.in_flight.push(Flight {
                    conn,
                    sent_ns: t0,
                    expect,
                }),
                None => {
                    self.completed += 1;
                    self.failed += 1;
                }
            }
        }
        let t1 = tracer.mark();
        tracer.leaf("net.client", t0, t1);
    }

    /// Collects and checks the replies that are in; `t_recv` is the clock
    /// read after the slice that produced them. Returns their number.
    fn collect(&mut self, guest: &mut Guest, tracer: &mut Tracer, t_recv: u64) -> usize {
        for (i, flight) in self.in_flight.iter().enumerate() {
            if let Some(reply) = guest.poll_reply(flight.conn) {
                self.replies.push((i, reply));
            }
        }
        let tb = tracer.mark();
        tracer.leaf("net.client", t_recv, tb);
        let answered = self.replies.len();
        // Highest index first, so `swap_remove` never moves a pending one.
        for (i, reply) in self.replies.drain(..).rev() {
            let flight = self.in_flight.swap_remove(i);
            self.completed += 1;
            if !flight.expect.matches(&reply) {
                self.failed += 1;
            }
            self.latencies_ns
                .push((t_recv - flight.sent_ns).min(u64::from(u32::MAX)) as u32);
            tracer.request(flight.sent_ns, t_recv);
        }
        answered
    }

    /// One guest slice as a `vm.step_slice` span (`[gc]` when a
    /// collection ran in it), then the replies it produced. Returns the
    /// number of replies and, in a recording window, the slice's time.
    fn slice_and_collect(&mut self, guest: &mut Guest, tracer: &mut Tracer) -> (usize, u64) {
        let gcs = guest.gcs();
        let t1 = tracer.mark();
        let slice = guest.step_slice();
        let t2 = tracer.now();
        let name = if guest.gcs() != gcs {
            "vm.step_slice[gc]"
        } else {
            "vm.step_slice"
        };
        tracer.leaf(name, t1, t2);
        match slice {
            Slice::Ran => {}
            Slice::Idle => self.idle_slices += 1,
            Slice::Trapped => self.trapped += 1,
        }
        let slice_ns = if tracer.on() { t2 - t1 } else { 0 };
        (self.collect(guest, tracer, t2), slice_ns)
    }

    /// Counts an iteration without replies; gives up on a dead server.
    fn watch_stall(&mut self, guest: &mut Guest, answered: usize, stalled: &mut u32) {
        if answered > 0 {
            *stalled = 0;
            return;
        }
        *stalled += 1;
        if *stalled > STALL_ITERATIONS {
            for flight in self.in_flight.drain(..) {
                guest.abandon(flight.conn);
                self.completed += 1;
                self.failed += 1;
            }
            self.wedged = true;
        }
    }

    /// Serves until `n` more requests have been answered.
    pub fn serve(
        &mut self,
        guest: &mut Guest,
        tracer: &mut Tracer,
        traffic: &mut dyn Traffic,
        n: u64,
    ) {
        let target = self.completed + n;
        let mut stalled = 0u32;
        while self.completed < target && !self.wedged {
            self.top_up(guest, tracer, traffic);
            let (answered, _) = self.slice_and_collect(guest, tracer);
            self.stage(traffic);
            self.watch_stall(guest, answered, &mut stalled);
        }
    }

    /// The client's share of an update in progress: collect what is in,
    /// top up, and — when the controller is not running guest slices
    /// itself (`run_slice`) — give the guest one slice. Returns the time
    /// of that slice (recording windows only).
    pub fn pump(
        &mut self,
        guest: &mut Guest,
        tracer: &mut Tracer,
        traffic: &mut dyn Traffic,
        run_slice: bool,
    ) -> u64 {
        if self.wedged {
            return 0;
        }
        self.top_up(guest, tracer, traffic);
        if run_slice {
            self.slice_and_collect(guest, tracer).1
        } else {
            let t = tracer.now();
            self.collect(guest, tracer, t);
            0
        }
    }

    /// Stops issuing and waits for every in-flight reply; what never
    /// comes back counts as failed.
    pub fn drain(&mut self, guest: &mut Guest, tracer: &mut Tracer) {
        let mut stalled = 0u32;
        while !self.in_flight.is_empty() {
            let (answered, _) = self.slice_and_collect(guest, tracer);
            self.watch_stall(guest, answered, &mut stalled);
        }
    }
}

/// Runs a freshly booted server until it listens.
pub fn wait_for_listener(guest: &mut Guest, port: u16) -> Result<(), String> {
    for _ in 0..50_000 {
        if guest.has_listener(port) {
            return Ok(());
        }
        guest.step_slice();
    }
    Err(format!("nothing listens on port {port}"))
}

/// Totals over a group of serving windows.
#[derive(Clone, Debug, Default)]
pub struct Served {
    pub requests: u64,
    pub wall_ns: u64,
    pub idle_slices: u64,
    /// `VmStats` deltas over the windows.
    pub counters: Counters,
    /// Self time of the windows' spans (recording windows only), in ms.
    pub guest_ms: f64,
    pub gc_slice_ms: f64,
    pub net_ms: f64,
    pub harness_ms: f64,
}

/// Span names a serving window's time is attributed to.
const GUEST_SPANS: &str = "vm.";
const GC_SLICE_SPAN: &str = "vm.step_slice[gc]";
const NET_SPAN: &str = "net.client";
pub const SERVE_WINDOW: &str = "window[serve]";

/// One closed serving window.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    pub wall_ns: u64,
    /// Whether it recorded spans.
    pub recorded: bool,
    /// Median and 99th-percentile request latency inside the window, in
    /// µs (0 where the percentile rule forbids the percentile).
    pub latency_p50_us: f64,
    pub latency_p99_us: f64,
}

/// A sequence of equal serving windows on one kind of VM state (before
/// any update, or after one). In a traced run every other window records
/// spans: the same run yields the per-layer numbers and, from the rate
/// difference, the tracing overhead.
#[derive(Clone, Debug, Default)]
pub struct ServePhase {
    /// Requests per window.
    pub window_requests: u64,
    pub windows: Vec<Window>,
    /// Totals over the recording windows.
    pub traced: Served,
    /// Totals over the first `fixed_windows` windows, which every run
    /// executes however slow the host: the source of counts that must
    /// repeat exactly.
    pub fixed: Served,
    pub fixed_windows: usize,
    /// Absolute counters when the last fixed window closed.
    pub at_fixed: Counters,
    /// Latencies of the open window (scratch, reused).
    latencies_ns: Vec<u32>,
}

impl ServePhase {
    pub fn new(window_requests: u64, fixed_windows: usize) -> ServePhase {
        ServePhase {
            window_requests,
            fixed_windows,
            ..ServePhase::default()
        }
    }

    /// Whether the windows every run must execute are done.
    pub fn fixed_done(&self) -> bool {
        self.windows.len() >= self.fixed_windows
    }

    /// Runs one window: `body` serves `window_requests` requests, pushes
    /// their latencies (ns) and returns the idle slices it saw.
    pub fn window(
        &mut self,
        tracer: &mut Tracer,
        guest: &mut Guest,
        body: impl FnOnce(&mut Tracer, &mut Guest, &mut Vec<u32>) -> u64,
    ) {
        let index = self.windows.len();
        // Record every other window on average, in Thue–Morse order: a
        // plain alternation would always record the same segments of a
        // periodic workload (a kv chain has 20).
        let traced = index.count_ones() % 2 == 1;
        let before = guest.counters();
        let spans_before = span_totals(tracer);
        self.latencies_ns.clear();
        tracer.open_window(SERVE_WINDOW, traced);
        let idle = body(tracer, guest, &mut self.latencies_ns);
        let recorded = tracer.on();
        let wall = tracer.close_window();
        let delta = guest.counters().since(&before);

        let mut lat: Vec<f64> = self
            .latencies_ns
            .iter()
            .map(|&ns| f64::from(ns) / 1e3)
            .collect();
        stats::sort(&mut lat);
        self.windows.push(Window {
            wall_ns: wall,
            recorded,
            latency_p50_us: stats::percentile(&lat, 0.5).unwrap_or(0.0),
            latency_p99_us: stats::percentile(&lat, 0.99).unwrap_or(0.0),
        });

        let add = |to: &mut Served| {
            to.requests += self.window_requests;
            to.wall_ns += wall;
            to.idle_slices += idle;
            to.counters.add(&delta);
        };
        if index < self.fixed_windows {
            add(&mut self.fixed);
            self.at_fixed = guest.counters();
        }
        if recorded {
            add(&mut self.traced);
            let after = span_totals(tracer);
            self.traced.guest_ms += after[0] - spans_before[0];
            self.traced.gc_slice_ms += after[1] - spans_before[1];
            self.traced.net_ms += after[2] - spans_before[2];
            self.traced.harness_ms += after[3] - spans_before[3];
        }
    }

    /// Requests per second of every window (`recorded`: only those that
    /// did / did not record spans).
    pub fn rates(&self, recorded: Option<bool>) -> Vec<f64> {
        self.windows
            .iter()
            .filter(|w| recorded.is_none_or(|want| want == w.recorded))
            .map(|w| self.window_requests as f64 * 1e9 / w.wall_ns.max(1) as f64)
            .collect()
    }

    /// Share of throughput the recording windows lose to the
    /// non-recording ones, in percent (0 outside a traced run).
    pub fn trace_overhead_pct(&self) -> f64 {
        let plain = stats::median(&self.rates(Some(false)));
        let traced = self.rates(Some(true));
        if traced.is_empty() || plain <= 0.0 {
            return 0.0;
        }
        (plain - stats::median(&traced)) / plain * 100.0
    }
}

fn span_totals(tracer: &Tracer) -> [f64; 4] {
    [
        tracer.self_ms_prefix(GUEST_SPANS),
        tracer.self_ms(GC_SLICE_SPAN),
        tracer.self_ms(NET_SPAN),
        tracer.self_ms(SERVE_WINDOW),
    ]
}

/// What one update cost, measured from outside the controller.
#[derive(Clone, Debug, Default)]
pub struct UpdateSample {
    /// Which update of the repetition this is (0 unless a chain): samples
    /// of one kind are repetitions of the same work.
    pub kind: usize,
    pub committed: bool,
    /// Longest contiguous interval in which no guest slice could run.
    pub pause_ns: u64,
    /// First `step` → `Committed`.
    pub update_ns: u64,
    /// Controller steps taken in `Pending`/`WaitingForSafePoint`.
    pub safepoint_ns: u64,
    pub safepoint_polls: u64,
    /// Steps taken in `Installing`.
    pub install_ns: u64,
    /// Steps taken in `TransformingHeap`.
    pub transform_heap_ns: u64,
    /// Steps taken in `LazyMigrating`.
    pub lazy_ns: u64,
    pub lazy_steps: u64,
    pub lazy_step_max_ns: u64,
    /// Time in the embedder's pump between steps.
    pub pump_ns: u64,
    /// Guest slice time and interpreter steps while a lazy epoch drained.
    pub epoch_guest_ns: u64,
    pub epoch_steps: u64,
    /// Heap words in use right after the commit.
    pub used_words_after: u64,
    /// The controller's own `UpdateStats`.
    pub numbers: UpdateNumbers,
}

pub const UPDATE_WINDOW: &str = "window[update]";

/// Steps one update to its end inside a recording `window[update]`.
/// `pump(guest, tracer, run_slice)` is the embedder's turn, called only
/// where the pause contract lets the guest run: after a step that left
/// the controller waiting for a safe point (the poll already ran a
/// slice, so `run_slice` is false) and after each `LazyMigrating` step
/// (`run_slice` is true). It returns the guest slice time it spent.
pub fn apply_update(
    guest: &mut Guest,
    tracer: &mut Tracer,
    update: &Prepared,
    mut pump: impl FnMut(&mut Guest, &mut Tracer, bool) -> u64,
) -> UpdateSample {
    let mut s = UpdateSample::default();
    let mut updater = Updater::new(update);
    tracer.open_window(UPDATE_WINDOW, true);
    let started = tracer.now();
    // Start of the step that found the safe point: no guest slice runs
    // from there until the heap is transformed (or the barrier armed).
    let mut pause_from: Option<u64> = None;
    loop {
        let phase = updater.phase();
        let t0 = tracer.now();
        let progress = updater.step(guest);
        let t1 = tracer.now();
        tracer.leaf(phase.span_name(), t0, t1);
        let spent = t1 - t0;
        match phase {
            Phase::Pending | Phase::WaitingForSafePoint => {
                s.safepoint_ns += spent;
                s.safepoint_polls += 1;
            }
            Phase::Installing => s.install_ns += spent,
            Phase::TransformingHeap => s.transform_heap_ns += spent,
            Phase::LazyMigrating => {
                s.lazy_ns += spent;
                s.lazy_steps += 1;
                s.lazy_step_max_ns = s.lazy_step_max_ns.max(spent);
            }
            Phase::Committed | Phase::Aborted => {}
        }
        match progress {
            Progress::Pending(Phase::Installing | Phase::TransformingHeap) => {
                pause_from.get_or_insert(t0);
            }
            Progress::Pending(Phase::LazyMigrating) => {
                // The pause ends here; every later lazy step is a pause
                // of its own, as long as the step.
                s.pause_ns = s.pause_ns.max(t1 - pause_from.take().unwrap_or(t0));
                let steps_before = guest.counters().steps;
                let t = tracer.now();
                s.epoch_guest_ns += pump(guest, tracer, true);
                s.pump_ns += tracer.now() - t;
                s.epoch_steps += guest.counters().steps - steps_before;
            }
            Progress::Pending(_) => {
                // Still (or again) waiting: the guest ran, no pause yet.
                pause_from = None;
                let t = tracer.now();
                pump(guest, tracer, false);
                s.pump_ns += tracer.now() - t;
            }
            Progress::Committed => {
                s.pause_ns = s.pause_ns.max(t1 - pause_from.take().unwrap_or(t0));
                s.committed = true;
                break;
            }
            Progress::Aborted => break,
        }
    }
    s.update_ns = tracer.now() - started;
    tracer.close_window();
    s.numbers = updater.numbers();
    s.used_words_after = guest.counters().used_words;
    s
}
