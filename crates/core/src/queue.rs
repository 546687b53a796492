//! Serialized update queue: back-to-back and overlapping update arrivals.
//!
//! A release stream delivers updates faster than one can finish applying —
//! in particular, a new version can arrive while the previous update's
//! *lazy epoch is still draining* (the controller sits in
//! [`UpdatePhase::LazyMigrating`] with its incremental copy, and so its
//! read barrier, still running). Starting a second controller there would race two
//! version prefixes over one heap, so the queue strictly serializes:
//! an update pushed while another is in flight waits, tagged with the
//! phase it arrived during, and starts only after the current controller
//! commits or aborts. Arrival order is preserved (FIFO).
//!
//! [`UpdateQueue::drain`] is the driving loop: it steps one controller at
//! a time and calls the embedder's `pump` whenever the guest may run
//! (safe-point wait, lazy epoch) — the pump serves requests and may push
//! further updates, which is exactly how the release-stream harness feeds
//! a 20-version chain through a single VM under load.

use std::collections::VecDeque;

use jvolve_vm::Vm;

use crate::controller::{StepProgress, UpdateController, UpdatePhase};
use crate::driver::{ApplyOptions, Update, UpdateStats};
use crate::error::UpdateError;

/// One entry awaiting its turn.
struct PendingUpdate {
    ticket: u64,
    update: Update,
    /// Phase the in-flight update was in when this one arrived, if any.
    enqueued_during: Option<UpdatePhase>,
}

/// The result of one queued update after [`UpdateQueue::drain`] ran it.
#[derive(Clone, Debug)]
pub struct QueuedOutcome {
    /// Arrival order (monotonic, starting at 0).
    pub ticket: u64,
    /// The update's version prefix, for reporting.
    pub version_prefix: String,
    /// Phase of the then-in-flight update when this one arrived: `None`
    /// for back-to-back arrivals on an idle queue,
    /// `Some(UpdatePhase::LazyMigrating)` when it arrived mid-drain.
    pub enqueued_during: Option<UpdatePhase>,
    /// Commit stats or the typed abort error.
    pub result: Result<UpdateStats, UpdateError>,
}

impl QueuedOutcome {
    /// Whether this update committed.
    pub fn committed(&self) -> bool {
        self.result.is_ok()
    }
}

/// FIFO queue of prepared updates, applied strictly one at a time.
#[derive(Default)]
pub struct UpdateQueue {
    pending: VecDeque<PendingUpdate>,
    next_ticket: u64,
    /// Phase of the update currently being applied by [`UpdateQueue::drain`].
    in_flight: Option<UpdatePhase>,
}

impl UpdateQueue {
    /// An empty queue.
    pub fn new() -> Self {
        UpdateQueue::default()
    }

    /// Enqueues a prepared update, recording the phase of the in-flight
    /// update it arrived during (if any). Returns the arrival ticket.
    pub fn push(&mut self, update: Update) -> u64 {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.pending.push_back(PendingUpdate {
            ticket,
            update,
            enqueued_during: self.in_flight,
        });
        ticket
    }

    /// Number of updates waiting (not counting one currently applying).
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether no updates are waiting.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Phase of the update currently being applied by
    /// [`UpdateQueue::drain`], or `None` when the queue is idle. A pump
    /// checks this to detect that the system is mid-drain
    /// (`Some(UpdatePhase::LazyMigrating)`) before pushing the next
    /// release.
    pub fn in_flight_phase(&self) -> Option<UpdatePhase> {
        self.in_flight
    }

    /// Applies every queued update in arrival order, strictly serialized:
    /// the next controller is constructed only after the previous one
    /// commits or aborts — even when the previous update's lazy epoch is
    /// still draining, a newly pushed update waits its turn.
    ///
    /// `pump` runs whenever the guest may run (the controller is waiting
    /// for a safe point or draining a lazy epoch); it receives the queue
    /// so it can push further updates mid-flight. Updates pushed by the
    /// pump are drained in the same call. An aborted update does not stop
    /// the queue: later entries still run (against the rolled-back
    /// version) and record their own outcomes.
    pub fn drain(
        &mut self,
        vm: &mut Vm,
        opts: &ApplyOptions,
        mut pump: impl FnMut(&mut Vm, &mut UpdateQueue),
    ) -> Vec<QueuedOutcome> {
        let mut outcomes = Vec::new();
        while let Some(entry) = self.pending.pop_front() {
            let PendingUpdate { ticket, update, enqueued_during } = entry;
            self.in_flight = Some(UpdatePhase::Pending);
            let mut controller = UpdateController::new(&update, opts.clone());
            let result = loop {
                match controller.step(vm) {
                    StepProgress::Pending(phase) => {
                        self.in_flight = Some(phase);
                        if matches!(
                            phase,
                            UpdatePhase::WaitingForSafePoint | UpdatePhase::LazyMigrating
                        ) {
                            pump(vm, self);
                        }
                    }
                    StepProgress::Committed => break Ok(controller.stats().clone()),
                    StepProgress::Aborted => {
                        break Err(controller.error().cloned().unwrap_or_else(|| {
                            UpdateError::Compile("aborted without error".into())
                        }))
                    }
                }
            };
            self.in_flight = None;
            outcomes.push(QueuedOutcome {
                ticket,
                version_prefix: update.spec.version_prefix.clone(),
                enqueued_during,
                result,
            });
        }
        outcomes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jvolve_vm::VmConfig;

    fn counter_source(bump: i64, extra_field: bool) -> String {
        format!(
            "class Counter {{
               static field hits: int;
               {extra}
               static method bump(): int {{
                 Counter.hits = Counter.hits + {bump};
                 return Counter.hits;
               }}
             }}",
            extra = if extra_field { "static field seen: int;" } else { "" },
        )
    }

    fn prepare(old: &str, new: &str, prefix: &str) -> Update {
        let old = jvolve_lang::compile(old).unwrap();
        let new = jvolve_lang::compile(new).unwrap();
        Update::prepare(&old, &new, prefix).unwrap()
    }

    #[test]
    fn back_to_back_updates_apply_in_fifo_order() {
        let v1 = counter_source(1, false);
        let v2 = counter_source(2, false);
        let v3 = counter_source(3, true);
        let mut vm = Vm::new(VmConfig::small());
        vm.load_classes(&jvolve_lang::compile(&v1).unwrap()).unwrap();

        let mut queue = UpdateQueue::new();
        queue.push(prepare(&v1, &v2, "v1_"));
        queue.push(prepare(&v2, &v3, "v2_"));
        assert_eq!(queue.len(), 2);

        let outcomes = queue.drain(&mut vm, &ApplyOptions::default(), |_, _| {});
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes.iter().all(QueuedOutcome::committed));
        assert_eq!(outcomes[0].version_prefix, "v1_");
        assert_eq!(outcomes[1].version_prefix, "v2_");
        assert_eq!(outcomes[0].enqueued_during, None);
        assert_eq!(outcomes[1].enqueued_during, None);
        // The final version's code runs.
        let got = vm.call_static_sync("Counter", "bump", &[]).unwrap();
        assert_eq!(got, Some(jvolve_vm::Value::Int(3)));
    }

    #[test]
    fn update_pushed_mid_flight_waits_for_commit() {
        // Lazy migration keeps the first update in LazyMigrating while the
        // heap drains; the second update arrives there and must wait.
        let v1 = "class Box { field n: int; ctor(n: int) { this.n = n; } }
                  class Main {
                    static field boxes: Box[];
                    static method main(): void {
                      Main.boxes = new Box[64];
                      var i: int = 0;
                      while (i < 64) { Main.boxes[i] = new Box(i); i = i + 1; }
                      while (true) { Sys.yieldNow(); }
                    }
                  }";
        let v2 = v1.replace("field n: int;", "field n: int; field pad: int;");
        let v3 = v2.replace("this.n = n;", "this.n = n + 0;");

        let mut vm = Vm::new(VmConfig { lazy_migration: true, ..VmConfig::small() });
        vm.load_classes(&jvolve_lang::compile(v1).unwrap()).unwrap();
        vm.spawn("Main", "main").unwrap();
        vm.run_slices(50);

        let mut queue = UpdateQueue::new();
        queue.push(prepare(v1, &v2, "v1_"));
        let next = prepare(&v2, &v3, "v2_");
        let mut next = Some(next);
        let outcomes = queue.drain(
            &mut vm,
            &ApplyOptions { lazy_scavenge_batch: 1, lazy_step_cells: 8, ..Default::default() },
            |vm, q| {
                vm.run_slices(1);
                if q.in_flight_phase() == Some(UpdatePhase::LazyMigrating) {
                    if let Some(u) = next.take() {
                        q.push(u);
                    }
                }
            },
        );
        assert_eq!(outcomes.len(), 2, "{outcomes:?}");
        assert!(outcomes.iter().all(QueuedOutcome::committed), "{outcomes:?}");
        assert_eq!(
            outcomes[1].enqueued_during,
            Some(UpdatePhase::LazyMigrating),
            "second update must have arrived while the first epoch drained"
        );
    }

    #[test]
    fn aborted_update_does_not_stop_the_queue() {
        let v1 = counter_source(1, false);
        let v2 = counter_source(2, false);
        let mut vm = Vm::new(VmConfig::small());
        vm.load_classes(&jvolve_lang::compile(&v1).unwrap()).unwrap();

        let mut queue = UpdateQueue::new();
        // First update carries a transformer source that fails to compile —
        // its controller rejects it in `Pending`, before it waits for a safe
        // point (so the pump never runs for it); the second still applies.
        let mut broken = prepare(&v1, &counter_source(9, true), "vX_");
        broken.set_transformers_source("class JvolveTransformers { nonsense");
        queue.push(broken);
        queue.push(prepare(&v1, &v2, "v1_"));
        let mut pumps = 0;
        let outcomes = queue.drain(&mut vm, &ApplyOptions::default(), |_, _| pumps += 1);
        assert_eq!(outcomes.len(), 2);
        assert!(matches!(outcomes[0].result, Err(UpdateError::Compile(_))), "{:?}", outcomes[0]);
        assert!(outcomes[1].committed(), "{:?}", outcomes[1].result);
        assert_eq!(pumps, 1, "only the second update ever waited for a safe point");
    }
}
