//! Lazy-migration epoch state: on-demand object transformation behind a
//! read barrier, with snapshot-at-the-beginning discovery and incremental
//! forwarding collapse.
//!
//! The eager update protocol (paper §3.4) commits with a stop-the-world
//! full-heap copying GC, so the pause grows with live heap size. A lazy
//! epoch instead marks changed classes *version-pending* and defers all
//! heap-proportional work: the commit records only an allocation
//! **watermark** (`[scan_addr, scan_limit)` — the active semispace at the
//! moment the barrier arms), so the pause is O(roots); discovery,
//! transformation, and forwarding collapse all happen afterwards in
//! bounded controller-stepped batches.
//!
//! An epoch moves through four [stages](LazyStage) while
//! [`active`](LazyEpoch::active):
//!
//! * **Scan** — a resumable scanner ([`Vm::lazy_scan`](crate::Vm)) walks
//!   the watermarked region in bounded batches and converts as it
//!   discovers: a stale object whose class has a copy plan gets its
//!   new-layout object and forwarding word on the spot, while its header
//!   is still in cache (each conversion costs the batch one more cell);
//!   every other stale object goes onto the worklist. The read barrier is
//!   the SATB invariant keeper: any stale object the mutator touches
//!   first is transformed on the spot (its forwarding word makes the
//!   scanner skip it), and objects allocated *past* the watermark can
//!   never be stale, because every method that could allocate a changed
//!   class was invalidated at install time and recompiles against the
//!   new class. A full GC during this stage first runs the scanner to
//!   completion so the collection can root the undiscovered tail.
//! * **Drain** — the scavenger ([`Vm::lazy_scavenge`](crate::Vm))
//!   transforms bounded batches off the worklist, so cold objects migrate
//!   even if the guest never reads them again. Only two kinds of object
//!   are left for it: those whose transformer must be interpreted, and
//!   planned ones the scan found no room to convert (the drain collects
//!   and retries). A fully planned update skips this stage.
//! * **Collapse** — with every stale object transformed, the epoch's
//!   forwarding words are compacted away incrementally
//!   ([`Vm::lazy_collapse`](crate::Vm)): one O(roots) pass rewrites
//!   thread frames, statics, and host roots through the forwards, then a
//!   resumable sweep rewrites heap referrers batch by batch — a batch may
//!   end inside a reference array, whose elements count against the
//!   budget one by one. Reference *loads* resolve through forwards while
//!   the epoch is active, so a stale reference read from an unswept cell
//!   can never recontaminate a swept one.
//! * **Done** — [`Vm::finish_lazy_migration`](crate::Vm) disarms the
//!   barrier, restoring the barrier-free fast path. No GC runs: the
//!   stale originals are unreferenced garbage and their forwarding words
//!   are reclaimed by the next natural collection.
//!
//! The collectors forward through the pending pairs and the barrier's
//! forwarding words alike: the worklist tail is rooted, so untouched stale
//! objects stay live until transformed — lazy and eager epochs transform
//! the *same* object multiset.
//!
//! An epoch the controller never steps past arming is never drained: the
//! barrier stays armed, touched objects migrate through it and untouched
//! ones stay stale. That held-open epoch is the JDrums/DVM indirection
//! baseline (paper §5) the `ablation` bench times.

use crate::heap::RemapTable;
use crate::value::GcRef;

/// Maximum nesting of in-progress object transformers before the VM
/// raises [`VmError::TransformerDepthExceeded`](crate::VmError): a typed
/// trap instead of a host stack overflow when a transformer set
/// force-transforms an unboundedly deep chain.
pub const MAX_TRANSFORMER_DEPTH: usize = 128;

/// Which part of a lazy epoch's post-pause work is up next. Ordered:
/// `Scan → Drain → Collapse → Done`; the controller dispatches each
/// `LazyMigrating` step on this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LazyStage {
    /// No epoch is active.
    Inactive,
    /// The watermarked region has not been fully scanned for stale
    /// objects yet.
    Scan,
    /// The worklist still holds discovered-but-untransformed objects.
    Drain,
    /// Every stale object is transformed; forwarding words are being
    /// compacted away.
    Collapse,
    /// The epoch is ready for [`Vm::finish_lazy_migration`](crate::Vm).
    Done,
}

/// Progress report from one [`Vm::lazy_scan`](crate::Vm::lazy_scan)
/// batch.
#[derive(Debug, Clone, Copy)]
pub struct ScanOutcome {
    /// Heap cells the batch stepped over (live or forwarded).
    pub cells: usize,
    /// Stale objects the batch discovered: converted on the spot or
    /// queued on the worklist.
    pub found: usize,
    /// How many of `found` a [`CopyPlan`](crate::heap::CopyPlan)
    /// converted on the spot; the rest went on the worklist.
    pub planned: usize,
    /// Whether the scan has reached the watermark — the worklist is now
    /// complete.
    pub done: bool,
}

/// Progress report from one [`Vm::lazy_scavenge`](crate::Vm::lazy_scavenge)
/// batch.
#[derive(Debug, Clone, Copy)]
pub struct ScavengeOutcome {
    /// Objects transformed by this batch (worklist entries the guest had
    /// already migrated through the barrier are skipped, not counted).
    pub transformed: usize,
    /// How many of `transformed` were converted by a
    /// [`CopyPlan`](crate::heap::CopyPlan) instead of a transformer frame.
    pub planned: usize,
    /// Worklist entries still pending after the batch; `0` means the
    /// drain is complete (the epoch then moves to collapse).
    pub remaining: usize,
}

/// What a finished epoch migrated, from
/// [`Vm::finish_lazy_migration`](crate::Vm::finish_lazy_migration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochTotals {
    /// Objects migrated (discovery scan + read barrier + scavenger).
    pub transformed: usize,
    /// How many of `transformed` were converted by a
    /// [`CopyPlan`](crate::heap::CopyPlan) instead of a transformer frame.
    pub planned: usize,
}

/// Progress report from one [`Vm::lazy_collapse`](crate::Vm::lazy_collapse)
/// batch.
#[derive(Debug, Clone, Copy)]
pub struct CollapseOutcome {
    /// Heap cells the batch swept, a reference array's elements counted
    /// one cell each.
    pub cells: usize,
    /// Reference slots rewritten through forwarding words.
    pub rewritten: usize,
    /// Whether the sweep has reached the epoch's allocation horizon — the
    /// epoch is ready for [`Vm::finish_lazy_migration`](crate::Vm).
    pub done: bool,
}

/// State of one lazy-migration epoch. Owned by [`Vm`](crate::Vm); all
/// fields are crate-internal — embedders observe the epoch through
/// [`Vm::lazy_epoch_active`](crate::Vm::lazy_epoch_active),
/// [`Vm::lazy_stage`](crate::Vm::lazy_stage), and the step outcomes.
#[derive(Debug, Default)]
pub struct LazyEpoch {
    /// Whether an epoch is in progress (the read barrier is armed).
    pub(crate) active: bool,
    /// Version-pending classes: old `ClassId` → updated `ClassId`, with
    /// the copy plan of every class that has one. An object is *stale*
    /// iff its class is remapped here and its header tag is zero — the
    /// old-layout copies first-touch duplication produces keep the stale
    /// class (so transformers can read them with old offsets) but carry
    /// their log index in the tag, and must never themselves trip the
    /// barrier.
    pub(crate) remap: RemapTable,
    /// Stale objects the scan found but could not convert (barrier-migrated
    /// ones are skipped at scavenge time via their forwarding words),
    /// ascending original address — the scavenger's queue and (from
    /// `cursor` on) extra GC roots, so untouched stale objects survive
    /// until transformed.
    pub(crate) worklist: Vec<GcRef>,
    /// First worklist entry the scavenger has not yet passed.
    pub(crate) cursor: usize,
    /// Objects migrated this epoch (scan + barrier + scavenger), by
    /// transformer frame or by plan.
    pub(crate) transformed: usize,
    /// How many of `transformed` a copy plan converted.
    pub(crate) planned: usize,
    /// Next address the SATB scanner will look at.
    pub(crate) scan_addr: usize,
    /// The commit watermark: the active semispace's allocation cursor at
    /// arm time. Cells at or past it were allocated *inside* the epoch
    /// and can never be stale.
    pub(crate) scan_limit: usize,
    /// Whether the collapse stage has begun (roots rewritten, sweep
    /// bounds recorded).
    pub(crate) collapsing: bool,
    /// Next address the collapse sweep will look at.
    pub(crate) sweep_addr: usize,
    /// First element of the reference array at `sweep_addr` still to
    /// sweep: a step that spends its budget inside an array stops there
    /// (0 at a cell boundary).
    pub(crate) sweep_slot: usize,
    /// The collapse horizon: the allocation cursor when the sweep began.
    /// Cells past it were allocated after the O(roots) root rewrite and
    /// load-resolution took effect, so they hold no stale references.
    pub(crate) sweep_limit: usize,
}

impl LazyEpoch {
    /// Which part of the epoch's work is up next.
    pub(crate) fn stage(&self) -> LazyStage {
        if !self.active {
            LazyStage::Inactive
        } else if self.scan_addr < self.scan_limit {
            LazyStage::Scan
        } else if self.cursor < self.worklist.len() {
            LazyStage::Drain
        } else if !self.collapsing || self.sweep_addr < self.sweep_limit {
            LazyStage::Collapse
        } else {
            LazyStage::Done
        }
    }

    /// Whether the SATB scan has covered the whole watermarked region.
    pub(crate) fn scan_done(&self) -> bool {
        self.scan_addr >= self.scan_limit
    }

    /// Entries the scavenger has not yet passed.
    pub(crate) fn pending_entries(&self) -> &[GcRef] {
        &self.worklist[self.cursor..]
    }

    /// Drops the processed worklist prefix (called before a collection so
    /// only the live tail is rooted and rewritten).
    pub(crate) fn drop_processed(&mut self) {
        if self.cursor > 0 {
            self.worklist.drain(..self.cursor);
            self.cursor = 0;
        }
    }

    /// Clears the epoch back to the inactive state, returning what it
    /// migrated while it ran.
    pub(crate) fn reset(&mut self) -> EpochTotals {
        let totals = EpochTotals { transformed: self.transformed, planned: self.planned };
        *self = LazyEpoch::default();
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_processed_keeps_only_the_tail() {
        let mut epoch = LazyEpoch {
            worklist: vec![GcRef(10), GcRef(20), GcRef(30)],
            cursor: 2,
            ..LazyEpoch::default()
        };
        epoch.drop_processed();
        assert_eq!(epoch.worklist, vec![GcRef(30)]);
        assert_eq!(epoch.cursor, 0);
        assert_eq!(epoch.pending_entries(), &[GcRef(30)]);
    }

    #[test]
    fn reset_reports_and_clears_progress() {
        let mut epoch =
            LazyEpoch { active: true, transformed: 7, planned: 3, ..LazyEpoch::default() };
        assert_eq!(epoch.reset(), EpochTotals { transformed: 7, planned: 3 });
        assert!(!epoch.active);
        assert_eq!(epoch.transformed, 0);
    }

    #[test]
    fn stages_progress_scan_drain_collapse_done() {
        let mut epoch = LazyEpoch::default();
        assert_eq!(epoch.stage(), LazyStage::Inactive);

        epoch.active = true;
        epoch.scan_addr = 1;
        epoch.scan_limit = 100;
        assert_eq!(epoch.stage(), LazyStage::Scan);

        epoch.scan_addr = 100;
        epoch.worklist = vec![GcRef(10)];
        assert_eq!(epoch.stage(), LazyStage::Drain);

        epoch.cursor = 1;
        assert_eq!(epoch.stage(), LazyStage::Collapse, "collapse must begin");

        epoch.collapsing = true;
        epoch.sweep_addr = 1;
        epoch.sweep_limit = 100;
        assert_eq!(epoch.stage(), LazyStage::Collapse, "sweep in progress");

        epoch.sweep_addr = 100;
        assert_eq!(epoch.stage(), LazyStage::Done);
    }
}
