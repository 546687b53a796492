//! The state of an update's copy: the update-GC of paper §3.4, finished
//! inside the pause (eager) or run as Baker's incremental semispace copy
//! behind a read barrier (lazy).
//!
//! Both commits start alike ([`Vm::begin_update_copy`](crate::Vm)): flip
//! the semispaces and evacuate the referents of the roots — thread stacks,
//! statics, host roots — through the collector's copy arms (remap, copy
//! plan, duplicate-and-log; see the heap module's "one copy"). They differ
//! only in whether the scan then runs to the end before the pause ends. An
//! eager commit finishes it, so the pause grows with the live heap, and
//! then runs the transformers, lowest from-space address first. A lazy
//! epoch leaves it to the mutator's time:
//!
//! * **Arm**: an array longer than one step's budget is evacuated
//!   *unfilled*, so the flip copies O(roots) words, whatever the roots
//!   hold; this is the whole commit pause.
//! * **Each copy step** ([`Vm::lazy_copy_step`](crate::Vm)) advances the
//!   Cheney scan pointer by a budget of work, evacuating what the scanned
//!   cells reference; it may stop inside a cell and resume there.
//! * **The read barrier** evacuates a from-space referent when the mutator
//!   *loads* a reference. Stacks and statics were evacuated at the flip and
//!   allocation goes to to-space, so the mutator only ever holds to-space
//!   references: stores need no barrier and reference `==` is plain
//!   identity. Outside a copy the barrier's range test is always false.
//! * **The epoch ends** when the scan meets the allocation cursor and no
//!   logged pair is left to transform. From-space is free then — nothing
//!   forwards anywhere, and the heap holds what an eager commit leaves.
//!
//! A stale object whose class has a copy plan is converted where it is
//! evacuated. Any other stale object is duplicated and logged, and its
//! interpreted transformer runs *before any guest code can see the zeroed
//! new object*: a copy step (or the arm) runs the transformers of the pairs
//! it logged before it returns, in ascending from-space address — eager's
//! order — and a barrier that logs a pair from guest code hands back the
//! transformer to run with the faulting instruction left to retry. Inside a
//! transformer a load is eager's: a referent that needs an interpreted
//! transformer reads as its new object, transformed or not, and
//! `Dsu.forceTransform` runs it on demand.
//!
//! Mutator allocation goes to to-space beside the copy, but never into the
//! room the copy may still need (see the heap module), so a full
//! collection mid-epoch can always finish the copy; it then flips the
//! finished heap like any collection, reclaiming what the mutator
//! allocated and dropped meanwhile. An epoch the controller
//! never steps past arming is a copy that is never stepped: touched
//! objects migrate through the barrier, and every load keeps paying for
//! it. That held-open epoch is the JDrums/DVM indirection baseline
//! (paper §5) the `ablation` bench times.

use crate::heap::{GcOutcome, RemapTable};

/// Maximum nesting of in-progress object transformers before the VM
/// raises [`VmError::TransformerDepthExceeded`](crate::VmError): a typed
/// trap instead of a host stack overflow when a transformer set
/// force-transforms an unboundedly deep chain.
pub const MAX_TRANSFORMER_DEPTH: usize = 128;

/// Where an update's copy stands; the controller dispatches each
/// `LazyMigrating` step on this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LazyStage {
    /// No update's copy is open.
    Inactive,
    /// The copy is running, or a logged pair still waits for its
    /// transformer.
    Copy,
    /// The copy is ready for [`Vm::finish_update_copy`](crate::Vm).
    Done,
}

/// What one [`Vm::lazy_copy_step`](crate::Vm::lazy_copy_step) did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyStep {
    /// Budget units the step's scan charged (see
    /// [`Heap::copy_step`](crate::heap::Heap::copy_step)).
    pub cells: usize,
    /// Words the step evacuated, its transformers' barrier loads included.
    pub words: usize,
    /// Objects the step converted by copy plan.
    pub planned: usize,
    /// Pairs the step duplicated and logged (and then transformed).
    pub logged: usize,
    /// Whether the epoch is now [`LazyStage::Done`].
    pub done: bool,
}

/// What a finished update's copy migrated and copied, from
/// [`Vm::finish_update_copy`](crate::Vm::finish_update_copy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochTotals {
    /// Objects migrated, by plan or by transformer frame.
    pub transformed: usize,
    /// How many of `transformed` a [`CopyPlan`](crate::heap::CopyPlan)
    /// converted.
    pub planned: usize,
    /// Cells the copy evacuated (a duplicated object counts two).
    pub copied_cells: usize,
    /// Words the copy evacuated, headers included.
    pub copied_words: usize,
    /// How many of `copied_words` the scan skipped: cells the copy left
    /// holding no reference.
    pub unscanned_words: usize,
    /// Pairs the copy duplicated and logged.
    pub logged: usize,
}

/// State of one update's copy, eager or lazy. Owned by [`Vm`](crate::Vm);
/// the copy itself lives in the heap. Embedders observe it through
/// [`Vm::lazy_epoch_active`](crate::Vm::lazy_epoch_active),
/// [`Vm::lazy_stage`](crate::Vm::lazy_stage), and the step outcomes.
#[derive(Debug, Default)]
pub struct LazyEpoch {
    /// Whether an update's copy is open.
    pub(crate) active: bool,
    /// Version-pending classes: old `ClassId` → updated `ClassId`, with
    /// the copy plan of every class that has one — the remap policy the
    /// copy evacuates with.
    pub(crate) remap: RemapTable,
    /// Logged pairs whose transformer has not started, as (from-space
    /// address of the original, log index), highest address first: popped
    /// from the back, lowest first.
    pub(crate) queue: Vec<(u32, usize)>,
    /// Transformer frames that returned during this copy.
    pub(crate) transformed: usize,
    /// Pairs logged by this copy.
    pub(crate) logged: usize,
    /// What the copy evacuated, once it ended.
    pub(crate) copied: GcOutcome,
}

impl LazyEpoch {
    /// Clears the epoch back to the inactive state, returning what it
    /// migrated and copied.
    pub(crate) fn reset(&mut self) -> EpochTotals {
        let c = &self.copied;
        let totals = EpochTotals {
            transformed: self.transformed + c.planned,
            planned: c.planned,
            copied_cells: c.copied_cells,
            copied_words: c.copied_words,
            unscanned_words: c.unscanned_words,
            logged: self.logged,
        };
        *self = LazyEpoch::default();
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_reports_and_clears_progress() {
        let copied =
            GcOutcome { copied_cells: 9, copied_words: 40, planned: 3, unscanned_words: 12 };
        let mut epoch =
            LazyEpoch { active: true, transformed: 4, logged: 4, copied, ..LazyEpoch::default() };
        assert_eq!(
            epoch.reset(),
            EpochTotals {
                transformed: 7,
                planned: 3,
                copied_cells: 9,
                copied_words: 40,
                unscanned_words: 12,
                logged: 4
            }
        );
        assert!(!epoch.active);
        assert_eq!(epoch.transformed, 0);
    }
}
