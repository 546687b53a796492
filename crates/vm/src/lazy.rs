//! Lazy-migration epoch state: the update-GC run as Baker's incremental
//! semispace copy behind a read barrier.
//!
//! The eager update protocol (paper §3.4) commits with a stop-the-world
//! copying GC that converts every instance of a changed class, so the
//! pause grows with the live heap. A lazy epoch runs *the same copy*
//! incrementally, through the collector's own copy arms (remap, copy plan,
//! duplicate-and-log; see the heap module's "incremental copy"):
//!
//! * **Arm** ([`Vm::begin_lazy_migration`](crate::Vm)) flips the
//!   semispaces and evacuates the referents of the roots — thread stacks,
//!   statics, host roots. An array longer than one step's budget is
//!   evacuated *unfilled*, so the arm copies O(roots) words, whatever the
//!   roots hold; this is the whole commit pause.
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
//! it logged before it returns, in ascending from-space address — the order
//! [`Heap::collect`](crate::heap::Heap::collect) gives the eager log — and
//! a barrier that logs a pair from guest code hands back the transformer
//! to run with the faulting instruction left to retry. Inside a
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

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::heap::{GcOutcome, RemapTable};

/// Maximum nesting of in-progress object transformers before the VM
/// raises [`VmError::TransformerDepthExceeded`](crate::VmError): a typed
/// trap instead of a host stack overflow when a transformer set
/// force-transforms an unboundedly deep chain.
pub const MAX_TRANSFORMER_DEPTH: usize = 128;

/// Where a lazy epoch stands; the controller dispatches each
/// `LazyMigrating` step on this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LazyStage {
    /// No epoch is active.
    Inactive,
    /// The incremental copy is running, or a logged pair still waits for
    /// its transformer.
    Copy,
    /// The epoch is ready for [`Vm::finish_lazy_migration`](crate::Vm).
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

/// What a finished epoch migrated and copied, from
/// [`Vm::finish_lazy_migration`](crate::Vm::finish_lazy_migration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochTotals {
    /// Objects migrated, by plan or by transformer frame.
    pub transformed: usize,
    /// How many of `transformed` a [`CopyPlan`](crate::heap::CopyPlan)
    /// converted.
    pub planned: usize,
    /// Cells the incremental copy evacuated (a duplicated object counts
    /// two), as an eager update-GC would count them.
    pub copied_cells: usize,
    /// Words the incremental copy evacuated, headers included.
    pub copied_words: usize,
    /// Pairs the epoch duplicated and logged.
    pub logged: usize,
}

/// State of one lazy-migration epoch. Owned by [`Vm`](crate::Vm); the
/// copy itself lives in the heap. Embedders observe the epoch through
/// [`Vm::lazy_epoch_active`](crate::Vm::lazy_epoch_active),
/// [`Vm::lazy_stage`](crate::Vm::lazy_stage), and the step outcomes.
#[derive(Debug, Default)]
pub struct LazyEpoch {
    /// Whether an epoch is in progress.
    pub(crate) active: bool,
    /// Version-pending classes: old `ClassId` → updated `ClassId`, with
    /// the copy plan of every class that has one — the remap policy the
    /// incremental copy evacuates with.
    pub(crate) remap: RemapTable,
    /// Logged pairs whose transformer has not started, keyed by the
    /// from-space address of the original: popped lowest first.
    pub(crate) queue: BinaryHeap<Reverse<(u32, usize)>>,
    /// Transformer frames that returned this epoch.
    pub(crate) transformed: usize,
    /// Pairs logged this epoch.
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
            GcOutcome { copied_cells: 9, copied_words: 40, planned: 3, ..GcOutcome::default() };
        let mut epoch =
            LazyEpoch { active: true, transformed: 4, logged: 4, copied, ..LazyEpoch::default() };
        assert_eq!(
            epoch.reset(),
            EpochTotals { transformed: 7, planned: 3, copied_cells: 9, copied_words: 40, logged: 4 }
        );
        assert!(!epoch.active);
        assert_eq!(epoch.transformed, 0);
    }
}
