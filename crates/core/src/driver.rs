//! The update driver: the paper's five-step protocol (§3).
//!
//! 1. the UPT produces a specification and default transformers
//!    ([`Update::prepare`]);
//! 2. the user signals the VM ([`apply`]);
//! 3. the driver stops threads at a DSU safe point, installing return
//!    barriers and performing OSR as needed, with a timeout;
//! 4. it installs the modified classes: renames old versions, strips
//!    their methods, loads new class files and the already-compiled
//!    transformer class, swaps method bodies, and invalidates every
//!    affected compiled method (nothing inlines, so there are no inlining
//!    callers to invalidate with them);
//! 5. it runs the update GC, then class transformers, then object
//!    transformers over the update log.
//!
//! Steps 3–5 are implemented by the resumable [`UpdateController`] phase
//! machine, driven by its one loop, [`UpdateController::run`]; [`apply`]
//! is that loop with a pump that never runs the guest.

use std::sync::OnceLock;
use std::time::Duration;

use jvolve_classfile::{verify, ClassFile, ClassSet, MethodRef};
use jvolve_vm::Vm;

use crate::controller::UpdateController;
use crate::diff::prepare_spec;
use crate::error::UpdateError;
use crate::spec::UpdateSpec;
use crate::transform::{compile_transformers, default_transformers_source};

/// A prepared update: specification, payload, transformers.
#[derive(Clone, Debug)]
pub struct Update {
    /// The UPT's diff.
    pub spec: UpdateSpec,
    /// The old program version (used for stubs and restricted sets).
    pub old_classes: ClassSet,
    /// The new program version.
    pub new_classes: ClassSet,
    /// MJ source of the `JvolveTransformers` class: the editable, on-disk
    /// form ([`crate::bundle`]). Private so that it can only change
    /// through [`Update::set_transformers_source`], which drops the class
    /// files compiled from the previous source.
    transformers_source: String,
    /// The class files `transformers_source` compiles to (or why it does
    /// not), filled at most once per source: by the UPT, by a bundle load,
    /// or by the first controller's `Pending` step — never inside the
    /// pause. An `Arc<Update>` shared by fleet shards shares it too.
    compiled_transformers: OnceLock<Result<Vec<ClassFile>, UpdateError>>,
    /// User-restricted methods (paper category 3).
    pub blacklist: Vec<MethodRef>,
}

impl Update {
    /// Runs the update preparation tool over two program versions.
    ///
    /// # Errors
    ///
    /// Returns [`UpdateError::Empty`] when the versions are identical, or
    /// a compile/verify error if the new version is ill-formed.
    pub fn prepare(
        old: &[ClassFile],
        new: &[ClassFile],
        version_prefix: &str,
    ) -> Result<Update, UpdateError> {
        let mut old_set: ClassSet = old.iter().cloned().collect();
        let mut new_set: ClassSet = new.iter().cloned().collect();
        for b in jvolve_lang::builtins::builtin_classes() {
            old_set.insert(b.clone());
            new_set.insert(b);
        }

        // The paper relies on bytecode verification of updated classes.
        verify::verify_all(&new_set, new.iter())
            .map_err(|e| UpdateError::Compile(e.to_string()))?;

        let spec = prepare_spec(&old_set, &new_set, version_prefix);
        if spec.is_empty() {
            return Err(UpdateError::Empty);
        }
        let transformers_source = default_transformers_source(&spec, &old_set, &new_set);
        Ok(Update {
            spec,
            old_classes: old_set,
            new_classes: new_set,
            transformers_source,
            compiled_transformers: OnceLock::new(),
            blacklist: Vec::new(),
        })
    }

    /// Rebuilds an update from previously emitted parts — a spec, the two
    /// payload class lists, and a transformer source (the UPT's on-disk
    /// bundle, see [`crate::bundle`]). The payload is re-verified and the
    /// spec is cross-checked against a fresh diff of the payload, so a
    /// stale or tampered spec is rejected before anything touches a VM.
    /// The transformer source is compiled here, in this process, so the
    /// update arrives at its controller with the class files ready; a
    /// source that does not compile is still accepted and aborts in the
    /// controller's `Pending` step like any other update's would.
    ///
    /// # Errors
    ///
    /// Returns [`UpdateError::Compile`] if the new version fails
    /// verification, [`UpdateError::Empty`] when the versions are
    /// identical, or [`UpdateError::BadSpec`] when `spec` does not match
    /// the payload diff.
    pub fn from_parts(
        spec: UpdateSpec,
        old: &[ClassFile],
        new: &[ClassFile],
        transformers_source: impl Into<String>,
    ) -> Result<Update, UpdateError> {
        let mut update = Update::prepare(old, new, &spec.version_prefix)?;
        if update.spec != spec {
            return Err(UpdateError::BadSpec {
                message: "spec does not match a fresh diff of the payload".into(),
            });
        }
        update.set_transformers_source(transformers_source);
        let _ = update.compiled_transformers();
        Ok(update)
    }

    /// MJ source of the `JvolveTransformers` class. Initialized to the
    /// generated defaults; replace it with
    /// [`Update::set_transformers_source`] to customize (paper Figure 3).
    pub fn transformers_source(&self) -> &str {
        &self.transformers_source
    }

    /// Replaces the transformer source (developer customization) and
    /// forgets the class files compiled from the previous one.
    pub fn set_transformers_source(&mut self, source: impl Into<String>) {
        self.transformers_source = source.into();
        self.compiled_transformers = OnceLock::new();
    }

    /// The `JvolveTransformers` class files, compiled from
    /// [`Update::transformers_source`] in access-override mode on first
    /// use and kept until the source is replaced.
    ///
    /// The payload fields are public for inspection and fault injection;
    /// the cache follows the source only, so code that edits the payload
    /// of an update it already compiled must set the source again.
    ///
    /// # Errors
    ///
    /// [`UpdateError::Compile`] when the source does not compile.
    pub fn compiled_transformers(&self) -> Result<&[ClassFile], UpdateError> {
        self.resolve_transformers().0
    }

    /// [`Update::compiled_transformers`], plus whether *this* call ran the
    /// compiler (exact under sharing: the cell runs one initializer).
    pub(crate) fn resolve_transformers(&self) -> (Result<&[ClassFile], UpdateError>, bool) {
        let mut compiled_now = false;
        let cached = self.compiled_transformers.get_or_init(|| {
            compiled_now = true;
            compile_transformers(
                &self.transformers_source,
                &self.spec,
                &self.old_classes,
                &self.new_classes,
            )
            .map_err(|e| UpdateError::Compile(e.to_string()))
        });
        (cached.as_ref().map(Vec::as_slice).map_err(Clone::clone), compiled_now)
    }

    /// Adds user-restricted methods (paper category 3).
    pub fn blacklist(&mut self, methods: impl IntoIterator<Item = MethodRef>) {
        self.blacklist.extend(methods);
    }
}

/// Knobs for [`apply`].
#[derive(Clone, Debug)]
pub struct ApplyOptions {
    /// Scheduler slices to wait for a DSU safe point before aborting (the
    /// paper uses a 15-second timeout; one slice is our virtual
    /// millisecond-scale unit).
    pub timeout_slices: u64,
    /// Install return barriers on blocking frames (paper §3.2). Disabling
    /// degrades to plain polling — exposed for the ablation benchmark.
    pub use_return_barriers: bool,
    /// Use OSR to lift category-2 restrictions (paper §3.2). Disabling
    /// makes indirect frames block like everything else.
    pub use_osr: bool,
    /// The paper's §3.5 future work (UpStare-style): migrate *changed*
    /// methods while they run, deriving the program-point map by aligning
    /// the old and new bytecode (see [`crate::migrate`]). Off by default —
    /// enabling it asserts, as the paper's user would, that the surviving
    /// locals and operand stack mean the same thing at the mapped point.
    pub migrate_active_methods: bool,
    /// Objects each `LazyMigrating` controller step may duplicate for an
    /// interpreted transformer before its scan stops (lazy mode only;
    /// clamped to at least 1); the step runs their transformers before it
    /// returns. Larger batches finish the epoch in fewer steps; smaller
    /// ones yield back to the embedder more often.
    pub lazy_scavenge_batch: usize,
    /// The work budget of each `LazyMigrating` controller step's slice of
    /// the incremental copy (lazy mode only; clamped to at least 2, what
    /// an array element and its referent's evacuation cost together): one
    /// unit per cell scanned, per array element, and per cell the scan
    /// evacuates. A step may stop inside an array and resume there, and
    /// an array longer than the budget is evacuated unfilled and filled
    /// piecewise, so no step — the arm included — copies more than this
    /// many words of one array. These are Cheney
    /// scan units, not transformer runs, so the budget is much larger
    /// than [`ApplyOptions::lazy_scavenge_batch`].
    pub lazy_step_cells: usize,
    /// Run every object transformer as a compiled method in an interpreter
    /// frame, as the paper does, even when its body is a pure field copy
    /// the controller could lower to a native copy plan
    /// ([`crate::plan`]). Off by default. It exists for the plan ≡
    /// interpreted oracle and for `table1`'s paper-faithful row; nothing
    /// else should need it.
    pub interpret_all_transformers: bool,
}

impl Default for ApplyOptions {
    fn default() -> Self {
        ApplyOptions {
            timeout_slices: 15_000,
            use_return_barriers: true,
            use_osr: true,
            migrate_active_methods: false,
            lazy_scavenge_batch: 128,
            lazy_step_cells: 4096,
            interpret_all_transformers: false,
        }
    }
}

/// Phase timings and counters for one applied update (paper §4.1 reports
/// exactly this breakdown: suspend/check < 1 ms, classloading < 20 ms,
/// pause dominated by GC + transformers).
#[derive(Clone, Debug, Default)]
pub struct UpdateStats {
    /// Slices executed while waiting for a DSU safe point.
    pub slices_waited: u64,
    /// Return barriers installed while waiting.
    pub barriers_installed: usize,
    /// Frames OSR-replaced at the safe point.
    pub osr_replacements: usize,
    /// Changed-method frames migrated to their new version (only with
    /// [`ApplyOptions::migrate_active_methods`]).
    pub active_migrations: usize,
    /// New classes loaded (class updates + added classes + transformers).
    pub classes_loaded: usize,
    /// Method bodies swapped in place.
    pub bodies_swapped: usize,
    /// Compiled methods invalidated (indirect, category 2).
    pub methods_invalidated: usize,
    /// Objects brought to their new class layout by the update: every
    /// live instance of every updated class, however it got there.
    pub objects_transformed: usize,
    /// The subset of [`UpdateStats::objects_transformed`] converted by a
    /// native copy plan ([`crate::plan`]) where the object was copied,
    /// with no old copy, no update-log entry and no transformer frame.
    /// The rest ran their `jvolve_object_X` method in the interpreter.
    pub objects_planned: usize,
    /// Cells the update GC copied (objects duplicated for an interpreted
    /// transformer count twice; planned ones once). In lazy mode, the
    /// epoch's incremental copy: the same count for the same heap.
    pub gc_copied_cells: usize,
    /// Words the update GC copied, headers included (lazy mode: the
    /// incremental copy's).
    pub gc_copied_words: usize,
    /// How many of [`UpdateStats::gc_copied_words`] the update GC's scan
    /// skipped, because the copy left their cells holding no reference.
    pub gc_unscanned_words: usize,
    /// The `Pending` step: spec/payload cross-validation, transformer
    /// resolution (a compile only when the update did not arrive with its
    /// class files, see [`Update::compiled_transformers`]), signature
    /// checks and the restricted-set build. Every thread is still
    /// running, so none of it is pause time.
    pub pending_time: Duration,
    /// Time spent reaching the safe point (thread-suspend analogue).
    pub safepoint_time: Duration,
    /// The whole `Installing` step, all of it with every thread stopped:
    /// the safe-point re-check, renames, strips, loading the new classes
    /// and the precompiled transformer class, body swaps, invalidation,
    /// OSR and copy-plan recognition. No compiler runs in it.
    pub classload_time: Duration,
    /// Eager only: `Vm::begin_update_copy` with the copy finished inside
    /// the pause (flip, roots, the whole scan). Zero in lazy mode, whose
    /// copy starts in [`UpdateStats::arm_time`] and runs on in
    /// [`UpdateStats::lazy_time`].
    pub gc_time: Duration,
    /// Class + object transformer time after the copy's start: eager, all
    /// of them; lazy, the class transformers (object transformers run in
    /// the arm and the copy steps of [`UpdateStats::lazy_time`]).
    pub transform_time: Duration,
    /// Lazy only: the same `Vm::begin_update_copy`, stopped after the
    /// roots' evacuation (arrays longer than a step's budget unfilled) and
    /// their pairs' transformers. This is the entire in-pause heap cost of
    /// a lazy commit and does not grow with the heap (the O(roots) claim
    /// `gates lazy` holds). Zero for eager.
    pub arm_time: Duration,
    /// Time spent in the `LazyMigrating` phase: copy steps and epoch
    /// teardown. Zero for eager updates. Unlike the other buckets this is
    /// *not* pause time — the guest runs concurrently with the epoch.
    pub lazy_time: Duration,
    /// Portion of [`UpdateStats::lazy_time`] spent in copy steps, their
    /// transformers included (informational sub-bucket; not added
    /// separately by [`UpdateStats::phase_sum`]).
    pub lazy_scan_time: Duration,
    /// Always zero: the epoch no longer has a forwarding-collapse pass.
    /// Kept because `benchmark/src/layers.rs`, frozen outside benchmark
    /// PRs, reads it (so the benchmark's `update.lazy_collapse_ms` is 0 and
    /// the copy books under `update.lazy_scan_ms`).
    pub lazy_collapse_time: Duration,
    /// End-to-end wall-clock controller time, first step to commit,
    /// measured independently of the phases. Slightly larger than
    /// [`UpdateStats::phase_sum`]: it also covers inter-phase bookkeeping
    /// (event emission, transformer-class retirement). The harnesses read
    /// it as the pause; the part of it spent with threads running is
    /// [`UpdateStats::pending_time`] plus the safe-point wait.
    pub total_time: Duration,
}

impl UpdateStats {
    /// Sum of the timed phases (pending + safepoint + classload + GC +
    /// transform, plus the lazy flip and the lazy epoch when one ran).
    /// The paper's Figure 6 stacks safepoint through transform; the gap to
    /// [`UpdateStats::total_time`] is untimed bookkeeping.
    /// [`UpdateStats::lazy_scan_time`] is a sub-bucket of
    /// [`UpdateStats::lazy_time`] and is deliberately not added again.
    pub fn phase_sum(&self) -> Duration {
        self.pending_time
            + self.safepoint_time
            + self.classload_time
            + self.gc_time
            + self.transform_time
            + self.arm_time
            + self.lazy_time
    }
}

/// Applies a prepared update to a running VM (paper steps 3–5).
///
/// On success the VM is running the new program version: new code is
/// installed, every existing object conforms to its new class definition,
/// and invalidated methods recompile (and re-optimize) on demand.
///
/// This is [`UpdateController::run`] with a pump that does nothing. Use
/// the controller directly to keep serving requests between safe-point
/// polls, attach event sinks, or inspect the phase the update is in.
///
/// # Errors
///
/// * [`UpdateError::Timeout`] — no DSU safe point was reached; the VM is
///   left running the old version, unchanged (barriers cleared).
/// * [`UpdateError::BadSpec`] / [`UpdateError::Compile`] /
///   [`UpdateError::BadTransformer`] — the spec, payload or transformer
///   source is unusable; rejected before any thread was stopped, the VM
///   was never touched.
/// * [`UpdateError::BadSpec`] / [`UpdateError::Vm`] during installation —
///   the controller rolled the VM back to the old version.
/// * [`UpdateError::Vm`] during heap transformation — the caller should
///   treat the VM as poisoned (no rollback is possible once object
///   transformers have started).
pub fn apply(vm: &mut Vm, update: &Update, opts: &ApplyOptions) -> Result<UpdateStats, UpdateError> {
    UpdateController::new(update, opts.clone()).run(vm, |_, _| {})
}
