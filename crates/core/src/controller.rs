//! The resumable update controller: the paper's §3 protocol as an
//! explicit phase machine.
//!
//! [`crate::driver::apply`] used to be one straight-line function that
//! spun the VM synchronously until a safe point and treated any install
//! failure as "the VM is poisoned". The controller decomposes it into
//! states —
//!
//! ```text
//! Pending → WaitingForSafePoint → Installing → TransformingHeap
//!                 │      │              │              │
//!                 │      └── timeout ───┤              └──→ Committed
//!                 └──── (re-check) ─────┴──→ Aborted (rolled back)
//! ```
//!
//! — advanced one phase at a time by [`UpdateController::step`], so the
//! safe-point wait is *interleaved* with VM scheduling: the embedder (the
//! apps harness, a server loop) keeps draining requests between polls
//! instead of the driver freezing the world from the outside. A timeout
//! or an install failure runs a real **rollback** — un-rename old
//! classes, restore stripped methods, restore swapped bodies and OSR'd
//! frames, clear barriers, drop the half-loaded batch — leaving the VM
//! verifiably on the old version.
//!
//! Every transition emits a typed [`UpdateEvent`] through pluggable
//! [`UpdateEventSink`]s. The built-in default sink folds events into
//! [`UpdateStats`], so `table1`/`fig6`/`summary` are unchanged; a
//! [`JsonTraceSink`] serializes the trace (see `results/update_trace.json`).
//!
//! # Pause contract
//!
//! Guest slices may run between `step` calls **only while the controller
//! is waiting for a safe point or draining a lazy epoch** (the controller
//! re-checks stacks when entering `Installing` and falls back to waiting
//! if the safe point was lost). From `Installing` through `Committed` the
//! embedder must not run the VM: install + heap transformation are a
//! single pause, exactly the paper's stop-the-world step 4–5.
//! [`UpdateController::run`] is the loop that keeps this contract: it
//! calls the embedder's pump only in those two phases.
//!
//! What runs inside that pause is linking, not preparation. The `Pending`
//! step does everything that needs no stopped thread: it cross-validates
//! spec and payload, resolves the compiled `JvolveTransformers` class
//! ([`Update::compiled_transformers`] — already there when the update came
//! from the UPT or a bundle, compiled on the spot otherwise), checks the
//! transformer signatures, and verifies the new classes and the
//! transformer class against [`Registry::install_view`]: the registry as
//! the install's renames and strips will leave it. A broken transformer
//! source or a batch the live registry rejects therefore aborts with an
//! empty ledger and no slice waited. `Installing` only renames, strips,
//! links the verified batches ([`Registry::load_verified`]), swaps
//! bodies, invalidates, OSRs and recognises copy plans;
//! [`ControllerCounters::pause_compiles`] counts compiler runs in it and
//! must read 0, and [`ControllerCounters::pause_verifications`] counts
//! batches verified again because the registry's generation moved during
//! the wait. The ledger takes what each mutation removes by move. An
//! update with no class update loads no transformer class and runs no
//! copy, in either mode.
//!
//! Both commit modes run one routine in `TransformingHeap` — the update's
//! copy, then class and object transformers — that branches only on
//! whether the copy finishes before the pause ends. An eager commit
//! finishes it there. With [`jvolve_vm::VmConfig::lazy_migration`] the
//! phase only flips the semispaces and evacuates the roots' referents
//! (O(roots) words); in `LazyMigrating` the guest runs freely — the read
//! barrier evacuates what it loads — while each `step` call advances the
//! copy by one budget, and the finished copy is closed as eager's is.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use jvolve_classfile::{ClassFile, ClassName, MethodRef};
use jvolve_json::Json;
use jvolve_vm::compiled::CompiledMethod;
use jvolve_vm::registry::Registry;
use jvolve_vm::{
    ClassId, ClassMethodsSnapshot, LazyStage, MethodId, MethodState, ObjectTransformer,
    RegistryMark, ThreadId, VerifiedBatch, Vm,
};

use crate::driver::{ApplyOptions, Update, UpdateStats};
use crate::error::UpdateError;
use crate::migrate::method_pc_map;
use crate::restricted::{
    barrier_targets_into, check_stacks_into, Category, RestrictedSet, StackCheck,
};
use crate::transform::{class_transformer_name, object_transformer_name, TRANSFORMERS_CLASS};

/// The controller's phases (the paper's §3 steps 3–5 plus terminals).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UpdatePhase {
    /// Constructed; nothing touched the VM yet.
    Pending,
    /// Polling thread stacks for a DSU safe point (paper step 3). One of
    /// the two phases (with [`UpdatePhase::LazyMigrating`]) during which
    /// the embedder may run guest slices between `step` calls.
    WaitingForSafePoint,
    /// Installing modified classes: renames, strips, loads (the
    /// precompiled transformer class included), body swaps, invalidation,
    /// OSR (paper step 4).
    Installing,
    /// The update's copy + class/object transformers (paper step 5). In
    /// lazy mode ([`jvolve_vm::VmConfig::lazy_migration`]) the copy stops
    /// after the flip and the roots' evacuation; the rest of it is deferred
    /// to [`UpdatePhase::LazyMigrating`].
    TransformingHeap,
    /// A lazy-migration epoch is copying: the read barrier evacuates what
    /// the guest loads, and each `step` call advances the incremental copy
    /// by one budget. Like the safe-point wait, the embedder may run guest
    /// slices between `step` calls in this phase.
    LazyMigrating,
    /// The VM runs the new version.
    Committed,
    /// The update failed; if it failed before the heap transformation,
    /// the rollback left the VM on the old version.
    Aborted,
}

impl fmt::Display for UpdatePhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            UpdatePhase::Pending => "pending",
            UpdatePhase::WaitingForSafePoint => "waiting-for-safe-point",
            UpdatePhase::Installing => "installing",
            UpdatePhase::TransformingHeap => "transforming-heap",
            UpdatePhase::LazyMigrating => "lazy-migrating",
            UpdatePhase::Committed => "committed",
            UpdatePhase::Aborted => "aborted",
        })
    }
}

/// One typed event from the controller's structured event stream.
#[derive(Clone, Debug)]
pub enum UpdateEvent {
    /// A phase began (scheduler tick included for correlation).
    PhaseEntered {
        /// The phase.
        phase: UpdatePhase,
        /// VM scheduler tick at entry.
        tick: u64,
    },
    /// A phase ended; `elapsed` is controller time spent inside it.
    PhaseExited {
        /// The phase.
        phase: UpdatePhase,
        /// Accumulated in-phase time.
        elapsed: Duration,
    },
    /// One safe-point poll found blocking frames. Only constructed when a
    /// sink opts in via [`UpdateEventSink::wants_polls`] — the default
    /// polling path allocates nothing per iteration.
    SafePointPoll {
        /// Slices waited so far.
        slices_waited: u64,
        /// Methods still blocking, one entry per distinct method.
        blocking: Vec<String>,
        /// Indirect frames OSR could replace.
        osr_candidates: usize,
        /// Return barriers installed so far.
        barriers: usize,
    },
    /// A DSU safe point was reached.
    SafePointReached {
        /// Slices waited.
        slices_waited: u64,
        /// Return barriers installed while waiting.
        barriers_installed: usize,
        /// OSR replacements planned for the install phase.
        osr_candidates: usize,
        /// Active-method migrations planned (§3.5 mode).
        planned_migrations: usize,
    },
    /// An old class version was renamed out of the way.
    ClassRenamed {
        /// Its pre-update name.
        class: ClassName,
        /// Its versioned name (e.g. `v131_User`).
        renamed_to: ClassName,
    },
    /// A batch of class files was loaded.
    ClassesLoaded {
        /// Classes in the batch.
        count: usize,
        /// Whether this was the generated transformers class.
        transformers: bool,
    },
    /// Method bodies were swapped in place for one class.
    MethodBodiesSwapped {
        /// The class.
        class: ClassName,
        /// Bodies swapped.
        count: usize,
    },
    /// Compiled methods were invalidated.
    MethodsInvalidated {
        /// Indirect (category-2) methods invalidated.
        direct: usize,
    },
    /// On-stack frames were moved to fresh code.
    OsrApplied {
        /// Frames OSR-replaced in place.
        replaced: usize,
        /// Frames migrated to a changed method version (§3.5 mode).
        migrated: usize,
    },
    /// The update's copy finished (in lazy mode: reported when the epoch
    /// ends).
    GcCompleted {
        /// Cells copied (objects duplicated for an interpreted transformer
        /// count twice, planned ones once).
        copied_cells: usize,
        /// Words copied, headers included.
        copied_words: usize,
        /// How many of `copied_words` the scan skipped: cells the copy
        /// left holding no reference.
        unscanned_words: usize,
        /// (old, new) pairs in the update log.
        objects_logged: usize,
    },
    /// Every live instance of every updated class has its new layout.
    TransformersRun {
        /// Objects transformed, by plan or by transformer frame.
        objects_transformed: usize,
        /// How many of them a native copy plan converted.
        objects_planned: usize,
    },
    /// A lazy-migration epoch began: the semispaces flipped and the roots'
    /// referents were evacuated (lazy mode only).
    LazyEpochBegun {
        /// Words in use in from-space: what the incremental copy
        /// evacuates from.
        from_words: usize,
        /// The arm pause: `Vm::begin_update_copy` wall time, the
        /// entire in-pause heap cost of the lazy commit.
        arm: Duration,
    },
    /// One step of the epoch's incremental copy ran (lazy mode only).
    LazyCopyStep {
        /// Budget units its scan charged: cells scanned or evacuated, a
        /// reference array's elements one each.
        cells: usize,
        /// Words it evacuated, its transformers' loads included.
        words: usize,
        /// Objects it converted by copy plan.
        planned: usize,
        /// Pairs it duplicated and logged; their transformers ran in it.
        logged: usize,
        /// Whether the epoch is done.
        done: bool,
    },
    /// The rollback ledger was replayed; the VM is on the old version.
    RolledBack {
        /// Why the update aborted.
        reason: String,
        /// Ledger entries undone.
        actions_undone: usize,
    },
    /// The update committed.
    Committed {
        /// Total controller time.
        wall: Duration,
    },
    /// The update aborted.
    Aborted {
        /// Why.
        reason: String,
        /// Whether a rollback restored the old version (`false` only for
        /// failures during heap transformation, where the paper too
        /// considers the VM lost).
        rolled_back: bool,
    },
}

/// A pluggable consumer of [`UpdateEvent`]s.
///
/// Sinks are `Send` so a controller (and the sinks wired into it) can be
/// owned by a shard's OS thread and forward events across a channel to a
/// fleet coordinator.
pub trait UpdateEventSink: Send {
    /// Receives one event.
    fn event(&mut self, event: &UpdateEvent);

    /// Opt-in to per-poll [`UpdateEvent::SafePointPoll`] events. The
    /// default is `false` so the safe-point polling hot path constructs
    /// no event payloads.
    fn wants_polls(&self) -> bool {
        false
    }
}

/// An in-memory sink: records every event (tests, benches).
#[derive(Default)]
pub struct MemorySink {
    /// The recorded stream, in emission order.
    pub events: Vec<UpdateEvent>,
    /// Whether to request per-poll events.
    pub record_polls: bool,
}

impl UpdateEventSink for MemorySink {
    fn event(&mut self, event: &UpdateEvent) {
        self.events.push(event.clone());
    }
    fn wants_polls(&self) -> bool {
        self.record_polls
    }
}

/// The trace document schema emitted by [`JsonTraceSink::to_json`].
/// `v2` wrapped the bare event array of `v1` in an object carrying the
/// migration `mode` ("eager" or "lazy"), so trace consumers can
/// distinguish the two commit protocols. `v3` adds a `shard_id` envelope
/// field identifying which fleet shard produced the trace; single-VM
/// runs emit `shard_id: 0`. `v4` drops `methods_invalidated`'s count of
/// invalidated inlining callers, with the opt tier that inlined. `v5`
/// added `lazy_scan_step`'s `planned`. `v6` replaces the scan, scavenge
/// and collapse steps with one `lazy_copy_step` (the epoch is an
/// incremental copy), renames `lazy_epoch_begun`'s `watermark_words` to
/// `from_words`, and ends a lazy epoch with the `gc_completed` of its copy.
/// `v7` adds `gc_completed`'s `unscanned_words`.
pub const TRACE_SCHEMA: &str = "jvolve-update-trace-v7";

/// A sink that serializes the event stream to JSON (via `jvolve-json`),
/// for `results/update_trace.json`. Consecutive safe-point polls with an
/// unchanged blocking set are collapsed so timeouts don't produce
/// multi-thousand-entry traces.
#[derive(Default)]
pub struct JsonTraceSink {
    events: Vec<Json>,
    last_blocking: Option<Vec<String>>,
    saw_lazy: bool,
    shard_id: u64,
}

impl JsonTraceSink {
    /// Creates an empty trace sink for a single-VM run (`shard_id: 0`).
    pub fn new() -> Self {
        JsonTraceSink::default()
    }

    /// Creates an empty trace sink stamped with a fleet shard id.
    pub fn with_shard(shard_id: u64) -> Self {
        JsonTraceSink { shard_id, ..JsonTraceSink::default() }
    }

    /// The trace document: schema tag, shard id, migration mode, event
    /// array.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::from(TRACE_SCHEMA)),
            ("shard_id", Json::from(self.shard_id)),
            ("mode", Json::from(if self.saw_lazy { "lazy" } else { "eager" })),
            ("events", Json::Arr(self.events.clone())),
        ])
    }

    /// Writes the pretty-printed trace to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().pretty())
    }
}

fn duration_ms(d: Duration) -> Json {
    Json::from(d.as_secs_f64() * 1e3)
}

fn event_to_json(event: &UpdateEvent) -> Json {
    match event {
        UpdateEvent::PhaseEntered { phase, tick } => Json::obj([
            ("event", Json::from("phase_entered")),
            ("phase", Json::from(phase.to_string())),
            ("tick", Json::from(*tick)),
        ]),
        UpdateEvent::PhaseExited { phase, elapsed } => Json::obj([
            ("event", Json::from("phase_exited")),
            ("phase", Json::from(phase.to_string())),
            ("elapsed_ms", duration_ms(*elapsed)),
        ]),
        UpdateEvent::SafePointPoll { slices_waited, blocking, osr_candidates, barriers } => {
            Json::obj([
                ("event", Json::from("safe_point_poll")),
                ("slices_waited", Json::from(*slices_waited)),
                (
                    "blocking",
                    Json::Arr(blocking.iter().map(|b| Json::from(b.as_str())).collect()),
                ),
                ("osr_candidates", Json::from(*osr_candidates)),
                ("barriers", Json::from(*barriers)),
            ])
        }
        UpdateEvent::SafePointReached {
            slices_waited,
            barriers_installed,
            osr_candidates,
            planned_migrations,
        } => Json::obj([
            ("event", Json::from("safe_point_reached")),
            ("slices_waited", Json::from(*slices_waited)),
            ("barriers_installed", Json::from(*barriers_installed)),
            ("osr_candidates", Json::from(*osr_candidates)),
            ("planned_migrations", Json::from(*planned_migrations)),
        ]),
        UpdateEvent::ClassRenamed { class, renamed_to } => Json::obj([
            ("event", Json::from("class_renamed")),
            ("class", Json::from(class.as_str())),
            ("renamed_to", Json::from(renamed_to.as_str())),
        ]),
        UpdateEvent::ClassesLoaded { count, transformers } => Json::obj([
            ("event", Json::from("classes_loaded")),
            ("count", Json::from(*count)),
            ("transformers", Json::from(*transformers)),
        ]),
        UpdateEvent::MethodBodiesSwapped { class, count } => Json::obj([
            ("event", Json::from("method_bodies_swapped")),
            ("class", Json::from(class.as_str())),
            ("count", Json::from(*count)),
        ]),
        UpdateEvent::MethodsInvalidated { direct } => Json::obj([
            ("event", Json::from("methods_invalidated")),
            ("direct", Json::from(*direct)),
        ]),
        UpdateEvent::OsrApplied { replaced, migrated } => Json::obj([
            ("event", Json::from("osr_applied")),
            ("replaced", Json::from(*replaced)),
            ("migrated", Json::from(*migrated)),
        ]),
        UpdateEvent::GcCompleted {
            copied_cells,
            copied_words,
            unscanned_words,
            objects_logged,
        } => Json::obj([
            ("event", Json::from("gc_completed")),
            ("copied_cells", Json::from(*copied_cells)),
            ("copied_words", Json::from(*copied_words)),
            ("unscanned_words", Json::from(*unscanned_words)),
            ("objects_logged", Json::from(*objects_logged)),
        ]),
        UpdateEvent::TransformersRun { objects_transformed, objects_planned } => Json::obj([
            ("event", Json::from("transformers_run")),
            ("objects_transformed", Json::from(*objects_transformed)),
            ("objects_planned", Json::from(*objects_planned)),
        ]),
        UpdateEvent::LazyEpochBegun { from_words, arm } => Json::obj([
            ("event", Json::from("lazy_epoch_begun")),
            ("from_words", Json::from(*from_words)),
            ("arm_ms", duration_ms(*arm)),
        ]),
        UpdateEvent::LazyCopyStep { cells, words, planned, logged, done } => Json::obj([
            ("event", Json::from("lazy_copy_step")),
            ("cells", Json::from(*cells)),
            ("words", Json::from(*words)),
            ("planned", Json::from(*planned)),
            ("logged", Json::from(*logged)),
            ("done", Json::from(*done)),
        ]),
        UpdateEvent::RolledBack { reason, actions_undone } => Json::obj([
            ("event", Json::from("rolled_back")),
            ("reason", Json::from(reason.as_str())),
            ("actions_undone", Json::from(*actions_undone)),
        ]),
        UpdateEvent::Committed { wall } => Json::obj([
            ("event", Json::from("committed")),
            ("wall_ms", duration_ms(*wall)),
        ]),
        UpdateEvent::Aborted { reason, rolled_back } => Json::obj([
            ("event", Json::from("aborted")),
            ("reason", Json::from(reason.as_str())),
            ("rolled_back", Json::from(*rolled_back)),
        ]),
    }
}

impl UpdateEventSink for JsonTraceSink {
    fn event(&mut self, event: &UpdateEvent) {
        if let UpdateEvent::SafePointPoll { blocking, .. } = event {
            if self.last_blocking.as_ref() == Some(blocking) {
                return;
            }
            self.last_blocking = Some(blocking.clone());
        }
        if matches!(event, UpdateEvent::LazyEpochBegun { .. }) {
            self.saw_lazy = true;
        }
        self.events.push(event_to_json(event));
    }
    fn wants_polls(&self) -> bool {
        true
    }
}

/// What one [`UpdateController::step`] call produced.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepProgress {
    /// More steps needed; the payload is the phase now current.
    Pending(UpdatePhase),
    /// The update committed.
    Committed,
    /// The update aborted; see [`UpdateController::error`].
    Aborted,
}

/// Instrumentation counters (consumed by the safepoint bench's
/// no-per-poll-construction regression check).
#[derive(Clone, Copy, Debug, Default)]
pub struct ControllerCounters {
    /// Safe-point polls performed.
    pub polls: u64,
    /// Times the restricted set was built. Must stay 1 no matter how many
    /// polls run: the set is hoisted into the waiting state.
    pub restricted_builds: u64,
    /// Times this controller compiled the transformer source: 0 when the
    /// update arrived with its class files (UPT, bundle load, or another
    /// controller over the same `Update` got there first), 1 when a
    /// hand-set source had to be compiled in `Pending`.
    pub transformer_compiles: u64,
    /// The subset of [`ControllerCounters::transformer_compiles`] that ran
    /// after `Pending`, i.e. with every thread stopped. Must stay 0.
    pub pause_compiles: u64,
    /// Batches verified again inside the pause because the registry
    /// changed between `Pending`, which verified them, and `Installing`
    /// (another update committed in between, say). 0 otherwise.
    pub pause_verifications: u64,
}

/// A planned active-method migration (paper §3.5 future work).
#[derive(Debug, Clone)]
struct PlannedMigration {
    thread: ThreadId,
    frame: usize,
    method: MethodRef,
    new_pc: u32,
}

/// One reversible mutation recorded during installation. Undo replays the
/// ledger in reverse: frames first, then body swaps and invalidations,
/// then the batch truncation, then method restores, then renames. Each
/// entry holds what its mutation removed, moved out of the registry.
enum UndoAction {
    /// Rename the class back to `name`.
    Rename { id: ClassId, name: ClassName },
    /// Restore a stripped class's method tables.
    RestoreClassMethods { id: ClassId, snap: ClassMethodsSnapshot },
    /// Drop everything loaded after `mark`.
    Truncate { mark: RegistryMark },
    /// Restore one method's definition/code/counters.
    RestoreMethod(MethodState),
    /// Restore an OSR'd/migrated frame to its old code.
    RestoreFrame {
        thread: ThreadId,
        frame: usize,
        method: MethodId,
        compiled: Arc<CompiledMethod>,
        pc: u32,
        locals_len: usize,
    },
}

/// Scratch owned by the waiting phase: the restricted set is computed
/// once on entry, and the check/target buffers are reused every poll.
/// `migrations` holds the plans from the poll that found the safe point.
struct WaitState<'u> {
    restricted: RestrictedSet,
    check: StackCheck,
    targets: Vec<(ThreadId, usize)>,
    migrations: Vec<PlannedMigration>,
    batches: Batches<'u>,
}

/// The install's two loads, verified in `Pending` against the registry as
/// the install's renames and strips will leave it.
struct Batches<'u> {
    /// The new versions of class-updated classes plus the added classes.
    classes: VerifiedBatch<'u>,
    /// The transformer class; `None` when no class is class-updated, so
    /// that no object or class transformer can run.
    transformers: Option<VerifiedBatch<'u>>,
}

/// Inputs carried from a completed install into the heap transformation.
struct TransformInputs {
    remap: HashMap<ClassId, ClassId>,
    /// Per *new* class: its copy plan, or the method to interpret.
    transformers: HashMap<ClassId, ObjectTransformer>,
}

enum State<'u> {
    Pending,
    Waiting(WaitState<'u>),
    Installing(WaitState<'u>),
    Transforming(TransformInputs),
    /// A lazy epoch is copying; each step advances the copy by a budget.
    LazyMigrating,
    Committed,
    Aborted(UpdateError),
}

enum PollVerdict {
    /// Safe; the (possibly migration-filtered) check is left in the wait
    /// state's scratch buffer.
    Safe { migrations: Vec<PlannedMigration> },
    /// The timeout elapsed; `blocking` is the deduplicated offender list.
    TimedOut { blocking: Vec<String> },
    /// Still blocked; barriers were installed and one slice ran.
    NotYet,
}

/// The resumable update controller. See the module docs for the phase
/// diagram and the pause contract.
pub struct UpdateController<'u> {
    update: &'u Update,
    opts: ApplyOptions,
    state: State<'u>,
    stats: UpdateStats,
    counters: ControllerCounters,
    ledger: Vec<UndoAction>,
    sinks: Vec<&'u mut dyn UpdateEventSink>,
    phase_elapsed: Duration,
}

impl<'u> UpdateController<'u> {
    /// Creates a controller for `update`. Nothing touches the VM until
    /// the first [`UpdateController::step`].
    pub fn new(update: &'u Update, opts: ApplyOptions) -> Self {
        UpdateController {
            update,
            opts,
            state: State::Pending,
            stats: UpdateStats::default(),
            counters: ControllerCounters::default(),
            ledger: Vec::new(),
            sinks: Vec::new(),
            phase_elapsed: Duration::ZERO,
        }
    }

    /// Attaches an event sink; every subsequent event is fanned out to it.
    pub fn attach_sink(&mut self, sink: &'u mut dyn UpdateEventSink) {
        self.sinks.push(sink);
    }

    /// The current phase.
    pub fn phase(&self) -> UpdatePhase {
        match self.state {
            State::Pending => UpdatePhase::Pending,
            State::Waiting(_) => UpdatePhase::WaitingForSafePoint,
            State::Installing(_) => UpdatePhase::Installing,
            State::Transforming(_) => UpdatePhase::TransformingHeap,
            State::LazyMigrating => UpdatePhase::LazyMigrating,
            State::Committed => UpdatePhase::Committed,
            State::Aborted(_) => UpdatePhase::Aborted,
        }
    }

    /// Phase timings and counters accumulated so far (the default sink's
    /// output; complete once [`StepProgress::Committed`] is returned).
    pub fn stats(&self) -> &UpdateStats {
        &self.stats
    }

    /// Why the update aborted, once it has.
    pub fn error(&self) -> Option<&UpdateError> {
        match &self.state {
            State::Aborted(e) => Some(e),
            _ => None,
        }
    }

    /// Instrumentation counters.
    pub fn counters(&self) -> ControllerCounters {
        self.counters
    }

    /// Advances the protocol by one phase step. During
    /// [`UpdatePhase::WaitingForSafePoint`] one call performs one
    /// stack-check poll (running one scheduler slice when blocked), so the
    /// embedder can interleave its own work — serving requests, timers —
    /// between calls. See the module docs for the pause contract from
    /// `Installing` onward.
    pub fn step(&mut self, vm: &mut Vm) -> StepProgress {
        let t = Instant::now();
        let state = std::mem::replace(&mut self.state, State::Pending);
        match state {
            State::Pending => {
                // Cross-validate the (untrusted) spec against its payload
                // before anything touches the VM: abort here costs nothing
                // to roll back (the ledger is empty).
                if let Err(e) = crate::validate::validate_update(self.update) {
                    return self.abort(vm, e, t);
                }
                // Resolve the transformer class files and pin their
                // calling conventions here too: the heap transformation
                // invokes jvolve_object_X(to, from) / jvolve_class_X()
                // blindly, and a source that is broken or retyped should
                // cost neither a safe point nor a rollback.
                let checked = self.transformers(false).and_then(|classes| {
                    crate::validate::check_transformer_signatures(&self.update.spec, classes)
                });
                if let Err(e) = checked {
                    return self.abort(vm, e, t);
                }
                // The restricted set and the indirect closure below come
                // from the shipped old version, so it must be the running
                // one.
                if let Err(e) = crate::validate::check_base(self.update, vm.registry()) {
                    return self.abort(vm, e, t);
                }
                // Verify what the install will load, against the registry
                // as its renames and strips will leave it, so the pause
                // only links.
                let batches = match self.verify_batches(vm.registry()) {
                    Ok(batches) => batches,
                    Err(e) => return self.abort(vm, e, t),
                };
                let restricted = RestrictedSet::compute(
                    &self.update.spec,
                    &self.update.old_classes,
                    &self.update.blacklist,
                );
                self.counters.restricted_builds += 1;
                let ws = WaitState {
                    restricted,
                    check: StackCheck::default(),
                    targets: Vec::new(),
                    migrations: Vec::new(),
                    batches,
                };
                self.emit(UpdateEvent::PhaseEntered {
                    phase: UpdatePhase::WaitingForSafePoint,
                    tick: vm.tick(),
                });
                self.state = State::Waiting(ws);
                let elapsed = t.elapsed();
                self.stats.pending_time += elapsed;
                self.stats.total_time += elapsed;
                StepProgress::Pending(UpdatePhase::WaitingForSafePoint)
            }
            State::Waiting(mut ws) => match self.poll(vm, &mut ws) {
                PollVerdict::Safe { migrations } => {
                    vm.clear_return_barriers();
                    self.emit(UpdateEvent::SafePointReached {
                        slices_waited: self.stats.slices_waited,
                        barriers_installed: self.stats.barriers_installed,
                        osr_candidates: ws.check.osr_candidates.len(),
                        planned_migrations: migrations.len(),
                    });
                    self.exit_phase(UpdatePhase::WaitingForSafePoint, t);
                    self.emit(UpdateEvent::PhaseEntered {
                        phase: UpdatePhase::Installing,
                        tick: vm.tick(),
                    });
                    ws.migrations = migrations;
                    self.state = State::Installing(ws);
                    self.account_safepoint(t, false);
                    StepProgress::Pending(UpdatePhase::Installing)
                }
                PollVerdict::TimedOut { blocking } => {
                    let err = UpdateError::Timeout {
                        blocking,
                        slices_waited: self.stats.slices_waited,
                    };
                    self.abort(vm, err, t)
                }
                PollVerdict::NotYet => {
                    self.state = State::Waiting(ws);
                    self.account_safepoint(t, true);
                    StepProgress::Pending(UpdatePhase::WaitingForSafePoint)
                }
            },
            State::Installing(mut ws) => match self.poll(vm, &mut ws) {
                PollVerdict::Safe { migrations } => {
                    vm.clear_return_barriers();
                    ws.migrations = migrations;
                    match self.install(vm, ws) {
                        Ok(inputs) => {
                            self.exit_phase(UpdatePhase::Installing, t);
                            self.emit(UpdateEvent::PhaseEntered {
                                phase: UpdatePhase::TransformingHeap,
                                tick: vm.tick(),
                            });
                            self.state = State::Transforming(inputs);
                            let elapsed = t.elapsed();
                            self.stats.classload_time += elapsed;
                            self.stats.total_time += elapsed;
                            StepProgress::Pending(UpdatePhase::TransformingHeap)
                        }
                        Err(e) => self.abort(vm, e, t),
                    }
                }
                PollVerdict::TimedOut { blocking } => {
                    let err = UpdateError::Timeout {
                        blocking,
                        slices_waited: self.stats.slices_waited,
                    };
                    self.abort(vm, err, t)
                }
                PollVerdict::NotYet => {
                    // The embedder ran slices after the safe point was
                    // found and it has been lost again: fall back to
                    // waiting rather than installing over live frames.
                    self.exit_phase(UpdatePhase::Installing, t);
                    self.emit(UpdateEvent::PhaseEntered {
                        phase: UpdatePhase::WaitingForSafePoint,
                        tick: vm.tick(),
                    });
                    self.state = State::Waiting(ws);
                    self.account_safepoint(t, false);
                    StepProgress::Pending(UpdatePhase::WaitingForSafePoint)
                }
            },
            State::Transforming(inputs) => match self.commit(vm, inputs) {
                Ok(committed) => {
                    self.exit_phase(UpdatePhase::TransformingHeap, t);
                    self.stats.total_time += t.elapsed();
                    if committed {
                        return self.committed();
                    }
                    self.emit(UpdateEvent::PhaseEntered {
                        phase: UpdatePhase::LazyMigrating,
                        tick: vm.tick(),
                    });
                    self.state = State::LazyMigrating;
                    StepProgress::Pending(UpdatePhase::LazyMigrating)
                }
                // Past the point of no return: the heap may hold
                // half-transformed objects, so no rollback is attempted.
                // This is the repo's own choice, not the paper's (PAPER.md
                // says nothing on it); ROADMAP item 16 is the open fix.
                Err(e) => self.abort_no_rollback(e, t),
            },
            State::LazyMigrating => match vm.lazy_stage() {
                LazyStage::Copy => {
                    let (cells, batch) = (self.opts.lazy_step_cells, self.opts.lazy_scavenge_batch);
                    match vm.lazy_copy_step(cells, batch) {
                        Ok(out) => {
                            self.emit(UpdateEvent::LazyCopyStep {
                                cells: out.cells,
                                words: out.words,
                                planned: out.planned,
                                logged: out.logged,
                                done: out.done,
                            });
                            debug_assert_eq!(vm.check_epoch_invariants(), Ok(()));
                            self.state = State::LazyMigrating;
                            let elapsed = t.elapsed();
                            self.stats.lazy_scan_time += elapsed;
                            self.stats.lazy_time += elapsed;
                            self.stats.total_time += elapsed;
                            self.phase_elapsed += elapsed;
                            StepProgress::Pending(UpdatePhase::LazyMigrating)
                        }
                        Err(e) => self.abort_no_rollback(e.into(), t),
                    }
                }
                LazyStage::Done => {
                    self.close_copy(vm);
                    self.exit_phase(UpdatePhase::LazyMigrating, t);
                    let elapsed = t.elapsed();
                    self.stats.lazy_time += elapsed;
                    self.stats.total_time += elapsed;
                    self.committed()
                }
                // Something other than this controller closed the epoch
                // (the embedder called `Vm::finish_update_copy`, say):
                // whatever it migrated cannot be rolled back.
                LazyStage::Inactive => {
                    let err = jvolve_vm::VmError::Internal {
                        message: "lazy epoch closed outside its update controller".into(),
                    };
                    self.abort_no_rollback(UpdateError::Vm(err), t)
                }
            },
            State::Committed => {
                self.state = State::Committed;
                StepProgress::Committed
            }
            State::Aborted(e) => {
                self.state = State::Aborted(e);
                StepProgress::Aborted
            }
        }
    }

    /// Books one waiting-side step: its wall time goes to the safe-point
    /// bucket and, when the step stayed in its phase, to the running
    /// per-phase total (a phase transition already flushed it via
    /// [`UpdateController::exit_phase`]).
    fn account_safepoint(&mut self, step_start: Instant, same_phase: bool) {
        let elapsed = step_start.elapsed();
        self.stats.safepoint_time += elapsed;
        self.stats.total_time += elapsed;
        if same_phase {
            self.phase_elapsed += elapsed;
        }
    }

    /// Steps the controller until it commits or aborts, calling `pump`
    /// after every step that leaves it in
    /// [`UpdatePhase::WaitingForSafePoint`] or
    /// [`UpdatePhase::LazyMigrating`], the only phases in which the
    /// embedder may run the guest. This keeps the pause contract for every
    /// embedder; [`crate::driver::apply`] is `run` with a pump that does
    /// nothing.
    ///
    /// # Errors
    ///
    /// Returns the abort reason, the same error [`UpdateController::error`]
    /// reports; unless the failure happened during heap transformation,
    /// the VM has been rolled back to the old version.
    pub fn run(
        &mut self,
        vm: &mut Vm,
        mut pump: impl FnMut(&mut Vm, UpdatePhase),
    ) -> Result<UpdateStats, UpdateError> {
        loop {
            match self.step(vm) {
                StepProgress::Pending(
                    phase @ (UpdatePhase::WaitingForSafePoint | UpdatePhase::LazyMigrating),
                ) => pump(vm, phase),
                StepProgress::Pending(_) => {}
                StepProgress::Committed => return Ok(self.stats.clone()),
                StepProgress::Aborted => break,
            }
        }
        match &self.state {
            State::Aborted(e) => Err(e.clone()),
            _ => unreachable!("step reported an abort outside the aborted state"),
        }
    }

    // ---- internals ---------------------------------------------------------

    fn emit(&mut self, event: UpdateEvent) {
        self.stats_feed(&event);
        for sink in &mut self.sinks {
            sink.event(&event);
        }
    }

    /// The built-in default sink: folds counter events into [`UpdateStats`]
    /// so the stats consumers (`table1`, `fig6`, `summary`) see exactly
    /// the numbers the old monolithic driver produced.
    fn stats_feed(&mut self, event: &UpdateEvent) {
        match event {
            UpdateEvent::ClassesLoaded { count, .. } => self.stats.classes_loaded += count,
            UpdateEvent::MethodBodiesSwapped { count, .. } => self.stats.bodies_swapped += count,
            UpdateEvent::MethodsInvalidated { direct } => self.stats.methods_invalidated += direct,
            UpdateEvent::OsrApplied { replaced, migrated } => {
                self.stats.osr_replacements += replaced;
                self.stats.active_migrations += migrated;
            }
            UpdateEvent::GcCompleted { copied_cells, copied_words, unscanned_words, .. } => {
                self.stats.gc_copied_cells = *copied_cells;
                self.stats.gc_copied_words = *copied_words;
                self.stats.gc_unscanned_words = *unscanned_words;
            }
            UpdateEvent::TransformersRun { objects_transformed, objects_planned } => {
                self.stats.objects_transformed = *objects_transformed;
                self.stats.objects_planned = *objects_planned;
            }
            _ => {}
        }
    }

    fn exit_phase(&mut self, phase: UpdatePhase, step_start: Instant) {
        let elapsed = self.phase_elapsed + step_start.elapsed();
        self.emit(UpdateEvent::PhaseExited { phase, elapsed });
        self.phase_elapsed = Duration::ZERO;
    }

    fn abort(&mut self, vm: &mut Vm, error: UpdateError, t: Instant) -> StepProgress {
        let undone = self.rollback(vm);
        self.emit(UpdateEvent::RolledBack {
            reason: error.to_string(),
            actions_undone: undone,
        });
        self.emit(UpdateEvent::Aborted { reason: error.to_string(), rolled_back: true });
        self.stats.total_time += t.elapsed();
        self.state = State::Aborted(error);
        StepProgress::Aborted
    }

    /// Aborts without touching the ledger: the heap transformation (or
    /// lazy epoch) already mutated objects, so the VM cannot be restored
    /// to the old version. Treating this as fatal is the repo's own
    /// choice, not a claim of the paper (ROADMAP item 16).
    fn abort_no_rollback(&mut self, error: UpdateError, t: Instant) -> StepProgress {
        self.emit(UpdateEvent::Aborted { reason: error.to_string(), rolled_back: false });
        self.stats.total_time += t.elapsed();
        self.state = State::Aborted(error);
        StepProgress::Aborted
    }

    /// Paper step 5 for both commit modes: the update's copy, then class
    /// transformers, then object transformers, branching only on whether
    /// the copy finishes before the pause ends. Eager runs the whole copy,
    /// then every transformer (the log lowest from-space address first),
    /// and commits. Lazy copies the roots' referents, runs their pairs'
    /// transformers and the class transformers — any stale object these
    /// load migrates through the read barrier — and leaves the rest of the
    /// copy to the `LazyMigrating` steps. Returns whether it committed.
    ///
    /// An update with no class update changes no layout: there is nothing
    /// to copy or convert, and no transformer class was loaded, so it
    /// commits here in either mode.
    fn commit(&mut self, vm: &mut Vm, inputs: TransformInputs) -> Result<bool, UpdateError> {
        if inputs.remap.is_empty() {
            vm.count_update();
            return Ok(true);
        }
        let finish = !vm.config().lazy_migration;
        let step_cells = (!finish).then_some(self.opts.lazy_step_cells);
        let t_copy = Instant::now();
        let from_words = vm.begin_update_copy(inputs.remap, inputs.transformers, step_cells)?;
        let copy_time = t_copy.elapsed();

        let t_tf = Instant::now();
        let tclass = vm
            .registry()
            .class_id(&ClassName::from(TRANSFORMERS_CLASS))
            .ok_or_else(|| UpdateError::Compile("transformer class missing".into()))?;
        for delta in self.update.spec.class_updates() {
            // Class transformers are optional in customized sources.
            let tname = class_transformer_name(&delta.name);
            if vm.registry().find_method(tclass, &tname).is_some() {
                vm.call_static_sync(TRANSFORMERS_CLASS, &tname, &[])?;
            }
        }
        vm.run_transformers()?;
        self.stats.transform_time = t_tf.elapsed();
        debug_assert_eq!(vm.check_epoch_invariants(), Ok(()));
        if finish {
            self.stats.gc_time = copy_time;
            self.close_copy(vm);
        } else {
            self.stats.arm_time = copy_time;
            self.emit(UpdateEvent::LazyEpochBegun { from_words, arm: copy_time });
        }
        Ok(finish)
    }

    /// Closes the update's finished copy: reports it as the update's
    /// collection (the lazy copy's counts read like the eager one's) and
    /// the objects it migrated, then renames the spent transformer class
    /// out of the way so the next update can load a fresh one (the paper's
    /// VM deletes it).
    fn close_copy(&mut self, vm: &mut Vm) {
        let totals = vm.finish_update_copy();
        self.emit(UpdateEvent::GcCompleted {
            copied_cells: totals.copied_cells,
            copied_words: totals.copied_words,
            unscanned_words: totals.unscanned_words,
            objects_logged: totals.logged,
        });
        self.emit(UpdateEvent::TransformersRun {
            objects_transformed: totals.transformed,
            objects_planned: totals.planned,
        });
        retire_transformer_class(vm, &self.update.spec.version_prefix);
    }

    /// Emits the commit and enters the terminal state.
    fn committed(&mut self) -> StepProgress {
        self.emit(UpdateEvent::Committed { wall: self.stats.total_time });
        self.state = State::Committed;
        StepProgress::Committed
    }

    /// Replays the rollback ledger in reverse and clears return barriers.
    /// Returns the number of actions undone.
    fn rollback(&mut self, vm: &mut Vm) -> usize {
        let n = self.ledger.len();
        for action in self.ledger.drain(..).rev() {
            match action {
                UndoAction::Rename { id, name } => {
                    let _ = vm.registry_mut().rename_class(id, name);
                }
                UndoAction::RestoreClassMethods { id, snap } => {
                    vm.registry_mut().restore_class_methods(id, snap);
                }
                UndoAction::Truncate { mark } => {
                    vm.registry_mut().truncate_to(&mark);
                }
                UndoAction::RestoreMethod(state) => vm.registry_mut().restore_method_state(state),
                UndoAction::RestoreFrame { thread, frame, method, compiled, pc, locals_len } => {
                    let _ = vm.osr_restore(thread, frame, method, compiled, pc, locals_len);
                }
            }
        }
        vm.clear_return_barriers();
        n
    }

    /// One safe-point poll (paper §3.2): scan stacks, plan OSR and
    /// migrations, and — when still blocked — install return barriers and
    /// run one scheduler slice.
    fn poll(&mut self, vm: &mut Vm, ws: &mut WaitState) -> PollVerdict {
        self.counters.polls += 1;
        check_stacks_into(vm, &ws.restricted, &mut ws.check);
        if !self.opts.use_osr {
            // Ablation: treat OSR candidates as blocking.
            let mut osr = std::mem::take(&mut ws.check.osr_candidates);
            ws.check.blocking.append(&mut osr);
        }

        let mut migrations = Vec::new();
        if self.opts.migrate_active_methods {
            let mut residual = Vec::new();
            for finding in ws.check.blocking.drain(..) {
                let plan = (finding.category == Category::Changed)
                    .then(|| {
                        let frame = vm
                            .thread(finding.thread)
                            .and_then(|t| t.frames.get(finding.frame))?;
                        let map = method_pc_map(
                            &self.update.old_classes,
                            &self.update.new_classes,
                            &finding.method,
                        )?;
                        // A template-JIT frame's pc indexes the fused
                        // stream; the yield-point map is keyed by base
                        // (1:1) pcs, so translate first.
                        let new_pc = map.lookup(frame.compiled.base_pc_of(frame.pc))?;
                        Some(PlannedMigration {
                            thread: finding.thread,
                            frame: finding.frame,
                            method: finding.method.clone(),
                            new_pc,
                        })
                    })
                    .flatten();
                match plan {
                    Some(p) => migrations.push(p),
                    None => residual.push(finding),
                }
            }
            ws.check.blocking = residual;
        }

        if ws.check.safe() {
            return PollVerdict::Safe { migrations };
        }
        if self.stats.slices_waited >= self.opts.timeout_slices {
            return PollVerdict::TimedOut { blocking: blocking_methods(&ws.check) };
        }
        if self.sinks.iter().any(|s| s.wants_polls()) {
            let event = UpdateEvent::SafePointPoll {
                slices_waited: self.stats.slices_waited,
                blocking: blocking_methods(&ws.check),
                osr_candidates: ws.check.osr_candidates.len(),
                barriers: self.stats.barriers_installed,
            };
            self.emit(event);
        }
        if self.opts.use_return_barriers {
            barrier_targets_into(&ws.check, &mut ws.targets);
            for &(tid, frame) in &ws.targets {
                let already = vm
                    .thread(tid)
                    .and_then(|t| t.frames.get(frame))
                    .is_some_and(|f| f.return_barrier);
                if !already && vm.install_return_barrier(tid, frame).is_ok() {
                    self.stats.barriers_installed += 1;
                }
            }
        }
        vm.step_slice();
        self.stats.slices_waited += 1;
        PollVerdict::NotYet
    }

    /// Verifies the install's batches against [`Registry::install_view`]
    /// of the renames the install will make (paper step 4, done before the
    /// pause): the new classes, then the transformer class over them.
    fn verify_batches(&mut self, registry: &Registry) -> Result<Batches<'u>, UpdateError> {
        let update = self.update;
        let mut renames = Vec::new();
        for delta in update.spec.class_updates() {
            renames.push((updated_class_id(registry, &delta.name)?, update.spec.old_name(&delta.name)));
        }
        let mut view = registry.install_view(&renames);
        let classes = view.verify(new_batch(update)?)?;
        let transformers = if renames.is_empty() {
            None
        } else {
            Some(view.verify(self.transformers(false)?.iter().collect())?)
        };
        Ok(Batches { classes, transformers })
    }

    /// Paper step 4: install modified classes, recording every mutation in
    /// the rollback ledger. The batches load without a second verification
    /// as long as nothing but this install changed the registry since
    /// `Pending` verified them.
    fn install(&mut self, vm: &mut Vm, ws: WaitState<'u>) -> Result<TransformInputs, UpdateError> {
        let WaitState { check, migrations, batches, .. } = ws;
        let Batches { classes: mut batch, transformers: mut tbatch } = batches;
        let update = self.update;
        let start = vm.registry().generation();
        let reverified = vm.registry().reverified_batches();
        let mut remap = HashMap::new();

        // Rename old versions out of the way and strip their methods
        // (paper §2.3/§3.3).
        let mut old_ids = HashMap::new();
        for delta in update.spec.class_updates() {
            let old_id = updated_class_id(vm.registry(), &delta.name)?;
            let renamed_to = update.spec.old_name(&delta.name);
            self.ledger.push(UndoAction::Rename { id: old_id, name: delta.name.clone() });
            vm.registry_mut().rename_class(old_id, renamed_to.clone())?;
            self.emit(UpdateEvent::ClassRenamed { class: delta.name.clone(), renamed_to });
            old_ids.insert(delta.name.clone(), old_id);
        }
        for &old_id in old_ids.values() {
            let snap = vm.registry_mut().strip_methods(old_id);
            self.ledger.push(UndoAction::RestoreClassMethods { id: old_id, snap });
        }

        // Load the new versions of updated classes plus added classes, as
        // one batch (they may reference each other). Everything loaded
        // from here on sits above the mark and is dropped on rollback.
        // The renames and strips above are the ones the batch was verified
        // against, so they leave its stamp current.
        batch.carry(start, vm.registry().generation());
        self.ledger.push(UndoAction::Truncate { mark: vm.registry().mark() });
        let new_ids = vm.registry_mut().load_verified(&batch)?;
        self.emit(UpdateEvent::ClassesLoaded { count: new_ids.len(), transformers: false });
        for (file, id) in batch.files().iter().zip(&new_ids) {
            if let Some(&old_id) = old_ids.get(&file.name) {
                remap.insert(old_id, *id);
            }
        }

        // Method-body updates: swap bytecode in place and invalidate.
        for delta in update.spec.body_only_updates() {
            let class_id = vm.registry().class_id(&delta.name).ok_or_else(|| {
                UpdateError::BadSpec {
                    message: format!("body-updated class {} is not loaded", delta.name),
                }
            })?;
            let new_class = update.new_classes.get(&delta.name).ok_or_else(|| {
                UpdateError::BadSpec {
                    message: format!("body-updated class {} missing from the new version", delta.name),
                }
            })?;
            for mname in &delta.methods_body_changed {
                let def = new_class
                    .find_method(mname)
                    .ok_or_else(|| UpdateError::BadSpec {
                        message: format!("changed method {}.{mname} missing from the new version", delta.name),
                    })?
                    .clone();
                let replaced = vm.registry_mut().replace_method_body(class_id, mname, def)?;
                self.ledger.push(UndoAction::RestoreMethod(replaced));
            }
            self.emit(UpdateEvent::MethodBodiesSwapped {
                class: delta.name.clone(),
                count: delta.methods_body_changed.len(),
            });
        }

        // Indirect (category-2) methods: invalidate so the JIT re-resolves
        // offsets on next invocation.
        let mut direct = 0;
        for mref in &update.spec.indirect_methods {
            if let Some(cid) = vm.registry().class_id(&mref.class) {
                if let Some(mid) = vm.registry().find_method(cid, &mref.method) {
                    self.ledger.push(UndoAction::RestoreMethod(vm.registry().method_state(mid)));
                    vm.registry_mut().invalidate(mid);
                    direct += 1;
                }
            }
        }
        self.emit(UpdateEvent::MethodsInvalidated { direct });

        // OSR-replace on-stack category-2 frames now that
        // the new metadata is installed (paper: "the exact timing of OSR
        // for DSU requires the VM to first load modified classes").
        let mut replaced = 0;
        if self.opts.use_osr {
            for f in &check.osr_candidates {
                // OSR recompiles and republishes the method's code, so both
                // the frame and the method entry go on the ledger.
                if let Some(mid) = vm
                    .thread(f.thread)
                    .and_then(|t| t.frames.get(f.frame))
                    .map(|fr| fr.method)
                {
                    self.ledger.push(UndoAction::RestoreMethod(vm.registry().method_state(mid)));
                }
                self.capture_frame(vm, f.thread, f.frame);
                vm.osr_replace(f.thread, f.frame)?;
                replaced += 1;
            }
        }

        // §3.5 future work: migrate changed methods while they run. The
        // new method version is looked up through the *current* name (the
        // new class for class updates, the same class for body updates).
        let mut migrated = 0;
        for m in &migrations {
            let class_id = vm.registry().class_id(&m.method.class).ok_or_else(|| {
                UpdateError::Vm(jvolve_vm::VmError::ResolutionError {
                    message: format!("migration target class {} missing", m.method.class),
                })
            })?;
            let new_mid = vm.registry().find_method(class_id, &m.method.method).ok_or_else(
                || {
                    UpdateError::Vm(jvolve_vm::VmError::ResolutionError {
                        message: format!("migration target method {} missing", m.method),
                    })
                },
            )?;
            self.capture_frame(vm, m.thread, m.frame);
            vm.osr_migrate(m.thread, m.frame, new_mid, m.new_pc)?;
            migrated += 1;
        }
        self.emit(UpdateEvent::OsrApplied { replaced, migrated });

        // With no class update there is no transformer to run and no
        // transformer class to load.
        let transformers = match tbatch.as_mut() {
            Some(tbatch) => {
                // The transformer class was verified over the new batch;
                // the body swaps since keep every signature it can name.
                tbatch.carry(start, vm.registry().generation());
                vm.registry_mut().load_verified(tbatch)?;
                self.emit(UpdateEvent::ClassesLoaded {
                    count: tbatch.files().len(),
                    transformers: true,
                });
                self.object_transformers(vm, tbatch.files(), &old_ids)?
            }
            None => HashMap::new(),
        };
        self.counters.pause_verifications += vm.registry().reverified_batches() - reverified;
        Ok(TransformInputs { remap, transformers })
    }

    /// Maps each new class to its object transformer: a native copy plan
    /// when the compiled body is a pure field copy, the method to
    /// interpret otherwise. One pass over each body — nothing is compiled
    /// or diffed again, and the verdict rests on the bytecode being loaded
    /// and the layouts just loaded, not on where the transformer source
    /// came from.
    fn object_transformers(
        &self,
        vm: &Vm,
        transformer_classes: &[&ClassFile],
        old_ids: &HashMap<ClassName, ClassId>,
    ) -> Result<HashMap<ClassId, ObjectTransformer>, UpdateError> {
        let update = self.update;
        let mut transformers = HashMap::new();
        let tfile = transformer_classes
            .iter()
            .find(|c| c.name.as_str() == TRANSFORMERS_CLASS)
            .ok_or_else(|| UpdateError::Compile("transformer class missing".into()))?;
        let tclass = vm
            .registry()
            .class_id(&tfile.name)
            .ok_or_else(|| UpdateError::Compile("transformer class missing".into()))?;
        for delta in update.spec.class_updates() {
            let new_id = vm.registry().class_id(&delta.name).ok_or_else(|| {
                UpdateError::BadSpec {
                    message: format!("new class {} vanished after load", delta.name),
                }
            })?;
            let tname = object_transformer_name(&delta.name);
            let mid = vm.registry().find_method(tclass, &tname).ok_or_else(|| {
                UpdateError::Compile(format!("transformer {tname} missing from source"))
            })?;
            let plan = if self.opts.interpret_all_transformers {
                None
            } else {
                tfile.find_method(&tname).and_then(|def| def.code.as_ref()).and_then(|code| {
                    let layout = |id: ClassId| -> Vec<(&str, &jvolve_classfile::Type)> {
                        let slots = &vm.registry().class(id).layout;
                        slots.iter().map(|s| (s.name.as_str(), &s.ty)).collect()
                    };
                    crate::plan::recognise(
                        &code.instrs,
                        &delta.name,
                        &layout(new_id),
                        &update.spec.old_name(&delta.name),
                        &layout(old_ids[&delta.name]),
                    )
                })
            };
            let transformer = match plan {
                Some(plan) => ObjectTransformer::Plan(plan),
                None => ObjectTransformer::Method(mid),
            };
            transformers.insert(new_id, transformer);
        }
        Ok(transformers)
    }

    /// The update's compiled transformer class files, counting the call
    /// if it is the one that ran the compiler (`in_pause`: the caller has
    /// every thread stopped).
    fn transformers(&mut self, in_pause: bool) -> Result<&'u [ClassFile], UpdateError> {
        let (classes, compiled_now) = self.update.resolve_transformers();
        if compiled_now {
            self.counters.transformer_compiles += 1;
            if in_pause {
                self.counters.pause_compiles += 1;
            }
        }
        classes
    }

    /// Captures a frame's pre-OSR state for the ledger.
    fn capture_frame(&mut self, vm: &Vm, thread: ThreadId, frame: usize) {
        if let Some(f) = vm.thread(thread).and_then(|t| t.frames.get(frame)) {
            self.ledger.push(UndoAction::RestoreFrame {
                thread,
                frame,
                method: f.method,
                compiled: f.compiled.clone(),
                pc: f.pc,
                locals_len: f.locals_len(),
            });
        }
    }
}

/// The loaded (pre-rename) class a class update replaces.
fn updated_class_id(registry: &Registry, name: &ClassName) -> Result<ClassId, UpdateError> {
    registry.class_id(name).ok_or_else(|| {
        UpdateError::Vm(jvolve_vm::VmError::ResolutionError {
            message: format!("updated class {name} not loaded"),
        })
    })
}

/// The install's first batch: the new versions of updated classes plus
/// the added classes, borrowed from the update's payload.
fn new_batch(update: &Update) -> Result<Vec<&ClassFile>, UpdateError> {
    let updated = update.spec.class_updates().map(|delta| {
        update.new_classes.get(&delta.name).ok_or_else(|| UpdateError::BadSpec {
            message: format!("updated class {} missing from the new version", delta.name),
        })
    });
    let added = update.spec.added_classes.iter().map(|name| {
        update.new_classes.get(name).ok_or_else(|| UpdateError::BadSpec {
            message: format!("added class {name} missing from the new version"),
        })
    });
    updated.chain(added).collect()
}

/// Sorted, deduplicated method names from a check's blocking set.
fn blocking_methods(check: &StackCheck) -> Vec<String> {
    let mut blocking: Vec<String> =
        check.blocking.iter().map(|f| f.method.to_string()).collect();
    blocking.sort();
    blocking.dedup();
    blocking
}

/// Renames the spent transformer class out of the global namespace.
fn retire_transformer_class(vm: &mut Vm, prefix: &str) {
    let name = ClassName::from(TRANSFORMERS_CLASS);
    if let Some(id) = vm.registry().class_id(&name) {
        let retired = ClassName::from(format!("{prefix}{TRANSFORMERS_CLASS}"));
        let _ = vm.registry_mut().rename_class(id, retired);
        let _ = vm.registry_mut().strip_methods(id);
    }
}

// Fleet shards own one `Vm` + `UpdateController` per OS thread, so the
// controller (sinks included — `UpdateEventSink: Send`) and the prepared
// update it borrows must cross thread boundaries. Compile-time checks so
// a regression fails the build, not a fleet test.
const fn _assert_send<T: Send>() {}
const fn _assert_sync<T: Sync>() {}
const _: () = _assert_send::<UpdateController<'static>>();
const _: () = _assert_send::<crate::driver::Update>();
const _: () = _assert_sync::<crate::driver::Update>();
const _: () = _assert_send::<JsonTraceSink>();
const _: () = _assert_send::<MemorySink>();
