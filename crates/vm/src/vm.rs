//! The virtual machine: heap + registry + green threads + scheduler,
//! plus the DSU *mechanisms* (GC-coordinated object duplication, the
//! update log, transformer execution, return barriers, OSR) that the
//! `jvolve` crate's update driver composes into the paper's protocol.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::Arc;

use jvolve_classfile::class::CTOR_NAME;
use jvolve_classfile::{ClassFile, ClassName};

use crate::compiled::{CompileLevel, CompiledMethod};
use crate::config::VmConfig;
use crate::error::VmError;
use crate::heap::{
    ClassLayouts, CopyPlan, GcOutcome, GcRemap, Heap, HeapKind, NoRemap, RemapTable,
};
use crate::ids::{ClassId, MethodId, ThreadId};
use crate::interp::SliceEvent;
use crate::jit;
use crate::lazy::{
    CollapseOutcome, EpochTotals, LazyEpoch, LazyStage, ScanOutcome, ScavengeOutcome,
    MAX_TRANSFORMER_DEPTH,
};
use crate::net::Net;
use crate::registry::Registry;
use crate::thread::{BlockOn, FrameNote, ThreadState, VmThread};
use crate::value::{GcRef, Value};

/// Statistics maintained by the VM.
#[derive(Debug, Clone, Default)]
pub struct VmStats {
    /// Scheduler slices executed.
    pub slices: u64,
    /// Interpreter steps executed.
    pub steps: u64,
    /// Collections performed.
    pub gcs: u64,
    /// Methods baseline-compiled.
    pub base_compiles: u64,
    /// Always 0: there is no opt tier (DESIGN §2). The field survives only
    /// because `benchmark/src/layers.rs`, frozen outside benchmark PRs,
    /// reads it; ROADMAP item 1 (the benchmark-correction PR) deletes it
    /// with `VmConfig::gc_threads`.
    pub opt_compiles: u64,
    /// Methods compiled at the template-JIT tier (superinstruction fusion).
    pub jit_compiles: u64,
    /// Template-JIT frames deoptimized back onto their retained base body
    /// (dispatch epoch moved under them).
    pub deopts: u64,
    /// Interpreter steps executed inside fused superinstructions or the
    /// leaf-call fast path. Always counted *in addition to* `steps` — the
    /// ratio `fused_steps / steps` is the fusion coverage of a run.
    pub fused_steps: u64,
    /// Inline-cache dispatch hits (excluded from differential oracles —
    /// the two cache modes differ here by construction).
    pub ic_hits: u64,
    /// Inline-cache dispatch misses.
    pub ic_misses: u64,
}

/// How instances of one updated class reach their new layout.
#[derive(Debug, Clone)]
pub enum ObjectTransformer {
    /// A pure field copy, applied natively wherever the object is copied
    /// (the update-GC, or first touch in a lazy epoch): no old copy, no
    /// update-log entry, no frame.
    Plan(CopyPlan),
    /// The compiled `jvolve_object_X(to, from)` method, run in an
    /// interpreter frame over a logged (old copy, new object) pair.
    Method(MethodId),
}

/// Where the transformer of one update-log entry stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EntryState {
    /// Not started.
    Pending,
    /// Its frame is on some stack (cycle detection, paper §3.4).
    InProgress,
    /// Finished (or forced recursively before the log walk reached it).
    Done,
}

/// DSU bookkeeping owned by the VM so the GC can keep it consistent.
///
/// Nothing here is keyed by heap address. The paper caches a pointer to
/// the old version inside the new object; we cache the *log index*: both
/// objects of a pair carry `index + 1` in their header tag
/// ([`Heap::header_tag`]) until the transformer returns, and the
/// per-entry progress lives in `state`, parallel to `pending`. A
/// collection copies headers verbatim and rewrites `pending` in place,
/// so nothing is rehashed.
#[derive(Debug, Default)]
pub(crate) struct DsuState {
    /// The update log: (old copy, new object) pairs from the last
    /// update-GC (paper §3.4), or from first-touch duplication during a
    /// lazy epoch.
    pub pending: Vec<(GcRef, GcRef)>,
    /// Transformer progress of each `pending` entry.
    pub state: Vec<EntryState>,
    /// Entries currently [`EntryState::InProgress`] (transformer nesting
    /// depth).
    pub depth: usize,
    /// Interpreted object transformer for each *new* class that has no
    /// copy plan.
    pub transformer_for: HashMap<ClassId, MethodId>,
    /// Dynamic updates completed.
    pub update_count: u64,
}

impl DsuState {
    /// Appends a pair to the log and stamps its index into both headers.
    pub(crate) fn log_pair(&mut self, heap: &mut Heap, old_copy: GcRef, new_obj: GcRef) -> usize {
        let index = self.pending.len();
        let tag = u32::try_from(index + 1).expect("update log outgrew the header tag");
        heap.set_header_tag(old_copy, tag);
        heap.set_header_tag(new_obj, tag);
        self.pending.push((old_copy, new_obj));
        self.state.push(EntryState::Pending);
        index
    }

    /// The log entry whose not-yet-transformed *new* object is `obj`.
    pub(crate) fn entry_of(&self, heap: &Heap, obj: GcRef) -> Option<usize> {
        let index = (heap.header_tag(obj) as usize).checked_sub(1)?;
        (self.pending.get(index)?.1 == obj).then_some(index)
    }

    /// Marks entry `index` in progress, or says why its transformer must
    /// not start.
    pub(crate) fn begin(&mut self, index: usize) -> Result<(), VmError> {
        if self.state[index] == EntryState::InProgress {
            // Recursive transformation of an in-flight object:
            // ill-defined transformer set (paper §3.4 aborts).
            return Err(VmError::TransformerCycle);
        }
        if self.depth >= MAX_TRANSFORMER_DEPTH {
            return Err(VmError::TransformerDepthExceeded { limit: MAX_TRANSFORMER_DEPTH });
        }
        self.state[index] = EntryState::InProgress;
        self.depth += 1;
        Ok(())
    }

    /// The transformer frame of entry `index` returned: the new object is
    /// an ordinary object from here on.
    pub(crate) fn finish(&mut self, heap: &mut Heap, index: usize) {
        self.state[index] = EntryState::Done;
        self.depth -= 1;
        heap.set_header_tag(self.pending[index].1, 0);
    }

    /// Deletes the log (paper §3.4: old copies become unreachable).
    pub(crate) fn clear_log(&mut self) {
        self.pending.clear();
        self.state.clear();
        self.depth = 0;
    }
}

/// A report from one scheduler slice.
#[derive(Debug, Clone, PartialEq)]
pub struct SliceReport {
    /// Thread that ran, if any was runnable.
    pub thread: Option<ThreadId>,
    /// What ended the slice.
    pub event: SliceOutcome,
}

/// Outcome of a slice, surfaced to the embedder / update driver.
#[derive(Debug, Clone, PartialEq)]
pub enum SliceOutcome {
    /// The thread yielded at a safe point (quantum or explicit yield).
    Yielded,
    /// The thread blocked on a resource.
    Blocked,
    /// The thread finished.
    Finished,
    /// The thread trapped; it is dead.
    Trapped(VmError),
    /// A return barrier fired on the thread (paper §3.2): the update
    /// driver should re-check for a DSU safe point.
    ReturnBarrier {
        /// Method that returned.
        method: MethodId,
    },
    /// No thread was runnable (all blocked or finished).
    Idle,
}

/// The virtual machine.
#[derive(Debug)]
pub struct Vm {
    pub(crate) config: VmConfig,
    pub(crate) heap: Heap,
    pub(crate) registry: Registry,
    pub(crate) threads: Vec<Option<VmThread>>,
    pub(crate) net: Net,
    pub(crate) output: Vec<String>,
    pub(crate) tick: u64,
    pub(crate) rng_state: u64,
    pub(crate) dsu: DsuState,
    pub(crate) lazy: LazyEpoch,
    pub(crate) stats: VmStats,
    host_roots: Vec<GcRef>,
    next_thread: usize,
}

impl CompiledMethod {
    /// The tier this code's heat says it should be recompiled at, if any —
    /// the one statement of the promotion rule: base code goes to the
    /// template JIT once invocations plus loop trips reach
    /// `jit_threshold`. Read *before* the counter bump of the call or
    /// back-edge being sampled, so the slow path, the inline-cache hit
    /// path and the back-edge OSR trigger all promote at the same call
    /// number. (Defined here, by [`Vm::compiled_for`], because it is VM
    /// policy over [`VmConfig`], not part of the code representation.)
    #[inline]
    pub fn next_tier(&self, config: &VmConfig) -> Option<CompileLevel> {
        (config.enable_jit
            && self.level == CompileLevel::Base
            && self.invocations.get().saturating_add(self.loop_trips.get())
                >= config.jit_threshold)
            .then_some(CompileLevel::Jit)
    }
}

impl Vm {
    /// Creates a VM with the builtin classes loaded.
    pub fn new(config: VmConfig) -> Vm {
        let mut registry = Registry::new();
        registry
            .load_batch(&jvolve_lang::builtins::builtin_classes())
            .expect("builtins always load");
        Vm {
            heap: Heap::new(config.semispace_words),
            registry,
            config,
            threads: Vec::new(),
            net: Net::new(),
            output: Vec::new(),
            tick: 0,
            rng_state: 0x9E3779B97F4A7C15,
            dsu: DsuState::default(),
            lazy: LazyEpoch::default(),
            stats: VmStats::default(),
            host_roots: Vec::new(),
            next_thread: 0,
        }
    }

    // ---- program loading ----------------------------------------------------

    /// Loads a batch of classes (verification included). The batch may be
    /// owned (`&[ClassFile]`) or borrowed from wherever the files live
    /// (`&[&ClassFile]`); the update controller uses the latter so the
    /// install step copies no class file just to form a batch.
    ///
    /// # Errors
    ///
    /// Propagates [`VmError::LoadError`].
    pub fn load_classes<C: Borrow<ClassFile>>(
        &mut self,
        classes: &[C],
    ) -> Result<Vec<ClassId>, VmError> {
        self.registry.load_batch(classes)
    }

    /// Compiles and loads MJ source, a convenience for tests and examples.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::LoadError`] carrying compile diagnostics.
    pub fn load_source(&mut self, source: &str) -> Result<Vec<ClassId>, VmError> {
        let classes = jvolve_lang::compile(source).map_err(|e| VmError::LoadError {
            class: ClassName::from("<source>"),
            message: e.to_string(),
        })?;
        self.load_classes(&classes)
    }

    // ---- accessors -----------------------------------------------------------

    /// The class registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Mutable registry access (update driver).
    pub fn registry_mut(&mut self) -> &mut Registry {
        &mut self.registry
    }

    /// The heap.
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// The network substrate (workload drivers).
    pub fn net_mut(&mut self) -> &mut Net {
        &mut self.net
    }

    /// Execution statistics.
    pub fn stats(&self) -> &VmStats {
        &self.stats
    }

    /// The configuration.
    pub fn config(&self) -> &VmConfig {
        &self.config
    }

    /// Buffered `Sys.print` output.
    pub fn output(&self) -> &[String] {
        &self.output
    }

    /// Takes and clears the buffered output.
    pub fn take_output(&mut self) -> Vec<String> {
        std::mem::take(&mut self.output)
    }

    /// Scheduler tick (virtual milliseconds).
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Number of updates applied (mirrors `Dsu.updateCount()`).
    pub fn update_count(&self) -> u64 {
        self.dsu.update_count
    }

    /// Live threads (ids), in id order.
    pub fn live_threads(&self) -> Vec<ThreadId> {
        self.threads
            .iter()
            .flatten()
            .filter(|t| t.is_live())
            .map(|t| t.id)
            .collect()
    }

    /// Immutable view of a thread.
    pub fn thread(&self, id: ThreadId) -> Option<&VmThread> {
        self.threads.get(id.0 as usize).and_then(|t| t.as_ref())
    }

    /// All threads, live or not.
    pub fn threads(&self) -> impl Iterator<Item = &VmThread> {
        self.threads.iter().flatten()
    }

    // ---- thread management ----------------------------------------------------

    /// Spawns a thread running `class.method` (a static, argument-less
    /// method — typically `main` or a server entry point).
    ///
    /// # Errors
    ///
    /// Fails if the method is missing, non-static, or takes parameters.
    pub fn spawn(&mut self, class: &str, method: &str) -> Result<ThreadId, VmError> {
        let cid = self.registry.class_id(&ClassName::from(class)).ok_or_else(|| {
            VmError::ResolutionError { message: format!("unknown class {class}") }
        })?;
        let mid = self.registry.find_method(cid, method).ok_or_else(|| {
            VmError::ResolutionError { message: format!("unknown method {class}.{method}") }
        })?;
        let info = self.registry.method(mid);
        if !info.def.is_static || !info.def.params.is_empty() {
            return Err(VmError::ResolutionError {
                message: format!("{class}.{method} must be static and take no arguments"),
            });
        }
        let compiled = self.compiled_for(mid)?;
        self.add_thread(format!("{class}.{method}"), compiled, &[])
    }

    pub(crate) fn add_thread(
        &mut self,
        name: String,
        compiled: Arc<CompiledMethod>,
        args: &[Value],
    ) -> Result<ThreadId, VmError> {
        let id = ThreadId(self.threads.len() as u32);
        self.threads.push(Some(VmThread::new(id, name, compiled, args)?));
        Ok(id)
    }

    // ---- compilation ------------------------------------------------------------

    /// Returns (compiling if necessary) executable code for `mid`, and
    /// advances the adaptive-recompilation counter: a method crossing the
    /// hotness threshold is recompiled at the template-JIT tier, exactly
    /// the behavior the paper leans on after invalidation ("the adaptive
    /// compilation system naturally optimizes updated methods further if
    /// they execute frequently", §1).
    pub(crate) fn compiled_for(&mut self, mid: MethodId) -> Result<Arc<CompiledMethod>, VmError> {
        let info = self.registry.method(mid);
        debug_assert!(info.native.is_none(), "natives are dispatched separately");

        // The hotness counter lives on the code object so inline-cache
        // hits (which bypass this path) can keep sampling it; the
        // promotion rule ([`CompiledMethod::next_tier`]) is read pre-bump.
        let level = match &info.compiled {
            Some(c) => match c.next_tier(&self.config) {
                Some(level) => level,
                None => {
                    let c = c.clone();
                    c.invocations.bump();
                    self.registry.method_mut(mid).invocations = c.invocations.get();
                    return Ok(c);
                }
            },
            None => CompileLevel::Base,
        };
        let compiled = Arc::new(jit::compile(&self.registry, mid, level)?);
        match level {
            CompileLevel::Base => self.stats.base_compiles += 1,
            CompileLevel::Jit => self.stats.jit_compiles += 1,
        }
        compiled.invocations.bump();
        self.registry.set_compiled(mid, compiled.clone());
        self.registry.method_mut(mid).invocations = compiled.invocations.get();
        Ok(compiled)
    }

    // ---- scheduling ------------------------------------------------------------

    fn poll_blocked(&mut self) {
        let tick = self.tick;
        for slot in &mut self.threads {
            let Some(t) = slot else { continue };
            if let ThreadState::Blocked(on) = &t.state {
                let wake = match on {
                    BlockOn::Accept(l) => self.net.has_pending(*l),
                    BlockOn::ReadLine(c) => self.net.guest_readable(*c),
                    BlockOn::SleepUntil(until) => tick >= *until,
                };
                if wake {
                    t.state = ThreadState::Runnable;
                }
            }
        }
    }

    /// Runs one scheduler slice: picks the next runnable thread round-robin
    /// and executes it up to the quantum (stopping only at a yield point —
    /// a VM safe point). Between slices every thread is at a safe point,
    /// which is when the update driver inspects stacks.
    pub fn step_slice(&mut self) -> SliceReport {
        self.tick += 1;
        self.stats.slices += 1;
        self.poll_blocked();

        let n = self.threads.len();
        let mut chosen = None;
        for k in 0..n {
            let idx = (self.next_thread + k) % n.max(1);
            if self.threads.get(idx).and_then(|t| t.as_ref()).is_some_and(|t| {
                matches!(t.state, ThreadState::Runnable)
            }) {
                chosen = Some(idx);
                break;
            }
        }
        let Some(idx) = chosen else {
            return SliceReport { thread: None, event: SliceOutcome::Idle };
        };
        self.next_thread = (idx + 1) % n;

        let budget = self.config.quantum;
        let tid = ThreadId(idx as u32);
        let mut gc_retry: Option<(u32, u64)> = None;
        loop {
            let mut thread = self.threads[idx].take().expect("chosen thread exists");
            let event = self.exec_thread(&mut thread, budget);
            self.threads[idx] = Some(thread);
            let outcome = match event {
                SliceEvent::Quantum => SliceOutcome::Yielded,
                SliceEvent::Blocked => SliceOutcome::Blocked,
                SliceEvent::Finished => SliceOutcome::Finished,
                SliceEvent::Trapped(e) => {
                    let t = self.threads[idx].as_mut().expect("thread present");
                    t.state = ThreadState::Trapped(e.clone());
                    SliceOutcome::Trapped(e)
                }
                SliceEvent::ReturnBarrier { method } => SliceOutcome::ReturnBarrier { method },
                SliceEvent::NeedGc => {
                    // Allocation pressure: stop-the-world collection (all
                    // other threads already paused at safe points), then
                    // resume the same thread at the same pc.
                    let result = if self.gc_retry_stuck(idx, &mut gc_retry) {
                        // The collection just ran and the same allocation
                        // still fails: out of memory.
                        Err(VmError::OutOfMemory { requested: 0 })
                    } else {
                        self.collect_full(&NoRemap).map(|_| ())
                    };
                    match result {
                        Ok(()) => continue,
                        Err(e) => {
                            let t = self.threads[idx].as_mut().expect("thread present");
                            t.state = ThreadState::Trapped(e.clone());
                            SliceOutcome::Trapped(e)
                        }
                    }
                }
            };
            return SliceReport { thread: Some(tid), event: outcome };
        }
    }

    /// Records thread `idx`'s allocation failure in `last` — (pc, step
    /// counter) — and says whether it is stuck: failing again at the same pc
    /// exactly one step later (the retried instruction itself) means the
    /// collection freed nothing useful and the request can never be satisfied.
    fn gc_retry_stuck(&self, idx: usize, last: &mut Option<(u32, u64)>) -> bool {
        let top = self.threads[idx].as_ref().and_then(|t| t.frames.last());
        let now = (top.map_or(u32::MAX, |f| f.pc), self.stats.steps);
        let stuck = *last == Some((now.0, now.1.saturating_sub(1)));
        *last = Some(now);
        stuck
    }

    /// Runs up to `n` slices; stops early when no thread is live.
    pub fn run_slices(&mut self, n: usize) -> usize {
        for i in 0..n {
            if self.live_threads().is_empty() {
                return i;
            }
            self.step_slice();
        }
        n
    }

    /// Runs scheduler slices until `stop` says so or `max_slices` elapse,
    /// returning the number of slices executed. `stop` is consulted after
    /// every slice, i.e. at a VM safe point — this is the scheduling hook
    /// an update controller (or any embedder) uses to interleave its own
    /// work with guest execution instead of freezing the world from the
    /// outside.
    pub fn run_until(
        &mut self,
        max_slices: u64,
        mut stop: impl FnMut(&Vm, &SliceReport) -> bool,
    ) -> u64 {
        for i in 0..max_slices {
            let report = self.step_slice();
            if stop(self, &report) {
                return i + 1;
            }
        }
        max_slices
    }

    /// Runs until every thread finished/trapped or `max_slices` elapsed.
    /// Returns `true` when all threads completed.
    pub fn run_to_completion(&mut self, max_slices: usize) -> bool {
        for _ in 0..max_slices {
            if self.threads.iter().flatten().all(|t| !t.is_live()) {
                return true;
            }
            let report = self.step_slice();
            if report.event == SliceOutcome::Idle {
                // All live threads blocked with nothing to wake them: with
                // no external client activity this cannot progress.
                let sleepers = self.threads.iter().flatten().any(|t| {
                    matches!(t.state, ThreadState::Blocked(BlockOn::SleepUntil(_)))
                });
                if !sleepers {
                    return false;
                }
            }
        }
        self.threads.iter().flatten().all(|t| !t.is_live())
    }

    // ---- GC --------------------------------------------------------------------

    /// Every reference on a thread's value stack, threads in id order: one
    /// front-to-back pass each, which is frame order, locals before
    /// operands (the stack *is* the stack map, see [`crate::thread`]).
    fn stack_refs(&self) -> impl Iterator<Item = GcRef> + '_ {
        self.threads.iter().flatten().flat_map(|t| &t.values).filter_map(|v| match v {
            Value::Ref(r) => Some(*r),
            _ => None,
        })
    }

    /// Rewrites every [`Vm::stack_refs`] slot through the heap's
    /// forwarding words.
    fn resolve_stacks(&mut self) {
        for v in self.threads.iter_mut().flatten().flat_map(|t| &mut t.values) {
            if let Value::Ref(r) = v {
                *r = self.heap.resolve(*r);
            }
        }
    }

    /// Gathers every root location, runs a collection with `remap`, and
    /// rewrites roots and DSU bookkeeping.
    ///
    /// The remap policy is resolved into a dense [`RemapTable`] up front;
    /// when it comes out empty (an ordinary collection) the heap takes its
    /// no-remap fast path. Layouts come from the registry's cached
    /// [`LayoutSnapshot`](crate::heap::LayoutSnapshot), rebuilt only after
    /// class loads/renames.
    ///
    /// # Errors
    ///
    /// Propagates [`VmError::OutOfMemory`] on to-space overflow.
    pub fn collect_full(&mut self, remap: &dyn GcRemap) -> Result<GcOutcome, VmError> {
        let table = RemapTable::from_policy(remap, self.registry.num_classes());
        self.collect_with(&table)
    }

    /// [`Vm::collect_full`] over an already resolved remap table (which
    /// may carry copy plans). Inside a lazy epoch whose discovery scan is
    /// unfinished, it first runs [`Vm::lazy_scan`] to completion before
    /// gathering roots: every planned object the scan meets is either
    /// converted (the collection copies the new object and forwards
    /// references to the original) or queued on the worklist, which is
    /// rooted.
    fn collect_with(&mut self, table: &RemapTable) -> Result<GcOutcome, VmError> {
        if self.lazy.active && !self.lazy.scan_done() {
            // A collection abandons from-space, so run the SATB scanner to
            // completion first. Its conversions are forwarded objects like
            // any barrier migration; what it cannot convert (interpreted
            // transformers, or no room left) joins the worklist tail, which
            // must be rooted below, or untouched stale garbage would be
            // reclaimed here that an eager commit would have transformed.
            self.lazy_scan(usize::MAX);
        }
        let mut roots: Vec<GcRef> = self.stack_refs().collect();
        let jtoc_slots: Vec<u32> = self.registry.jtoc_ref_slots().collect();
        for &slot in &jtoc_slots {
            roots.push(GcRef(self.registry.jtoc_get(slot) as u32));
        }
        for &(old, new) in &self.dsu.pending {
            roots.push(old);
            roots.push(new);
        }
        for &r in &self.host_roots {
            roots.push(r);
        }
        if self.lazy.active {
            // The unscavenged worklist tail keeps untouched stale objects
            // alive until transformed, so a lazy epoch migrates exactly
            // the object multiset an eager update would have.
            self.lazy.drop_processed();
            roots.extend_from_slice(self.lazy.pending_entries());
        }

        let snapshot = self.registry.layout_snapshot();
        let table = if table.is_empty() { None } else { Some(table) };
        let outcome = self.heap.collect(&roots, &snapshot, table)?;
        self.stats.gcs += 1;

        // Rewrite every root location through the forwarding pointers.
        self.resolve_stacks();
        let heap = &self.heap;
        for &slot in &jtoc_slots {
            let old = self.registry.jtoc_get(slot) as u32;
            self.registry.jtoc_set(slot, u64::from(heap.resolve(GcRef(old)).0));
        }
        for pair in &mut self.dsu.pending {
            pair.0 = heap.resolve(pair.0);
            pair.1 = heap.resolve(pair.1);
        }
        for r in &mut self.host_roots {
            *r = heap.resolve(*r);
        }
        if self.lazy.active {
            for r in &mut self.lazy.worklist {
                *r = heap.resolve(*r);
            }
            // The scan completed up top and its addresses died with
            // from-space; pin the stage at scan-done.
            self.lazy.scan_addr = 0;
            self.lazy.scan_limit = 0;
            if self.lazy.collapsing {
                // A copying collection resolves every reference as it
                // copies, which is exactly what the sweep was doing —
                // the collapse is complete, even one stopped inside an
                // array.
                self.lazy.sweep_addr = 0;
                self.lazy.sweep_slot = 0;
                self.lazy.sweep_limit = 0;
            }
        }
        Ok(outcome)
    }

    /// A canonical, address-independent hash of the reachable heap.
    ///
    /// Cells are numbered in BFS visit order from the VM's roots
    /// (gathered in the same order [`Vm::collect_full`] uses) and hashed
    /// by content — kind, class id or length, primitive payloads, string
    /// bytes — with reference fields contributing the *visit index* of
    /// their target rather than its address. Two heaps holding isomorphic
    /// object graphs therefore hash equal even when cell placement
    /// differs — an eager and a lazy commit of the same update, say.
    ///
    /// # Panics
    ///
    /// Panics if called mid-GC (on forwarded cells); fingerprint a VM only
    /// at a quiescent point.
    pub fn heap_fingerprint(&self) -> u64 {
        fn mix(h: u64, v: u64) -> u64 {
            let mut z = (h ^ v).wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_B9F9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        struct Visit {
            index_of: HashMap<u32, u64>,
            queue: std::collections::VecDeque<GcRef>,
        }
        impl Visit {
            fn visit(&mut self, r: GcRef) -> u64 {
                if let Some(&i) = self.index_of.get(&r.0) {
                    return i;
                }
                let next = self.index_of.len() as u64 + 1;
                self.index_of.insert(r.0, next);
                self.queue.push_back(r);
                next
            }
        }
        let mut v = Visit { index_of: HashMap::new(), queue: Default::default() };
        let mut h = 0xA076_1D64_78BD_642Fu64;

        // Roots, in collect_full's gathering order.
        for r in self.stack_refs() {
            h = mix(h, v.visit(r));
        }
        for slot in self.registry.jtoc_ref_slots() {
            h = mix(h, v.visit(GcRef(self.registry.jtoc_get(slot) as u32)));
        }
        for &r in &self.host_roots {
            h = mix(h, v.visit(r));
        }

        while let Some(r) = v.queue.pop_front() {
            match self.heap.kind(r) {
                HeapKind::Object => {
                    let class = self.heap.class_of(r);
                    h = mix(h, 1);
                    h = mix(h, u64::from(class.0));
                    let ref_map = &self.registry.class(class).ref_map;
                    for (i, &is_ref) in ref_map.iter().enumerate() {
                        let word = self.heap.get(r, i);
                        if is_ref {
                            h = mix(h, if word == 0 { 0 } else { v.visit(GcRef(word as u32)) });
                        } else {
                            h = mix(h, word);
                        }
                    }
                }
                HeapKind::RefArray => {
                    let len = self.heap.len_of(r) as usize;
                    h = mix(h, 2);
                    h = mix(h, len as u64);
                    for i in 0..len {
                        let word = self.heap.get(r, i);
                        h = mix(h, if word == 0 { 0 } else { v.visit(GcRef(word as u32)) });
                    }
                }
                HeapKind::PrimArray => {
                    let len = self.heap.len_of(r) as usize;
                    h = mix(h, 3);
                    h = mix(h, len as u64);
                    for i in 0..len {
                        h = mix(h, self.heap.get(r, i));
                    }
                }
                HeapKind::Str => {
                    h = mix(h, 4);
                    for b in self.heap.str_view(r).bytes() {
                        h = mix(h, u64::from(b));
                    }
                    h = mix(h, 5);
                }
            }
        }
        h
    }

    // ---- DSU mechanisms (composed by the jvolve update driver) -------------------

    /// Resolves an update's class mapping into a [`RemapTable`]: planned
    /// classes get their [`CopyPlan`] attached, the rest register their
    /// transformer method in the DSU state.
    fn update_table(
        &mut self,
        remap: &HashMap<ClassId, ClassId>,
        mut transformers: HashMap<ClassId, ObjectTransformer>,
    ) -> RemapTable {
        let pairs = remap.iter().map(|(&old, &new)| (old, new));
        let mut table = RemapTable::from_pairs(pairs, self.registry.num_classes());
        self.dsu.transformer_for.clear();
        for (&old_class, &new_class) in remap {
            match transformers.remove(&new_class) {
                Some(ObjectTransformer::Plan(plan)) => {
                    table.set_plan(old_class, plan, &self.registry);
                }
                Some(ObjectTransformer::Method(mid)) => {
                    self.dsu.transformer_for.insert(new_class, mid);
                }
                // Surfaces as a typed error if an instance ever needs it.
                None => {}
            }
        }
        table
    }

    /// Runs the update collection (paper §3.4): a full GC that converts
    /// every instance of a remapped class. `transformers` maps each *new*
    /// class to its object transformer: instances of a class with a
    /// [`ObjectTransformer::Plan`] come out of the collection already in
    /// their new layout; the rest are duplicated, and their (old copy,
    /// new object) pairs become the VM's update log for
    /// [`Vm::transform_pending`]. The log is *moved* into the VM — the
    /// returned outcome's `update_log` is empty;
    /// [`Vm::pending_transforms`] is its length.
    ///
    /// # Errors
    ///
    /// Propagates heap overflow.
    pub fn collect_for_update(
        &mut self,
        remap: HashMap<ClassId, ClassId>,
        transformers: HashMap<ClassId, ObjectTransformer>,
    ) -> Result<GcOutcome, VmError> {
        let table = self.update_table(&remap, transformers);
        self.dsu.clear_log();
        let mut outcome = self.collect_with(&table)?;
        for (old_copy, new_obj) in std::mem::take(&mut outcome.update_log) {
            self.dsu.log_pair(&mut self.heap, old_copy, new_obj);
        }
        Ok(outcome)
    }

    /// Number of (old, new) pairs waiting for transformation.
    pub fn pending_transforms(&self) -> usize {
        self.dsu.pending.len()
    }

    /// Runs the object transformer for every logged pair, in log order,
    /// honoring transformations already forced recursively. Afterwards the
    /// log is deleted, making the old copies unreachable (the next GC
    /// reclaims them, paper §3.4).
    ///
    /// # Errors
    ///
    /// Propagates transformer traps (including
    /// [`VmError::TransformerCycle`]); on error the update must be
    /// considered failed.
    pub fn transform_pending(&mut self) -> Result<usize, VmError> {
        let mut ran = 0;
        if !self.dsu.pending.is_empty() {
            // One internal thread runs every transformer of the pass.
            let thread = self.open_sync_thread("object-transformer");
            let result = (0..self.dsu.pending.len()).try_for_each(|i| {
                if self.dsu.state[i] == EntryState::Pending {
                    self.transform_one(thread, i)?;
                    ran += 1;
                }
                Ok(())
            });
            self.close_sync_thread(thread);
            result?;
        }
        self.dsu.clear_log();
        self.dsu.update_count += 1;
        Ok(ran)
    }

    /// The call that transforms log entry `index`, marked in progress.
    /// Shared by the log walk, `Dsu.forceTransform`, and the lazy read
    /// barrier.
    pub(crate) fn transformer_call(&mut self, index: usize) -> Result<TransformerCall, VmError> {
        let (old, new) = self.dsu.pending[index];
        let class = self.heap.class_of(new);
        let Some(&mid) = self.dsu.transformer_for.get(&class) else {
            return Err(VmError::Internal {
                message: format!(
                    "no object transformer registered for {}",
                    self.registry.class(class).name
                ),
            });
        };
        let compiled = self.compiled_for(mid)?;
        self.dsu.begin(index)?;
        let note = FrameNote::TransformOf(index as u32);
        Ok(TransformerCall { compiled, args: [Value::Ref(new), Value::Ref(old)], note })
    }

    /// Runs the transformer for log entry `index` to completion on the
    /// open internal thread `thread`.
    fn transform_one(&mut self, thread: usize, index: usize) -> Result<(), VmError> {
        let call = self.transformer_call(index)?;
        self.run_on_sync_thread(thread, call.compiled, &call.args, Some(call.note)).map(|_| ())
    }

    /// Calls a static method synchronously on a dedicated internal thread
    /// (used for class transformers and by tests/examples).
    ///
    /// # Errors
    ///
    /// Propagates traps; blocking in a synchronous call is an error.
    pub fn call_static_sync(
        &mut self,
        class: &str,
        method: &str,
        args: &[Value],
    ) -> Result<Option<Value>, VmError> {
        let cid = self.registry.class_id(&ClassName::from(class)).ok_or_else(|| {
            VmError::ResolutionError { message: format!("unknown class {class}") }
        })?;
        let mid = self.registry.find_method(cid, method).ok_or_else(|| {
            VmError::ResolutionError { message: format!("unknown method {class}.{method}") }
        })?;
        let compiled = self.compiled_for(mid)?;
        let thread = self.open_sync_thread(&format!("{class}.{method}"));
        let result = self.run_on_sync_thread(thread, compiled, args, None);
        self.close_sync_thread(thread);
        result
    }

    /// Adds a parked internal thread for synchronous host-initiated calls
    /// and returns its table index. It holds no frames between calls, so
    /// the scheduler and the collector ignore it; a pass that makes many
    /// calls (the object transformers) opens one and reuses it.
    fn open_sync_thread(&mut self, what: &str) -> usize {
        let id = ThreadId(self.threads.len() as u32);
        self.threads.push(Some(VmThread::parked(id, format!("<sync:{what}>"))));
        id.0 as usize
    }

    /// Removes the internal thread [`Vm::open_sync_thread`] added, and any
    /// trailing empty slots, so sync threads don't grow the table forever.
    fn close_sync_thread(&mut self, thread: usize) {
        self.threads[thread] = None;
        while matches!(self.threads.last(), Some(None)) {
            self.threads.pop();
        }
    }

    /// Runs `compiled` over `args` to completion on the parked internal
    /// thread `thread`. On error the thread's stack is dropped, so it
    /// parks again either way.
    fn run_on_sync_thread(
        &mut self,
        idx: usize,
        compiled: Arc<CompiledMethod>,
        args: &[Value],
        note: Option<FrameNote>,
    ) -> Result<Option<Value>, VmError> {
        {
            let t = self.threads[idx].as_mut().expect("sync thread exists");
            debug_assert!(t.frames.is_empty(), "sync thread is busy");
            t.push_call(compiled, args, note)?;
            t.state = ThreadState::Runnable;
        }
        let mut gc_retry: Option<(u32, u64)> = None;
        let result = loop {
            let mut thread = self.threads[idx].take().expect("sync thread exists");
            let event = self.exec_thread(&mut thread, usize::MAX);
            self.threads[idx] = Some(thread);
            match event {
                SliceEvent::Finished => {
                    let t = self.threads[idx].as_mut().expect("sync thread");
                    break Ok(t.result.take());
                }
                SliceEvent::Trapped(e) => break Err(e),
                SliceEvent::NeedGc => {
                    if self.gc_retry_stuck(idx, &mut gc_retry) {
                        break Err(VmError::OutOfMemory { requested: 0 });
                    }
                    if let Err(e) = self.collect_full(&NoRemap) {
                        break Err(e);
                    }
                }
                SliceEvent::Blocked => {
                    let t = self.threads[idx].as_ref().expect("sync thread");
                    break Err(VmError::Internal {
                        message: format!("synchronous call on {} blocked", t.name),
                    });
                }
                SliceEvent::Quantum | SliceEvent::ReturnBarrier { .. } => continue,
            }
        };
        if result.is_err() {
            let t = self.threads[idx].as_mut().expect("sync thread");
            t.frames.clear();
            t.values.clear();
            t.state = ThreadState::Finished;
        }
        result
    }

    /// The thread `thread`, checked to own a frame `frame_idx`.
    fn frame_owner(
        &mut self,
        thread: ThreadId,
        frame_idx: usize,
    ) -> Result<&mut VmThread, VmError> {
        let t = self
            .threads
            .get_mut(thread.0 as usize)
            .and_then(|t| t.as_mut())
            .ok_or_else(|| VmError::Internal { message: format!("no thread {thread}") })?;
        if frame_idx >= t.frames.len() {
            return Err(VmError::Internal { message: format!("no frame {frame_idx} on {thread}") });
        }
        Ok(t)
    }

    /// Installs a return barrier on frame `frame_idx` of `thread` (paper
    /// §3.2): when that activation returns, the slice ends with
    /// [`SliceOutcome::ReturnBarrier`] so the driver can retry the update.
    ///
    /// # Errors
    ///
    /// Fails on a bad thread/frame index.
    pub fn install_return_barrier(
        &mut self,
        thread: ThreadId,
        frame_idx: usize,
    ) -> Result<(), VmError> {
        self.frame_owner(thread, frame_idx)?.frames[frame_idx].return_barrier = true;
        Ok(())
    }

    /// Clears every installed return barrier (update aborted or applied).
    pub fn clear_return_barriers(&mut self) {
        for t in self.threads.iter_mut().flatten() {
            for f in &mut t.frames {
                f.return_barrier = false;
            }
        }
    }

    /// On-stack replacement of a frame (paper §3.2): recompiles the method
    /// against current class metadata and swaps the frame's code.
    /// Base-tier code is 1:1 with bytecode so `pc` and the local slots
    /// carry over (a body with more locals grows the frame's slice of the
    /// value stack, moving the frames above it); a template-JIT frame
    /// first translates its pc through the fused stream's retained base-pc
    /// mapping.
    ///
    /// # Errors
    ///
    /// Fails if the frame is stale.
    pub fn osr_replace(&mut self, thread: ThreadId, frame_idx: usize) -> Result<(), VmError> {
        let f = &self.frame_owner(thread, frame_idx)?.frames[frame_idx];
        let (mid, base_pc) = (f.method, f.compiled.base_pc_of(f.pc));
        self.osr_migrate(thread, frame_idx, mid, base_pc)
    }

    /// On-stack migration of a frame to a **different method version**
    /// (the paper's §3.5 future work, modeled on UpStare): swaps the
    /// frame's method and code for `new_method` compiled at the base tier
    /// and repositions the pc at `new_pc`. Locals carry over by slot and
    /// the operand stack is preserved — the caller (the update driver)
    /// asserts that `new_pc` is an equivalent program point, as the
    /// paper's user-provided yield-point mapping does. The new code is
    /// published, and the frame keeps at least its local slots.
    /// [`Vm::osr_replace`] is this migration onto the frame's own method.
    ///
    /// # Errors
    ///
    /// Fails on a stale thread/frame or an out-of-range `new_pc`.
    pub fn osr_migrate(
        &mut self,
        thread: ThreadId,
        frame_idx: usize,
        new_method: MethodId,
        new_pc: u32,
    ) -> Result<(), VmError> {
        self.frame_owner(thread, frame_idx)?;
        let fresh = Arc::new(jit::compile(&self.registry, new_method, CompileLevel::Base)?);
        if new_pc as usize >= fresh.code.len() {
            return Err(VmError::Internal {
                message: format!("migration pc {new_pc} out of range"),
            });
        }
        self.registry.set_compiled(new_method, fresh.clone());
        let t = self.threads[thread.0 as usize].as_mut().expect("checked by frame_owner");
        let locals = t.frames[frame_idx].locals.max(fresh.max_locals);
        t.resize_locals(frame_idx, locals);
        let f = &mut t.frames[frame_idx];
        (f.method, f.compiled, f.pc) = (new_method, fresh, new_pc);
        Ok(())
    }

    /// Restores a frame's executing code, method, pc, and local-slot count
    /// — the exact inverse of [`Vm::osr_replace`] / [`Vm::osr_migrate`],
    /// used by the update controller's rollback to put an aborted update's
    /// frames back on their old code.
    ///
    /// # Errors
    ///
    /// Fails on a stale thread/frame index.
    pub fn osr_restore(
        &mut self,
        thread: ThreadId,
        frame_idx: usize,
        method: MethodId,
        compiled: Arc<CompiledMethod>,
        pc: u32,
        locals_len: usize,
    ) -> Result<(), VmError> {
        let t = self.frame_owner(thread, frame_idx)?;
        let locals = t.frames[frame_idx].locals;
        t.resize_locals(frame_idx, u16::try_from(locals_len).map_or(locals, |len| len.min(locals)));
        let f = &mut t.frames[frame_idx];
        (f.method, f.compiled, f.pc) = (method, compiled, pc);
        Ok(())
    }

    // ---- lazy migration (read-barrier epoch, see `crate::lazy`) ------------------

    /// Opens a lazy-migration epoch: the O(roots) alternative to
    /// [`Vm::collect_for_update`], taking the same class mapping and
    /// transformers. Marks the `remap` classes version-pending, snapshots
    /// the allocation **watermark** (the SATB commit point — no heap
    /// walk, no copying, no transformers, so this
    /// *is* the commit pause and it is independent of heap size), arms
    /// the read barrier, and bumps the dispatch epoch so every inline
    /// cache re-resolves into barrier-aware dispatch. Stale objects are
    /// discovered afterwards by [`Vm::lazy_scan`] batches; objects
    /// allocated past the watermark can never be stale because install
    /// already invalidated every method that could allocate a changed
    /// class. Returns the watermarked region's size in words (what the
    /// scanner will cover).
    ///
    /// # Panics
    ///
    /// Panics if an epoch is already active (updates cannot overlap).
    pub fn begin_lazy_migration(
        &mut self,
        remap: HashMap<ClassId, ClassId>,
        transformers: HashMap<ClassId, ObjectTransformer>,
    ) -> usize {
        assert!(!self.lazy.active, "a lazy-migration epoch is already active");
        let remap = self.update_table(&remap, transformers);
        self.dsu.clear_log();
        let scan_addr = self.heap.active_base();
        let scan_limit = self.heap.alloc_cursor();
        self.lazy =
            LazyEpoch { active: true, remap, scan_addr, scan_limit, ..LazyEpoch::default() };
        self.dsu.update_count += 1;
        self.registry.bump_code_epoch();
        scan_limit - scan_addr
    }

    /// Whether a lazy-migration epoch is in progress (read barrier armed).
    pub fn lazy_epoch_active(&self) -> bool {
        self.lazy.active
    }

    /// Which part of the lazy epoch's post-pause work is up next (see
    /// [`LazyStage`]); `Inactive` outside an epoch.
    pub fn lazy_stage(&self) -> LazyStage {
        self.lazy.stage()
    }

    /// Runs one bounded SATB discovery batch that converts as it
    /// discovers ([`Heap::convert_stale`]): walks the heap from the scan
    /// cursor toward the watermark and converts every not-yet-migrated
    /// stale object whose class has a copy plan on the spot, counting it
    /// as transformed and planned. Only objects whose transformer must be
    /// interpreted, and objects the full semispace had no room to convert,
    /// go on the worklist for the drain ([`Vm::lazy_scavenge`], which
    /// collects and retries). Each cell stepped over costs one of
    /// `max_cells` and each conversion one more. Objects the guest already
    /// migrated through the barrier sit behind forwarding words and are
    /// stepped over by the size those carry. Infallible — a conversion
    /// that cannot allocate falls back to the worklist.
    ///
    /// # Panics
    ///
    /// Panics outside an active epoch.
    pub fn lazy_scan(&mut self, max_cells: usize) -> ScanOutcome {
        assert!(self.lazy.active, "lazy_scan outside an epoch");
        if self.lazy.scan_done() {
            return ScanOutcome { cells: 0, found: 0, planned: 0, done: true };
        }
        let snapshot = self.registry.layout_snapshot();
        let queued = self.lazy.worklist.len();
        let (next, cells, planned) = self.heap.convert_stale(
            self.lazy.scan_addr,
            self.lazy.scan_limit,
            max_cells,
            &snapshot,
            &self.lazy.remap,
            &mut self.lazy.worklist,
        );
        self.lazy.scan_addr = next;
        self.lazy.transformed += planned;
        self.lazy.planned += planned;
        let found = planned + self.lazy.worklist.len() - queued;
        ScanOutcome { cells, found, planned, done: self.lazy.scan_done() }
    }

    /// Worklist entries the scavenger has not yet passed (empty outside
    /// an epoch), in the order it will take them. Entries the guest
    /// already migrated through the barrier stay until the scavenger
    /// skips over them.
    pub fn lazy_worklist(&self) -> &[GcRef] {
        self.lazy.pending_entries()
    }

    /// Whether the resolved cell `r` is a stale object the epoch still
    /// has to migrate: an instance of a version-pending class that is not
    /// an old-layout copy (those keep the stale class on purpose —
    /// transformers read them with old offsets, and migrating one would
    /// recurse forever — and are told apart by their header tag).
    pub(crate) fn lazy_is_stale(&self, r: GcRef) -> bool {
        self.heap.kind(r) == HeapKind::Object
            && self.lazy.remap.get(self.heap.class_of(r)).is_some()
            && self.heap.header_tag(r) == 0
    }

    /// First-touch migration: the slow path shared by the interpreter's
    /// read barrier, `Dsu.forceTransform`, and the scavenger. `r` must be
    /// a *resolved* stale object ([`Vm::lazy_is_stale`]).
    ///
    /// A class with a copy plan is converted on the spot by the same heap
    /// routine the discovery scan uses ([`Heap::apply_plan`]): only the
    /// new-layout object is allocated, filled from `r` per the plan, and
    /// `r` forwards to it — the migration is complete and counted. Such
    /// an object reaches here only if the guest touches it before the
    /// scan does, or if the scan found the semispace full. Any other
    /// class is duplicated as the eager update-GC would: an old-layout
    /// copy plus a zeroed new-layout object, logged as a pair for the
    /// caller to run the transformer over.
    ///
    /// Returns `None` if an allocation fails, with nothing installed (the
    /// caller collects and retries).
    pub(crate) fn lazy_dup(&mut self, r: GcRef) -> Option<LazyDup> {
        let old_class = self.heap.class_of(r);
        let new_class = self.lazy.remap.get(old_class).expect("lazy_dup on a stale object");
        let snapshot = self.registry.layout_snapshot();
        if let Some(plan) = self.lazy.remap.plan(old_class) {
            let new_obj = self.heap.apply_plan(r, new_class, plan, &snapshot)?;
            self.lazy.transformed += 1;
            self.lazy.planned += 1;
            return Some(LazyDup::Planned(new_obj));
        }
        let new_size = self.registry.object_size(new_class);
        let old_size = self.registry.object_size(old_class);
        let old_copy = self.heap.alloc_object(old_class, old_size)?;
        let new_obj = self.heap.alloc_object(new_class, new_size)?;
        // (If the second allocation fails the old copy is dead garbage the
        // caller's collection reclaims; no forwarding was installed.)
        for i in 0..old_size {
            let w = self.heap.get(r, i);
            self.heap.set(old_copy, i, w);
        }
        self.heap.install_forward(r, new_obj, &snapshot);
        Some(LazyDup::Logged(self.dsu.log_pair(&mut self.heap, old_copy, new_obj)))
    }

    /// Transforms up to `batch` untouched stale objects from the worklist
    /// (the epoch's background scavenger; the update controller calls this
    /// between scheduler slices). Entries the guest already migrated
    /// through the read barrier are skipped. Transformers run
    /// synchronously, exactly as [`Vm::transform_pending`] runs them in
    /// the eager protocol.
    ///
    /// # Errors
    ///
    /// Propagates transformer traps and heap exhaustion; such an error
    /// poisons the epoch (the update controller aborts).
    ///
    /// # Panics
    ///
    /// Panics outside an active epoch.
    pub fn lazy_scavenge(&mut self, batch: usize) -> Result<ScavengeOutcome, VmError> {
        assert!(self.lazy.active, "lazy_scavenge outside an epoch");
        let (mut transformed, mut planned) = (0, 0);
        // Opened on the first object that needs a transformer frame and
        // reused for the rest of the batch.
        let mut thread = None;
        let result = (|| {
            while transformed < batch && self.lazy.cursor < self.lazy.worklist.len() {
                if !self.lazy_is_stale(self.heap.resolve(self.lazy.worklist[self.lazy.cursor])) {
                    // The guest (or a recursive force) got here first.
                    self.lazy.cursor += 1;
                    continue;
                }
                let mut gc_retries = 0;
                let dup = loop {
                    // Re-read the entry each attempt: a failed allocation
                    // collects, which moves the object and drops the
                    // worklist's processed prefix (so the cursor moves too).
                    let r = self.heap.resolve(self.lazy.worklist[self.lazy.cursor]);
                    if let Some(dup) = self.lazy_dup(r) {
                        break dup;
                    }
                    if gc_retries >= 1 {
                        return Err(VmError::OutOfMemory { requested: 0 });
                    }
                    gc_retries += 1;
                    self.collect_full(&NoRemap)?;
                };
                // The object is migrated, or its pair is rooted via the
                // update log: advance past the entry before running the
                // transformer (which may itself GC).
                self.lazy.cursor += 1;
                match dup {
                    LazyDup::Planned(_) => planned += 1,
                    LazyDup::Logged(index) => {
                        let thread = *thread
                            .get_or_insert_with(|| self.open_sync_thread("object-transformer"));
                        self.transform_one(thread, index)?;
                    }
                }
                transformed += 1;
            }
            Ok(())
        })();
        if let Some(thread) = thread {
            self.close_sync_thread(thread);
        }
        result?;
        Ok(ScavengeOutcome { transformed, planned, remaining: self.lazy_worklist().len() })
    }

    /// Runs one bounded forwarding-collapse batch. The first call performs
    /// the stage's only O(roots) work — rewriting thread frames, statics,
    /// and host roots through the forwarding words and dropping the update
    /// log, at which point the stale originals and old copies are plain
    /// garbage — and records the sweep horizon. Every call then sweeps at
    /// most `max_cells` heap cells ([`Heap::sweep_forwards`]), rewriting
    /// reference slots that still point at forwarded cells; a reference
    /// array counts one cell per element, and the next call resumes at
    /// the element where this one stopped, so no call's work grows with
    /// the longest array. Reference loads resolve through forwards
    /// while the epoch is active, so swept cells can never be
    /// recontaminated by stale references read out of unswept ones.
    /// Infallible — it allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics outside an active epoch, before the scan + drain are
    /// complete, or while a transformer frame is still on some stack.
    pub fn lazy_collapse(&mut self, max_cells: usize) -> CollapseOutcome {
        assert!(self.lazy.active, "lazy_collapse outside an epoch");
        assert!(
            self.lazy.scan_done() && self.lazy.cursor >= self.lazy.worklist.len(),
            "lazy_collapse before the epoch drained"
        );
        assert_eq!(self.dsu.depth, 0, "transformer still in progress");
        if !self.lazy.collapsing {
            self.resolve_stacks();
            let heap = &self.heap;
            let jtoc_slots: Vec<u32> = self.registry.jtoc_ref_slots().collect();
            for slot in jtoc_slots {
                let old = self.registry.jtoc_get(slot) as u32;
                self.registry.jtoc_set(slot, u64::from(heap.resolve(GcRef(old)).0));
            }
            for r in &mut self.host_roots {
                *r = heap.resolve(*r);
            }
            self.dsu.clear_log();
            self.lazy.worklist.clear();
            self.lazy.cursor = 0;
            self.lazy.collapsing = true;
            if self.heap.has_lazy_forwards() {
                self.lazy.sweep_addr = self.heap.active_base();
                self.lazy.sweep_limit = self.heap.alloc_cursor();
            }
            // else: no forwarding word exists anywhere (e.g. a zero-stale
            // epoch) — the zero-length sweep is already done.
        }
        if self.lazy.sweep_addr >= self.lazy.sweep_limit {
            return CollapseOutcome { cells: 0, rewritten: 0, done: true };
        }
        let snapshot = self.registry.layout_snapshot();
        let (next, slot, cells, rewritten) = self.heap.sweep_forwards(
            self.lazy.sweep_addr,
            self.lazy.sweep_slot,
            self.lazy.sweep_limit,
            max_cells,
            &snapshot,
        );
        self.lazy.sweep_addr = next;
        self.lazy.sweep_slot = slot;
        CollapseOutcome { cells, rewritten, done: self.lazy.sweep_addr >= self.lazy.sweep_limit }
    }

    /// Closes a collapsed lazy-migration epoch: clears the epoch state
    /// and bumps the dispatch epoch again (inline caches re-resolve back
    /// onto the barrier-free fast path). Unlike the eager protocol there
    /// is **no commit collection**: the collapse already detached every
    /// live reference from the forwarding words, so the stale originals
    /// are reclaimed by whatever collection happens naturally next.
    /// Returns how many objects the epoch migrated, and how many of them
    /// by copy plan.
    ///
    /// # Panics
    ///
    /// Panics unless the epoch reached [`LazyStage::Done`] or a
    /// transformer is still on some stack.
    pub fn finish_lazy_migration(&mut self) -> EpochTotals {
        assert!(self.lazy.active, "finish_lazy_migration outside an epoch");
        assert_eq!(self.lazy.stage(), LazyStage::Done, "epoch not collapsed");
        assert_eq!(self.dsu.depth, 0, "transformer still in progress");
        let totals = self.lazy.reset();
        self.dsu.clear_log();
        self.registry.bump_code_epoch();
        totals
    }

    // ---- host-side heap access (tests, microbenchmarks) --------------------------

    /// Allocates an instance of `class` from the host, rooted in the VM's
    /// host-root table. Returns the root index (stable across GCs; the ref
    /// itself moves).
    ///
    /// # Errors
    ///
    /// Returns [`VmError::OutOfMemory`] if allocation fails even after GC.
    pub fn host_alloc(&mut self, class: &str) -> Result<usize, VmError> {
        let cid = self.registry.class_id(&ClassName::from(class)).ok_or_else(|| {
            VmError::ResolutionError { message: format!("unknown class {class}") }
        })?;
        let size = self.registry.object_size(cid);
        let r = match self.heap.alloc_object(cid, size) {
            Some(r) => r,
            None => {
                self.collect_full(&NoRemap)?;
                self.heap
                    .alloc_object(cid, size)
                    .ok_or(VmError::OutOfMemory { requested: size + 1 })?
            }
        };
        self.host_roots.push(r);
        Ok(self.host_roots.len() - 1)
    }

    /// Current heap reference of host root `idx`.
    pub fn host_root(&self, idx: usize) -> GcRef {
        self.host_roots[idx]
    }

    /// Drops all host roots (they become garbage).
    pub fn clear_host_roots(&mut self) {
        self.host_roots.clear();
    }

    /// Reads an instance field of the object at `r` by name.
    ///
    /// # Panics
    ///
    /// Panics on an unknown field (host-side test/bench helper).
    pub fn read_field(&self, r: GcRef, field: &str) -> Value {
        let class = self.heap.class_of(r);
        let (off, is_ref) =
            self.registry.field_offset(class, field).expect("known field");
        Value::from_word(self.heap.get(r, off as usize), is_ref)
    }

    /// Writes an instance field of the object at `r` by name.
    ///
    /// # Panics
    ///
    /// Panics on an unknown field.
    pub fn write_field(&mut self, r: GcRef, field: &str, v: Value) {
        let class = self.heap.class_of(r);
        let (off, _) = self.registry.field_offset(class, field).expect("known field");
        self.heap.set(r, off as usize, v.to_word());
    }

    /// Reads a static field by name.
    ///
    /// # Panics
    ///
    /// Panics on an unknown class or field.
    pub fn read_static(&self, class: &str, field: &str) -> Value {
        let cid = self.registry.class_id(&ClassName::from(class)).expect("known class");
        let (slot, is_ref) = self.registry.static_slot(cid, field).expect("known static");
        Value::from_word(self.registry.jtoc_get(slot), is_ref)
    }

    /// Renders a [`Value`] for assertions: strings are read from the heap.
    pub fn display_value(&self, v: Value) -> String {
        match v {
            Value::Ref(r) if self.heap.kind(r) == HeapKind::Str => self.heap.read_string(r),
            other => other.to_string(),
        }
    }

    /// Allocates a guest string from the host.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::OutOfMemory`] if allocation fails even after GC.
    pub fn alloc_string_value(&mut self, s: &str) -> Result<Value, VmError> {
        match self.heap.alloc_string(s) {
            Some(r) => Ok(Value::Ref(r)),
            None => {
                self.collect_full(&NoRemap)?;
                self.heap
                    .alloc_string(s)
                    .map(Value::Ref)
                    .ok_or(VmError::OutOfMemory { requested: s.len() / 8 + 1 })
            }
        }
    }

    /// Looks up a constructor method id (host/test helper).
    pub fn ctor_of(&self, class: &str) -> Option<MethodId> {
        let cid = self.registry.class_id(&ClassName::from(class))?;
        self.registry.find_method(cid, CTOR_NAME)
    }
}

/// An object transformer ready to start: `jvolve_object_X(new, old)`, and
/// the note naming its update-log entry for the frame to carry.
#[derive(Debug)]
pub(crate) struct TransformerCall {
    pub compiled: Arc<CompiledMethod>,
    pub args: [Value; 2],
    pub note: FrameNote,
}

/// What [`Vm::lazy_dup`] did with a stale object.
pub(crate) enum LazyDup {
    /// A copy plan converted it; the new object is complete.
    Planned(GcRef),
    /// It was duplicated and logged at this update-log index; the
    /// transformer has yet to run.
    Logged(usize),
}

// A fleet shard owns its `Vm` on a dedicated OS thread; this compile-time
// check keeps the VM (heap, registry, threads, simulated net) `Send` so a
// non-`Send` field sneaking in fails the build, not a fleet test.
const fn _assert_send<T: Send>() {}
const _: () = _assert_send::<Vm>();
