//! The virtual machine: heap + registry + green threads + scheduler,
//! plus the DSU *mechanisms* (GC-coordinated object duplication, the
//! update log, transformer execution, return barriers, OSR) that the
//! `jvolve` crate's update driver composes into the paper's protocol.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::Arc;

use jvolve_classfile::class::CTOR_NAME;
use jvolve_classfile::{ClassFile, ClassName};

use crate::compiled::CompiledMethod;
use crate::config::VmConfig;
use crate::error::VmError;
use crate::heap::{
    ClassLayouts, CopyPlan, GcOutcome, GcRemap, Heap, HeapKind, LoggedPair, NoRemap, RemapTable,
};
use crate::ids::{ClassId, MethodId, ThreadId};
use crate::interp::SliceEvent;
use crate::jit;
use crate::lazy::{CopyStep, EpochTotals, LazyEpoch, LazyStage, MAX_TRANSFORMER_DEPTH};
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
    /// Collections that flipped the semispaces with every thread stopped,
    /// an eager update's copy included (a lazy epoch's incremental copy is
    /// not one; a collection that finishes it counts once, for the flip
    /// that follows).
    pub gcs: u64,
    /// Methods compiled (resolved), fused or not.
    pub base_compiles: u64,
    /// Always 0: there is no opt tier (DESIGN §2). The field survives only
    /// because `benchmark/src/layers.rs`, frozen outside benchmark PRs,
    /// reads it; ROADMAP item 1 (the benchmark-correction PR) deletes it
    /// with `VmConfig::gc_threads`.
    pub opt_compiles: u64,
    /// Of `base_compiles`, those fused by the template JIT: all of them
    /// with the jit on, none with it off.
    pub jit_compiles: u64,
    /// Always 0: fused code is never swapped back onto an unfused body, it
    /// is invalidated and recompiled like any other (DESIGN §5). Kept, like
    /// `ic_hits`, only because `benchmark/src/layers.rs`, frozen outside
    /// benchmark PRs, reads it.
    pub deopts: u64,
    /// Interpreter steps executed inside fused superinstructions or the
    /// leaf-call fast path. Always counted *in addition to* `steps` — the
    /// ratio `fused_steps / steps` is the fusion coverage of a run.
    pub fused_steps: u64,
    /// Always 0: there are no inline caches (a call resolves through the
    /// registry; DESIGN §5). Kept, with `ic_misses`, only because
    /// `benchmark/src/layers.rs`, frozen outside benchmark PRs, reads it;
    /// ROADMAP item 1 (the benchmark-correction PR) deletes both.
    pub ic_hits: u64,
    /// Always 0, like `ic_hits`.
    pub ic_misses: u64,
}

/// How instances of one updated class reach their new layout.
#[derive(Debug, Clone)]
pub enum ObjectTransformer {
    /// A pure field copy, applied natively wherever the update's copy
    /// evacuates the object: no old copy, no update-log entry, no frame.
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
    /// The update log: (old copy, new object) pairs from the running
    /// update's copy (paper §3.4), in the order it duplicated them.
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
    pub(crate) fn log_pair(&mut self, heap: &mut Heap, old_copy: GcRef, new_obj: GcRef) {
        let tag = u32::try_from(self.pending.len() + 1).expect("update log outgrew the header tag");
        heap.set_header_tag(old_copy, tag);
        heap.set_header_tag(new_obj, tag);
        self.pending.push((old_copy, new_obj));
        self.state.push(EntryState::Pending);
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

    /// Returns executable code for `mid`, compiling it if it has none
    /// (first call, or invalidated by an update): "the adaptive compilation
    /// system naturally optimizes updated methods" (paper §1) becomes one
    /// compile, fused when the template JIT is on.
    pub(crate) fn compiled_for(&mut self, mid: MethodId) -> Result<Arc<CompiledMethod>, VmError> {
        debug_assert!(self.registry.method(mid).native.is_none(), "natives are dispatched separately");
        match &self.registry.method(mid).compiled {
            Some(c) => Ok(Arc::clone(c)),
            None => self.compile(mid),
        }
    }

    /// Compiles `mid` in the VM's one form (fused iff the template JIT is
    /// on), counts it and publishes it as the method's code.
    fn compile(&mut self, mid: MethodId) -> Result<Arc<CompiledMethod>, VmError> {
        let fuse = self.config.enable_jit;
        let compiled = Arc::new(jit::compile(&self.registry, mid, fuse)?);
        self.stats.base_compiles += 1;
        self.stats.jit_compiles += u64::from(fuse);
        self.registry.set_compiled(mid, Arc::clone(&compiled));
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

    /// Runs an ordinary full collection ([`Heap::collect`]) over every
    /// root and rewrites the roots. While a lazy epoch's copy runs, it
    /// first finishes that copy (see [`crate::lazy`]) — to-space always
    /// holds room for it — and then collects the finished heap, so it
    /// reclaims the garbage the mutator allocated beside the copy. `remap`
    /// must remap nothing: an update's copy is [`Vm::begin_update_copy`].
    ///
    /// # Errors
    ///
    /// [`VmError::Internal`] if `remap` remaps a class; heap exhaustion
    /// while finishing a lazy epoch's copy.
    pub fn collect_full(&mut self, remap: &dyn GcRemap) -> Result<GcOutcome, VmError> {
        if (0..self.registry.num_classes()).any(|i| remap.remap(ClassId(i as u32)).is_some()) {
            return Err(VmError::Internal {
                message: "collect_full cannot remap: begin_update_copy starts an update".into(),
            });
        }
        if self.heap.copying() {
            self.lazy_copy_step(usize::MAX, usize::MAX)?;
        }
        let mut roots = Vec::new();
        self.for_each_root(|_, r| roots.push(*r));
        let snapshot = self.registry.layout_snapshot();
        let outcome = self.heap.collect(&roots, &snapshot)?;
        self.stats.gcs += 1;
        self.for_each_root(|heap, r| *r = heap.resolve(*r));
        Ok(outcome)
    }

    /// Visits every root location, with the heap, in the order a
    /// collection copies from them: thread stacks, non-null statics, the
    /// update log's pairs, host roots.
    fn for_each_root(&mut self, mut f: impl FnMut(&mut Heap, &mut GcRef)) {
        let Vm { threads, heap, registry, dsu, host_roots, .. } = self;
        for v in threads.iter_mut().flatten().flat_map(|t| &mut t.values) {
            if let Value::Ref(r) = v {
                f(heap, r);
            }
        }
        for word in registry.jtoc_refs_mut() {
            let mut r = GcRef(*word as u32);
            f(heap, &mut r);
            *word = u64::from(r.0);
        }
        for (old, new) in &mut dsu.pending {
            f(heap, old);
            f(heap, new);
        }
        for r in host_roots {
            f(heap, r);
        }
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

    /// Heap words the update log keeps alive in old-layout copies (zero
    /// for a fully planned update).
    pub fn update_log_words(&self) -> usize {
        let words = |old| 1 + self.registry.object_size(self.heap.class_of(old));
        self.dsu.pending.iter().map(|&(old, _)| words(old)).sum()
    }

    /// The call that transforms log entry `index`, marked in progress.
    /// Shared by [`Vm::run_transformers`], `Dsu.forceTransform`, and the
    /// read barrier.
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
    /// against current class metadata and swaps the frame's code. The
    /// frame's pc goes through its bytecode pc (the identity for unfused
    /// code), and the local slots carry over (a body with more locals grows
    /// the frame's slice of the value stack, moving the frames above it).
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
    /// frame's method and code for `new_method`, compiled in the VM's one
    /// form, and repositions the pc at bytecode pc `new_pc`. Locals carry
    /// over by slot and the operand stack is preserved — the caller (the
    /// update driver) asserts that `new_pc` is an equivalent program
    /// point, as the paper's user-provided yield-point mapping does. Such a
    /// point is a method entry, a branch target or a return site, and
    /// fusion ends an op at each of these. The new code is published, and
    /// the frame keeps at least its local slots. [`Vm::osr_replace`] is
    /// this migration onto the frame's own method.
    ///
    /// # Errors
    ///
    /// Fails on a stale thread/frame, or on a `new_pc` that is out of range
    /// or inside a fused op.
    pub fn osr_migrate(
        &mut self,
        thread: ThreadId,
        frame_idx: usize,
        new_method: MethodId,
        new_pc: u32,
    ) -> Result<(), VmError> {
        self.frame_owner(thread, frame_idx)?;
        let fresh = self.compile(new_method)?;
        let Some(pc) = fresh.pc_of_base(new_pc) else {
            return Err(VmError::Internal {
                message: format!("migration pc {new_pc} is not an op boundary"),
            });
        };
        let t = self.threads[thread.0 as usize].as_mut().expect("checked by frame_owner");
        let locals = t.frames[frame_idx].locals.max(fresh.max_locals);
        t.resize_locals(frame_idx, locals);
        let f = &mut t.frames[frame_idx];
        (f.method, f.compiled, f.pc) = (new_method, fresh, pc);
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

    // ---- the update's copy, eager or lazy (see `crate::lazy`) ------------------

    /// Starts an update's copy — the update-GC of paper §3.4 — through the
    /// class mapping `remap`; `transformers` maps each *new* class to its
    /// object transformer. Flips the semispaces and evacuates the roots'
    /// referents through the collector's copy arms: an instance of a class
    /// with an [`ObjectTransformer::Plan`] is converted where it is copied,
    /// any other is duplicated and its (old copy, new object) pair logged
    /// and queued for [`Vm::run_transformers`].
    ///
    /// `step_cells` says whether the copy finishes in this call. `None`, an
    /// eager commit, runs the scan to the end ([`Heap::finish_copy`], one
    /// stop-the-world collection) and runs no transformer, so the caller
    /// can run class transformers first, as the paper does. `Some(n)` opens
    /// a lazy epoch: arrays longer than `n` words are evacuated unfilled, so
    /// the call copies O(roots) words, then runs the roots' pairs'
    /// transformers; [`Vm::lazy_copy_step`] and the read barrier copy the
    /// rest. Returns the from-space words in use at the flip.
    ///
    /// # Errors
    ///
    /// Heap exhaustion and transformer traps; the copy is then poisoned.
    ///
    /// # Panics
    ///
    /// Panics if an update's copy is already open (updates cannot overlap).
    pub fn begin_update_copy(
        &mut self,
        remap: HashMap<ClassId, ClassId>,
        transformers: HashMap<ClassId, ObjectTransformer>,
        step_cells: Option<usize>,
    ) -> Result<usize, VmError> {
        assert!(!self.lazy.active, "an update's copy is already running");
        let remap = self.update_table(&remap, transformers);
        self.dsu.clear_log();
        self.lazy = LazyEpoch { active: true, ..LazyEpoch::default() };
        self.dsu.update_count += 1;
        let snapshot = self.registry.layout_snapshot();
        self.heap.flip(step_cells.map_or(usize::MAX, |n| n.max(1)), &snapshot, &remap);
        let from_words = self.heap.from_space_words();

        // The roots' referents, in `collect_full`'s order.
        let (mut log, mut evacuated) = (Vec::new(), Ok(()));
        self.for_each_root(|heap, r| {
            if evacuated.is_ok() && heap.in_from_space(u64::from(r.0)) {
                match heap.evacuate(*r, &snapshot, &remap, &mut log) {
                    Ok(new) => *r = new,
                    Err(e) => evacuated = Err(e),
                }
            }
        });
        if step_cells.is_none() {
            evacuated = evacuated.and_then(|()| self.heap.finish_copy(&snapshot, &remap, &mut log));
            self.stats.gcs += u64::from(evacuated.is_ok());
        }
        self.lazy.remap = remap;
        self.queue_logged(log);
        evacuated?;
        self.end_copy_if_done();
        if step_cells.is_some() {
            self.run_transformers()?;
        }
        Ok(from_words)
    }

    /// Whether an update's copy is open (from [`Vm::begin_update_copy`] to
    /// [`Vm::finish_update_copy`]; for an eager commit, within one step).
    pub fn lazy_epoch_active(&self) -> bool {
        self.lazy.active
    }

    /// Where the update's copy stands (see [`LazyStage`]): `Copy` while the
    /// copy runs, a logged pair waits for its transformer, or a
    /// transformer is still on some stack; `Inactive` outside one.
    pub fn lazy_stage(&self) -> LazyStage {
        if !self.lazy.active {
            LazyStage::Inactive
        } else if self.heap.copying() || !self.lazy.queue.is_empty() || self.dsu.depth > 0 {
            LazyStage::Copy
        } else {
            LazyStage::Done
        }
    }

    /// Runs one bounded step of the epoch's incremental copy: advances the
    /// Cheney scan by at most `max_cells` budget units (at least 2),
    /// stopping after `batch` duplicated pairs ([`Heap::copy_step`]); ends the copy if
    /// the scan met the allocation cursor; then runs the transformer of
    /// every pair logged so far, lowest from-space address first, so no
    /// guest code ever sees a zeroed new object. A step with the copy done
    /// only runs what is still queued.
    ///
    /// # Errors
    ///
    /// Heap exhaustion and transformer traps; such an error poisons the
    /// epoch (the update controller aborts).
    ///
    /// # Panics
    ///
    /// Panics outside an active epoch.
    pub fn lazy_copy_step(&mut self, max_cells: usize, batch: usize) -> Result<CopyStep, VmError> {
        assert!(self.lazy.active, "lazy_copy_step outside an epoch");
        let (words, planned) = self.copied_so_far();
        let logged = self.lazy.logged;
        let mut cells = 0;
        if self.heap.copying() {
            let snapshot = self.registry.layout_snapshot();
            let mut log = Vec::new();
            let step = self.heap.copy_step(
                max_cells.max(2),
                batch.max(1),
                &snapshot,
                &self.lazy.remap,
                &mut log,
            );
            self.queue_logged(log);
            cells = step?;
            self.end_copy_if_done();
        }
        self.run_transformers()?;
        let (words_now, planned_now) = self.copied_so_far();
        Ok(CopyStep {
            cells,
            words: words_now - words,
            planned: planned_now - planned,
            logged: self.lazy.logged - logged,
            done: self.lazy_stage() == LazyStage::Done,
        })
    }

    /// Words and planned objects the epoch's copy has evacuated so far.
    fn copied_so_far(&self) -> (usize, usize) {
        let c = if self.heap.copying() { self.heap.copied() } else { &self.lazy.copied };
        (c.copied_words, c.planned)
    }

    /// Frees from-space once the scan has met the allocation cursor.
    fn end_copy_if_done(&mut self) {
        if self.heap.copying() && self.heap.copy_done() {
            self.lazy.copied = self.heap.end_copy();
        }
    }

    /// Puts pairs the copy duplicated on the update log (stamping both
    /// headers) and in the transformer queue, kept sorted highest from-space
    /// address first. A copy mostly logs in ascending order, so the batch
    /// goes in reversed and the sort only confirms it.
    fn queue_logged(&mut self, log: Vec<LoggedPair>) {
        if log.is_empty() {
            return;
        }
        self.lazy.logged += log.len();
        let first = self.dsu.pending.len();
        for &(_, old_copy, new_obj) in &log {
            self.dsu.log_pair(&mut self.heap, old_copy, new_obj);
        }
        let entries = log.iter().enumerate().map(|(i, &(from, ..))| (from, first + i));
        self.lazy.queue.extend(entries.rev());
        self.lazy.queue.sort_unstable_by(|a, b| b.cmp(a));
    }

    /// Pops the queued (from-space address, log index) with the lowest
    /// address whose transformer has not started (`Dsu.forceTransform` may
    /// have run one early); pushing it back requeues it in place.
    pub(crate) fn next_queued(&mut self) -> Option<(u32, usize)> {
        while let Some(entry) = self.lazy.queue.pop() {
            if self.dsu.state[entry.1] == EntryState::Pending {
                return Some(entry);
            }
        }
        None
    }

    /// Runs the transformer of every queued pair, lowest from-space address
    /// first, on one internal thread, and returns how many ran; pairs their
    /// loads log join the queue. Once the copy is done nothing joins it,
    /// so this walks the whole update log in that order.
    ///
    /// # Errors
    ///
    /// Transformer traps (including [`VmError::TransformerCycle`]); the
    /// update has then failed.
    pub fn run_transformers(&mut self) -> Result<usize, VmError> {
        if self.lazy.queue.is_empty() {
            return Ok(0);
        }
        // One internal thread runs every transformer of the pass.
        let (thread, mut ran) = (self.open_sync_thread("object-transformer"), 0);
        let result = loop {
            let Some((_, index)) = self.next_queued() else { break Ok(ran) };
            if let Err(e) = self.transform_one(thread, index) {
                break Err(e);
            }
            ran += 1;
        };
        self.close_sync_thread(thread);
        result
    }

    /// Runs the transformer for log entry `index` to completion on the
    /// open internal thread `thread`.
    fn transform_one(&mut self, thread: usize, index: usize) -> Result<(), VmError> {
        let call = self.transformer_call(index)?;
        self.run_on_sync_thread(thread, call.compiled, &call.args, Some(call.note)).map(|_| ())
    }

    /// The read barrier's slow path for `r`, a from-space address just
    /// loaded from a reference slot: evacuates it ([`Heap::evacuate`]),
    /// queueing the pair if it was duplicated, and returns where it went.
    pub(crate) fn lazy_evacuate(&mut self, r: GcRef) -> Result<GcRef, VmError> {
        let snapshot = self.registry.layout_snapshot();
        let mut log = Vec::new();
        let result = self.heap.evacuate(r, &snapshot, &self.lazy.remap, &mut log);
        self.queue_logged(log);
        result
    }

    /// Checks the invariants of an update's copy (trivially true outside
    /// one): no root and no cell the copy has scanned holds a from-space
    /// reference; every unfilled array's original forwards to it; both
    /// objects of every logged pair carry its log index + 1 until its
    /// transformer returns (the old copy keeps it); and from-space is empty
    /// once the copy is done. Debug builds check after the commit step and
    /// every `LazyMigrating` step.
    ///
    /// # Errors
    ///
    /// Describes the first violation found.
    pub fn check_epoch_invariants(&mut self) -> Result<(), String> {
        if !self.lazy.active {
            return Ok(());
        }
        let heap = &self.heap;
        let from_space = |r: &GcRef| heap.in_from_space(u64::from(r.0));
        if let Some(r) = self.stack_refs().find(from_space) {
            return Err(format!("a thread stack holds from-space {r}"));
        }
        if let Some(slot) = self
            .registry
            .jtoc_ref_slots()
            .find(|&slot| heap.in_from_space(self.registry.jtoc_get(slot)))
        {
            return Err(format!("static slot {slot} holds a from-space reference"));
        }
        if let Some(r) = self.host_roots.iter().find(|r| from_space(r)) {
            return Err(format!("host root {r} is in from-space"));
        }
        for (i, (&(old, new), state)) in self.dsu.pending.iter().zip(&self.dsu.state).enumerate() {
            let tag = u32::try_from(i + 1).unwrap_or(u32::MAX);
            let new_tag = if *state == EntryState::Done { 0 } else { tag };
            if from_space(&old) || from_space(&new) {
                return Err(format!("logged pair {i} is in from-space"));
            }
            if heap.header_tag(old) != tag || heap.header_tag(new) != new_tag {
                return Err(format!("logged pair {i} ({old}, {new}) has the wrong header tags"));
            }
        }
        if self.lazy_stage() == LazyStage::Done && self.heap.copying() {
            return Err("the epoch is done but from-space is not empty".into());
        }
        let snapshot = self.registry.layout_snapshot();
        self.heap.check_heap(&snapshot)
    }

    /// Closes an update's finished copy, deleting the update log (paper
    /// §3.4: the old copies become unreachable), and returns what it
    /// migrated and copied. No collection runs: the copy was the
    /// collection.
    ///
    /// # Panics
    ///
    /// Panics unless the copy reached [`LazyStage::Done`].
    pub fn finish_update_copy(&mut self) -> EpochTotals {
        assert_eq!(self.lazy_stage(), LazyStage::Done, "the update's copy is not finished");
        let totals = self.lazy.reset();
        self.dsu.clear_log();
        totals
    }

    // ---- host-side heap access (tests, microbenchmarks) --------------------------

    /// Allocates with `alloc`, collecting once when it fails.
    fn alloc_or_collect<T>(
        &mut self,
        requested: usize,
        mut alloc: impl FnMut(&mut Heap) -> Option<T>,
    ) -> Result<T, VmError> {
        if let Some(v) = alloc(&mut self.heap) {
            return Ok(v);
        }
        self.collect_full(&NoRemap)?;
        alloc(&mut self.heap).ok_or(VmError::OutOfMemory { requested })
    }

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
        let r = self.alloc_or_collect(size + 1, |heap| heap.alloc_object(cid, size))?;
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
        self.alloc_or_collect(s.len() / 8 + 1, |heap| heap.alloc_string(s)).map(Value::Ref)
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

// A fleet shard owns its `Vm` on a dedicated OS thread; this compile-time
// check keeps the VM (heap, registry, threads, simulated net) `Send` so a
// non-`Send` field sneaking in fails the build, not a fleet test.
const fn _assert_send<T: Send>() {}
const _: () = _assert_send::<Vm>();
