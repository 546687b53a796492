//! The execution engine.
//!
//! Executes resolved code ([`RInstr`]) against the heap. Yield points sit
//! at method entries, method exits and loop back-edges (paper §3.2) — a
//! thread asked to stop only pauses at one of those, which is what makes
//! every inter-slice point a VM safe point. Return barriers and the
//! lazy-indirection access checks are implemented here.

use std::sync::Arc;

use jvolve_classfile::STRING_CLASS;

use crate::compiled::{CompileLevel, CompiledMethod, RInstr};
use crate::error::VmError;
use crate::heap::HeapKind;
use crate::icache::SiteEntry;
use crate::ids::{ClassId, MethodId};
use crate::lazy::MAX_TRANSFORMER_DEPTH;
use crate::natives::NativeFn;
use crate::thread::{BlockOn, Frame, FrameNote, ThreadState, VmThread, FRAME_POOL_CAP};
use crate::value::{GcRef, Value};
use crate::vm::{LazyDup, Vm};

/// Why a thread execution slice stopped.
#[derive(Debug, Clone, PartialEq)]
pub enum SliceEvent {
    /// Quantum exhausted (stopped at a yield point) or explicit yield.
    Quantum,
    /// Thread blocked on a resource; pc/stack are positioned to retry.
    Blocked,
    /// Thread ran to completion.
    Finished,
    /// Thread died with a trap.
    Trapped(VmError),
    /// A frame with a return barrier returned (paper §3.2).
    ReturnBarrier {
        /// The method that returned.
        method: MethodId,
    },
    /// An allocation needs a collection; pc/stack are positioned to retry.
    NeedGc,
}

/// Outcome of a native call.
enum NOut {
    /// Pop the arguments, push the value (if any), advance.
    Val(Option<Value>),
    /// Leave pc and stack untouched; block the thread.
    Block(BlockOn),
    /// Pop the arguments, advance, then block (sleep-style).
    BlockAfter(BlockOn),
    /// Leave pc and stack untouched; run a GC and retry.
    NeedGc,
    /// Kill the thread.
    Trap(VmError),
    /// Pop the arguments, advance, then run this frame (transformers).
    Frame(Box<Frame>),
    /// Leave pc and stack untouched; run this frame, then retry the
    /// instruction (lazy-migration barrier hit inside a native).
    Barrier(Box<Frame>),
    /// Pop the arguments, advance, then end the slice.
    Yield,
}

/// Result of a lazy object check (JDrums indirection or the
/// lazy-migration read barrier).
enum Lazy {
    /// Access this (resolved, current-version) object.
    Ready(GcRef),
    /// An allocation needs a collection; retry the instruction after.
    NeedGc,
    /// Lazy migration duplicated a stale object: run this transformer
    /// frame with pc and stack untouched, then retry the instruction.
    Run(Box<Frame>),
    /// The barrier itself trapped (depth limit, missing transformer).
    Trap(VmError),
}

impl Vm {
    /// Runs `t` until a slice-ending event, with `budget` steps before the
    /// next yield point ends the slice.
    pub(crate) fn exec_thread(&mut self, t: &mut VmThread, budget: usize) -> SliceEvent {
        let (event, steps) = self.exec_inner(t, budget);
        // Folded once per slice rather than once per instruction; callers
        // (e.g. GC-retry stuck detection) only read the total between
        // `exec_thread` calls, which always see it up to date.
        self.stats.steps += steps as u64;
        event
    }

    fn exec_inner(&mut self, t: &mut VmThread, budget: usize) -> (SliceEvent, usize) {
        let mut steps: usize = 0;
        let use_ic = self.config.enable_inline_caches;
        let opt_threshold = self.config.opt_threshold;
        let enable_opt = self.config.enable_opt;
        let enable_jit = self.config.enable_jit;
        let jit_threshold = self.config.jit_threshold;

        'outer: loop {
            let Some(fi) = t.frames.len().checked_sub(1) else {
                t.state = ThreadState::Finished;
                return (SliceEvent::Finished, steps);
            };
            // Template-JIT epoch check at method entry/re-entry: a fused
            // frame whose dispatch epoch moved revalidates against the
            // registry, deoptimizing onto its retained base body if its
            // method was replaced underneath it (DESIGN §5). One cached
            // epoch compare when nothing changed.
            self.jit_revalidate(t, fi);
            // SAFETY: nothing replaces `frames[fi].compiled` while this
            // activation executes — OSR runs only between slices, a
            // registry recompilation swaps the *registry's* `Arc`, never
            // the frame's, and the in-loop swaps (template-JIT OSR-in on
            // a back-edge, deopt via `jit_revalidate`) re-enter 'outer
            // immediately without touching the borrow again — and the
            // borrow is last used before the frame pops (the return path
            // re-enters 'outer immediately, and the popped frame keeps
            // the `Arc` alive through the arm).
            // Pushing frames may move the `Arc` struct itself; the
            // pointee is heap-allocated and unaffected.
            let code: &CompiledMethod =
                unsafe { &*Arc::as_ptr(&t.frames[fi].compiled) };
            let code_key = Arc::as_ptr(&t.frames[fi].compiled) as usize;

            loop {
                steps += 1;
                let pc = t.frames[fi].pc as usize;
                debug_assert!(pc < code.code.len(), "pc ran off method end");
                let instr = &code.code[pc];
                let frame = &mut t.frames[fi];

                macro_rules! trap {
                    ($e:expr) => {{
                        return (SliceEvent::Trapped($e), steps);
                    }};
                }
                macro_rules! push {
                    ($v:expr) => {
                        frame.stack.push($v)
                    };
                }
                macro_rules! pop {
                    () => {
                        frame.stack.pop().expect("verified code: stack underflow")
                    };
                }
                // The read-barrier dance shared by every reference load:
                // `Run` pushes the object transformer with pc and stack
                // untouched, so the faulting instruction (which only
                // *peeked* its operands) retries after it returns.
                macro_rules! barrier {
                    ($obj:expr) => {
                        match self.lazy_object($obj) {
                            Lazy::Ready(o) => o,
                            Lazy::NeedGc => return (SliceEvent::NeedGc, steps),
                            Lazy::Run(f) => {
                                if t.frames.len() >= self.config.max_stack_depth {
                                    trap!(VmError::StackOverflow);
                                }
                                t.frames.push(*f);
                                continue 'outer;
                            }
                            Lazy::Trap(e) => trap!(e),
                        }
                    };
                }
                // The shared return path: pops the frame, processes its
                // note, recycles its vectors, delivers the value, and
                // ends the slice if a barrier fired, the thread finished,
                // or the budget ran out. Used by the plain return arms
                // and every fused superinstruction ending in a return.
                macro_rules! do_return {
                    ($value:expr) => {{
                        let value: Option<Value> = $value;
                        let mut done = t.frames.pop().expect("frame present");
                        if let Some(FrameNote::TransformOf(index)) = done.note {
                            self.dsu.finish(&mut self.heap, index as usize);
                            if self.lazy.active {
                                self.lazy.transformed += 1;
                            }
                        }
                        // Recycle the frame's vectors (cleared, so the GC
                        // and roots never see stale references). Gated with
                        // the inline caches: together they are the
                        // steady-state dispatch fast path, and caches-off
                        // holds the stock per-call allocation behavior.
                        if use_ic && t.pool.len() < FRAME_POOL_CAP {
                            done.locals.clear();
                            done.stack.clear();
                            t.pool.push((
                                std::mem::take(&mut done.locals),
                                std::mem::take(&mut done.stack),
                            ));
                        }
                        match t.frames.last_mut() {
                            Some(caller) => {
                                if let Some(v) = value {
                                    caller.stack.push(v);
                                }
                            }
                            None => {
                                t.result = value;
                            }
                        }
                        if done.return_barrier {
                            // Paper §3.2: the bridge code notifies the
                            // update driver, which restarts the update.
                            return (
                                SliceEvent::ReturnBarrier { method: done.method },
                                steps,
                            );
                        }
                        if t.frames.is_empty() {
                            t.state = ThreadState::Finished;
                            return (SliceEvent::Finished, steps);
                        }
                        if steps >= budget {
                            return (SliceEvent::Quantum, steps);
                        }
                        continue 'outer;
                    }};
                }

                let mut next_pc = pc + 1;

                // The inline-cache hit tail shared by every call arm:
                // hotness sampling (so adaptive recompilation triggers at
                // the same call number as with caches off), tier
                // promotion to Opt or to the template JIT, and — for
                // whitelisted leaf callees — execution without
                // materializing a frame. Expands to `true` when the call
                // was fully handled (the surrounding arm must have left
                // via `continue`), `false` to fall through to the
                // resolving slow path.
                macro_rules! ic_hit {
                    ($callee:ident, $total:expr) => {{
                        let pre = $callee.invocations.bump();
                        let promote = (enable_opt
                            && $callee.level == CompileLevel::Base
                            && pre >= opt_threshold)
                            || (enable_jit
                                && $callee.level != CompileLevel::Jit
                                && pre.saturating_add($callee.loop_trips.get())
                                    >= jit_threshold);
                        if promote {
                            // Crossed a tier threshold: fall through to
                            // the slow path, which recompiles.
                            false
                        } else {
                            if enable_jit
                                && $callee.leaf
                                && steps < budget
                                && !self.lazy.active
                                && !self.config.lazy_indirection
                                && t.frames.len() < self.config.max_stack_depth
                            {
                                // Leaf fast path: run the callee on the
                                // caller's operand stack. Gated on the
                                // budget so a slice that would have
                                // paused inside the callee frame still
                                // does, and on lazy modes so no read
                                // barrier is ever skipped.
                                match self.exec_leaf(t, fi, &$callee, $total, &mut steps) {
                                    Ok(()) => {
                                        t.frames[fi].pc = next_pc as u32;
                                        if steps >= budget {
                                            return (SliceEvent::Quantum, steps);
                                        }
                                        continue;
                                    }
                                    Err(e) => trap!(e),
                                }
                            }
                            if let Err(e) = self.push_callee(t, fi, $callee, $total, next_pc)
                            {
                                trap!(e);
                            }
                            if steps >= budget {
                                return (SliceEvent::Quantum, steps);
                            }
                            continue 'outer;
                        }
                    }};
                }
                // The virtual-call dispatch tail shared by `CallVirtual`
                // and `FusedLoadCallVirtual`: IC fast path, then TIB walk
                // + adaptive recompilation + cache fill. Always leaves
                // via `continue` or a slice-ending return.
                macro_rules! dispatch_virtual {
                    ($vslot:expr, $site:expr, $class:expr, $total:expr) => {{
                        let class = $class;
                        let total: usize = $total;
                        let site = $site;
                        if use_ic {
                            let epoch = self.registry.code_epoch();
                            let row = t.ic.site(code, code_key, site);
                            if let Some(entry) = row.lookup(epoch, class) {
                                let callee = Arc::clone(&entry.code);
                                self.stats.ic_hits += 1;
                                // Hotness sampled on the hit path too, so
                                // adaptive recompilation triggers at the
                                // same call number as with caches off.
                                let _ = ic_hit!(callee, total);
                            } else {
                                self.stats.ic_misses += 1;
                            }
                        }
                        let vslot = $vslot;
                        let tib = &self.registry.class(class).tib;
                        let Some(&mid) = tib.get(vslot as usize) else {
                            trap!(VmError::Internal {
                                message: format!(
                                    "TIB slot {vslot} missing on {} — stale compiled code?",
                                    self.registry.class(class).name
                                ),
                            });
                        };
                        let callee = match self.compiled_for(mid) {
                            Ok(c) => c,
                            Err(e) => trap!(e),
                        };
                        if use_ic {
                            // Epoch read *after* compiled_for: a fresh
                            // compile bumps it, and an entry stamped with
                            // the pre-compile epoch would never hit.
                            let epoch = self.registry.code_epoch();
                            t.ic.site(code, code_key, site).insert(
                                epoch,
                                SiteEntry { class, method: mid, code: Arc::clone(&callee) },
                            );
                        }
                        if let Err(e) = self.push_callee(t, fi, callee, total, next_pc) {
                            trap!(e);
                        }
                        if steps >= budget {
                            return (SliceEvent::Quantum, steps);
                        }
                        continue 'outer;
                    }};
                }
                // The direct-call dispatch tail shared by `CallDirect` and
                // `FusedLoadCallDirect`.
                macro_rules! dispatch_direct {
                    ($method:expr, $site:expr, $total:expr) => {{
                        let mid = $method;
                        let total: usize = $total;
                        let site = $site;
                        if use_ic {
                            let epoch = self.registry.code_epoch();
                            let row = t.ic.site(code, code_key, site);
                            if let Some(entry) = row.lookup_direct(epoch) {
                                let callee = Arc::clone(&entry.code);
                                self.stats.ic_hits += 1;
                                let _ = ic_hit!(callee, total);
                            } else {
                                self.stats.ic_misses += 1;
                            }
                        }
                        let callee = match self.compiled_for(mid) {
                            Ok(c) => c,
                            Err(e) => trap!(e),
                        };
                        if use_ic {
                            let epoch = self.registry.code_epoch();
                            t.ic.site(code, code_key, site).insert_direct(
                                epoch,
                                // Direct calls have no receiver class to key
                                // on; way 0 is guarded by the epoch alone.
                                SiteEntry {
                                    class: ClassId(0),
                                    method: mid,
                                    code: Arc::clone(&callee),
                                },
                            );
                        }
                        if let Err(e) = self.push_callee(t, fi, callee, total, next_pc) {
                            trap!(e);
                        }
                        if steps >= budget {
                            return (SliceEvent::Quantum, steps);
                        }
                        continue 'outer;
                    }};
                }
                match instr {
                    RInstr::ConstInt(v) => push!(Value::Int(*v)),
                    RInstr::ConstBool(v) => push!(Value::Bool(*v)),
                    RInstr::ConstNull => push!(Value::Null),
                    RInstr::ConstStr(s) => match self.heap.alloc_string(s) {
                        Some(r) => t.frames[fi].stack.push(Value::Ref(r)),
                        None => return (SliceEvent::NeedGc, steps),
                    },
                    RInstr::Load(slot) => {
                        let v = frame.locals[*slot as usize];
                        push!(v);
                    }
                    RInstr::Store(slot) => {
                        let v = pop!();
                        frame.locals[*slot as usize] = v;
                    }
                    RInstr::Add => {
                        let b = pop!().as_int();
                        let a = pop!().as_int();
                        push!(Value::Int(a.wrapping_add(b)));
                    }
                    RInstr::Sub => {
                        let b = pop!().as_int();
                        let a = pop!().as_int();
                        push!(Value::Int(a.wrapping_sub(b)));
                    }
                    RInstr::Mul => {
                        let b = pop!().as_int();
                        let a = pop!().as_int();
                        push!(Value::Int(a.wrapping_mul(b)));
                    }
                    RInstr::Div => {
                        let b = pop!().as_int();
                        let a = pop!().as_int();
                        if b == 0 {
                            trap!(VmError::DivisionByZero);
                        }
                        push!(Value::Int(a.wrapping_div(b)));
                    }
                    RInstr::Rem => {
                        let b = pop!().as_int();
                        let a = pop!().as_int();
                        if b == 0 {
                            trap!(VmError::DivisionByZero);
                        }
                        push!(Value::Int(a.wrapping_rem(b)));
                    }
                    RInstr::Neg => {
                        let a = pop!().as_int();
                        push!(Value::Int(a.wrapping_neg()));
                    }
                    RInstr::CmpEq => {
                        let b = pop!().as_int();
                        let a = pop!().as_int();
                        push!(Value::Bool(a == b));
                    }
                    RInstr::CmpNe => {
                        let b = pop!().as_int();
                        let a = pop!().as_int();
                        push!(Value::Bool(a != b));
                    }
                    RInstr::CmpLt => {
                        let b = pop!().as_int();
                        let a = pop!().as_int();
                        push!(Value::Bool(a < b));
                    }
                    RInstr::CmpLe => {
                        let b = pop!().as_int();
                        let a = pop!().as_int();
                        push!(Value::Bool(a <= b));
                    }
                    RInstr::CmpGt => {
                        let b = pop!().as_int();
                        let a = pop!().as_int();
                        push!(Value::Bool(a > b));
                    }
                    RInstr::CmpGe => {
                        let b = pop!().as_int();
                        let a = pop!().as_int();
                        push!(Value::Bool(a >= b));
                    }
                    RInstr::Not => {
                        let a = pop!().as_bool();
                        push!(Value::Bool(!a));
                    }
                    RInstr::BoolEq => {
                        let b = pop!().as_bool();
                        let a = pop!().as_bool();
                        push!(Value::Bool(a == b));
                    }
                    RInstr::RefEq | RInstr::RefNe => {
                        let b = pop!();
                        let a = pop!();
                        let eq = match (a, b) {
                            (Value::Null, Value::Null) => true,
                            // Mid-epoch (or under JDrums indirection) one
                            // operand may be a stale address and the other
                            // its migrated copy: identity must compare
                            // through the forwarding words.
                            (Value::Ref(x), Value::Ref(y)) => {
                                x == y
                                    || ((self.lazy.active || self.config.lazy_indirection)
                                        && self.heap.resolve(x) == self.heap.resolve(y))
                            }
                            _ => false,
                        };
                        push!(Value::Bool(if matches!(instr, RInstr::RefEq) { eq } else { !eq }));
                    }
                    RInstr::StrEq => {
                        let b = pop!().as_ref_opt();
                        let a = pop!().as_ref_opt();
                        let eq = self.str_eq(a, b);
                        t.frames[fi].stack.push(Value::Bool(eq));
                    }
                    RInstr::StrConcat => {
                        // Peek (no pops) so a GC retry sees an intact stack.
                        let n = frame.stack.len();
                        let (Some(a), Some(b)) = (
                            frame.stack[n - 2].as_ref_opt(),
                            frame.stack[n - 1].as_ref_opt(),
                        ) else {
                            trap!(VmError::NullPointer { context: "string concatenation".into() });
                        };
                        match self.heap.alloc_concat(a, b) {
                            Some(r) => {
                                let frame = &mut t.frames[fi];
                                frame.stack.truncate(n - 2);
                                frame.stack.push(Value::Ref(r));
                            }
                            None => return (SliceEvent::NeedGc, steps),
                        }
                    }
                    RInstr::New { class, size } => {
                        match self.heap.alloc_object(*class, *size as usize) {
                            Some(r) => t.frames[fi].stack.push(Value::Ref(r)),
                            None => return (SliceEvent::NeedGc, steps),
                        }
                    }
                    RInstr::NewArray { is_ref } => {
                        let len = frame.stack.last().expect("verified").as_int();
                        if len < 0 {
                            trap!(VmError::IndexOutOfBounds { index: len, len: 0 });
                        }
                        match self.heap.alloc_array(*is_ref, len as usize) {
                            Some(r) => {
                                let frame = &mut t.frames[fi];
                                frame.stack.pop();
                                frame.stack.push(Value::Ref(r));
                            }
                            None => return (SliceEvent::NeedGc, steps),
                        }
                    }
                    RInstr::GetField { offset, is_ref } => {
                        let n = frame.stack.len();
                        let Some(obj) = frame.stack[n - 1].as_ref_opt() else {
                            trap!(VmError::NullPointer { context: "field read".into() });
                        };
                        let obj = barrier!(obj);
                        let mut word = self.heap.get(obj, *offset as usize);
                        // Mid-epoch, loaded references resolve through any
                        // forwarding word: during the collapse sweep this
                        // keeps stale addresses read from unswept cells
                        // from recontaminating swept ones (the SATB/
                        // collapse invariant); outside an epoch the branch
                        // is never taken.
                        if *is_ref && word != 0 && self.lazy.active {
                            word = u64::from(self.heap.resolve(GcRef(word as u32)).0);
                        }
                        let frame = &mut t.frames[fi];
                        frame.stack.pop();
                        frame.stack.push(Value::from_word(word, *is_ref));
                    }
                    RInstr::PutField { offset } => {
                        let n = frame.stack.len();
                        let Some(obj) = frame.stack[n - 2].as_ref_opt() else {
                            trap!(VmError::NullPointer { context: "field write".into() });
                        };
                        let obj = barrier!(obj);
                        let frame = &mut t.frames[fi];
                        let val = frame.stack.pop().expect("verified");
                        frame.stack.pop();
                        self.heap.set(obj, *offset as usize, val.to_word());
                    }
                    RInstr::GetStatic { slot, is_ref } => {
                        let word = self.registry.jtoc_get(*slot);
                        push!(Value::from_word(word, *is_ref));
                    }
                    RInstr::PutStatic { slot } => {
                        let val = pop!();
                        self.registry.jtoc_set(*slot, val.to_word());
                    }
                    RInstr::ALoad => {
                        let idx = pop!().as_int();
                        let Some(arr) = pop!().as_ref_opt() else {
                            trap!(VmError::NullPointer { context: "array read".into() });
                        };
                        let arr = self.heap.resolve(arr);
                        let len = self.heap.len_of(arr);
                        if idx < 0 || idx as u32 >= len {
                            trap!(VmError::IndexOutOfBounds { index: idx, len });
                        }
                        let is_ref = self.heap.kind(arr) == HeapKind::RefArray;
                        let mut word = self.heap.get(arr, idx as usize);
                        // Same mid-epoch load resolution as GetField.
                        if is_ref && word != 0 && self.lazy.active {
                            word = u64::from(self.heap.resolve(GcRef(word as u32)).0);
                        }
                        t.frames[fi].stack.push(Value::from_word(word, is_ref));
                    }
                    RInstr::AStore => {
                        let val = pop!();
                        let idx = pop!().as_int();
                        let Some(arr) = pop!().as_ref_opt() else {
                            trap!(VmError::NullPointer { context: "array write".into() });
                        };
                        let arr = self.heap.resolve(arr);
                        let len = self.heap.len_of(arr);
                        if idx < 0 || idx as u32 >= len {
                            trap!(VmError::IndexOutOfBounds { index: idx, len });
                        }
                        self.heap.set(arr, idx as usize, val.to_word());
                    }
                    RInstr::ArrayLen => {
                        let Some(arr) = pop!().as_ref_opt() else {
                            trap!(VmError::NullPointer { context: "array length".into() });
                        };
                        let arr = self.heap.resolve(arr);
                        let len = self.heap.len_of(arr);
                        t.frames[fi].stack.push(Value::Int(i64::from(len)));
                    }
                    RInstr::CallVirtual { vslot, argc, site } => {
                        let n = frame.stack.len();
                        let ridx = n - 1 - *argc as usize;
                        let Some(recv) = frame.stack[ridx].as_ref_opt() else {
                            trap!(VmError::NullPointer { context: "virtual call".into() });
                        };
                        let recv = barrier!(recv);
                        t.frames[fi].stack[ridx] = Value::Ref(recv);
                        let class = self.heap.class_of(recv);
                        dispatch_virtual!(*vslot, *site, class, *argc as usize + 1)
                    }
                    RInstr::CallDirect { method, argc, has_receiver, site } => {
                        let total = *argc as usize + usize::from(*has_receiver);
                        if *has_receiver {
                            let n = frame.stack.len();
                            if frame.stack[n - total].as_ref_opt().is_none() {
                                trap!(VmError::NullPointer { context: "instance call".into() });
                            }
                        }
                        dispatch_direct!(*method, *site, total)
                    }
                    RInstr::CallNative { native, argc } => {
                        let argc = *argc as usize;
                        match self.exec_native(t, fi, *native, argc) {
                            NOut::Val(result) => {
                                let frame = &mut t.frames[fi];
                                let n = frame.stack.len();
                                frame.stack.truncate(n - argc);
                                if let Some(v) = result {
                                    frame.stack.push(v);
                                }
                            }
                            NOut::Block(on) => {
                                t.state = ThreadState::Blocked(on);
                                return (SliceEvent::Blocked, steps);
                            }
                            NOut::BlockAfter(on) => {
                                let frame = &mut t.frames[fi];
                                let n = frame.stack.len();
                                frame.stack.truncate(n - argc);
                                frame.pc = next_pc as u32;
                                t.state = ThreadState::Blocked(on);
                                return (SliceEvent::Blocked, steps);
                            }
                            NOut::NeedGc => return (SliceEvent::NeedGc, steps),
                            NOut::Trap(e) => trap!(e),
                            NOut::Frame(new_frame) => {
                                let frame = &mut t.frames[fi];
                                let n = frame.stack.len();
                                frame.stack.truncate(n - argc);
                                frame.pc = next_pc as u32;
                                t.frames.push(*new_frame);
                                continue 'outer;
                            }
                            NOut::Barrier(new_frame) => {
                                if t.frames.len() >= self.config.max_stack_depth {
                                    trap!(VmError::StackOverflow);
                                }
                                t.frames.push(*new_frame);
                                continue 'outer;
                            }
                            NOut::Yield => {
                                let frame = &mut t.frames[fi];
                                let n = frame.stack.len();
                                frame.stack.truncate(n - argc);
                                frame.pc = next_pc as u32;
                                return (SliceEvent::Quantum, steps);
                            }
                        }
                    }
                    RInstr::Jump(target) => {
                        let target = *target as usize;
                        t.frames[fi].pc = target as u32;
                        if target <= pc {
                            // Loop back-edge: a yield point.
                            if steps >= budget {
                                return (SliceEvent::Quantum, steps);
                            }
                            if enable_jit {
                                match code.level {
                                    CompileLevel::Base => {
                                        // Count loop trips toward template-JIT
                                        // heat; a long-running loop promotes
                                        // mid-method (OSR-in) without waiting
                                        // for the next invocation.
                                        let trips = code.loop_trips.bump();
                                        if trips.saturating_add(code.invocations.get())
                                            >= jit_threshold
                                            && self.osr_into_jit(t, fi)
                                        {
                                            continue 'outer;
                                        }
                                    }
                                    CompileLevel::Jit => {
                                        // DSU safe point: a fused frame
                                        // re-checks the dispatch epoch on
                                        // every back-edge, deoptimizing if
                                        // its method was replaced.
                                        if self.jit_revalidate(t, fi) {
                                            continue 'outer;
                                        }
                                    }
                                    CompileLevel::Opt => {}
                                }
                            }
                        }
                        continue;
                    }
                    RInstr::JumpIfTrue(target) => {
                        if pop!().as_bool() {
                            next_pc = *target as usize;
                        }
                    }
                    RInstr::JumpIfFalse(target) => {
                        if !pop!().as_bool() {
                            next_pc = *target as usize;
                        }
                    }
                    RInstr::Return | RInstr::ReturnValue => {
                        let value = if matches!(instr, RInstr::ReturnValue) {
                            Some(frame.stack.pop().expect("verified"))
                        } else {
                            None
                        };
                        do_return!(value)
                    }
                    RInstr::Pop => {
                        pop!();
                    }
                    RInstr::Dup => {
                        let v = *frame.stack.last().expect("verified");
                        push!(v);
                    }

                    // ---- template-JIT superinstructions (crate::jit2) ----
                    //
                    // Each arm executes its covered base instructions in one
                    // dispatch. Step accounting mirrors the base tier
                    // exactly: the loop top counted 1, the completion path
                    // adds covered-1 (and the partial count before a trap
                    // matches the base trap point), so slice budgets, yield
                    // positions, and the differential oracles see identical
                    // totals. Barrier exits add nothing — the whole
                    // superinstruction retries, costing 1 per attempt just
                    // as the base tier's faulting instruction does.
                    RInstr::FusedIncLocal { slot, delta } => {
                        steps += 3;
                        self.stats.fused_steps += 4;
                        let v = frame.locals[*slot as usize].as_int();
                        frame.locals[*slot as usize] = Value::Int(v.wrapping_add(*delta));
                    }
                    RInstr::FusedLoadGetField { slot, offset, is_ref } => {
                        let Some(obj) = frame.locals[*slot as usize].as_ref_opt() else {
                            steps += 1;
                            trap!(VmError::NullPointer { context: "field read".into() });
                        };
                        let obj = barrier!(obj);
                        steps += 1;
                        self.stats.fused_steps += 2;
                        let mut word = self.heap.get(obj, *offset as usize);
                        // Same mid-epoch load resolution as GetField.
                        if *is_ref && word != 0 && self.lazy.active {
                            word = u64::from(self.heap.resolve(GcRef(word as u32)).0);
                        }
                        t.frames[fi].stack.push(Value::from_word(word, *is_ref));
                    }
                    RInstr::FusedLoadGetFieldReturn { slot, offset, is_ref } => {
                        let Some(obj) = frame.locals[*slot as usize].as_ref_opt() else {
                            steps += 1;
                            trap!(VmError::NullPointer { context: "field read".into() });
                        };
                        let obj = barrier!(obj);
                        steps += 2;
                        self.stats.fused_steps += 3;
                        let mut word = self.heap.get(obj, *offset as usize);
                        if *is_ref && word != 0 && self.lazy.active {
                            word = u64::from(self.heap.resolve(GcRef(word as u32)).0);
                        }
                        do_return!(Some(Value::from_word(word, *is_ref)))
                    }
                    RInstr::FusedLoadLoadCmpBr { a, b, op, when, target } => {
                        steps += 3;
                        self.stats.fused_steps += 4;
                        let x = frame.locals[*a as usize].as_int();
                        let y = frame.locals[*b as usize].as_int();
                        if op.apply(x, y) == *when {
                            next_pc = *target as usize;
                        }
                    }
                    RInstr::FusedLoadConstCmpBr { slot, k, op, when, target } => {
                        steps += 3;
                        self.stats.fused_steps += 4;
                        let x = frame.locals[*slot as usize].as_int();
                        if op.apply(x, *k) == *when {
                            next_pc = *target as usize;
                        }
                    }
                    RInstr::FusedStackConstCmpBr { k, op, when, target } => {
                        steps += 2;
                        self.stats.fused_steps += 3;
                        let x = pop!().as_int();
                        if op.apply(x, *k) == *when {
                            next_pc = *target as usize;
                        }
                    }
                    RInstr::FusedLoadLoadAdd { a, b } => {
                        steps += 2;
                        self.stats.fused_steps += 3;
                        let x = frame.locals[*a as usize].as_int();
                        let y = frame.locals[*b as usize].as_int();
                        push!(Value::Int(x.wrapping_add(y)));
                    }
                    RInstr::FusedLoadConstAdd { slot, k } => {
                        steps += 2;
                        self.stats.fused_steps += 3;
                        let x = frame.locals[*slot as usize].as_int();
                        push!(Value::Int(x.wrapping_add(*k)));
                    }
                    RInstr::FusedLoadConstAddReturn { slot, k } => {
                        steps += 3;
                        self.stats.fused_steps += 4;
                        let x = frame.locals[*slot as usize].as_int();
                        do_return!(Some(Value::Int(x.wrapping_add(*k))))
                    }
                    RInstr::FusedConstReturn { k } => {
                        steps += 1;
                        self.stats.fused_steps += 2;
                        do_return!(Some(Value::Int(*k)))
                    }
                    RInstr::FusedLoadReturn { slot } => {
                        steps += 1;
                        self.stats.fused_steps += 2;
                        let v = frame.locals[*slot as usize];
                        do_return!(Some(v))
                    }
                    RInstr::FusedLoadStore { from, to } => {
                        steps += 1;
                        self.stats.fused_steps += 2;
                        frame.locals[*to as usize] = frame.locals[*from as usize];
                    }
                    RInstr::FusedLoadCallVirtual { slot, vslot, site } => {
                        let Some(recv) = frame.locals[*slot as usize].as_ref_opt() else {
                            steps += 1;
                            trap!(VmError::NullPointer { context: "virtual call".into() });
                        };
                        let recv = barrier!(recv);
                        steps += 1;
                        self.stats.fused_steps += 2;
                        // Base pushes the receiver then resolves the stack
                        // copy in place; pushing the resolved receiver is
                        // the same final stack (the local keeps the stale
                        // ref in both tiers).
                        t.frames[fi].stack.push(Value::Ref(recv));
                        let class = self.heap.class_of(recv);
                        dispatch_virtual!(*vslot, *site, class, 1)
                    }
                    RInstr::FusedLoadCallDirect { slot, method, argc, has_receiver, site } => {
                        let v = frame.locals[*slot as usize];
                        let total = *argc as usize + usize::from(*has_receiver);
                        frame.stack.push(v);
                        if *has_receiver {
                            let n = frame.stack.len();
                            if frame.stack[n - total].as_ref_opt().is_none() {
                                steps += 1;
                                trap!(VmError::NullPointer { context: "instance call".into() });
                            }
                        }
                        steps += 1;
                        self.stats.fused_steps += 2;
                        dispatch_direct!(*method, *site, total)
                    }
                }
                t.frames[fi].pc = next_pc as u32;
            }
        }
    }

    /// Pushes a frame for already-resolved code, consuming `total` stack
    /// values as arguments. Reuses pooled vectors when available.
    fn push_callee(
        &mut self,
        t: &mut VmThread,
        fi: usize,
        compiled: Arc<CompiledMethod>,
        total: usize,
        caller_next_pc: usize,
    ) -> Result<(), VmError> {
        if t.frames.len() >= self.config.max_stack_depth {
            return Err(VmError::StackOverflow);
        }
        let (mut locals, stack) = t.pool.pop().unwrap_or_default();
        let frame = &mut t.frames[fi];
        frame.pc = caller_next_pc as u32;
        let base = frame.stack.len() - total;
        // Pooled vectors arrive cleared, so resize nulls every slot past
        // the arguments — same as a fresh `Frame::new`.
        locals.resize((compiled.max_locals as usize).max(total), Value::Null);
        locals[..total].copy_from_slice(&frame.stack[base..]);
        frame.stack.truncate(base);
        t.frames.push(Frame {
            method: compiled.method,
            compiled,
            pc: 0,
            locals,
            stack,
            return_barrier: false,
            note: None,
        });
        Ok(())
    }

    /// Executes a whitelisted leaf callee (see [`crate::jit2::is_leaf`])
    /// inline on the caller's operand stack, without materializing a
    /// [`Frame`]. Only reachable from inline-cache hit paths when the
    /// template JIT is enabled and no lazy epoch or indirection is
    /// active, so reference loads need no read barrier; the whitelist
    /// excludes allocation, so no GC can interleave and the scratch
    /// locals never need root scanning. Step accounting mirrors the main
    /// loop exactly — one step per plain op, the covered count per fused
    /// op — so slice budgets and the differential oracles see identical
    /// totals to framed execution.
    fn exec_leaf(
        &mut self,
        t: &mut VmThread,
        fi: usize,
        callee: &CompiledMethod,
        total: usize,
        steps: &mut usize,
    ) -> Result<(), VmError> {
        let mut locals = std::mem::take(&mut t.leaf_locals);
        debug_assert!(locals.is_empty());
        let frame = &mut t.frames[fi];
        let stack_base = frame.stack.len() - total;
        locals.extend_from_slice(&frame.stack[stack_base..]);
        if locals.len() < callee.max_locals as usize {
            locals.resize(callee.max_locals as usize, Value::Null);
        }
        frame.stack.truncate(stack_base);

        let mut pc = 0usize;
        let mut error: Option<VmError> = None;
        macro_rules! fail {
            ($e:expr) => {{
                error = Some($e);
                break None;
            }};
        }
        let ret: Option<Value> = loop {
            *steps += 1;
            match &callee.code[pc] {
                RInstr::ConstInt(v) => frame.stack.push(Value::Int(*v)),
                RInstr::ConstBool(v) => frame.stack.push(Value::Bool(*v)),
                RInstr::ConstNull => frame.stack.push(Value::Null),
                RInstr::Load(slot) => frame.stack.push(locals[*slot as usize]),
                RInstr::Store(slot) => {
                    locals[*slot as usize] = frame.stack.pop().expect("verified");
                }
                RInstr::Add => {
                    let b = frame.stack.pop().expect("verified").as_int();
                    let a = frame.stack.pop().expect("verified").as_int();
                    frame.stack.push(Value::Int(a.wrapping_add(b)));
                }
                RInstr::Sub => {
                    let b = frame.stack.pop().expect("verified").as_int();
                    let a = frame.stack.pop().expect("verified").as_int();
                    frame.stack.push(Value::Int(a.wrapping_sub(b)));
                }
                RInstr::Mul => {
                    let b = frame.stack.pop().expect("verified").as_int();
                    let a = frame.stack.pop().expect("verified").as_int();
                    frame.stack.push(Value::Int(a.wrapping_mul(b)));
                }
                RInstr::Div => {
                    let b = frame.stack.pop().expect("verified").as_int();
                    let a = frame.stack.pop().expect("verified").as_int();
                    if b == 0 {
                        fail!(VmError::DivisionByZero);
                    }
                    frame.stack.push(Value::Int(a.wrapping_div(b)));
                }
                RInstr::Rem => {
                    let b = frame.stack.pop().expect("verified").as_int();
                    let a = frame.stack.pop().expect("verified").as_int();
                    if b == 0 {
                        fail!(VmError::DivisionByZero);
                    }
                    frame.stack.push(Value::Int(a.wrapping_rem(b)));
                }
                RInstr::Neg => {
                    let a = frame.stack.pop().expect("verified").as_int();
                    frame.stack.push(Value::Int(a.wrapping_neg()));
                }
                RInstr::CmpEq => {
                    let b = frame.stack.pop().expect("verified").as_int();
                    let a = frame.stack.pop().expect("verified").as_int();
                    frame.stack.push(Value::Bool(a == b));
                }
                RInstr::CmpNe => {
                    let b = frame.stack.pop().expect("verified").as_int();
                    let a = frame.stack.pop().expect("verified").as_int();
                    frame.stack.push(Value::Bool(a != b));
                }
                RInstr::CmpLt => {
                    let b = frame.stack.pop().expect("verified").as_int();
                    let a = frame.stack.pop().expect("verified").as_int();
                    frame.stack.push(Value::Bool(a < b));
                }
                RInstr::CmpLe => {
                    let b = frame.stack.pop().expect("verified").as_int();
                    let a = frame.stack.pop().expect("verified").as_int();
                    frame.stack.push(Value::Bool(a <= b));
                }
                RInstr::CmpGt => {
                    let b = frame.stack.pop().expect("verified").as_int();
                    let a = frame.stack.pop().expect("verified").as_int();
                    frame.stack.push(Value::Bool(a > b));
                }
                RInstr::CmpGe => {
                    let b = frame.stack.pop().expect("verified").as_int();
                    let a = frame.stack.pop().expect("verified").as_int();
                    frame.stack.push(Value::Bool(a >= b));
                }
                RInstr::Not => {
                    let a = frame.stack.pop().expect("verified").as_bool();
                    frame.stack.push(Value::Bool(!a));
                }
                RInstr::BoolEq => {
                    let b = frame.stack.pop().expect("verified").as_bool();
                    let a = frame.stack.pop().expect("verified").as_bool();
                    frame.stack.push(Value::Bool(a == b));
                }
                instr @ (RInstr::RefEq | RInstr::RefNe) => {
                    let b = frame.stack.pop().expect("verified");
                    let a = frame.stack.pop().expect("verified");
                    // Plain identity: the leaf path is gated on no lazy
                    // epoch / indirection, so no forwarding word exists.
                    let eq = match (a, b) {
                        (Value::Null, Value::Null) => true,
                        (Value::Ref(x), Value::Ref(y)) => x == y,
                        _ => false,
                    };
                    frame
                        .stack
                        .push(Value::Bool(if matches!(instr, RInstr::RefEq) { eq } else { !eq }));
                }
                RInstr::StrEq => {
                    let b = frame.stack.pop().expect("verified").as_ref_opt();
                    let a = frame.stack.pop().expect("verified").as_ref_opt();
                    frame.stack.push(Value::Bool(self.str_eq(a, b)));
                }
                RInstr::GetField { offset, is_ref } => {
                    let n = frame.stack.len();
                    let Some(obj) = frame.stack[n - 1].as_ref_opt() else {
                        fail!(VmError::NullPointer { context: "field read".into() });
                    };
                    let word = self.heap.get(obj, *offset as usize);
                    frame.stack.pop();
                    frame.stack.push(Value::from_word(word, *is_ref));
                }
                RInstr::PutField { offset } => {
                    let n = frame.stack.len();
                    let Some(obj) = frame.stack[n - 2].as_ref_opt() else {
                        fail!(VmError::NullPointer { context: "field write".into() });
                    };
                    let val = frame.stack.pop().expect("verified");
                    frame.stack.pop();
                    self.heap.set(obj, *offset as usize, val.to_word());
                }
                RInstr::GetStatic { slot, is_ref } => {
                    let word = self.registry.jtoc_get(*slot);
                    frame.stack.push(Value::from_word(word, *is_ref));
                }
                RInstr::PutStatic { slot } => {
                    let val = frame.stack.pop().expect("verified");
                    self.registry.jtoc_set(*slot, val.to_word());
                }
                RInstr::ALoad => {
                    let idx = frame.stack.pop().expect("verified").as_int();
                    let Some(arr) = frame.stack.pop().expect("verified").as_ref_opt() else {
                        fail!(VmError::NullPointer { context: "array read".into() });
                    };
                    let arr = self.heap.resolve(arr);
                    let len = self.heap.len_of(arr);
                    if idx < 0 || idx as u32 >= len {
                        fail!(VmError::IndexOutOfBounds { index: idx, len });
                    }
                    let is_ref = self.heap.kind(arr) == HeapKind::RefArray;
                    let word = self.heap.get(arr, idx as usize);
                    frame.stack.push(Value::from_word(word, is_ref));
                }
                RInstr::AStore => {
                    let val = frame.stack.pop().expect("verified");
                    let idx = frame.stack.pop().expect("verified").as_int();
                    let Some(arr) = frame.stack.pop().expect("verified").as_ref_opt() else {
                        fail!(VmError::NullPointer { context: "array write".into() });
                    };
                    let arr = self.heap.resolve(arr);
                    let len = self.heap.len_of(arr);
                    if idx < 0 || idx as u32 >= len {
                        fail!(VmError::IndexOutOfBounds { index: idx, len });
                    }
                    self.heap.set(arr, idx as usize, val.to_word());
                }
                RInstr::ArrayLen => {
                    let Some(arr) = frame.stack.pop().expect("verified").as_ref_opt() else {
                        fail!(VmError::NullPointer { context: "array length".into() });
                    };
                    let arr = self.heap.resolve(arr);
                    frame.stack.push(Value::Int(i64::from(self.heap.len_of(arr))));
                }
                RInstr::Pop => {
                    frame.stack.pop().expect("verified");
                }
                RInstr::Dup => {
                    let v = *frame.stack.last().expect("verified");
                    frame.stack.push(v);
                }
                RInstr::Return => break None,
                RInstr::ReturnValue => break Some(frame.stack.pop().expect("verified")),

                RInstr::FusedIncLocal { slot, delta } => {
                    *steps += 3;
                    self.stats.fused_steps += 4;
                    let v = locals[*slot as usize].as_int();
                    locals[*slot as usize] = Value::Int(v.wrapping_add(*delta));
                }
                RInstr::FusedLoadGetField { slot, offset, is_ref } => {
                    let Some(obj) = locals[*slot as usize].as_ref_opt() else {
                        *steps += 1;
                        fail!(VmError::NullPointer { context: "field read".into() });
                    };
                    *steps += 1;
                    self.stats.fused_steps += 2;
                    let word = self.heap.get(obj, *offset as usize);
                    frame.stack.push(Value::from_word(word, *is_ref));
                }
                RInstr::FusedLoadGetFieldReturn { slot, offset, is_ref } => {
                    let Some(obj) = locals[*slot as usize].as_ref_opt() else {
                        *steps += 1;
                        fail!(VmError::NullPointer { context: "field read".into() });
                    };
                    *steps += 2;
                    self.stats.fused_steps += 3;
                    let word = self.heap.get(obj, *offset as usize);
                    break Some(Value::from_word(word, *is_ref));
                }
                RInstr::FusedLoadLoadAdd { a, b } => {
                    *steps += 2;
                    self.stats.fused_steps += 3;
                    let x = locals[*a as usize].as_int();
                    let y = locals[*b as usize].as_int();
                    frame.stack.push(Value::Int(x.wrapping_add(y)));
                }
                RInstr::FusedLoadConstAdd { slot, k } => {
                    *steps += 2;
                    self.stats.fused_steps += 3;
                    let x = locals[*slot as usize].as_int();
                    frame.stack.push(Value::Int(x.wrapping_add(*k)));
                }
                RInstr::FusedLoadConstAddReturn { slot, k } => {
                    *steps += 3;
                    self.stats.fused_steps += 4;
                    let x = locals[*slot as usize].as_int();
                    break Some(Value::Int(x.wrapping_add(*k)));
                }
                RInstr::FusedConstReturn { k } => {
                    *steps += 1;
                    self.stats.fused_steps += 2;
                    break Some(Value::Int(*k));
                }
                RInstr::FusedLoadReturn { slot } => {
                    *steps += 1;
                    self.stats.fused_steps += 2;
                    break Some(locals[*slot as usize]);
                }
                RInstr::FusedLoadStore { from, to } => {
                    *steps += 1;
                    self.stats.fused_steps += 2;
                    locals[*to as usize] = locals[*from as usize];
                }

                other => unreachable!("non-leaf instruction {other:?} in leaf code"),
            }
            pc += 1;
        };

        if let Some(e) = error {
            // Reconstruct the framed trap state for the GC and the heap
            // fingerprint: a framed callee would hold the arguments in
            // its locals (enumerated between the caller's stack and the
            // callee's partial operands), so reinsert them at the same
            // point in root order before surfacing the trap.
            let frame = &mut t.frames[fi];
            let args = &locals[..total];
            frame.stack.splice(stack_base..stack_base, args.iter().copied());
            locals.clear();
            t.leaf_locals = locals;
            return Err(e);
        }
        if let Some(v) = ret {
            frame.stack.push(v);
        }
        debug_assert_eq!(frame.stack.len(), stack_base + usize::from(ret.is_some()));
        locals.clear();
        t.leaf_locals = locals;
        Ok(())
    }

    /// Template-JIT epoch revalidation for the frame `fi` of `t`, called
    /// at method entry/re-entry and on every loop back-edge of fused
    /// code. Fast path: the fused code's cached epoch matches the
    /// registry's — nothing to do. On a mismatch, the frame's code is
    /// checked against the registry: still current (the epoch moved for
    /// an unrelated method) refreshes the cache; replaced deoptimizes
    /// the frame onto the retained base body at the mapped pc — exact
    /// and semantically a no-op, because the base body is the very
    /// stream the fusion was built from (a frame suspended mid-method
    /// keeps pinned stale code in both tiers; the registry's *new* code
    /// takes over at the next call, through the invalidatable dispatch
    /// path). Returns whether the frame was deoptimized (its `compiled`
    /// and `pc` changed).
    fn jit_revalidate(&mut self, t: &mut VmThread, fi: usize) -> bool {
        use std::sync::atomic::Ordering;
        let frame = &t.frames[fi];
        let Some(fused) = frame.compiled.fused.as_ref() else {
            return false;
        };
        let epoch = self.registry.code_epoch();
        if fused.valid_epoch.load(Ordering::Relaxed) == epoch {
            return false;
        }
        let current = self.registry.method(frame.compiled.method).compiled.as_ref();
        if current.is_some_and(|c| Arc::ptr_eq(c, &frame.compiled)) {
            fused.valid_epoch.store(epoch, Ordering::Relaxed);
            return false;
        }
        let (base, pc) = (Arc::clone(&fused.base), fused.base_pc[frame.pc as usize]);
        let f = &mut t.frames[fi];
        f.compiled = base;
        f.pc = pc;
        self.stats.deopts += 1;
        true
    }

    /// Promotes a hot loop mid-method: compiles the frame's method at the
    /// template-JIT tier, publishes it, and swaps the executing frame
    /// onto the fused stream with the pc translated through the fusion
    /// boundary map (the frame's pc is a branch target, which fusion
    /// never swallows). Declines — returning `false` — when the frame is
    /// running stale code (the registry moved on; promoting it would
    /// republish a dead version) or compilation fails.
    fn osr_into_jit(&mut self, t: &mut VmThread, fi: usize) -> bool {
        let mid = t.frames[fi].compiled.method;
        let current = self.registry.method(mid).compiled.as_ref();
        if !current.is_some_and(|c| Arc::ptr_eq(c, &t.frames[fi].compiled)) {
            return false;
        }
        let Ok(fresh) = crate::jit::compile(&self.registry, mid, CompileLevel::Jit, &self.config)
        else {
            return false;
        };
        let fresh = Arc::new(fresh);
        self.stats.jit_compiles += 1;
        self.registry.set_compiled(mid, Arc::clone(&fresh));
        let target = t.frames[fi].pc;
        let new_pc =
            fresh.fused.as_ref().expect("jit code carries a fusion map").fused_index_of(target);
        let f = &mut t.frames[fi];
        f.compiled = fresh;
        f.pc = new_pc;
        true
    }

    /// Lazy object check on every reference load. Three modes:
    ///
    /// * Eager (default): the identity — zero steady-state cost, the
    ///   paper's headline property. Outside an epoch, lazy-migration VMs
    ///   take this same path, which is what `lazybench`'s steady-state
    ///   gate asserts.
    /// * Lazy-migration epoch active: the read barrier
    ///   ([`Vm::barrier_object`]) — duplicate stale objects on first
    ///   touch and hand back their transformer frame to run.
    /// * JDrums/DVM lazy indirection (paper §5 baseline): resolve
    ///   forwarding pointers and apply the default field-copy migration
    ///   on first touch, forever.
    fn lazy_object(&mut self, r: GcRef) -> Lazy {
        if self.lazy.active {
            return self.barrier_object(r);
        }
        if !self.config.lazy_indirection {
            return Lazy::Ready(r);
        }
        let r = self.heap.resolve(r);
        let class = self.heap.class_of(r);
        let Some(&new_class) = self.dsu.lazy_remap.get(&class) else {
            return Lazy::Ready(r);
        };
        // Migrate: allocate the new version, copy same-named same-typed
        // fields (the default transformation, applied in-VM as JDrums
        // does), and leave a forwarding pointer.
        let new_layout_len = self.registry.class(new_class).layout.len();
        let Some(new_obj) = self.heap.alloc_object(new_class, new_layout_len) else {
            return Lazy::NeedGc;
        };
        let old_class_info = self.registry.class(class);
        let new_class_info = self.registry.class(new_class);
        let mut copies: Vec<(usize, usize)> = Vec::new();
        for (old_off, slot) in old_class_info.layout.iter().enumerate() {
            if let Some(new_off) =
                new_class_info.layout.iter().position(|s| s.name == slot.name && s.ty == slot.ty)
            {
                copies.push((old_off, new_off));
            }
        }
        for (old_off, new_off) in copies {
            let w = self.heap.get(r, old_off);
            self.heap.set(new_obj, new_off, w);
        }
        let snapshot = self.registry.layout_snapshot();
        self.heap.install_forward(r, new_obj, &snapshot);
        Lazy::Ready(new_obj)
    }

    /// The lazy-migration read barrier: first touch of a stale object
    /// migrates it ([`Vm::lazy_dup`]). A class with a copy plan is done
    /// on the spot and the access proceeds against the new object; any
    /// other class hands back its object-transformer frame as
    /// [`Lazy::Run`]. The caller runs the frame with the faulting
    /// instruction's pc and stack untouched, so the access retries
    /// against the transformed object — the same transformer, in the same
    /// (new, old-copy) calling convention, the eager protocol runs from
    /// the update log. Everything else is a resolve.
    fn barrier_object(&mut self, r: GcRef) -> Lazy {
        let r = self.heap.resolve(r);
        if !self.lazy_is_stale(r) {
            return Lazy::Ready(r);
        }
        if self.dsu.depth >= MAX_TRANSFORMER_DEPTH {
            return Lazy::Trap(VmError::TransformerDepthExceeded {
                limit: MAX_TRANSFORMER_DEPTH,
            });
        }
        match self.lazy_dup(r) {
            None => Lazy::NeedGc,
            Some(LazyDup::Planned(new_obj)) => Lazy::Ready(new_obj),
            Some(LazyDup::Logged(index)) => match self.transformer_frame(index) {
                Ok(frame) => Lazy::Run(Box::new(frame)),
                Err(e) => Lazy::Trap(e),
            },
        }
    }

    /// Guest `==` on strings, the one definition both dispatch loops use:
    /// `null` equals only `null`, otherwise the texts are compared in
    /// place.
    #[inline]
    fn str_eq(&self, a: Option<GcRef>, b: Option<GcRef>) -> bool {
        match (a, b) {
            (None, None) => true,
            (Some(x), Some(y)) => x == y || self.heap.str_view(x) == self.heap.str_view(y),
            _ => false,
        }
    }

    /// Executes a native call. Arguments are *peeked* (not popped) so
    /// blocking/GC outcomes can retry with an intact stack.
    fn exec_native(&mut self, t: &mut VmThread, fi: usize, native: NativeFn, argc: usize) -> NOut {
        let frame = &t.frames[fi];
        let n = frame.stack.len();
        let arg = |i: usize| frame.stack[n - argc + i];

        // The string cell behind argument `$i`; `str_arg!` borrows its
        // text from the heap, so a native that allocates works from the
        // cell refs and re-borrows.
        macro_rules! str_ref {
            ($i:expr) => {
                match arg($i).as_ref_opt() {
                    Some(r) => self.heap.resolve(r),
                    None => {
                        return NOut::Trap(VmError::NullPointer {
                            context: format!("native {:?}", native),
                        })
                    }
                }
            };
        }
        macro_rules! str_arg {
            ($i:expr) => {
                self.heap.str_view(str_ref!($i))
            };
        }
        // The result of a string allocation as a native outcome.
        macro_rules! new_str {
            ($alloc:expr) => {
                match $alloc {
                    Some(r) => NOut::Val(Some(Value::Ref(r))),
                    None => NOut::NeedGc,
                }
            };
        }

        match native {
            NativeFn::SysPrint => {
                let s = str_arg!(0);
                if self.config.echo_output {
                    println!("{s}");
                }
                self.output.push(s.to_owned());
                NOut::Val(None)
            }
            NativeFn::SysPrintInt => {
                let v = arg(0).as_int();
                if self.config.echo_output {
                    println!("{v}");
                }
                self.output.push(v.to_string());
                NOut::Val(None)
            }
            NativeFn::SysTime => NOut::Val(Some(Value::Int(self.tick as i64))),
            NativeFn::SysSleep => {
                let ms = arg(0).as_int().max(0) as u64;
                NOut::BlockAfter(BlockOn::SleepUntil(self.tick + ms))
            }
            NativeFn::SysRand => {
                let bound = arg(0).as_int();
                self.rng_state ^= self.rng_state << 13;
                self.rng_state ^= self.rng_state >> 7;
                self.rng_state ^= self.rng_state << 17;
                let v = if bound <= 0 { 0 } else { (self.rng_state % bound as u64) as i64 };
                NOut::Val(Some(Value::Int(v)))
            }
            NativeFn::SysYield => NOut::Yield,
            NativeFn::SysThreadId => NOut::Val(Some(Value::Int(i64::from(t.id.0)))),
            NativeFn::SysSpawn => {
                let Some(obj) = arg(0).as_ref_opt() else {
                    return NOut::Trap(VmError::NullPointer { context: "Sys.spawn".into() });
                };
                let obj = self.heap.resolve(obj);
                if self.heap.kind(obj) != HeapKind::Object {
                    return NOut::Trap(VmError::Internal {
                        message: "Sys.spawn target is not an object".into(),
                    });
                }
                // Spawning a stale receiver mid-epoch would look run() up
                // on the stripped old class: migrate it first, retrying
                // the native after the transformer runs.
                if self.lazy.active {
                    match self.barrier_object(obj) {
                        Lazy::Ready(_) => {}
                        Lazy::NeedGc => return NOut::NeedGc,
                        Lazy::Run(f) => return NOut::Barrier(f),
                        Lazy::Trap(e) => return NOut::Trap(e),
                    }
                }
                let obj = self.heap.resolve(obj);
                let class = self.heap.class_of(obj);
                let Some(vslot) = self.registry.vslot(class, "run") else {
                    return NOut::Trap(VmError::ResolutionError {
                        message: format!(
                            "Sys.spawn: class {} has no run() method",
                            self.registry.class(class).name
                        ),
                    });
                };
                let Some(&mid) = self.registry.class(class).tib.get(vslot as usize) else {
                    return NOut::Trap(VmError::Internal {
                        message: format!(
                            "Sys.spawn: TIB slot {vslot} missing on {} — stale compiled code?",
                            self.registry.class(class).name
                        ),
                    });
                };
                let compiled = match self.compiled_for(mid) {
                    Ok(c) => c,
                    Err(e) => return NOut::Trap(e),
                };
                let new_frame = match Frame::new(compiled, &[Value::Ref(obj)]) {
                    Ok(f) => f,
                    Err(e) => return NOut::Trap(e),
                };
                let name = format!("{}::run", self.registry.class(class).name);
                let tid = self.add_thread(name, new_frame);
                NOut::Val(Some(Value::Int(i64::from(tid.0))))
            }

            NativeFn::StrLen => {
                let s = str_arg!(0);
                NOut::Val(Some(Value::Int(s.len() as i64)))
            }
            NativeFn::StrSubstr => {
                let s = str_ref!(0);
                let to = arg(2).as_int();
                let (Ok(from), Ok(end)) = (usize::try_from(arg(1).as_int()), usize::try_from(to))
                else {
                    return NOut::Trap(VmError::IndexOutOfBounds {
                        index: to,
                        len: self.heap.len_of(s),
                    });
                };
                match self.heap.alloc_substr(s, from, end) {
                    Ok(r) => new_str!(r),
                    Err(e) => NOut::Trap(e),
                }
            }
            NativeFn::StrIndexOf => {
                let idx = str_arg!(0).find(str_arg!(1)).map_or(-1, |i| i as i64);
                NOut::Val(Some(Value::Int(idx)))
            }
            NativeFn::StrSplit => {
                let (s, sep) = (str_ref!(0), str_ref!(1));
                // Two passes, so no piece list lives on the host: count the
                // pieces, then cut them one by one at re-found separators.
                let sep_len = self.heap.len_of(sep) as usize;
                let pieces = match sep_len {
                    0 => 1,
                    _ => self.heap.str_view(s).split(self.heap.str_view(sep)).count(),
                };
                let Some(arr) = self.heap.alloc_array(true, pieces) else {
                    return NOut::NeedGc;
                };
                let mut from = 0;
                for i in 0..pieces {
                    let text = self.heap.str_view(s);
                    let next_sep =
                        if i + 1 < pieces { text[from..].find(self.heap.str_view(sep)) } else { None };
                    let to = next_sep.map_or(text.len(), |at| from + at);
                    match self.heap.alloc_substr(s, from, to) {
                        Ok(Some(r)) => self.heap.set(arr, i, u64::from(r.0)),
                        Ok(None) => return NOut::NeedGc,
                        Err(e) => return NOut::Trap(e),
                    }
                    from = to + sep_len;
                }
                NOut::Val(Some(Value::Ref(arr)))
            }
            NativeFn::StrFromInt => {
                let mut buf = [0u8; 20];
                new_str!(self.heap.alloc_string(fmt_int(arg(0).as_int(), &mut buf)))
            }
            NativeFn::StrToInt => {
                let s = str_arg!(0);
                // Lenient parse: invalid input yields 0 (documented).
                let v = s.trim().parse::<i64>().unwrap_or(0);
                NOut::Val(Some(Value::Int(v)))
            }
            NativeFn::StrCharAt => {
                let s = str_arg!(0);
                let i = arg(1).as_int();
                if i < 0 || i as usize >= s.len() {
                    return NOut::Trap(VmError::IndexOutOfBounds { index: i, len: s.len() as u32 });
                }
                NOut::Val(Some(Value::Int(i64::from(s.as_bytes()[i as usize]))))
            }
            NativeFn::StrContains => {
                NOut::Val(Some(Value::Bool(str_arg!(0).contains(str_arg!(1)))))
            }
            NativeFn::StrStartsWith => {
                NOut::Val(Some(Value::Bool(str_arg!(0).starts_with(str_arg!(1)))))
            }
            NativeFn::StrTrim => {
                let s = str_ref!(0);
                let text = self.heap.str_view(s);
                let from = text.len() - text.trim_start().len();
                let to = from + text[from..].trim_end().len();
                match self.heap.alloc_substr(s, from, to) {
                    Ok(r) => new_str!(r),
                    Err(e) => NOut::Trap(e),
                }
            }

            NativeFn::NetListen => {
                let port = arg(0).as_int();
                let id = self.net.listen(port as u16);
                NOut::Val(Some(Value::Int(id as i64)))
            }
            NativeFn::NetAccept => {
                let listener = arg(0).as_int() as usize;
                match self.net.try_accept(listener) {
                    Some(conn) => NOut::Val(Some(Value::Int(conn as i64))),
                    None => NOut::Block(BlockOn::Accept(listener)),
                }
            }
            NativeFn::NetTryAccept => {
                let listener = arg(0).as_int() as usize;
                let conn = self.net.try_accept(listener).map_or(-1, |c| c as i64);
                NOut::Val(Some(Value::Int(conn)))
            }
            NativeFn::NetReadLine => {
                let conn = arg(0).as_int() as usize;
                if !self.net.guest_readable(conn) {
                    return NOut::Block(BlockOn::ReadLine(conn));
                }
                match self.net.guest_read(conn) {
                    crate::net::GuestRead::Line(line) => match self.heap.alloc_string(&line) {
                        Some(r) => NOut::Val(Some(Value::Ref(r))),
                        None => {
                            self.net.guest_unread(conn, line);
                            NOut::NeedGc
                        }
                    },
                    crate::net::GuestRead::Eof => NOut::Val(Some(Value::Null)),
                    crate::net::GuestRead::WouldBlock => NOut::Block(BlockOn::ReadLine(conn)),
                }
            }
            NativeFn::NetWrite => {
                let conn = arg(0).as_int() as usize;
                self.net.guest_write(conn, str_arg!(1));
                NOut::Val(None)
            }
            NativeFn::NetClose => {
                let conn = arg(0).as_int() as usize;
                self.net.guest_close(conn);
                NOut::Val(None)
            }

            NativeFn::DsuForceTransform => {
                let Some(obj) = arg(0).as_ref_opt() else {
                    return NOut::Val(None);
                };
                let obj = self.heap.resolve(obj);
                if self.heap.kind(obj) != HeapKind::Object {
                    return NOut::Val(None);
                }
                let Some(index) = self.dsu.entry_of(&self.heap, obj) else {
                    // Not a logged, untransformed object. Mid-lazy-epoch
                    // an *untouched* stale object has no logged pair yet:
                    // migrate it now, retrying the native afterwards — the
                    // lazy analogue of forcing an entry out of the eager
                    // update log. Anything else (already transformed,
                    // converted by a copy plan, never updated) is done.
                    if self.lazy_is_stale(obj) {
                        return match self.barrier_object(obj) {
                            Lazy::Ready(_) => NOut::Val(None),
                            Lazy::NeedGc => NOut::NeedGc,
                            Lazy::Run(f) => NOut::Barrier(f),
                            Lazy::Trap(e) => NOut::Trap(e),
                        };
                    }
                    return NOut::Val(None);
                };
                match self.transformer_frame(index) {
                    Ok(frame) => NOut::Frame(Box::new(frame)),
                    Err(e) => NOut::Trap(e),
                }
            }
            NativeFn::DsuUpdateCount => {
                NOut::Val(Some(Value::Int(self.dsu.update_count as i64)))
            }
        }
    }
}

/// Decimal text of `v` written into the tail of `buf` (`i64::MIN` fills
/// all twenty bytes), so `Str.fromInt` needs no host allocation.
fn fmt_int(v: i64, buf: &mut [u8; 20]) -> &str {
    let mut at = buf.len();
    let mut rest = v.unsigned_abs();
    loop {
        at -= 1;
        buf[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if v < 0 {
        at -= 1;
        buf[at] = b'-';
    }
    std::str::from_utf8(&buf[at..]).expect("ASCII digits")
}

/// Marker so `STRING_CLASS` stays referenced (string cells carry their own
/// heap kind rather than a class id).
#[allow(dead_code)]
const _STRING: &str = STRING_CLASS;
