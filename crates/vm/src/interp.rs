//! The execution engine.
//!
//! Executes resolved code ([`RInstr`]) against the heap. Yield points sit
//! at method entries, method exits and loop back-edges (paper §3.2) — a
//! thread asked to stop only pauses at one of those, which is what makes
//! every inter-slice point a VM safe point. Return barriers and the
//! lazy-migration read barrier are implemented here.
//!
//! Each op is defined once. The *simple* ops (everything that needs no
//! frame of its own: no call, branch or allocation) live in one op table,
//! `op_table!`, which the framed loop (`Vm::exec_thread`) and the
//! frameless leaf-call loop (`Vm::exec_leaf`) both instantiate, and whose
//! superinstruction arms reuse the plain ops' bodies; the framed loop
//! adds the call, native, branch and allocation arms. Which ops are
//! simple, and how many base instructions a superinstruction retires, is
//! [`RInstr::is_simple`] / [`RInstr::covers`].

use jvolve_classfile::STRING_CLASS;

use crate::compiled::{framed_ops, CompiledMethod, RInstr};
use crate::error::VmError;
use crate::heap::HeapKind;
use crate::ids::MethodId;
use crate::jit2::CmpOp;
use crate::natives::NativeFn;
use crate::thread::{BlockOn, CodeRef, FrameNote, ThreadState, VmThread};
use crate::value::{GcRef, Value};
use crate::vm::{TransformerCall, Vm};

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
    /// Pop the arguments, advance, then run this transformer.
    Frame(TransformerCall),
    /// Pop the arguments, advance, then end the slice.
    Yield,
}

/// Result of the read barrier's slow path ([`Vm::barrier_load`]).
enum Lazy {
    /// The load yields this to-space reference.
    Ready(GcRef),
    /// Evacuation needs a collection; retry the instruction after.
    NeedGc,
    /// A logged pair waits for its transformer: run this one with pc and
    /// stack untouched, then retry the instruction.
    Run(TransformerCall),
    /// The barrier itself trapped (depth limit, missing transformer).
    Trap(VmError),
}

/// Index of the `depth`-th operand from the top (1 = the top). `floor` is
/// where the executing frame's operands start: on the shared value stack an
/// underflow would read the frame below, so every pop, peek and truncate is
/// debug-checked against it — verified code (`verify_class`) never trips it.
#[inline(always)]
fn at(stack: &[Value], floor: usize, depth: usize) -> usize {
    debug_assert!(stack.len() >= floor + depth, "verified code: stack underflow");
    stack.len() - depth
}

/// Pops the top operand.
#[inline(always)]
fn pop(stack: &mut Vec<Value>, floor: usize) -> Value {
    debug_assert!(stack.len() > floor, "verified code: stack underflow");
    stack.pop().expect("verified code: stack underflow")
}

/// Replaces the two top operands `a`, `b` with `f(a, b)`.
#[inline(always)]
fn bin_op(stack: &mut Vec<Value>, floor: usize, f: impl FnOnce(Value, Value) -> Value) {
    let b = pop(stack, floor);
    let a = pop(stack, floor);
    stack.push(f(a, b));
}

/// [`bin_op`] on ints.
#[inline(always)]
fn int_op(stack: &mut Vec<Value>, floor: usize, f: impl FnOnce(i64, i64) -> Value) {
    bin_op(stack, floor, |a, b| f(a.as_int(), b.as_int()));
}

/// Guest `+` on ints: the body of `Add` and of every fused add.
#[inline(always)]
fn add(a: i64, b: i64) -> Value {
    Value::Int(a.wrapping_add(b))
}

/// Charges a completed superinstruction that [covers](RInstr::covers)
/// `$covers` base instructions: the loop top counted 1 for the dispatch,
/// this adds the rest, so slice budgets, yield positions and the
/// differential oracles see the unfused code's totals. A trap charges the
/// faulting base instruction's position instead (the `fail` hook's first
/// argument) and a barrier exit nothing — the whole op retries, costing 1
/// per attempt just as the unfused faulting instruction does. An arm
/// that stores or calls out first reads `covers()` before it does, while
/// the compiler still knows which arm it is in and folds it to a constant.
macro_rules! retire {
    ($vm:ident, $steps:expr, $covers:expr) => {{
        let covers: usize = $covers;
        $steps += covers - 1;
        $vm.stats.fused_steps += covers as u64;
    }};
}

/// The `Div`/`Rem` body: `$op` on the two top ints, trapping on a zero
/// divisor.
macro_rules! div_op {
    ($stack:expr, $floor:expr, $fail:ident, $op:ident) => {{
        let b = pop(&mut $stack, $floor).as_int();
        let a = pop(&mut $stack, $floor).as_int();
        if b == 0 {
            $fail!(0, VmError::DivisionByZero);
        }
        $stack.push(Value::Int(a.$op(b)));
    }};
}

/// Element `$idx` of the array operand at `$stack[$at]`, null- and
/// bounds-checked: `(word address, is a reference array)`. The operands
/// are only read; a trap drops them (from `$at` on) first.
macro_rules! element {
    ($vm:ident, $fail:ident, $stack:expr, $at:expr, $idx:expr, $what:literal) => {{
        let (at, idx): (usize, i64) = ($at, $idx);
        let Some(arr) = $stack[at].as_ref_opt() else {
            $stack.truncate(at);
            $fail!(0, VmError::NullPointer { context: $what.into() });
        };
        match $vm.heap.element_at(arr, idx) {
            Ok(found) => found,
            Err(len) => {
                $stack.truncate(at);
                $fail!(0, VmError::IndexOutOfBounds { index: idx, len });
            }
        }
    }};
}

/// The `GetField` body over operand `$v`, which is base instruction `$k`
/// of the executing op (0 for the plain op, 1 behind a fused `Load`).
/// `$v` is only read, so a barrier exit leaves the op retryable.
macro_rules! get_field {
    ($vm:ident, $fail:ident, $load:ident, $v:expr, $offset:expr, $is_ref:expr, $k:expr) => {{
        let Some(obj) = $v.as_ref_opt() else {
            $fail!($k, VmError::NullPointer { context: "field read".into() });
        };
        let word = $vm.heap.get(obj, $offset as usize);
        Value::from_word(if $is_ref { $load!(word) } else { word }, $is_ref)
    }};
}

/// The op table: the one definition of every *simple* op (everything but
/// `framed_ops!`), written over the value stack `$stack` of a frame whose
/// locals start at `$base` and whose operands start at `$floor`, with three
/// caller-supplied hooks —
///
/// * `$fail!(k, error)`: trap at base instruction `k` of the op;
/// * `$ret!(value)`: return `value` from the executing method;
/// * `$load!(word)`: what a load of the reference word `word` from a field
///   or element yields (the read barrier in the framed loop, the identity
///   in the leaf loop).
///
/// Expands to the dispatch `match` itself, with `$framed` spliced in as
/// the remaining arms, so an instantiation is one dense jump table: the
/// framed loop passes its call/native/branch/allocation arms, the leaf
/// loop one arm rejecting them. Superinstructions are compositions of the
/// same component bodies fed from locals instead of the stack.
macro_rules! op_table {
    (
        $vm:ident, $instr:ident, $stack:expr, $base:expr, $floor:expr, $steps:expr,
        fail: $fail:ident, ret: $ret:ident, load: $load:ident,
        { $($framed:tt)* }
    ) => {
        match $instr {
            RInstr::ConstInt(v) => $stack.push(Value::Int(*v)),
            RInstr::ConstBool(v) => $stack.push(Value::Bool(*v)),
            RInstr::ConstNull => $stack.push(Value::Null),
            RInstr::Load(slot) => {
                let v = $stack[$base + *slot as usize];
                $stack.push(v);
            }
            RInstr::Store(slot) => {
                let v = pop(&mut $stack, $floor);
                $stack[$base + *slot as usize] = v;
            }
            RInstr::Add => int_op(&mut $stack, $floor, add),
            RInstr::Sub => int_op(&mut $stack, $floor, |a, b| Value::Int(a.wrapping_sub(b))),
            RInstr::Mul => int_op(&mut $stack, $floor, |a, b| Value::Int(a.wrapping_mul(b))),
            RInstr::Div => div_op!($stack, $floor, $fail, wrapping_div),
            RInstr::Rem => div_op!($stack, $floor, $fail, wrapping_rem),
            RInstr::Neg => {
                let a = pop(&mut $stack, $floor).as_int();
                $stack.push(Value::Int(a.wrapping_neg()));
            }
            RInstr::CmpEq => int_op(&mut $stack, $floor, |a, b| Value::Bool(CmpOp::Eq.apply(a, b))),
            RInstr::CmpNe => int_op(&mut $stack, $floor, |a, b| Value::Bool(CmpOp::Ne.apply(a, b))),
            RInstr::CmpLt => int_op(&mut $stack, $floor, |a, b| Value::Bool(CmpOp::Lt.apply(a, b))),
            RInstr::CmpLe => int_op(&mut $stack, $floor, |a, b| Value::Bool(CmpOp::Le.apply(a, b))),
            RInstr::CmpGt => int_op(&mut $stack, $floor, |a, b| Value::Bool(CmpOp::Gt.apply(a, b))),
            RInstr::CmpGe => int_op(&mut $stack, $floor, |a, b| Value::Bool(CmpOp::Ge.apply(a, b))),
            RInstr::Not => {
                let a = pop(&mut $stack, $floor).as_bool();
                $stack.push(Value::Bool(!a));
            }
            RInstr::BoolEq => {
                bin_op(&mut $stack, $floor, |a, b| Value::Bool(a.as_bool() == b.as_bool()))
            }
            // Plain identity: the mutator only ever holds to-space references.
            RInstr::RefEq => bin_op(&mut $stack, $floor, |a, b| Value::Bool(a == b)),
            RInstr::RefNe => bin_op(&mut $stack, $floor, |a, b| Value::Bool(a != b)),
            RInstr::StrEq => bin_op(&mut $stack, $floor, |a, b| {
                Value::Bool($vm.str_eq(a.as_ref_opt(), b.as_ref_opt()))
            }),
            RInstr::GetField { offset, is_ref } => {
                let top = at(&$stack, $floor, 1);
                let v = get_field!($vm, $fail, $load, $stack[top], *offset, *is_ref, 0);
                $stack[top] = v;
            }
            RInstr::PutField { offset } => {
                let Some(obj) = $stack[at(&$stack, $floor, 2)].as_ref_opt() else {
                    $fail!(0, VmError::NullPointer { context: "field write".into() });
                };
                let val = pop(&mut $stack, $floor);
                $stack.pop();
                $vm.heap.set(obj, *offset as usize, val.to_word());
            }
            RInstr::GetStatic { slot, is_ref } => {
                $stack.push(Value::from_word($vm.registry.jtoc_get(*slot), *is_ref));
            }
            RInstr::PutStatic { slot } => {
                let val = pop(&mut $stack, $floor);
                $vm.registry.jtoc_set(*slot, val.to_word());
            }
            RInstr::ALoad => {
                // Peeked until the load is through, so a barrier exit
                // leaves the op retryable.
                let top = at(&$stack, $floor, 2);
                let idx = $stack[top + 1].as_int();
                let (addr, is_ref) = element!($vm, $fail, $stack, top, idx, "array read");
                let word = $vm.heap.word(addr);
                let word = if is_ref { $load!(word) } else { word };
                $stack.truncate(top + 1);
                $stack[top] = Value::from_word(word, is_ref);
            }
            RInstr::AStore => {
                let top = at(&$stack, $floor, 3);
                let idx = $stack[top + 1].as_int();
                let (addr, _) = element!($vm, $fail, $stack, top, idx, "array write");
                let val = $stack[top + 2];
                $stack.truncate(top);
                $vm.heap.set_word(addr, val.to_word());
            }
            RInstr::ArrayLen => {
                let Some(arr) = pop(&mut $stack, $floor).as_ref_opt() else {
                    $fail!(0, VmError::NullPointer { context: "array length".into() });
                };
                let len = $vm.heap.len_of(arr);
                $stack.push(Value::Int(i64::from(len)));
            }
            RInstr::Pop => {
                pop(&mut $stack, $floor);
            }
            RInstr::Dup => {
                let v = $stack[at(&$stack, $floor, 1)];
                $stack.push(v);
            }
            RInstr::Return => $ret!(None),
            RInstr::ReturnValue => {
                let v = pop(&mut $stack, $floor);
                $ret!(Some(v))
            }

            // ---- call-free superinstructions (crate::jit2) ----
            RInstr::FusedIncLocal { slot, delta } => {
                retire!($vm, $steps, $instr.covers());
                let slot = $base + *slot as usize;
                $stack[slot] = add($stack[slot].as_int(), *delta);
            }
            RInstr::FusedLoadGetField { slot, offset, is_ref } => {
                let covers = $instr.covers();
                let local = $stack[$base + *slot as usize];
                let v = get_field!($vm, $fail, $load, local, *offset, *is_ref, 1);
                retire!($vm, $steps, covers);
                $stack.push(v);
            }
            RInstr::FusedLoadGetFieldReturn { slot, offset, is_ref } => {
                let covers = $instr.covers();
                let local = $stack[$base + *slot as usize];
                let v = get_field!($vm, $fail, $load, local, *offset, *is_ref, 1);
                retire!($vm, $steps, covers);
                $ret!(Some(v))
            }
            RInstr::FusedLoadLoadAdd { a, b } => {
                retire!($vm, $steps, $instr.covers());
                let (x, y) = ($stack[$base + *a as usize], $stack[$base + *b as usize]);
                $stack.push(add(x.as_int(), y.as_int()));
            }
            RInstr::FusedLoadConstAdd { slot, k } => {
                retire!($vm, $steps, $instr.covers());
                let x = $stack[$base + *slot as usize].as_int();
                $stack.push(add(x, *k));
            }
            RInstr::FusedLoadConstAddReturn { slot, k } => {
                retire!($vm, $steps, $instr.covers());
                $ret!(Some(add($stack[$base + *slot as usize].as_int(), *k)))
            }
            RInstr::FusedConstReturn { k } => {
                retire!($vm, $steps, $instr.covers());
                $ret!(Some(Value::Int(*k)))
            }
            RInstr::FusedLoadReturn { slot } => {
                retire!($vm, $steps, $instr.covers());
                $ret!(Some($stack[$base + *slot as usize]))
            }
            RInstr::FusedLoadStore { from, to } => {
                retire!($vm, $steps, $instr.covers());
                $stack[$base + *to as usize] = $stack[$base + *from as usize];
            }
            $($framed)*
        }
    };
}

impl Vm {
    /// Runs `t` until a slice-ending event, with `budget` steps before the
    /// next yield point ends the slice.
    pub(crate) fn exec_thread(&mut self, t: &mut VmThread, budget: usize) -> SliceEvent {
        let mut steps: usize = 0;
        let enable_jit = self.config.enable_jit;

        let event = 'outer: loop {
            let Some(fi) = t.frames.len().checked_sub(1) else {
                t.state = ThreadState::Finished;
                break 'outer SliceEvent::Finished;
            };
            // The executing frame's code, borrowed through a copy of its
            // `CodeRef` so records can be pushed meanwhile: the registry
            // owns it and frees nothing while a slice runs (`thread`
            // module doc).
            let code_ref = t.frames[fi].compiled;
            let code: &CompiledMethod = &code_ref;
            // This frame's slice of the value stack: locals from `base`, operands
            // from `floor`; only an OSR between slices resizes the locals.
            let base = t.frames[fi].base as usize;
            let floor = t.frames[fi].floor();
            // The pc lives here while the activation executes; the record
            // gets it back (`park!`) whenever control leaves this loop, and
            // debug builds poison it meanwhile so a skipped `park!` is caught.
            let ops: &[RInstr] = &code.code;
            let mut pc = t.frames[fi].pc as usize;

            loop {
                steps += 1;
                debug_assert!(pc < ops.len(), "pc ran off method end");
                if cfg!(debug_assertions) {
                    t.frames[fi].pc = u32::MAX;
                }
                let instr = &ops[pc];

                // Leaves the loop at `$pc`: the executing instruction, to
                // retry it or to name the trap site, or the next one.
                macro_rules! park {
                    ($pc:expr, $leave:expr) => {{
                        t.frames[fi].pc = $pc as u32;
                        $leave
                    }};
                }
                // The op table's `fail` hook: `$k` is the position of the
                // faulting base instruction inside a superinstruction.
                macro_rules! trap {
                    ($e:expr) => {
                        park!(pc, break 'outer SliceEvent::Trapped($e))
                    };
                    ($k:expr, $e:expr) => {{
                        steps += $k;
                        trap!($e)
                    }};
                }
                // The op table's `load` hook, the read barrier on every
                // reference load: one range test, false outside a lazy
                // epoch's copy (zero steady-state cost, the paper's
                // headline property); a from-space word takes
                // [`Vm::barrier_load`]. `Run` pushes an object transformer
                // with pc and stack untouched, so the faulting instruction
                // (which only *peeked* its operands) retries after it
                // returns.
                macro_rules! barrier {
                    ($word:expr) => {{
                        let word: u64 = $word;
                        if self.heap.in_from_space(word) {
                            match self.barrier_load(t, GcRef(word as u32)) {
                                Lazy::Ready(r) => u64::from(r.0),
                                Lazy::NeedGc => park!(pc, break 'outer SliceEvent::NeedGc),
                                Lazy::Run(call) => match self.push_transformer(t, call) {
                                    Ok(()) => park!(pc, continue 'outer),
                                    Err(e) => trap!(e),
                                },
                                Lazy::Trap(e) => trap!(e),
                            }
                        } else {
                            word
                        }
                    }};
                }
                // The op table's `ret` hook, the shared return path: pops
                // the record and its slice of the value stack, processes
                // its note, delivers the value, and ends the slice if a
                // barrier fired, the thread finished, or the budget ran
                // out.
                macro_rules! do_return {
                    ($value:expr) => {{
                        let value: Option<Value> = $value;
                        let done = t.frames.pop().expect("frame present");
                        t.values.truncate(base);
                        if let Some(FrameNote::TransformOf(index)) = done.note {
                            self.dsu.finish(&mut self.heap, index as usize);
                            self.lazy.transformed += 1;
                        }
                        if t.frames.is_empty() {
                            t.result = value;
                        } else {
                            t.values.extend(value);
                        }
                        if done.return_barrier {
                            // Paper §3.2: the bridge code notifies the
                            // update driver, which restarts the update.
                            break 'outer SliceEvent::ReturnBarrier { method: done.method };
                        }
                        if t.frames.is_empty() {
                            t.state = ThreadState::Finished;
                            break 'outer SliceEvent::Finished;
                        }
                        if steps >= budget {
                            break 'outer SliceEvent::Quantum;
                        }
                        continue 'outer;
                    }};
                }

                let mut next_pc = pc + 1;

                // Enters a resolved callee over the `total` arguments on top
                // of the stack, which become its first locals where they lie;
                // method entry is a yield point. The depth is checked first,
                // so an overflow traps with the caller's pc still on the call.
                macro_rules! enter {
                    ($callee:expr, $total:expr) => {{
                        let callee: CodeRef = $callee;
                        if let Err(e) = self.frame_room(t.frames.len()) {
                            trap!(e);
                        }
                        t.frames[fi].pc = next_pc as u32;
                        t.enter(callee, $total, None);
                        if steps >= budget {
                            break 'outer SliceEvent::Quantum;
                        }
                        continue 'outer;
                    }};
                }
                // The call tail shared by every call arm, over the method
                // `$mid` dispatch resolved to. The registry's published code
                // runs, borrowed through an uncounted `CodeRef`: a leaf
                // callee on the value stack without a record, any other
                // entered with a record pointing at it. Code not compiled
                // yet (first call, or invalidated by an update) is compiled
                // by `compiled_for`. Always leaves via `continue` or a
                // slice-ending break.
                macro_rules! call {
                    ($mid:expr, $total:expr) => {{
                        let total: usize = $total;
                        let mid = $mid;
                        match self.registry.method(mid).code() {
                            Some(callee) => {
                                if enable_jit
                                    && callee.leaf
                                    && steps < budget
                                    && !self.heap.copying()
                                    && self.frame_room(t.frames.len()).is_ok()
                                {
                                    // Leaf fast path: run the callee on the
                                    // value stack, over its arguments. Gated
                                    // on the budget so a slice that would
                                    // have paused inside the callee frame
                                    // still does, and on a running copy so
                                    // no read barrier is ever skipped.
                                    let leaf: &CompiledMethod = &callee;
                                    match self.exec_leaf(&mut t.values, leaf, total, &mut steps) {
                                        Ok(()) => {
                                            if steps >= budget {
                                                park!(next_pc, break 'outer SliceEvent::Quantum);
                                            }
                                            pc = next_pc;
                                            continue;
                                        }
                                        Err(e) => trap!(e),
                                    }
                                }
                                enter!(callee, total)
                            }
                            None => match self.compiled_for(mid) {
                                Ok(callee) => enter!(callee, total),
                                Err(e) => trap!(e),
                            },
                        }
                    }};
                }
                // The receiver of a virtual call held in `$v`, which is
                // base instruction `$k` of the executing op, null-checked.
                macro_rules! receiver {
                    ($v:expr, $k:expr) => {{
                        let Some(recv) = $v.as_ref_opt() else {
                            trap!($k, VmError::NullPointer { context: "virtual call".into() });
                        };
                        recv
                    }};
                }
                // The virtual-call dispatch shared by `CallVirtual` and
                // `FusedLoadCallVirtual`: the TIB walk, then the call tail.
                macro_rules! dispatch_virtual {
                    ($vslot:expr, $recv:expr, $total:expr) => {{
                        let class = self.heap.class_of($recv);
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
                        call!(mid, $total)
                    }};
                }
                // The receiver check of a direct call whose last operand
                // was pushed by base instruction `$k` of the executing op.
                macro_rules! direct_receiver {
                    ($total:expr, $has_receiver:expr, $k:expr) => {
                        if $has_receiver
                            && t.values[at(&t.values, floor, $total)].as_ref_opt().is_none()
                        {
                            trap!($k, VmError::NullPointer { context: "instance call".into() });
                        }
                    };
                }
                // A conditional branch on `$cond`.
                macro_rules! branch_if {
                    ($cond:expr, $target:expr) => {
                        if $cond {
                            next_pc = *$target as usize;
                        }
                    };
                }
                op_table!(self, instr, t.values, base, floor, steps,
                    fail: trap, ret: do_return, load: barrier,
                {
                    RInstr::ConstStr(s) => match self.heap.alloc_string(s) {
                        Some(r) => t.values.push(Value::Ref(r)),
                        None => park!(pc, break 'outer SliceEvent::NeedGc),
                    },
                    RInstr::StrConcat => {
                        // Peek (no pops) so a GC retry sees an intact stack.
                        let n = at(&t.values, floor, 2);
                        let (Some(a), Some(b)) =
                            (t.values[n].as_ref_opt(), t.values[n + 1].as_ref_opt())
                        else {
                            trap!(VmError::NullPointer { context: "string concatenation".into() });
                        };
                        match self.heap.alloc_concat(a, b) {
                            Some(r) => {
                                t.values.truncate(n);
                                t.values.push(Value::Ref(r));
                            }
                            None => park!(pc, break 'outer SliceEvent::NeedGc),
                        }
                    }
                    RInstr::New { class, size } => {
                        match self.heap.alloc_object(*class, *size as usize) {
                            Some(r) => t.values.push(Value::Ref(r)),
                            None => park!(pc, break 'outer SliceEvent::NeedGc),
                        }
                    }
                    RInstr::NewArray { is_ref } => {
                        let top = at(&t.values, floor, 1);
                        let len = t.values[top].as_int();
                        if len < 0 {
                            trap!(VmError::IndexOutOfBounds { index: len, len: 0 });
                        }
                        match self.heap.alloc_array(*is_ref, len as usize) {
                            Some(r) => t.values[top] = Value::Ref(r),
                            None => park!(pc, break 'outer SliceEvent::NeedGc),
                        }
                    }
                    RInstr::CallVirtual { vslot, argc } => {
                        let ridx = at(&t.values, floor, 1 + *argc as usize);
                        let recv = receiver!(t.values[ridx], 0);
                        dispatch_virtual!(*vslot, recv, *argc as usize + 1)
                    }
                    RInstr::CallDirect { method, argc, has_receiver } => {
                        let total = *argc as usize + usize::from(*has_receiver);
                        direct_receiver!(total, *has_receiver, 0);
                        call!(*method, total)
                    }
                    RInstr::CallNative { native, argc } => {
                        let first = at(&t.values, floor, *argc as usize);
                        // Pops the arguments and advances past the call.
                        macro_rules! complete {
                            () => {{
                                t.values.truncate(first);
                                pc = next_pc;
                            }};
                        }
                        match self.exec_native(t, first, *native) {
                            NOut::Val(result) => {
                                complete!();
                                t.values.extend(result);
                                continue;
                            }
                            NOut::Block(on) => {
                                t.state = ThreadState::Blocked(on);
                                park!(pc, break 'outer SliceEvent::Blocked);
                            }
                            NOut::BlockAfter(on) => {
                                complete!();
                                t.state = ThreadState::Blocked(on);
                                park!(pc, break 'outer SliceEvent::Blocked);
                            }
                            NOut::NeedGc => park!(pc, break 'outer SliceEvent::NeedGc),
                            NOut::Trap(e) => trap!(e),
                            NOut::Frame(call) => {
                                // Nothing may trap once the call retired, and
                                // nothing can: `Dsu.forceTransform` checked
                                // `frame_room` before marking the entry, and
                                // two arguments never overflow a frame's
                                // local slots — so no checked push here.
                                complete!();
                                t.values.extend_from_slice(&call.args);
                                t.enter(call.compiled, call.args.len(), Some(call.note));
                                park!(pc, continue 'outer)
                            }
                            NOut::Yield => {
                                complete!();
                                park!(pc, break 'outer SliceEvent::Quantum);
                            }
                        }
                    }
                    RInstr::Jump(target) => {
                        let target = *target as usize;
                        if target <= pc && steps >= budget {
                            // Loop back-edge: a yield point.
                            park!(target, break 'outer SliceEvent::Quantum);
                        }
                        pc = target;
                        continue;
                    }
                    RInstr::JumpIfTrue(target) => {
                        branch_if!(pop(&mut t.values, floor).as_bool(), target)
                    }
                    RInstr::JumpIfFalse(target) => {
                        branch_if!(!pop(&mut t.values, floor).as_bool(), target)
                    }

                    // ---- superinstructions that branch or call ----
                    RInstr::FusedLoadLoadCmpBr { a, b, op, when, target } => {
                        retire!(self, steps, instr.covers());
                        let x = t.values[base + *a as usize].as_int();
                        let y = t.values[base + *b as usize].as_int();
                        branch_if!(op.apply(x, y) == *when, target);
                    }
                    RInstr::FusedLoadConstCmpBr { slot, k, op, when, target } => {
                        retire!(self, steps, instr.covers());
                        let x = t.values[base + *slot as usize].as_int();
                        branch_if!(op.apply(x, *k) == *when, target);
                    }
                    RInstr::FusedStackConstCmpBr { k, op, when, target } => {
                        retire!(self, steps, instr.covers());
                        let x = pop(&mut t.values, floor).as_int();
                        branch_if!(op.apply(x, *k) == *when, target);
                    }
                    RInstr::FusedLoadCallVirtual { slot, vslot } => {
                        let covers = instr.covers();
                        let recv = receiver!(t.values[base + *slot as usize], 1);
                        retire!(self, steps, covers);
                        t.values.push(Value::Ref(recv));
                        dispatch_virtual!(*vslot, recv, 1)
                    }
                    RInstr::FusedLoadCallDirect { slot, method, argc, has_receiver } => {
                        let covers = instr.covers();
                        let v = t.values[base + *slot as usize];
                        t.values.push(v);
                        let total = *argc as usize + usize::from(*has_receiver);
                        direct_receiver!(total, *has_receiver, 1);
                        retire!(self, steps, covers);
                        call!(*method, total)
                    }
                });
                pc = next_pc;
            }
        };
        // Folded once per slice rather than once per instruction; callers
        // (e.g. GC-retry stuck detection) only read the total between
        // `exec_thread` calls, which always see it up to date.
        self.stats.steps += steps as u64;
        debug_assert!(t.frames.iter().all(|f| f.pc != u32::MAX), "a loop exit skipped park!");
        event
    }

    /// The one frame-depth check: whether a thread `depth` frames deep may
    /// take another.
    #[inline]
    fn frame_room(&self, depth: usize) -> Result<(), VmError> {
        if depth >= self.config.max_stack_depth {
            return Err(VmError::StackOverflow);
        }
        Ok(())
    }

    /// Starts an object transformer on top of `t`'s stack, depth-checked.
    fn push_transformer(&self, t: &mut VmThread, call: TransformerCall) -> Result<(), VmError> {
        self.frame_room(t.frames.len())?;
        t.push_call(call.compiled, &call.args, Some(call.note))
    }

    /// Executes a leaf callee (see [`crate::jit2::is_leaf`]) over the
    /// `total` arguments on top of `values` without pushing a record: the
    /// op table instantiated on the same value stack, with the identity
    /// for the reference hook. Only reachable from the call tail when the
    /// template JIT is enabled and no copy is running, so
    /// reference loads need no read barrier; simple ops never allocate,
    /// so no GC can interleave. On a trap the stack is
    /// left as it stands — arguments, other locals and partial operands
    /// right where a framed callee would hold them in root order.
    fn exec_leaf(
        &mut self,
        values: &mut Vec<Value>,
        callee: &CompiledMethod,
        total: usize,
        steps: &mut usize,
    ) -> Result<(), VmError> {
        let base = values.len() - total;
        let floor = base + (callee.max_locals as usize).max(total);
        values.resize(floor, Value::Null);

        let mut pc = 0usize;
        let ret: Option<Value> = 'leaf: loop {
            macro_rules! fail {
                ($k:expr, $e:expr) => {{
                    *steps += $k;
                    return Err($e)
                }};
            }
            macro_rules! ret {
                ($value:expr) => {
                    break 'leaf $value
                };
            }
            macro_rules! identity {
                ($obj:expr) => {
                    $obj
                };
            }
            *steps += 1;
            let instr = &callee.code[pc];
            op_table!(self, instr, *values, base, floor, *steps,
                fail: fail, ret: ret, load: identity,
            {
                framed_ops!() => fail!(0, VmError::Internal {
                    message: format!("framed op {instr:?} in leaf code"),
                }),
            });
            pc += 1;
        };
        values.truncate(base);
        values.extend(ret);
        Ok(())
    }

    /// The read barrier's slow path: `t` just loaded `r`, a from-space
    /// address. Evacuates it ([`Vm::lazy_evacuate`]) — a plan converts a
    /// stale object on the spot, an interpreted transformer's class is
    /// duplicated and queued — and yields where it went. Inside a
    /// transformer that is all: like the eager log's transformers, it may
    /// read a new object its own transformer has not filled yet. Guest code
    /// may not, so while a logged pair waits the barrier hands back the
    /// lowest one's transformer as [`Lazy::Run`], to run with the faulting
    /// instruction's pc and stack untouched; the instruction retries after
    /// it, and proceeds once the queue is empty — the same transformers,
    /// in the same (new, old-copy) calling convention, the eager protocol
    /// runs. An epoch the controller is never stepped past arming keeps
    /// loads on this path for good: the JDrums/DVM indirection baseline
    /// (paper §5) is this barrier, held open.
    fn barrier_load(&mut self, t: &VmThread, r: GcRef) -> Lazy {
        let new = match self.heap.resolve(r) {
            moved if moved != r => moved,
            _ => match self.lazy_evacuate(r) {
                Ok(new) => new,
                Err(VmError::OutOfMemory { .. }) => return Lazy::NeedGc,
                Err(e) => return Lazy::Trap(e),
            },
        };
        let in_transformer =
            || t.frames.iter().any(|f| matches!(f.note, Some(FrameNote::TransformOf(_))));
        if self.lazy.queue.is_empty() || in_transformer() {
            return Lazy::Ready(new);
        }
        if let Err(e) = self.frame_room(t.frames.len()) {
            return Lazy::Trap(e);
        }
        let Some(entry) = self.next_queued() else { return Lazy::Ready(new) };
        match self.transformer_call(entry.1) {
            Ok(call) => Lazy::Run(call),
            Err(e) => {
                self.lazy.queue.push(entry);
                Lazy::Trap(e)
            }
        }
    }

    /// Guest `==` on strings: `null` equals only `null`, otherwise the
    /// texts are compared in place.
    #[inline]
    fn str_eq(&self, a: Option<GcRef>, b: Option<GcRef>) -> bool {
        match (a, b) {
            (None, None) => true,
            (Some(x), Some(y)) => x == y || self.heap.str_view(x) == self.heap.str_view(y),
            _ => false,
        }
    }

    /// Executes a native call whose arguments start at `t.values[first]`.
    /// They are *peeked* (not popped) so blocking/GC outcomes can retry
    /// with an intact stack.
    fn exec_native(&mut self, t: &VmThread, first: usize, native: NativeFn) -> NOut {
        let arg = |i: usize| t.values[first + i];

        // The string cell behind argument `$i`; `str_arg!` borrows its
        // text from the heap, so a native that allocates works from the
        // cell refs and re-borrows.
        macro_rules! str_ref {
            ($i:expr) => {
                match arg($i).as_ref_opt() {
                    Some(r) => r,
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
                if self.heap.kind(obj) != HeapKind::Object {
                    return NOut::Trap(VmError::Internal {
                        message: "Sys.spawn target is not an object".into(),
                    });
                }
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
                let name = format!("{}::run", self.registry.class(class).name);
                match self.add_thread(name, compiled, &[Value::Ref(obj)]) {
                    Ok(tid) => NOut::Val(Some(Value::Int(i64::from(tid.0)))),
                    Err(e) => NOut::Trap(e),
                }
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
                if self.heap.kind(obj) != HeapKind::Object {
                    return NOut::Val(None);
                }
                // Not a logged, untransformed object (already transformed,
                // converted by a copy plan, never updated): nothing to do.
                let Some(index) = self.dsu.entry_of(&self.heap, obj) else {
                    return NOut::Val(None);
                };
                // Depth-checked before `transformer_call` marks the entry
                // in progress: an overflow leaves it pending.
                match self.frame_room(t.frames.len()).and_then(|()| self.transformer_call(index)) {
                    Ok(call) => NOut::Frame(call),
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
