//! Compiled (resolved) method representation.
//!
//! The baseline compiler turns symbolic bytecode into [`RInstr`] sequences
//! with **hard-coded** field offsets, static slots, dispatch-table slots,
//! and instance sizes — the analogue of machine code emitted by Jikes RVM's
//! compilers. This baking is what makes the paper's *indirect method
//! updates* necessary: when a class update changes a layout, compiled code
//! of any method referencing the class silently holds stale offsets and
//! must be invalidated (and, if on-stack, OSR-replaced).

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use crate::ids::{ClassId, MethodId};
use crate::natives::NativeFn;

/// Relaxed invocation counter attached to compiled code.
///
/// Hotness accounting lives on the `CompiledMethod` itself so the
/// interpreter's inline-cache hit path can count an invocation with one
/// relaxed atomic add instead of a registry hashmap write. The counter is
/// per-*code-object*: a recompilation starts a fresh cell at zero, which
/// matches [`Registry::invalidate`](crate::registry::Registry::invalidate)
/// resetting the method's counter.
#[derive(Default)]
pub struct CounterCell(AtomicU32);

/// Deliberately value-free: the counter is a racy profiling sample, not
/// versioned VM state (invalidation resets it; registry fingerprints
/// exclude it), so debug dumps of compiled code — which rollback tests
/// compare bit-for-bit — must not change just because a loop kept
/// spinning between two snapshots.
impl std::fmt::Debug for CounterCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CounterCell(_)")
    }
}

impl CounterCell {
    /// Current value.
    #[inline]
    pub fn get(&self) -> u32 {
        self.0.load(Ordering::Relaxed)
    }

    /// Adds one, returning the *previous* value (the call number before
    /// this invocation).
    #[inline]
    pub fn bump(&self) -> u32 {
        self.0.fetch_add(1, Ordering::Relaxed)
    }
}

impl Clone for CounterCell {
    fn clone(&self) -> Self {
        CounterCell(AtomicU32::new(self.get()))
    }
}

/// Compilation tier.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CompileLevel {
    /// Straightforward 1:1 resolution of bytecode: instruction indices
    /// coincide with bytecode indices.
    Base,
    /// Template JIT: the base-resolved stream peephole-fused into
    /// superinstructions ([`crate::jit2`]). Every fused op records the base
    /// pc of its first covered instruction, so a frame deopts/OSRs back to
    /// 1:1 base code at an exact reconstruction point. No tier inlines, so
    /// every frame is an OSR candidate (paper §3.2).
    Jit,
}

/// A resolved instruction.
///
/// Operands are physical: word offsets, JTOC slots, TIB slots, method ids.
#[derive(Clone, PartialEq, Debug)]
pub enum RInstr {
    /// Push integer constant.
    ConstInt(i64),
    /// Push boolean constant.
    ConstBool(bool),
    /// Allocate a string with this content and push it.
    ConstStr(Arc<str>),
    /// Push null.
    ConstNull,
    /// Push local slot.
    Load(u16),
    /// Pop into local slot.
    Store(u16),
    /// Integer add.
    Add,
    /// Integer subtract.
    Sub,
    /// Integer multiply.
    Mul,
    /// Integer divide (traps on zero).
    Div,
    /// Integer remainder (traps on zero).
    Rem,
    /// Integer negate.
    Neg,
    /// Integer compare ==.
    CmpEq,
    /// Integer compare !=.
    CmpNe,
    /// Integer compare <.
    CmpLt,
    /// Integer compare <=.
    CmpLe,
    /// Integer compare >.
    CmpGt,
    /// Integer compare >=.
    CmpGe,
    /// Boolean not.
    Not,
    /// Boolean equality.
    BoolEq,
    /// Reference identity.
    RefEq,
    /// Reference non-identity.
    RefNe,
    /// String concatenation (allocates).
    StrConcat,
    /// String value equality.
    StrEq,
    /// Allocate an instance: class id and **baked instance size** in words.
    New {
        /// Class to instantiate.
        class: ClassId,
        /// Field words — resolved at compile time; stale after a class
        /// update, which is why such code must be invalidated.
        size: u16,
    },
    /// Read an instance field at a baked word offset.
    GetField {
        /// Word offset within the object.
        offset: u16,
        /// Whether the slot holds a reference (for value decoding).
        is_ref: bool,
    },
    /// Write an instance field at a baked word offset.
    PutField {
        /// Word offset within the object.
        offset: u16,
    },
    /// Read a static from a baked JTOC slot.
    GetStatic {
        /// JTOC slot.
        slot: u32,
        /// Whether the slot holds a reference.
        is_ref: bool,
    },
    /// Write a static to a baked JTOC slot.
    PutStatic {
        /// JTOC slot.
        slot: u32,
    },
    /// Allocate an array (length popped from the stack).
    NewArray {
        /// Element kind.
        is_ref: bool,
    },
    /// Array element load.
    ALoad,
    /// Array element store.
    AStore,
    /// Array length.
    ArrayLen,
    /// Virtual dispatch through the receiver's TIB at a baked slot.
    CallVirtual {
        /// TIB slot index.
        vslot: u16,
        /// Argument count (receiver excluded).
        argc: u8,
        /// Dense call-site id within this code object (assigned by the
        /// compiler); indexes the per-thread inline-cache table.
        site: u32,
    },
    /// Direct call (static methods, constructors, `super` calls).
    CallDirect {
        /// Target method.
        method: MethodId,
        /// Argument count (receiver excluded).
        argc: u8,
        /// Whether a receiver sits under the arguments.
        has_receiver: bool,
        /// Dense call-site id within this code object (see `CallVirtual`).
        site: u32,
    },
    /// Call into the VM.
    CallNative {
        /// Implementation.
        native: NativeFn,
        /// Argument count.
        argc: u8,
    },
    /// Unconditional branch. A target at or before the current pc is a loop
    /// back-edge and acts as a yield point.
    Jump(u32),
    /// Branch if popped bool is true.
    JumpIfTrue(u32),
    /// Branch if popped bool is false.
    JumpIfFalse(u32),
    /// Return void.
    Return,
    /// Return the popped value.
    ReturnValue,
    /// Discard top of stack.
    Pop,
    /// Duplicate top of stack.
    Dup,

    // --- Superinstructions ---
    //
    // Emitted only by the template JIT's fusion pass ([`crate::jit2`]);
    // the baseline resolver never produces them. Each covers 2–4 base
    // instructions and carries the same baked physical operands, so the
    // DSU invalidation story is unchanged — just denser.
    /// `locals[slot] += delta` (Load, ConstInt, Add, Store — 4 ops).
    FusedIncLocal {
        /// Local slot read and written.
        slot: u16,
        /// Increment.
        delta: i64,
    },
    /// Load a local, read a field at a baked offset (Load, GetField).
    FusedLoadGetField {
        /// Local slot holding the object.
        slot: u16,
        /// Word offset within the object.
        offset: u16,
        /// Whether the slot holds a reference.
        is_ref: bool,
    },
    /// The canonical getter body: Load, GetField, ReturnValue (3 ops).
    FusedLoadGetFieldReturn {
        /// Local slot holding the object.
        slot: u16,
        /// Word offset within the object.
        offset: u16,
        /// Whether the slot holds a reference.
        is_ref: bool,
    },
    /// Two-local compare-and-branch: Load, Load, Cmp, JumpIf (4 ops) —
    /// the shape of every counted-loop guard.
    FusedLoadLoadCmpBr {
        /// Left operand slot.
        a: u16,
        /// Right operand slot.
        b: u16,
        /// Comparison.
        op: crate::jit2::CmpOp,
        /// Branch when the comparison yields this value.
        when: bool,
        /// Branch target (a fused index after target fixup).
        target: u32,
    },
    /// Local-vs-constant compare-and-branch (Load, ConstInt, Cmp, JumpIf).
    FusedLoadConstCmpBr {
        /// Left operand slot.
        slot: u16,
        /// Right operand constant.
        k: i64,
        /// Comparison.
        op: crate::jit2::CmpOp,
        /// Branch when the comparison yields this value.
        when: bool,
        /// Branch target (a fused index after target fixup).
        target: u32,
    },
    /// Stack-vs-constant compare-and-branch (ConstInt, Cmp, JumpIf) —
    /// the left operand is already on the stack.
    FusedStackConstCmpBr {
        /// Right operand constant.
        k: i64,
        /// Comparison.
        op: crate::jit2::CmpOp,
        /// Branch when the comparison yields this value.
        when: bool,
        /// Branch target (a fused index after target fixup).
        target: u32,
    },
    /// Push `locals[a] + locals[b]` (Load, Load, Add).
    FusedLoadLoadAdd {
        /// Left operand slot.
        a: u16,
        /// Right operand slot.
        b: u16,
    },
    /// Push `locals[slot] + k` (Load, ConstInt, Add).
    FusedLoadConstAdd {
        /// Left operand slot.
        slot: u16,
        /// Constant addend.
        k: i64,
    },
    /// Return `locals[slot] + k` (Load, ConstInt, Add, ReturnValue).
    FusedLoadConstAddReturn {
        /// Left operand slot.
        slot: u16,
        /// Constant addend.
        k: i64,
    },
    /// Return an integer constant (ConstInt, ReturnValue).
    FusedConstReturn {
        /// The constant.
        k: i64,
    },
    /// Return a local (Load, ReturnValue).
    FusedLoadReturn {
        /// The slot.
        slot: u16,
    },
    /// Copy one local to another (Load, Store).
    FusedLoadStore {
        /// Source slot.
        from: u16,
        /// Destination slot.
        to: u16,
    },
    /// Load the receiver and virtually dispatch a zero-argument method
    /// (Load, CallVirtual with `argc == 0`). Only the no-args form fuses:
    /// with arguments present, the Load pushes an *argument*, not the
    /// receiver, and the receiver-resolution/barrier logic would need the
    /// stack mutated first — unsafe under barrier retry.
    FusedLoadCallVirtual {
        /// Local slot holding the receiver.
        slot: u16,
        /// TIB slot index.
        vslot: u16,
        /// Dense call-site id (see `CallVirtual`).
        site: u32,
    },
    /// Load the last argument and make a direct call (Load, CallDirect).
    FusedLoadCallDirect {
        /// Local slot holding the final argument.
        slot: u16,
        /// Target method.
        method: MethodId,
        /// Argument count (receiver excluded).
        argc: u8,
        /// Whether a receiver sits under the arguments.
        has_receiver: bool,
        /// Dense call-site id (see `CallVirtual`).
        site: u32,
    },
}

/// The ops that need a frame of their own: allocation (a collection may
/// interleave, so the operands must sit in a scanned frame), calls and
/// natives, and branches. Every other op is *simple* — a body over
/// `(stack, locals)` in the interpreter's op table, which the framed loop
/// and the leaf-call loop both instantiate. The leaf loop matches this
/// pattern as its only extra arm, so a new variant that is neither given a
/// table body nor listed here does not compile.
macro_rules! framed_ops {
    () => {
        RInstr::ConstStr(_) | RInstr::StrConcat | RInstr::New { .. } | RInstr::NewArray { .. }
            | RInstr::CallVirtual { .. } | RInstr::CallDirect { .. } | RInstr::CallNative { .. }
            | RInstr::Jump(_) | RInstr::JumpIfTrue(_) | RInstr::JumpIfFalse(_)
            | RInstr::FusedLoadLoadCmpBr { .. } | RInstr::FusedLoadConstCmpBr { .. }
            | RInstr::FusedStackConstCmpBr { .. } | RInstr::FusedLoadCallVirtual { .. }
            | RInstr::FusedLoadCallDirect { .. }
    };
}
pub(crate) use framed_ops;

impl RInstr {
    /// Whether the op is in the simple class (not a `framed_ops!` op): what
    /// the leaf-call fast path can run without a frame.
    pub fn is_simple(&self) -> bool {
        !matches!(self, framed_ops!())
    }

    /// Base instructions this op retires: 1 for a plain op, the length of
    /// the fused group for a superinstruction. The fusion pass advances by
    /// it, and both dispatch loops charge it to `steps`/`fused_steps`.
    #[inline]
    pub const fn covers(&self) -> usize {
        use RInstr::*;
        match self {
            FusedIncLocal { .. }
            | FusedLoadLoadCmpBr { .. }
            | FusedLoadConstCmpBr { .. }
            | FusedLoadConstAddReturn { .. } => 4,
            FusedLoadGetFieldReturn { .. }
            | FusedStackConstCmpBr { .. }
            | FusedLoadLoadAdd { .. }
            | FusedLoadConstAdd { .. } => 3,
            FusedLoadGetField { .. }
            | FusedConstReturn { .. }
            | FusedLoadReturn { .. }
            | FusedLoadStore { .. }
            | FusedLoadCallVirtual { .. }
            | FusedLoadCallDirect { .. } => 2,
            ConstInt(_) | ConstBool(_) | ConstStr(_) | ConstNull | Load(_) | Store(_) | Add
            | Sub | Mul | Div | Rem | Neg | CmpEq | CmpNe | CmpLt | CmpLe | CmpGt | CmpGe | Not
            | BoolEq | RefEq | RefNe | StrConcat | StrEq | New { .. } | GetField { .. }
            | PutField { .. } | GetStatic { .. } | PutStatic { .. } | NewArray { .. } | ALoad
            | AStore | ArrayLen | CallVirtual { .. } | CallDirect { .. } | CallNative { .. }
            | Jump(_) | JumpIfTrue(_) | JumpIfFalse(_) | Return | ReturnValue | Pop | Dup => 1,
        }
    }
}

/// A compiled method body.
#[derive(Clone, Debug)]
pub struct CompiledMethod {
    /// The method this code implements.
    pub method: MethodId,
    /// Compilation tier.
    pub level: CompileLevel,
    /// Resolved instructions.
    pub code: Vec<RInstr>,
    /// Local slots needed.
    pub max_locals: u16,
    /// Classes whose layout/dispatch data is baked into this code.
    pub referenced_classes: Vec<ClassId>,
    /// Invocation counter driving adaptive recompilation (sampled by the
    /// interpreter on every call, cache hit or miss).
    pub invocations: CounterCell,
    /// Loop back-edges taken by base-tier frames of this code (bumped only
    /// when the JIT tier is enabled). Invocations + trips drive promotion,
    /// so a loopy method that is rarely called (a server's main loop) gets
    /// compiled via OSR-in at a back-edge; kept as its own cell because
    /// only the back-edge bumps it and only [`Self::next_tier`] sums them.
    pub loop_trips: CounterCell,
    /// Number of call sites in `code` (`CallVirtual`/`CallDirect` carry
    /// ids `0..call_sites`); sizes the per-thread inline-cache rows.
    pub call_sites: u32,
    /// Fusion metadata; present iff `level == Jit`, in which case `code`
    /// *is* the superinstruction-fused stream (`frame.pc` indexes it and
    /// the interpreter's dense `match` executes it directly). Carries the
    /// retained 1:1 base body, the fused-index → base-pc deopt mapping,
    /// and the epoch-revalidation cache — deopt swaps the frame onto the
    /// retained base body at the mapped pc, which is exact and
    /// semantically a no-op.
    pub fused: Option<Arc<crate::jit2::FusedCode>>,
    /// Whether this body qualifies for the leaf-call fast path: short and
    /// made of simple ops only, so an inline-cache hit may run it on the
    /// caller's operand stack without pushing a frame
    /// ([`crate::jit2::is_leaf`]).
    pub leaf: bool,
}

impl CompiledMethod {
    /// Code for `method` at `level` with fresh hotness counters, nothing
    /// referenced and no fusion metadata; `leaf` is derived from `code`.
    pub fn new(
        method: MethodId,
        level: CompileLevel,
        code: Vec<RInstr>,
        max_locals: u16,
        call_sites: u32,
    ) -> Self {
        CompiledMethod {
            method,
            level,
            leaf: crate::jit2::is_leaf(&code),
            code,
            max_locals,
            referenced_classes: Vec::new(),
            invocations: CounterCell::default(),
            loop_trips: CounterCell::default(),
            call_sites,
            fused: None,
        }
    }

    /// The base-tier (bytecode) pc a frame of this code stands at when its
    /// `pc` field reads `pc` — the identity for base code, the fused op's
    /// first covered base instruction for jit code.
    pub fn base_pc_of(&self, pc: u32) -> u32 {
        match &self.fused {
            Some(f) => f.base_pc[pc as usize],
            None => pc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_cell_bump_returns_previous_and_clone_copies() {
        let c = CounterCell::default();
        assert_eq!(c.bump(), 0);
        assert_eq!(c.bump(), 1);
        assert_eq!(c.get(), 2);
        let d = c.clone();
        assert_eq!(d.get(), 2);
        d.bump();
        assert_eq!(c.get(), 2, "clones are independent cells");
    }
}
