//! Compiled (resolved) method representation.
//!
//! The baseline compiler turns symbolic bytecode into [`RInstr`] sequences
//! with **hard-coded** field offsets, static slots, dispatch-table slots,
//! and instance sizes — the analogue of machine code emitted by Jikes RVM's
//! compilers. This baking is what makes the paper's *indirect method
//! updates* necessary: when a class update changes a layout, compiled code
//! of any method referencing the class silently holds stale offsets and
//! must be invalidated (and, if on-stack, OSR-replaced).

use std::sync::Arc;

use crate::ids::{ClassId, MethodId};
use crate::natives::NativeFn;

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
    },
    /// Direct call (static methods, constructors, `super` calls).
    CallDirect {
        /// Target method.
        method: MethodId,
        /// Argument count (receiver excluded).
        argc: u8,
        /// Whether a receiver sits under the arguments.
        has_receiver: bool,
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

/// A compiled method body: the method's one executable form. With the
/// template JIT on it is the superinstruction-fused stream
/// ([`crate::jit2`]), fused at the first compile; off, the 1:1 resolved
/// stream.
#[derive(Clone, Debug)]
pub struct CompiledMethod {
    /// The method this code implements.
    pub method: MethodId,
    /// Resolved instructions.
    pub code: Vec<RInstr>,
    /// Local slots needed.
    pub max_locals: u16,
    /// Classes whose layout/dispatch data is baked into this code.
    pub referenced_classes: Vec<ClassId>,
    /// Index in `code` → bytecode pc of the first base instruction the op
    /// covers; non-decreasing. Empty means the identity (unfused code).
    pub base_pc: Vec<u32>,
    /// Whether this body qualifies for the leaf-call fast path: short and
    /// made of simple ops only, so a call may run it on the caller's
    /// operand stack without pushing a frame
    /// ([`crate::jit2::is_leaf`]).
    pub leaf: bool,
}

impl CompiledMethod {
    /// Unfused code for `method`: nothing referenced, the identity pc map;
    /// `leaf` is derived from `code`.
    pub fn new(method: MethodId, code: Vec<RInstr>, max_locals: u16) -> Self {
        CompiledMethod {
            method,
            leaf: crate::jit2::is_leaf(&code),
            code,
            max_locals,
            referenced_classes: Vec::new(),
            base_pc: Vec::new(),
        }
    }

    /// The bytecode pc a frame of this code stands at when its `pc` field
    /// reads `pc` — the identity for unfused code, the fused op's first
    /// covered base instruction for fused code.
    pub fn base_pc_of(&self, pc: u32) -> u32 {
        self.base_pc.get(pc as usize).copied().unwrap_or(pc)
    }

    /// The index in `code` of the op that starts at bytecode pc `base`, or
    /// `None` if `base` is past the end or, in fused code, inside an op.
    pub fn pc_of_base(&self, base: u32) -> Option<u32> {
        if self.base_pc.is_empty() {
            return ((base as usize) < self.code.len()).then_some(base);
        }
        crate::jit2::fused_index_of(&self.base_pc, base)
    }
}
