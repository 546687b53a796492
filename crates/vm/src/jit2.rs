//! Template-JIT tier: superinstruction fusion over resolved [`RInstr`]
//! streams.
//!
//! The third execution tier. Hot methods (promoted by invocation counts
//! plus loop-trip counts, see [`VmConfig::jit_threshold`]) are recompiled
//! by peephole-fusing high-frequency pairs/triples/quads of base-resolved
//! instructions into single *superinstructions* — e.g. `Load x; GetField
//! off` becomes one `FusedLoadGetField { slot, offset }` op. The fused
//! stream is still a `Vec<RInstr>` executed by the interpreter's dense
//! `match` (which compiles to a jump table), so one fused op costs one
//! dispatch where the base stream paid two to four. A superinstruction
//! has no semantics of its own: its arm in the interpreter's op table
//! (`crate::interp`) composes the bodies of the ops it covers, and
//! [`RInstr::covers`] says once how many those are (the fusion stride,
//! the `base_pc` map and the step accounting all read it).
//!
//! # Why this still counts as "JIT" for the paper's purposes
//!
//! What makes Jvolve's update model VM-centric is that compiled code
//! *bakes in* resolved offsets, dispatch slots, and direct-call targets,
//! forcing the update protocol to invalidate and recompile (paper §3.2).
//! Fused code bakes in exactly those operands — a `FusedLoadGetField`
//! carries a physical word offset, a `FusedLoadCallDirect` a concrete
//! [`MethodId`] — so the DSU constraint stays load-bearing: the tier
//! revalidates against [`Registry::code_epoch`] at method entry and loop
//! back-edges, and **deopts** to freshly compiled base code mid-method
//! when its method was invalidated or replaced.
//!
//! # Deopt / OSR mapping
//!
//! [`FusedCode::base_pc`] maps every fused index to the base pc of the
//! first base instruction it covers (identity for unfused ops). The
//! vector is non-decreasing, so the reverse direction (base pc → fused
//! index, needed by OSR-in at a back-edge) is a binary search. Fusion
//! never crosses a branch target, so every branch target is an op
//! boundary and both directions are exact at the pcs that matter:
//! a frame stopped at any fused-op boundary reconstructs at the recorded
//! base pc with identical locals and operand stack (fused ops only ever
//! retire whole base-instruction groups; they never publish intermediate
//! stack states at a yield or trap point).
//!
//! What is **not** fused: allocating ops (`New`, `NewArray`, `ConstStr`,
//! `StrConcat`) because they can trigger GC mid-op; unconditional `Jump`
//! because the loop back-edge is the interpreter's yield point and the
//! jit tier's epoch-revalidation point, and keeping it a plain op keeps
//! that logic in one arm; and anything spanning a branch target.
//!
//! [`RInstr`]: crate::compiled::RInstr
//! [`RInstr::covers`]: crate::compiled::RInstr::covers
//! [`MethodId`]: crate::ids::MethodId
//! [`VmConfig::jit_threshold`]: crate::config::VmConfig::jit_threshold
//! [`Registry::code_epoch`]: crate::registry::Registry::code_epoch

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use crate::compiled::{CompiledMethod, RInstr};

/// Integer comparison baked into a fused compare-and-branch op.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Evaluates the comparison.
    #[inline]
    pub fn apply(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

/// Fusion metadata attached to a [`CompileLevel::Jit`] body.
///
/// The fused stream itself lives in [`CompiledMethod::code`] — the
/// interpreter's existing dispatch executes it directly. This struct
/// carries what the *update* machinery needs: the retained base body,
/// the deopt mapping, and the epoch-revalidation cache.
///
/// [`CompileLevel::Jit`]: crate::compiled::CompileLevel::Jit
/// [`CompiledMethod::code`]: crate::compiled::CompiledMethod::code
#[derive(Debug)]
pub struct FusedCode {
    /// The 1:1 base body the fused stream was built from, compiled
    /// against the same registry snapshot. Deopt swaps a fused frame onto
    /// this body at the mapped pc — semantically a no-op (same resolved
    /// stream, just unfused), so a mid-method deopt is *always* safe no
    /// matter how the registry changed underneath. Bringing the method's
    /// code up to date stays the update protocol's job (controller OSR at
    /// safe points, recompile on next call), exactly as for stale base
    /// frames in the jit-off VM.
    pub base: Arc<CompiledMethod>,
    /// Fused index → base pc of the first covered base instruction.
    /// Same length as the fused stream; non-decreasing.
    pub base_pc: Vec<u32>,
    /// The last [`Registry::code_epoch`] at which this body was observed
    /// to still be the method's installed code. Method entry and loop
    /// back-edges compare this against the current epoch with one relaxed
    /// load; on mismatch the interpreter re-checks the registry and
    /// either refreshes this cache (the epoch bump was unrelated — e.g.
    /// some *other* method got recompiled) or deopts. Without this cache
    /// every unrelated recompile anywhere in the VM would permanently
    /// kick every fused frame back to base code.
    ///
    /// [`Registry::code_epoch`]: crate::registry::Registry::code_epoch
    pub valid_epoch: AtomicU64,
}

/// Fused index whose op *starts at* base pc `base` in a fused-index →
/// base-pc map — exact lookup; panics if `base` is not an op boundary.
/// Callers only translate branch targets and OSR entry pcs, which fusion
/// guarantees are boundaries.
pub fn fused_index_of(map: &[u32], base: u32) -> u32 {
    map.binary_search(&base)
        .unwrap_or_else(|_| panic!("base pc {base} is not a fused-op boundary")) as u32
}

/// Raw output of the fusion pass, assembled into a [`FusedCode`] (plus
/// the retained base body) by the JIT driver in [`crate::jit`].
#[derive(Debug)]
pub struct Fusion {
    /// The fused stream (branch targets already remapped to fused
    /// indices).
    pub code: Vec<RInstr>,
    /// Fused index → base pc of the first covered base instruction.
    pub base_pc: Vec<u32>,
}

/// The comparison a base compare op performs, if it is one.
fn cmp_of(ins: &RInstr) -> Option<CmpOp> {
    match ins {
        RInstr::CmpEq => Some(CmpOp::Eq),
        RInstr::CmpNe => Some(CmpOp::Ne),
        RInstr::CmpLt => Some(CmpOp::Lt),
        RInstr::CmpLe => Some(CmpOp::Le),
        RInstr::CmpGt => Some(CmpOp::Gt),
        RInstr::CmpGe => Some(CmpOp::Ge),
        _ => None,
    }
}

/// `(branch when, target)` of a conditional branch, if it is one.
fn br_of(ins: &RInstr) -> Option<(bool, u32)> {
    match ins {
        RInstr::JumpIfTrue(t) => Some((true, *t)),
        RInstr::JumpIfFalse(t) => Some((false, *t)),
        _ => None,
    }
}

/// The four-instruction superinstruction `rest` starts with, if any.
fn quad(rest: &[RInstr]) -> Option<RInstr> {
    use RInstr::*;
    match rest {
        [Load(s), ConstInt(k), Add, Store(d), ..] if d == s => {
            Some(FusedIncLocal { slot: *s, delta: *k })
        }
        [Load(s), ConstInt(k), Add, ReturnValue, ..] => {
            Some(FusedLoadConstAddReturn { slot: *s, k: *k })
        }
        [Load(s), ConstInt(k), c, b, ..] => {
            let (op, (when, target)) = (cmp_of(c)?, br_of(b)?);
            Some(FusedLoadConstCmpBr { slot: *s, k: *k, op, when, target })
        }
        [Load(a), Load(b), c, j, ..] => {
            let (op, (when, target)) = (cmp_of(c)?, br_of(j)?);
            Some(FusedLoadLoadCmpBr { a: *a, b: *b, op, when, target })
        }
        _ => None,
    }
}

/// The three-instruction superinstruction `rest` starts with, if any.
fn triple(rest: &[RInstr]) -> Option<RInstr> {
    use RInstr::*;
    match rest {
        [Load(s), GetField { offset, is_ref }, ReturnValue, ..] => {
            Some(FusedLoadGetFieldReturn { slot: *s, offset: *offset, is_ref: *is_ref })
        }
        [Load(a), Load(b), Add, ..] => Some(FusedLoadLoadAdd { a: *a, b: *b }),
        [Load(s), ConstInt(k), Add, ..] => Some(FusedLoadConstAdd { slot: *s, k: *k }),
        [ConstInt(k), c, b, ..] => {
            let (op, (when, target)) = (cmp_of(c)?, br_of(b)?);
            Some(FusedStackConstCmpBr { k: *k, op, when, target })
        }
        _ => None,
    }
}

/// The two-instruction superinstruction `rest` starts with, if any.
fn pair(rest: &[RInstr]) -> Option<RInstr> {
    use RInstr::*;
    match rest {
        [Load(s), GetField { offset, is_ref }, ..] => {
            Some(FusedLoadGetField { slot: *s, offset: *offset, is_ref: *is_ref })
        }
        [Load(s), CallVirtual { vslot, argc: 0, site }, ..] => {
            Some(FusedLoadCallVirtual { slot: *s, vslot: *vslot, site: *site })
        }
        [Load(s), CallDirect { method, argc, has_receiver, site }, ..] => {
            Some(FusedLoadCallDirect {
                slot: *s,
                method: *method,
                argc: *argc,
                has_receiver: *has_receiver,
                site: *site,
            })
        }
        [Load(s), ReturnValue, ..] => Some(FusedLoadReturn { slot: *s }),
        [Load(f), Store(t), ..] => Some(FusedLoadStore { from: *f, to: *t }),
        [ConstInt(k), ReturnValue, ..] => Some(FusedConstReturn { k: *k }),
        _ => None,
    }
}

/// Longest-first peephole match at `i`. How many base instructions the
/// returned superinstruction swallows is its [`RInstr::covers`]. A
/// candidate is rejected if any *interior* pc is a branch target (the
/// target must stay addressable); `i` itself being a target is fine — the
/// fused op starts there.
fn try_fuse(base: &[RInstr], i: usize, target: &[bool]) -> Option<RInstr> {
    [quad, triple, pair].iter().find_map(|shape| {
        shape(&base[i..]).filter(|op| (i + 1..i + op.covers()).all(|p| !target[p]))
    })
}

/// Peephole-fuses a 1:1 base-resolved stream into superinstruction
/// threaded code. Returns the fused stream (branch targets remapped to
/// fused indices) with its deopt mapping.
pub fn fuse(base: &[RInstr]) -> Fusion {
    use RInstr::*;
    // Branch targets force op boundaries so they stay addressable after
    // fusion (and so the deopt mapping is exact wherever control lands).
    let mut target = vec![false; base.len() + 1];
    for ins in base {
        if let Jump(t) | JumpIfTrue(t) | JumpIfFalse(t) = ins {
            target[*t as usize] = true;
        }
    }

    let mut out = Vec::with_capacity(base.len());
    let mut base_pc = Vec::with_capacity(base.len());
    // Base boundary pc → fused index, for the branch-target fixup pass.
    let mut fused_of = vec![u32::MAX; base.len() + 1];
    let mut i = 0;
    while i < base.len() {
        fused_of[i] = out.len() as u32;
        base_pc.push(i as u32);
        let op = try_fuse(base, i, &target).unwrap_or_else(|| base[i].clone());
        i += op.covers();
        out.push(op);
    }
    fused_of[base.len()] = out.len() as u32;

    // Fixup: branch targets were base pcs; rewrite them as fused indices.
    // Every target is a boundary (forced above), so the map is defined.
    for ins in &mut out {
        match ins {
            Jump(t)
            | JumpIfTrue(t)
            | JumpIfFalse(t)
            | FusedLoadLoadCmpBr { target: t, .. }
            | FusedLoadConstCmpBr { target: t, .. }
            | FusedStackConstCmpBr { target: t, .. } => {
                debug_assert_ne!(fused_of[*t as usize], u32::MAX);
                *t = fused_of[*t as usize];
            }
            _ => {}
        }
    }

    Fusion { code: out, base_pc }
}

/// Longest body eligible for the leaf-call fast path.
const LEAF_MAX_LEN: usize = 16;

/// Whether a (possibly fused) body qualifies for the leaf-call fast
/// path: short and made of simple ops only ([`RInstr::is_simple`] — no
/// branch, call or allocation), so an inline-cache hit may execute it on
/// the caller's operand stack without pushing a frame.
pub fn is_leaf(code: &[RInstr]) -> bool {
    code.len() <= LEAF_MAX_LEN && code.iter().all(RInstr::is_simple)
}

#[cfg(test)]
mod tests {
    use super::*;
    use RInstr::*;

    /// Superinstructions in a fused stream.
    fn fused_count(f: &Fusion) -> usize {
        f.code.iter().filter(|op| op.covers() > 1).count()
    }

    #[test]
    fn getter_fuses_to_a_single_superinstruction() {
        // `int area() { return this.side; }` — Load 0, GetField, ReturnValue.
        let base =
            vec![Load(0), GetField { offset: 0, is_ref: false }, ReturnValue];
        let f = fuse(&base);
        assert_eq!(
            f.code,
            vec![FusedLoadGetFieldReturn { slot: 0, offset: 0, is_ref: false }]
        );
        assert_eq!(f.base_pc, vec![0]);
        assert_eq!(fused_count(&f), 1);
        assert!(is_leaf(&f.code));
    }

    #[test]
    fn counted_loop_fuses_guard_increment_and_keeps_backedge_plain() {
        // i = 0; while (i < n) { acc = acc + i; i = i + 1; } return acc;
        //  0 ConstInt 0      — i = 0
        //  1 Store 1
        //  2 Load 1          — guard: i < n
        //  3 Load 0
        //  4 CmpLt
        //  5 JumpIfFalse 15
        //  6 Load 2          — acc = acc + i
        //  7 Load 1
        //  8 Add
        //  9 Store 2
        // 10 Load 1          — i = i + 1
        // 11 ConstInt 1
        // 12 Add
        // 13 Store 1
        // 14 Jump 2
        // 15 Load 2
        // 16 ReturnValue
        let base = vec![
            ConstInt(0),
            Store(1),
            Load(1),
            Load(0),
            CmpLt,
            JumpIfFalse(15),
            Load(2),
            Load(1),
            Add,
            Store(2),
            Load(1),
            ConstInt(1),
            Add,
            Store(1),
            Jump(2),
            Load(2),
            ReturnValue,
        ];
        let f = fuse(&base);
        assert_eq!(
            f.code,
            vec![
                ConstInt(0),
                Store(1),
                // guard at base pc 2 (a branch target, so it starts an op)
                FusedLoadLoadCmpBr { a: 1, b: 0, op: CmpOp::Lt, when: false, target: 7 },
                FusedLoadLoadAdd { a: 2, b: 1 },
                Store(2),
                FusedIncLocal { slot: 1, delta: 1 },
                // the back-edge stays a plain Jump — it is the yield and
                // epoch-revalidation point — retargeted to fused index 2
                Jump(2),
                FusedLoadReturn { slot: 2 },
            ]
        );
        assert_eq!(f.base_pc, vec![0, 1, 2, 6, 9, 10, 14, 15]);
        assert_eq!(fused_count(&f), 4);
        // The loop-exit target (base 15) resolved to fused index 7.
        assert_eq!(fused_index_of(&f.base_pc, 15), 7);
        assert_eq!(fused_index_of(&f.base_pc, 2), 2);
    }

    #[test]
    fn interior_branch_target_blocks_fusion() {
        // Load 0 / ReturnValue would fuse, but pc 2 (the ReturnValue) is
        // a jump target *interior* to the candidate, so the pair must
        // stay split. Contrast: a target at the candidate's *first* pc is
        // fine — the fused op starts there (see the counted-loop guard).
        let base = vec![JumpIfTrue(2), Load(0), ReturnValue, Jump(2)];
        let f = fuse(&base);
        assert_eq!(f.code[1], Load(0));
        assert_eq!(f.code[2], ReturnValue);
        assert_eq!(fused_count(&f), 0);
        assert_eq!(f.base_pc, vec![0, 1, 2, 3]);
        // Both branches retarget to the (unchanged) fused index 2.
        assert_eq!(f.code[0], JumpIfTrue(2));
        assert_eq!(f.code[3], Jump(2));
    }

    #[test]
    fn base_pc_mapping_is_nondecreasing_and_covers_the_stream() {
        let base = vec![
            Load(0),
            GetField { offset: 1, is_ref: false },
            Load(1),
            ConstInt(3),
            Add,
            ReturnValue,
        ];
        let f = fuse(&base);
        assert_eq!(f.code.len(), f.base_pc.len());
        assert!(f.base_pc.windows(2).all(|w| w[0] < w[1]));
        assert!(f.base_pc.iter().all(|&p| (p as usize) < base.len()));
    }

    #[test]
    fn leaf_rejects_calls_branches_and_allocation() {
        assert!(is_leaf(&[Load(0), ReturnValue]));
        assert!(!is_leaf(&[Jump(0)]));
        assert!(!is_leaf(&[CallVirtual { vslot: 0, argc: 0, site: 0 }, Return]));
        assert!(!is_leaf(&[New { class: crate::ids::ClassId(0), size: 2 }, Return]));
        assert!(!is_leaf(&[StrConcat, Return]));
        assert!(!is_leaf(&vec![Pop; LEAF_MAX_LEN + 1]));
    }

    #[test]
    fn cmp_op_semantics() {
        assert!(CmpOp::Lt.apply(1, 2) && !CmpOp::Lt.apply(2, 2));
        assert!(CmpOp::Le.apply(2, 2) && CmpOp::Ge.apply(2, 2));
        assert!(CmpOp::Eq.apply(3, 3) && CmpOp::Ne.apply(3, 4));
        assert!(CmpOp::Gt.apply(3, 2));
    }
}
