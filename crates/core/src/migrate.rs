//! Active-method migration: the paper's §3.5 future work, implemented.
//!
//! "We plan to further extend OSR to support changed methods on the
//! stack, similar to what is provided by UpStare … the user would map the
//! yield point at the end of the old loop to the yield point at the end
//! of the new loop."
//!
//! Instead of a hand-written map, this module *derives* the program-point
//! correspondence by aligning the old and new bytecode with a longest-
//! common-subsequence over instruction tokens (branch targets are ignored
//! during matching — the new code carries its own correct targets). An
//! on-stack pc that lands on a matched instruction migrates to the
//! matched position; a pc on a deleted instruction is unmappable and the
//! method stays restricted, falling back to the paper's return-barrier
//! path. Locals carry over by slot and the operand stack is preserved —
//! the analogue of UpStare's (identity) stack-frame transformer, asserted
//! by the developer when enabling [`migrate_active_methods`].
//!
//! Migration runs during install, before the update GC, and only touches
//! stack frames; the collector sees the already-migrated frames as roots.
//!
//! [`migrate_active_methods`]: crate::ApplyOptions::migrate_active_methods

use std::collections::HashMap;

use jvolve_classfile::bytecode::Instr;
use jvolve_classfile::{ClassSet, MethodRef};

/// A pc-level correspondence between two versions of a method body.
#[derive(Debug, Clone, Default)]
pub struct PcMap {
    map: HashMap<u32, u32>,
}

impl PcMap {
    /// The new-code pc corresponding to old-code `pc`, if the instruction
    /// survived the edit.
    pub fn lookup(&self, pc: u32) -> Option<u32> {
        self.map.get(&pc).copied()
    }

    /// Number of mapped program points.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing maps.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Token used for alignment: branches match by kind (their targets shift
/// whenever instructions are inserted or deleted); everything else must
/// match exactly.
fn tokens_match(a: &Instr, b: &Instr) -> bool {
    use Instr::*;
    match (a, b) {
        (Jump(_), Jump(_)) | (JumpIfTrue(_), JumpIfTrue(_)) | (JumpIfFalse(_), JumpIfFalse(_)) => {
            true
        }
        _ => a == b,
    }
}

/// Aligns two bodies with a longest common subsequence and returns the
/// old-pc → new-pc map over matched instructions.
pub fn align(old: &[Instr], new: &[Instr]) -> PcMap {
    let n = old.len();
    let m = new.len();
    // lcs[i][j] = LCS length of old[i..], new[j..].
    let mut lcs = vec![vec![0u32; m + 1]; n + 1];
    for i in (0..n).rev() {
        for j in (0..m).rev() {
            lcs[i][j] = if tokens_match(&old[i], &new[j]) {
                lcs[i + 1][j + 1] + 1
            } else {
                lcs[i + 1][j].max(lcs[i][j + 1])
            };
        }
    }
    let mut map = HashMap::new();
    let (mut i, mut j) = (0, 0);
    while i < n && j < m {
        if tokens_match(&old[i], &new[j]) && lcs[i][j] == lcs[i + 1][j + 1] + 1 {
            map.insert(i as u32, j as u32);
            i += 1;
            j += 1;
        } else if lcs[i + 1][j] >= lcs[i][j + 1] {
            i += 1;
        } else {
            j += 1;
        }
    }
    PcMap { map }
}

/// Computes the pc map for one method across the update, when migration
/// is possible at all: the method must exist in both versions with an
/// identical signature.
pub fn method_pc_map(old_set: &ClassSet, new_set: &ClassSet, method: &MethodRef) -> Option<PcMap> {
    let old_class = old_set.get(&method.class)?;
    let new_class = new_set.get(&method.class)?;
    let old_m = old_class.find_method(&method.method)?;
    let new_m = new_class.find_method(&method.method)?;
    if old_m.signature() != new_m.signature() {
        return None;
    }
    let old_code = old_m.code.as_ref()?;
    let new_code = new_m.code.as_ref()?;
    Some(align(&old_code.instrs, &new_code.instrs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use jvolve_classfile::ClassName;

    fn bodies(old_src: &str, new_src: &str, class: &str, method: &str) -> (Vec<Instr>, Vec<Instr>) {
        let take = |src: &str| {
            jvolve_lang::compile(src)
                .unwrap()
                .into_iter()
                .find(|c| c.name.as_str() == class)
                .unwrap()
                .find_method(method)
                .unwrap()
                .code
                .as_ref()
                .unwrap()
                .instrs
                .clone()
        };
        (take(old_src), take(new_src))
    }

    #[test]
    fn identity_alignment_maps_everything() {
        let src = "class A { static method f(n: int): int {
            var i: int = 0;
            while (i < n) { i = i + 1; }
            return i;
        } }";
        let (old, new) = bodies(src, src, "A", "f");
        let map = align(&old, &new);
        assert_eq!(map.len(), old.len());
        for pc in 0..old.len() as u32 {
            assert_eq!(map.lookup(pc), Some(pc));
        }
    }

    #[test]
    fn insertion_shifts_later_pcs() {
        let old_src = "class A { static field c: int;
          static method f(n: int): int {
            var i: int = 0;
            while (i < n) { i = i + 1; }
            return i;
        } }";
        let new_src = "class A { static field c: int;
          static method f(n: int): int {
            var i: int = 0;
            while (i < n) { A.c = A.c + 1; i = i + 1; }
            return i;
        } }";
        let (old, new) = bodies(old_src, new_src, "A", "f");
        let map = align(&old, &new);
        // Every old instruction survives the insertion.
        assert_eq!(map.len(), old.len());
        // The loop-head (pc of the condition's first instruction) is
        // matched, and later pcs shift right.
        let last_old = old.len() as u32 - 1;
        let last_new = new.len() as u32 - 1;
        assert_eq!(map.lookup(last_old), Some(last_new));
    }

    #[test]
    fn deleted_instructions_are_unmappable() {
        let old_src = "class A { static method f(x: int): int {
            var y: int = x * 3;
            var z: int = y + 7;
            return z;
        } }";
        let new_src = "class A { static method f(x: int): int {
            var z: int = x + 7;
            return z;
        } }";
        let (old, new) = bodies(old_src, new_src, "A", "f");
        let map = align(&old, &new);
        assert!(map.len() < old.len(), "some old pcs must be unmappable");
    }

    #[test]
    fn branch_targets_do_not_break_matching() {
        // An insertion before a loop changes the back-edge target; the
        // jump must still align by kind.
        let old_src = "class A { static method f(n: int): int {
            var acc: int = 0;
            var i: int = 0;
            while (i < n) { acc = acc + i; i = i + 1; }
            return acc;
        } }";
        let new_src = "class A { static method f(n: int): int {
            var acc: int = 100;
            var pad: int = acc * 2;
            var i: int = 0;
            while (i < n) { acc = acc + i; i = i + 1; }
            return acc + pad;
        } }";
        let (old, new) = bodies(old_src, new_src, "A", "f");
        let map = align(&old, &new);
        // The back-edge jump of the loop aligns even though its target
        // moved.
        let old_jump = old
            .iter()
            .position(|i| matches!(i, Instr::Jump(t) if (*t as usize) < old.len()))
            .expect("old back edge") as u32;
        assert!(map.lookup(old_jump).is_some());
    }

    #[test]
    fn signature_change_prevents_migration() {
        let old = jvolve_lang::compile("class A { method f(x: int): void { } }").unwrap();
        let new = jvolve_lang::compile("class A { method f(x: int, y: int): void { } }").unwrap();
        let old_set: ClassSet = old.into_iter().collect();
        let new_set: ClassSet = new.into_iter().collect();
        let mref = MethodRef::new(ClassName::from("A"), "f");
        assert!(method_pc_map(&old_set, &new_set, &mref).is_none());
    }
}
