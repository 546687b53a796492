//! Per-thread inline caches for call dispatch.
//!
//! The steady-state cost of DSU support hinges on dispatch speed: the
//! paper's Fig. 5 shows stock Jikes and JVolve "essentially identical"
//! because update support adds nothing to the hot path. Here the
//! interpreter's `CallVirtual` walks a TIB and `CallDirect` funnels
//! through the registry on every call; these caches memoize the resolved
//! target per *call site* so a hit costs one epoch compare, one class
//! compare, and an `Arc` clone.
//!
//! Update safety comes from the registry's dispatch epoch
//! ([`Registry::code_epoch`](crate::registry::Registry::code_epoch)):
//! every registry mutation that can change what a call site should run
//! advances the epoch, and entries record the epoch they were filled
//! under — a mismatch forces the slow path. One counter bump therefore
//! invalidates every cache in the VM, which is what makes class swaps,
//! invalidation cascades, OSR republishes, and controller *rollbacks*
//! safe without enumerating threads.
//!
//! Cache state lives on the [`VmThread`](crate::thread::VmThread), keyed
//! by (method, call-site id), so [`CompiledMethod`] stays shareable.

use std::sync::Arc;

use crate::compiled::CompiledMethod;
use crate::ids::{ClassId, MethodId};

/// Polymorphic fallback ways per call site (a monomorphic site uses one).
pub const POLY_WAYS: usize = 4;

/// One cached dispatch target.
#[derive(Debug, Clone)]
pub struct SiteEntry {
    /// Receiver class this entry dispatches for (unused by direct calls).
    pub class: ClassId,
    /// Resolved target method.
    pub method: MethodId,
    /// The target's code at fill time.
    pub code: Arc<CompiledMethod>,
}

/// The cache row of one call site: up to [`POLY_WAYS`] targets, all
/// stamped with the epoch they were filled under.
#[derive(Debug, Clone, Default)]
pub struct CallSiteCache {
    epoch: u64,
    entries: [Option<SiteEntry>; POLY_WAYS],
    /// Rotating victim cursor once every way is occupied.
    next_way: u8,
}

impl CallSiteCache {
    /// The cached target for `class`, valid only under `epoch`.
    #[inline]
    pub fn lookup(&self, epoch: u64, class: ClassId) -> Option<&SiteEntry> {
        if self.epoch != epoch {
            return None;
        }
        self.entries.iter().flatten().find(|e| e.class == class)
    }

    /// The cached direct-call target (way 0), valid only under `epoch`.
    #[inline]
    pub fn lookup_direct(&self, epoch: u64) -> Option<&SiteEntry> {
        if self.epoch != epoch {
            return None;
        }
        self.entries[0].as_ref()
    }

    /// Records a resolved target. A stale row (older epoch) is cleared
    /// first; a full row evicts round-robin.
    pub fn insert(&mut self, epoch: u64, entry: SiteEntry) {
        if self.epoch != epoch {
            self.epoch = epoch;
            self.entries = Default::default();
            self.next_way = 0;
        }
        let way = match self.entries.iter().position(Option::is_none) {
            Some(free) => free,
            None => {
                let victim = self.next_way as usize % POLY_WAYS;
                self.next_way = self.next_way.wrapping_add(1);
                victim
            }
        };
        self.entries[way] = Some(entry);
    }

    /// Records a direct-call target in way 0.
    pub fn insert_direct(&mut self, epoch: u64, entry: SiteEntry) {
        if self.epoch != epoch {
            self.epoch = epoch;
            self.entries = Default::default();
            self.next_way = 0;
        }
        self.entries[0] = Some(entry);
    }
}

/// The cache rows of one method's code object.
#[derive(Debug, Default)]
struct MethodSites {
    /// Identity of the code the rows belong to (the `Arc` pointer
    /// address). Recompilation produces a fresh allocation, so a mismatch
    /// resets the rows — site ids are only meaningful per code object.
    code_key: usize,
    sites: Vec<CallSiteCache>,
}

/// All inline caches of one thread, indexed densely by [`MethodId`].
///
/// A dense `Vec` rather than a hashmap: the row lookup sits on every
/// call's fast path, and hashing would eat most of the win.
#[derive(Debug, Default)]
pub struct InlineCaches {
    methods: Vec<MethodSites>,
}

impl InlineCaches {
    /// The cache row for call site `site` of `code`, whose identity is
    /// `code_key` (its `Arc` address). Rows are (re)allocated lazily when
    /// the method is first seen or its code object changed.
    #[inline]
    pub fn site(&mut self, code: &CompiledMethod, code_key: usize, site: u32) -> &mut CallSiteCache {
        let idx = code.method.index();
        if idx >= self.methods.len() {
            self.methods.resize_with(idx + 1, MethodSites::default);
        }
        let m = &mut self.methods[idx];
        if m.code_key != code_key || m.sites.len() != code.call_sites as usize {
            m.code_key = code_key;
            m.sites.clear();
            m.sites.resize(code.call_sites as usize, CallSiteCache::default());
        }
        &mut m.sites[site as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::{CompileLevel, RInstr};

    fn code(method: u32, call_sites: u32) -> Arc<CompiledMethod> {
        let body = vec![RInstr::Return];
        Arc::new(CompiledMethod::new(MethodId(method), CompileLevel::Base, body, 0, call_sites))
    }

    fn entry(class: u32, target: &Arc<CompiledMethod>) -> SiteEntry {
        SiteEntry { class: ClassId(class), method: target.method, code: Arc::clone(target) }
    }

    #[test]
    fn epoch_mismatch_misses_and_clears_on_refill() {
        let target = code(9, 0);
        let mut row = CallSiteCache::default();
        row.insert(3, entry(1, &target));
        assert!(row.lookup(3, ClassId(1)).is_some());
        assert!(row.lookup(4, ClassId(1)).is_none(), "newer epoch invalidates");
        row.insert(4, entry(2, &target));
        assert!(row.lookup(4, ClassId(1)).is_none(), "stale ways were dropped");
        assert!(row.lookup(4, ClassId(2)).is_some());
    }

    #[test]
    fn polymorphic_ways_fill_then_rotate() {
        let target = code(9, 0);
        let mut row = CallSiteCache::default();
        for c in 0..POLY_WAYS as u32 {
            row.insert(1, entry(c, &target));
        }
        for c in 0..POLY_WAYS as u32 {
            assert!(row.lookup(1, ClassId(c)).is_some(), "all {POLY_WAYS} ways live");
        }
        row.insert(1, entry(99, &target));
        assert!(row.lookup(1, ClassId(99)).is_some());
        let live = (0..POLY_WAYS as u32)
            .filter(|&c| row.lookup(1, ClassId(c)).is_some())
            .count();
        assert_eq!(live, POLY_WAYS - 1, "one victim was evicted");
    }

    #[test]
    fn rows_reset_when_the_code_object_changes() {
        let mut ic = InlineCaches::default();
        let a = code(5, 2);
        let target = code(9, 0);
        let key_a = Arc::as_ptr(&a) as usize;
        ic.site(&a, key_a, 1).insert(7, entry(1, &target));
        assert!(ic.site(&a, key_a, 1).lookup(7, ClassId(1)).is_some());

        // Same method id, new code object (recompilation): rows reset.
        let b = code(5, 3);
        let key_b = Arc::as_ptr(&b) as usize;
        assert!(ic.site(&b, key_b, 1).lookup(7, ClassId(1)).is_none());
        // And the row vector was resized to the new site count.
        ic.site(&b, key_b, 2).insert(7, entry(2, &target));
        assert!(ic.site(&b, key_b, 2).lookup(7, ClassId(2)).is_some());
    }
}
