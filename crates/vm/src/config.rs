//! VM configuration.

/// Tuning knobs for a [`Vm`](crate::Vm).
#[derive(Clone, Debug)]
pub struct VmConfig {
    /// Words per semispace. Total heap is twice this (plus one reserved
    /// word), matching the paper's Jikes RVM semi-space collector setup.
    pub semispace_words: usize,
    /// Interpreter steps per scheduler slice; threads only actually stop at
    /// the first *yield point* (method entry/exit or loop back-edge) at or
    /// after the quantum, reproducing safe-point-based scheduling.
    pub quantum: usize,
    /// Maximum guest call-stack depth per thread.
    pub max_stack_depth: usize,
    /// Echo `Sys.print` output to the host's stdout as well as buffering it.
    pub echo_output: bool,
    /// Lazy migration: commit updates with an O(roots) pause instead of a
    /// stop-the-world full-heap update-GC. Changed classes are marked
    /// version-pending; the interpreter's reference loads go through a
    /// read barrier that transforms stale objects on first touch, and a
    /// background scavenger (stepped by the update controller) transforms
    /// the untouched remainder. When the epoch completes the heap flips
    /// back to the barrier-free fast path, so steady-state overhead is
    /// zero outside an epoch. An epoch the controller is never stepped
    /// through again stays open, paying the check forever: that is the
    /// JDrums/DVM indirection baseline (paper §5) the `ablation` bench
    /// times.
    pub lazy_migration: bool,
    /// The steady-state dispatch fast path: per-thread inline caches for
    /// `CallVirtual`/`CallDirect` (guarded by the registry's dispatch
    /// epoch — every registry mutation that can change dispatch
    /// invalidates all caches at once). On by default; off holds the
    /// honest stock baseline for the differential oracle and Fig. 5's
    /// "stock" configuration.
    pub enable_inline_caches: bool,
    /// The template-JIT tier: hot methods are recompiled into
    /// superinstruction-fused threaded code ([`crate::jit2`]), promoted by
    /// invocation counts plus loop-trip counts so loopy methods that are
    /// rarely *called* still get compiled (via OSR-in at a back-edge).
    /// Fused code bakes in resolved offsets, so it revalidates against
    /// [`Registry::code_epoch`](crate::registry::Registry::code_epoch) at
    /// method entry and loop back-edges and deopts to fresh base code when
    /// its method was invalidated or replaced. Off holds the interpreted
    /// baseline for the jit differential oracle and the v1 interpbench
    /// rows.
    pub enable_jit: bool,
    /// Combined invocation + loop-trip count after which a method is
    /// promoted to the template-JIT tier.
    pub jit_threshold: u32,
    /// Read by nothing: the collector is serial (DESIGN §5). The field
    /// survives only because `benchmark/src/layers.rs`, frozen outside
    /// benchmark PRs, names it in a `VmConfig` literal; ROADMAP item 0
    /// (the benchmark-correction PR) deletes it.
    pub gc_threads: usize,
}

impl VmConfig {
    /// A small heap suitable for unit tests (1 MiB semispaces).
    pub fn small() -> Self {
        VmConfig { semispace_words: 128 * 1024, ..VmConfig::default() }
    }
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            // 16 MiB semispaces by default.
            semispace_words: 2 * 1024 * 1024,
            quantum: 4_000,
            max_stack_depth: 2_048,
            echo_output: false,
            lazy_migration: false,
            enable_inline_caches: true,
            enable_jit: true,
            jit_threshold: 400,
            gc_threads: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = VmConfig::default();
        assert!(c.semispace_words > 0);
        assert!(c.quantum > 0);
        assert!(!c.lazy_migration);
        assert!(c.enable_inline_caches);
        assert!(c.enable_jit);
        assert!(c.jit_threshold > 0);
    }
}
