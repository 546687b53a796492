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
    /// stop-the-world full-heap update-GC. The pause only flips the
    /// semispaces and evacuates the roots; the update-GC then runs as an
    /// incremental copy, stepped by the update controller, while the
    /// interpreter's reference loads go through a read barrier that
    /// evacuates — and so transforms — what the guest loads first. Once the
    /// copy ends the barrier's range test is false again, so steady-state
    /// overhead is zero outside an epoch. An epoch the controller is never
    /// stepped through again stays open, paying the barrier forever: that
    /// is the JDrums/DVM indirection baseline (paper §5) the `ablation`
    /// bench times.
    pub lazy_migration: bool,
    /// The template JIT: every method is compiled into
    /// superinstruction-fused threaded code ([`crate::jit2`]) at its first
    /// compile, and a call runs a short callee made of simple ops without
    /// a frame (the leaf path). Fused code bakes in resolved offsets like
    /// unfused code, so an update invalidates, OSR-replaces and recompiles
    /// it the same way. Off holds the unfused baseline for the jit
    /// differential oracle, Fig. 5's "stock" row and the `gates interp`
    /// base rows.
    pub enable_jit: bool,
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
            enable_jit: true,
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
        assert!(c.enable_jit);
    }
}
