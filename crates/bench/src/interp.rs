//! Steady-state call-dispatch throughput (the micro-scale companion to
//! Figure 5).
//!
//! The paper's Fig. 5 claim is that DSU support costs nothing at steady
//! state. The epoch-guarded inline caches (see `jvolve_vm::icache`) are
//! what makes that true for call dispatch here: a virtual call hits a
//! per-site cache instead of walking the TIB and funneling through the
//! registry. This harness measures calls/second of a dispatch-bound
//! workload in five configurations:
//!
//! * `CachesOff` — the honest baseline (`--no-inline-caches`, jit off);
//! * `CachesOn`  — caches on, jit off;
//! * `CachesOnUpdated` — caches on, jit off, measured *after* a dynamic
//!   update changed every `area` body (so every cache was invalidated by
//!   the epoch bump and refilled) — steady state must be
//!   indistinguishable from `CachesOn`;
//! * `JitOn` — the default VM: caches plus the template-JIT tier
//!   (superinstruction fusion and the leaf-call fast path);
//! * `JitOnUpdated` — jit on, measured after the same update deopted and
//!   re-promoted every hot body — steady state must recover to `JitOn`.

use std::time::{Duration, Instant};

use jvolve::{ApplyOptions, MemorySink, Update, UpdateController};
use jvolve_vm::{Value, Vm, VmConfig};

/// Dispatch-bound guest workload: a small class hierarchy of short
/// `area` methods called from one loop — 8 virtual calls and 2 direct
/// (static) calls per loop iteration, with minimal loop overhead around
/// them. With caches on, every call is an inline-cache hit; with the jit
/// on, the callees are leaf bodies run without a frame.
pub const INTERP_V1: &str = "
class Shape { method area(): int { return 1; } }
class Square extends Shape {
  field side: int;
  ctor(s: int) { this.side = s; }
  method area(): int { return this.side + 1; }
}
class Circle extends Shape {
  field r: int;
  ctor(r: int) { this.r = r; }
  method area(): int { return this.r + this.r + 1; }
}
class Bench {
  static method bump(x: int): int { return x + 1; }
  static method run(iters: int): int {
    var a: Shape = new Square(3);
    var b: Shape = new Circle(2);
    var c: Shape = new Shape();
    var d: Shape = new Square(5);
    var total: int = 0;
    var i: int = 0;
    while (i < iters) {
      total = Bench.bump(total + a.area() + b.area() + c.area() + d.area());
      total = Bench.bump(total + d.area() + c.area() + b.area() + a.area());
      i = i + 1;
    }
    return total;
  }
}
";

/// New version: every callee body changes, so the update invalidates (and
/// the epoch bump flushes) every dispatch target the caches held. Each
/// body differs from its v1 body only in a constant, so both versions
/// compile and fuse to the same shapes and a post-update ratio measures
/// the update alone.
pub const INTERP_V2: &str = "
class Shape { method area(): int { return 2; } }
class Square extends Shape {
  field side: int;
  ctor(s: int) { this.side = s; }
  method area(): int { return this.side + 2; }
}
class Circle extends Shape {
  field r: int;
  ctor(r: int) { this.r = r; }
  method area(): int { return this.r + this.r + 2; }
}
class Bench {
  static method bump(x: int): int { return x + 2; }
  static method run(iters: int): int {
    var a: Shape = new Square(3);
    var b: Shape = new Circle(2);
    var c: Shape = new Shape();
    var d: Shape = new Square(5);
    var total: int = 0;
    var i: int = 0;
    while (i < iters) {
      total = Bench.bump(total + a.area() + b.area() + c.area() + d.area());
      total = Bench.bump(total + d.area() + c.area() + b.area() + a.area());
      i = i + 1;
    }
    return total;
  }
}
";

/// Guest calls per loop iteration (8 virtual `area` + 2 static `bump`).
pub const CALLS_PER_ITER: u64 = 10;

/// Benchmark configuration identifiers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Config {
    /// Inline caches disabled, jit off: every call walks TIB/registry.
    CachesOff,
    /// Caches on, jit off.
    CachesOn,
    /// Caches on, jit off, measured after a dynamic update invalidated
    /// them all.
    CachesOnUpdated,
    /// The default VM: caches plus the template-JIT tier.
    JitOn,
    /// Jit on, measured after the update deopted every hot body.
    JitOnUpdated,
}

impl Config {
    /// All five, baseline first.
    pub fn all() -> [Config; 5] {
        [
            Config::CachesOff,
            Config::CachesOn,
            Config::CachesOnUpdated,
            Config::JitOn,
            Config::JitOnUpdated,
        ]
    }

    /// Stable identifier, as the `gates` binary prints it.
    pub fn key(self) -> &'static str {
        match self {
            Config::CachesOff => "caches_off",
            Config::CachesOn => "caches_on",
            Config::CachesOnUpdated => "caches_on_updated",
            Config::JitOn => "jit_on",
            Config::JitOnUpdated => "jit_on_updated",
        }
    }

    /// Whether the timed run happens after a dynamic update.
    fn updated(self) -> bool {
        matches!(self, Config::CachesOnUpdated | Config::JitOnUpdated)
    }

    /// Whether the template-JIT tier is enabled.
    fn jit(self) -> bool {
        matches!(self, Config::JitOn | Config::JitOnUpdated)
    }
}

/// One timed measurement.
#[derive(Debug, Clone)]
pub struct InterpSample {
    /// Wall time of the timed `Bench.run` call.
    pub wall: Duration,
    /// Guest calls dispatched during the timed run.
    pub calls: u64,
    /// `Bench.run`'s return value (cross-configuration sanity check).
    pub checksum: i64,
    /// Inline-cache hits during the timed run.
    pub ic_hits: u64,
    /// Inline-cache misses during the timed run.
    pub ic_misses: u64,
    /// Whole-run per-tier compile counts: (base, jit).
    pub tier_compiles: (u64, u64),
    /// Base instructions retired during the timed run.
    pub steps: u64,
    /// Of those, retired inside superinstructions (0 with jit off).
    pub fused_steps: u64,
}

impl InterpSample {
    /// Nanoseconds per dispatched guest call.
    pub fn ns_per_call(&self) -> f64 {
        self.wall.as_nanos() as f64 / self.calls as f64
    }

    /// Hit fraction of all cache lookups (0.0 with caches off).
    pub fn hit_rate(&self) -> f64 {
        let total = self.ic_hits + self.ic_misses;
        if total == 0 {
            0.0
        } else {
            self.ic_hits as f64 / total as f64
        }
    }

    /// Fraction of retired base instructions executed inside
    /// superinstructions during the timed run (0.0 with jit off).
    pub fn fusion_coverage(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.fused_steps as f64 / self.steps as f64
        }
    }
}

/// Runs one configuration: boot, warm up (filling the caches and, with
/// the jit on, promoting the hot bodies), then time one `Bench.run(iters)`
/// call.
///
/// # Panics
///
/// Panics on fixture errors (the workload always compiles, runs, and —
/// for [`Config::CachesOnUpdated`] — the update always applies).
pub fn measure(config: Config, iters: i64) -> InterpSample {
    let vm_config = VmConfig {
        enable_inline_caches: config != Config::CachesOff,
        enable_jit: config.jit(),
        ..VmConfig::default()
    };
    let mut vm = Vm::new(vm_config);
    let v1 = jvolve_lang::compile(INTERP_V1).expect("interp v1 compiles");
    vm.load_classes(&v1).expect("interp classes load");

    // Warm-up: fills caches and, in jit mode, drives every `area` body and
    // `run`'s loop trips past the jit threshold, so the timed run sees
    // steady-state code in every mode.
    let warm = vm
        .call_static_sync("Bench", "run", &[Value::Int(1_000)])
        .expect("warmup runs")
        .expect("run returns a value");
    assert!(matches!(warm, Value::Int(_)));

    if config.updated() {
        let v2 = jvolve_lang::compile(INTERP_V2).expect("interp v2 compiles");
        let update = Update::prepare(&v1, &v2, "v1_").expect("non-empty update");
        let mut events = MemorySink::default();
        let mut controller = UpdateController::new(&update, ApplyOptions::default());
        controller.attach_sink(&mut events);
        controller.run_to_completion(&mut vm).expect("update applies");
        // Post-update warm-up: invalidated methods re-baseline and
        // re-promote, and the flushed caches refill.
        vm.call_static_sync("Bench", "run", &[Value::Int(1_000)]).expect("post-update warmup");
    }

    let hits0 = vm.stats().ic_hits;
    let misses0 = vm.stats().ic_misses;
    let steps0 = vm.stats().steps;
    let fused0 = vm.stats().fused_steps;
    let start = Instant::now();
    let result = vm
        .call_static_sync("Bench", "run", &[Value::Int(iters)])
        .expect("timed run")
        .expect("run returns a value");
    let wall = start.elapsed();
    let Value::Int(checksum) = result else { panic!("Bench.run returns an int") };

    let s = vm.stats();
    InterpSample {
        wall,
        calls: iters as u64 * CALLS_PER_ITER,
        checksum,
        ic_hits: s.ic_hits - hits0,
        ic_misses: s.ic_misses - misses0,
        tier_compiles: (s.base_compiles, s.jit_compiles),
        steps: s.steps - steps0,
        fused_steps: s.fused_steps - fused0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_configurations_agree_on_the_checksum() {
        let iters = 300;
        let off = measure(Config::CachesOff, iters);
        let on = measure(Config::CachesOn, iters);
        assert_eq!(off.checksum, on.checksum, "caches must not change results");
        assert_eq!(off.ic_hits, 0, "caches-off must never consult a cache");
        assert!(on.hit_rate() > 0.9, "steady state should hit: {}", on.hit_rate());
        assert_eq!(on.tier_compiles.1, 0, "jit off never jit-compiles");
        assert_eq!(on.fused_steps, 0, "jit off never fuses");

        // The jit configuration computes the same result while actually
        // running fused code: same checksum, same retired base-instruction
        // count, nonzero fusion coverage.
        let jit = measure(Config::JitOn, iters);
        assert_eq!(jit.checksum, on.checksum, "jit must not change results");
        assert_eq!(jit.steps, on.steps, "fused ops must retire the base step count");
        assert!(jit.tier_compiles.1 > 0, "the jit tier never engaged");
        assert!(jit.fusion_coverage() > 0.0, "no superinstruction retired");

        // The updated configurations run v2 bodies, so their checksums
        // differ — but they must still hit warm caches (and, with jit,
        // re-promoted fused code).
        let updated = measure(Config::CachesOnUpdated, iters);
        assert_ne!(updated.checksum, on.checksum, "v2 bodies changed");
        assert!(updated.hit_rate() > 0.9, "post-update steady state: {}", updated.hit_rate());
        let jit_updated = measure(Config::JitOnUpdated, iters);
        assert_eq!(jit_updated.checksum, updated.checksum, "jit must not change v2 results");
        assert!(jit_updated.fusion_coverage() > 0.0, "post-update code re-promoted to jit");
    }
}
