//! Steady-state call-dispatch throughput (the micro-scale companion to
//! Figure 5).
//!
//! The paper's Fig. 5 claim is that DSU support costs nothing at steady
//! state. Here every call resolves through the registry — a TIB walk for
//! a virtual call, then the method's installed code — so an update needs
//! nothing beyond swapping that code. This harness measures calls/second
//! of a dispatch-bound workload in four configurations:
//!
//! * `Base` — the template JIT off: every body runs unfused and every
//!   call pushes a frame (`--no-jit`, Fig. 5's "stock" row);
//! * `BaseUpdated` — the same, measured *after* a dynamic update changed
//!   every `area` body — steady state must be indistinguishable from
//!   `Base`;
//! * `Jit` — the default VM: the template JIT (every body fused at its
//!   first compile, and the leaf-call fast path);
//! * `JitUpdated` — jit on, measured after the same update invalidated
//!   every callee and its next call recompiled it fused — steady state
//!   must recover to `Jit`.

use std::time::{Duration, Instant};

use jvolve::{ApplyOptions, Update};
use jvolve_vm::{Value, Vm, VmConfig};

/// Dispatch-bound guest workload: a small class hierarchy of short
/// `area` methods called from one loop — 8 virtual calls and 2 direct
/// (static) calls per loop iteration, with minimal loop overhead around
/// them. With the jit on, the callees are leaf bodies run without a
/// frame.
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

/// New version: every callee body changes, so the update invalidates every
/// dispatch target the warm run compiled. Each
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
    /// Jit off: every body unfused, every call framed.
    Base,
    /// Jit off, measured after a dynamic update replaced every callee.
    BaseUpdated,
    /// The default VM: the template JIT on.
    Jit,
    /// Jit on, measured after the update invalidated every callee.
    JitUpdated,
}

impl Config {
    /// All four, baseline first.
    pub fn all() -> [Config; 4] {
        [Config::Base, Config::BaseUpdated, Config::Jit, Config::JitUpdated]
    }

    /// Stable identifier, as the `gates` binary prints it.
    pub fn key(self) -> &'static str {
        match self {
            Config::Base => "base",
            Config::BaseUpdated => "base_updated",
            Config::Jit => "jit",
            Config::JitUpdated => "jit_updated",
        }
    }

    /// Whether the timed run happens after a dynamic update.
    fn updated(self) -> bool {
        matches!(self, Config::BaseUpdated | Config::JitUpdated)
    }

    /// Whether the template JIT is enabled.
    fn jit(self) -> bool {
        matches!(self, Config::Jit | Config::JitUpdated)
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
    /// Whole-run compile counts: (compiles, fused compiles).
    pub compiles: (u64, u64),
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

/// Runs one configuration: boot, warm up (compiling every body), then
/// time one `Bench.run(iters)` call.
///
/// # Panics
///
/// Panics on fixture errors (the workload always compiles, runs, and —
/// for the updated configurations — the update always applies).
pub fn measure(config: Config, iters: i64) -> InterpSample {
    let vm_config = VmConfig { enable_jit: config.jit(), ..VmConfig::default() };
    let mut vm = Vm::new(vm_config);
    let v1 = jvolve_lang::compile(INTERP_V1).expect("interp v1 compiles");
    vm.load_classes(&v1).expect("interp classes load");

    // Warm-up: compiles every body, so the timed run sees steady-state
    // code in every mode.
    let warm = vm
        .call_static_sync("Bench", "run", &[Value::Int(1_000)])
        .expect("warmup runs")
        .expect("run returns a value");
    assert!(matches!(warm, Value::Int(_)));

    if config.updated() {
        let v2 = jvolve_lang::compile(INTERP_V2).expect("interp v2 compiles");
        let update = Update::prepare(&v1, &v2, "v1_").expect("non-empty update");
        jvolve::apply(&mut vm, &update, &ApplyOptions::default()).expect("update applies");
        // Post-update warm-up: invalidated methods recompile.
        vm.call_static_sync("Bench", "run", &[Value::Int(1_000)]).expect("post-update warmup");
    }

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
        compiles: (s.base_compiles, s.jit_compiles),
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
        let base = measure(Config::Base, iters);
        assert_eq!(base.compiles.1, 0, "jit off never jit-compiles");
        assert_eq!(base.fused_steps, 0, "jit off never fuses nor runs a leaf");

        // The jit configuration computes the same result while actually
        // running fused code and leaf callees: same checksum, same retired
        // base-instruction count, nonzero fusion coverage.
        let jit = measure(Config::Jit, iters);
        assert_eq!(jit.checksum, base.checksum, "jit must not change results");
        assert_eq!(jit.steps, base.steps, "fused ops must retire the base step count");
        assert!(jit.compiles.1 > 0, "the jit never engaged");
        assert!(jit.fused_steps > 0, "no superinstruction or leaf callee retired");

        // The updated configurations run v2 bodies, so their checksums
        // differ — and with the jit, recompiled fused code runs again.
        let updated = measure(Config::BaseUpdated, iters);
        assert_ne!(updated.checksum, base.checksum, "v2 bodies changed");
        assert_eq!(updated.fused_steps, 0, "jit off never fuses");
        let jit_updated = measure(Config::JitUpdated, iters);
        assert_eq!(jit_updated.checksum, updated.checksum, "jit must not change v2 results");
        assert!(jit_updated.fused_steps > 0, "post-update code recompiled fused");
    }
}
