//! A minimal wall-clock measurement harness (the bench binaries' and
//! `cargo bench` targets' replacement for an external framework; the build
//! environment is offline, so the crate carries its own).
//!
//! One warmup run, then `iters` timed iterations; reporting is by median,
//! which is robust against scheduler noise on shared machines.

use std::time::{Duration, Instant};

/// Timed iterations of one benchmark, sorted ascending (nanoseconds).
#[derive(Debug, Clone)]
pub struct Samples {
    ns: Vec<u64>,
}

impl Samples {
    /// Wraps raw per-iteration nanosecond timings.
    pub fn from_ns(mut ns: Vec<u64>) -> Samples {
        assert!(!ns.is_empty(), "no samples");
        ns.sort_unstable();
        Samples { ns }
    }

    /// Median iteration time in nanoseconds.
    pub fn median_ns(&self) -> u64 {
        let n = self.ns.len();
        if n % 2 == 1 {
            self.ns[n / 2]
        } else {
            (self.ns[n / 2 - 1] + self.ns[n / 2]) / 2
        }
    }

    /// Fastest iteration in nanoseconds.
    pub fn min_ns(&self) -> u64 {
        self.ns[0]
    }

    /// Slowest iteration in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        *self.ns.last().expect("non-empty")
    }

    /// Number of timed iterations.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Whether there are no samples (never true for constructed values).
    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }
}

/// Runs `f` once for warmup, then `iters` timed iterations.
pub fn run<T>(iters: usize, mut f: impl FnMut() -> T) -> Samples {
    std::hint::black_box(f());
    let mut ns = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        std::hint::black_box(f());
        ns.push(t.elapsed().as_nanos() as u64);
    }
    Samples::from_ns(ns)
}

/// Like [`run`], but each iteration gets fresh state from `setup`, whose
/// time is excluded from the measurement.
pub fn run_with_setup<S, T>(
    iters: usize,
    mut setup: impl FnMut() -> S,
    mut routine: impl FnMut(S) -> T,
) -> Samples {
    std::hint::black_box(routine(setup()));
    let mut ns = Vec::with_capacity(iters);
    for _ in 0..iters {
        let state = setup();
        let t = Instant::now();
        std::hint::black_box(routine(state));
        ns.push(t.elapsed().as_nanos() as u64);
    }
    Samples::from_ns(ns)
}

/// Prints one aligned result line: `label  median ..  min ..  max ..`.
pub fn report(label: &str, s: &Samples) {
    println!(
        "{label:<44} median {:>12}  min {:>12}  max {:>12}  ({} iters)",
        fmt_ns(s.median_ns()),
        fmt_ns(s.min_ns()),
        fmt_ns(s.max_ns()),
        s.len()
    );
}

/// Formats nanoseconds with a unit picked by magnitude.
pub fn fmt_ns(ns: u64) -> String {
    let d = Duration::from_nanos(ns);
    if ns >= 1_000_000_000 {
        format!("{:.2}s", d.as_secs_f64())
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", d.as_secs_f64() * 1e3)
    } else if ns >= 1_000 {
        format!("{:.2}µs", d.as_secs_f64() * 1e6)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sample_counts() {
        assert_eq!(Samples::from_ns(vec![3, 1, 2]).median_ns(), 2);
        assert_eq!(Samples::from_ns(vec![4, 1, 2, 3]).median_ns(), 2);
        let s = Samples::from_ns(vec![10, 5]);
        assert_eq!(s.min_ns(), 5);
        assert_eq!(s.max_ns(), 10);
    }

    #[test]
    fn run_counts_iterations() {
        let mut calls = 0;
        let s = run(4, || calls += 1);
        assert_eq!(s.len(), 4);
        assert_eq!(calls, 5, "warmup + 4 timed");
    }

    #[test]
    fn setup_time_is_excluded() {
        // The setup sleeps; the routine is trivial — medians must reflect
        // the routine only.
        let s = run_with_setup(
            3,
            || std::thread::sleep(Duration::from_millis(5)),
            |()| 1 + 1,
        );
        assert!(s.median_ns() < 1_000_000, "median {}ns includes setup", s.median_ns());
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(12), "12ns");
        assert_eq!(fmt_ns(1_500), "1.50µs");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }
}
