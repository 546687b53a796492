//! Deterministic structure-aware fuzzing of the JVolve update pipeline.
//!
//! The update path is the VM's trust boundary: class-file bytes, the
//! update-spec JSON, and transformer sources all arrive from outside the
//! process. This crate attacks every layer of that boundary with five
//! SplitMix64-driven mutator families, each with a hard oracle:
//!
//! * [`Family::Codec`] — byte-level mutation of `codec::encode` output
//!   replayed through `codec::decode`. Oracle: never a panic, never an
//!   allocation beyond the input size (hostile length prefixes return a
//!   typed `DecodeError`), and anything accepted re-encodes canonically.
//! * [`Family::Spec`] — JSON-level mutation of serialized [`UpdateSpec`]s
//!   (type confusion, deleted/duplicated keys, dangling names, raw text
//!   damage). Oracle: never a panic; anything accepted round-trips.
//! * [`Family::Semantic`] — mutation of *valid* prepared updates (drop or
//!   retype a transformer, flip `ClassChangeKind`, desynchronize spec and
//!   payload, truncate the class batch, make the transformer batch
//!   unloadable). Oracle: every rejection is the expected typed
//!   [`UpdateError`] and leaves registry and heap fingerprints
//!   bit-identical — without a single safe-point poll unless the fault is
//!   the install failure; every accepted mutant commits and passes the
//!   eager-vs-lazy differential; no transformer compile ever runs inside
//!   the pause.
//! * [`Family::Stream`] — random multi-release streams driven end-to-end
//!   through `UpdateController` against a Rust-side mirror model, with
//!   fault injection at the validation and install phase boundaries, and
//!   an eager VM vs lazy VM equivalence check at stream end.
//! * [`Family::Upt`] — random MJ program pairs through the update
//!   preparation tool with clean and hostile options (garbage sources,
//!   identical versions, broken or mis-targeted per-class overrides).
//!   Oracle: never a panic, every rejection the expected typed
//!   `UptError`, and everything the UPT accepts validates and commits on
//!   lockstep eager and lazy VMs with mirror-model-predicted state.
//!
//! Every iteration derives its randomness from `(seed, iter)`, so any
//! failure is replayed with `fuzz_run --family <f> --seed <s> --iters 1`
//! after offsetting the seed, or exactly via the printed reproducer. The
//! committed corpus (`corpus/*.json`) replays every crash the fuzzer has
//! found as a permanent regression test (`tests/corpus.rs`).

use std::fmt;

pub mod corpus;
pub mod gen;
pub mod rng;

mod codec_fuzz;
mod semantic_fuzz;
mod spec_fuzz;
mod stream_fuzz;
mod upt_fuzz;

/// One mutator family.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Family {
    /// Byte-level classfile codec mutations.
    Codec,
    /// JSON-level update-spec mutations.
    Spec,
    /// Semantic mutations of valid prepared updates.
    Semantic,
    /// End-to-end release streams with fault injection.
    Stream,
    /// Random program pairs through the update preparation tool.
    Upt,
}

impl Family {
    /// All families, in execution order.
    pub const ALL: [Family; 5] =
        [Family::Codec, Family::Spec, Family::Semantic, Family::Stream, Family::Upt];

    pub fn name(self) -> &'static str {
        match self {
            Family::Codec => "codec",
            Family::Spec => "spec",
            Family::Semantic => "semantic",
            Family::Stream => "stream",
            Family::Upt => "upt",
        }
    }

    /// Parses a family name as used by `fuzz_run --family`.
    pub fn parse(s: &str) -> Option<Family> {
        Family::ALL.into_iter().find(|f| f.name() == s)
    }
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What a completed (failure-free) fuzz run observed.
#[derive(Clone, Copy, Debug, Default)]
pub struct FuzzReport {
    /// Iterations executed.
    pub iters: u64,
    /// Mutants the pipeline accepted (and that passed the accept-oracles).
    pub accepted: u64,
    /// Mutants rejected with a typed error (the expected common case).
    pub rejected: u64,
}

impl FuzzReport {
    fn accept(&mut self) {
        self.accepted += 1;
    }
    fn reject(&mut self) {
        self.rejected += 1;
    }
}

/// An oracle violation: a panic, a wrong error type, a fingerprint
/// divergence, or a differential mismatch.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// Family that found it.
    pub family: Family,
    /// Run seed.
    pub seed: u64,
    /// Iteration within the run.
    pub iter: u64,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} family failed at seed {} iter {}: {}\n  reproduce: fuzz_run --family {} --seed {} --iters {}",
            self.family, self.seed, self.iter, self.message, self.family, self.seed, self.iter + 1
        )
    }
}

impl std::error::Error for FuzzFailure {}

/// Runs `iters` iterations of one family.
///
/// # Errors
///
/// The first oracle violation, with a reproducer command line.
pub fn run_family(family: Family, seed: u64, iters: u64) -> Result<FuzzReport, FuzzFailure> {
    match family {
        Family::Codec => codec_fuzz::run(seed, iters),
        Family::Spec => spec_fuzz::run(seed, iters),
        Family::Semantic => semantic_fuzz::run(seed, iters),
        Family::Stream => stream_fuzz::run(seed, iters),
        Family::Upt => upt_fuzz::run(seed, iters),
    }
}

/// [`jvolve::apply`] with the default options, also returning the
/// controller's counters. A transformer compile inside the pause panics,
/// which every family reports as (or lets end the run as) a failure.
pub(crate) fn apply_counted(
    vm: &mut jvolve_vm::Vm,
    update: &jvolve::Update,
) -> (Result<jvolve::UpdateStats, jvolve::UpdateError>, jvolve::ControllerCounters) {
    let mut controller = jvolve::UpdateController::new(update, jvolve::ApplyOptions::default());
    let result = controller.run(vm, |_, _| {});
    let counters = controller.counters();
    assert_eq!(counters.pause_compiles, 0, "the transformer compiler ran inside the pause");
    (result, counters)
}

/// A class the fuzz VMs load that no update payload knows about. A
/// transformer source that also defines it compiles and type-checks but
/// cannot be loaded — the fault that still fails at the very end of the
/// install step, so the rollback ledger stays fuzzed now that unusable
/// transformer sources are rejected before anything is installed.
pub(crate) const BYSTANDER: &str = "class Bystander { }";

/// Makes `update`'s transformer batch define [`BYSTANDER`] too.
pub(crate) fn make_transformers_unloadable(update: &mut jvolve::Update) {
    let source = format!("{}{BYSTANDER}", update.transformers_source());
    update.set_transformers_source(source);
}

/// Extracts a printable message from a `catch_unwind` payload.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}
