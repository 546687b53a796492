//! JVolve-style dynamic software updating for the MJ VM.
//!
//! This crate is the reproduction of the paper's contribution: it composes
//! the VM's services (classloading, JIT compilation and invalidation,
//! thread scheduling, return barriers, on-stack replacement, and the
//! copying garbage collector) into a flexible, type-safe, zero-steady-
//! state-overhead dynamic update system.
//!
//! * [`diff`] — the update preparation tool (UPT): diffs two program
//!   versions into an [`UpdateSpec`], classifying class updates, method
//!   body updates, and indirect methods.
//! * [`transform`] — old-class stubs and default class/object transformer
//!   generation (customizable, as in the paper's Figure 3).
//! * [`restricted`] — DSU safe-point analysis over thread stacks.
//! * [`controller`] — the update protocol as a resumable phase machine:
//!   reach a safe point (with return barriers, OSR and a timeout) while
//!   interleaving with VM scheduling, install classes with a rollback
//!   ledger, run the update GC and the transformers — or, on a
//!   `lazy_migration` VM, run the update GC as an incremental copy in
//!   bounded steps behind a read barrier — emitting a typed event stream
//!   throughout. An epoch never stepped past its flip is the JDrums/DVM
//!   indirection baseline the paper compares against (§5).
//! * [`driver`] — update preparation plus the synchronous [`apply`]
//!   wrapper over the controller.
//! * [`bundle`] — the UPT's on-disk artifact: spec + transformers +
//!   encoded class payloads, re-verified on load.
//! * [`queue`] — serialized application of back-to-back and overlapping
//!   update arrivals (release streams).
//! * [`report`] — per-release summaries (the rows of Tables 2–4).
//!
//! # Example
//!
//! ```
//! use jvolve::{apply, ApplyOptions, Update};
//! use jvolve_vm::{Value, Vm, VmConfig};
//!
//! let v1 = jvolve_lang::compile(
//!     "class Counter {
//!        static field hits: int;
//!        static method bump(): int { Counter.hits = Counter.hits + 1; return Counter.hits; }
//!      }",
//! ).unwrap();
//! let v2 = jvolve_lang::compile(
//!     "class Counter {
//!        static field hits: int;
//!        static method bump(): int { Counter.hits = Counter.hits + 2; return Counter.hits; }
//!      }",
//! ).unwrap();
//!
//! let mut vm = Vm::new(VmConfig::small());
//! vm.load_classes(&v1)?;
//! assert_eq!(vm.call_static_sync("Counter", "bump", &[])?, Some(Value::Int(1)));
//!
//! let update = Update::prepare(&v1, &v2, "v1_").expect("non-empty update");
//! apply(&mut vm, &update, &ApplyOptions::default()).expect("update applies");
//!
//! // State survived; new code runs.
//! assert_eq!(vm.call_static_sync("Counter", "bump", &[])?, Some(Value::Int(3)));
//! # Ok::<(), jvolve_vm::VmError>(())
//! ```

pub mod bundle;
pub mod controller;
pub mod diff;
pub mod driver;
pub mod error;
pub mod migrate;
pub mod plan;
pub mod queue;
pub mod report;
pub mod restricted;
pub mod spec;
pub mod transform;
pub mod validate;

pub use controller::{
    ControllerCounters, JsonTraceSink, MemorySink, StepProgress, UpdateController, UpdateEvent,
    UpdateEventSink, UpdatePhase, TRACE_SCHEMA,
};
pub use bundle::BundleError;
pub use driver::{apply, ApplyOptions, Update, UpdateStats};
pub use error::UpdateError;
pub use queue::{QueuedOutcome, UpdateQueue};
pub use report::{ReleaseSummary, UpdateOutcome};
pub use spec::{ClassChangeKind, ClassDelta, UpdateSpec};
pub use validate::{check_transformer_signatures, validate_update};
