//! The managed runtime the JVolve reproduction is built on.
//!
//! This crate is the stand-in for Jikes RVM: a word-addressed semi-space
//! copying [heap], a class [registry] with object layouts, dispatch tables
//! (TIBs) and a static table (JTOC), a [JIT model](jit) (resolution, then,
//! with the [template JIT](jit2) on, superinstruction fusion) whose
//! compiled code bakes in field offsets, an [interpreter](interp) for the
//! resolved code with yield points at method entries/exits and loop
//! back-edges, a cooperative green-[thread] scheduler, a simulated
//! [network](net), return barriers, and on-stack replacement.
//!
//! The dynamic-software-updating *driver* lives in the `jvolve` crate; the
//! mechanisms it composes (update-GC with object duplication and update
//! log, transformer execution with cycle detection, class renaming and
//! invalidation) are exposed from [`Vm`].
//!
//! # Example
//!
//! ```
//! use jvolve_vm::{Vm, VmConfig};
//!
//! let mut vm = Vm::new(VmConfig::small());
//! vm.load_source(
//!     "class Main {
//!        static method main(): void { Sys.print(\"hi \" + Str.fromInt(41 + 1)); }
//!      }",
//! )?;
//! vm.spawn("Main", "main")?;
//! vm.run_to_completion(1_000);
//! assert_eq!(vm.output(), ["hi 42"]);
//! # Ok::<(), jvolve_vm::VmError>(())
//! ```

pub mod compiled;
pub mod config;
pub mod error;
pub mod heap;
pub mod ids;
pub mod interp;
pub mod jit;
pub mod jit2;
pub mod lazy;
pub mod natives;
pub mod net;
pub mod registry;
pub mod thread;
pub mod value;
mod vm;

pub use config::VmConfig;
pub use error::VmError;
pub use ids::{ClassId, MethodId, ThreadId};
pub use lazy::{CopyStep, EpochTotals, LazyStage, MAX_TRANSFORMER_DEPTH};
pub use registry::{ClassMethodsSnapshot, RegistryMark};
pub use value::{GcRef, Value};
pub use vm::{ObjectTransformer, SliceOutcome, SliceReport, Vm, VmStats};
