//! Runtime errors (traps) and VM-level failures.

use std::fmt;

use jvolve_classfile::ClassName;

/// A runtime trap raised by guest execution, or a VM-level failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum VmError {
    /// Dereference of `null`.
    NullPointer {
        /// What was being accessed.
        context: String,
    },
    /// Array index out of bounds.
    IndexOutOfBounds {
        /// Offending index.
        index: i64,
        /// Array length.
        len: u32,
    },
    /// A string was cut at a byte offset inside a multi-byte character.
    NotCharBoundary {
        /// Offending byte offset.
        index: usize,
    },
    /// Integer division or remainder by zero.
    DivisionByZero,
    /// The heap cannot satisfy an allocation even after collection.
    OutOfMemory {
        /// Words requested.
        requested: usize,
    },
    /// Guest call stack exceeded the configured limit.
    StackOverflow,
    /// A class failed to load (link error, verification failure, …).
    LoadError {
        /// Offending class.
        class: ClassName,
        /// Description.
        message: String,
    },
    /// Name resolution failed at (simulated) JIT time.
    ResolutionError {
        /// Description, e.g. "unknown field User.age".
        message: String,
    },
    /// A transformer function recursed into an object already being
    /// transformed (ill-defined transformer set; paper §3.4 aborts the
    /// update on detection).
    TransformerCycle,
    /// Recursive force-transformation exceeded the nesting limit: the
    /// transformer set chases a chain deeper than the VM is willing to
    /// nest (a typed error instead of blowing the host stack).
    TransformerDepthExceeded {
        /// The nesting limit that was hit.
        limit: usize,
    },
    /// Anything else.
    Internal {
        /// Description.
        message: String,
    },
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::NullPointer { context } => write!(f, "null pointer dereference in {context}"),
            VmError::IndexOutOfBounds { index, len } => {
                write!(f, "array index {index} out of bounds for length {len}")
            }
            VmError::NotCharBoundary { index } => {
                write!(f, "string offset {index} is not a character boundary")
            }
            VmError::DivisionByZero => f.write_str("division by zero"),
            VmError::OutOfMemory { requested } => {
                write!(f, "out of memory allocating {requested} words")
            }
            VmError::StackOverflow => f.write_str("guest stack overflow"),
            VmError::LoadError { class, message } => {
                write!(f, "failed to load class {class}: {message}")
            }
            VmError::ResolutionError { message } => write!(f, "resolution error: {message}"),
            VmError::TransformerCycle => {
                f.write_str("transformer functions recursed into an in-progress object")
            }
            VmError::TransformerDepthExceeded { limit } => {
                write!(f, "recursive force-transformation exceeded {limit} nested objects")
            }
            VmError::Internal { message } => write!(f, "internal VM error: {message}"),
        }
    }
}

impl std::error::Error for VmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = VmError::IndexOutOfBounds { index: 5, len: 3 };
        assert_eq!(e.to_string(), "array index 5 out of bounds for length 3");
        assert!(VmError::TransformerCycle.to_string().contains("transformer"));
    }
}
