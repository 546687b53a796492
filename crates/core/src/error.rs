//! Update-driver errors.

use std::fmt;

use jvolve_classfile::ClassName;
use jvolve_vm::VmError;

/// Why an update could not be applied.
#[derive(Clone, Debug)]
pub enum UpdateError {
    /// No DSU safe point was reached before the timeout (the paper's two
    /// unsupported updates fail this way: a changed method sits inside an
    /// always-running loop, §4).
    Timeout {
        /// The methods that stayed on stacks, with thread names.
        blocking: Vec<String>,
        /// Scheduler slices waited.
        slices_waited: u64,
    },
    /// The transformer class (or an update payload) failed to compile.
    Compile(String),
    /// The update specification is malformed: it names classes or methods
    /// that do not exist in the update payload or the running VM. The
    /// update aborts (and rolls back) instead of panicking the host.
    BadSpec {
        /// Description, e.g. "updated class Foo missing from the new version".
        message: String,
    },
    /// A transformer method exists but has the wrong shape: not static,
    /// wrong parameter types, or a non-void return. Invoking it anyway
    /// would push mistyped values into the VM, so the update aborts (and
    /// rolls back) instead.
    BadTransformer {
        /// Description, e.g. "jvolve_object_User must take (User, v1_User)".
        message: String,
    },
    /// The update's old version is not the program the VM runs: a shipped
    /// old class differs from the loaded class of that name, or a loaded
    /// class whose code names a class-updated class was not shipped (its
    /// compiled offsets would escape the update). Rejected before anything
    /// touches the VM.
    StaleBase {
        /// The class whose shipped and loaded versions disagree.
        class: ClassName,
        /// What disagrees.
        reason: &'static str,
    },
    /// A VM operation failed (load, GC overflow, transformer trap, …).
    Vm(VmError),
    /// The update changes nothing.
    Empty,
    /// The update needs capabilities the selected updater mode lacks
    /// (e.g. a class update under the method-body-only baseline).
    Unsupported {
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::Timeout { blocking, slices_waited } => write!(
                f,
                "no DSU safe point reached after {slices_waited} slices; still on stack: {}",
                blocking.join(", ")
            ),
            UpdateError::Compile(msg) => write!(f, "update compilation failed: {msg}"),
            UpdateError::BadSpec { message } => write!(f, "malformed update spec: {message}"),
            UpdateError::BadTransformer { message } => {
                write!(f, "ill-typed transformer: {message}")
            }
            UpdateError::StaleBase { class, reason } => {
                write!(f, "the update's old version is not the running one: {class} {reason}")
            }
            UpdateError::Vm(e) => write!(f, "VM error during update: {e}"),
            UpdateError::Empty => f.write_str("update changes nothing"),
            UpdateError::Unsupported { reason } => write!(f, "update unsupported: {reason}"),
        }
    }
}

impl std::error::Error for UpdateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            UpdateError::Vm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<VmError> for UpdateError {
    fn from(e: VmError) -> Self {
        UpdateError::Vm(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_blockers() {
        let e = UpdateError::Timeout {
            blocking: vec!["Jetty.acceptSocket".into()],
            slices_waited: 1500,
        };
        assert!(e.to_string().contains("acceptSocket"));
    }

    #[test]
    fn vm_error_converts() {
        let e: UpdateError = VmError::TransformerCycle.into();
        assert!(matches!(e, UpdateError::Vm(VmError::TransformerCycle)));
    }
}
