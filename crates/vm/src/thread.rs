//! Green threads and activation frames.

use std::sync::Arc;

use crate::compiled::CompiledMethod;
use crate::error::VmError;
use crate::icache::InlineCaches;
use crate::ids::{MethodId, ThreadId};
use crate::value::Value;

/// Recycled `(locals, stack)` vectors kept per thread beyond this count
/// are dropped instead of pooled.
pub(crate) const FRAME_POOL_CAP: usize = 32;

/// One activation record.
///
/// Because locals and operand-stack slots are tagged [`Value`]s, every
/// frame *is* a precise stack map: the GC enumerates reference slots
/// directly, standing in for the per-safe-point stack maps the paper's
/// compiler emits.
#[derive(Debug, Clone)]
pub struct Frame {
    /// The executing method.
    pub method: MethodId,
    /// The resolved code this frame runs. An OSR replaces this `Arc` (and
    /// nothing else — base-tier code is 1:1 with bytecode, so `pc` and
    /// `locals` carry over).
    pub compiled: Arc<CompiledMethod>,
    /// Next instruction index.
    pub pc: u32,
    /// Local variable slots.
    pub locals: Vec<Value>,
    /// Operand stack.
    pub stack: Vec<Value>,
    /// Return barrier (paper §3.2): when set, returning from this frame
    /// pauses the thread and notifies the update driver so it can re-check
    /// for a DSU safe point.
    pub return_barrier: bool,
    /// Bookkeeping attached by the VM, processed when the frame returns.
    pub note: Option<FrameNote>,
}

impl Frame {
    /// Creates a frame for `compiled` with arguments in the leading locals.
    ///
    /// # Errors
    ///
    /// Traps with [`VmError::Internal`] when `args` exceeds the `u16`
    /// local-slot space instead of silently truncating the count.
    pub fn new(compiled: Arc<CompiledMethod>, args: &[Value]) -> Result<Frame, VmError> {
        let argc = u16::try_from(args.len()).map_err(|_| VmError::Internal {
            message: format!(
                "{} arguments overflow the frame's local slots (max {})",
                args.len(),
                u16::MAX
            ),
        })?;
        let mut locals = vec![Value::Null; compiled.max_locals.max(argc) as usize];
        locals[..args.len()].copy_from_slice(args);
        Ok(Frame {
            method: compiled.method,
            compiled,
            pc: 0,
            locals,
            stack: Vec::with_capacity(8),
            return_barrier: false,
            note: None,
        })
    }
}

/// VM-internal bookkeeping attached to frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameNote {
    /// This frame runs the object transformer of the update-log entry with
    /// the given index; on return the entry is marked transformed. (An
    /// index, not an address: the log keeps both objects alive and up to
    /// date across collections.)
    TransformOf(u32),
}

/// What a blocked thread is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockOn {
    /// `Net.accept` on a listener with an empty backlog.
    Accept(usize),
    /// `Net.readLine` on a connection with no queued data.
    ReadLine(usize),
    /// `Sys.sleep` until the given scheduler tick.
    SleepUntil(u64),
}

/// Scheduler-visible thread state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThreadState {
    /// Eligible to run.
    Runnable,
    /// Parked on a resource; the scheduler polls for wake-up.
    Blocked(BlockOn),
    /// Ran to completion.
    Finished,
    /// Died with a trap.
    Trapped(crate::error::VmError),
}

/// A green thread.
#[derive(Debug)]
pub struct VmThread {
    /// Identifier.
    pub id: ThreadId,
    /// Debug name.
    pub name: String,
    /// Activation stack, innermost last.
    pub frames: Vec<Frame>,
    /// Scheduler state.
    pub state: ThreadState,
    /// Value returned by the outermost frame, once finished (used by
    /// synchronous host-initiated calls).
    pub result: Option<Value>,
    /// Per-thread inline caches for call dispatch (epoch-guarded; see
    /// [`crate::icache`]). Thread-local so `CompiledMethod` stays
    /// shareable and no synchronization touches the call fast path.
    pub(crate) ic: InlineCaches,
    /// Recycled `(locals, stack)` vectors from popped frames, so a call
    /// in steady state reuses allocations instead of making fresh ones.
    /// Always cleared before pooling — the GC scans only live frames.
    pub(crate) pool: Vec<(Vec<Value>, Vec<Value>)>,
    /// Scratch locals for the template JIT's leaf-call fast path, which
    /// executes a small callee without pushing a [`Frame`]. Always drained
    /// back to empty before the fast path returns, so the GC (which scans
    /// only `frames`) never needs to see it.
    pub(crate) leaf_locals: Vec<Value>,
}

impl VmThread {
    /// Creates a runnable thread with one initial frame.
    pub fn new(id: ThreadId, name: impl Into<String>, frame: Frame) -> VmThread {
        let mut thread = VmThread::parked(id, name.into());
        thread.frames.push(frame);
        thread.state = ThreadState::Runnable;
        thread
    }

    /// A finished thread with no frames, for the VM's synchronous
    /// host-initiated calls to push work onto.
    pub(crate) fn parked(id: ThreadId, name: String) -> VmThread {
        VmThread {
            id,
            name,
            frames: Vec::new(),
            state: ThreadState::Finished,
            result: None,
            ic: InlineCaches::default(),
            pool: Vec::new(),
            leaf_locals: Vec::new(),
        }
    }

    /// Whether the thread can still make progress.
    pub fn is_live(&self) -> bool {
        matches!(self.state, ThreadState::Runnable | ThreadState::Blocked(_))
    }

    /// Method ids currently on the activation stack (outermost first).
    pub fn stack_methods(&self) -> impl Iterator<Item = MethodId> + '_ {
        self.frames.iter().map(|f| f.method)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::{CompileLevel, RInstr};

    fn dummy_compiled(max_locals: u16) -> Arc<CompiledMethod> {
        let body = vec![RInstr::Return];
        Arc::new(CompiledMethod::new(MethodId(0), CompileLevel::Base, body, max_locals, 0))
    }

    #[test]
    fn frame_seeds_arguments() {
        let f = Frame::new(dummy_compiled(4), &[Value::Int(7), Value::Bool(true)]).unwrap();
        assert_eq!(f.locals.len(), 4);
        assert_eq!(f.locals[0], Value::Int(7));
        assert_eq!(f.locals[1], Value::Bool(true));
        assert_eq!(f.locals[2], Value::Null);
    }

    #[test]
    fn frame_rejects_oversized_argument_lists() {
        let args = vec![Value::Int(0); usize::from(u16::MAX) + 1];
        let err = Frame::new(dummy_compiled(0), &args).unwrap_err();
        assert!(matches!(err, VmError::Internal { .. }), "{err}");
    }

    #[test]
    fn thread_liveness() {
        let frame = Frame::new(dummy_compiled(0), &[]).unwrap();
        let mut t = VmThread::new(ThreadId(0), "main", frame);
        assert!(t.is_live());
        t.state = ThreadState::Finished;
        assert!(!t.is_live());
    }
}
