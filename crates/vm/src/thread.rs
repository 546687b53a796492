//! Green threads and activation records.
//!
//! A thread owns **one value stack**: every frame's locals and operand
//! stack live back to back in [`VmThread::values`], innermost last, and a
//! [`Frame`] is a small record saying where its slice starts. A call makes
//! the arguments already on top of the caller's operand stack the callee's
//! first locals *in place*; a return truncates to the callee's base and
//! pushes the result. Slots are tagged [`Value`]s and the vector holds
//! nothing past the innermost frame's operand stack, so `values` *is* the
//! thread's precise stack map, in root-enumeration order (`f0.locals,
//! f0.operands, f1.locals, …`): the GC walks it front to back, standing in
//! for the per-safe-point stack maps the paper's compiler emits.

use std::sync::Arc;

use crate::compiled::CompiledMethod;
use crate::error::VmError;
use crate::ids::{MethodId, ThreadId};
use crate::value::Value;

/// One activation record: which code runs, where, and which slice of the
/// thread's value stack is its own. The slice starts at `base` with
/// `locals` local slots; its operand stack runs from there to the next
/// frame's base (the end of the value stack for the innermost frame).
#[derive(Debug, Clone)]
pub struct Frame {
    /// The executing method.
    pub method: MethodId,
    /// The resolved code this frame runs. An OSR replaces this `Arc` (and
    /// at most grows the locals — `pc` carries over through its bytecode
    /// pc, and the slots as they are).
    pub compiled: Arc<CompiledMethod>,
    /// Next instruction index.
    pub pc: u32,
    /// Index of local slot 0 in [`VmThread::values`].
    pub(crate) base: u32,
    /// Local-slot count.
    pub(crate) locals: u16,
    /// Return barrier (paper §3.2): when set, returning from this frame
    /// pauses the thread and notifies the update driver so it can re-check
    /// for a DSU safe point.
    pub return_barrier: bool,
    /// Bookkeeping attached by the VM, processed when the frame returns.
    pub note: Option<FrameNote>,
}

impl Frame {
    /// Local-slot count (what an OSR may grow and its rollback restores).
    pub fn locals_len(&self) -> usize {
        self.locals as usize
    }

    /// Index in [`VmThread::values`] of the first operand-stack slot: no
    /// pop, peek or truncate of the executing frame goes below it.
    #[inline]
    pub(crate) fn floor(&self) -> usize {
        self.base as usize + self.locals as usize
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
    /// Activation records, innermost last.
    pub frames: Vec<Frame>,
    /// The value stack the records index (module doc).
    pub(crate) values: Vec<Value>,
    /// Scheduler state.
    pub state: ThreadState,
    /// Value returned by the outermost frame, once finished (used by
    /// synchronous host-initiated calls).
    pub result: Option<Value>,
}

impl VmThread {
    /// Creates a runnable thread about to run `compiled` over `args`.
    ///
    /// # Errors
    ///
    /// As [`VmThread::push_call`].
    pub fn new(
        id: ThreadId,
        name: impl Into<String>,
        compiled: Arc<CompiledMethod>,
        args: &[Value],
    ) -> Result<VmThread, VmError> {
        let mut thread = VmThread::parked(id, name.into());
        thread.push_call(compiled, args, None)?;
        thread.state = ThreadState::Runnable;
        Ok(thread)
    }

    /// A finished thread with no frames, for the VM's synchronous
    /// host-initiated calls to push work onto.
    pub(crate) fn parked(id: ThreadId, name: String) -> VmThread {
        VmThread {
            id,
            name,
            frames: Vec::new(),
            values: Vec::new(),
            state: ThreadState::Finished,
            result: None,
        }
    }

    /// Starts a call the VM itself makes (thread entry, synchronous host call,
    /// object transformer): pushes `args` above whatever the innermost frame
    /// holds — its operands stay untouched — and enters `compiled` over them.
    ///
    /// # Errors
    ///
    /// Traps with [`VmError::Internal`] when `args` exceeds the `u16`
    /// local-slot space instead of silently truncating the count.
    pub(crate) fn push_call(
        &mut self,
        compiled: Arc<CompiledMethod>,
        args: &[Value],
        note: Option<FrameNote>,
    ) -> Result<(), VmError> {
        if args.len() > usize::from(u16::MAX) {
            return Err(VmError::Internal {
                message: format!(
                    "{} arguments overflow the frame's local slots (max {})",
                    args.len(),
                    u16::MAX
                ),
            });
        }
        self.values.extend_from_slice(args);
        self.enter(compiled, args.len(), note);
        Ok(())
    }

    /// Enters `compiled` over the `total` values on top of the stack: they
    /// become its first locals where they lie, the rest are nulled.
    #[inline]
    pub(crate) fn enter(
        &mut self,
        compiled: Arc<CompiledMethod>,
        total: usize,
        note: Option<FrameNote>,
    ) {
        debug_assert!(total <= usize::from(u16::MAX), "callers bound the argument count");
        let base = self.values.len() - total;
        let locals = compiled.max_locals.max(total as u16);
        self.values.resize(base + locals as usize, Value::Null);
        self.frames.push(Frame {
            method: compiled.method,
            compiled,
            pc: 0,
            base: u32::try_from(base).expect("value stack outgrew u32"),
            locals,
            return_barrier: false,
            note,
        });
    }

    /// The local slots of frame `frame` (arguments first).
    pub fn locals(&self, frame: usize) -> &[Value] {
        let f = &self.frames[frame];
        &self.values[f.base as usize..f.floor()]
    }

    /// The operand stack of frame `frame`, top last. Arguments a caller
    /// has passed on are the callee's locals, not the caller's operands.
    pub fn operands(&self, frame: usize) -> &[Value] {
        let end = self.frames.get(frame + 1).map_or(self.values.len(), |f| f.base as usize);
        &self.values[self.frames[frame].floor()..end]
    }

    /// Gives frame `frame` exactly `len` local slots (OSR onto a body with
    /// more locals, and its rollback): new slots are nulled, surplus ones
    /// dropped, and everything above — the frame's own operands and every
    /// inner frame — moves with its base.
    pub(crate) fn resize_locals(&mut self, frame: usize, len: u16) {
        let f = &self.frames[frame];
        let (floor, old) = (f.floor(), f.locals);
        let (grow, shrink) = (len.saturating_sub(old), old.saturating_sub(len));
        let nulls = std::iter::repeat_n(Value::Null, usize::from(grow));
        self.values.splice(floor - usize::from(shrink)..floor, nulls);
        self.frames[frame].locals = len;
        for inner in &mut self.frames[frame + 1..] {
            inner.base = inner.base - u32::from(old) + u32::from(len);
        }
    }

    /// Whether the thread can still make progress.
    pub fn is_live(&self) -> bool {
        matches!(self.state, ThreadState::Runnable | ThreadState::Blocked(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::RInstr;

    fn dummy_compiled(max_locals: u16) -> Arc<CompiledMethod> {
        let body = vec![RInstr::Return];
        Arc::new(CompiledMethod::new(MethodId(0), body, max_locals))
    }

    #[test]
    fn frame_seeds_arguments() {
        let args = [Value::Int(7), Value::Bool(true)];
        let t = VmThread::new(ThreadId(0), "main", dummy_compiled(4), &args).unwrap();
        assert_eq!(t.locals(0), [Value::Int(7), Value::Bool(true), Value::Null, Value::Null]);
        assert!(t.operands(0).is_empty());
    }

    #[test]
    fn frame_rejects_oversized_argument_lists() {
        let args = vec![Value::Int(0); usize::from(u16::MAX) + 1];
        let err = VmThread::new(ThreadId(0), "main", dummy_compiled(0), &args).unwrap_err();
        assert!(matches!(err, VmError::Internal { .. }), "{err}");
    }

    #[test]
    fn thread_liveness() {
        let mut t = VmThread::new(ThreadId(0), "main", dummy_compiled(0), &[]).unwrap();
        assert!(t.is_live());
        t.state = ThreadState::Finished;
        assert!(!t.is_live());
    }
}
