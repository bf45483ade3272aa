//! Simulated call stacks.

use pcap_types::Pc;
use serde::{Deserialize, Serialize};

/// Which protection/linkage domain a stack frame belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FrameKind {
    /// Code of the traced application itself.
    Application,
    /// Shared-library code (libc, codec libraries, …).
    Library,
    /// Kernel code.
    Kernel,
}

/// One frame of a simulated call stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Frame {
    /// Return address recorded in the frame.
    pub pc: Pc,
    /// Domain the frame's code belongs to.
    pub kind: FrameKind,
}

/// A simulated call stack, bottom (outermost, e.g. `main`) to top
/// (innermost). See the [crate docs](crate) for an example.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CallStack {
    frames: Vec<Frame>,
}

impl CallStack {
    /// Creates an empty stack.
    pub fn new() -> CallStack {
        CallStack::default()
    }

    /// Pushes a frame (a call).
    pub fn push(&mut self, pc: Pc, kind: FrameKind) {
        self.frames.push(Frame { pc, kind });
    }

    /// The frames, outermost first.
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }
}
