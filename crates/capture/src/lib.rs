//! Simulated call stacks and program-counter capture strategies.
//!
//! The paper (§3.2.1) discusses three ways of obtaining the application
//! PC that triggered an I/O operation — **library modification**,
//! **system-call interception**, and **kernel modification** — and
//! argues for library modification because the PC can be read directly
//! from the calling program's stack without walking library frames,
//! costing only about four memory accesses per I/O (§3.2.2).
//!
//! Real kernel/libc hooks are not portable into a simulation, so this
//! crate provides the closest synthetic equivalent: a [`CallStack`] of
//! typed frames and [`CaptureStrategy`] implementations that walk it
//! exactly the way the real hooks would, with per-capture
//! [cost accounting](CaptureCost). The capture-overhead ablation prices
//! the strategies on these stacks. Every strategy attributes an I/O to
//! the same PC, so the workload generator gives each I/O its call
//! site's PC from [`SiteMap`] directly.
//!
//! # Example
//!
//! ```
//! use pcap_capture::{CallStack, CaptureStrategy, FrameKind};
//! use pcap_types::Pc;
//!
//! let mut stack = CallStack::new();
//! stack.push(Pc(0x1000), FrameKind::Application); // main()
//! stack.push(Pc(0x1abc), FrameKind::Application); // save_file()
//! stack.push(Pc(0x7f01), FrameKind::Library);     // fwrite()
//! stack.push(Pc(0x7f99), FrameKind::Library);     // write() wrapper
//!
//! // All strategies agree on *which* PC triggered the I/O...
//! let lib = CaptureStrategy::LibraryHook.capture(&stack).unwrap();
//! let sys = CaptureStrategy::SyscallInterception.capture(&stack).unwrap();
//! assert_eq!(lib.pc, Pc(0x1abc));
//! assert_eq!(sys.pc, Pc(0x1abc));
//! // ...but the library hook is cheaper (no frame traversal).
//! assert!(lib.cost.memory_accesses < sys.cost.memory_accesses);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod sites;
mod stack;

pub use sites::SiteMap;
pub use stack::{CallStack, Frame, FrameKind};

use pcap_types::Pc;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How the power manager obtains the I/O-triggering PC (§3.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CaptureStrategy {
    /// The I/O library is modified to read the caller's return address
    /// directly off the stack at the application→library boundary.
    /// Cheapest: no frame traversal.
    LibraryHook,
    /// System calls are intercepted at the user-kernel boundary; the
    /// capture walks back through the library frames that the I/O call
    /// traversed to reach the application frame.
    SyscallInterception,
    /// The kernel itself is modified; like interception but the walk
    /// additionally starts below any kernel frames.
    KernelHook,
}

impl fmt::Display for CaptureStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CaptureStrategy::LibraryHook => "library-hook",
            CaptureStrategy::SyscallInterception => "syscall-interception",
            CaptureStrategy::KernelHook => "kernel-hook",
        };
        f.write_str(s)
    }
}

/// Cost model of one PC capture, in memory accesses.
///
/// The paper estimates that the library hook needs "about four memory
/// accesses" to obtain the PC and fold it into the signature; every
/// additional stack frame traversed costs two more (load frame pointer,
/// load return address).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CaptureCost {
    /// Total simulated memory accesses.
    pub memory_accesses: u32,
    /// Frames walked to find the application frame.
    pub frames_walked: u32,
}

/// Base cost of reading the caller PC and updating the signature.
const BASE_MEMORY_ACCESSES: u32 = 4;
/// Cost of traversing one stack frame (frame pointer + return address).
const PER_FRAME_ACCESSES: u32 = 2;

/// A successfully captured PC with its cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Captured {
    /// The application PC charged with the I/O.
    pub pc: Pc,
    /// What obtaining it cost.
    pub cost: CaptureCost,
}

/// Error returned when no application frame exists on the stack (e.g. a
/// kernel daemon performing I/O on its own behalf).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoApplicationFrame;

impl fmt::Display for NoApplicationFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("call stack contains no application frame to attribute the I/O to")
    }
}

impl std::error::Error for NoApplicationFrame {}

impl CaptureStrategy {
    /// Captures the application PC responsible for the I/O currently at
    /// the top of `stack`.
    ///
    /// All strategies attribute the I/O to the **innermost application
    /// frame** — the point where the application last called into
    /// library code — and differ only in where the walk starts and what
    /// it costs.
    ///
    /// # Errors
    ///
    /// Returns [`NoApplicationFrame`] if the stack holds no application
    /// frame.
    pub fn capture(self, stack: &CallStack) -> Result<Captured, NoApplicationFrame> {
        let frames = stack.frames();
        // Index of the innermost application frame.
        let app_idx = frames
            .iter()
            .rposition(|f| f.kind == FrameKind::Application)
            .ok_or(NoApplicationFrame)?;

        let walk_start = match self {
            // The library hook fires at the first app→library
            // transition: it sees the application frame directly.
            CaptureStrategy::LibraryHook => app_idx + 1,
            // Interception fires at the user-kernel boundary: walk every
            // library frame above the application frame.
            CaptureStrategy::SyscallInterception => frames
                .iter()
                .rposition(|f| f.kind == FrameKind::Library)
                .map_or(app_idx + 1, |i| i + 1),
            // The kernel hook walks kernel frames too.
            CaptureStrategy::KernelHook => frames.len(),
        };
        let frames_walked = (walk_start - app_idx - 1) as u32;
        Ok(Captured {
            pc: frames[app_idx].pc,
            cost: CaptureCost {
                memory_accesses: BASE_MEMORY_ACCESSES + PER_FRAME_ACCESSES * frames_walked,
                frames_walked,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stack_with_depths(lib: usize, kernel: usize) -> CallStack {
        let mut s = CallStack::new();
        s.push(Pc(0x100), FrameKind::Application);
        s.push(Pc(0x200), FrameKind::Application);
        for i in 0..lib {
            s.push(Pc(0x7000 + i as u32), FrameKind::Library);
        }
        for i in 0..kernel {
            s.push(Pc(0xc000 + i as u32), FrameKind::Kernel);
        }
        s
    }

    #[test]
    fn all_strategies_find_same_pc() {
        let s = stack_with_depths(3, 2);
        for strat in [
            CaptureStrategy::LibraryHook,
            CaptureStrategy::SyscallInterception,
            CaptureStrategy::KernelHook,
        ] {
            assert_eq!(strat.capture(&s).unwrap().pc, Pc(0x200), "{strat}");
        }
    }

    #[test]
    fn library_hook_costs_four_accesses() {
        let s = stack_with_depths(3, 0);
        let c = CaptureStrategy::LibraryHook.capture(&s).unwrap();
        assert_eq!(c.cost.memory_accesses, 4);
        assert_eq!(c.cost.frames_walked, 0);
    }

    #[test]
    fn interception_walks_library_frames() {
        let s = stack_with_depths(3, 0);
        let c = CaptureStrategy::SyscallInterception.capture(&s).unwrap();
        assert_eq!(c.cost.frames_walked, 3);
        assert_eq!(c.cost.memory_accesses, 4 + 2 * 3);
    }

    #[test]
    fn kernel_hook_walks_kernel_frames_too() {
        let s = stack_with_depths(3, 2);
        let c = CaptureStrategy::KernelHook.capture(&s).unwrap();
        assert_eq!(c.cost.frames_walked, 5);
    }

    #[test]
    fn cost_ordering_matches_paper() {
        let s = stack_with_depths(4, 2);
        let lib = CaptureStrategy::LibraryHook.capture(&s).unwrap().cost;
        let sys = CaptureStrategy::SyscallInterception
            .capture(&s)
            .unwrap()
            .cost;
        let ker = CaptureStrategy::KernelHook.capture(&s).unwrap().cost;
        assert!(lib.memory_accesses < sys.memory_accesses);
        assert!(sys.memory_accesses <= ker.memory_accesses);
    }

    #[test]
    fn kernel_only_stack_has_no_attribution() {
        let mut s = CallStack::new();
        s.push(Pc(0xc000), FrameKind::Kernel);
        assert_eq!(
            CaptureStrategy::LibraryHook.capture(&s),
            Err(NoApplicationFrame)
        );
    }
}
