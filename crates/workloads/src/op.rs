//! The operation vocabulary emitted by workload engines.

use std::any::Any;

use pard_icn::{DiskKind, LAddr};
use pard_sim::Time;

/// One architectural operation for a simulated core to execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Pure computation for the given number of CPU cycles.
    Compute(u64),
    /// A data load. `blocking` loads stall the core until the data
    /// returns (pointer chases, dependent reads); non-blocking loads are
    /// issued up to the core's memory-level parallelism (streaming).
    Load {
        /// LDom-physical address.
        addr: LAddr,
        /// Whether the core must wait for this load before continuing.
        blocking: bool,
    },
    /// A data store (write-allocate; completes from the core's view
    /// immediately, the memory system handles the dirty data).
    Store {
        /// LDom-physical address.
        addr: LAddr,
    },
    /// Sleep until the given absolute time (request pacing, think time).
    IdleUntil(Time),
    /// A disk transfer; the core blocks until the completion interrupt.
    Disk {
        /// Target disk.
        disk: u8,
        /// Transfer direction.
        kind: DiskKind,
        /// DMA buffer base (LDom-physical).
        buffer: LAddr,
        /// Transfer length in bytes.
        bytes: u64,
    },
    /// Loads the core's DS-id tag register — what a PARD-aware OS
    /// scheduler does on a context switch, enabling **process-level
    /// DiffServ** (one of the paper's §10 open problems): two processes on
    /// one core carry different DS-ids, so the shared-resource control
    /// planes differentiate them individually.
    SetTag(u16),
    /// The workload is finished; the core goes idle permanently.
    Halt,
}

/// A workload: a state machine emitting [`Op`]s.
///
/// The core calls [`next_op`](WorkloadEngine::next_op) whenever it is ready
/// to issue the next operation; `now` is the core's current (virtual)
/// time. Because blocking operations are executed strictly in order, an
/// engine observes the *completion* time of its previous blocking op as
/// the `now` of the following `next_op` call — which is how the memcached
/// engine measures response times without extra plumbing.
///
/// `Send` is required because `par_map` may move the machine hosting an
/// engine to another worker thread; only one thread drives an engine at a
/// time.
pub trait WorkloadEngine: Send + 'static {
    /// Engine name for diagnostics.
    fn name(&self) -> &str;

    /// Produces the next operation.
    fn next_op(&mut self, now: Time) -> Op;

    /// Upcast for harness-side downcasting (reading engine reports).
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Implements the [`Any`] plumbing of [`WorkloadEngine`].
#[macro_export]
macro_rules! impl_engine_any {
    () => {
        fn as_any(&self) -> &dyn ::std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn ::std::any::Any {
            self
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed(Vec<Op>);
    impl WorkloadEngine for Fixed {
        fn name(&self) -> &str {
            "fixed"
        }
        fn next_op(&mut self, _now: Time) -> Op {
            self.0.pop().unwrap_or(Op::Halt)
        }
        crate::impl_engine_any!();
    }

    #[test]
    fn engines_are_downcastable() {
        let mut e: Box<dyn WorkloadEngine> = Box::new(Fixed(vec![Op::Compute(1)]));
        assert_eq!(e.next_op(Time::ZERO), Op::Compute(1));
        assert_eq!(e.next_op(Time::ZERO), Op::Halt);
        assert!(e.as_any().downcast_ref::<Fixed>().is_some());
        assert!(e.as_any_mut().downcast_mut::<Fixed>().is_some());
    }

    #[test]
    fn ops_are_compact() {
        assert!(std::mem::size_of::<Op>() <= 32);
    }
}
