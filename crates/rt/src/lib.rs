//! # rmon-rt — the robust monitor runtime for real threads
//!
//! A from-scratch implementation of the paper's *augmented monitor
//! construct* (Cao, Cheung & Chan, DSN 2001) on real OS threads:
//!
//! * [`Monitor`] — a Hoare-style monitor with explicit entry/condition
//!   queues and direct hand-off (no barging), whose primitives record
//!   scheduling events into the shared [`Runtime`];
//! * [`BoundedBuffer`] / [`ResourceAllocator`] / [`OperationCell`] —
//!   the paper's three monitor types (communication coordinator,
//!   resource-access-right allocator, resource operation manager);
//! * [`CheckerHandle`] — the periodic checking routine, which suspends
//!   monitor operations while it gathers the detection algorithms'
//!   input (and, for monitors that stream in real time, while it runs
//!   them — see [`Runtime::checkpoint_now`]);
//! * [`overhead::HandoffBuffer`] — the same hand-off discipline with
//!   the extension stripped out: the uninstrumented side of the
//!   paper's Table 1 overhead ratio;
//! * [`RtFault`] / [`BufferBug`] / [`MonitorGuard::abandon`] — fault
//!   injection for the classes realizable on real threads.
//!
//! ## Example
//!
//! ```
//! use rmon_core::DetectorConfig;
//! use rmon_rt::{BoundedBuffer, CheckerHandle, Runtime};
//! use std::time::Duration;
//!
//! let rt = Runtime::new(DetectorConfig::default());
//! let buf = BoundedBuffer::new(&rt, "mailbox", 8);
//! let checker = CheckerHandle::spawn(&rt, Duration::from_millis(20));
//!
//! let tx = buf.clone();
//! let producer = std::thread::spawn(move || {
//!     for i in 0..100 {
//!         tx.send(i).unwrap();
//!     }
//! });
//! let rx = buf.clone();
//! let consumer = std::thread::spawn(move || {
//!     for _ in 0..100 {
//!         rx.receive().unwrap();
//!     }
//! });
//! producer.join().unwrap();
//! consumer.join().unwrap();
//! checker.stop();
//! assert!(rt.is_clean());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod allocator;
mod buffer;
mod cell;
mod checker;
mod error;
mod inject;
mod monitor;
pub mod overhead;
mod raw;
mod recorder;
mod recovery;
pub mod registry;
mod runtime;
mod sync;

pub use allocator::ResourceAllocator;
pub use buffer::{BoundedBuffer, BufferBug};
pub use cell::OperationCell;
pub use checker::CheckerHandle;
pub use error::MonitorError;
pub use inject::{RtFault, RtInjector};
pub use monitor::{Monitor, MonitorGuard};
pub use raw::RawCore;
pub use recorder::{Handover, Recorder};
pub use recovery::{RecoveryAction, RecoveryChecker, RecoveryLog};
pub use runtime::{OrderPolicy, PauseStats, Runtime, RuntimeBuilder, RuntimeSnapshotProvider};

#[cfg(test)]
mod crate_tests {
    use super::*;

    #[test]
    fn handles_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Runtime>();
        assert_send_sync::<BoundedBuffer<u64>>();
        assert_send_sync::<ResourceAllocator>();
        assert_send_sync::<OperationCell<u64>>();
        assert_send_sync::<Monitor<u64>>();
    }
}
