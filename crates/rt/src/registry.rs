//! Thread → process-identifier and thread → recording-state registry.
//!
//! The detection model identifies callers by [`Pid`]. Real threads get
//! their pid from a process-wide counter, cached in a thread-local, so
//! every recorded event attributes correctly without threading pids
//! through every call.
//!
//! The same thread-locality carries the whole per-thread half of the
//! recording pipeline: each (thread, runtime) pair owns one
//! `ThreadState` bundling its recorder segment (the thread's private
//! window buffer, see `crate::recorder`) with its
//! [`ProducerHandle`] into the runtime's detection backend. One
//! thread-local lookup per recorded event reaches both, so a hot-path
//! observation appends to the segment and — for monitors with
//! calling-order concerns — streams straight into the backend without
//! touching any mutex shared between observing threads. How long the
//! recording thread waits on the hand-off is the monitor's
//! *instrumentation mode* (`rmon_core::Mode`, answered by the
//! backend and set by its owner): on a buffered handle, Sync uses
//! [`ProducerHandle::try_observe`] with a bounded yield-retry before it
//! ever blocks on a full shard inbox, Async fires one `try_observe`
//! and detaches, Hybrid bounds the retry by a wall-clock budget — see
//! `crate::runtime::RtInner::record_observe`. One thread =
//! one [`Pid`] = one segment = one handle is also what upholds the
//! backends' per-caller ordering precondition (see
//! `rmon_core::detect::shard`).

use crate::recorder::{Recorder, ThreadSegment};
use rmon_core::detect::{DetectionBackend, ProducerHandle};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use rmon_core::Pid;

static NEXT_PID: AtomicU32 = AtomicU32::new(1);

/// One thread's private recording state for one runtime: its writer
/// segment into the runtime's recorder plus its ingestion handle into
/// the runtime's detection backend.
///
/// The segment also carries the thread's **vector clock** when the
/// recorder attaches happens-before stamps (see
/// `Recorder::with_clocks`): keeping exactly one segment per (thread,
/// runtime) pair is what gives each thread a stable clock slot for the
/// runtime's lifetime.
#[derive(Debug)]
pub(crate) struct ThreadState {
    pub(crate) segment: ThreadSegment,
    pub(crate) producer: Box<dyn ProducerHandle>,
}

thread_local! {
    static CURRENT: Cell<Option<Pid>> = const { Cell::new(None) };
    /// This thread's recording states, keyed by runtime token. Entries
    /// whose backend has shut down (their runtime is gone) are pruned
    /// whenever a new state is installed.
    static STATES: RefCell<Vec<(u64, ThreadState)>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` over the calling thread's recording state for the runtime
/// identified by `token`, installing a fresh segment + producer handle
/// on first use.
pub(crate) fn with_thread_state<R>(
    token: u64,
    recorder: &Recorder,
    backend: &Arc<dyn DetectionBackend>,
    f: impl FnOnce(&mut ThreadState) -> R,
) -> R {
    STATES.with(|cell| {
        let mut states = cell.borrow_mut();
        if let Some(entry) = states.iter_mut().find(|(t, _)| *t == token) {
            return f(&mut entry.1);
        }
        states.retain(|(_, s)| !s.producer.is_closed());
        states.push((
            token,
            ThreadState { segment: recorder.new_thread_segment(), producer: backend.producer() },
        ));
        let entry = states.last_mut().expect("just pushed");
        f(&mut entry.1)
    })
}

/// The calling thread's pid, assigning a fresh one on first use.
pub fn current_pid() -> Pid {
    CURRENT.with(|c| match c.get() {
        Some(pid) => pid,
        None => {
            let pid = Pid::new(NEXT_PID.fetch_add(1, Ordering::Relaxed));
            c.set(Some(pid));
            pid
        }
    })
}

/// Overrides the calling thread's pid (useful in tests that need
/// deterministic pids).
pub fn set_current_pid(pid: Pid) {
    CURRENT.with(|c| c.set(Some(pid)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pid_is_stable_within_a_thread() {
        let a = current_pid();
        let b = current_pid();
        assert_eq!(a, b);
    }

    #[test]
    fn pids_differ_across_threads() {
        let main = current_pid();
        let other = std::thread::spawn(current_pid).join().unwrap();
        assert_ne!(main, other);
    }

    #[test]
    fn thread_state_keeps_one_clock_identity_per_runtime() {
        use rmon_core::detect::InlineBackend;
        use rmon_core::{DetectorConfig, EventKind, MonitorId, ProcName};

        let recorder = Recorder::with_clocks();
        let backend: Arc<dyn DetectionBackend> =
            Arc::new(InlineBackend::new(DetectorConfig::default()));
        let token = 0xC10C;
        let record = |kind| {
            with_thread_state(token, &recorder, &backend, |st| {
                recorder.record_on(
                    &mut st.segment,
                    MonitorId::new(0),
                    Pid::new(1),
                    ProcName::new(0),
                    kind,
                )
            })
        };
        let a = record(EventKind::Enter { granted: true });
        let b = record(EventKind::SignalExit { cond: None, resumed_waiter: false });
        // Same cached segment ⇒ same clock slot, strictly advancing.
        assert_eq!(a.vc.owner(), b.vc.owner());
        assert!(a.vc.owner().is_some());
        assert_eq!(a.vc.partial_cmp(&b.vc), Some(std::cmp::Ordering::Less));
    }

    #[test]
    fn set_current_pid_overrides() {
        let t = std::thread::spawn(|| {
            set_current_pid(Pid::new(4242));
            current_pid()
        });
        assert_eq!(t.join().unwrap(), Pid::new(4242));
    }
}
