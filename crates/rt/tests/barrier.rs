//! The checkpoint barrier's protocol, observed from the backend's side
//! of [`DetectionBackend::checkpoint_window`]: which monitors run while
//! a window is being checked, which wait for it, and that concurrent
//! barriers deliver their windows in the order they took them.
//!
//! Interleavings are forced with channels. Nothing here asserts a
//! duration.

use rmon_core::detect::{
    CheckpointScope, DetectionBackend, InlineBackend, ProducerHandle, ServiceStats,
    SnapshotProvider,
};
use rmon_core::oplog::Record;
use rmon_core::{
    DetectorConfig, Event, FaultReport, MemorySink, MonitorId, MonitorSpec, MonitorState, Nanos,
    Pid, ProcName, RuleId, Violation,
};
use rmon_rt::{BoundedBuffer, ResourceAllocator, Runtime};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Long enough that only a deadlock runs into it.
const STUCK: Duration = Duration::from_secs(20);

type Hook = Box<dyn Fn(&[Event]) + Send + Sync>;

/// An [`InlineBackend`] with a hook on either side of the window check.
struct Hooked {
    inner: InlineBackend,
    before: Hook,
    after: Hook,
}

impl std::fmt::Debug for Hooked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hooked").field("inner", &self.inner).finish_non_exhaustive()
    }
}

impl Hooked {
    fn backend(before: Hook, after: Hook) -> Arc<dyn DetectionBackend> {
        let inner = InlineBackend::new(DetectorConfig::without_timeouts());
        Arc::new(Hooked { inner, before, after })
    }
}

impl DetectionBackend for Hooked {
    fn register(&self, m: MonitorId, spec: Arc<MonitorSpec>, initial: &MonitorState, now: Nanos) {
        self.inner.register(m, spec, initial, now);
    }
    fn producer(&self) -> Box<dyn ProducerHandle> {
        self.inner.producer()
    }
    fn call_would_violate(&self, m: MonitorId, pid: Pid, proc_name: ProcName) -> Option<RuleId> {
        self.inner.call_would_violate(m, pid, proc_name)
    }
    fn set_snapshot_provider(&self, provider: Arc<dyn SnapshotProvider>) {
        self.inner.set_snapshot_provider(provider);
    }
    fn checkpoint(&self, scope: CheckpointScope, now: Nanos) -> FaultReport {
        self.inner.checkpoint(scope, now)
    }
    fn checkpoint_window(
        &self,
        now: Nanos,
        events: &[Event],
        snapshots: &HashMap<MonitorId, MonitorState>,
    ) -> FaultReport {
        (self.before)(events);
        let report = self.inner.checkpoint_window(now, events, snapshots);
        (self.after)(events);
        report
    }
    fn stats(&self) -> ServiceStats {
        self.inner.stats()
    }
    fn drain_violations(&self) -> Vec<Violation> {
        self.inner.drain_violations()
    }
    fn shutdown(&self) {
        self.inner.shutdown();
    }
    fn label(&self) -> &'static str {
        "hooked"
    }
}

fn runtime(backend: Arc<dyn DetectionBackend>) -> Runtime {
    Runtime::builder(DetectorConfig::without_timeouts())
        .backend(backend)
        .park_timeout(Duration::from_secs(30))
        .build()
}

#[test]
fn a_buffer_operates_while_its_window_is_checked() {
    // The first check does not return until another thread has
    // completed a send and a receive on a buffer the barrier suspended
    // to gather that very window. With the guards held to the end of
    // the check this is a deadlock.
    let (in_check, check_began) = mpsc::channel::<()>();
    let (operated, operation_done) = mpsc::channel::<()>();
    let operation_done = Mutex::new(operation_done);
    let first = AtomicBool::new(true);
    let rt = runtime(Hooked::backend(
        Box::new(move |_| {
            if first.swap(false, Ordering::Relaxed) {
                in_check.send(()).expect("the operating thread is waiting");
                operation_done
                    .lock()
                    .unwrap()
                    .recv_timeout(STUCK)
                    .expect("a buffer operation must complete while its window is checked");
            }
        }),
        Box::new(|_| {}),
    ));
    let buf = BoundedBuffer::new(&rt, "mailbox", 4);
    buf.send(1u64).unwrap();
    assert_eq!(buf.receive().unwrap(), Some(1));
    let before = rt.events_recorded();

    let report = std::thread::scope(|scope| {
        let buf = buf.clone();
        scope.spawn(move || {
            check_began.recv_timeout(STUCK).expect("the check begins");
            buf.send(2).unwrap();
            assert_eq!(buf.receive().unwrap(), Some(2));
            operated.send(()).expect("the check is waiting");
        });
        rt.checkpoint_now()
    });
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.events_checked, before, "the window was fixed before the check began");

    // What ran beside the check is the next window's.
    let next = rt.checkpoint_now();
    assert!(next.is_clean(), "{next}");
    assert_eq!(report.events_checked + next.events_checked, rt.events_recorded());
    assert_eq!(rt.pause_stats().checkpoints, 2);
}

#[test]
fn an_allocator_waits_for_its_check() {
    // The counterpart: a monitor that streams in real time stays
    // suspended until the check has returned. The requesting thread
    // starts its request once the check is under way and looks, the
    // moment the request completes, whether the check had finished.
    let (in_check, check_began) = mpsc::channel::<()>();
    let (attempting, attempt_began) = mpsc::channel::<()>();
    let attempt_began = Mutex::new(attempt_began);
    let first = AtomicBool::new(true);
    let check_done = Arc::new(AtomicBool::new(false));
    let done = Arc::clone(&check_done);
    let rt = runtime(Hooked::backend(
        Box::new(move |_| {
            if first.swap(false, Ordering::Relaxed) {
                in_check.send(()).expect("the requesting thread is waiting");
                attempt_began.lock().unwrap().recv_timeout(STUCK).expect("the request begins");
                // Not what the test waits for — a correct barrier
                // passes however this goes — but the head start a
                // wrongly released allocator would need to be caught.
                std::thread::sleep(Duration::from_millis(20));
            }
        }),
        Box::new(move |_| done.store(true, Ordering::SeqCst)),
    ));
    let al = ResourceAllocator::new(&rt, "printer", 1);
    al.request().unwrap();
    al.release().unwrap();
    // A buffer beside it resumes early all the same.
    let buf = BoundedBuffer::new(&rt, "mailbox", 4);
    buf.send(1u64).unwrap();

    let report = std::thread::scope(|scope| {
        let (al, check_done) = (al.clone(), Arc::clone(&check_done));
        scope.spawn(move || {
            check_began.recv_timeout(STUCK).expect("the check begins");
            assert_eq!(buf.receive().unwrap(), Some(1), "the buffer is not held");
            attempting.send(()).expect("the check is waiting");
            al.request().unwrap();
            assert!(
                check_done.load(Ordering::SeqCst),
                "an allocator operation completed while its check was running"
            );
            al.release().unwrap();
        });
        rt.checkpoint_now()
    });
    assert!(report.is_clean(), "{report}");
    let closing = rt.checkpoint_now();
    assert!(closing.is_clean(), "{closing}");
    assert!(rt.is_clean());
    assert_eq!(report.events_checked + closing.events_checked, rt.events_recorded());
}

#[test]
fn concurrent_barriers_deliver_windows_in_order_and_check_every_event_once() {
    // Two threads hammer `checkpoint_now`, a third issues journaled
    // scoped barriers, over a producer/consumer pair on one buffer and
    // a client of an allocator. Released early, a barrier could be
    // overtaken between its hand-over and its check; the checkpoint
    // lock must prevent that: the backend sees windows whose sequence
    // numbers only go up, every event is checked exactly once (an
    // overtaken window's events would fall under their callers'
    // watermarks and be skipped), and the journal holds the same
    // windows in the same order.
    const ITEMS: u64 = 20_000;
    let windows: Arc<Mutex<Vec<(u64, u64)>>> = Arc::default();
    let seen = Arc::clone(&windows);
    let backend = Hooked::backend(
        Box::new(move |events| {
            assert!(events.windows(2).all(|w| w[0].seq < w[1].seq), "a window is seq-sorted");
            if let (Some(first), Some(last)) = (events.first(), events.last()) {
                seen.lock().unwrap().push((first.seq, last.seq));
            }
        }),
        Box::new(|_| {}),
    );
    let sink = Arc::new(MemorySink::new());
    let rt = Runtime::builder(DetectorConfig::without_timeouts())
        .backend(backend)
        .journal(Arc::clone(&sink))
        .park_timeout(Duration::from_secs(30))
        .build();
    let buf = BoundedBuffer::new(&rt, "mailbox", 8);
    let al = ResourceAllocator::new(&rt, "printer", 1);
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let checkers: Vec<_> = (0..3)
            .map(|i| {
                let (rt, stop) = (&rt, &stop);
                scope.spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        let report = match i {
                            0 => rt.checkpoint_scope(CheckpointScope::All),
                            _ => rt.checkpoint_now(),
                        };
                        assert!(report.is_clean(), "{report}");
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        let load = [
            scope.spawn(|| (0..ITEMS).for_each(|i| buf.send(i).unwrap())),
            scope.spawn(|| (0..ITEMS).for_each(|i| assert_eq!(buf.receive().unwrap(), Some(i)))),
            scope.spawn(|| {
                for _ in 0..ITEMS / 10 {
                    al.request().unwrap();
                    al.release().unwrap();
                }
            }),
        ];
        for thread in load {
            thread.join().unwrap();
        }
        stop.store(true, Ordering::Release);
        for thread in checkers {
            thread.join().unwrap();
        }
    });
    let closing = rt.checkpoint_now();
    assert!(closing.is_clean(), "{closing}");
    assert!(rt.is_clean(), "{:?}", rt.all_violations());
    assert_eq!(rt.journal_errors(), 0);

    let reports = rt.reports();
    assert!(reports.iter().all(FaultReport::is_clean));
    let checked: u64 = reports.iter().map(|r| r.events_checked).sum();
    assert_eq!(checked, rt.events_recorded(), "every event checked exactly once");
    assert_eq!(rt.pause_stats().checkpoints, reports.len() as u64);

    let windows = windows.lock().unwrap();
    assert!(windows.len() > 1, "the load spans several windows");
    for pair in windows.windows(2) {
        assert!(pair[0].1 < pair[1].0, "window {:?} overtook {:?}", pair[1], pair[0]);
    }
    let journaled: Vec<(u64, u64)> = sink
        .records()
        .iter()
        .filter_map(|record| match record {
            Record::Events(events) => Some((events.first()?.seq, events.last()?.seq)),
            _ => None,
        })
        .collect();
    assert_eq!(journaled, *windows, "the journal holds the windows the backend saw");
}
