//! The background checking routine (§4 of the paper): periodically
//! suspends monitor operations, gathers the recorded window and the
//! queue snapshots, and invokes the detection algorithms on them —
//! [`Runtime::checkpoint_now`] on a thread of its own.

use crate::runtime::Runtime;
use crossbeam::channel::{unbounded, Receiver, Sender};
use rmon_core::FaultReport;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Handle to the background checker thread.
///
/// Each round is one [`Runtime::checkpoint_now`]: the application
/// waits while the round *gathers* (microseconds), and the checking
/// itself runs here, beside the application — except for monitors that
/// stream in real time, which stay suspended until their check is done.
/// A round that takes longer than `interval` simply delays the next
/// one; rounds never overlap, and a manual `checkpoint_now()` from
/// another thread is serialized with them.
///
/// Reports are pushed both into the runtime (see
/// [`Runtime::reports`]) and onto the channel returned by
/// [`CheckerHandle::reports_rx`].
///
/// Dropping the handle stops the thread; the blocking join is bounded
/// by one checking interval. Call [`CheckerHandle::stop`] for an
/// explicit, inspectable shutdown.
#[derive(Debug)]
pub struct CheckerHandle {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<u64>>,
    rx: Receiver<FaultReport>,
}

impl CheckerHandle {
    /// Spawns a checker over `rt`, waking every `interval`.
    pub fn spawn(rt: &Runtime, interval: Duration) -> CheckerHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let rt = rt.clone();
        let (tx, rx): (Sender<FaultReport>, Receiver<FaultReport>) = unbounded();
        let thread = std::thread::Builder::new()
            .name("rmon-checker".into())
            .spawn(move || {
                let mut checks = 0u64;
                while !stop2.load(Ordering::Relaxed) {
                    std::thread::sleep(interval);
                    if stop2.load(Ordering::Relaxed) {
                        break;
                    }
                    let report = rt.checkpoint_now();
                    checks += 1;
                    let _ = tx.send(report);
                }
                checks
            })
            .expect("spawn checker thread");
        CheckerHandle { stop, thread: Some(thread), rx }
    }

    /// Receiver of checkpoint reports, in order.
    pub fn reports_rx(&self) -> &Receiver<FaultReport> {
        &self.rx
    }

    /// Stops the checker and returns how many checks it ran.
    pub fn stop(mut self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.take().map(|t| t.join().unwrap_or(0)).unwrap_or(0)
    }
}

impl Drop for CheckerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BoundedBuffer, Runtime};
    use rmon_core::DetectorConfig;

    #[test]
    fn checker_runs_periodically_and_stays_clean() {
        let rt = Runtime::new(DetectorConfig::without_timeouts());
        let buf = BoundedBuffer::new(&rt, "b", 2);
        let checker = CheckerHandle::spawn(&rt, Duration::from_millis(10));
        for i in 0..200 {
            buf.send(i).unwrap();
            assert_eq!(buf.receive().unwrap(), Some(i));
        }
        std::thread::sleep(Duration::from_millis(30));
        let checks = checker.stop();
        assert!(checks >= 1, "checker must have run");
        assert!(rt.is_clean(), "{:?}", rt.all_violations());
        assert!(!rt.reports().is_empty());
    }

    #[test]
    fn checker_reports_flow_on_channel() {
        let rt = Runtime::new(DetectorConfig::without_timeouts());
        let _buf = BoundedBuffer::<u32>::new(&rt, "b", 2);
        let checker = CheckerHandle::spawn(&rt, Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(25));
        let mut received = 0;
        while checker.reports_rx().try_recv().is_ok() {
            received += 1;
        }
        checker.stop();
        assert!(received >= 1);
    }

    #[test]
    fn drop_stops_the_thread() {
        let rt = Runtime::new(DetectorConfig::without_timeouts());
        {
            let _checker = CheckerHandle::spawn(&rt, Duration::from_millis(5));
            std::thread::sleep(Duration::from_millis(12));
        }
        // No panic, no hang: dropping joined the thread.
        assert!(rt.is_clean());
    }
}
