//! The uninstrumented baseline of the paper's performance evaluation
//! (Table 1): the ratio is taken between monitor operations with the
//! fault-detection extension and the same operations without it.
//! [`HandoffBuffer`] is the "without" side; the benchmark's
//! `app_overhead` workload runs it beside an instrumented
//! [`BoundedBuffer`](crate::BoundedBuffer).

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;

/// An uninstrumented Hoare-style hand-off buffer: the exact monitor
/// discipline of [`crate::BoundedBuffer`] (explicit entry/condition
/// queues, direct hand-off, no barging) with the fault-detection
/// extension stripped out. This is the paper's "without the extension"
/// baseline — comparing against a barging buffer instead would charge
/// the hand-off semantics to the detector.
#[derive(Debug)]
pub struct HandoffBuffer<T> {
    st: Mutex<HandoffState<T>>,
}

#[derive(Debug)]
struct HandoffState<T> {
    occupied: bool,
    eq: VecDeque<Arc<HandoffGate>>,
    full_waiters: VecDeque<Arc<HandoffGate>>,
    empty_waiters: VecDeque<Arc<HandoffGate>>,
    queue: VecDeque<T>,
    capacity: usize,
}

#[derive(Debug, Default)]
struct HandoffGate {
    opened: Mutex<bool>,
    cv: Condvar,
}

impl HandoffGate {
    fn open(&self) {
        let mut g = self.opened.lock();
        *g = true;
        self.cv.notify_one();
    }

    fn wait(&self) {
        let mut g = self.opened.lock();
        while !*g {
            self.cv.wait(&mut g);
        }
    }
}

impl<T> HandoffBuffer<T> {
    /// Creates a hand-off buffer of the given capacity.
    pub fn new(capacity: usize) -> Self {
        HandoffBuffer {
            st: Mutex::new(HandoffState {
                occupied: false,
                eq: VecDeque::new(),
                full_waiters: VecDeque::new(),
                empty_waiters: VecDeque::new(),
                queue: VecDeque::with_capacity(capacity),
                capacity,
            }),
        }
    }

    fn enter(&self) {
        let gate = {
            let mut st = self.st.lock();
            if !st.occupied {
                st.occupied = true;
                return;
            }
            let gate = Arc::new(HandoffGate::default());
            st.eq.push_back(Arc::clone(&gate));
            gate
        };
        gate.wait();
    }

    fn release(st: &mut HandoffState<T>) {
        if let Some(next) = st.eq.pop_front() {
            next.open(); // ownership transferred directly
        } else {
            st.occupied = false;
        }
    }

    /// Deposits an item, waiting while full (Hoare hand-off).
    pub fn send(&self, item: T) {
        self.enter();
        {
            let mut st = self.st.lock();
            if st.queue.len() >= st.capacity {
                let gate = Arc::new(HandoffGate::default());
                st.full_waiters.push_back(Arc::clone(&gate));
                Self::release(&mut st);
                drop(st);
                gate.wait();
                // Resumed with ownership (signaller handed off).
            }
        }
        let mut st = self.st.lock();
        st.queue.push_back(item);
        if let Some(w) = st.empty_waiters.pop_front() {
            w.open(); // signal-exit: hand the monitor to the waiter
        } else {
            Self::release(&mut st);
        }
    }

    /// Removes an item, waiting while empty (Hoare hand-off).
    pub fn receive(&self) -> T {
        self.enter();
        {
            let mut st = self.st.lock();
            if st.queue.is_empty() {
                let gate = Arc::new(HandoffGate::default());
                st.empty_waiters.push_back(Arc::clone(&gate));
                Self::release(&mut st);
                drop(st);
                gate.wait();
            }
        }
        let mut st = self.st.lock();
        let item = st.queue.pop_front().expect("hand-off guarantees an item");
        if let Some(w) = st.full_waiters.pop_front() {
            w.open();
        } else {
            Self::release(&mut st);
        }
        item
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handoff_buffer_round_trips() {
        let buf = HandoffBuffer::new(2);
        buf.send(1);
        buf.send(2);
        assert_eq!(buf.receive(), 1);
        assert_eq!(buf.receive(), 2);
    }

    #[test]
    fn handoff_buffer_under_contention() {
        let buf = Arc::new(HandoffBuffer::new(3));
        let tx = Arc::clone(&buf);
        let producer = std::thread::spawn(move || {
            for i in 0..500u64 {
                tx.send(i);
            }
        });
        let rx = Arc::clone(&buf);
        let consumer = std::thread::spawn(move || {
            let mut sum = 0u64;
            for _ in 0..500 {
                sum += rx.receive();
            }
            sum
        });
        producer.join().unwrap();
        assert_eq!(consumer.join().unwrap(), 500 * 499 / 2);
    }
}
