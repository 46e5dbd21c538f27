//! The raw monitor core: explicit entry/condition queues with direct
//! hand-off over `parking_lot` primitives.
//!
//! Unlike a plain `Mutex`+`Condvar` encoding, the discipline here is a
//! faithful implementation of the paper's monitor: a released monitor
//! is handed directly to the popped waiter *before* it wakes (no
//! barging), so the recorded `Enter`/`Wait`/`Signal-Exit` flags are
//! exact, Mesa-style spurious races cannot produce false positives, and
//! injected protocol perturbations reproduce the paper's
//! implementation-level faults on real threads.
//!
//! Memory safety under injected faults: the monitor protocol only
//! guards *scheduling*; the shared data of [`crate::Monitor`] sits
//! behind its own small mutex, so even a violated mutual exclusion
//! cannot cause undefined behaviour — it is visible in the recorded
//! history instead, which is exactly where the detector looks.

use crate::inject::{RtFault, RtInjector};
use crate::runtime::RtInner;
use crate::sync::{FastMutex, FastMutexGuard};
use parking_lot::{Condvar, Mutex};
use rmon_core::{
    CondId, EventKind, MonitorId, MonitorSpec, MonitorState, Pid, PidProc, ProcName, ProcRole,
};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A per-waiter hand-off gate.
#[derive(Debug, Default)]
pub(crate) struct Gate {
    opened: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn open(&self) {
        let mut g = self.opened.lock();
        *g = true;
        self.cv.notify_one();
    }

    /// Waits until the gate opens or the deadline passes; returns
    /// whether the gate is open.
    fn wait_until(&self, deadline: Instant) -> bool {
        let mut g = self.opened.lock();
        while !*g {
            if self.cv.wait_until(&mut g, deadline).timed_out() {
                return *g;
            }
        }
        true
    }
}

#[derive(Debug)]
struct Waiter {
    pp: PidProc,
    gate: Arc<Gate>,
}

#[derive(Debug, Default)]
pub(crate) struct RawState {
    owner: Vec<PidProc>,
    eq: VecDeque<Waiter>,
    cqs: Vec<VecDeque<Waiter>>,
    /// Injected stuck lock (W6/X2): while set nobody is admitted.
    stuck: bool,
    /// The observable resource counter `R#`, updated **atomically with
    /// the `Signal-Exit` recording** — the paper counts an operation as
    /// successful when its call completes, so the counter sampled at a
    /// checkpoint is always consistent with the exits replayed from the
    /// event window (a counter read from the data structure itself
    /// would transiently disagree mid-procedure).
    resource_no: Option<i64>,
}

impl RawState {
    fn admit_head(&mut self) {
        if self.stuck {
            return;
        }
        if let Some(w) = self.eq.pop_front() {
            self.owner.push(w.pp);
            w.gate.open();
        }
    }
}

/// The monitor protocol core shared by [`crate::Monitor`] and the
/// background checker.
#[derive(Debug)]
pub struct RawCore {
    id: MonitorId,
    spec: Arc<MonitorSpec>,
    state: FastMutex<RawState>,
    rt: Arc<RtInner>,
    injector: RtInjector,
    /// Whether this monitor has calling-order concerns (a declared
    /// path expression or Request/Release-role procedures). Computed
    /// once at construction so the per-event hot path decides with a
    /// plain field read whether to stream into the real-time
    /// (Algorithm-3) pipeline; all other events are covered by the
    /// periodic checkpoint catch-up.
    needs_order: bool,
    /// Events recorded for this monitor so far, incremented under the
    /// state lock as part of recording — the runtime half of the
    /// snapshot consistency gate
    /// ([`rmon_core::detect::SnapshotProvider::events_recorded`]): an
    /// unchanged count bracketing a [`Self::snapshot_queues`] read
    /// proves the observation is consistent with exactly that many
    /// recorded events. Every recording holds the state lock, so there
    /// is one writer at a time and the increment is a plain load plus
    /// a release store, not a read-modify-write; the lock orders
    /// successive writers, and readers (the gate, without the lock)
    /// pair the release store with an acquire load.
    recorded: AtomicU64,
}

impl RawCore {
    /// Creates a core, registering it with the runtime's detector and
    /// snapshot registry.
    pub(crate) fn new(rt: Arc<RtInner>, spec: Arc<MonitorSpec>) -> Arc<RawCore> {
        let id = rt.allocate_monitor_id();
        let needs_order = spec.call_order.is_some()
            || spec
                .procedures
                .iter()
                .any(|p| matches!(p.role, ProcRole::Request | ProcRole::Release));
        let core = Arc::new(RawCore {
            id,
            state: FastMutex::new(RawState {
                cqs: (0..spec.cond_count()).map(|_| VecDeque::new()).collect(),
                resource_no: spec.capacity.map(|c| c as i64),
                ..Default::default()
            }),
            spec: Arc::clone(&spec),
            rt: Arc::clone(&rt),
            injector: RtInjector::new(),
            needs_order,
            recorded: AtomicU64::new(0),
        });
        rt.register_monitor(&core);
        core
    }

    /// Records one scheduling event of this monitor (see
    /// [`RtInner::record_observe`]). Always called with the state lock
    /// held (an invariant of this module), so the recorded-event
    /// counter moves atomically with the queue state it describes.
    /// Whether the recording thread blocks on detection backpressure
    /// here is the monitor's instrumentation mode — a per-monitor
    /// choice answered by the backend, not a property of this core
    /// (only `needs_order`, the *what* to stream, is pinned at
    /// construction; the *how hard*, `rmon_core::Mode`, is read per
    /// event so the backend's owner can change it mid-run).
    #[inline]
    fn observe(&self, pid: Pid, proc_name: ProcName, kind: EventKind) {
        self.rt.record_observe(self.id, pid, proc_name, kind, self.needs_order);
        // One writer at a time (the state lock), so no RMW is needed.
        let recorded = self.recorded.load(Ordering::Relaxed);
        self.recorded.store(recorded + 1, Ordering::Release);
    }

    /// Events recorded for this monitor so far (see the `recorded`
    /// field). Safe to read without the state lock; pair two reads
    /// around a [`Self::snapshot_queues`] to detect racing recordings.
    pub(crate) fn events_recorded(&self) -> u64 {
        self.recorded.load(Ordering::Acquire)
    }

    /// Whether this monitor's events stream into the backend as they
    /// are recorded (it has calling-order concerns) rather than
    /// reaching it only through checkpoint windows — which decides how
    /// long a checkpoint barrier must keep it suspended.
    pub(crate) fn streams_realtime(&self) -> bool {
        self.needs_order
    }

    /// The monitor id.
    pub fn id(&self) -> MonitorId {
        self.id
    }

    /// The monitor declaration.
    pub fn spec(&self) -> &Arc<MonitorSpec> {
        &self.spec
    }

    /// Arms a one-shot protocol fault.
    pub fn arm_fault(&self, fault: RtFault) {
        self.injector.arm(fault);
    }

    /// Observed `⟨EQ, CQ[], Running, R#⟩` snapshot.
    pub fn snapshot_queues(&self) -> MonitorState {
        Self::snapshot_of(&self.state.lock())
    }

    /// Builds the observed snapshot from an already-held state guard
    /// (the checkpoint path, which holds every monitor suspended).
    pub(crate) fn snapshot_of(st: &RawState) -> MonitorState {
        MonitorState {
            entry_queue: st.eq.iter().map(|w| w.pp).collect(),
            cond_queues: st.cqs.iter().map(|q| q.iter().map(|w| w.pp).collect()).collect(),
            running: st.owner.clone(),
            available: st.resource_no.map(|v| v.max(0) as u64),
        }
    }

    /// Suspends this monitor's operations for the lifetime of the
    /// returned guard — the checkpoint half of the paper's "all other
    /// running processes are suspended" protocol. Every monitor
    /// primitive mutates its queues **and records its scheduling
    /// event** under this lock (an invariant of this module), so a
    /// checkpoint holding the guards of all live monitors takes a
    /// window and queue snapshots that are mutually consistent, with
    /// no lock on the primitives' hot path beyond the state lock they
    /// already take. Window and snapshots stay consistent after the
    /// guard drops — they are values — which is why the barrier may
    /// drop it before checking them (`RtInner::barrier`).
    pub(crate) fn suspend(&self) -> FastMutexGuard<'_, RawState> {
        self.state.lock()
    }

    /// The `Enter` primitive. Blocks (with the runtime's park timeout)
    /// while the monitor is busy.
    ///
    /// # Errors
    ///
    /// [`crate::MonitorError::Timeout`] if the caller was not admitted
    /// within the park timeout.
    pub fn enter(&self, pid: Pid, proc_name: ProcName) -> Result<(), crate::MonitorError> {
        let pp = PidProc::new(pid, proc_name);
        let gate = {
            let mut st = self.state.lock();
            // Fault E4: run inside without an observable Enter.
            if self.injector.fire(RtFault::SkipEnterEvent) {
                st.owner.push(pp);
                return Ok(());
            }
            let free = st.owner.is_empty() && !st.stuck;
            if free {
                // Fault E3: queue the caller although the monitor is free.
                if self.injector.fire(RtFault::BlockWhileFree) {
                    let gate = Arc::new(Gate::default());
                    st.eq.push_back(Waiter { pp, gate: Arc::clone(&gate) });
                    self.observe(pid, proc_name, EventKind::Enter { granted: false });
                    gate
                } else {
                    st.owner.push(pp);
                    self.observe(pid, proc_name, EventKind::Enter { granted: true });
                    return Ok(());
                }
            } else {
                // Fault E1: grant although another thread is inside.
                if self.injector.fire(RtFault::GrantWhileBusy) {
                    st.owner.push(pp);
                    self.observe(pid, proc_name, EventKind::Enter { granted: true });
                    return Ok(());
                }
                let gate = Arc::new(Gate::default());
                st.eq.push_back(Waiter { pp, gate: Arc::clone(&gate) });
                self.observe(pid, proc_name, EventKind::Enter { granted: false });
                gate
            }
        };
        self.park(pid, gate)
    }

    /// The `Wait` primitive: parks on `CQ[cond]`, releasing the monitor
    /// to the entry-queue head.
    ///
    /// # Errors
    ///
    /// [`crate::MonitorError::Timeout`] if never signalled within the
    /// park timeout (the caller no longer owns the monitor then).
    pub fn wait(
        &self,
        pid: Pid,
        proc_name: ProcName,
        cond: CondId,
    ) -> Result<(), crate::MonitorError> {
        let pp = PidProc::new(pid, proc_name);
        let gate = {
            let mut st = self.state.lock();
            st.owner.retain(|o| o.pid != pid);
            let gate = Arc::new(Gate::default());
            let c = cond.as_usize();
            if c >= st.cqs.len() {
                st.cqs.resize_with(c + 1, VecDeque::new);
            }
            st.cqs[c].push_back(Waiter { pp, gate: Arc::clone(&gate) });
            self.observe(pid, proc_name, EventKind::Wait { cond });
            if self.injector.fire(RtFault::StickLockOnWait) {
                st.stuck = true;
            } else if st.eq.is_empty() || !self.injector.fire(RtFault::SkipHandoffOnWait) {
                // (An armed skip-hand-off fault only consumes itself at
                // an effective site: somebody must be queued to skip.)
                st.admit_head();
            }
            gate
        };
        self.park(pid, gate)
    }

    /// The combined `Signal-Exit` primitive. `resource_delta` adjusts
    /// the observable `R#` atomically with the event (−1 for a
    /// completed deposit/acquisition, +1 for a completed
    /// removal/release, 0 otherwise).
    pub fn signal_exit(
        &self,
        pid: Pid,
        proc_name: ProcName,
        cond: Option<CondId>,
        resource_delta: i64,
    ) {
        let mut st = self.state.lock();
        st.owner.retain(|o| o.pid != pid);
        if let Some(rn) = st.resource_no.as_mut() {
            *rn += resource_delta;
        }
        let flag =
            cond.map(|c| st.cqs.get(c.as_usize()).is_some_and(|q| !q.is_empty())).unwrap_or(false);
        self.observe(pid, proc_name, EventKind::SignalExit { cond, resumed_waiter: flag });
        // Fault X1: nobody resumed although the flag claims the
        // hand-off (effective only when someone was due a resumption).
        if (flag || !st.eq.is_empty()) && self.injector.fire(RtFault::SkipResumeOnExit) {
            return;
        }
        // Fault X2: the monitor stays locked.
        if self.injector.fire(RtFault::StickLockOnExit) {
            st.stuck = true;
            return;
        }
        if flag {
            let c = cond.expect("flag implies cond").as_usize();
            let w = st.cqs[c].pop_front().expect("flag implies waiter");
            st.owner.push(w.pp);
            w.gate.open();
        } else {
            st.admit_head();
        }
    }

    /// Records an internal termination (fault T1): the calling thread
    /// abandons the monitor without exiting. The lock is left stuck —
    /// exactly the effect of a process crashing in its critical
    /// section: nobody is ever admitted again, which the periodic
    /// checker flags through the entry-queue timer on top of the
    /// immediate Terminate report.
    pub fn terminate_inside(&self, pid: Pid, proc_name: ProcName) {
        let mut st = self.state.lock();
        st.owner.retain(|o| o.pid != pid);
        st.stuck = true;
        self.observe(pid, proc_name, EventKind::Terminate);
    }

    /// Error-recovery hook (§5 extension): clears an injected/terminal
    /// stuck lock and, if the monitor is free with entry waiters
    /// stranded, admits the head. Conservative: never touches a monitor
    /// that currently has a live owner. Returns whether anything was
    /// repaired.
    pub fn force_release(&self) -> bool {
        let mut st = self.state.lock();
        let mut acted = false;
        if st.stuck {
            st.stuck = false;
            acted = true;
        }
        if st.owner.is_empty() && !st.eq.is_empty() {
            st.admit_head();
            acted = true;
        }
        acted
    }

    /// Parks on `gate`; on timeout, removes the caller from whichever
    /// queue still holds it (unless it won the race and was admitted).
    fn park(&self, pid: Pid, gate: Arc<Gate>) -> Result<(), crate::MonitorError> {
        let deadline = Instant::now() + self.rt.park_timeout;
        if gate.wait_until(deadline) {
            return Ok(());
        }
        let mut st = self.state.lock();
        if st.owner.iter().any(|o| o.pid == pid) {
            // Admitted between the timeout and this lock.
            return Ok(());
        }
        st.eq.retain(|w| w.pp.pid != pid);
        for q in &mut st.cqs {
            q.retain(|w| w.pp.pid != pid);
        }
        Err(crate::MonitorError::Timeout)
    }

    /// The runtime this core belongs to.
    pub(crate) fn runtime(&self) -> &Arc<RtInner> {
        &self.rt
    }
}
