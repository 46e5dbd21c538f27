//! The checking lists of §3.3.1 and their state-transition semantics
//! (§3.3.2).
//!
//! The paper derives faults *indirectly*: events are viewed as functions
//! mapping one consistent monitor state into another, and the detector
//! replays the recorded event sequence over lists initialized from the
//! state at the last checking time. Any step that breaks an ST-Rule, or
//! any mismatch between the replayed lists and the observed state at the
//! current checking time, reveals a concurrency-control fault.
//!
//! Three state groups mirror the paper's three algorithms:
//!
//! * [`GeneralLists`] — Enter-Q-List, Wait-Cond-Lists, Running-List and
//!   the per-process timers (Algorithm-1, ST-1..6);
//! * [`ResourceState`] — Resource-No and the `r`/`s` success counters
//!   (Algorithm-2, ST-7);
//! * [`OrderState`] — the Request-List and the path-expression call-order
//!   trackers (Algorithm-3, ST-8; checked in real time).

use crate::config::DetectorConfig;
use crate::event::{Event, EventKind};
use crate::fault::FaultKind;
use crate::ids::{MonitorId, Pid, PidProc, ProcName};
use crate::path::CompiledPath;
use crate::rule::RuleId;
use crate::spec::{CondRole, MonitorClass, MonitorSpec, ProcRole};
use crate::state::MonitorState;
use crate::time::Nanos;
use crate::violation::{Detail, Violation};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Enter-Q-List, Wait-Cond-Lists and Running-List, plus per-process
/// situation timers (reset whenever a process moves between lists).
///
/// This is the state Algorithm-1 replays events over.
#[derive(Debug, Clone)]
pub struct GeneralLists {
    monitor: MonitorId,
    enter_q: VecDeque<PidProc>,
    wait_cond: Vec<VecDeque<PidProc>>,
    running: Vec<PidProc>,
    /// When each present process entered its *current* list.
    timers: HashMap<Pid, Nanos>,
}

impl GeneralLists {
    /// Empty lists for a monitor with `conds` condition queues.
    pub fn new(monitor: MonitorId, conds: usize) -> Self {
        GeneralLists {
            monitor,
            enter_q: VecDeque::new(),
            wait_cond: vec![VecDeque::new(); conds],
            running: Vec::new(),
            timers: HashMap::new(),
        }
    }

    /// Lists initialized from an observed state `s_p` at the last
    /// checking time (the paper's initialization step).
    pub fn from_state(monitor: MonitorId, conds: usize, state: &MonitorState, now: Nanos) -> Self {
        let mut l = Self::new(monitor, conds);
        l.resync(state, now);
        l
    }

    /// The replayed entry queue.
    pub fn enter_q(&self) -> &VecDeque<PidProc> {
        &self.enter_q
    }

    /// The replayed condition queues.
    pub fn wait_cond(&self) -> &[VecDeque<PidProc>] {
        &self.wait_cond
    }

    /// The replayed running list (correct executions keep it ≤ 1).
    pub fn running(&self) -> &[PidProc] {
        &self.running
    }

    /// The situation timer for `pid`, if present in any list.
    pub fn timer(&self, pid: Pid) -> Option<Nanos> {
        self.timers.get(&pid).copied()
    }

    fn cond_queue_mut(&mut self, cond: usize) -> &mut VecDeque<PidProc> {
        if cond >= self.wait_cond.len() {
            // Malformed traces may name more conditions than declared;
            // grow gracefully — the spec mismatch shows up elsewhere.
            self.wait_cond.resize_with(cond + 1, VecDeque::new);
        }
        &mut self.wait_cond[cond]
    }

    fn in_enter_q(&self, pid: Pid) -> bool {
        self.enter_q.iter().any(|pp| pp.pid == pid)
    }

    fn in_wait_cond(&self, pid: Pid) -> bool {
        self.wait_cond.iter().any(|q| q.iter().any(|pp| pp.pid == pid))
    }

    fn remove_running(&mut self, pid: Pid) -> Option<PidProc> {
        let idx = self.running.iter().position(|pp| pp.pid == pid)?;
        Some(self.running.remove(idx))
    }

    /// Hands the monitor to the head of the entry queue (the replayed
    /// equivalent of releasing the monitor).
    fn admit_entry_head(&mut self, now: Nanos) {
        if let Some(head) = self.enter_q.pop_front() {
            self.timers.insert(head.pid, now);
            self.running.push(head);
        }
    }

    /// Replays one event over the lists, appending any ST-1..4
    /// violations detected *during* the step (timer and snapshot checks
    /// happen separately at checkpoints).
    pub fn apply(&mut self, spec: &MonitorSpec, event: &Event, out: &mut Vec<Violation>) {
        let pid = event.pid;
        let now = event.time;
        let caller = event.pid_proc();

        // ST-4: the process issuing an event must not currently be
        // parked on the entry queue or a condition queue.
        if self.in_enter_q(pid) {
            out.push(
                Violation::new(
                    self.monitor,
                    RuleId::St4NoGhostEvents,
                    now,
                    Detail::ParkedOnEntryQueue { pid, kind: event.kind },
                )
                .with_pid(pid)
                .with_event(event.seq)
                .with_fault(FaultKind::EnterNotObserved),
            );
        } else if self.in_wait_cond(pid) {
            out.push(
                Violation::new(
                    self.monitor,
                    RuleId::St4NoGhostEvents,
                    now,
                    Detail::ParkedOnCondQueue { pid, kind: event.kind },
                )
                .with_pid(pid)
                .with_event(event.seq)
                .with_fault(FaultKind::WaitNotBlocked),
            );
        }

        match event.kind {
            EventKind::Enter { granted: false } => {
                // ST-3d: a process may be blocked only while the monitor
                // is in use.
                if self.running.len() != 1 {
                    out.push(
                        Violation::new(
                            self.monitor,
                            RuleId::St3BlockedWhileFree,
                            now,
                            Detail::BlockedWhileFree { pid, inside: self.running.len() },
                        )
                        .with_pid(pid)
                        .with_event(event.seq)
                        .with_fault(FaultKind::EnterNoResponse),
                    );
                }
                self.enter_q.push_back(caller);
                self.timers.insert(pid, now);
            }
            EventKind::Enter { granted: true } => {
                self.running.push(caller);
                self.timers.insert(pid, now);
                // ST-3c: after a granted Enter the caller must be the
                // only process inside.
                if self.running.len() != 1 {
                    out.push(
                        Violation::new(
                            self.monitor,
                            RuleId::St3RunningUnique,
                            now,
                            Detail::EnterNotUnique { pid, inside: self.running.len() },
                        )
                        .with_pid(pid)
                        .with_event(event.seq)
                        .with_fault(FaultKind::EnterMutualExclusion),
                    );
                }
            }
            EventKind::Wait { cond } => {
                self.check_caller_running(event, FaultKind::WaitMutualExclusion, out);
                if self.remove_running(pid).is_none() {
                    // Caller was not inside; the ST-3b report above
                    // covers it. Nothing to move.
                } else {
                    self.timers.insert(pid, now);
                    self.cond_queue_mut(cond.as_usize()).push_back(caller);
                }
                let _ = spec;
                // Wait releases the monitor: the entry-queue head (if
                // any) is resumed.
                self.admit_entry_head(now);
            }
            EventKind::SignalExit { cond, resumed_waiter } => {
                self.check_caller_running(event, FaultKind::SignalExitMutualExclusion, out);
                if self.remove_running(pid).is_some() {
                    self.timers.remove(&pid);
                }
                if resumed_waiter {
                    let popped = cond.and_then(|c| self.cond_queue_mut(c.as_usize()).pop_front());
                    match popped {
                        Some(waiter) => {
                            self.timers.insert(waiter.pid, now);
                            self.running.push(waiter);
                        }
                        None => out.push(
                            Violation::new(
                                self.monitor,
                                RuleId::St2CondSnapshot,
                                now,
                                Detail::PhantomWaiter { pid },
                            )
                            .with_pid(pid)
                            .with_event(event.seq),
                        ),
                    }
                } else {
                    self.admit_entry_head(now);
                }
            }
            EventKind::Terminate => {
                out.push(
                    Violation::new(
                        self.monitor,
                        RuleId::St5InsideTimeout,
                        now,
                        Detail::TerminatedInside { pid },
                    )
                    .with_pid(pid)
                    .with_event(event.seq)
                    .with_fault(FaultKind::InternalTermination),
                );
                // The dead owner will never release: remove it from the
                // replayed lists so checkpoints mirror observed reality.
                if self.remove_running(pid).is_some() {
                    self.timers.remove(&pid);
                }
            }
        }

        // ST-3a: at any time at most one process is inside the monitor.
        if self.running.len() > 1 {
            let fault = match event.kind {
                EventKind::Enter { .. } => FaultKind::EnterMutualExclusion,
                EventKind::Wait { .. } => FaultKind::WaitMutualExclusion,
                EventKind::SignalExit { .. } => FaultKind::SignalExitMutualExclusion,
                EventKind::Terminate => FaultKind::InternalTermination,
            };
            out.push(
                Violation::new(
                    self.monitor,
                    RuleId::St3RunningAtMostOne,
                    now,
                    Detail::RunningCrowded { inside: self.running.len() },
                )
                .with_event(event.seq)
                .with_fault(fault),
            );
        }
    }

    /// ST-3b: the process performing `Wait`/`Signal-Exit` must be the
    /// unique running process.
    fn check_caller_running(
        &self,
        event: &Event,
        crowd_fault: FaultKind,
        out: &mut Vec<Violation>,
    ) {
        let pid = event.pid;
        let caller_inside = self.running.iter().any(|pp| pp.pid == pid);
        if self.running.len() == 1 && caller_inside {
            return;
        }
        let fault = if caller_inside { crowd_fault } else { FaultKind::EnterNotObserved };
        out.push(
            Violation::new(
                self.monitor,
                RuleId::St3RunningIsCaller,
                event.time,
                Detail::CallerNotRunning {
                    pid,
                    kind: event.kind,
                    running: self.running.as_slice().into(),
                },
            )
            .with_pid(pid)
            .with_event(event.seq)
            .with_fault(fault),
        );
    }

    /// ST-5 / ST-6 timer checks at a checkpoint.
    pub fn check_timers(&self, cfg: &DetectorConfig, now: Nanos, out: &mut Vec<Violation>) {
        for pp in &self.enter_q {
            if let Some(&since) = self.timers.get(&pp.pid) {
                if now.saturating_since(since) > cfg.t_io {
                    out.push(
                        Violation::new(
                            self.monitor,
                            RuleId::St6EntryTimeout,
                            now,
                            format!(
                                "{} has waited on the entry queue for {} (Tio = {})",
                                pp.pid,
                                now.saturating_since(since),
                                cfg.t_io
                            ),
                        )
                        .with_pid(pp.pid),
                    );
                }
            }
        }
        for pp in &self.running {
            if let Some(&since) = self.timers.get(&pp.pid) {
                if now.saturating_since(since) > cfg.t_max {
                    out.push(
                        Violation::new(
                            self.monitor,
                            RuleId::St5InsideTimeout,
                            now,
                            format!(
                                "{} has been running inside the monitor for {} (Tmax = {})",
                                pp.pid,
                                now.saturating_since(since),
                                cfg.t_max
                            ),
                        )
                        .with_pid(pp.pid)
                        .with_fault(FaultKind::InternalTermination),
                    );
                }
            }
        }
        for q in &self.wait_cond {
            for pp in q {
                if let Some(&since) = self.timers.get(&pp.pid) {
                    if now.saturating_since(since) > cfg.t_max {
                        out.push(
                            Violation::new(
                                self.monitor,
                                RuleId::St5InsideTimeout,
                                now,
                                format!(
                                    "{} has waited on a condition queue for {} (Tmax = {})",
                                    pp.pid,
                                    now.saturating_since(since),
                                    cfg.t_max
                                ),
                            )
                            .with_pid(pp.pid)
                            .with_fault(FaultKind::SignalExitNotResumed),
                        );
                    }
                }
            }
        }
    }

    /// ST-1 / ST-2 / running-snapshot comparison at a checkpoint: the
    /// replayed lists must equal the observed state `s_t`.
    pub fn compare_snapshot(&self, observed: &MonitorState, now: Nanos, out: &mut Vec<Violation>) {
        let replayed_eq: Vec<PidProc> = self.enter_q.iter().copied().collect();
        if replayed_eq != observed.entry_queue {
            out.push(Violation::new(
                self.monitor,
                RuleId::St1EntrySnapshot,
                now,
                format!(
                    "replayed Enter-Q-List {:?} differs from observed EQ {:?}",
                    replayed_eq, observed.entry_queue
                ),
            ));
        }
        let conds = self.wait_cond.len().max(observed.cond_queues.len());
        for c in 0..conds {
            let replayed: Vec<PidProc> =
                self.wait_cond.get(c).map(|q| q.iter().copied().collect()).unwrap_or_default();
            let obs = observed.cond_queues.get(c).cloned().unwrap_or_default();
            if replayed != obs {
                out.push(Violation::new(
                    self.monitor,
                    RuleId::St2CondSnapshot,
                    now,
                    format!(
                        "replayed Wait-Cond-List[{c}] {replayed:?} differs from observed \
                         CQ[{c}] {obs:?}"
                    ),
                ));
            }
        }
        if self.running != observed.running {
            out.push(Violation::new(
                self.monitor,
                RuleId::St1EntrySnapshot,
                now,
                format!(
                    "replayed Running-List {:?} differs from observed Running {:?}",
                    self.running, observed.running
                ),
            ));
        }
        if observed.running.len() > 1 {
            out.push(
                Violation::new(
                    self.monitor,
                    RuleId::St3RunningAtMostOne,
                    now,
                    format!(
                        "observed snapshot shows {} processes inside the monitor",
                        observed.running.len()
                    ),
                )
                .with_fault(FaultKind::EnterMutualExclusion),
            );
        }
    }

    /// Re-bases the lists on an observed snapshot (after reporting a
    /// checkpoint). Timers of processes that remain in the *same* list
    /// are preserved, so long-running starvation keeps accumulating;
    /// everything else restarts at `now`.
    pub fn resync(&mut self, observed: &MonitorState, now: Nanos) {
        let mut timers = HashMap::new();
        let carry = |pid: Pid, was_here: bool, timers: &mut HashMap<Pid, Nanos>| {
            let t = if was_here { self.timers.get(&pid).copied().unwrap_or(now) } else { now };
            timers.insert(pid, t);
        };
        for pp in &observed.entry_queue {
            carry(pp.pid, self.in_enter_q(pp.pid), &mut timers);
        }
        for (c, q) in observed.cond_queues.iter().enumerate() {
            for pp in q {
                let was =
                    self.wait_cond.get(c).is_some_and(|rq| rq.iter().any(|x| x.pid == pp.pid));
                carry(pp.pid, was, &mut timers);
            }
        }
        for pp in &observed.running {
            let was = self.running.iter().any(|x| x.pid == pp.pid);
            carry(pp.pid, was, &mut timers);
        }
        self.enter_q = observed.entry_queue.iter().copied().collect();
        let conds = self.wait_cond.len().max(observed.cond_queues.len());
        self.wait_cond = (0..conds)
            .map(|c| {
                observed.cond_queues.get(c).map(|q| q.iter().copied().collect()).unwrap_or_default()
            })
            .collect();
        self.running = observed.running.clone();
        self.timers = timers;
    }
}

/// Resource-No and the `r`/`s` success counters of Algorithm-2
/// (communication-coordinator monitors only).
#[derive(Debug, Clone)]
pub struct ResourceState {
    monitor: MonitorId,
    /// Free capacity (`Resource-No`); signed so faulty histories can
    /// drive it out of range without wrapping.
    resource_no: i64,
    /// Capacity `Rmax`.
    rmax: i64,
    /// Cumulative successful sends (`s`).
    s_total: u64,
    /// Cumulative successful receives (`r`).
    r_total: u64,
    /// Window counters for the ST-7b checkpoint equation.
    s_window: u64,
    r_window: u64,
}

impl ResourceState {
    /// Initial state for a coordinator with capacity `rmax` and
    /// initially `available` free slots.
    pub fn new(monitor: MonitorId, rmax: u64, available: u64) -> Self {
        ResourceState {
            monitor,
            resource_no: available as i64,
            rmax: rmax as i64,
            s_total: 0,
            r_total: 0,
            s_window: 0,
            r_window: 0,
        }
    }

    /// Current Resource-No (free capacity).
    pub fn resource_no(&self) -> i64 {
        self.resource_no
    }

    /// Cumulative successful `(r, s)` counts.
    pub fn counts(&self) -> (u64, u64) {
        (self.r_total, self.s_total)
    }

    /// Replays one event (ST-7 checks).
    pub fn apply(&mut self, spec: &MonitorSpec, event: &Event, out: &mut Vec<Violation>) {
        if spec.class != MonitorClass::CommunicationCoordinator {
            return;
        }
        let role = spec.proc_role(event.proc_name);
        match event.kind {
            EventKind::Wait { cond } => {
                let cond_role = spec.cond_role(cond);
                // ST-7c: a sender may be delayed only when the buffer is
                // full (no free capacity).
                if role == ProcRole::Send
                    && cond_role == CondRole::BufferFull
                    && self.resource_no != 0
                {
                    out.push(
                        Violation::new(
                            self.monitor,
                            RuleId::St7WaitSendBufferFull,
                            event.time,
                            Detail::SendDelayed { pid: event.pid, resource_no: self.resource_no },
                        )
                        .with_pid(event.pid)
                        .with_event(event.seq)
                        .with_fault(FaultKind::SendDelayViolation),
                    );
                }
                // ST-7d: a receiver may be delayed only when the buffer
                // is empty (all capacity free).
                if role == ProcRole::Receive
                    && cond_role == CondRole::BufferEmpty
                    && self.resource_no != self.rmax
                {
                    out.push(
                        Violation::new(
                            self.monitor,
                            RuleId::St7WaitReceiveBufferEmpty,
                            event.time,
                            Detail::ReceiveDelayed {
                                pid: event.pid,
                                resource_no: self.resource_no,
                                rmax: self.rmax,
                            },
                        )
                        .with_pid(event.pid)
                        .with_event(event.seq)
                        .with_fault(FaultKind::ReceiveDelayViolation),
                    );
                }
            }
            EventKind::SignalExit { .. } => {
                // A Send/Receive completes (is "successful") when the
                // process exits the monitor through Signal-Exit.
                match role {
                    ProcRole::Send => {
                        self.s_total += 1;
                        self.s_window += 1;
                        self.resource_no -= 1;
                    }
                    ProcRole::Receive => {
                        self.r_total += 1;
                        self.r_window += 1;
                        self.resource_no += 1;
                    }
                    _ => {}
                }
                self.check_count_invariant(event.time, Some(event.seq), out);
            }
            _ => {}
        }
    }

    /// ST-7a: `0 ≤ r ≤ s ≤ r + Rmax`.
    fn check_count_invariant(&self, now: Nanos, seq: Option<u64>, out: &mut Vec<Violation>) {
        if self.r_total > self.s_total {
            let mut v = Violation::new(
                self.monitor,
                RuleId::St7CountInvariant,
                now,
                Detail::ReceivesExceedSends { r: self.r_total, s: self.s_total },
            )
            .with_fault(FaultKind::ReceiveExceedsSend);
            if let Some(s) = seq {
                v = v.with_event(s);
            }
            out.push(v);
        }
        if (self.s_total as i64) > (self.r_total as i64) + self.rmax {
            let mut v = Violation::new(
                self.monitor,
                RuleId::St7CountInvariant,
                now,
                Detail::SendsExceedCapacity { s: self.s_total, r: self.r_total, rmax: self.rmax },
            )
            .with_fault(FaultKind::SendExceedsCapacity);
            if let Some(s) = seq {
                v = v.with_event(s);
            }
            out.push(v);
        }
    }

    /// ST-7b at a checkpoint: the observed free capacity must equal the
    /// replayed `R#(p) + r − s`.
    pub fn compare_snapshot(&self, observed: &MonitorState, now: Nanos, out: &mut Vec<Violation>) {
        if let Some(avail) = observed.available {
            if avail as i64 != self.resource_no {
                out.push(Violation::new(
                    self.monitor,
                    RuleId::St7CountInvariant,
                    now,
                    format!(
                        "observed R# = {avail} differs from replayed Resource-No = {} \
                         (window r = {}, s = {})",
                        self.resource_no, self.r_window, self.s_window
                    ),
                ));
            }
        }
    }

    /// Re-bases on an observed snapshot and starts a new window.
    pub fn resync(&mut self, observed: &MonitorState) {
        if let Some(avail) = observed.available {
            self.resource_no = avail as i64;
        }
        self.s_window = 0;
        self.r_window = 0;
    }
}

/// The Request-List and path-expression call-order trackers of
/// Algorithm-3 (resource-access-right-allocator monitors; user-process
/// level faults are checked in real time).
#[derive(Debug, Clone)]
pub struct OrderState {
    monitor: MonitorId,
    /// Processes currently holding (or awaiting) an access right, with
    /// acquisition time: the paper's Request-List.
    request_list: Vec<(Pid, Nanos)>,
    compiled: Option<CompiledPath>,
    /// Each calling process's state in `compiled`.
    order_states: HashMap<Pid, u32>,
}

impl OrderState {
    /// Builds the order state for a monitor, compiling its declared
    /// call-order path expression if it has one.
    ///
    /// A path expression that does not compile — it names undeclared
    /// procedures, or needs more than [`CompiledPath::MAX_STATES`]
    /// states — is ignored (the spec constructors reject both through
    /// the analyzer, as `RML010` and `RML016`; hand-built specs fail
    /// softly).
    pub fn new(monitor: MonitorId, spec: &MonitorSpec) -> Self {
        let compiled =
            spec.call_order.as_ref().and_then(|p| p.compile(|name| spec.proc_by_name(name)).ok());
        OrderState { monitor, request_list: Vec::new(), compiled, order_states: HashMap::new() }
    }

    /// The compiled call order this monitor checks, if it declares one
    /// that compiles.
    pub fn call_order(&self) -> Option<&CompiledPath> {
        self.compiled.as_ref()
    }

    /// The monitor this state belongs to.
    pub fn monitor(&self) -> MonitorId {
        self.monitor
    }

    /// The current Request-List.
    pub fn request_list(&self) -> &[(Pid, Nanos)] {
        &self.request_list
    }

    fn holds(&self, pid: Pid) -> bool {
        self.request_list.iter().any(|(p, _)| *p == pid)
    }

    /// Applies one event (real-time checks ST-8a/b and the generalized
    /// path-expression order ST-8*). An ST-8* verdict keeps a handle on
    /// `spec` to name the procedure and the call order when rendered.
    pub fn apply(&mut self, spec: &Arc<MonitorSpec>, event: &Event, out: &mut Vec<Violation>) {
        let pid = event.pid;
        let role = spec.proc_role(event.proc_name);
        match event.kind {
            EventKind::Enter { .. } => {
                // Generalized call-order check on every call attempt.
                if let Some(compiled) = &self.compiled {
                    let state = self.order_states.entry(pid).or_insert(compiled.start());
                    if let Some(next) = compiled.step(*state, event.proc_name) {
                        *state = next;
                    } else {
                        let fault = match role {
                            ProcRole::Request => Some(FaultKind::DoubleAcquire),
                            ProcRole::Release => Some(FaultKind::ReleaseWithoutAcquire),
                            _ => None,
                        };
                        let mut v = Violation::new(
                            self.monitor,
                            RuleId::St8CallOrder,
                            event.time,
                            Detail::CallOrder {
                                pid,
                                proc_name: event.proc_name,
                                spec: Arc::clone(spec),
                            },
                        )
                        .with_pid(pid)
                        .with_event(event.seq);
                        if let Some(f) = fault {
                            v = v.with_fault(f);
                        }
                        out.push(v);
                    }
                }
                match role {
                    ProcRole::Request => {
                        // ST-8a: no process may appear twice.
                        if self.holds(pid) {
                            out.push(
                                Violation::new(
                                    self.monitor,
                                    RuleId::St8DuplicateRequest,
                                    event.time,
                                    Detail::DuplicateRequest { pid },
                                )
                                .with_pid(pid)
                                .with_event(event.seq)
                                .with_fault(FaultKind::DoubleAcquire),
                            );
                        } else {
                            self.request_list.push((pid, event.time));
                        }
                    }
                    // ST-8b: a releasing process must hold a right.
                    ProcRole::Release if !self.holds(pid) => {
                        out.push(
                            Violation::new(
                                self.monitor,
                                RuleId::St8ReleaseWithoutRequest,
                                event.time,
                                Detail::ReleaseWithoutRequest { pid },
                            )
                            .with_pid(pid)
                            .with_event(event.seq)
                            .with_fault(FaultKind::ReleaseWithoutAcquire),
                        );
                    }
                    _ => {}
                }
            }
            EventKind::SignalExit { .. } if role == ProcRole::Release => {
                // Removal happens at the *successful* completion of
                // Release.
                if let Some(idx) = self.request_list.iter().position(|(p, _)| *p == pid) {
                    self.request_list.remove(idx);
                }
            }
            _ => {}
        }
    }

    /// Frees a terminated caller's declared-call-order state so
    /// long-running detectors don't accumulate state for
    /// every process that ever called. The Request-List entry, if any,
    /// is deliberately **kept**: a process that died holding an access
    /// right must keep tripping the ST-8c hold timer until recovery
    /// intervenes.
    pub fn forget_caller(&mut self, pid: Pid) {
        self.order_states.remove(&pid);
    }

    /// Non-mutating lookahead: would an `Enter` of `proc_name` by
    /// `pid` violate ST-8 right now? Used by runtimes that *prevent*
    /// faulty calls instead of merely reporting them.
    pub fn would_violate(
        &self,
        spec: &MonitorSpec,
        pid: Pid,
        proc_name: ProcName,
    ) -> Option<RuleId> {
        match spec.proc_role(proc_name) {
            ProcRole::Request if self.holds(pid) => return Some(RuleId::St8DuplicateRequest),
            ProcRole::Release if !self.holds(pid) => return Some(RuleId::St8ReleaseWithoutRequest),
            _ => {}
        }
        if let Some(compiled) = &self.compiled {
            let state = self.order_states.get(&pid).copied().unwrap_or(compiled.start());
            if compiled.step(state, proc_name).is_none() {
                return Some(RuleId::St8CallOrder);
            }
        }
        None
    }

    /// ST-8c at a checkpoint: no process may stay in the Request-List
    /// longer than `Tlimit`.
    pub fn check_hold_timeout(&self, cfg: &DetectorConfig, now: Nanos, out: &mut Vec<Violation>) {
        for &(pid, since) in &self.request_list {
            if now.saturating_since(since) > cfg.t_limit {
                out.push(
                    Violation::new(
                        self.monitor,
                        RuleId::St8HoldTimeout,
                        now,
                        format!(
                            "{pid} has held an access right for {} (Tlimit = {})",
                            now.saturating_since(since),
                            cfg.t_limit
                        ),
                    )
                    .with_pid(pid)
                    .with_fault(FaultKind::ResourceNeverReleased),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{CondId, ProcName};
    use crate::spec::MonitorSpec;

    const M: MonitorId = MonitorId::new(0);

    fn pp(p: u32, pr: u16) -> PidProc {
        PidProc::new(Pid::new(p), ProcName::new(pr))
    }

    struct Seq {
        n: u64,
        t: u64,
    }

    impl Seq {
        fn new() -> Self {
            Seq { n: 0, t: 0 }
        }
        fn next(&mut self) -> (u64, Nanos) {
            self.n += 1;
            self.t += 10;
            (self.n, Nanos::new(self.t))
        }
        fn enter(&mut self, p: u32, pr: u16, granted: bool) -> Event {
            let (s, t) = self.next();
            Event::enter(s, t, M, Pid::new(p), ProcName::new(pr), granted)
        }
        fn wait(&mut self, p: u32, pr: u16, c: u16) -> Event {
            let (s, t) = self.next();
            Event::wait(s, t, M, Pid::new(p), ProcName::new(pr), CondId::new(c))
        }
        fn exit(&mut self, p: u32, pr: u16, c: Option<u16>, resumed: bool) -> Event {
            let (s, t) = self.next();
            Event::signal_exit(s, t, M, Pid::new(p), ProcName::new(pr), c.map(CondId::new), resumed)
        }
        fn terminate(&mut self, p: u32, pr: u16) -> Event {
            let (s, t) = self.next();
            Event::terminate(s, t, M, Pid::new(p), ProcName::new(pr))
        }
    }

    fn buf_spec() -> MonitorSpec {
        MonitorSpec::bounded_buffer("buf", 2).spec
    }

    fn alloc_spec() -> Arc<MonitorSpec> {
        Arc::new(MonitorSpec::allocator("res", 1).spec)
    }

    fn apply_all(lists: &mut GeneralLists, spec: &MonitorSpec, events: &[Event]) -> Vec<Violation> {
        let mut out = Vec::new();
        for e in events {
            lists.apply(spec, e, &mut out);
        }
        out
    }

    // ----- GeneralLists -------------------------------------------------

    #[test]
    fn correct_enter_exit_sequence_is_clean() {
        let spec = buf_spec();
        let mut s = Seq::new();
        let events = vec![
            s.enter(1, 0, true),
            s.exit(1, 0, Some(1), false),
            s.enter(2, 1, true),
            s.exit(2, 1, Some(0), false),
        ];
        let mut lists = GeneralLists::new(M, 2);
        let v = apply_all(&mut lists, &spec, &events);
        assert!(v.is_empty(), "{v:?}");
        assert!(lists.running().is_empty());
        assert!(lists.enter_q().is_empty());
    }

    #[test]
    fn blocked_enter_then_handoff_on_exit() {
        let spec = buf_spec();
        let mut s = Seq::new();
        let events = vec![
            s.enter(1, 0, true),
            s.enter(2, 1, false),         // blocked behind P1
            s.exit(1, 0, Some(1), false), // P2 admitted
            s.exit(2, 1, Some(0), false),
        ];
        let mut lists = GeneralLists::new(M, 2);
        let v = apply_all(&mut lists, &spec, &events);
        assert!(v.is_empty(), "{v:?}");
        assert!(lists.running().is_empty());
    }

    #[test]
    fn wait_moves_to_cond_and_admits_entry_head() {
        let spec = buf_spec();
        let mut s = Seq::new();
        let mut lists = GeneralLists::new(M, 2);
        let v = apply_all(
            &mut lists,
            &spec,
            &[
                s.enter(1, 1, true),  // receiver enters
                s.enter(2, 0, false), // sender blocked
                s.wait(1, 1, 1),      // receiver waits on empty; sender admitted
            ],
        );
        assert!(v.is_empty(), "{v:?}");
        assert_eq!(lists.running(), &[pp(2, 0)]);
        assert_eq!(lists.wait_cond()[1].front(), Some(&pp(1, 1)));
    }

    #[test]
    fn signal_exit_resumes_cond_waiter() {
        let spec = buf_spec();
        let mut s = Seq::new();
        let mut lists = GeneralLists::new(M, 2);
        let v = apply_all(
            &mut lists,
            &spec,
            &[
                s.enter(1, 1, true),
                s.wait(1, 1, 1),              // receiver waits on empty
                s.enter(2, 0, true),          // sender enters (monitor free)
                s.exit(2, 0, Some(1), true),  // sender signals empty → P1 resumed
                s.exit(1, 1, Some(0), false), // receiver finishes
            ],
        );
        assert!(v.is_empty(), "{v:?}");
        assert!(lists.running().is_empty());
    }

    #[test]
    fn double_grant_violates_st3() {
        let spec = buf_spec();
        let mut s = Seq::new();
        let mut lists = GeneralLists::new(M, 2);
        let v = apply_all(&mut lists, &spec, &[s.enter(1, 0, true), s.enter(2, 1, true)]);
        assert!(v.iter().any(|v| v.rule == RuleId::St3RunningUnique));
        assert!(v.iter().any(|v| v.rule == RuleId::St3RunningAtMostOne));
        assert!(v.iter().any(|v| v.fault == Some(FaultKind::EnterMutualExclusion)));
    }

    #[test]
    fn blocked_while_free_violates_st3d() {
        let spec = buf_spec();
        let mut s = Seq::new();
        let mut lists = GeneralLists::new(M, 2);
        let v = apply_all(&mut lists, &spec, &[s.enter(1, 0, false)]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, RuleId::St3BlockedWhileFree);
        assert_eq!(v[0].fault, Some(FaultKind::EnterNoResponse));
    }

    #[test]
    fn exit_without_enter_violates_st3b() {
        let spec = buf_spec();
        let mut s = Seq::new();
        let mut lists = GeneralLists::new(M, 2);
        let v = apply_all(&mut lists, &spec, &[s.exit(1, 0, Some(1), false)]);
        assert!(v.iter().any(|v| v.rule == RuleId::St3RunningIsCaller
            && v.fault == Some(FaultKind::EnterNotObserved)));
    }

    #[test]
    fn ghost_event_from_entry_queue_violates_st4() {
        let spec = buf_spec();
        let mut s = Seq::new();
        let mut lists = GeneralLists::new(M, 2);
        let v = apply_all(
            &mut lists,
            &spec,
            &[
                s.enter(1, 0, true),
                s.enter(2, 1, false),         // P2 parked on EQ
                s.exit(2, 1, Some(0), false), // … yet issues an exit
            ],
        );
        assert!(v.iter().any(|v| v.rule == RuleId::St4NoGhostEvents));
    }

    #[test]
    fn ghost_event_from_cond_queue_diagnoses_wait_not_blocked() {
        let spec = buf_spec();
        let mut s = Seq::new();
        let mut lists = GeneralLists::new(M, 2);
        let v = apply_all(
            &mut lists,
            &spec,
            &[
                s.enter(1, 0, true),
                s.wait(1, 0, 0),              // P1 waits on full
                s.exit(1, 0, Some(1), false), // … yet continues to exit
            ],
        );
        assert!(v
            .iter()
            .any(|v| v.rule == RuleId::St4NoGhostEvents
                && v.fault == Some(FaultKind::WaitNotBlocked)));
    }

    #[test]
    fn signal_claiming_phantom_waiter_is_flagged() {
        let spec = buf_spec();
        let mut s = Seq::new();
        let mut lists = GeneralLists::new(M, 2);
        let v = apply_all(&mut lists, &spec, &[s.enter(1, 0, true), s.exit(1, 0, Some(1), true)]);
        assert!(v.iter().any(|v| v.rule == RuleId::St2CondSnapshot));
    }

    #[test]
    fn terminate_inside_reports_immediately() {
        let spec = buf_spec();
        let mut s = Seq::new();
        let mut lists = GeneralLists::new(M, 2);
        let v = apply_all(&mut lists, &spec, &[s.enter(1, 0, true), s.terminate(1, 0)]);
        assert!(v.iter().any(|v| v.rule == RuleId::St5InsideTimeout
            && v.fault == Some(FaultKind::InternalTermination)));
        assert!(lists.running().is_empty());
    }

    #[test]
    fn entry_timeout_fires_after_tio() {
        let spec = buf_spec();
        let mut s = Seq::new();
        let mut lists = GeneralLists::new(M, 2);
        let _ = apply_all(&mut lists, &spec, &[s.enter(1, 0, true), s.enter(2, 1, false)]);
        let cfg = DetectorConfig::builder()
            .t_io(Nanos::from_millis(1))
            .t_max(Nanos::from_secs(10))
            .build();
        let mut out = Vec::new();
        lists.check_timers(&cfg, Nanos::from_millis(100), &mut out);
        assert!(out
            .iter()
            .any(|v| v.rule == RuleId::St6EntryTimeout && v.pid == Some(Pid::new(2))));
        // Running P1 is within Tmax: no ST-5.
        assert!(!out.iter().any(|v| v.rule == RuleId::St5InsideTimeout));
    }

    #[test]
    fn inside_timeout_fires_after_tmax() {
        let spec = buf_spec();
        let mut s = Seq::new();
        let mut lists = GeneralLists::new(M, 2);
        let _ = apply_all(&mut lists, &spec, &[s.enter(1, 0, true)]);
        let cfg = DetectorConfig::builder()
            .t_max(Nanos::from_millis(1))
            .t_io(Nanos::from_secs(10))
            .build();
        let mut out = Vec::new();
        lists.check_timers(&cfg, Nanos::from_millis(100), &mut out);
        assert!(out
            .iter()
            .any(|v| v.rule == RuleId::St5InsideTimeout && v.pid == Some(Pid::new(1))));
    }

    #[test]
    fn cond_wait_timeout_fires_after_tmax() {
        let spec = buf_spec();
        let mut s = Seq::new();
        let mut lists = GeneralLists::new(M, 2);
        let _ = apply_all(&mut lists, &spec, &[s.enter(1, 0, true), s.wait(1, 0, 0)]);
        let cfg = DetectorConfig::builder()
            .t_max(Nanos::from_millis(1))
            .t_io(Nanos::from_secs(10))
            .build();
        let mut out = Vec::new();
        lists.check_timers(&cfg, Nanos::from_millis(100), &mut out);
        assert!(out.iter().any(|v| v.rule == RuleId::St5InsideTimeout
            && v.fault == Some(FaultKind::SignalExitNotResumed)));
    }

    #[test]
    fn snapshot_mismatch_detected_and_resync_heals() {
        let spec = buf_spec();
        let mut s = Seq::new();
        let mut lists = GeneralLists::new(M, 2);
        // Replay thinks P2 is on the entry queue …
        let _ = apply_all(&mut lists, &spec, &[s.enter(1, 0, true), s.enter(2, 1, false)]);
        // … but the observed snapshot lost it (fault E2).
        let mut observed = MonitorState::new(2);
        observed.running.push(pp(1, 0));
        let mut out = Vec::new();
        lists.compare_snapshot(&observed, Nanos::from_millis(1), &mut out);
        assert!(out.iter().any(|v| v.rule == RuleId::St1EntrySnapshot));
        lists.resync(&observed, Nanos::from_millis(1));
        let mut out2 = Vec::new();
        lists.compare_snapshot(&observed, Nanos::from_millis(2), &mut out2);
        assert!(out2.is_empty(), "{out2:?}");
    }

    #[test]
    fn snapshot_with_two_running_reports_mutex_violation() {
        let lists = GeneralLists::new(M, 2);
        let mut observed = MonitorState::new(2);
        observed.running.push(pp(1, 0));
        observed.running.push(pp(2, 1));
        let mut out = Vec::new();
        lists.compare_snapshot(&observed, Nanos::ZERO, &mut out);
        assert!(out.iter().any(|v| v.rule == RuleId::St3RunningAtMostOne));
    }

    #[test]
    fn resync_preserves_timer_for_still_queued_process() {
        let spec = buf_spec();
        let mut s = Seq::new();
        let mut lists = GeneralLists::new(M, 2);
        let _ = apply_all(&mut lists, &spec, &[s.enter(1, 0, true), s.enter(2, 1, false)]);
        let t_start = lists.timer(Pid::new(2)).unwrap();
        let mut observed = MonitorState::new(2);
        observed.running.push(pp(1, 0));
        observed.entry_queue.push(pp(2, 1));
        lists.resync(&observed, Nanos::from_millis(50));
        assert_eq!(lists.timer(Pid::new(2)), Some(t_start), "timer must carry over");
        assert_eq!(lists.timer(Pid::new(1)), Some(Nanos::new(10)));
    }

    #[test]
    fn from_state_initializes_all_lists() {
        let mut observed = MonitorState::new(1);
        observed.entry_queue.push(pp(1, 0));
        observed.cond_queues[0].push(pp(2, 1));
        observed.running.push(pp(3, 0));
        let lists = GeneralLists::from_state(M, 1, &observed, Nanos::new(7));
        assert_eq!(lists.enter_q().front(), Some(&pp(1, 0)));
        assert_eq!(lists.wait_cond()[0].front(), Some(&pp(2, 1)));
        assert_eq!(lists.running(), &[pp(3, 0)]);
        assert_eq!(lists.timer(Pid::new(1)), Some(Nanos::new(7)));
    }

    // ----- ResourceState ------------------------------------------------

    #[test]
    fn send_receive_bookkeeping() {
        let spec = buf_spec();
        let mut s = Seq::new();
        let mut rs = ResourceState::new(M, 2, 2);
        let mut out = Vec::new();
        // send completes: one slot consumed.
        for e in [s.enter(1, 0, true), s.exit(1, 0, Some(1), false)] {
            rs.apply(&spec, &e, &mut out);
        }
        assert_eq!(rs.resource_no(), 1);
        assert_eq!(rs.counts(), (0, 1));
        // receive completes: slot freed.
        for e in [s.enter(2, 1, true), s.exit(2, 1, Some(0), false)] {
            rs.apply(&spec, &e, &mut out);
        }
        assert_eq!(rs.resource_no(), 2);
        assert_eq!(rs.counts(), (1, 1));
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn receive_from_empty_violates_st7a() {
        let spec = buf_spec();
        let mut s = Seq::new();
        let mut rs = ResourceState::new(M, 2, 2);
        let mut out = Vec::new();
        for e in [s.enter(1, 1, true), s.exit(1, 1, Some(0), false)] {
            rs.apply(&spec, &e, &mut out);
        }
        assert!(out.iter().any(|v| v.rule == RuleId::St7CountInvariant
            && v.fault == Some(FaultKind::ReceiveExceedsSend)));
    }

    #[test]
    fn overfilling_buffer_violates_st7a() {
        let spec = buf_spec();
        let mut s = Seq::new();
        let mut rs = ResourceState::new(M, 2, 2);
        let mut out = Vec::new();
        for _ in 0..3 {
            let e1 = s.enter(1, 0, true);
            let e2 = s.exit(1, 0, Some(1), false);
            rs.apply(&spec, &e1, &mut out);
            rs.apply(&spec, &e2, &mut out);
        }
        assert!(out.iter().any(|v| v.rule == RuleId::St7CountInvariant
            && v.fault == Some(FaultKind::SendExceedsCapacity)));
    }

    #[test]
    fn sender_delayed_on_nonfull_buffer_violates_st7c() {
        let spec = buf_spec();
        let mut s = Seq::new();
        let mut rs = ResourceState::new(M, 2, 2);
        let mut out = Vec::new();
        let e1 = s.enter(1, 0, true);
        let w = s.wait(1, 0, 0); // waits on buffer_full while 2 slots free
        rs.apply(&spec, &e1, &mut out);
        rs.apply(&spec, &w, &mut out);
        assert!(out.iter().any(|v| v.rule == RuleId::St7WaitSendBufferFull
            && v.fault == Some(FaultKind::SendDelayViolation)));
    }

    #[test]
    fn receiver_delayed_on_nonempty_buffer_violates_st7d() {
        let spec = buf_spec();
        let mut s = Seq::new();
        let mut rs = ResourceState::new(M, 2, 1); // one item present
        let mut out = Vec::new();
        let e1 = s.enter(1, 1, true);
        let w = s.wait(1, 1, 1); // waits on buffer_empty though an item exists
        rs.apply(&spec, &e1, &mut out);
        rs.apply(&spec, &w, &mut out);
        assert!(out.iter().any(|v| v.rule == RuleId::St7WaitReceiveBufferEmpty
            && v.fault == Some(FaultKind::ReceiveDelayViolation)));
    }

    #[test]
    fn legit_sender_delay_on_full_buffer_is_clean() {
        let spec = buf_spec();
        let mut s = Seq::new();
        let mut rs = ResourceState::new(M, 2, 0); // buffer full
        let mut out = Vec::new();
        let e1 = s.enter(1, 0, true);
        let w = s.wait(1, 0, 0);
        rs.apply(&spec, &e1, &mut out);
        rs.apply(&spec, &w, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn snapshot_resource_mismatch_detected() {
        let rs = ResourceState::new(M, 2, 2);
        let observed = MonitorState::with_resources(2, 0);
        let mut out = Vec::new();
        rs.compare_snapshot(&observed, Nanos::ZERO, &mut out);
        assert!(out.iter().any(|v| v.rule == RuleId::St7CountInvariant));
        let mut rs2 = rs.clone();
        rs2.resync(&observed);
        assert_eq!(rs2.resource_no(), 0);
    }

    #[test]
    fn non_coordinator_is_ignored() {
        let spec = alloc_spec();
        let mut s = Seq::new();
        let mut rs = ResourceState::new(M, 1, 1);
        let mut out = Vec::new();
        let e = s.enter(1, 0, true);
        rs.apply(&spec, &e, &mut out);
        assert!(out.is_empty());
        assert_eq!(rs.counts(), (0, 0));
    }

    // ----- OrderState -----------------------------------------------------

    #[test]
    fn correct_request_release_cycle_is_clean() {
        let spec = alloc_spec();
        let mut s = Seq::new();
        let mut os = OrderState::new(M, &spec);
        let mut out = Vec::new();
        for e in [
            s.enter(1, 0, true), // request
            s.exit(1, 0, None, false),
            s.enter(1, 1, true), // release
            s.exit(1, 1, Some(0), false),
        ] {
            os.apply(&spec, &e, &mut out);
        }
        assert!(out.is_empty(), "{out:?}");
        assert!(os.request_list().is_empty());
    }

    #[test]
    fn release_without_request_violates_st8b_and_order() {
        let spec = alloc_spec();
        let mut s = Seq::new();
        let mut os = OrderState::new(M, &spec);
        let mut out = Vec::new();
        let e = s.enter(1, 1, true); // release first
        os.apply(&spec, &e, &mut out);
        assert!(out.iter().any(|v| v.rule == RuleId::St8ReleaseWithoutRequest));
        assert!(out
            .iter()
            .any(|v| v.rule == RuleId::St8CallOrder
                && v.fault == Some(FaultKind::ReleaseWithoutAcquire)));
    }

    #[test]
    fn double_request_violates_st8a_and_order() {
        let spec = alloc_spec();
        let mut s = Seq::new();
        let mut os = OrderState::new(M, &spec);
        let mut out = Vec::new();
        for e in [
            s.enter(1, 0, true),
            s.exit(1, 0, None, false),
            s.enter(1, 0, false), // requests again while holding
        ] {
            os.apply(&spec, &e, &mut out);
        }
        assert!(out.iter().any(|v| v.rule == RuleId::St8DuplicateRequest));
        assert!(out
            .iter()
            .any(|v| v.rule == RuleId::St8CallOrder && v.fault == Some(FaultKind::DoubleAcquire)));
    }

    #[test]
    fn enter_past_the_declared_procedures_is_a_call_order_violation() {
        // Wire and oplog events carry arbitrary procedure ids.
        let spec = alloc_spec();
        let mut s = Seq::new();
        let mut os = OrderState::new(M, &spec);
        let mut out = Vec::new();
        for bogus in [7, u16::MAX] {
            assert_eq!(
                os.would_violate(&spec, Pid::new(1), ProcName::new(bogus)),
                Some(RuleId::St8CallOrder)
            );
            os.apply(&spec, &s.enter(1, bogus, true), &mut out);
        }
        assert_eq!(out.iter().map(|v| v.rule).collect::<Vec<_>>(), [RuleId::St8CallOrder; 2]);
        // The caller's state is unchanged: its request is still in order.
        out.clear();
        os.apply(&spec, &s.enter(1, 0, true), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn hold_timeout_violates_st8c() {
        let spec = alloc_spec();
        let mut s = Seq::new();
        let mut os = OrderState::new(M, &spec);
        let mut out = Vec::new();
        let e = s.enter(1, 0, true);
        os.apply(&spec, &e, &mut out);
        let cfg = DetectorConfig::builder().t_limit(Nanos::from_millis(1)).build();
        os.check_hold_timeout(&cfg, Nanos::from_millis(100), &mut out);
        assert!(out.iter().any(|v| v.rule == RuleId::St8HoldTimeout
            && v.fault == Some(FaultKind::ResourceNeverReleased)));
    }

    #[test]
    fn hold_within_tlimit_is_clean() {
        let spec = alloc_spec();
        let mut s = Seq::new();
        let mut os = OrderState::new(M, &spec);
        let mut out = Vec::new();
        let e = s.enter(1, 0, true);
        os.apply(&spec, &e, &mut out);
        let cfg = DetectorConfig::builder().t_limit(Nanos::from_secs(1)).build();
        os.check_hold_timeout(&cfg, Nanos::from_millis(1), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn two_processes_interleave_requests_cleanly() {
        let spec = alloc_spec();
        let mut s = Seq::new();
        let mut os = OrderState::new(M, &spec);
        let mut out = Vec::new();
        for e in [
            s.enter(1, 0, true),
            s.exit(1, 0, None, false),
            s.enter(2, 0, true), // second unit? (allocator bookkeeping is per-pid)
            s.exit(2, 0, None, false),
            s.enter(2, 1, true),
            s.exit(2, 1, Some(0), false),
            s.enter(1, 1, true),
            s.exit(1, 1, Some(0), false),
        ] {
            os.apply(&spec, &e, &mut out);
        }
        assert!(out.is_empty(), "{out:?}");
        assert!(os.request_list().is_empty());
    }
}
