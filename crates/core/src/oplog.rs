//! Durable oplog interface: the journal sink, its writer and the
//! portable record codec.
//!
//! The paper's prototype keeps every recorded window and fault report in
//! memory — fine for an experiment, fatal for a fleet that should run
//! for weeks. This module defines the *interface* half of the durable
//! story: what a runtime streams out ([`JournalSink`]), the one writer
//! that orders and accounts for it ([`Journal`]), and the byte-exact
//! record encoding the stream uses. The *engine* half — append-only
//! segmented files, CRC framing, torn-tail recovery, rotation/retention
//! — lives in the `rmon-storage` crate, which implements the trait over
//! its on-disk oplog; `docs/STORAGE.md` specifies the format. Keeping
//! the trait here lets `rmon-rt` journal through `Arc<dyn JournalSink>`
//! without depending on any storage engine (tests use the in-memory
//! [`MemorySink`]).
//!
//! ## Record stream semantics
//!
//! A journal is a totally ordered sequence of [`Record`]s with a
//! **commit protocol**: [`Record::Checkpoint`] is the commit marker.
//! A runtime appends, per checkpoint barrier, `Events(window)` then
//! `Realtime(new verdicts)` then `Checkpoint { .. }` — in that order,
//! written by [`Journal::commit`] — so a crash anywhere mid-sequence
//! leaves a clean committed prefix: readers (see `rmon-storage`'s
//! replayer) discard trailing `Events` / `Realtime` records not
//! followed by a `Checkpoint`. [`Record::Epoch`]
//! marks a runtime (re)attaching to the journal after a restart:
//! sequence numbers and monitor ids restart from zero behind it, so a
//! replayer resets its detector state at each epoch boundary.
//!
//! The codec is hand-rolled little-endian binary and deliberately
//! simple: fixed-width integers, `u32`-length-prefixed strings and
//! vectors, one tag byte per enum. [`encode_record`] / [`decode_record`]
//! round-trip exactly; [`crc32`] is the IEEE checksum the storage layer
//! frames records with.

use crate::event::{Event, EventKind};
use crate::fault::FaultKind;
use crate::ids::{CondId, MonitorId, Pid, PidProc, ProcName};
use crate::rule::RuleId;
use crate::state::MonitorState;
use crate::time::Nanos;
use crate::vclock::VClock;
use crate::violation::{Detail, FaultReport, PredictedViolation, Violation};
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

// ---------------------------------------------------------------------
// The sink trait and the writer
// ---------------------------------------------------------------------

/// Receives a runtime's journal stream: epoch markers, monitor
/// registrations, drained event windows, real-time (Algorithm-3)
/// violations and checkpoint reports with their observed snapshots —
/// one totally ordered record stream.
///
/// Implementations must be safe to share across threads (the runtime
/// holds them in an `Arc`); appends happen at checkpoint barriers and
/// registration time, never on the per-event hot path. All methods
/// return `io::Result` so a durable implementation can surface disk
/// errors; [`Journal`] counts failures rather than panicking.
pub trait JournalSink: Send + Sync + fmt::Debug {
    /// Marks a runtime (re)attaching to the journal: event sequence
    /// numbers and monitor ids restart from zero after this record.
    fn append_epoch(&self, now: Nanos) -> io::Result<()>;

    /// Records a monitor registration. The journal stores the monitor's
    /// *name*; the declaration itself is code, re-supplied at replay
    /// time (see `rmon-storage`'s `SpecResolver`).
    fn append_register(&self, monitor: MonitorId, name: &str, now: Nanos) -> io::Result<()>;

    /// Appends one drained recorder window (events in global `seq`
    /// order). Part of a checkpoint commit sequence; not yet committed
    /// until the matching [`Self::append_checkpoint`] lands.
    fn append_events(&self, events: &[Event]) -> io::Result<()>;

    /// Appends real-time violations drained since the last checkpoint.
    /// Written between a window's `Events` record and its `Checkpoint`
    /// record, so the verdicts commit together with their events.
    fn append_realtime(&self, violations: &[Violation]) -> io::Result<()>;

    /// Appends the checkpoint commit marker: the checking time, the
    /// observed snapshots the Algorithm-1/2 comparison ran against, and
    /// the resulting report.
    fn append_checkpoint(
        &self,
        now: Nanos,
        snapshots: &HashMap<MonitorId, MonitorState>,
        report: &FaultReport,
    ) -> io::Result<()>;

    /// Flushes buffered appends to durable storage (fsync for a file
    /// engine). A no-op by default.
    fn sync(&self) -> io::Result<()> {
        Ok(())
    }
}

/// The one journal writer behind a runtime and a detection service: a
/// [`JournalSink`], the commit order and the failure accounting.
///
/// The journal is an observer, never a gate on detection: a failed
/// append is counted ([`Self::errors`]) and the first failure's kind
/// and message kept ([`Self::first_error`]); nothing blocks or panics.
#[derive(Debug)]
pub struct Journal {
    sink: Arc<dyn JournalSink>,
    errors: AtomicU64,
    first_error: OnceLock<(io::ErrorKind, String)>,
}

impl Journal {
    /// A writer over `sink`, with no failures counted yet.
    pub fn new(sink: Arc<dyn JournalSink>) -> Self {
        Journal { sink, errors: AtomicU64::new(0), first_error: OnceLock::new() }
    }

    /// Appends an `Epoch` record (see [`JournalSink::append_epoch`]).
    pub fn epoch(&self, now: Nanos) {
        self.try_append(self.sink.append_epoch(now));
    }

    /// Appends a `Register` record (see [`JournalSink::append_register`]).
    pub fn register(&self, monitor: MonitorId, name: &str, now: Nanos) {
        self.try_append(self.sink.append_register(monitor, name, now));
    }

    /// Appends an `Events` record; an empty window is elided (the
    /// replayer would stage nothing for it).
    pub fn events(&self, events: &[Event]) {
        if !events.is_empty() {
            self.try_append(self.sink.append_events(events));
        }
    }

    /// Journals one commit sequence: `Events(events)` →
    /// `Realtime(realtime)` → `Checkpoint` (the commit marker) → sync.
    /// Empty `events` and empty `realtime` are elided; the marker and
    /// the sync are always written. A crash anywhere inside the
    /// sequence leaves the journal with a clean committed prefix — the
    /// replayer discards trailing records with no marker.
    pub fn commit(
        &self,
        events: &[Event],
        realtime: &[Violation],
        now: Nanos,
        snapshots: &HashMap<MonitorId, MonitorState>,
        report: &FaultReport,
    ) {
        self.events(events);
        if !realtime.is_empty() {
            self.try_append(self.sink.append_realtime(realtime));
        }
        self.try_append(self.sink.append_checkpoint(now, snapshots, report));
        self.try_append(self.sink.sync());
    }

    /// Appends that have failed so far.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// The kind and message of the first append that failed, `None`
    /// while [`Self::errors`] is zero.
    pub fn first_error(&self) -> Option<(io::ErrorKind, String)> {
        self.first_error.get().cloned()
    }

    fn try_append(&self, result: io::Result<()>) {
        if let Err(e) = result {
            self.errors.fetch_add(1, Ordering::Relaxed);
            self.first_error.get_or_init(|| (e.kind(), e.to_string()));
        }
    }
}

// ---------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------

/// One journal record — the unit the storage layer frames and the
/// replayer consumes. See the module docs for the stream semantics.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A runtime (re)attached to the journal (process start/restart).
    Epoch {
        /// The attaching runtime's clock at attach time.
        time: Nanos,
    },
    /// A monitor was registered.
    Register {
        /// The id the runtime assigned (unique within its epoch).
        monitor: MonitorId,
        /// The declared monitor name, for spec resolution at replay.
        name: String,
        /// Registration time.
        time: Nanos,
    },
    /// One drained recorder window, in global `seq` order.
    Events(Vec<Event>),
    /// Real-time (calling-order) violations drained at a checkpoint.
    Realtime(Vec<Violation>),
    /// The checkpoint commit marker.
    Checkpoint {
        /// Checking time `t`.
        now: Nanos,
        /// Observed snapshots, sorted by monitor id (the codec sorts,
        /// so equal checkpoints encode to equal bytes).
        snapshots: Vec<(MonitorId, MonitorState)>,
        /// The report the live checkpoint produced.
        report: FaultReport,
    },
}

impl Record {
    /// The record's wire tag (first payload byte).
    pub fn tag(&self) -> u8 {
        match self {
            Record::Epoch { .. } => TAG_EPOCH,
            Record::Register { .. } => TAG_REGISTER,
            Record::Events(_) => TAG_EVENTS,
            Record::Realtime(_) => TAG_REALTIME,
            Record::Checkpoint { .. } => TAG_CHECKPOINT,
        }
    }

    /// The `Checkpoint` record a sink appends for
    /// [`JournalSink::append_checkpoint`]: the snapshots sorted by
    /// monitor id, the report as given.
    pub fn checkpoint(
        now: Nanos,
        snapshots: &HashMap<MonitorId, MonitorState>,
        report: &FaultReport,
    ) -> Record {
        let mut sorted: Vec<(MonitorId, MonitorState)> =
            snapshots.iter().map(|(&id, s)| (id, s.clone())).collect();
        sorted.sort_by_key(|(id, _)| *id);
        Record::Checkpoint { now, snapshots: sorted, report: report.clone() }
    }
}

const TAG_EPOCH: u8 = 1;
const TAG_REGISTER: u8 = 2;
const TAG_EVENTS: u8 = 3;
const TAG_REALTIME: u8 = 4;
const TAG_CHECKPOINT: u8 = 5;

// ---------------------------------------------------------------------
// CRC-32 (IEEE, reflected) — the framing checksum
// ---------------------------------------------------------------------

/// The slicing-by-8 tables. `T[0]` is the classic byte table: the CRC
/// register after shifting one byte `i` through the reflected
/// polynomial. `T[k][i]` is `T[0][i]` pushed `k` further zero bytes on,
/// so eight table lookups advance the register by eight input bytes.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// The IEEE CRC-32 checksum (the one zlib/PNG use) of `bytes` — what
/// the storage layer's record framing carries.
///
/// Slicing-by-8: the body is consumed eight bytes per step, one lookup
/// in each of eight tables, and the last `len % 8` bytes one at a time.
/// The result is bit-for-bit the bytewise table loop's.
///
/// # Examples
///
/// ```
/// // Standard test vector.
/// assert_eq!(rmon_core::oplog::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t7[lo as u8 as usize]
            ^ t6[(lo >> 8) as u8 as usize]
            ^ t5[(lo >> 16) as u8 as usize]
            ^ t4[(lo >> 24) as usize]
            ^ t3[hi as u8 as usize]
            ^ t2[(hi >> 8) as u8 as usize]
            ^ t1[(hi >> 16) as u8 as usize]
            ^ t0[(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t0[(crc as u8 ^ b) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------
// Decode errors
// ---------------------------------------------------------------------

/// A record payload failed to decode (truncated, unknown tag, or an
/// out-of-range enum index) — corruption the CRC framing did not catch,
/// or a format-version mismatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// What went wrong, for diagnostics.
    pub detail: String,
    /// Byte offset within the payload where decoding stopped.
    pub offset: usize,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "oplog record decode error at byte {}: {}", self.offset, self.detail)
    }
}

impl std::error::Error for DecodeError {}

// ---------------------------------------------------------------------
// Primitive readers/writers
// ---------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn err(&self, detail: impl Into<String>) -> DecodeError {
        DecodeError { detail: detail.into(), offset: self.pos }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.buf.len() - self.pos < n {
            return Err(self.err(format!("need {n} bytes, have {}", self.buf.len() - self.pos)));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// A length prefix, sanity-capped so corrupt bytes cannot ask for
    /// absurd allocations: each element is at least `min_elem` bytes,
    /// so a valid count never exceeds the remaining payload.
    fn len(&mut self, min_elem: usize) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        let cap = self.buf.len() - self.pos;
        if n.saturating_mul(min_elem.max(1)) > cap {
            return Err(self.err(format!("length {n} exceeds remaining {cap} bytes")));
        }
        Ok(n)
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        let n = self.len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.err("invalid utf-8 string"))
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, DecodeError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            t => Err(self.err(format!("bad option tag {t}"))),
        }
    }

    fn done(&self) -> Result<(), DecodeError> {
        if self.pos != self.buf.len() {
            return Err(DecodeError {
                detail: format!("{} trailing bytes", self.buf.len() - self.pos),
                offset: self.pos,
            });
        }
        Ok(())
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            put_u64(out, v);
        }
    }
}

// ---------------------------------------------------------------------
// Stable enum indices
// ---------------------------------------------------------------------

/// ST rules occupy indices `0..17`, FD rules `256..267` — disjoint
/// ranges so either table can grow without renumbering the other.
fn rule_index(rule: RuleId) -> u16 {
    if let Some(i) = RuleId::ST_RULES.iter().position(|&r| r == rule) {
        i as u16
    } else {
        let i = RuleId::FD_RULES.iter().position(|&r| r == rule).expect("every rule is ST or FD");
        256 + i as u16
    }
}

fn rule_from_index(ix: u16) -> Option<RuleId> {
    if ix < 256 {
        RuleId::ST_RULES.get(ix as usize).copied()
    } else {
        RuleId::FD_RULES.get(ix as usize - 256).copied()
    }
}

fn fault_index(fault: FaultKind) -> u8 {
    FaultKind::ALL.iter().position(|&f| f == fault).expect("taxonomy is closed") as u8
}

fn fault_from_index(ix: u8) -> Option<FaultKind> {
    FaultKind::ALL.get(ix as usize).copied()
}

// ---------------------------------------------------------------------
// Component codecs
// ---------------------------------------------------------------------

const KIND_ENTER: u8 = 0;
const KIND_WAIT: u8 = 1;
const KIND_SIGNAL_EXIT: u8 = 2;
const KIND_TERMINATE: u8 = 3;

fn put_event(out: &mut Vec<u8>, e: &Event) {
    put_u64(out, e.seq);
    put_u64(out, e.time.as_nanos());
    put_u32(out, e.monitor.index());
    put_u32(out, e.pid.index());
    put_u16(out, e.proc_name.index());
    match e.kind {
        EventKind::Enter { granted } => {
            out.push(KIND_ENTER);
            out.push(granted as u8);
        }
        EventKind::Wait { cond } => {
            out.push(KIND_WAIT);
            put_u16(out, cond.index());
        }
        EventKind::SignalExit { cond, resumed_waiter } => {
            out.push(KIND_SIGNAL_EXIT);
            out.push(resumed_waiter as u8);
            match cond {
                None => out.push(0),
                Some(c) => {
                    out.push(1);
                    put_u16(out, c.index());
                }
            }
        }
        EventKind::Terminate => out.push(KIND_TERMINATE),
    }
    put_vclock(out, &e.vc);
}

/// Vector-clock presence tags (trailing field of every event).
const VC_UNSET: u8 = 0;
const VC_SET: u8 = 1;
const VC_SATURATED: u8 = 2;

fn put_vclock(out: &mut Vec<u8>, vc: &VClock) {
    if !vc.is_set() {
        out.push(VC_UNSET);
        return;
    }
    if vc.is_saturated() {
        out.push(VC_SATURATED);
        return;
    }
    out.push(VC_SET);
    out.push(vc.owner().expect("set clock has an owner") as u8);
    // Canonical form: counters trimmed to the highest non-zero slot.
    let slots = vc.raw_slots();
    let hi = slots.iter().rposition(|&c| c != 0).map_or(0, |i| i + 1);
    out.push(hi as u8);
    for &c in &slots[..hi] {
        put_u32(out, c);
    }
}

fn read_vclock(r: &mut Reader<'_>) -> Result<VClock, DecodeError> {
    match r.u8()? {
        VC_UNSET => Ok(VClock::UNSET),
        VC_SATURATED => Ok(VClock::saturated()),
        VC_SET => {
            let owner = r.u8()? as usize;
            let n = r.u8()? as usize;
            if owner >= VClock::CAPACITY || n > VClock::CAPACITY {
                return Err(r.err(format!("bad vclock shape owner={owner} len={n}")));
            }
            let mut slots = [0u32; VClock::CAPACITY];
            for slot in slots.iter_mut().take(n) {
                *slot = r.u32()?;
            }
            Ok(VClock::from_parts(owner, slots))
        }
        t => Err(r.err(format!("bad vclock tag {t}"))),
    }
}

/// Minimum encoded size of one event (Terminate, no clock): used as
/// the allocation cap for event-vector length prefixes.
const EVENT_MIN_BYTES: usize = 8 + 8 + 4 + 4 + 2 + 1 + 1;

fn read_event(r: &mut Reader<'_>) -> Result<Event, DecodeError> {
    let seq = r.u64()?;
    let time = Nanos::new(r.u64()?);
    let monitor = MonitorId::new(r.u32()?);
    let pid = Pid::new(r.u32()?);
    let proc_name = ProcName::new(r.u16()?);
    let kind = match r.u8()? {
        KIND_ENTER => EventKind::Enter { granted: r.u8()? != 0 },
        KIND_WAIT => EventKind::Wait { cond: CondId::new(r.u16()?) },
        KIND_SIGNAL_EXIT => {
            let resumed_waiter = r.u8()? != 0;
            let cond = match r.u8()? {
                0 => None,
                1 => Some(CondId::new(r.u16()?)),
                t => return Err(r.err(format!("bad cond tag {t}"))),
            };
            EventKind::SignalExit { cond, resumed_waiter }
        }
        KIND_TERMINATE => EventKind::Terminate,
        t => return Err(r.err(format!("bad event kind {t}"))),
    };
    let vc = read_vclock(r)?;
    Ok(Event { seq, time, monitor, pid, proc_name, kind, vc })
}

fn put_violation(out: &mut Vec<u8>, v: &Violation) {
    put_u32(out, v.monitor.index());
    put_u16(out, rule_index(v.rule));
    match v.fault {
        None => out.push(0xFF),
        Some(f) => out.push(fault_index(f)),
    }
    match v.pid {
        None => out.push(0),
        Some(p) => {
            out.push(1);
            put_u32(out, p.index());
        }
    }
    put_opt_u64(out, v.event_seq);
    put_u64(out, v.detected_at.as_nanos());
    put_detail(out, &v.message);
}

/// Writes a detail as a length-prefixed string, rendered straight into
/// the frame: the bytes of [`put_str`] over its text.
fn put_detail(out: &mut Vec<u8>, detail: &Detail) {
    let at = out.len();
    put_u32(out, 0);
    io::Write::write_fmt(out, format_args!("{detail}")).expect("writing to a Vec cannot fail");
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Minimum encoded size of one violation (all options absent, empty
/// message).
const VIOLATION_MIN_BYTES: usize = 4 + 2 + 1 + 1 + 1 + 8 + 4;

fn read_violation(r: &mut Reader<'_>) -> Result<Violation, DecodeError> {
    let monitor = MonitorId::new(r.u32()?);
    let rule_ix = r.u16()?;
    let rule = rule_from_index(rule_ix).ok_or_else(|| r.err(format!("bad rule {rule_ix}")))?;
    let fault = match r.u8()? {
        0xFF => None,
        ix => Some(fault_from_index(ix).ok_or_else(|| r.err(format!("bad fault {ix}")))?),
    };
    let pid = match r.u8()? {
        0 => None,
        1 => Some(Pid::new(r.u32()?)),
        t => return Err(r.err(format!("bad pid tag {t}"))),
    };
    let event_seq = r.opt_u64()?;
    let detected_at = Nanos::new(r.u64()?);
    let message = Detail::Text(r.string()?);
    Ok(Violation { monitor, rule, fault, pid, event_seq, detected_at, message })
}

fn put_events(out: &mut Vec<u8>, events: &[Event]) {
    put_u32(out, events.len() as u32);
    for e in events {
        put_event(out, e);
    }
}

fn put_violations(out: &mut Vec<u8>, vs: &[Violation]) {
    put_u32(out, vs.len() as u32);
    for v in vs {
        put_violation(out, v);
    }
}

fn read_violations(r: &mut Reader<'_>) -> Result<Vec<Violation>, DecodeError> {
    let n = r.len(VIOLATION_MIN_BYTES)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(read_violation(r)?);
    }
    Ok(out)
}

fn put_pid_proc_list(out: &mut Vec<u8>, list: &[PidProc]) {
    put_u32(out, list.len() as u32);
    for pp in list {
        put_u32(out, pp.pid.index());
        put_u16(out, pp.proc_name.index());
    }
}

fn read_pid_proc_list(r: &mut Reader<'_>) -> Result<Vec<PidProc>, DecodeError> {
    let n = r.len(6)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let pid = Pid::new(r.u32()?);
        let proc_name = ProcName::new(r.u16()?);
        out.push(PidProc::new(pid, proc_name));
    }
    Ok(out)
}

fn put_state(out: &mut Vec<u8>, s: &MonitorState) {
    put_pid_proc_list(out, &s.entry_queue);
    put_u32(out, s.cond_queues.len() as u32);
    for q in &s.cond_queues {
        put_pid_proc_list(out, q);
    }
    put_pid_proc_list(out, &s.running);
    put_opt_u64(out, s.available);
}

fn read_state(r: &mut Reader<'_>) -> Result<MonitorState, DecodeError> {
    let entry_queue = read_pid_proc_list(r)?;
    let conds = r.len(4)?;
    let mut cond_queues = Vec::with_capacity(conds);
    for _ in 0..conds {
        cond_queues.push(read_pid_proc_list(r)?);
    }
    let running = read_pid_proc_list(r)?;
    let available = r.opt_u64()?;
    Ok(MonitorState { entry_queue, cond_queues, running, available })
}

fn put_report(out: &mut Vec<u8>, report: &FaultReport) {
    put_violations(out, &report.violations);
    put_u32(out, report.predicted.len() as u32);
    for p in &report.predicted {
        put_violation(out, &p.violation);
        put_u32(out, p.witness.len() as u32);
        for &seq in &p.witness {
            put_u64(out, seq);
        }
    }
    put_u64(out, report.events_checked);
    put_u64(out, report.window_start.as_nanos());
    put_u64(out, report.window_end.as_nanos());
}

fn read_report(r: &mut Reader<'_>) -> Result<FaultReport, DecodeError> {
    let violations = read_violations(r)?;
    let predictions = r.len(VIOLATION_MIN_BYTES + 4)?;
    let mut predicted = Vec::with_capacity(predictions);
    for _ in 0..predictions {
        let violation = read_violation(r)?;
        let n = r.len(8)?;
        let mut witness = Vec::with_capacity(n);
        for _ in 0..n {
            witness.push(r.u64()?);
        }
        predicted.push(PredictedViolation { violation, witness });
    }
    let events_checked = r.u64()?;
    let window_start = Nanos::new(r.u64()?);
    let window_end = Nanos::new(r.u64()?);
    Ok(FaultReport { violations, predicted, events_checked, window_start, window_end })
}

// ---------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------

/// Encodes one record into its wire payload (tag byte + body). The
/// storage layer wraps this in its `[len][crc]` frame; the payload
/// itself carries no length or checksum.
///
/// Encoding is canonical: checkpoint snapshots are sorted by monitor
/// id, so semantically equal records produce identical bytes.
pub fn encode_record(record: &Record) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.push(record.tag());
    match record {
        Record::Epoch { time } => put_u64(&mut out, time.as_nanos()),
        Record::Register { monitor, name, time } => {
            put_u32(&mut out, monitor.index());
            put_str(&mut out, name);
            put_u64(&mut out, time.as_nanos());
        }
        Record::Events(events) => put_events(&mut out, events),
        Record::Realtime(vs) => put_violations(&mut out, vs),
        Record::Checkpoint { now, snapshots, report } => {
            put_u64(&mut out, now.as_nanos());
            let mut sorted: Vec<&(MonitorId, MonitorState)> = snapshots.iter().collect();
            sorted.sort_by_key(|(id, _)| *id);
            put_u32(&mut out, sorted.len() as u32);
            for (id, state) in sorted {
                put_u32(&mut out, id.index());
                put_state(&mut out, state);
            }
            put_report(&mut out, report);
        }
    }
    out
}

/// Encodes an `Events` record straight from a borrowed window: the
/// bytes of `encode_record(&Record::Events(events.to_vec()))`, without
/// copying the window first.
pub fn encode_events_record(events: &[Event]) -> Vec<u8> {
    // An event without a clock stamp encodes to at most 32 bytes.
    let mut out = Vec::with_capacity(5 + events.len() * 32);
    out.push(TAG_EVENTS);
    put_events(&mut out, events);
    out
}

/// Encodes a `Realtime` record straight from a borrowed verdict batch:
/// the bytes of `encode_record(&Record::Realtime(violations.to_vec()))`.
pub fn encode_realtime_record(violations: &[Violation]) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.push(TAG_REALTIME);
    put_violations(&mut out, violations);
    out
}

/// Decodes one record payload produced by [`encode_record`]. Trailing
/// bytes, unknown tags and out-of-range indices are errors — a frame
/// whose CRC matched but whose payload does not parse indicates a
/// format mismatch, and the reader should stop at it.
pub fn decode_record(payload: &[u8]) -> Result<Record, DecodeError> {
    let mut r = Reader::new(payload);
    let record = match r.u8()? {
        TAG_EPOCH => Record::Epoch { time: Nanos::new(r.u64()?) },
        TAG_REGISTER => {
            let monitor = MonitorId::new(r.u32()?);
            let name = r.string()?;
            let time = Nanos::new(r.u64()?);
            Record::Register { monitor, name, time }
        }
        TAG_EVENTS => {
            let n = r.len(EVENT_MIN_BYTES)?;
            let mut events = Vec::with_capacity(n);
            for _ in 0..n {
                events.push(read_event(&mut r)?);
            }
            Record::Events(events)
        }
        TAG_REALTIME => Record::Realtime(read_violations(&mut r)?),
        TAG_CHECKPOINT => {
            let now = Nanos::new(r.u64()?);
            let n = r.len(4)?;
            let mut snapshots = Vec::with_capacity(n);
            for _ in 0..n {
                let id = MonitorId::new(r.u32()?);
                let state = read_state(&mut r)?;
                snapshots.push((id, state));
            }
            let report = read_report(&mut r)?;
            Record::Checkpoint { now, snapshots, report }
        }
        t => return Err(r.err(format!("unknown record tag {t}"))),
    };
    r.done()?;
    Ok(record)
}

// ---------------------------------------------------------------------
// Public component codecs
// ---------------------------------------------------------------------
//
// The record codec above is the journal's unit of framing; the wire
// protocol in `rmon-net` reuses `Record` for event batches but its
// control frames also carry bare states, violation lists and fault
// reports. These wrappers expose the component codecs so every byte
// that crosses a socket uses the same canonical encoding the journal
// uses — one codec to fuzz, one format document.

/// Appends the canonical encoding of one [`MonitorState`] to `out`.
pub fn encode_state(out: &mut Vec<u8>, state: &MonitorState) {
    put_state(out, state);
}

/// Decodes a [`MonitorState`] from `payload` at `*pos`, advancing
/// `*pos` past it.
///
/// # Examples
///
/// ```
/// use rmon_core::oplog::{decode_state, encode_state};
/// use rmon_core::MonitorState;
///
/// let mut buf = Vec::new();
/// encode_state(&mut buf, &MonitorState::with_resources(2, 1));
/// let mut pos = 0;
/// let state = decode_state(&buf, &mut pos).unwrap();
/// assert_eq!(state, MonitorState::with_resources(2, 1));
/// assert_eq!(pos, buf.len());
/// ```
pub fn decode_state(payload: &[u8], pos: &mut usize) -> Result<MonitorState, DecodeError> {
    let mut r = Reader { buf: payload, pos: *pos };
    let state = read_state(&mut r)?;
    *pos = r.pos;
    Ok(state)
}

/// Appends the canonical encoding of a violation list to `out`.
pub fn encode_violations(out: &mut Vec<u8>, violations: &[Violation]) {
    put_violations(out, violations);
}

/// Decodes a violation list from `payload` at `*pos`, advancing `*pos`
/// past it.
pub fn decode_violations(payload: &[u8], pos: &mut usize) -> Result<Vec<Violation>, DecodeError> {
    let mut r = Reader { buf: payload, pos: *pos };
    let violations = read_violations(&mut r)?;
    *pos = r.pos;
    Ok(violations)
}

/// Appends the canonical encoding of one [`FaultReport`] to `out`.
pub fn encode_report(out: &mut Vec<u8>, report: &FaultReport) {
    put_report(out, report);
}

/// Decodes a [`FaultReport`] from `payload` at `*pos`, advancing `*pos`
/// past it.
pub fn decode_report(payload: &[u8], pos: &mut usize) -> Result<FaultReport, DecodeError> {
    let mut r = Reader { buf: payload, pos: *pos };
    let report = read_report(&mut r)?;
    *pos = r.pos;
    Ok(report)
}

// ---------------------------------------------------------------------
// MemorySink
// ---------------------------------------------------------------------

/// An in-memory journal capturing decoded [`Record`]s — the test double
/// for [`JournalSink`], and a cheap way to inspect exactly what a
/// runtime would persist without touching disk.
///
/// Every append round-trips through the codec (`encode` + `decode`), so
/// a `MemorySink`-covered path is also codec-covered.
#[derive(Debug, Default)]
pub struct MemorySink {
    records: Mutex<Vec<Record>>,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Everything appended so far, in append order.
    pub fn records(&self) -> Vec<Record> {
        self.records.lock().expect("sink lock").clone()
    }

    /// Number of records appended so far.
    pub fn len(&self) -> usize {
        self.records.lock().expect("sink lock").len()
    }

    /// Whether nothing has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn push(&self, record: Record) -> io::Result<()> {
        let decoded = decode_record(&encode_record(&record))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        debug_assert_eq!(decoded, record, "codec must round-trip");
        self.records.lock().expect("sink lock").push(decoded);
        Ok(())
    }
}

impl JournalSink for MemorySink {
    fn append_epoch(&self, now: Nanos) -> io::Result<()> {
        self.push(Record::Epoch { time: now })
    }

    fn append_register(&self, monitor: MonitorId, name: &str, now: Nanos) -> io::Result<()> {
        self.push(Record::Register { monitor, name: name.to_string(), time: now })
    }

    fn append_events(&self, events: &[Event]) -> io::Result<()> {
        self.push(Record::Events(events.to_vec()))
    }

    fn append_realtime(&self, violations: &[Violation]) -> io::Result<()> {
        self.push(Record::Realtime(violations.to_vec()))
    }

    fn append_checkpoint(
        &self,
        now: Nanos,
        snapshots: &HashMap<MonitorId, MonitorState>,
        report: &FaultReport,
    ) -> io::Result<()> {
        self.push(Record::checkpoint(now, snapshots, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_violation(seed: u64) -> Violation {
        Violation {
            monitor: MonitorId::new(seed as u32),
            rule: RuleId::St8DuplicateRequest,
            fault: Some(FaultKind::DoubleAcquire),
            pid: Some(Pid::new(7)),
            event_seq: Some(seed),
            detected_at: Nanos::new(seed * 3),
            message: format!("violation {seed}").into(),
        }
    }

    fn sample_state() -> MonitorState {
        let mut s = MonitorState::with_resources(2, 4);
        s.entry_queue.push(PidProc::new(Pid::new(1), ProcName::new(0)));
        s.cond_queues[1].push(PidProc::new(Pid::new(2), ProcName::new(1)));
        s.running.push(PidProc::new(Pid::new(3), ProcName::new(2)));
        s
    }

    fn sample_records() -> Vec<Record> {
        let m = MonitorId::new(3);
        vec![
            Record::Epoch { time: Nanos::new(5) },
            Record::Register { monitor: m, name: "mailbox".into(), time: Nanos::new(6) },
            Record::Events(vec![
                Event::enter(1, Nanos::new(10), m, Pid::new(1), ProcName::new(0), true),
                Event::wait(2, Nanos::new(11), m, Pid::new(1), ProcName::new(0), CondId::new(1)),
                Event::signal_exit(
                    3,
                    Nanos::new(12),
                    m,
                    Pid::new(2),
                    ProcName::new(1),
                    Some(CondId::new(1)),
                    true,
                ),
                Event::signal_exit(
                    4,
                    Nanos::new(13),
                    m,
                    Pid::new(1),
                    ProcName::new(0),
                    None,
                    false,
                ),
                Event::terminate(5, Nanos::new(14), m, Pid::new(2), ProcName::new(1)),
                // Clock-stamped events: a real stamp and the saturated
                // degenerate, exercising every vclock wire tag.
                Event::enter(6, Nanos::new(15), m, Pid::new(3), ProcName::new(0), false)
                    .with_vc(sample_vclock()),
                Event::terminate(7, Nanos::new(16), m, Pid::new(3), ProcName::new(0))
                    .with_vc(VClock::saturated()),
            ]),
            Record::Realtime(vec![sample_violation(1), sample_violation(2)]),
            Record::Checkpoint {
                now: Nanos::new(99),
                snapshots: vec![(m, sample_state()), (MonitorId::new(9), MonitorState::new(0))],
                report: FaultReport {
                    violations: vec![sample_violation(3)],
                    predicted: vec![PredictedViolation {
                        violation: sample_violation(4),
                        witness: vec![1, 3, 2, 4, 5],
                    }],
                    events_checked: 5,
                    window_start: Nanos::new(1),
                    window_end: Nanos::new(99),
                },
            },
        ]
    }

    fn sample_vclock() -> VClock {
        let mut a = VClock::for_slot(0);
        a.tick();
        let mut b = VClock::for_slot(2);
        b.tick();
        b.tick();
        b.merge(&a);
        b
    }

    /// The byte-at-a-time table loop slicing-by-8 replaced: the
    /// reference the fast kernel must equal on every input.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    /// SplitMix64: a seeded byte source for the equivalence sweep.
    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        for crc in [crc32, crc32_bytewise] {
            assert_eq!(crc(b""), 0);
            assert_eq!(crc(b"123456789"), 0xCBF4_3926);
            assert_eq!(crc(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        }
    }

    #[test]
    fn slicing_by_8_equals_the_bytewise_loop_at_every_length_and_offset() {
        let buf = random_bytes(1, 300 + 8);
        for start in 0..8 {
            for len in 0..=300 {
                let slice = &buf[start..start + len];
                assert_eq!(crc32(slice), crc32_bytewise(slice), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn slicing_by_8_equals_the_bytewise_loop_on_random_buffers() {
        for seed in 0..64u64 {
            // Lengths up to 64 KiB, spread over every residue mod 8.
            let len = (seed as usize * 1031) % (64 << 10) + seed as usize % 8;
            let buf = random_bytes(seed, len);
            assert_eq!(crc32(&buf), crc32_bytewise(&buf), "seed {seed} len {len}");
        }
        let full = random_bytes(99, 64 << 10);
        assert_eq!(crc32(&full), crc32_bytewise(&full));
    }

    #[test]
    fn every_record_kind_round_trips() {
        for record in sample_records() {
            let bytes = encode_record(&record);
            let back = decode_record(&bytes).expect("round-trip");
            assert_eq!(back, record);
        }
    }

    #[test]
    fn encoding_is_canonical_for_snapshot_order() {
        let a = Record::Checkpoint {
            now: Nanos::new(1),
            snapshots: vec![
                (MonitorId::new(2), MonitorState::new(0)),
                (MonitorId::new(1), sample_state()),
            ],
            report: FaultReport::default(),
        };
        let b = Record::Checkpoint {
            now: Nanos::new(1),
            snapshots: vec![
                (MonitorId::new(1), sample_state()),
                (MonitorId::new(2), MonitorState::new(0)),
            ],
            report: FaultReport::default(),
        };
        assert_eq!(encode_record(&a), encode_record(&b));
    }

    #[test]
    fn truncated_payloads_error_instead_of_panicking() {
        for record in sample_records() {
            let bytes = encode_record(&record);
            for cut in 0..bytes.len() {
                assert!(decode_record(&bytes[..cut]).is_err(), "cut at {cut} must not decode");
            }
        }
    }

    #[test]
    fn corrupt_bytes_never_panic() {
        // Flip every byte of every sample encoding: decode must return
        // (Ok with different content is fine for non-structural bytes;
        // panics and absurd allocations are not).
        for record in sample_records() {
            let bytes = encode_record(&record);
            for i in 0..bytes.len() {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= 0xA5;
                let _ = decode_record(&corrupt);
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_record(&Record::Epoch { time: Nanos::new(1) });
        bytes.push(0);
        assert!(decode_record(&bytes).is_err());
    }

    #[test]
    fn rule_indices_are_stable_and_disjoint() {
        let mut seen = std::collections::BTreeSet::new();
        for rule in RuleId::ST_RULES.into_iter().chain(RuleId::FD_RULES) {
            let ix = rule_index(rule);
            assert!(seen.insert(ix), "{rule} index {ix} collides");
            assert_eq!(rule_from_index(ix), Some(rule));
        }
        assert_eq!(rule_from_index(17), None, "past the ST table");
        assert_eq!(rule_from_index(256 + 11), None, "past the FD table");
    }

    #[test]
    fn fault_indices_round_trip() {
        for fault in FaultKind::ALL {
            assert_eq!(fault_from_index(fault_index(fault)), Some(fault));
        }
        assert_eq!(fault_from_index(21), None);
    }

    #[test]
    fn memory_sink_captures_both_streams() {
        let sink = MemorySink::new();
        assert!(sink.is_empty());
        let m = MonitorId::new(0);
        sink.append_epoch(Nanos::new(1)).unwrap();
        sink.append_register(m, "alloc", Nanos::new(2)).unwrap();
        let events = [Event::enter(1, Nanos::new(3), m, Pid::new(1), ProcName::new(0), true)];
        sink.append_events(&events).unwrap();
        sink.append_realtime(&[sample_violation(1)]).unwrap();
        let mut snaps = HashMap::new();
        snaps.insert(m, sample_state());
        sink.append_checkpoint(Nanos::new(9), &snaps, &FaultReport::default()).unwrap();
        let records = sink.records();
        assert_eq!(records.len(), 5);
        assert_eq!(records[0], Record::Epoch { time: Nanos::new(1) });
        assert!(matches!(&records[1], Record::Register { name, .. } if name == "alloc"));
        assert!(matches!(&records[2], Record::Events(evs) if evs.len() == 1));
        assert!(matches!(&records[3], Record::Realtime(vs) if vs.len() == 1));
        assert!(
            matches!(&records[4], Record::Checkpoint { snapshots, .. } if snapshots.len() == 1)
        );
    }

    /// A [`MemorySink`] that counts its syncs and, when `fail` is set,
    /// refuses every append and sync with a numbered error — the first
    /// one `InvalidInput`, the rest `Other`.
    #[derive(Debug, Default)]
    struct CountingSink {
        records: MemorySink,
        syncs: AtomicU64,
        fail: bool,
        failures: AtomicU64,
    }

    impl CountingSink {
        fn failing() -> Self {
            CountingSink { fail: true, ..Self::default() }
        }

        fn append(&self, write: impl FnOnce(&MemorySink) -> io::Result<()>) -> io::Result<()> {
            if !self.fail {
                return write(&self.records);
            }
            let n = self.failures.fetch_add(1, Ordering::Relaxed);
            let kind = if n == 0 { io::ErrorKind::InvalidInput } else { io::ErrorKind::Other };
            Err(io::Error::new(kind, format!("failure {n}")))
        }
    }

    impl JournalSink for CountingSink {
        fn append_epoch(&self, now: Nanos) -> io::Result<()> {
            self.append(|m| m.append_epoch(now))
        }

        fn append_register(&self, monitor: MonitorId, name: &str, now: Nanos) -> io::Result<()> {
            self.append(|m| m.append_register(monitor, name, now))
        }

        fn append_events(&self, events: &[Event]) -> io::Result<()> {
            self.append(|m| m.append_events(events))
        }

        fn append_realtime(&self, violations: &[Violation]) -> io::Result<()> {
            self.append(|m| m.append_realtime(violations))
        }

        fn append_checkpoint(
            &self,
            now: Nanos,
            snapshots: &HashMap<MonitorId, MonitorState>,
            report: &FaultReport,
        ) -> io::Result<()> {
            self.append(|m| m.append_checkpoint(now, snapshots, report))
        }

        fn sync(&self) -> io::Result<()> {
            self.syncs.fetch_add(1, Ordering::Relaxed);
            self.append(|_| Ok(()))
        }
    }

    fn journal_over(sink: &Arc<CountingSink>) -> Journal {
        Journal::new(Arc::clone(sink) as Arc<dyn JournalSink>)
    }

    fn sample_event(seq: u64) -> Event {
        Event::enter(seq, Nanos::new(seq), MonitorId::new(0), Pid::new(1), ProcName::new(0), true)
    }

    #[test]
    fn an_empty_commit_writes_only_the_marker_and_one_sync() {
        let sink = Arc::new(CountingSink::default());
        let journal = journal_over(&sink);
        let snaps = HashMap::from([(MonitorId::new(0), sample_state())]);
        journal.commit(&[], &[], Nanos::new(7), &snaps, &FaultReport::default());
        assert_eq!(
            sink.records.records(),
            [Record::checkpoint(Nanos::new(7), &snaps, &FaultReport::default())]
        );
        assert_eq!(sink.syncs.load(Ordering::Relaxed), 1);
        assert_eq!((journal.errors(), journal.first_error()), (0, None));
    }

    #[test]
    fn a_commit_writes_events_then_realtime_then_the_marker() {
        let sink = Arc::new(CountingSink::default());
        let journal = journal_over(&sink);
        let events = [sample_event(1), sample_event(2)];
        let verdicts = [sample_violation(1)];
        let snaps = HashMap::from([(MonitorId::new(1), MonitorState::new(0))]);
        let report = FaultReport { violations: vec![sample_violation(2)], ..Default::default() };
        journal.commit(&events, &verdicts, Nanos::new(9), &snaps, &report);
        assert_eq!(
            sink.records.records(),
            [
                Record::Events(events.to_vec()),
                Record::Realtime(verdicts.to_vec()),
                Record::checkpoint(Nanos::new(9), &snaps, &report),
            ]
        );
        assert_eq!(sink.syncs.load(Ordering::Relaxed), 1);
        assert_eq!(journal.errors(), 0);
    }

    #[test]
    fn every_failed_append_counts_and_only_the_first_error_is_kept() {
        let sink = Arc::new(CountingSink::failing());
        let journal = journal_over(&sink);
        journal.epoch(Nanos::new(1));
        journal.register(MonitorId::new(0), "alloc", Nanos::new(2));
        journal.events(&[]);
        assert_eq!(journal.errors(), 2, "an empty window is not appended");
        journal.events(&[sample_event(1)]);
        let snaps = HashMap::new();
        journal.commit(
            &[sample_event(2)],
            &[sample_violation(1)],
            Nanos::new(3),
            &snaps,
            &FaultReport::default(),
        );
        // Epoch, Register, Events, then Events, Realtime, Checkpoint and
        // the sync of the commit.
        assert_eq!(journal.errors(), 7);
        assert_eq!(sink.syncs.load(Ordering::Relaxed), 1);
        assert_eq!(journal.first_error(), Some((io::ErrorKind::InvalidInput, "failure 0".into())));
        assert!(sink.records.is_empty());
    }
}
