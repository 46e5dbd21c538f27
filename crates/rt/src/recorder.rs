//! The real-time data-gathering routine (§4): records scheduling
//! events from monitor primitives into the history database.
//!
//! # The sharded recording pipeline
//!
//! The original recorder serialized every monitor operation through one
//! global `Mutex` around the window `Vec` — measurably the hottest lock
//! in the system (recording alone cost > 6× the bare monitor op in the
//! Table-1 harness). This module replaces it with a design in which the
//! hot path shares **nothing writable** between threads:
//!
//! * the total order `<L` comes from a single [`AtomicU64`] sequence
//!   counter (`fetch_add`, no lock);
//! * each recording thread appends into its own [`ThreadSegment`] — a
//!   chunked, append-only buffer owned by exactly one writer thread and
//!   published to the drain side with release/acquire stores on each
//!   chunk's length (the classic single-producer publication protocol
//!   of low-overhead tracers);
//! * a chunk slot holds a 32-byte [`Stamp`] — every field of an
//!   [`Event`] but its 36-byte happens-before clock. A recorder built
//!   with [`Recorder::with_clocks`] gives each chunk a parallel *clock
//!   lane* for those clocks; every other recorder allocates none, so an
//!   event in flight costs 32 bytes until its window is merged;
//! * a window leaves the recorder in two steps. [`Recorder::hand_over`]
//!   is the part that must run while the monitors are suspended and is
//!   O(chunks), not O(events): full chunks are unlinked from their
//!   segment, the partially filled current chunk contributes the range
//!   of slots published so far, and a [`Handover`] holds the lot.
//!   [`Handover::merge_into`] then k-way merges the per-thread streams
//!   by `seq` straight from the chunk slots into a buffer the caller
//!   keeps, rebuilding each full [`Event`] from its stamp and, if there
//!   is a clock lane, its clock — every segment is internally sorted by
//!   construction, so the checkpoint checkers get the same
//!   globally-ordered window the locked recorder produced — and needs
//!   no lock at all: the slots it reads were final before the hand-over
//!   returned. [`Recorder::drain_window`] is the two steps back to
//!   back.
//!
//! Within one thread, events still appear in exactly the order their
//! sequence numbers were drawn, so the per-pid FIFO precondition of the
//! detection backends holds by construction — which is what lets the
//! runtime stream the same events straight into the thread's
//! [`ProducerHandle`](rmon_core::detect::ProducerHandle) without any
//! shared staging buffer (see `rmon_rt::registry`).

use parking_lot::Mutex;
use rmon_core::{Event, EventKind, MonitorId, Nanos, Pid, ProcName, VClock};
use std::cell::{RefCell, UnsafeCell};
use std::collections::HashMap;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::Instant;

/// Events per segment chunk. Chunks are never reallocated, so a push
/// is a plain slot write — no `Vec` growth memcpy on the hot path —
/// and a long window costs a list of chunks instead of one huge
/// reallocating buffer.
const CHUNK_EVENTS: usize = 1024;

/// Process-wide recorder identity source: keys the per-thread segment
/// cache, so one thread can record into several recorders (tests do)
/// without mixing their streams.
static NEXT_RECORDER_TOKEN: AtomicU64 = AtomicU64::new(1);

/// An event as a chunk slot holds it: every field of [`Event`] but the
/// happens-before clock, which lives in the chunk's clock lane when the
/// recorder keeps clocks at all. 32 bytes against the event's 72.
#[derive(Debug, Clone, Copy)]
struct Stamp {
    seq: u64,
    time: Nanos,
    monitor: MonitorId,
    pid: Pid,
    proc_name: ProcName,
    kind: EventKind,
}

impl Stamp {
    /// The full event: this stamp with `vc` as its clock.
    #[inline(always)]
    fn event(self, vc: VClock) -> Event {
        let Stamp { seq, time, monitor, pid, proc_name, kind } = self;
        Event { seq, time, monitor, pid, proc_name, kind, vc }
    }
}

/// `CHUNK_EVENTS` uninitialized slots of one lane.
fn lane<T>() -> Box<[UnsafeCell<MaybeUninit<T>>]> {
    (0..CHUNK_EVENTS).map(|_| UnsafeCell::new(MaybeUninit::uninit())).collect()
}

/// One fixed-capacity chunk of a thread segment: a lane of stamps and,
/// in a clocked recorder's chunks, a parallel lane of clocks (slot `i`
/// of each describes the same event).
///
/// Single-producer publication: only the owning thread writes slots and
/// stores `len` (release); a hand-over loads `len` (acquire) and fixes
/// a range of slots below it, which its [`Handover`] reads afterwards.
/// Slots below a published `len` — in both lanes — are never written
/// again, so the acquire load makes them safely readable for as long
/// as the chunk lives.
struct Chunk {
    stamps: Box<[UnsafeCell<MaybeUninit<Stamp>>]>,
    /// The clock lane, present exactly when the recorder was built
    /// [`Recorder::with_clocks`]; a chunk never gains or loses it.
    clocks: Option<Box<[UnsafeCell<MaybeUninit<VClock>>]>>,
    /// Published element count. Writer-only store (release).
    len: AtomicUsize,
    /// Elements already handed over. Touched by hand-overs only, which
    /// are serialized by the segment-registry lock.
    taken: AtomicUsize,
}

// SAFETY: the only `UnsafeCell` access paths are `ThreadSegment::push`
// (the single writer thread, slot `len` of the stamp lane and, if the
// chunk has one, of the clock lane) and `ChunkRange::{stamps, clocks}`
// (any thread holding a `Handover`, slots `[start, end)` of the same
// lanes with `end` at most a `len` that `Chunk::hand_over`
// acquire-loaded under the registry lock — the reads themselves happen
// *outside* that lock, possibly while the writer pushes on into the
// same chunk). Writer and readers never touch the same slot of either
// lane: `len` only grows, the writer only ever writes the slots at the
// current `len`, both before the release store that moves `len` past
// them — so that one store publishes the stamp and its clock together
// — and never touches them again. A `Handover` crossing threads is an
// ordinary `Send` move, so whatever carries it orders the acquire load
// before the reads. `len` and `taken` are atomics; the lanes are never
// resized, and whether a chunk has a clock lane is fixed at creation.
unsafe impl Sync for Chunk {}
// SAFETY: `Stamp` and `VClock` are plain `Copy` data with no thread
// affinity, and a chunk owns its lanes.
unsafe impl Send for Chunk {}

impl Chunk {
    fn new(clocked: bool) -> Self {
        Chunk {
            stamps: lane(),
            clocks: clocked.then(lane),
            len: AtomicUsize::new(0),
            taken: AtomicUsize::new(0),
        }
    }

    /// Hands every slot published since the last hand-over to `out` as
    /// one range, returning whether the chunk is exhausted (full and
    /// fully handed over). Caller must hold the segment-registry lock.
    fn hand_over(self: &Arc<Self>, out: &mut Vec<ChunkRange>) -> bool {
        let end = self.len.load(Ordering::Acquire);
        let start = self.taken.load(Ordering::Relaxed);
        if start < end {
            out.push(ChunkRange { chunk: Arc::clone(self), start, end });
            self.taken.store(end, Ordering::Relaxed);
        }
        end == CHUNK_EVENTS
    }

    /// Published events no hand-over has taken yet.
    fn pending(&self) -> usize {
        self.len.load(Ordering::Acquire) - self.taken.load(Ordering::Relaxed)
    }
}

/// Slots `[start, end)` of one chunk, fixed by [`Chunk::hand_over`]:
/// `end` is at most a `len` it acquire-loaded. The `Arc` keeps the
/// chunk alive after its segment has unlinked it.
#[derive(Debug)]
struct ChunkRange {
    chunk: Arc<Chunk>,
    start: usize,
    end: usize,
}

/// A shared slice over slots `[start, end)` of one lane.
///
/// # Safety
///
/// Every slot in the range must be initialized and never written again
/// while the returned slice lives.
unsafe fn published<T>(lane: &[UnsafeCell<MaybeUninit<T>>], start: usize, end: usize) -> &[T] {
    let slots = &lane[start..end];
    // SAFETY: initialized and final per the caller; `UnsafeCell` and
    // `MaybeUninit` are both `repr(transparent)`, so the slots are laid
    // out as `T`s.
    unsafe { std::slice::from_raw_parts(slots.as_ptr().cast::<T>(), slots.len()) }
}

impl ChunkRange {
    fn stamps(&self) -> &[Stamp] {
        // SAFETY: every slot below the acquire-loaded `len` this range
        // was cut from is initialized and never written again (see the
        // `Sync` argument on `Chunk`), so a shared slice over them is
        // valid for as long as `self` keeps the chunk alive — also
        // while the writer fills slots at or above `end`, which this
        // slice does not cover.
        unsafe { published(&self.chunk.stamps, self.start, self.end) }
    }

    /// The clocks of [`Self::stamps`], slot for slot, if the chunk has
    /// a clock lane.
    fn clocks(&self) -> Option<&[VClock]> {
        let lane = self.chunk.clocks.as_deref()?;
        // SAFETY: as for `stamps`: `push` writes a clock-lane slot
        // before the same release store of `len` that publishes its
        // stamp.
        Some(unsafe { published(lane, self.start, self.end) })
    }

    /// Appends the range's events to `out` in stream order.
    fn append_to(&self, out: &mut Vec<Event>) {
        let stamps = self.stamps();
        match self.clocks() {
            None => out.extend(stamps.iter().map(|s| s.event(VClock::UNSET))),
            Some(clocks) => out.extend(stamps.iter().zip(clocks).map(|(s, vc)| s.event(*vc))),
        }
    }
}

impl std::fmt::Debug for Chunk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Chunk")
            .field("len", &self.len.load(Ordering::Relaxed))
            .field("taken", &self.taken.load(Ordering::Relaxed))
            .field("clocked", &self.clocks.is_some())
            .finish()
    }
}

/// The drain-side view of one thread's segment: the chunk list. The
/// small mutex is touched by the writer only once per [`CHUNK_EVENTS`]
/// pushes (to register a fresh chunk) and by drains.
#[derive(Debug, Default)]
struct SegmentShared {
    chunks: Mutex<Vec<Arc<Chunk>>>,
    /// Set (release) by the writer handle's drop, after its final
    /// push. A drain that acquire-loads `true` therefore
    /// happens-after every publication this segment will ever see —
    /// the edge that makes pruning a dead segment sound (an `Arc`
    /// strong-count probe would not synchronize with the last push).
    writer_closed: AtomicBool,
}

impl SegmentShared {
    /// Hands this segment's published events over as chunk ranges in
    /// stream order, unlinking exhausted chunks.
    fn hand_over(&self) -> Vec<ChunkRange> {
        let mut stream = Vec::new();
        self.chunks.lock().retain(|chunk| !chunk.hand_over(&mut stream));
        stream
    }

    fn pending(&self) -> usize {
        self.chunks.lock().iter().map(|c| c.pending()).sum()
    }

    /// Whether the segment can never produce another event and has
    /// nothing left to hand over. The acquire load of `writer_closed`
    /// orders the subsequent `pending` check after the writer's final
    /// publication.
    fn exhausted(&self) -> bool {
        self.writer_closed.load(Ordering::Acquire) && self.pending() == 0
    }
}

/// A thread's private writer handle into the recording pipeline: the
/// hot-path half of the recorder. Created through
/// [`Recorder::new_thread_segment`], cached in thread-local storage,
/// never shared between threads.
#[derive(Debug)]
pub(crate) struct ThreadSegment {
    shared: Arc<SegmentShared>,
    current: Arc<Chunk>,
    /// Writer-side mirror of `current.len`: the writer is the only
    /// thread that advances the published length, so it never needs to
    /// read the atomic back.
    cursor: usize,
    /// The owning thread's happens-before clock, maintained by
    /// [`Recorder::record_on`] when the recorder was built with clocks
    /// enabled ([`Recorder::with_clocks`]); [`VClock::UNSET`] until the
    /// thread's first clocked event assigns it a slot. Living in the
    /// single-writer segment, it needs no synchronization of its own —
    /// cross-thread ordering flows exclusively through the recorder's
    /// monitor-clock table.
    clock: VClock,
}

impl ThreadSegment {
    /// Appends one event to this thread's stream: `stamp`, and `vc`
    /// into the clock lane if the segment's chunks have one.
    #[inline(always)]
    fn push(&mut self, stamp: Stamp, vc: VClock) {
        if self.cursor == CHUNK_EVENTS {
            self.roll_over();
        }
        let i = self.cursor;
        // SAFETY: `i < CHUNK_EVENTS` (checked above) bounds both lanes,
        // the slots are at or above the published `len`, so no reader
        // looks at them yet, and `&mut self` plus the thread-local
        // handout make this the single writer thread (see the `Sync`
        // justification on `Chunk`).
        unsafe {
            (*self.current.stamps.get_unchecked(i).get()).write(stamp);
            if let Some(clocks) = &self.current.clocks {
                (*clocks.get_unchecked(i).get()).write(vc);
            }
        }
        self.cursor = i + 1;
        self.current.len.store(i + 1, Ordering::Release);
    }

    /// Starts a fresh chunk (once per [`CHUNK_EVENTS`] pushes), with a
    /// clock lane iff the segment's chunks have one.
    #[cold]
    fn roll_over(&mut self) {
        let fresh = Arc::new(Chunk::new(self.current.clocks.is_some()));
        self.shared.chunks.lock().push(Arc::clone(&fresh));
        self.current = fresh;
        self.cursor = 0;
    }
}

impl Drop for ThreadSegment {
    fn drop(&mut self) {
        // Publish "no further events" with release ordering: a drain
        // that observes the flag also observes every push this writer
        // made, so the segment can be pruned without losing events.
        self.shared.writer_closed.store(true, Ordering::Release);
    }
}

/// Everything the recorder shares with drains and live segments.
#[derive(Debug, Default)]
struct RecShared {
    /// Every thread segment ever registered. Entries whose writer is
    /// gone are pruned once fully drained.
    segments: Mutex<Vec<Arc<SegmentShared>>>,
}

/// A monotonic nanosecond clock cheap enough to call once per recorded
/// event.
///
/// `Instant::now` is a vDSO `clock_gettime` — fine in isolation, but
/// the single largest cost of an instrumented monitor op once the
/// locks are gone. On x86_64 the clock therefore self-calibrates to
/// the TSC: early reads go through `Instant` while accumulating a
/// calibration baseline; once [`CALIBRATION_WINDOW`] has elapsed, the
/// first read after it freezes the measured rate as a 32.32
/// fixed-point ns-per-tick multiplier, and every later read is one
/// `rdtsc`, a relaxed load of the multiplier (a plain load on x86_64),
/// one 64×64→128-bit multiply and a shift — no floating point.
///
/// The rate is frozen once (a racing calibrator never replaces it,
/// which could step a reader back) and rounded *up*: the calibrating
/// read returns its `Instant` value `e` at tick count `t`, and every
/// later read sees at least `t` ticks, so it reads at least
/// `t · ⌈e·2³²/t⌉ / 2³² ≥ e` — the switch never steps backwards. Both
/// `Instant`–TSC pairings (at creation and at calibration) are
/// bracketed by two `rdtsc`s and taken at the bracket's midpoint; a
/// calibrating read whose bracket is wider than a ten-thousandth of
/// the ticks since creation (a preemption between the two clock
/// reads) is skipped and the next read tries again, so the rate error
/// is bounded by the bracket width over the calibration window — a few
/// ppm on a quiet host, never more than 100. Timer rules compare event
/// stamps against checkpoint times from this same clock, so a bounded
/// rate error cancels out of every age computation.
#[derive(Debug)]
struct FastClock {
    origin: Instant,
    /// Frozen ns-per-tick rate in 32.32 fixed point, rounded up; `0`
    /// while uncalibrated.
    #[cfg(target_arch = "x86_64")]
    mult: AtomicU64,
    /// TSC reading paired with `origin`.
    #[cfg(target_arch = "x86_64")]
    origin_ticks: u64,
    /// Whether the TSC is invariant (see [`tsc_is_invariant`]);
    /// `false` pins the clock to the `Instant` path forever.
    #[cfg(target_arch = "x86_64")]
    tsc_usable: bool,
}

/// How long the clock observes `Instant` before freezing the TSC rate.
#[cfg(target_arch = "x86_64")]
const CALIBRATION_WINDOW: u64 = 10_000_000; // 10 ms in ns

/// Whether the CPU advertises an invariant TSC
/// (CPUID.8000_0007H:EDX[8]): constant rate across P-/C-states and
/// synchronized across cores. Without it the calibrated rate would be
/// meaningless, so the clock then never leaves the `Instant` path.
#[cfg(target_arch = "x86_64")]
fn tsc_is_invariant() -> bool {
    // CPUID is architecturally available on x86_64 (safe intrinsic).
    if std::arch::x86_64::__cpuid(0x8000_0000).eax < 0x8000_0007 {
        return false;
    }
    std::arch::x86_64::__cpuid(0x8000_0007).edx & (1 << 8) != 0
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn rdtsc() -> u64 {
    // SAFETY: the TSC is architecturally guaranteed on x86_64.
    unsafe { std::arch::x86_64::_rdtsc() }
}

/// One `Instant` read bracketed by two TSC reads: the instant, the
/// bracket's midpoint tick and its width in ticks.
#[cfg(target_arch = "x86_64")]
fn paired_read() -> (Instant, u64, u64) {
    let before = rdtsc();
    let now = Instant::now();
    let after = rdtsc().max(before);
    (now, before + (after - before) / 2, after - before)
}

impl FastClock {
    fn new() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            // The narrowest of a few brackets: one preempted pairing
            // would skew the origin by the length of the preemption.
            let (origin, origin_ticks, _) = (0..4)
                .map(|_| paired_read())
                .min_by_key(|&(_, _, width)| width)
                .expect("four pairings");
            FastClock {
                origin,
                mult: AtomicU64::new(0),
                origin_ticks,
                tsc_usable: tsc_is_invariant(),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        FastClock { origin: Instant::now() }
    }

    /// Nanoseconds since the clock was created (see the type docs).
    #[inline(always)]
    fn now(&self) -> Nanos {
        #[cfg(target_arch = "x86_64")]
        {
            let mult = self.mult.load(Ordering::Relaxed);
            if mult != 0 {
                let ticks = rdtsc().saturating_sub(self.origin_ticks);
                Nanos::new(((ticks as u128 * mult as u128) >> 32) as u64)
            } else {
                self.calibrating_now()
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        Nanos::new(self.origin.elapsed().as_nanos().min(u64::MAX as u128) as u64)
    }

    /// The pre-calibration slow path: answers from `Instant` and, once
    /// the window has elapsed with a tight pairing, freezes the rate.
    #[cfg(target_arch = "x86_64")]
    #[cold]
    fn calibrating_now(&self) -> Nanos {
        let (now, mid, width) = paired_read();
        let elapsed = now.duration_since(self.origin).as_nanos().min(u64::MAX as u128) as u64;
        let ticks = mid.saturating_sub(self.origin_ticks);
        if self.tsc_usable
            && elapsed >= CALIBRATION_WINDOW
            && ticks > 0
            && width.saturating_mul(10_000) <= ticks
        {
            // Rounded up (see the type docs); a multiplier that does
            // not fit leaves the clock on `Instant`.
            let mult = ((elapsed as u128) << 32).div_ceil(ticks as u128);
            if let Ok(mult) = u64::try_from(mult) {
                // The first frozen rate stays.
                let _ = self.mult.compare_exchange(0, mult, Ordering::Relaxed, Ordering::Relaxed);
            }
        }
        Nanos::new(elapsed)
    }
}

/// Thread-safe event recorder with a monotonic wall clock.
///
/// The hot path ([`Recorder::record`]) draws the global sequence number
/// from an atomic counter and appends to a per-thread segment — no lock
/// shared between recording threads. [`Recorder::drain_window`] merges
/// the segments back into the single globally-ordered window the
/// checking algorithms expect. See the module docs above.
#[derive(Debug)]
pub struct Recorder {
    token: u64,
    next_seq: AtomicU64,
    shared: Arc<RecShared>,
    clock: FastClock,
    /// Happens-before clock table, present only when the recorder was
    /// built with [`Recorder::with_clocks`] (the predictive-detection
    /// opt-in). `None` keeps the hot path exactly as lock-free as
    /// before — [`Recorder::record_on`] never touches a lock then —
    /// and the chunks without a clock lane.
    vclocks: Option<Mutex<ClockTable>>,
}

/// The shared half of vector-clock maintenance: slot assignment and the
/// per-monitor clocks that carry cross-thread edges. Guarded by one
/// mutex; [`Recorder::record_on`] draws the event's sequence number
/// *inside* the critical section, which is what makes every
/// happens-before edge point at a smaller `seq` (the executed total
/// order stays a linear extension of the recorded partial order).
#[derive(Debug, Default)]
struct ClockTable {
    /// Next thread slot to hand out (first clocked event of a thread).
    /// Slots at or beyond [`VClock::CAPACITY`] saturate — soundly.
    next_slot: usize,
    /// Per-monitor clocks: the lub of every releasing thread's clock.
    monitors: HashMap<MonitorId, VClock>,
}

thread_local! {
    /// The calling thread's writer segments, keyed by recorder token.
    /// Entries whose recorder is gone are pruned when a new segment is
    /// installed.
    static SEGMENTS: RefCell<Vec<(u64, Weak<RecShared>, ThreadSegment)>> =
        const { RefCell::new(Vec::new()) };
}

impl Recorder {
    /// Creates a recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            token: NEXT_RECORDER_TOKEN.fetch_add(1, Ordering::Relaxed),
            next_seq: AtomicU64::new(1),
            shared: Arc::new(RecShared::default()),
            clock: FastClock::new(),
            vclocks: None,
        }
    }

    /// Creates a recorder that additionally stamps every event with a
    /// happens-before [`VClock`] at segment publication — the recording
    /// half of predictive detection (`rmon_core::detect::predict`).
    ///
    /// Clocked recording serializes the merge/tick/publish dance (and
    /// the sequence draw) through one mutex, trading the lock-free hot
    /// path for annotated events, and gives every chunk a clock lane
    /// (36 more bytes per event in flight); that is why it is a
    /// constructor-time opt-in rather than a default.
    pub fn with_clocks() -> Self {
        Recorder { vclocks: Some(Mutex::new(ClockTable::default())), ..Self::new() }
    }

    /// Whether events are being stamped with happens-before clocks.
    pub fn clocks_enabled(&self) -> bool {
        self.vclocks.is_some()
    }

    /// Monotonic nanoseconds since the recorder was created (a
    /// self-calibrating TSC clock on x86_64 — see `FastClock`).
    #[inline]
    pub fn now(&self) -> Nanos {
        self.clock.now()
    }

    /// Stamps an event with the current time and the next global
    /// sequence number — the lock-free half of [`Recorder::record_on`].
    #[inline(always)]
    fn stamp(&self, monitor: MonitorId, pid: Pid, proc_name: ProcName, kind: EventKind) -> Stamp {
        Stamp {
            seq: self.next_seq.fetch_add(1, Ordering::Relaxed),
            time: self.now(),
            monitor,
            pid,
            proc_name,
            kind,
        }
    }

    /// Stamps one event and appends it to `segment` — the entry point
    /// shared by [`Recorder::record`] and the runtime's recording path.
    ///
    /// Without clocks this is exactly the old stamp-and-push. With
    /// clocks ([`Recorder::with_clocks`]) the whole dance runs under
    /// the clock-table mutex: assign the thread a slot on first use,
    /// merge the monitor clock on synchronizing events (everything but
    /// a *blocked* `Enter`, which is recorded before acquisition), tick
    /// the thread clock, stamp, publish the thread clock to the monitor
    /// on releasing events (`Wait` / `Signal-Exit` / `Terminate`), and
    /// draw `seq` — inside the lock, so happens-before edges always
    /// point at smaller sequence numbers. The clock goes into the
    /// segment's clock lane, beside the stamp.
    pub(crate) fn record_on(
        &self,
        segment: &mut ThreadSegment,
        monitor: MonitorId,
        pid: Pid,
        proc_name: ProcName,
        kind: EventKind,
    ) -> Event {
        let (stamp, vc) = match &self.vclocks {
            None => (self.stamp(monitor, pid, proc_name, kind), VClock::UNSET),
            Some(table) => {
                let mut table = table.lock();
                if !segment.clock.is_set() {
                    let slot = table.next_slot;
                    table.next_slot += 1;
                    segment.clock = VClock::for_slot(slot);
                }
                if !matches!(kind, EventKind::Enter { granted: false }) {
                    if let Some(m) = table.monitors.get(&monitor) {
                        segment.clock.merge(m);
                    }
                }
                segment.clock.tick();
                if matches!(
                    kind,
                    EventKind::Wait { .. } | EventKind::SignalExit { .. } | EventKind::Terminate
                ) {
                    table.monitors.entry(monitor).or_insert(VClock::UNSET).merge(&segment.clock);
                }
                (self.stamp(monitor, pid, proc_name, kind), segment.clock)
            }
        };
        segment.push(stamp, vc);
        stamp.event(vc)
    }

    /// Registers (and returns) a fresh per-thread writer segment. The
    /// caller owns the writer side; the recorder keeps the drain side.
    pub(crate) fn new_thread_segment(&self) -> ThreadSegment {
        let shared = Arc::new(SegmentShared::default());
        let current = Arc::new(Chunk::new(self.clocks_enabled()));
        shared.chunks.lock().push(Arc::clone(&current));
        self.shared.segments.lock().push(Arc::clone(&shared));
        ThreadSegment { shared, current, cursor: 0, clock: VClock::UNSET }
    }

    /// Records one event at the current time, into the calling thread's
    /// segment (created and cached on first use).
    ///
    /// This is the **standalone** entry point (tests, benches, direct
    /// recorder users) and keeps its own thread-local segment cache,
    /// keyed by recorder token. The runtime does not come through
    /// here: `rmon_rt::registry` caches a `ThreadSegment` (obtained
    /// from `Recorder::new_thread_segment`) together with the
    /// thread's producer handle under the *runtime* token, so its hot
    /// path pays one thread-local lookup for both. Both caches hand
    /// out segments from the same registry, and extra segments per
    /// thread are sound by construction (any single-writer segment
    /// is; the window merge restores the global order).
    pub fn record(
        &self,
        monitor: MonitorId,
        pid: Pid,
        proc_name: ProcName,
        kind: EventKind,
    ) -> Event {
        SEGMENTS.with(|cell| {
            let mut entries = cell.borrow_mut();
            if let Some(entry) = entries.iter_mut().find(|(t, ..)| *t == self.token) {
                return self.record_on(&mut entry.2, monitor, pid, proc_name, kind);
            }
            entries.retain(|(_, rec, _)| rec.strong_count() > 0);
            let mut segment = self.new_thread_segment();
            let event = self.record_on(&mut segment, monitor, pid, proc_name, kind);
            entries.push((self.token, Arc::downgrade(&self.shared), segment));
            event
        })
    }

    /// Takes the current checking window out of the recorder without
    /// copying an event: every event published since the last hand-over
    /// now belongs to the returned [`Handover`] and to no later one.
    /// This is the step a checkpoint runs while monitors are suspended;
    /// it costs one pointer move per chunk (1024 events).
    ///
    /// Concurrent hand-overs are serialized on the segment registry; a
    /// hand-over concurrent with recording takes a prefix of each
    /// thread's stream (per-pid order is preserved — a thread's
    /// remaining events all carry higher sequence numbers and land in
    /// the next window).
    pub fn hand_over(&self) -> Handover {
        let mut segments = self.shared.segments.lock();
        let mut streams = Vec::with_capacity(segments.len());
        segments.retain(|seg| {
            let stream = seg.hand_over();
            if !stream.is_empty() {
                streams.push(stream);
            }
            // Prune segments whose writer handle is gone (thread exited
            // or runtime state pruned) once nothing is left to take;
            // `exhausted` orders the emptiness check after the writer's
            // final publication.
            !seg.exhausted()
        });
        Handover { streams }
    }

    /// Drains the current checking window: [`Self::hand_over`] and
    /// [`Handover::merge_into`] a fresh buffer, back to back.
    pub fn drain_window(&self) -> Vec<Event> {
        let mut window = Vec::new();
        self.hand_over().merge_into(&mut window);
        window
    }

    /// Total events recorded (sequence numbers issued).
    pub fn total(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed) - 1
    }

    /// Buffered (undrained) events across all thread segments.
    pub fn pending(&self) -> usize {
        self.shared.segments.lock().iter().map(|s| s.pending()).sum()
    }
}

/// One checking window as it left the recorder
/// ([`Recorder::hand_over`]): per recording thread, the chunk ranges
/// holding its events, not yet merged. The contents are fixed — threads
/// that keep recording, even into a chunk this window shares, add
/// nothing to it and change nothing in it — so it can be merged at
/// leisure, on any thread. Dropping it unmerged discards the window.
#[derive(Debug)]
pub struct Handover {
    /// Non-empty streams of non-empty ranges.
    streams: Vec<Vec<ChunkRange>>,
}

/// One stream's read position in [`Handover::merge_into`]: slot `at`
/// of the current range's lanes, and the ranges behind it.
struct Cursor<'a> {
    stamps: &'a [Stamp],
    clocks: Option<&'a [VClock]>,
    at: usize,
    rest: std::slice::Iter<'a, ChunkRange>,
}

impl<'a> Cursor<'a> {
    /// A cursor on the stream's first event; `None` for an empty
    /// stream.
    fn new(stream: &'a [ChunkRange]) -> Option<Self> {
        let mut cursor = Cursor { stamps: &[], clocks: None, at: 0, rest: stream.iter() };
        cursor.next_range().then_some(cursor)
    }

    /// Moves to the next range (ranges are never empty); `false` when
    /// none is left.
    fn next_range(&mut self) -> bool {
        let Some(range) = self.rest.next() else { return false };
        (self.stamps, self.clocks, self.at) = (range.stamps(), range.clocks(), 0);
        true
    }

    fn head_seq(&self) -> u64 {
        self.stamps[self.at].seq
    }

    /// Takes the head event and advances; `false` when the stream is
    /// exhausted.
    fn take(&mut self, out: &mut Vec<Event>) -> bool {
        let vc = self.clocks.map_or(VClock::UNSET, |clocks| clocks[self.at]);
        out.push(self.stamps[self.at].event(vc));
        self.at += 1;
        self.at < self.stamps.len() || self.next_range()
    }
}

impl Handover {
    /// Events in the window.
    pub fn len(&self) -> usize {
        self.streams.iter().flatten().map(|range| range.end - range.start).sum()
    }

    /// Whether the window holds no event.
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    /// Appends the window to `out`, k-way merged into global `seq`
    /// order, each event rebuilt once from its chunk slots (the stamp,
    /// and the clock if the chunk has a clock lane); the chunks are
    /// freed on return.
    ///
    /// A single stream is appended range by range without any per-event
    /// comparison. Otherwise the merge is a repeated min-head selection
    /// — the stream count is the *thread* count, small enough that a
    /// heap would cost more than it saves.
    pub fn merge_into(self, out: &mut Vec<Event>) {
        out.reserve(self.len());
        if let [stream] = self.streams.as_slice() {
            for range in stream {
                range.append_to(out);
            }
            return;
        }
        let mut cursors: Vec<Cursor<'_>> =
            self.streams.iter().filter_map(|s| Cursor::new(s)).collect();
        while !cursors.is_empty() {
            let mut best = 0;
            let mut best_seq = cursors[0].head_seq();
            for (i, cursor) in cursors.iter().enumerate().skip(1) {
                if cursor.head_seq() < best_seq {
                    best = i;
                    best_seq = cursor.head_seq();
                }
            }
            if !cursors[best].take(out) {
                cursors.swap_remove(best);
            }
        }
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmon_core::CondId;

    #[test]
    fn records_with_monotone_seq_and_time() {
        let r = Recorder::new();
        let a = r.record(
            MonitorId::new(0),
            Pid::new(1),
            ProcName::new(0),
            EventKind::Enter { granted: true },
        );
        let b = r.record(
            MonitorId::new(0),
            Pid::new(1),
            ProcName::new(0),
            EventKind::SignalExit { cond: None, resumed_waiter: false },
        );
        assert!(a.seq < b.seq);
        assert!(a.time <= b.time);
        assert_eq!(r.total(), 2);
        assert_eq!(r.pending(), 2);
    }

    #[test]
    fn drain_clears_window_but_not_totals() {
        let r = Recorder::new();
        r.record(
            MonitorId::new(0),
            Pid::new(1),
            ProcName::new(0),
            EventKind::Enter { granted: true },
        );
        assert_eq!(r.drain_window().len(), 1);
        assert_eq!(r.pending(), 0);
        assert_eq!(r.total(), 1);
    }

    #[test]
    fn concurrent_recording_keeps_unique_seqs_and_merges_sorted() {
        use std::sync::Arc;
        let r = Arc::new(Recorder::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let r = Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    r.record(
                        MonitorId::new(0),
                        Pid::new(t),
                        ProcName::new(0),
                        EventKind::Enter { granted: true },
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let events = r.drain_window();
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq), "window sorted by seq");
        let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), 400);
        assert_eq!(r.total(), 400);
    }

    #[test]
    fn chunk_rollover_loses_nothing() {
        // Drive one thread far past a chunk boundary, draining
        // mid-stream, and verify the union of windows is gapless.
        let r = Recorder::new();
        let total = CHUNK_EVENTS * 2 + 37;
        let mut drained = Vec::new();
        for i in 0..total {
            r.record(
                MonitorId::new(0),
                Pid::new(1),
                ProcName::new(0),
                EventKind::Enter { granted: true },
            );
            if i % 777 == 0 {
                drained.extend(r.drain_window());
            }
        }
        drained.extend(r.drain_window());
        assert_eq!(drained.len(), total);
        assert!(drained.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn two_recorders_on_one_thread_keep_separate_streams() {
        let a = Recorder::new();
        let b = Recorder::new();
        a.record(MonitorId::new(0), Pid::new(1), ProcName::new(0), EventKind::Terminate);
        a.record(MonitorId::new(0), Pid::new(1), ProcName::new(0), EventKind::Terminate);
        b.record(MonitorId::new(9), Pid::new(2), ProcName::new(0), EventKind::Terminate);
        assert_eq!(a.drain_window().len(), 2);
        let bw = b.drain_window();
        assert_eq!(bw.len(), 1);
        assert_eq!(bw[0].monitor, MonitorId::new(9));
    }

    #[test]
    fn dead_thread_segments_are_drained_then_pruned() {
        let r = Arc::new(Recorder::new());
        let r2 = Arc::clone(&r);
        std::thread::spawn(move || {
            r2.record(MonitorId::new(0), Pid::new(7), ProcName::new(0), EventKind::Terminate);
        })
        .join()
        .unwrap();
        // The writer thread is gone; its events must still drain.
        assert_eq!(r.drain_window().len(), 1);
        // And its now-empty segment must have been pruned.
        assert_eq!(r.shared.segments.lock().len(), 0);
    }

    /// The drain this module had before hand-over, kept as the
    /// reference: copy event by event out of every chunk under the
    /// registry lock, then sort the copies by `seq`.
    fn drain_per_event(r: &Recorder) -> Vec<Event> {
        let mut window = Vec::new();
        r.shared.segments.lock().retain(|seg| {
            seg.chunks.lock().retain(|chunk| {
                let n = chunk.len.load(Ordering::Acquire);
                let t = chunk.taken.load(Ordering::Relaxed);
                for i in t..n {
                    // SAFETY: slots below the acquire-loaded `len` are
                    // fully written and never written again.
                    let stamp = unsafe { (*chunk.stamps[i].get()).assume_init() };
                    // SAFETY: the same holds for the clock lane, whose
                    // slot is written before the same release store.
                    let vc = chunk
                        .clocks
                        .as_ref()
                        .map_or(VClock::UNSET, |lane| unsafe { (*lane[i].get()).assume_init() });
                    window.push(stamp.event(vc));
                }
                chunk.taken.store(n, Ordering::Relaxed);
                n != CHUNK_EVENTS
            });
            !seg.exhausted()
        });
        window.sort_unstable_by_key(|e| e.seq);
        window
    }

    fn push_one(r: &Recorder, segment: &mut ThreadSegment, pid: u32) -> Event {
        r.record_on(
            segment,
            MonitorId::new(pid % 3),
            Pid::new(pid),
            ProcName::new(0),
            EventKind::Enter { granted: true },
        )
    }

    #[test]
    fn hand_over_and_merge_equal_the_per_event_drain() {
        // One deterministic script on two recorders: four writers (as
        // segments, so one thread can interleave them exactly), runs of
        // pushes long enough to roll chunks over, windows taken at
        // irregular points — mid-chunk, on a chunk boundary, twice in a
        // row — and writers closing mid-stream. Window by window the
        // two drains must agree on events and on what is left behind.
        let new = Recorder::new();
        let old = Recorder::new();
        let mut new_segs: Vec<_> = (0..4).map(|_| Some(new.new_thread_segment())).collect();
        let mut old_segs: Vec<_> = (0..4).map(|_| Some(old.new_thread_segment())).collect();
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % bound
        };
        let (mut windows, mut events) = (0, 0);
        for step in 0..400 {
            let writer = next(4) as usize;
            // Exactly one chunk now and then, so a window ends on the
            // boundary with the writer not yet rolled over.
            let burst = if step % 7 == 0 { CHUNK_EVENTS } else { next(700) as usize };
            if let (Some(n), Some(o)) = (&mut new_segs[writer], &mut old_segs[writer]) {
                for _ in 0..burst {
                    let a = push_one(&new, n, writer as u32);
                    let b = push_one(&old, o, writer as u32);
                    assert_eq!(a.seq, b.seq);
                }
            }
            if step == 150 || step == 300 {
                // A writer exits: its segment drains, then is pruned.
                new_segs[step / 150] = None;
                old_segs[step / 150] = None;
            }
            for _ in 0..next(3) {
                let mut got = Vec::new();
                new.hand_over().merge_into(&mut got);
                let want = drain_per_event(&old);
                let key = |w: &[Event]| w.iter().map(|e| (e.seq, e.pid)).collect::<Vec<_>>();
                assert_eq!(key(&got), key(&want), "window {windows}");
                assert_eq!(new.pending(), old.pending());
                assert_eq!(new.shared.segments.lock().len(), old.shared.segments.lock().len());
                windows += 1;
                events += got.len();
            }
        }
        assert_eq!(new.pending() + events, new.total() as usize);
        assert!(windows > 100 && events > 50 * CHUNK_EVENTS, "{windows} windows, {events} events");
        assert_eq!(new.shared.segments.lock().len(), 2, "two writers closed, two live");
    }

    #[test]
    fn one_chunk_handed_over_partially_twice() {
        let r = Recorder::new();
        let mut seg = r.new_thread_segment();
        for _ in 0..10 {
            push_one(&r, &mut seg, 1);
        }
        let first = r.hand_over();
        for _ in 0..5 {
            push_one(&r, &mut seg, 1);
        }
        let second = r.hand_over();
        assert!(r.hand_over().is_empty(), "nothing published since");
        assert_eq!((first.len(), second.len()), (10, 5));
        assert!(
            Arc::ptr_eq(&first.streams[0][0].chunk, &second.streams[0][0].chunk),
            "both windows are ranges of the writer's current chunk"
        );
        // Merged out of order, and both into one buffer: each holds
        // exactly its own range.
        let mut out = Vec::new();
        second.merge_into(&mut out);
        first.merge_into(&mut out);
        let seqs: Vec<u64> = out.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (11..=15).chain(1..=10).collect::<Vec<u64>>());
    }

    #[test]
    fn a_window_is_fixed_once_handed_over() {
        // The writer pushes on — into the very chunk the window shares,
        // then past its end — before the window is read.
        let r = Recorder::new();
        let mut seg = r.new_thread_segment();
        for _ in 0..10 {
            push_one(&r, &mut seg, 1);
        }
        let window = r.hand_over();
        for _ in 0..2 * CHUNK_EVENTS {
            push_one(&r, &mut seg, 1);
        }
        let mut out = Vec::new();
        window.merge_into(&mut out);
        assert_eq!(out.iter().map(|e| e.seq).collect::<Vec<u64>>(), (1..=10).collect::<Vec<u64>>());
        // And the rest is all there for the next window, across the
        // shared chunk's remainder, a full chunk and a partial one.
        let rest = r.drain_window();
        assert_eq!(rest.len(), 2 * CHUNK_EVENTS);
        assert_eq!(rest[0].seq, 11);
        assert!(rest.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
        // A window dropped unmerged is gone, not re-delivered.
        push_one(&r, &mut seg, 1);
        drop(r.hand_over());
        assert_eq!(r.pending(), 0);
        assert!(r.drain_window().is_empty());
    }

    #[test]
    fn stamp_fits_in_half_an_event() {
        // A chunk slot is the event without its clock; growing it past
        // 32 bytes costs memory on every event in flight.
        assert!(std::mem::size_of::<Stamp>() <= 32, "{}", std::mem::size_of::<Stamp>());
    }

    /// `n` events on the calling thread with every field varied, as
    /// `record` returned them.
    fn record_varied(r: &Recorder, thread: u32, n: usize) -> Vec<Event> {
        (0..n as u32)
            .map(|i| {
                let cond = CondId::new((i % 5) as u16);
                let kind = match i % 5 {
                    0 => EventKind::Enter { granted: i % 2 == 0 },
                    1 => EventKind::Wait { cond },
                    2 => EventKind::SignalExit { cond: Some(cond), resumed_waiter: true },
                    3 => EventKind::SignalExit { cond: None, resumed_waiter: false },
                    _ => EventKind::Terminate,
                };
                let pid = Pid::new(100 * thread + i % 3);
                r.record(MonitorId::new(i % 7), pid, ProcName::new((i % 4) as u16), kind)
            })
            .collect()
    }

    #[test]
    fn compact_chunks_keep_every_field() {
        // One thread, then two at once, each past two chunk boundaries
        // (a window of one stream is appended range by range, one of
        // two is merged event by event): what the window holds must be
        // exactly what `record` returned, clock included when the
        // recorder keeps clocks and unset when it does not.
        let per_thread = 2 * CHUNK_EVENTS + 101;
        for clocked in [false, true] {
            let r = Arc::new(if clocked { Recorder::with_clocks() } else { Recorder::new() });
            for threads in [1, 2] {
                let writers: Vec<_> = (0..threads)
                    .map(|t| {
                        let r = Arc::clone(&r);
                        std::thread::spawn(move || record_varied(&r, t, per_thread))
                    })
                    .collect();
                let mut recorded: Vec<Event> =
                    writers.into_iter().flat_map(|w| w.join().unwrap()).collect();
                recorded.sort_unstable_by_key(|e| e.seq);
                assert!(recorded.iter().all(|e| e.vc.is_set() == clocked), "clocked: {clocked}");
                assert_eq!(r.drain_window(), recorded, "clocked: {clocked}, {threads} threads");
                assert_eq!(r.pending(), 0);
            }
        }
    }

    #[test]
    fn fast_clock_is_monotone_and_agrees_with_instant_past_calibration() {
        // Read from creation to 30 ms past the calibration window, so
        // the clock crosses from `Instant` to the TSC (on hosts with an
        // invariant TSC; elsewhere it stays on `Instant` throughout).
        use std::time::Duration;
        #[cfg(target_arch = "x86_64")]
        const WINDOW: Duration = Duration::from_nanos(CALIBRATION_WINDOW);
        #[cfg(not(target_arch = "x86_64"))]
        const WINDOW: Duration = Duration::ZERO;
        let clock = FastClock::new();
        let start = Instant::now();
        // A clock read paired with `Instant`, retried until no
        // preemption widened the pairing.
        let paired = || loop {
            let before = Instant::now();
            let read = clock.now();
            let after = Instant::now();
            if after - before < Duration::from_micros(50) {
                return (before + (after - before) / 2, read);
            }
        };
        let mut last = clock.now();
        let mut first_calibrated = None;
        while start.elapsed() < WINDOW + Duration::from_millis(30) {
            let now = clock.now();
            assert!(now >= last, "clock stepped back: {last} -> {now}");
            last = now;
            if first_calibrated.is_none() && start.elapsed() > WINDOW + Duration::from_millis(1) {
                first_calibrated = Some(paired());
            }
        }
        #[cfg(target_arch = "x86_64")]
        assert!(
            !clock.tsc_usable || clock.mult.load(Ordering::Relaxed) != 0,
            "an invariant TSC is in use once the window has passed"
        );
        let (i0, c0) = first_calibrated.expect("read past the window");
        let (i1, c1) = paired();
        let by_instant = (i1 - i0).as_nanos() as f64;
        let by_clock = c1.as_nanos().saturating_sub(c0.as_nanos()) as f64;
        assert!(by_instant >= 20e6, "{by_instant} ns measured");
        assert!(
            (by_clock - by_instant).abs() <= by_instant / 100.0,
            "clock {by_clock} ns vs Instant {by_instant} ns"
        );
    }
}
