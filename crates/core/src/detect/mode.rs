//! The per-monitor **instrumentation mode** machinery of the queued
//! shard core: the [`ModePolicy`] knobs, the deterministic
//! [`ModeController`] tighten/relax state machine, and the lock-free
//! mode cell observers read on every record.
//!
//! Each monitor on a queued core ([`crate::detect::AsyncBackend`])
//! carries a [`ModeController`]:
//!
//! * any **near-violation signal** since the last checkpoint (a denied
//!   call from the [`crate::detect::DetectionBackend::call_would_violate`]
//!   lookahead, a violation drained or reported for the monitor, or the
//!   monitor's shard queue exceeding [`ModePolicy::queue_high_water`])
//!   tightens the monitor to [`Mode::Sync`] at the next checkpoint;
//! * [`ModePolicy::relax_after`] consecutive *clean* checkpoints relax
//!   it back to the configured base mode.
//!
//! Observing threads read the resulting per-monitor mode through
//! [`crate::detect::DetectionBackend::instrumentation_mode`] (a single
//! atomic load from the monitor's mode cell), so the runtime's record
//! path follows the controller without locks.

use crate::config::Mode;
use crate::time::Nanos;
use std::sync::atomic::{AtomicU64, Ordering};

/// How the adaptive controller moves a monitor between modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModePolicy {
    /// Consecutive clean checkpoints before a tightened monitor
    /// relaxes back to the base mode.
    pub relax_after: u32,
    /// A shard delivery queue deeper than this at checkpoint time
    /// counts as a near-violation signal for every monitor on the
    /// shard (detection is falling behind, so tighten the coupling).
    pub queue_high_water: usize,
}

impl Default for ModePolicy {
    /// Two clean checkpoints to relax; queues past 4096 undelivered
    /// events signal.
    fn default() -> Self {
        ModePolicy { relax_after: 2, queue_high_water: 4096 }
    }
}

/// The deterministic per-monitor tighten/relax state machine.
///
/// Kept free of any backend state so the policy is pinned by plain
/// unit tests: feed checkpoint outcomes in, read the mode out.
///
/// # Examples
///
/// ```
/// use rmon_core::detect::ModeController;
/// use rmon_core::Mode;
///
/// let mut c = ModeController::new(Mode::Async, 2);
/// assert_eq!(c.current(), Mode::Async);
/// assert_eq!(c.on_checkpoint(true), Mode::Sync); // signal: tighten
/// assert_eq!(c.on_checkpoint(false), Mode::Sync); // 1 clean: hold
/// assert_eq!(c.on_checkpoint(false), Mode::Async); // 2 clean: relax
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModeController {
    base: Mode,
    relax_after: u32,
    clean: u32,
    current: Mode,
}

impl ModeController {
    /// A controller starting in `base`, relaxing after `relax_after`
    /// clean checkpoints (clamped to at least 1).
    pub fn new(base: Mode, relax_after: u32) -> Self {
        ModeController { base, relax_after: relax_after.max(1), clean: 0, current: base }
    }

    /// The mode the monitor's observers should use right now.
    pub fn current(&self) -> Mode {
        self.current
    }

    /// Feeds one checkpoint outcome in: `signaled` is whether the
    /// monitor showed any near-violation signal since the previous
    /// checkpoint. Returns the (possibly moved) mode.
    pub fn on_checkpoint(&mut self, signaled: bool) -> Mode {
        if signaled {
            self.clean = 0;
            self.current = Mode::Sync;
        } else if self.current == Mode::Sync && self.base != Mode::Sync {
            self.clean += 1;
            if self.clean >= self.relax_after {
                self.current = self.base;
            }
        }
        self.current
    }
}

/// Lock-free mirror of a monitor's current [`Mode`], read by observers
/// on every record. Tag in the top bits, Hybrid timeout in the low 62
/// (timeouts saturate at ~146 years, which is not a real constraint).
#[derive(Debug)]
pub(crate) struct ModeCell(AtomicU64);

const MODE_TAG_SHIFT: u32 = 62;
const MODE_SYNC: u64 = 0;
const MODE_ASYNC: u64 = 1;
const MODE_HYBRID: u64 = 2;
const MODE_VALUE_MASK: u64 = (1 << MODE_TAG_SHIFT) - 1;

impl ModeCell {
    pub(crate) fn new(mode: Mode) -> Self {
        let cell = ModeCell(AtomicU64::new(0));
        cell.store(mode);
        cell
    }

    pub(crate) fn store(&self, mode: Mode) {
        let bits = match mode {
            Mode::Sync => MODE_SYNC << MODE_TAG_SHIFT,
            Mode::Async => MODE_ASYNC << MODE_TAG_SHIFT,
            Mode::Hybrid(t) => (MODE_HYBRID << MODE_TAG_SHIFT) | (t.as_nanos() & MODE_VALUE_MASK),
        };
        self.0.store(bits, Ordering::Release);
    }

    pub(crate) fn load(&self) -> Mode {
        let bits = self.0.load(Ordering::Acquire);
        match bits >> MODE_TAG_SHIFT {
            MODE_SYNC => Mode::Sync,
            MODE_ASYNC => Mode::Async,
            _ => Mode::Hybrid(Nanos::new(bits & MODE_VALUE_MASK)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_cell_round_trips_every_mode() {
        for mode in
            [Mode::Sync, Mode::Async, Mode::Hybrid(Nanos::ZERO), Mode::Hybrid(Nanos::from_secs(3))]
        {
            let cell = ModeCell::new(mode);
            assert_eq!(cell.load(), mode);
        }
        let cell = ModeCell::new(Mode::Sync);
        cell.store(Mode::Hybrid(Nanos::from_millis(7)));
        assert_eq!(cell.load(), Mode::Hybrid(Nanos::from_millis(7)));
    }

    #[test]
    fn mode_controller_policy_is_pinned() {
        // The exact tighten/relax schedule the adaptive backend runs:
        // any signal snaps to Sync immediately; relax_after consecutive
        // clean checkpoints restore the base mode; a signal mid-count
        // resets the count.
        let mut c = ModeController::new(Mode::Async, 2);
        assert_eq!(c.current(), Mode::Async, "starts at base");
        assert_eq!(c.on_checkpoint(false), Mode::Async, "clean checkpoints keep base");
        assert_eq!(c.on_checkpoint(true), Mode::Sync, "signal tightens immediately");
        assert_eq!(c.on_checkpoint(false), Mode::Sync, "one clean: still tight");
        assert_eq!(c.on_checkpoint(true), Mode::Sync, "signal resets the clean count");
        assert_eq!(c.on_checkpoint(false), Mode::Sync);
        assert_eq!(c.on_checkpoint(false), Mode::Async, "two consecutive clean: relax");
        // A Sync-based controller never relaxes anywhere.
        let mut sync = ModeController::new(Mode::Sync, 1);
        assert_eq!(sync.on_checkpoint(true), Mode::Sync);
        for _ in 0..5 {
            assert_eq!(sync.on_checkpoint(false), Mode::Sync);
        }
        // Hybrid base relaxes back to Hybrid, not Async.
        let hybrid = Mode::Hybrid(Nanos::from_millis(1));
        let mut h = ModeController::new(hybrid, 1);
        assert_eq!(h.on_checkpoint(true), Mode::Sync);
        assert_eq!(h.on_checkpoint(false), hybrid);
        // relax_after is clamped to at least 1.
        let mut zero = ModeController::new(Mode::Async, 0);
        assert_eq!(zero.on_checkpoint(true), Mode::Sync);
        assert_eq!(zero.on_checkpoint(false), Mode::Async);
    }
}
