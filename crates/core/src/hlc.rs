//! Hybrid logical clocks for merging cross-worker event order.
//!
//! The distributed detection service (`rmon-net`) receives event
//! batches from N independent worker processes, each stamping events
//! with its own monotone [`Nanos`] clock. Detection itself needs only
//! per-session FIFO order (the engine's watermarks are per
//! `(monitor, pid)` — see `crate::detect::shard`), but the *fleet*
//! still wants one timeline that respects causality across workers:
//! service-side checkpoint times must not run backwards relative to
//! any event already ingested, and operators want a bounded notion of
//! clock skew between workers.
//!
//! [`Hlc`] is a standard hybrid logical clock (Kulkarni et al., "Logical
//! Physical Clocks"): a stamp is a `(physical, logical)` pair where
//! `physical` tracks the largest wall/virtual time seen and `logical`
//! breaks ties among stamps sharing that physical time. Stamps are
//! totally ordered, monotone per clock, and [`Hlc::observe`] makes a
//! receive causally follow the send — unlike [`crate::VClock`] (which
//! captures the *partial* order for prediction), an HLC deliberately
//! produces a total order that is *consistent with* happens-before.
//!
//! # Examples
//!
//! ```
//! use rmon_core::hlc::Hlc;
//! use rmon_core::Nanos;
//!
//! let mut sender = Hlc::new();
//! let mut receiver = Hlc::new();
//!
//! // The sender stamps a message at its local time 100.
//! let sent = sender.tick(Nanos::new(100));
//! // The receiver's wall clock lags (time 40), but observing the
//! // message still orders the receive after the send.
//! let received = receiver.observe(sent, Nanos::new(40));
//! assert!(received > sent);
//! ```

use crate::time::Nanos;
use std::fmt;

/// One hybrid-logical-clock stamp: the largest physical time the
/// stamping clock had seen, plus a logical tie-breaker. The derived
/// lexicographic `Ord` (physical first, then logical) *is* the HLC
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct HlcStamp {
    /// Physical component: the max of the clock's local time and every
    /// observed remote stamp's physical time.
    pub physical: Nanos,
    /// Logical component: increments to order stamps that share a
    /// physical time; resets to zero when physical advances.
    pub logical: u32,
}

impl HlcStamp {
    /// The zero stamp (what a fresh clock has seen).
    pub const ZERO: HlcStamp = HlcStamp { physical: Nanos::ZERO, logical: 0 };

    /// A stamp at `physical` with a zero logical component.
    pub const fn at(physical: Nanos) -> HlcStamp {
        HlcStamp { physical, logical: 0 }
    }
}

impl fmt::Display for HlcStamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}+{}", self.physical, self.logical)
    }
}

/// A hybrid logical clock: issues monotone [`HlcStamp`]s from a local
/// [`Nanos`] clock ([`Hlc::tick`]) and merges stamps received from
/// other clocks ([`Hlc::observe`]). Not internally synchronized — wrap
/// it in a mutex to share across threads (the net service holds one
/// per fleet).
#[derive(Debug, Clone, Copy, Default)]
pub struct Hlc {
    last: HlcStamp,
}

impl Hlc {
    /// A fresh clock that has seen nothing (its next stamp strictly
    /// follows [`HlcStamp::ZERO`]).
    pub fn new() -> Hlc {
        Hlc::default()
    }

    /// The last stamp issued or observed.
    pub fn last(&self) -> HlcStamp {
        self.last
    }

    /// Issues the next stamp for a local event at local time `now`:
    /// strictly greater than every stamp this clock has issued or
    /// observed, and `>= HlcStamp::at(now)`.
    pub fn tick(&mut self, now: Nanos) -> HlcStamp {
        if now > self.last.physical {
            self.last = HlcStamp::at(now);
        } else {
            self.last.logical = self.last.logical.saturating_add(1);
        }
        self.last
    }

    /// Merges a stamp received from another clock and issues the stamp
    /// of the receive: strictly greater than both `remote` and every
    /// stamp this clock has issued or observed, and `>=
    /// HlcStamp::at(now)`.
    pub fn observe(&mut self, remote: HlcStamp, now: Nanos) -> HlcStamp {
        let physical = self.last.physical.max(remote.physical).max(now);
        let logical = if physical == self.last.physical && physical == remote.physical {
            self.last.logical.max(remote.logical).saturating_add(1)
        } else if physical == self.last.physical {
            self.last.logical.saturating_add(1)
        } else if physical == remote.physical {
            remote.logical.saturating_add(1)
        } else {
            0
        };
        self.last = HlcStamp { physical, logical };
        self.last
    }

    /// How far ahead of local time `now` the clock's physical component
    /// has been pushed by observed remote stamps — the fleet's apparent
    /// clock skew, zero when this clock's own time dominates.
    pub fn skew(&self, now: Nanos) -> Nanos {
        self.last.physical.saturating_since(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_is_strictly_monotone_even_with_a_stuck_clock() {
        let mut hlc = Hlc::new();
        let mut prev = HlcStamp::ZERO;
        for _ in 0..100 {
            let s = hlc.tick(Nanos::new(50)); // clock never advances
            assert!(s > prev);
            assert_eq!(s.physical, Nanos::new(50));
            prev = s;
        }
        // A real time advance resets the logical component.
        let s = hlc.tick(Nanos::new(51));
        assert_eq!(s, HlcStamp::at(Nanos::new(51)));
    }

    #[test]
    fn observe_orders_receive_after_send() {
        let mut a = Hlc::new();
        let mut b = Hlc::new();
        let sent = a.tick(Nanos::new(1_000));
        // Receiver's clock is far behind the sender's.
        let recv = b.observe(sent, Nanos::new(10));
        assert!(recv > sent, "receive must follow send: {recv:?} vs {sent:?}");
        // And the receiver's next local stamp follows the receive.
        assert!(b.tick(Nanos::new(11)) > recv);
    }

    #[test]
    fn observe_tracks_the_max_of_all_inputs() {
        let mut hlc = Hlc::new();
        hlc.tick(Nanos::new(500));
        // Local time dominates a stale remote stamp.
        let s = hlc.observe(HlcStamp::at(Nanos::new(20)), Nanos::new(600));
        assert_eq!(s, HlcStamp::at(Nanos::new(600)));
        // A remote stamp ahead of local time dominates (skew visible).
        let s = hlc.observe(HlcStamp { physical: Nanos::new(900), logical: 3 }, Nanos::new(601));
        assert_eq!(s, HlcStamp { physical: Nanos::new(900), logical: 4 });
        assert_eq!(hlc.skew(Nanos::new(601)), Nanos::new(299));
        assert_eq!(hlc.skew(Nanos::new(1_000)), Nanos::ZERO);
    }

    #[test]
    fn equal_physical_times_merge_logical_components() {
        let mut hlc = Hlc::new();
        hlc.tick(Nanos::new(100)); // last = (100, 0)
        let s = hlc.observe(HlcStamp { physical: Nanos::new(100), logical: 7 }, Nanos::new(100));
        assert_eq!(s, HlcStamp { physical: Nanos::new(100), logical: 8 });
    }

    #[test]
    fn stamps_order_lexicographically() {
        let a = HlcStamp { physical: Nanos::new(5), logical: 9 };
        let b = HlcStamp { physical: Nanos::new(6), logical: 0 };
        let c = HlcStamp { physical: Nanos::new(6), logical: 1 };
        assert!(a < b && b < c);
        assert_eq!(HlcStamp::ZERO, HlcStamp::default());
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(HlcStamp { physical: Nanos::new(42), logical: 3 }.to_string(), "42ns+3");
    }
}
