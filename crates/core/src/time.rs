//! Logical time.
//!
//! The detector is execution-agnostic: the simulator stamps events with
//! virtual nanoseconds, the real-thread runtime with monotonic wall-clock
//! nanoseconds. Both are represented as [`Nanos`], a monotone `u64`
//! nanosecond counter, so the timer rules (`Tmax`, `Tio`, `Tlimit` of
//! §3.3) work identically on either substrate.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// A point in logical time, in nanoseconds since an arbitrary epoch.
///
/// # Examples
///
/// ```
/// use rmon_core::Nanos;
/// let t0 = Nanos::from_millis(1);
/// let t1 = t0 + Nanos::from_micros(500);
/// assert_eq!(t1.saturating_since(t0), Nanos::from_micros(500));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(u64);

impl Nanos {
    /// Time zero (the epoch).
    pub const ZERO: Nanos = Nanos(0);
    /// The largest representable instant.
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// Creates a time from raw nanoseconds.
    pub const fn new(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Creates a time from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Creates a time from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Creates a time from seconds.
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// Returns the raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the value in (truncated) whole milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Returns the value as seconds in floating point.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Elapsed time since `earlier`, saturating to zero if `earlier` is in
    /// the future (timer arithmetic must never underflow).
    pub fn saturating_since(self, earlier: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition.
    pub fn saturating_add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_add(rhs.0))
    }

    /// Converts to a [`std::time::Duration`].
    pub const fn to_duration(self) -> Duration {
        Duration::from_nanos(self.0)
    }
}

impl From<Duration> for Nanos {
    fn from(d: Duration) -> Self {
        Nanos(d.as_nanos().min(u64::MAX as u128) as u64)
    }
}

impl From<Nanos> for Duration {
    fn from(n: Nanos) -> Self {
        n.to_duration()
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    /// # Panics
    ///
    /// Panics in debug mode on underflow; use
    /// [`Nanos::saturating_since`] for timer arithmetic.
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(Nanos::from_micros(1).as_nanos(), 1_000);
        assert_eq!(Nanos::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(Nanos::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(Nanos::from_secs(2).as_millis(), 2_000);
    }

    #[test]
    fn saturating_since_never_underflows() {
        let a = Nanos::new(5);
        let b = Nanos::new(10);
        assert_eq!(b.saturating_since(a), Nanos::new(5));
        assert_eq!(a.saturating_since(b), Nanos::ZERO);
    }

    #[test]
    fn add_and_sub() {
        let a = Nanos::new(5);
        let b = Nanos::new(3);
        assert_eq!(a + b, Nanos::new(8));
        assert_eq!(a - b, Nanos::new(2));
        let mut c = a;
        c += b;
        assert_eq!(c, Nanos::new(8));
    }

    #[test]
    fn duration_roundtrip() {
        let d = Duration::from_millis(250);
        let n: Nanos = d.into();
        assert_eq!(n, Nanos::from_millis(250));
        let back: Duration = n.into();
        assert_eq!(back, d);
    }

    #[test]
    fn display_uses_human_units() {
        assert_eq!(Nanos::new(12).to_string(), "12ns");
        assert_eq!(Nanos::from_micros(3).to_string(), "3.000us");
        assert_eq!(Nanos::from_millis(4).to_string(), "4.000ms");
        assert_eq!(Nanos::from_secs(5).to_string(), "5.000s");
    }

    #[test]
    fn ordering_is_by_instant() {
        assert!(Nanos::ZERO < Nanos::new(1));
        assert!(Nanos::new(1) < Nanos::MAX);
    }

    #[test]
    fn as_secs_f64_matches() {
        assert!((Nanos::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-12);
    }
}
