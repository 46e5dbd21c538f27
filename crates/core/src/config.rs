//! Detector configuration: the timing parameters of §3.2/§3.3.
//!
//! * `Tmax` — the maximum time any process may spend inside a monitor
//!   (running or waiting on a condition); exceeding it indicates
//!   non-termination inside the monitor (FD-2 / ST-5).
//! * `Tio` — the timeout for interpreting deadlock or starvation on the
//!   entry queue (FD-4 / ST-6).
//! * `Tlimit` — the maximum time a process may hold an access right
//!   before `Release` (ST-8c).
//! * `check_interval` (`T`) — how often the periodic checking routine
//!   runs. The paper: *"whenever T is reached the detection routine is
//!   automatically invoked"*, and *"when T = 1, the checking becomes
//!   real-time"*.

use crate::time::Nanos;

/// Whether (and when) the detector runs the predictive pass over the
/// recorded happens-before partial order (see
/// [`crate::detect::predict`]).
///
/// Default **off**: prediction adds clock bookkeeping on the recording
/// hot path and an enumeration pass at checkpoints, so it is strictly
/// opt-in (the `recording_only_ratio` budget is measured with it off).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PredictMode {
    /// No prediction: only the executed schedule is judged.
    #[default]
    Off,
    /// At every checkpoint, enumerate feasible commutations of the
    /// window's concurrent events and report violations that exist in
    /// an equivalent reordering as [`crate::PredictedViolation`]s.
    Checkpoint,
}

impl PredictMode {
    /// Whether prediction is enabled at all.
    pub fn is_on(self) -> bool {
        self != PredictMode::Off
    }
}

/// Instrumentation mode: how long a monitor operation keeps offering
/// its event to the detection layer when the layer pushes back (a full shard inbox,
/// [`Backpressure::Full`](crate::detect::Backpressure::Full)).
///
/// The mode is applied in one place, the embedding runtime's record
/// path (`rmon-rt`'s `RtInner::record_observe`); a producer handle
/// itself never waits on anything but a full inbox. The mode forms a
/// small lattice of coupling strength, `Sync ⊐ Hybrid(t) ⊐ Async`:
///
/// * [`Sync`](Mode::Sync) — the paper's shape: a refused hand-off is
///   retried a few times, then the operation blocks until the inbox
///   takes the batch. Instrumentation overhead is maximal.
/// * [`Hybrid`](Mode::Hybrid) — bounded coupling: retry up to the
///   given timeout, then detach and leave the batch retained in the
///   handle (delivery stays guaranteed, only the *wait* is bounded).
/// * [`Async`](Mode::Async) — fire-and-forget: one attempt, never a
///   wait; a refused batch stays retained and is re-offered on the
///   handle's next observation or flush. Checkpoints replay the
///   recorded window, so verdicts are unchanged — only their latency
///   moves.
///
/// The default is `Sync` (paper-faithful). The mode is runtime
/// configuration, [`DetectorConfig::mode`]: every monitor of a runtime
/// uses it for the runtime's whole life, whichever backend checks the
/// events. No backend holds or answers a mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Mode {
    /// Block until the event reaches a shard inbox (paper-faithful).
    #[default]
    Sync,
    /// Never block; a refused batch waits in the handle.
    Async,
    /// Retry up to the timeout, then detach.
    Hybrid(Nanos),
}

/// Timing parameters for the detection algorithms.
///
/// # Examples
///
/// ```
/// use rmon_core::{DetectorConfig, Nanos};
/// let cfg = DetectorConfig::builder()
///     .t_max(Nanos::from_millis(100))
///     .t_io(Nanos::from_millis(200))
///     .t_limit(Nanos::from_millis(300))
///     .check_interval(Nanos::from_millis(50))
///     .build();
/// assert_eq!(cfg.t_max, Nanos::from_millis(100));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectorConfig {
    /// Maximum time inside a monitor (`Tmax`).
    pub t_max: Nanos,
    /// Entry-queue starvation timeout (`Tio`).
    pub t_io: Nanos,
    /// Maximum resource hold time (`Tlimit`).
    pub t_limit: Nanos,
    /// Periodic checking interval (`T`).
    pub check_interval: Nanos,
    /// Predictive-detection mode (default [`PredictMode::Off`]).
    pub predict: PredictMode,
    /// Instrumentation mode (default [`Mode::Sync`], paper-faithful):
    /// the embedding runtime's record path applies it to every monitor
    /// whose events stream in real time. Backends do not read it.
    pub mode: Mode,
    /// Reject monitor registrations whose spec has Error-level static
    /// diagnostics (`RML0xx`, see [`crate::spec::analyze`]).
    ///
    /// Default **off** for drop-in compatibility with dynamically
    /// assembled specs; specs built by [`monitor_spec!`](crate::monitor_spec)
    /// are vetted at construction regardless. With the gate on,
    /// [`Detector::register`](crate::detect::Detector::register) panics
    /// on an Error-level spec (use
    /// [`try_register`](crate::detect::Detector::try_register) to
    /// handle the report instead).
    pub strict_specs: bool,
}

impl DetectorConfig {
    /// Starts building a configuration from the defaults.
    pub fn builder() -> DetectorConfigBuilder {
        DetectorConfigBuilder { cfg: DetectorConfig::default() }
    }

    /// A configuration where every timer is effectively disabled — used
    /// when only structural rules (not timing rules) should fire, e.g.
    /// in differential tests against the reference checker on traces
    /// without meaningful timestamps.
    pub fn without_timeouts() -> Self {
        DetectorConfig {
            t_max: Nanos::MAX,
            t_io: Nanos::MAX,
            t_limit: Nanos::MAX,
            check_interval: Nanos::from_millis(100),
            predict: PredictMode::Off,
            mode: Mode::Sync,
            strict_specs: false,
        }
    }
}

impl Default for DetectorConfig {
    /// Defaults sized for tests and simulations: `Tmax` 100 ms,
    /// `Tio` 200 ms, `Tlimit` 500 ms, checking every 50 ms.
    fn default() -> Self {
        DetectorConfig {
            t_max: Nanos::from_millis(100),
            t_io: Nanos::from_millis(200),
            t_limit: Nanos::from_millis(500),
            check_interval: Nanos::from_millis(50),
            predict: PredictMode::Off,
            mode: Mode::Sync,
            strict_specs: false,
        }
    }
}

/// Builder for [`DetectorConfig`].
#[derive(Debug, Clone)]
pub struct DetectorConfigBuilder {
    cfg: DetectorConfig,
}

impl DetectorConfigBuilder {
    /// Sets `Tmax`.
    pub fn t_max(mut self, v: Nanos) -> Self {
        self.cfg.t_max = v;
        self
    }

    /// Sets `Tio`.
    pub fn t_io(mut self, v: Nanos) -> Self {
        self.cfg.t_io = v;
        self
    }

    /// Sets `Tlimit`.
    pub fn t_limit(mut self, v: Nanos) -> Self {
        self.cfg.t_limit = v;
        self
    }

    /// Sets the checking interval `T`.
    pub fn check_interval(mut self, v: Nanos) -> Self {
        self.cfg.check_interval = v;
        self
    }

    /// Sets the predictive-detection mode.
    pub fn predict(mut self, v: PredictMode) -> Self {
        self.cfg.predict = v;
        self
    }

    /// Sets the base instrumentation mode.
    pub fn mode(mut self, v: Mode) -> Self {
        self.cfg.mode = v;
        self
    }

    /// Enables or disables the strict spec gate (reject Error-level
    /// specs at registration).
    pub fn strict_specs(mut self, v: bool) -> Self {
        self.cfg.strict_specs = v;
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> DetectorConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_ordered_sensibly() {
        let c = DetectorConfig::default();
        assert!(c.t_max < c.t_io, "a process should time out inside before entry starvation");
        assert!(c.check_interval < c.t_max);
    }

    #[test]
    fn builder_overrides_fields() {
        let c = DetectorConfig::builder()
            .t_max(Nanos::from_secs(1))
            .t_io(Nanos::from_secs(2))
            .t_limit(Nanos::from_secs(3))
            .check_interval(Nanos::from_millis(10))
            .build();
        assert_eq!(c.t_max, Nanos::from_secs(1));
        assert_eq!(c.t_io, Nanos::from_secs(2));
        assert_eq!(c.t_limit, Nanos::from_secs(3));
        assert_eq!(c.check_interval, Nanos::from_millis(10));
    }

    #[test]
    fn predict_defaults_off_and_builder_enables() {
        assert_eq!(DetectorConfig::default().predict, PredictMode::Off);
        assert!(!DetectorConfig::without_timeouts().predict.is_on());
        let c = DetectorConfig::builder().predict(PredictMode::Checkpoint).build();
        assert!(c.predict.is_on());
    }

    #[test]
    fn mode_defaults_sync_and_the_builder_sets_it() {
        assert_eq!(DetectorConfig::default().mode, Mode::Sync);
        assert_eq!(DetectorConfig::without_timeouts().mode, Mode::Sync);
        let c = DetectorConfig::builder().mode(Mode::Async).build();
        assert_eq!(c.mode, Mode::Async);
    }

    #[test]
    fn strict_specs_defaults_off_and_builder_enables() {
        assert!(!DetectorConfig::default().strict_specs);
        assert!(!DetectorConfig::without_timeouts().strict_specs);
        assert!(DetectorConfig::builder().strict_specs(true).build().strict_specs);
    }

    #[test]
    fn without_timeouts_disables_timers() {
        let c = DetectorConfig::without_timeouts();
        assert_eq!(c.t_max, Nanos::MAX);
        assert_eq!(c.t_io, Nanos::MAX);
        assert_eq!(c.t_limit, Nanos::MAX);
    }
}
