//! Identifier newtypes used throughout the detector.
//!
//! The paper's history information identifies each scheduling event by the
//! process (`Pid`), the monitor procedure (`Pname`) and, for `Wait` /
//! `Signal-Exit`, the condition variable (`Cond`). We model each of those
//! as a cheap copyable newtype ([`Pid`], [`ProcName`], [`CondId`]) plus a
//! [`MonitorId`] to multiplex several monitors over one event stream.
//!
//! Procedure and condition *names* (human-readable strings and their
//! semantic roles) live in the monitor specification
//! ([`crate::spec::MonitorSpec`]); events carry only the indices.

use std::fmt;

/// A process identifier (the paper's `Pid`).
///
/// In the simulator this indexes the process table; in the real-thread
/// runtime it is assigned by the process registry.
///
/// # Examples
///
/// ```
/// use rmon_core::Pid;
/// let p = Pid::new(3);
/// assert_eq!(p.index(), 3);
/// assert_eq!(p.to_string(), "P3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pid(u32);

impl Pid {
    /// Creates a process identifier from a raw index.
    #[inline]
    pub const fn new(index: u32) -> Self {
        Pid(index)
    }

    /// Returns the raw index.
    #[inline]
    pub const fn index(self) -> u32 {
        self.0
    }

    /// Returns the index as `usize` for table lookups.
    #[inline]
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for Pid {
    #[inline]
    fn from(v: u32) -> Self {
        Pid(v)
    }
}

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// A monitor identifier.
///
/// One detector instance can watch several monitors; every event carries
/// the identifier of the monitor it happened in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MonitorId(u32);

impl MonitorId {
    /// Creates a monitor identifier from a raw index.
    #[inline]
    pub const fn new(index: u32) -> Self {
        MonitorId(index)
    }

    /// Returns the raw index.
    #[inline]
    pub const fn index(self) -> u32 {
        self.0
    }

    /// Returns the index as `usize` for table lookups.
    #[inline]
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for MonitorId {
    #[inline]
    fn from(v: u32) -> Self {
        MonitorId(v)
    }
}

impl fmt::Display for MonitorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "M{}", self.0)
    }
}

/// Index of a monitor procedure within its monitor's specification
/// (the paper's `Pname`).
///
/// The semantic role of the procedure (Send-like, Receive-like, …) is
/// resolved through [`crate::spec::MonitorSpec::procedure`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProcName(u16);

impl ProcName {
    /// Creates a procedure-name index.
    #[inline]
    pub const fn new(index: u16) -> Self {
        ProcName(index)
    }

    /// Returns the raw index.
    #[inline]
    pub const fn index(self) -> u16 {
        self.0
    }

    /// Returns the index as `usize` for table lookups.
    #[inline]
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl From<u16> for ProcName {
    #[inline]
    fn from(v: u16) -> Self {
        ProcName(v)
    }
}

impl fmt::Display for ProcName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "proc#{}", self.0)
    }
}

/// Index of a condition variable within its monitor's specification
/// (the paper's `Cond`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CondId(u16);

impl CondId {
    /// Creates a condition-variable index.
    #[inline]
    pub const fn new(index: u16) -> Self {
        CondId(index)
    }

    /// Returns the raw index.
    #[inline]
    pub const fn index(self) -> u16 {
        self.0
    }

    /// Returns the index as `usize` for table lookups.
    #[inline]
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl From<u16> for CondId {
    #[inline]
    fn from(v: u16) -> Self {
        CondId(v)
    }
}

impl fmt::Display for CondId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cond#{}", self.0)
    }
}

/// A `(Pid, ProcName)` pair — the element type of the paper's checking
/// lists (`Pid(Pr)` in §3.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PidProc {
    /// The calling process.
    pub pid: Pid,
    /// The monitor procedure it is executing.
    pub proc_name: ProcName,
}

impl PidProc {
    /// Creates a `(process, procedure)` pair.
    #[inline]
    pub const fn new(pid: Pid, proc_name: ProcName) -> Self {
        PidProc { pid, proc_name }
    }
}

impl fmt::Display for PidProc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.pid, self.proc_name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pid_roundtrip_and_display() {
        let p = Pid::new(42);
        assert_eq!(p.index(), 42);
        assert_eq!(p.as_usize(), 42);
        assert_eq!(Pid::from(42u32), p);
        assert_eq!(p.to_string(), "P42");
    }

    #[test]
    fn monitor_id_roundtrip_and_display() {
        let m = MonitorId::new(7);
        assert_eq!(m.index(), 7);
        assert_eq!(MonitorId::from(7u32), m);
        assert_eq!(m.to_string(), "M7");
    }

    #[test]
    fn proc_name_roundtrip() {
        let pr = ProcName::new(2);
        assert_eq!(pr.index(), 2);
        assert_eq!(ProcName::from(2u16), pr);
        assert_eq!(pr.to_string(), "proc#2");
    }

    #[test]
    fn cond_id_roundtrip() {
        let c = CondId::new(1);
        assert_eq!(c.index(), 1);
        assert_eq!(CondId::from(1u16), c);
        assert_eq!(c.to_string(), "cond#1");
    }

    #[test]
    fn pid_proc_display() {
        let pp = PidProc::new(Pid::new(1), ProcName::new(0));
        assert_eq!(pp.to_string(), "P1(proc#0)");
    }

    #[test]
    fn ids_order_by_index() {
        assert!(Pid::new(1) < Pid::new(2));
        assert!(MonitorId::new(0) < MonitorId::new(1));
    }

    #[test]
    fn ids_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Pid>();
        assert_send_sync::<MonitorId>();
        assert_send_sync::<ProcName>();
        assert_send_sync::<CondId>();
        assert_send_sync::<PidProc>();
    }
}
