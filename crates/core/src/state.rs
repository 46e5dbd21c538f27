//! Scheduling states — the paper's `⟨EQ, CQ[], R#⟩` 3-tuple (§3.1),
//! extended with the `Running` set recorded at checking time (§3.3.1).
//!
//! A [`MonitorState`] is an *observed snapshot* of a monitor taken by the
//! data-gathering layer at a checkpoint. Snapshots deliberately allow
//! states that a correct monitor could never be in (for example more than
//! one running process) — the whole point of the detector is to compare
//! such observations against the state the checking lists *derive* from
//! the event sequence.

use crate::ids::{Pid, PidProc};
use std::fmt;

/// Observed snapshot of one monitor's scheduling state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MonitorState {
    /// The external (entry) waiting queue `EQ`, head first.
    pub entry_queue: Vec<PidProc>,
    /// The condition queues `CQ[cond]`, each head first, indexed by
    /// [`crate::CondId`].
    pub cond_queues: Vec<Vec<PidProc>>,
    /// The processes currently running inside the monitor (the paper's
    /// `Running`). A correct monitor has at most one; snapshots of a
    /// faulty monitor may legitimately report more.
    pub running: Vec<PidProc>,
    /// The number of currently available resources `R#` (free buffer
    /// slots for a communication coordinator, free units for an
    /// allocator). `None` for monitors without a resource counter.
    pub available: Option<u64>,
}

impl MonitorState {
    /// Creates an empty state with `conds` condition queues and no
    /// resource counter.
    pub fn new(conds: usize) -> Self {
        MonitorState {
            entry_queue: Vec::new(),
            cond_queues: vec![Vec::new(); conds],
            running: Vec::new(),
            available: None,
        }
    }

    /// Creates an empty state with `conds` condition queues and an
    /// initial resource count.
    pub fn with_resources(conds: usize, available: u64) -> Self {
        let mut s = Self::new(conds);
        s.available = Some(available);
        s
    }

    /// Number of processes waiting on the entry queue (`|EQ|`).
    pub fn entry_len(&self) -> usize {
        self.entry_queue.len()
    }

    /// Number of processes waiting on condition queue `cond`
    /// (`|CQ[cond]|`).
    ///
    /// Returns 0 for out-of-range indices: a snapshot with fewer
    /// condition queues than the spec simply has empty queues there.
    pub fn cond_len(&self, cond: usize) -> usize {
        self.cond_queues.get(cond).map_or(0, Vec::len)
    }

    /// Whether `pid` appears anywhere in the snapshot (entry queue,
    /// a condition queue, or running).
    pub fn contains(&self, pid: Pid) -> bool {
        self.entry_queue.iter().any(|pp| pp.pid == pid)
            || self.cond_queues.iter().any(|q| q.iter().any(|pp| pp.pid == pid))
            || self.running.iter().any(|pp| pp.pid == pid)
    }

    /// Total number of processes captured by the snapshot.
    pub fn population(&self) -> usize {
        self.entry_queue.len()
            + self.cond_queues.iter().map(Vec::len).sum::<usize>()
            + self.running.len()
    }
}

impl fmt::Display for MonitorState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨EQ=[")?;
        for (i, pp) in self.entry_queue.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{pp}")?;
        }
        write!(f, "], CQ=[")?;
        for (ci, q) in self.cond_queues.iter().enumerate() {
            if ci > 0 {
                write!(f, " ")?;
            }
            write!(f, "c{ci}:{}", q.len())?;
        }
        write!(f, "], Run=[")?;
        for (i, pp) in self.running.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{pp}")?;
        }
        write!(f, "]")?;
        if let Some(a) = self.available {
            write!(f, ", R#={a}")?;
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ProcName;

    fn pp(p: u32) -> PidProc {
        PidProc::new(Pid::new(p), ProcName::new(0))
    }

    #[test]
    fn new_state_is_empty() {
        let s = MonitorState::new(2);
        assert_eq!(s.entry_len(), 0);
        assert_eq!(s.cond_len(0), 0);
        assert_eq!(s.cond_len(1), 0);
        assert_eq!(s.population(), 0);
        assert_eq!(s.available, None);
    }

    #[test]
    fn with_resources_sets_counter() {
        let s = MonitorState::with_resources(1, 5);
        assert_eq!(s.available, Some(5));
    }

    #[test]
    fn cond_len_out_of_range_is_zero() {
        let s = MonitorState::new(1);
        assert_eq!(s.cond_len(7), 0);
    }

    #[test]
    fn contains_searches_all_queues() {
        let mut s = MonitorState::new(2);
        s.entry_queue.push(pp(1));
        s.cond_queues[1].push(pp(2));
        s.running.push(pp(3));
        assert!(s.contains(Pid::new(1)));
        assert!(s.contains(Pid::new(2)));
        assert!(s.contains(Pid::new(3)));
        assert!(!s.contains(Pid::new(4)));
        assert_eq!(s.population(), 3);
    }

    #[test]
    fn display_is_compact() {
        let mut s = MonitorState::with_resources(1, 2);
        s.entry_queue.push(pp(1));
        s.running.push(pp(2));
        let rendered = s.to_string();
        assert!(rendered.contains("EQ=[P1(proc#0)]"), "{rendered}");
        assert!(rendered.contains("R#=2"), "{rendered}");
    }

    #[test]
    fn default_is_queueless() {
        let s = MonitorState::default();
        assert_eq!(s.cond_queues.len(), 0);
        assert_eq!(s.population(), 0);
    }
}
