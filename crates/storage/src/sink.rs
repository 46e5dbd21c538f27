//! [`DurableSink`]: the `rmon-core` journal sink over one segmented
//! [`Oplog`] — the piece a runtime plugs in to journal durably.

use crate::oplog::{Oplog, OplogConfig, RecoveryReport};
use parking_lot::Mutex;
use rmon_core::oplog::{
    encode_events_record, encode_realtime_record, encode_record, JournalSink, Record,
};
use rmon_core::{Event, FaultReport, MonitorId, MonitorState, Nanos, Violation};
use std::collections::HashMap;
use std::io;
use std::path::PathBuf;

/// A durable journal endpoint: implements [`JournalSink`] by encoding
/// each record ([`encode_record`]) and appending it to one [`Oplog`].
///
/// Events and verdicts interleave in one totally ordered log, which is
/// what the commit protocol (Events → Realtime → Checkpoint, see
/// `rmon_core::oplog`) and the differential replayer assume. The
/// internal mutex serializes appends; all appends happen on
/// checkpoint/registration paths, never per event.
#[derive(Debug)]
pub struct DurableSink {
    oplog: Mutex<Oplog>,
}

impl DurableSink {
    /// Opens (creating if necessary) the oplog directory, recovering
    /// any torn tail left by a crash. See [`Oplog::open`].
    pub fn open(dir: impl Into<PathBuf>, cfg: OplogConfig) -> io::Result<Self> {
        Ok(DurableSink { oplog: Mutex::new(Oplog::open(dir, cfg)?) })
    }

    fn append(&self, record: &Record) -> io::Result<()> {
        let payload = encode_record(record);
        self.oplog.lock().append(&payload)?;
        Ok(())
    }

    /// What opening found and repaired (torn-tail truncation).
    pub fn recovery(&self) -> RecoveryReport {
        self.oplog.lock().recovery()
    }

    /// The LSN the next append will get.
    pub fn next_lsn(&self) -> u64 {
        self.oplog.lock().next_lsn()
    }

    /// Segment files currently on disk.
    pub fn segment_count(&self) -> usize {
        self.oplog.lock().segment_count()
    }

    /// Segment rotations performed since open.
    pub fn rotated(&self) -> u64 {
        self.oplog.lock().rotated()
    }

    /// Segments deleted by retention since open.
    pub fn retired(&self) -> u64 {
        self.oplog.lock().retired()
    }
}

impl JournalSink for DurableSink {
    fn append_epoch(&self, now: Nanos) -> io::Result<()> {
        self.append(&Record::Epoch { time: now })
    }

    fn append_register(&self, monitor: MonitorId, name: &str, now: Nanos) -> io::Result<()> {
        self.append(&Record::Register { monitor, name: name.to_string(), time: now })
    }

    /// A window whose encoding is past [`OplogConfig::max_record_bytes`]
    /// is written as consecutive `Events` records under the cap (the
    /// replayer concatenates staged `Events` records up to the
    /// committing checkpoint).
    fn append_events(&self, events: &[Event]) -> io::Result<()> {
        append_split(&mut self.oplog.lock(), events, encode_events_record)
    }

    /// A batch whose encoding is past [`OplogConfig::max_record_bytes`]
    /// is written as consecutive `Realtime` records under the cap, as
    /// windows are split into `Events` records.
    fn append_realtime(&self, violations: &[Violation]) -> io::Result<()> {
        append_split(&mut self.oplog.lock(), violations, encode_realtime_record)
    }

    /// A checkpoint whose report is past [`OplogConfig::max_record_bytes`]
    /// journals the report's violations as `Realtime` records, then a
    /// `Checkpoint` marker whose report has none. The replayer commits
    /// staged `Realtime` records with the marker and compares the union
    /// of both kinds by key, so the recorded verdict set is the same.
    /// Snapshots alone past the cap are still refused.
    fn append_checkpoint(
        &self,
        now: Nanos,
        snapshots: &HashMap<MonitorId, MonitorState>,
        report: &FaultReport,
    ) -> io::Result<()> {
        let mut checkpoint = Record::checkpoint(now, snapshots, report);
        let mut payload = encode_record(&checkpoint);
        let mut oplog = self.oplog.lock();
        if payload.len() > oplog.config().max_record_bytes as usize && !report.violations.is_empty()
        {
            append_split(&mut oplog, &report.violations, encode_realtime_record)?;
            if let Record::Checkpoint { report: marker, .. } = &mut checkpoint {
                marker.violations.clear();
            }
            payload = encode_record(&checkpoint);
        }
        oplog.append(&payload).map(drop)
    }

    fn sync(&self) -> io::Result<()> {
        self.oplog.lock().sync()
    }
}

/// Appends `items` as one record, or — when its encoding is past
/// [`OplogConfig::max_record_bytes`] — as consecutive records of the
/// same kind, halving until each piece fits. The caller holds the log
/// throughout, so no other record falls between the pieces.
fn append_split<T>(oplog: &mut Oplog, items: &[T], encode: fn(&[T]) -> Vec<u8>) -> io::Result<()> {
    let payload = encode(items);
    if payload.len() > oplog.config().max_record_bytes as usize && items.len() > 1 {
        let (head, tail) = items.split_at(items.len() / 2);
        append_split(oplog, head, encode)?;
        return append_split(oplog, tail, encode);
    }
    oplog.append(&payload).map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmon_core::oplog::decode_record;
    use rmon_core::{Pid, ProcName};
    use std::path::Path;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("rmon-sink-{tag}-{}", std::process::id()))
            .join(format!("{:?}", std::thread::current().id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn read_records(dir: &Path) -> Vec<Record> {
        let (payloads, report) = Oplog::read_dir_records(dir, 16 << 20).unwrap();
        assert!(!report.stopped_mid_log);
        payloads.iter().map(|p| decode_record(p).unwrap()).collect()
    }

    #[test]
    fn both_streams_interleave_in_one_log() {
        let dir = tmp_dir("interleave");
        let sink = DurableSink::open(&dir, OplogConfig::default()).unwrap();
        let m = MonitorId::new(0);
        sink.append_epoch(Nanos::new(1)).unwrap();
        sink.append_register(m, "alloc", Nanos::new(2)).unwrap();
        let events = [Event::enter(1, Nanos::new(3), m, Pid::new(1), ProcName::new(0), true)];
        sink.append_events(&events).unwrap();
        sink.append_realtime(&[]).unwrap();
        let mut snaps = HashMap::new();
        snaps.insert(m, MonitorState::new(0));
        sink.append_checkpoint(Nanos::new(9), &snaps, &FaultReport::default()).unwrap();
        JournalSink::sync(&sink).unwrap();
        assert_eq!(sink.next_lsn(), 5);
        drop(sink);

        let records = read_records(&dir);
        assert_eq!(records.len(), 5);
        assert_eq!(records[0], Record::Epoch { time: Nanos::new(1) });
        assert!(matches!(&records[1], Record::Register { name, .. } if name == "alloc"));
        assert!(matches!(&records[2], Record::Events(evs) if evs.len() == 1));
        assert!(matches!(&records[3], Record::Realtime(vs) if vs.is_empty()));
        assert!(matches!(&records[4], Record::Checkpoint { now, .. } if *now == Nanos::new(9)));

        // Re-opening attaches after the existing records.
        let sink = DurableSink::open(&dir, OplogConfig::default()).unwrap();
        assert_eq!(sink.next_lsn(), 5);
        assert_eq!(sink.recovery().tail_records, 5);
    }

    #[test]
    fn verdict_batches_past_the_cap_are_split_under_it() {
        use rmon_core::{RuleId, Violation};

        let dir = tmp_dir("split");
        let cap = 256;
        let cfg = OplogConfig { max_record_bytes: cap, ..OplogConfig::default() };
        let sink = DurableSink::open(&dir, cfg).unwrap();
        let m = MonitorId::new(0);
        let verdicts: Vec<Violation> = (0..12)
            .map(|i| {
                Violation::new(m, RuleId::St8HoldTimeout, Nanos::new(i), format!("verdict {i}"))
            })
            .collect();
        sink.append_realtime(&verdicts).unwrap();
        let report = FaultReport {
            violations: verdicts.clone(),
            events_checked: 7,
            ..FaultReport::default()
        };
        let snaps = HashMap::from([(m, MonitorState::new(1))]);
        sink.append_checkpoint(Nanos::new(99), &snaps, &report).unwrap();
        JournalSink::sync(&sink).unwrap();
        drop(sink);

        let records = read_records(&dir);
        let Some((Record::Checkpoint { now, snapshots, report: marker }, pieces)) =
            records.split_last()
        else {
            panic!("{records:?}")
        };
        // The realtime batch, then the report's violations, each as
        // consecutive Realtime records; then a marker without them.
        let mut journaled = Vec::new();
        for piece in pieces {
            let Record::Realtime(vs) = piece else { panic!("{piece:?}") };
            assert!(!vs.is_empty());
            journaled.extend(vs.iter().cloned());
        }
        assert!(pieces.len() > 2, "{} pieces", pieces.len());
        assert_eq!(journaled, [verdicts.clone(), verdicts].concat());
        assert_eq!(*now, Nanos::new(99));
        assert_eq!(snapshots, &vec![(m, MonitorState::new(1))]);
        assert_eq!(marker, &FaultReport { violations: Vec::new(), ..report });
    }

    #[test]
    fn vector_clock_stamps_and_predictions_round_trip_through_disk() {
        use rmon_core::{PredictedViolation, RuleId, VClock, Violation};

        let dir = tmp_dir("vclock");
        let sink = DurableSink::open(&dir, OplogConfig::default()).unwrap();
        let m = MonitorId::new(0);
        let mut vc = VClock::for_slot(2);
        vc.tick();
        vc.tick();
        let stamped =
            Event::enter(1, Nanos::new(3), m, Pid::new(1), ProcName::new(0), true).with_vc(vc);
        let plain = Event::enter(2, Nanos::new(4), m, Pid::new(2), ProcName::new(0), false);
        sink.append_events(&[stamped, plain]).unwrap();

        let mut report = FaultReport::default();
        report.predicted.push(PredictedViolation {
            violation: Violation::new(m, RuleId::St8HoldTimeout, Nanos::new(9), "predicted"),
            witness: vec![2, 1],
        });
        sink.append_checkpoint(Nanos::new(9), &HashMap::new(), &report).unwrap();
        JournalSink::sync(&sink).unwrap();
        drop(sink);

        let records = read_records(&dir);
        let Record::Events(evs) = &records[0] else { panic!("{records:?}") };
        assert_eq!(evs[0].vc, vc, "carried stamp must survive the disk round-trip");
        assert_eq!(evs[0].vc.owner(), Some(2));
        assert!(!evs[1].vc.is_set(), "unset stamps stay unset");
        let Record::Checkpoint { report: got, .. } = &records[1] else { panic!("{records:?}") };
        assert_eq!(got.predicted.len(), 1);
        assert_eq!(got.predicted[0].witness, vec![2, 1]);
        assert_eq!(got.predicted[0].violation.rule, RuleId::St8HoldTimeout);
    }
}
