//! The on-disk format pinned byte for byte: a segment written through
//! [`DurableSink`] (every record kind, every event shape, a clock stamp,
//! a prediction and a window split under the record cap) must equal the
//! golden bytes below. Any change to the frame layout, the CRC or the
//! record codec fails here before it can reach a disk.

use rmon_core::oplog::{crc32, JournalSink};
use rmon_core::{
    CondId, Event, FaultKind, FaultReport, MonitorId, MonitorState, Nanos, Pid, PidProc,
    PredictedViolation, ProcName, RuleId, VClock, Violation,
};
use rmon_storage::frame::frame_into;
use rmon_storage::{DurableSink, OplogConfig};
use std::collections::HashMap;
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("rmon-golden-{tag}-{}", std::process::id()))
        .join(format!("{:?}", std::thread::current().id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn violation(seq: u64) -> Violation {
    Violation {
        monitor: MonitorId::new(3),
        rule: RuleId::St8DuplicateRequest,
        fault: Some(FaultKind::DoubleAcquire),
        pid: Some(Pid::new(7)),
        event_seq: Some(seq),
        detected_at: Nanos::new(seq * 3),
        message: format!("v{seq}").into(),
    }
}

/// Every event shape twice: 12 events, one window.
fn events() -> Vec<Event> {
    let m = MonitorId::new(3);
    let (p1, p2, p3) = (Pid::new(1), Pid::new(2), Pid::new(3));
    let (send, receive) = (ProcName::new(0), ProcName::new(1));
    let mut vc = VClock::for_slot(2);
    vc.tick();
    vc.tick();
    (0..2u64)
        .flat_map(|round| {
            let s = round * 6;
            let t = |i| Nanos::new(10 + s + i);
            [
                Event::enter(s + 1, t(1), m, p1, send, true),
                Event::wait(s + 2, t(2), m, p1, send, CondId::new(1)),
                Event::signal_exit(s + 3, t(3), m, p2, receive, Some(CondId::new(1)), true),
                Event::signal_exit(s + 4, t(4), m, p1, send, None, false),
                Event::terminate(s + 5, t(5), m, p2, receive).with_vc(vc),
                Event::terminate(s + 6, t(6), m, p3, send).with_vc(VClock::saturated()),
            ]
        })
        .collect()
}

/// Writes the golden journal and returns its one segment's bytes.
fn golden_segment() -> Vec<u8> {
    let dir = tmp_dir("segment");
    // The 12-event window (≈ 390 bytes) splits in two under a 256-byte
    // cap; every other record fits.
    let cfg = OplogConfig { max_record_bytes: 256, ..OplogConfig::default() };
    let sink = DurableSink::open(&dir, cfg).unwrap();
    let m = MonitorId::new(3);
    sink.append_epoch(Nanos::new(5)).unwrap();
    sink.append_register(m, "mailbox", Nanos::new(6)).unwrap();
    sink.append_events(&events()).unwrap();
    sink.append_realtime(&[violation(1)]).unwrap();
    let mut state = MonitorState::with_resources(2, 4);
    state.entry_queue.push(PidProc::new(Pid::new(1), ProcName::new(0)));
    state.running.push(PidProc::new(Pid::new(3), ProcName::new(1)));
    let snaps = HashMap::from([(m, state), (MonitorId::new(9), MonitorState::new(0))]);
    let report = FaultReport {
        violations: vec![violation(2)],
        predicted: vec![PredictedViolation { violation: violation(4), witness: vec![2, 1] }],
        events_checked: 6,
        window_start: Nanos::new(1),
        window_end: Nanos::new(99),
    };
    sink.append_checkpoint(Nanos::new(99), &snaps, &report).unwrap();
    JournalSink::sync(&sink).unwrap();
    assert_eq!(sink.segment_count(), 1);
    drop(sink);
    let bytes = std::fs::read(dir.join(format!("oplog-{:020}.seg", 0))).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

/// Header `RMONOPL\x01`, then seven `[len | crc32 | payload]` frames:
/// Epoch, Register, Events × 2, Realtime, Checkpoint (all little
/// endian; see `docs/STORAGE.md`).
const GOLDEN_SEGMENT: &str = "
    524d4f4e4f504c0109000000890e92b9010500000000000000180000009804bde802030000000700
    00006d61696c626f780600000000000000c40000006f2f3ac1030600000001000000000000000b00
    0000000000000300000001000000000000010002000000000000000c000000000000000300000001
    00000000000101000003000000000000000d00000000000000030000000200000001000201010100
    0004000000000000000e00000000000000030000000100000000000200000005000000000000000f
    00000000000000030000000200000001000301020300000000000000000200000006000000000000
    001000000000000000030000000300000000000302c400000059d44b990306000000070000000000
    00001100000000000000030000000100000000000001000800000000000000120000000000000003
    00000001000000000001010000090000000000000013000000000000000300000002000000010002
    01010100000a00000000000000140000000000000003000000010000000000020000000b00000000
    000000150000000000000003000000020000000100030102030000000000000000020000000c0000
    0000000000160000000000000003000000030000000000030228000000d32e182704010000000300
    00000c001401070000000101000000000000000300000000000000020000007631c50000005b6462
    7c056300000000000000020000000300000001000000010000000000020000000000000000000000
    01000000030000000100010400000000000000090000000000000000000000000000000001000000
    030000000c0014010700000001020000000000000006000000000000000200000076320100000003
    0000000c001401070000000104000000000000000c00000000000000020000007634020000000200
    0000000000000100000000000000060000000000000001000000000000006300000000000000
";

#[test]
fn a_frame_is_length_crc_payload() {
    let mut frame = Vec::new();
    frame_into(&mut frame, b"123456789");
    assert_eq!(hex(&frame), "090000002639f4cb313233343536373839");
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
}

#[test]
fn a_journal_segment_is_byte_for_byte_the_golden_one() {
    let bytes = golden_segment();
    assert_eq!(hex(&bytes), GOLDEN_SEGMENT.split_whitespace().collect::<String>());
}
