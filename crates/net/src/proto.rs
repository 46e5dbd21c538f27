//! The wire protocol: one [`Envelope`] per frame, carrying either a
//! journal [`Record`] or a control message.
//!
//! ## Layout
//!
//! Every frame payload (see [`rmon_storage::frame`] for the framing
//! itself) is
//!
//! ```text
//! [session_seq u64 LE | hlc.physical u64 LE | hlc.logical u32 LE | msg]
//! ```
//!
//! `session_seq` is the sender's per-session frame counter (the
//! [`crate::session`] layer uses it to reorder and deduplicate) and the
//! HLC stamp is the sender's [`rmon_core::Hlc`] at send time. `msg`
//! starts with a tag byte:
//!
//! | tag    | message |
//! |--------|---------|
//! | 1–5    | a journal [`Record`], byte-identical to the oplog codec |
//! | 16     | [`Msg::Hello`] |
//! | 17     | [`Msg::Register`] |
//! | 19     | [`Msg::CheckpointReq`] |
//! | 20     | [`Msg::CheckpointResp`] |
//! | 21     | [`Msg::Verdicts`] |
//! | 22     | [`Msg::Shutdown`] |
//!
//! Reusing the oplog codec for the event path means a worker's event
//! batch crosses the wire in exactly the bytes a single-process runtime
//! would journal — the service can tee frames straight into a
//! [`rmon_storage::Oplog`] without re-encoding, and the oplog codec's
//! corruption tests cover the wire too.
//!
//! Checkpoint messages are direction-symmetric: the service fans out a
//! [`Msg::CheckpointReq`] naming the monitors it wants observed and the
//! worker answers with a [`Msg::CheckpointResp`] carrying `(snapshots,
//! gates)` gathered by [`rmon_core::detect::gather_snapshots`]; a
//! *worker-initiated* checkpoint sends the same request shape with the
//! snapshots already attached, and the service answers with the same
//! response shape carrying only the verdict [`FaultReport`].

use rmon_core::oplog::{
    decode_record, decode_report, decode_state, decode_violations, encode_record, encode_report,
    encode_state, encode_violations, DecodeError, Record,
};
use rmon_core::{FaultReport, HlcStamp, MonitorId, MonitorState, Nanos, Violation};

/// Protocol version sent in [`Msg::Hello`]; a service refuses sessions
/// speaking a newer major version.
pub const PROTO_VERSION: u16 = 1;

/// Envelope header length in bytes (`seq` + HLC stamp).
pub const ENVELOPE_HEADER_BYTES: usize = 20;

const TAG_HELLO: u8 = 16;
const TAG_REGISTER: u8 = 17;
const TAG_CHECKPOINT_REQ: u8 = 19;
const TAG_CHECKPOINT_RESP: u8 = 20;
const TAG_VERDICTS: u8 = 21;
const TAG_SHUTDOWN: u8 = 22;

/// One message, sequenced and HLC-stamped by its sender.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Per-session frame counter, starting at 0, incremented per send.
    pub seq: u64,
    /// The sender's hybrid logical clock at send time.
    pub hlc: HlcStamp,
    /// The message itself.
    pub msg: Msg,
}

/// The message body of an [`Envelope`].
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// A journal record in the oplog codec. Workers stream their event
    /// batches as [`Record::Events`]; a service rejects the other
    /// record variants (registration travels as [`Msg::Register`],
    /// which carries the initial state a `Record` cannot).
    Record(Record),
    /// Session opener: protocol version and the worker's display name.
    Hello {
        /// The sender's [`PROTO_VERSION`].
        proto: u16,
        /// Worker name, for operator-facing reports.
        name: String,
    },
    /// A worker registered a monitor; ids are in the **worker's**
    /// namespace (the service remaps them to fleet-global ids).
    Register {
        /// The worker-local monitor id.
        monitor: MonitorId,
        /// Declared monitor name — the service resolves it to a spec,
        /// exactly like replay resolution in `rmon-storage`.
        name: String,
        /// Registration time on the worker's clock.
        now: Nanos,
        /// The monitor's initial observed state.
        initial: MonitorState,
    },
    /// A checkpoint request. Service → worker: "observe `monitors` and
    /// answer with snapshots" (`snapshots`/`gates` empty). Worker →
    /// service: "run the periodic check over my `monitors`, here are my
    /// observed states" (snapshots attached, so the service never has
    /// to call back mid-request).
    CheckpointReq {
        /// Correlates the eventual [`Msg::CheckpointResp`].
        id: u64,
        /// Checking time `t` on the requester's clock.
        now: Nanos,
        /// Monitors in scope, in the **worker's** id namespace; empty
        /// means every monitor the worker registered.
        monitors: Vec<MonitorId>,
        /// Observed states (worker-initiated requests only).
        snapshots: Vec<(MonitorId, MonitorState)>,
        /// Consistency gates for `snapshots` (see
        /// [`rmon_core::detect::SnapshotProvider::events_recorded`]).
        gates: Vec<(MonitorId, u64)>,
    },
    /// The answer to a [`Msg::CheckpointReq`] with the matching `id`.
    /// Worker → service: the gathered `(snapshots, gates)`, report
    /// empty. Service → worker: the verdict `report` (ids translated
    /// back to the worker's namespace), snapshots empty.
    CheckpointResp {
        /// The request this answers.
        id: u64,
        /// Observed states, worker id namespace.
        snapshots: Vec<(MonitorId, MonitorState)>,
        /// Consistency gates for `snapshots`.
        gates: Vec<(MonitorId, u64)>,
        /// The checking verdicts.
        report: FaultReport,
    },
    /// Real-time verdicts pushed service → worker, ids translated to
    /// the worker's namespace.
    Verdicts(Vec<Violation>),
    /// Graceful session close (either direction). Frames after a
    /// `Shutdown` are ignored.
    Shutdown,
}

/// Encodes one envelope to a frame payload.
pub fn encode_envelope(env: &Envelope) -> Vec<u8> {
    let mut out = Vec::with_capacity(ENVELOPE_HEADER_BYTES + 16);
    out.extend_from_slice(&env.seq.to_le_bytes());
    out.extend_from_slice(&env.hlc.physical.as_nanos().to_le_bytes());
    out.extend_from_slice(&env.hlc.logical.to_le_bytes());
    match &env.msg {
        Msg::Record(record) => out.extend_from_slice(&encode_record(record)),
        Msg::Hello { proto, name } => {
            out.push(TAG_HELLO);
            out.extend_from_slice(&proto.to_le_bytes());
            put_string(&mut out, name);
        }
        Msg::Register { monitor, name, now, initial } => {
            out.push(TAG_REGISTER);
            put_monitor(&mut out, *monitor);
            put_string(&mut out, name);
            out.extend_from_slice(&now.as_nanos().to_le_bytes());
            encode_state(&mut out, initial);
        }
        Msg::CheckpointReq { id, now, monitors, snapshots, gates } => {
            out.push(TAG_CHECKPOINT_REQ);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&now.as_nanos().to_le_bytes());
            put_monitor_list(&mut out, monitors);
            put_snapshots(&mut out, snapshots);
            put_gates(&mut out, gates);
        }
        Msg::CheckpointResp { id, snapshots, gates, report } => {
            out.push(TAG_CHECKPOINT_RESP);
            out.extend_from_slice(&id.to_le_bytes());
            put_snapshots(&mut out, snapshots);
            put_gates(&mut out, gates);
            encode_report(&mut out, report);
        }
        Msg::Verdicts(violations) => {
            out.push(TAG_VERDICTS);
            encode_violations(&mut out, violations);
        }
        Msg::Shutdown => out.push(TAG_SHUTDOWN),
    }
    out
}

/// Decodes a frame payload back into an [`Envelope`].
pub fn decode_envelope(payload: &[u8]) -> Result<Envelope, DecodeError> {
    if payload.len() <= ENVELOPE_HEADER_BYTES {
        return Err(DecodeError {
            detail: "payload shorter than envelope header".into(),
            offset: payload.len(),
        });
    }
    let seq = u64::from_le_bytes(payload[0..8].try_into().expect("8 bytes"));
    let physical = u64::from_le_bytes(payload[8..16].try_into().expect("8 bytes"));
    let logical = u32::from_le_bytes(payload[16..20].try_into().expect("4 bytes"));
    let hlc = HlcStamp { physical: Nanos::new(physical), logical };
    let body = &payload[ENVELOPE_HEADER_BYTES..];
    let msg = match body[0] {
        1..=5 => Msg::Record(decode_record(body)?),
        TAG_HELLO => {
            let mut pos = 1;
            let proto = get_u16(body, &mut pos)?;
            let name = get_string(body, &mut pos)?;
            Msg::Hello { proto, name }
        }
        TAG_REGISTER => {
            let mut pos = 1;
            let monitor = get_monitor(body, &mut pos)?;
            let name = get_string(body, &mut pos)?;
            let now = Nanos::new(get_u64(body, &mut pos)?);
            let initial = decode_state(body, &mut pos)?;
            Msg::Register { monitor, name, now, initial }
        }
        TAG_CHECKPOINT_REQ => {
            let mut pos = 1;
            let id = get_u64(body, &mut pos)?;
            let now = Nanos::new(get_u64(body, &mut pos)?);
            let monitors = get_monitor_list(body, &mut pos)?;
            let snapshots = get_snapshots(body, &mut pos)?;
            let gates = get_gates(body, &mut pos)?;
            Msg::CheckpointReq { id, now, monitors, snapshots, gates }
        }
        TAG_CHECKPOINT_RESP => {
            let mut pos = 1;
            let id = get_u64(body, &mut pos)?;
            let snapshots = get_snapshots(body, &mut pos)?;
            let gates = get_gates(body, &mut pos)?;
            let report = decode_report(body, &mut pos)?;
            Msg::CheckpointResp { id, snapshots, gates, report }
        }
        TAG_VERDICTS => {
            let mut pos = 1;
            Msg::Verdicts(decode_violations(body, &mut pos)?)
        }
        TAG_SHUTDOWN => Msg::Shutdown,
        tag => {
            return Err(DecodeError {
                detail: format!("unknown message tag {tag}"),
                offset: ENVELOPE_HEADER_BYTES,
            })
        }
    };
    Ok(Envelope { seq, hlc, msg })
}

// --- primitive helpers ------------------------------------------------

fn put_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_monitor(out: &mut Vec<u8>, m: MonitorId) {
    out.extend_from_slice(&m.index().to_le_bytes());
}

fn put_monitor_list(out: &mut Vec<u8>, monitors: &[MonitorId]) {
    out.extend_from_slice(&(monitors.len() as u32).to_le_bytes());
    for &m in monitors {
        put_monitor(out, m);
    }
}

fn put_snapshots(out: &mut Vec<u8>, snapshots: &[(MonitorId, MonitorState)]) {
    out.extend_from_slice(&(snapshots.len() as u32).to_le_bytes());
    for (m, state) in snapshots {
        put_monitor(out, *m);
        encode_state(out, state);
    }
}

fn put_gates(out: &mut Vec<u8>, gates: &[(MonitorId, u64)]) {
    out.extend_from_slice(&(gates.len() as u32).to_le_bytes());
    for &(m, count) in gates {
        put_monitor(out, m);
        out.extend_from_slice(&count.to_le_bytes());
    }
}

fn err_at(pos: usize, detail: &str) -> DecodeError {
    DecodeError { detail: detail.into(), offset: pos }
}

fn get_bytes<'a>(buf: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], DecodeError> {
    if buf.len() - *pos < n {
        return Err(err_at(*pos, "truncated message"));
    }
    let out = &buf[*pos..*pos + n];
    *pos += n;
    Ok(out)
}

fn get_u16(buf: &[u8], pos: &mut usize) -> Result<u16, DecodeError> {
    Ok(u16::from_le_bytes(get_bytes(buf, pos, 2)?.try_into().expect("2 bytes")))
}

fn get_u32(buf: &[u8], pos: &mut usize) -> Result<u32, DecodeError> {
    Ok(u32::from_le_bytes(get_bytes(buf, pos, 4)?.try_into().expect("4 bytes")))
}

fn get_u64(buf: &[u8], pos: &mut usize) -> Result<u64, DecodeError> {
    Ok(u64::from_le_bytes(get_bytes(buf, pos, 8)?.try_into().expect("8 bytes")))
}

fn get_len(buf: &[u8], pos: &mut usize) -> Result<usize, DecodeError> {
    let n = get_u32(buf, pos)? as usize;
    // A corrupt length cannot force an allocation beyond the buffer.
    if n > buf.len() - *pos {
        return Err(err_at(*pos, "length field exceeds message"));
    }
    Ok(n)
}

fn get_string(buf: &[u8], pos: &mut usize) -> Result<String, DecodeError> {
    let n = get_len(buf, pos)?;
    let bytes = get_bytes(buf, pos, n)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| err_at(*pos, "invalid utf-8 string"))
}

fn get_monitor(buf: &[u8], pos: &mut usize) -> Result<MonitorId, DecodeError> {
    Ok(MonitorId::new(get_u32(buf, pos)?))
}

fn get_monitor_list(buf: &[u8], pos: &mut usize) -> Result<Vec<MonitorId>, DecodeError> {
    let n = get_len(buf, pos)?;
    (0..n).map(|_| get_monitor(buf, pos)).collect()
}

fn get_snapshots(
    buf: &[u8],
    pos: &mut usize,
) -> Result<Vec<(MonitorId, MonitorState)>, DecodeError> {
    let n = get_len(buf, pos)?;
    (0..n).map(|_| Ok((get_monitor(buf, pos)?, decode_state(buf, pos)?))).collect()
}

fn get_gates(buf: &[u8], pos: &mut usize) -> Result<Vec<(MonitorId, u64)>, DecodeError> {
    let n = get_len(buf, pos)?;
    (0..n).map(|_| Ok((get_monitor(buf, pos)?, get_u64(buf, pos)?))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmon_core::{Event, MonitorSpec, Pid};

    fn roundtrip(msg: Msg) -> Envelope {
        let env =
            Envelope { seq: 42, hlc: HlcStamp { physical: Nanos::new(1_000), logical: 7 }, msg };
        let bytes = encode_envelope(&env);
        let back = decode_envelope(&bytes).expect("decode");
        assert_eq!(back, env);
        back
    }

    #[test]
    fn every_message_shape_roundtrips() {
        let al = MonitorSpec::allocator("res", 1);
        let m = MonitorId::new(3);
        let event = Event::enter(9, Nanos::new(90), m, Pid::new(2), al.release, true);
        let state = al.spec.empty_state();
        let report = FaultReport { events_checked: 5, ..FaultReport::default() };

        roundtrip(Msg::Hello { proto: PROTO_VERSION, name: "worker-a".into() });
        roundtrip(Msg::Register {
            monitor: m,
            name: "res".into(),
            now: Nanos::new(5),
            initial: state.clone(),
        });
        roundtrip(Msg::Record(Record::Events(vec![event])));
        roundtrip(Msg::CheckpointReq {
            id: 11,
            now: Nanos::new(100),
            monitors: vec![m, MonitorId::new(4)],
            snapshots: vec![(m, state.clone())],
            gates: vec![(m, 17)],
        });
        roundtrip(Msg::CheckpointResp {
            id: 11,
            snapshots: vec![(m, state)],
            gates: vec![],
            report,
        });
        roundtrip(Msg::Verdicts(Vec::new()));
        roundtrip(Msg::Shutdown);
    }

    #[test]
    fn event_batches_use_the_oplog_codec_bytes() {
        // The wire bytes after the envelope header ARE the journal
        // record — a service can tee them into an oplog unmodified.
        let al = MonitorSpec::allocator("res", 1);
        let record = Record::Events(vec![Event::enter(
            1,
            Nanos::new(10),
            MonitorId::new(0),
            Pid::new(1),
            al.request,
            true,
        )]);
        let env = Envelope { seq: 0, hlc: HlcStamp::ZERO, msg: Msg::Record(record.clone()) };
        let bytes = encode_envelope(&env);
        assert_eq!(&bytes[ENVELOPE_HEADER_BYTES..], &encode_record(&record)[..]);
    }

    /// The wire format pinned byte for byte: an event batch, a
    /// registration and a checkpoint answer, each framed as it crosses
    /// a socket (`[len | crc32 | envelope]`).
    #[test]
    fn wire_frames_are_byte_for_byte_the_golden_ones() {
        let al = MonitorSpec::allocator("res", 2);
        let m = MonitorId::new(3);
        let hlc = HlcStamp { physical: Nanos::new(1_000), logical: 7 };
        let messages = [
            Msg::Record(Record::Events(vec![
                Event::enter(1, Nanos::new(10), m, Pid::new(1), al.request, true),
                Event::signal_exit(2, Nanos::new(11), m, Pid::new(1), al.request, None, false),
            ])),
            Msg::Register {
                monitor: m,
                name: "res".into(),
                now: Nanos::new(5),
                initial: al.spec.empty_state(),
            },
            Msg::CheckpointResp {
                id: 11,
                snapshots: vec![(m, al.spec.empty_state())],
                gates: vec![(m, 2)],
                report: FaultReport { events_checked: 2, ..FaultReport::default() },
            },
        ];
        let golden = [
            "54000000f681d06c0000000000000000e803000000000000070000000302000000010000
             00000000000a000000000000000300000001000000000000010002000000000000000b00
             0000000000000300000001000000000002000000",
            "4100000092d164c20100000000000000e803000000000000070000001103000000030000
             007265730500000000000000000000000100000000000000000000000102000000000000
             00",
            "6e00000052eab9440200000000000000e80300000000000007000000140b000000000000
             000100000003000000000000000100000000000000000000000102000000000000000100
             000003000000020000000000000000000000000000000200000000000000000000000000
             00000000000000000000",
        ];
        for (seq, (msg, golden)) in messages.into_iter().zip(golden).enumerate() {
            let env = Envelope { seq: seq as u64, hlc, msg };
            let mut frame = Vec::new();
            rmon_storage::frame::frame_into(&mut frame, &encode_envelope(&env));
            let hex: String = frame.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, golden.split_whitespace().collect::<String>(), "{:?}", env.msg);
        }
    }

    #[test]
    fn corrupt_and_truncated_payloads_are_rejected_not_panicked() {
        let env = Envelope {
            seq: 1,
            hlc: HlcStamp::ZERO,
            msg: Msg::Hello { proto: 1, name: "w".into() },
        };
        let bytes = encode_envelope(&env);
        for cut in 0..bytes.len() {
            assert!(decode_envelope(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut bad = bytes.clone();
        bad[ENVELOPE_HEADER_BYTES] = 99; // unknown tag
        assert!(decode_envelope(&bad).is_err());
        // A length field pointing past the buffer is an error, not an
        // allocation.
        let mut oversized = bytes;
        let len_off = ENVELOPE_HEADER_BYTES + 3;
        oversized[len_off..len_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_envelope(&oversized).is_err());
    }
}
