//! Decoder totality on the frame path: `parse_frame`, `FrameBuf`,
//! `scan_segment_bytes`, `decode_record` and the wire's
//! `decode_envelope`, fed seeded random bytes and mutated valid frames
//! (bit flips, overwritten bytes, forged length fields, truncation,
//! splices) for a fixed number of iterations.
//!
//! None of them may panic, and every rejection is a typed value: a
//! `FrameStep::{NeedMore, Invalid}`, a `FrameError`, a `DecodeError`
//! that points inside its input, or a `SegmentScan` whose valid prefix
//! and torn tail add up to the file. What they accept must agree with
//! the bytes: a parsed frame's CRC matches its payload, `FrameBuf`
//! pops what `parse_frame` walks, and a decoded record or envelope
//! re-encodes to canonical bytes that decode and encode to themselves.
//!
//! The `.mspec` front end gets the same treatment: random bytes and
//! mutations of `examples/specs/*.mspec` go through
//! `textfmt::parse_specs`, and every spec that parses through
//! `analyze`. Neither may panic, a rejection is a `TextError` naming a
//! line of the input or a coded diagnostic, and every call order the
//! analyzer passes compiles to at most `CompiledPath::MAX_STATES`
//! states.
//!
//! The seeds and iteration counts are fixed, so every run checks the
//! same inputs and a failure reproduces exactly.

use rmon_core::oplog::{crc32, decode_record, encode_record, Record};
use rmon_core::spec::textfmt::parse_specs;
use rmon_core::{
    analyze, CompiledPath, CondId, DiagCode, Event, FaultKind, FaultReport, HlcStamp, MonitorId,
    MonitorSpec, MonitorState, Nanos, OrderState, Pid, PidProc, PredictedViolation, ProcName,
    RuleId, VClock, Violation,
};
use rmon_net::proto::{decode_envelope, encode_envelope, Envelope, Msg, PROTO_VERSION};
use rmon_storage::frame::{frame_into, parse_frame, FrameBuf, FrameStep, FRAME_HEADER_BYTES};
use rmon_storage::scan_segment_bytes;
use rmon_storage::segment::SEGMENT_MAGIC;

/// Payload cap for every decoder under test.
const CAP: u32 = 4 << 10;

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }
}

fn records() -> Vec<Record> {
    let m = MonitorId::new(3);
    let al = MonitorSpec::allocator("res", 2);
    let mut vc = VClock::for_slot(1);
    vc.tick();
    let violation = |seq| Violation {
        monitor: m,
        rule: RuleId::St8DuplicateRequest,
        fault: Some(FaultKind::DoubleAcquire),
        pid: Some(Pid::new(7)),
        event_seq: Some(seq),
        detected_at: Nanos::new(seq),
        message: "duplicate".into(),
    };
    let mut state = MonitorState::with_resources(2, 1);
    state.entry_queue.push(PidProc::new(Pid::new(1), al.request));
    vec![
        Record::Epoch { time: Nanos::new(5) },
        Record::Register { monitor: m, name: "res".into(), time: Nanos::new(6) },
        Record::Events(vec![
            Event::enter(1, Nanos::new(10), m, Pid::new(1), al.request, true),
            Event::wait(2, Nanos::new(11), m, Pid::new(1), al.request, CondId::new(0)),
            Event::signal_exit(
                3,
                Nanos::new(12),
                m,
                Pid::new(2),
                al.release,
                Some(al.avail_cond),
                true,
            )
            .with_vc(vc),
            Event::signal_exit(4, Nanos::new(13), m, Pid::new(1), al.release, None, false),
            Event::terminate(5, Nanos::new(14), m, Pid::new(2), ProcName::new(1))
                .with_vc(VClock::saturated()),
        ]),
        Record::Realtime(vec![violation(1), violation(2)]),
        Record::Checkpoint {
            now: Nanos::new(99),
            snapshots: vec![(m, state), (MonitorId::new(4), MonitorState::new(0))],
            report: FaultReport {
                violations: vec![violation(3)],
                predicted: vec![PredictedViolation {
                    violation: violation(4),
                    witness: vec![4, 3],
                }],
                events_checked: 5,
                window_start: Nanos::new(1),
                window_end: Nanos::new(99),
            },
        },
    ]
}

fn envelopes() -> Vec<Envelope> {
    let m = MonitorId::new(3);
    let state = MonitorSpec::allocator("res", 2).spec.empty_state();
    let mut msgs: Vec<Msg> = records().into_iter().map(Msg::Record).collect();
    msgs.extend([
        Msg::Hello { proto: PROTO_VERSION, name: "worker".into() },
        Msg::Register {
            monitor: m,
            name: "res".into(),
            now: Nanos::new(5),
            initial: state.clone(),
        },
        Msg::CheckpointReq {
            id: 1,
            now: Nanos::new(50),
            monitors: vec![m, MonitorId::new(4)],
            snapshots: vec![(m, state.clone())],
            gates: vec![(m, 9)],
        },
        Msg::CheckpointResp {
            id: 1,
            snapshots: vec![(m, state)],
            gates: vec![(m, 9)],
            report: FaultReport { events_checked: 3, ..FaultReport::default() },
        },
        Msg::Verdicts(Vec::new()),
        Msg::Shutdown,
    ]);
    msgs.into_iter()
        .enumerate()
        .map(|(i, msg)| Envelope {
            seq: i as u64,
            hlc: HlcStamp { physical: Nanos::new(100 + i as u64), logical: 2 },
            msg,
        })
        .collect()
}

/// One mutation of `bytes`: bit flips, an overwritten byte, a forged
/// little-endian `u32` (length fields), a truncation, or a splice of
/// random bytes.
fn mutate(rng: &mut Rng, bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    if out.is_empty() {
        let len = rng.below(16);
        return rng.bytes(len);
    }
    match rng.below(5) {
        0 => {
            for _ in 0..=rng.below(4) {
                let i = rng.below(out.len());
                out[i] ^= 1 << rng.below(8);
            }
        }
        1 => {
            let i = rng.below(out.len());
            out[i] = rng.next() as u8;
        }
        2 => {
            let i = rng.below(out.len());
            let forged = match rng.below(3) {
                0 => u32::MAX,
                1 => rng.below(64) as u32,
                _ => rng.next() as u32,
            };
            for (k, b) in forged.to_le_bytes().into_iter().enumerate() {
                if let Some(slot) = out.get_mut(i + k) {
                    *slot = b;
                }
            }
        }
        3 => out.truncate(rng.below(out.len())),
        _ => {
            let i = rng.below(out.len());
            let len = rng.below(12);
            let spliced = rng.bytes(len);
            out.splice(i..i, spliced);
        }
    }
    out
}

fn check_record_payload(payload: &[u8]) {
    match decode_record(payload) {
        Ok(record) => {
            // Encoding is canonical (snapshots sorted by id), so the
            // accepted record's encoding must be a fixed point.
            let bytes = encode_record(&record);
            let again = decode_record(&bytes).expect("re-encoded record decodes");
            assert_eq!(encode_record(&again), bytes, "accepted record does not re-encode stably");
        }
        Err(e) => assert!(e.offset <= payload.len(), "{e} points past {} bytes", payload.len()),
    }
}

fn check_envelope_payload(payload: &[u8]) {
    match decode_envelope(payload) {
        Ok(env) => {
            let bytes = encode_envelope(&env);
            let again = decode_envelope(&bytes).expect("re-encoded envelope decodes");
            assert_eq!(
                encode_envelope(&again),
                bytes,
                "accepted envelope does not re-encode stably"
            );
        }
        Err(e) => assert!(e.offset <= payload.len(), "{e} points past {} bytes", payload.len()),
    }
}

/// `parse_frame` at the head of `buf`, and every decoder on whatever
/// payload it accepts.
fn check_frame_stream(buf: &[u8]) {
    let mut pos = 0;
    loop {
        let head = &buf[pos..];
        match parse_frame(head, CAP) {
            FrameStep::Frame { len } => {
                assert!(len > 0 && len <= CAP as usize, "frame length {len} outside (0, cap]");
                let payload = &head[FRAME_HEADER_BYTES..FRAME_HEADER_BYTES + len];
                assert_eq!(crc32(payload).to_le_bytes(), head[4..8], "accepted a bad CRC");
                check_record_payload(payload);
                check_envelope_payload(payload);
                pos += FRAME_HEADER_BYTES + len;
            }
            FrameStep::NeedMore => {
                let short = head.len() < FRAME_HEADER_BYTES
                    || FRAME_HEADER_BYTES
                        + u32::from_le_bytes(head[..4].try_into().unwrap()) as usize
                        > head.len();
                assert!(short, "NeedMore on a whole frame");
                return;
            }
            FrameStep::Invalid(why) => {
                assert!(!why.is_empty());
                return;
            }
        }
    }
}

/// The incremental decoder over the same bytes, fed in random chunks:
/// it must yield exactly what the stateless walk yields, then stop with
/// a sticky error or an empty buffer.
fn check_framebuf(rng: &mut Rng, buf: &[u8]) {
    let mut expected = Vec::new();
    let mut pos = 0;
    while let FrameStep::Frame { len } = parse_frame(&buf[pos..], CAP) {
        expected.push(buf[pos + FRAME_HEADER_BYTES..pos + FRAME_HEADER_BYTES + len].to_vec());
        pos += FRAME_HEADER_BYTES + len;
    }
    let mut decoder = FrameBuf::new(CAP);
    let mut got = Vec::new();
    let mut failed = false;
    let mut fed = 0;
    while fed < buf.len() && !failed {
        let n = 1 + rng.below(64);
        let end = (fed + n).min(buf.len());
        decoder.extend(&buf[fed..end]);
        fed = end;
        loop {
            match decoder.next_frame() {
                Ok(Some(payload)) => got.push(payload),
                Ok(None) => break,
                Err(e) => {
                    assert!(decoder.next_frame().is_err(), "{e} must be sticky");
                    failed = true;
                    break;
                }
            }
        }
    }
    assert_eq!(got, expected, "FrameBuf and parse_frame disagree");
}

fn check_segment(bytes: &[u8]) {
    let scan = scan_segment_bytes(bytes, CAP);
    assert_eq!(scan.valid_len + scan.torn_bytes, bytes.len() as u64);
    if !scan.header_ok {
        assert_eq!((scan.valid_len, scan.records.len()), (0, 0));
    }
    for record in &scan.records {
        assert!(!record.is_empty() && record.len() <= CAP as usize);
        check_record_payload(record);
    }
}

/// Every record and every envelope framed, as a journal and as a wire
/// stream would carry them.
fn corpus() -> (Vec<Vec<u8>>, Vec<u8>, Vec<u8>) {
    let mut payloads: Vec<Vec<u8>> = records().iter().map(encode_record).collect();
    payloads.extend(envelopes().iter().map(encode_envelope));
    let mut stream = Vec::new();
    for payload in &payloads {
        frame_into(&mut stream, payload);
    }
    let mut segment = SEGMENT_MAGIC.to_vec();
    for record in records() {
        frame_into(&mut segment, &encode_record(&record));
    }
    (payloads, stream, segment)
}

#[test]
fn the_valid_corpus_decodes() {
    let (payloads, stream, segment) = corpus();
    let records = records();
    for (payload, record) in payloads.iter().zip(&records) {
        assert_eq!(&decode_record(payload).unwrap(), record);
    }
    for (payload, env) in payloads[records.len()..].iter().zip(envelopes()) {
        assert_eq!(decode_envelope(payload).unwrap(), env);
    }
    let scan = scan_segment_bytes(&segment, CAP);
    assert_eq!((scan.records.len(), scan.torn_bytes), (records.len(), 0));
    check_frame_stream(&stream);
}

#[test]
fn mutated_payloads_never_panic_and_fail_typed() {
    let (payloads, _, _) = corpus();
    let mut rng = Rng(0x5EED_0001);
    for i in 0..20_000 {
        let base = &payloads[i % payloads.len()];
        let payload = mutate(&mut rng, base);
        check_record_payload(&payload);
        check_envelope_payload(&payload);
    }
}

#[test]
fn mutated_frame_streams_never_panic_and_fail_typed() {
    let (_, stream, _) = corpus();
    let mut rng = Rng(0x5EED_0002);
    for _ in 0..3_000 {
        let mut buf = stream.clone();
        for _ in 0..=rng.below(3) {
            buf = mutate(&mut rng, &buf);
        }
        check_frame_stream(&buf);
        check_framebuf(&mut rng, &buf);
    }
}

#[test]
fn mutated_segments_never_panic_and_fail_typed() {
    let (_, _, segment) = corpus();
    let mut rng = Rng(0x5EED_0003);
    for _ in 0..3_000 {
        let mut bytes = segment.clone();
        for _ in 0..=rng.below(3) {
            bytes = mutate(&mut rng, &bytes);
        }
        check_segment(&bytes);
    }
}

#[test]
fn random_bytes_never_panic_and_fail_typed() {
    let mut rng = Rng(0x5EED_0004);
    for _ in 0..5_000 {
        let len = rng.below(256);
        let mut bytes = rng.bytes(len);
        check_record_payload(&bytes);
        check_envelope_payload(&bytes);
        check_frame_stream(&bytes);
        check_framebuf(&mut rng, &bytes);
        // Behind a valid header the scanner reaches the frame parser.
        bytes.splice(0..0, SEGMENT_MAGIC);
        check_segment(&bytes);
    }
}

/// The shipped `.mspec` files, in name order.
fn mspec_corpus() -> Vec<Vec<u8>> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("examples/specs")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "mspec"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 2, "no .mspec files in {dir:?}");
    paths.iter().map(|p| std::fs::read(p).expect("read .mspec")).collect()
}

fn check_mspec(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    let file = match parse_specs(&text) {
        Ok(file) => file,
        Err(e) => {
            let lines = text.lines().count();
            assert!(e.line >= 1 && e.line <= lines.max(1), "{e} outside {lines} lines");
            return;
        }
    };
    for d in &file.diagnostics.diagnostics {
        assert_eq!(d.code, DiagCode::PathSyntax, "front end raised {d}");
    }
    for spec in &file.specs {
        let report = analyze(spec);
        if spec.call_order.is_none() {
            continue;
        }
        // Algorithm 3 tracks an order iff it compiles, within the cap;
        // the analyzer reports every order it cannot track.
        let order = OrderState::new(MonitorId::new(0), spec);
        match order.call_order() {
            Some(table) => assert!(table.state_count() <= CompiledPath::MAX_STATES),
            None => assert!(
                report.diagnostics.iter().any(|d| {
                    d.code == DiagCode::PathUnknownProc || d.code == DiagCode::PathSyntax
                }),
                "an untracked order passed the analyzer: {report}"
            ),
        }
    }
}

#[test]
fn mspec_inputs_never_panic_and_fail_typed() {
    let corpus = mspec_corpus();
    for text in &corpus {
        check_mspec(text);
    }
    let mut rng = Rng(0x5EED_0005);
    for i in 0..600 {
        let mut bytes = corpus[i % corpus.len()].clone();
        for _ in 0..=rng.below(3) {
            bytes = mutate(&mut rng, &bytes);
        }
        check_mspec(&bytes);
        let len = rng.below(256);
        check_mspec(&rng.bytes(len));
    }
}
