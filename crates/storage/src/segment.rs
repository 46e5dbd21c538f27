//! One append-only segment file: CRC-framed records behind a fixed
//! header, with torn-tail recovery.
//!
//! ## On-disk layout (normative — see `docs/STORAGE.md`)
//!
//! ```text
//! [magic "RMONOPL" | version u8]                     8-byte header
//! [len u32 LE | crc32 u32 LE | payload len bytes]*   frames, densely packed
//! ```
//!
//! `crc32` is [`rmon_core::oplog::crc32`] over the payload bytes only.
//! A frame with `len == 0`, `len > max_record_bytes`, `len` past the
//! end of the file, or a CRC mismatch is **torn**: the valid prefix of
//! the segment ends at the frame's first byte, and everything from
//! there on is discarded. Because writers append frames atomically with
//! respect to their own ordering (a frame is written before the next
//! one starts), a crash can only tear the *last* frame of a segment.

use crate::frame::{frame_into, parse_frame, FrameStep};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Segment file magic: 7 identifying bytes + 1 format-version byte.
pub const SEGMENT_MAGIC: [u8; 8] = *b"RMONOPL\x01";

/// Header length in bytes.
pub const SEGMENT_HEADER_BYTES: u64 = 8;

/// Frame overhead in bytes (`len` + `crc`) — see [`crate::frame`],
/// which owns the frame codec shared with the wire protocol.
pub const FRAME_HEADER_BYTES: u64 = crate::frame::FRAME_HEADER_BYTES as u64;

/// Result of scanning one segment's bytes: the whole records found and
/// where the valid prefix ends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentScan {
    /// Decoded frame payloads, in file order.
    pub records: Vec<Vec<u8>>,
    /// Length in bytes of the valid prefix (header + whole frames).
    /// Truncating the file to this length removes the torn tail.
    pub valid_len: u64,
    /// Bytes past the valid prefix (the torn tail; 0 for a clean file).
    pub torn_bytes: u64,
    /// Whether the 8-byte header was present and well-formed. A segment
    /// with a bad header has no valid prefix at all (`valid_len == 0`).
    pub header_ok: bool,
}

/// Scans segment bytes (header + frames) and returns every whole record
/// plus the torn-tail boundary. Never panics on any input — corrupt
/// length fields are bounded by `max_record_bytes` and the buffer size.
pub fn scan_segment_bytes(bytes: &[u8], max_record_bytes: u32) -> SegmentScan {
    let mut records = Vec::new();
    let scan = walk_segment_bytes(bytes, max_record_bytes, |payload| {
        records.push(payload.to_vec());
    });
    SegmentScan { records, ..scan }
}

/// The scan behind [`scan_segment_bytes`]: hands `visit` each whole
/// frame's payload, borrowed from `bytes`, in file order, and returns
/// the boundaries with `records` left empty — it copies nothing.
pub(crate) fn walk_segment_bytes(
    bytes: &[u8],
    max_record_bytes: u32,
    mut visit: impl FnMut(&[u8]),
) -> SegmentScan {
    if bytes.len() < SEGMENT_HEADER_BYTES as usize || bytes[..8] != SEGMENT_MAGIC {
        return SegmentScan {
            records: Vec::new(),
            valid_len: 0,
            torn_bytes: bytes.len() as u64,
            header_ok: false,
        };
    }
    let mut pos = SEGMENT_HEADER_BYTES as usize;
    // Both an incomplete frame (NeedMore) and a corrupt one (Invalid)
    // end the valid prefix here: on disk either shape is a torn tail.
    while let FrameStep::Frame { len } = parse_frame(&bytes[pos..], max_record_bytes) {
        let head = pos + FRAME_HEADER_BYTES as usize;
        visit(&bytes[head..head + len]);
        pos = head + len;
    }
    SegmentScan {
        records: Vec::new(),
        valid_len: pos as u64,
        torn_bytes: (bytes.len() - pos) as u64,
        header_ok: true,
    }
}

/// Reads and scans a segment file. See [`scan_segment_bytes`].
pub fn scan_segment(path: &Path, max_record_bytes: u32) -> io::Result<SegmentScan> {
    let mut bytes = Vec::new();
    read_segment(path, &mut bytes)?;
    Ok(scan_segment_bytes(&bytes, max_record_bytes))
}

/// Replaces `buf`'s contents with the segment file's bytes, reusing its
/// allocation.
pub(crate) fn read_segment(path: &Path, buf: &mut Vec<u8>) -> io::Result<()> {
    buf.clear();
    File::open(path)?.read_to_end(buf)?;
    Ok(())
}

/// Recovers a segment in place: scans it, truncates the torn tail (so
/// the file ends at the last whole record) and returns the scan. A
/// segment whose header is damaged is truncated to zero length; the
/// caller decides whether to re-seed it with a fresh header.
pub fn recover_segment(path: &Path, max_record_bytes: u32) -> io::Result<SegmentScan> {
    let scan = scan_segment(path, max_record_bytes)?;
    if scan.torn_bytes > 0 {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(scan.valid_len)?;
        file.sync_data()?;
    }
    Ok(scan)
}

/// The append half of one segment: an open file positioned at its end,
/// tracking its byte length so rotation decisions need no `stat`.
#[derive(Debug)]
pub struct SegmentWriter {
    file: File,
    path: PathBuf,
    bytes: u64,
}

impl SegmentWriter {
    /// Creates a fresh segment (truncating any existing file) and
    /// writes its header.
    pub fn create(path: &Path) -> io::Result<Self> {
        let mut file = OpenOptions::new().create(true).write(true).truncate(true).open(path)?;
        file.write_all(&SEGMENT_MAGIC)?;
        Ok(SegmentWriter { file, path: path.to_path_buf(), bytes: SEGMENT_HEADER_BYTES })
    }

    /// Opens an existing segment for appending after recovery. `len`
    /// must be the recovered (post-truncation) file length.
    pub fn append_to(path: &Path, len: u64) -> io::Result<Self> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(SegmentWriter { file, path: path.to_path_buf(), bytes: len })
    }

    /// Appends one framed record; returns the new file length.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<u64> {
        let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES as usize + payload.len());
        frame_into(&mut frame, payload);
        self.file.write_all(&frame)?;
        self.bytes += frame.len() as u64;
        Ok(self.bytes)
    }

    /// Current file length in bytes (header + frames).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The segment's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Flushes appended frames to durable storage (`fdatasync`).
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("rmon-seg-{tag}-{}", std::process::id()))
            .join(format!("{:?}", std::thread::current().id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_records(path: &Path, payloads: &[&[u8]]) -> u64 {
        let mut w = SegmentWriter::create(path).unwrap();
        for p in payloads {
            w.append(p).unwrap();
        }
        w.sync().unwrap();
        w.bytes()
    }

    #[test]
    fn roundtrip_records() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("seg");
        write_records(&path, &[b"alpha".as_slice(), b"beta", b"gamma-gamma"]);
        let scan = scan_segment(&path, 1 << 20).unwrap();
        assert!(scan.header_ok);
        assert_eq!(scan.torn_bytes, 0);
        assert_eq!(
            scan.records,
            vec![b"alpha".to_vec(), b"beta".to_vec(), b"gamma-gamma".to_vec()]
        );
    }

    /// Satellite requirement: truncate the file at **every byte offset**
    /// and assert recovery lands on the last whole record, no panics.
    #[test]
    fn truncation_at_every_byte_offset_recovers_whole_prefix() {
        let dir = tmp_dir("trunc");
        let full = dir.join("full.seg");
        let len = write_records(&full, &[b"first-record".as_slice(), b"second", b"the-third-one"]);
        let bytes = std::fs::read(&full).unwrap();
        assert_eq!(bytes.len() as u64, len);
        // Frame boundaries: header, then 8+12, 8+6, 8+13.
        let boundaries = [8u64, 8 + 20, 8 + 20 + 14, 8 + 20 + 14 + 21];
        assert_eq!(*boundaries.last().unwrap(), len);
        for cut in 0..=bytes.len() {
            let path = dir.join("cut.seg");
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let scan = recover_segment(&path, 1 << 20).unwrap();
            // Expected: the largest boundary ≤ cut (0 if the header
            // itself is torn).
            let expect = boundaries.iter().rev().find(|&&b| b <= cut as u64).copied().unwrap_or(0);
            assert_eq!(scan.valid_len, expect, "cut at {cut}");
            let expect_records = boundaries.iter().filter(|&&b| b > 8 && b <= cut as u64).count();
            assert_eq!(scan.records.len(), expect_records, "cut at {cut}");
            assert_eq!(std::fs::metadata(&path).unwrap().len(), expect, "cut at {cut}");
            // Recovery is idempotent: a second pass finds a clean file.
            let again = recover_segment(&path, 1 << 20).unwrap();
            assert_eq!(again.torn_bytes, 0, "cut at {cut}");
            assert_eq!(again.records.len(), expect_records, "cut at {cut}");
        }
    }

    /// Satellite requirement: corrupt (bit-flip) the file at every byte
    /// offset; open() must recover to a whole-record prefix, no panics.
    #[test]
    fn corruption_at_every_byte_offset_never_panics() {
        let dir = tmp_dir("corrupt");
        let full = dir.join("full.seg");
        write_records(&full, &[b"first-record".as_slice(), b"second", b"the-third-one"]);
        let bytes = std::fs::read(&full).unwrap();
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            let path = dir.join("flip.seg");
            std::fs::write(&path, &corrupt).unwrap();
            let scan = recover_segment(&path, 1 << 20).unwrap();
            // Every surviving record must be one of the originals: a
            // flipped byte can only drop records (CRC/len/magic breaks),
            // never fabricate or alter one undetected.
            for rec in &scan.records {
                assert!(
                    [b"first-record".as_slice(), b"second", b"the-third-one"].contains(&&rec[..]),
                    "byte {i}: unexpected record {rec:?}"
                );
            }
            assert!(scan.records.len() <= 3, "byte {i}");
        }
    }

    #[test]
    fn oversized_length_field_is_torn_not_allocated() {
        let dir = tmp_dir("oversize");
        let path = dir.join("seg");
        write_records(&path, &[b"ok".as_slice()]);
        // Append a frame header claiming a 3 GiB payload.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&(3_000_000_000u32).to_le_bytes()).unwrap();
        f.write_all(&0u32.to_le_bytes()).unwrap();
        let scan = scan_segment(&path, 1 << 20).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.torn_bytes, 8);
    }

    #[test]
    fn append_to_continues_after_recovery() {
        let dir = tmp_dir("resume");
        let path = dir.join("seg");
        let len = write_records(&path, &[b"one".as_slice(), b"two"]);
        // Tear the tail by hand.
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - 2).unwrap();
        drop(file);
        let scan = recover_segment(&path, 1 << 20).unwrap();
        assert_eq!(scan.records.len(), 1);
        let mut w = SegmentWriter::append_to(&path, scan.valid_len).unwrap();
        w.append(b"three").unwrap();
        w.sync().unwrap();
        let scan = scan_segment(&path, 1 << 20).unwrap();
        assert_eq!(scan.records, vec![b"one".to_vec(), b"three".to_vec()]);
        assert_eq!(scan.torn_bytes, 0);
    }
}
