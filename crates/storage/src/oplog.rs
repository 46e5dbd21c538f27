//! The segmented oplog: a directory of append-only segment files with
//! LSN numbering, size-based rotation, count-based retention and
//! torn-tail recovery on open.
//!
//! Segments are named `oplog-<first_lsn:020>.seg`, where `first_lsn` is
//! the log sequence number of the segment's first record — so the
//! directory listing alone orders the log and locates any LSN. Only the
//! highest-numbered segment is ever appended to; rotation seals it and
//! starts a new one. Retention deletes the oldest sealed segments once
//! the directory would exceed `max_segments` files, which bounds disk
//! use at roughly `max_segments × segment_bytes` (one in-flight record
//! may overshoot a segment's soft size cap).

use crate::segment::{
    read_segment, recover_segment, walk_segment_bytes, SegmentWriter, SEGMENT_HEADER_BYTES,
};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// When appended frames are flushed (`fdatasync`) to durable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Never fsync; the OS page cache decides. Fastest, loses the most
    /// on power failure (a process crash alone loses nothing the page
    /// cache holds).
    Never,
    /// Fsync a segment once, when it is sealed by rotation, and on
    /// explicit [`Oplog::sync`] calls (the runtime syncs at every
    /// checkpoint barrier). The default.
    #[default]
    OnRotate,
    /// Fsync after every append — maximum durability, one disk flush
    /// per record.
    EveryAppend,
}

/// Tuning knobs for an [`Oplog`]. All fields are public; start from
/// `OplogConfig::default()` and override.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OplogConfig {
    /// Soft segment size cap in bytes: an append that finds the current
    /// segment at or past this size rotates first. Default 8 MiB.
    pub segment_bytes: u64,
    /// Maximum number of segment files kept (active + sealed); the
    /// oldest sealed segments are deleted past this. Default 8.
    pub max_segments: usize,
    /// Fsync policy. Default [`FsyncPolicy::OnRotate`].
    pub fsync: FsyncPolicy,
    /// Upper bound on one record's payload size; larger appends are
    /// rejected and larger length fields found on disk are treated as
    /// torn. Default 16 MiB.
    pub max_record_bytes: u32,
}

impl Default for OplogConfig {
    fn default() -> Self {
        OplogConfig {
            segment_bytes: 8 << 20,
            max_segments: 8,
            fsync: FsyncPolicy::default(),
            max_record_bytes: 16 << 20,
        }
    }
}

/// What [`Oplog::open`] found and repaired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Segment files present at open.
    pub segments: usize,
    /// Whole records recovered from the tail (active) segment.
    pub tail_records: u64,
    /// Torn bytes truncated from the tail segment.
    pub truncated_bytes: u64,
}

/// A directory-backed, append-only, LSN-numbered record log.
///
/// Writers hand [`Oplog::append`] an encoded payload and get back the
/// record's LSN; the engine frames it (see [`crate::segment`]), rotates
/// and retires segments, and applies the [`FsyncPolicy`]. Readers use
/// [`Oplog::read_dir_records`] on the directory — no coordination with
/// the writer beyond the format's crash-consistency rules.
#[derive(Debug)]
pub struct Oplog {
    dir: PathBuf,
    cfg: OplogConfig,
    /// Sealed segments, oldest first: `(first_lsn, path)`.
    sealed: Vec<(u64, PathBuf)>,
    writer: SegmentWriter,
    active_first_lsn: u64,
    active_records: u64,
    next_lsn: u64,
    recovery: RecoveryReport,
    rotated: u64,
    retired: u64,
}

fn segment_path(dir: &Path, first_lsn: u64) -> PathBuf {
    dir.join(format!("oplog-{first_lsn:020}.seg"))
}

fn parse_segment_name(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let digits = name.strip_prefix("oplog-")?.strip_suffix(".seg")?;
    if digits.len() != 20 {
        return None;
    }
    digits.parse().ok()
}

/// Lists a directory's segment files sorted by first LSN.
fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if let Some(lsn) = parse_segment_name(&path) {
            out.push((lsn, path));
        }
    }
    out.sort_unstable_by_key(|(lsn, _)| *lsn);
    Ok(out)
}

impl Oplog {
    /// Opens (creating if necessary) the oplog in `dir`, recovering the
    /// active segment's torn tail: the file is truncated back to its
    /// last whole record, so a crash mid-write never leaves a partial
    /// frame in the committed prefix. Sealed segments are not rescanned
    /// here (they were complete at rotation); mid-log corruption
    /// surfaces at read time instead.
    pub fn open(dir: impl Into<PathBuf>, cfg: OplogConfig) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut segments = list_segments(&dir)?;
        let (writer, active_first_lsn, active_records, recovery) = match segments.pop() {
            None => {
                let path = segment_path(&dir, 0);
                let writer = SegmentWriter::create(&path)?;
                (writer, 0, 0, RecoveryReport { segments: 0, ..Default::default() })
            }
            Some((first_lsn, path)) => {
                let scan = recover_segment(&path, cfg.max_record_bytes)?;
                let recovery = RecoveryReport {
                    segments: segments.len() + 1,
                    tail_records: scan.records.len() as u64,
                    truncated_bytes: scan.torn_bytes,
                };
                if scan.header_ok {
                    let writer =
                        SegmentWriter::append_to(&path, scan.valid_len.max(SEGMENT_HEADER_BYTES))?;
                    (writer, first_lsn, scan.records.len() as u64, recovery)
                } else {
                    // The header itself was destroyed: the segment holds
                    // nothing recoverable. Re-seed it in place.
                    let writer = SegmentWriter::create(&path)?;
                    (writer, first_lsn, 0, recovery)
                }
            }
        };
        let next_lsn = active_first_lsn + active_records;
        Ok(Oplog {
            dir,
            cfg,
            sealed: segments,
            writer,
            active_first_lsn,
            active_records,
            next_lsn,
            recovery,
            rotated: 0,
            retired: 0,
        })
    }

    /// Appends one record payload; returns its LSN. Rotates the active
    /// segment first when it is at or past the size cap, and applies
    /// the retention limit after each rotation.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<u64> {
        if payload.is_empty() || payload.len() > self.cfg.max_record_bytes as usize {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("record payload of {} bytes outside (0, max_record_bytes]", payload.len()),
            ));
        }
        if self.writer.bytes() >= self.cfg.segment_bytes && self.active_records > 0 {
            self.rotate()?;
        }
        let lsn = self.next_lsn;
        self.writer.append(payload)?;
        self.next_lsn += 1;
        self.active_records += 1;
        if self.cfg.fsync == FsyncPolicy::EveryAppend {
            self.writer.sync()?;
        }
        Ok(lsn)
    }

    /// Seals the active segment and starts a new one named after the
    /// next LSN, then enforces [`OplogConfig::max_segments`].
    fn rotate(&mut self) -> io::Result<()> {
        if self.cfg.fsync != FsyncPolicy::Never {
            self.writer.sync()?;
        }
        self.sealed.push((self.active_first_lsn, self.writer.path().to_path_buf()));
        self.active_first_lsn = self.next_lsn;
        self.active_records = 0;
        let path = segment_path(&self.dir, self.active_first_lsn);
        self.writer = SegmentWriter::create(&path)?;
        self.rotated += 1;
        while self.sealed.len() + 1 > self.cfg.max_segments.max(1) {
            let (_, oldest) = self.sealed.remove(0);
            fs::remove_file(&oldest)?;
            self.retired += 1;
        }
        Ok(())
    }

    /// Flushes the active segment to durable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        self.writer.sync()
    }

    /// The LSN the next append will get.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// The first LSN still on disk (older records were retired).
    pub fn first_retained_lsn(&self) -> u64 {
        self.sealed.first().map_or(self.active_first_lsn, |&(lsn, _)| lsn)
    }

    /// Segment files currently on disk (sealed + active).
    pub fn segment_count(&self) -> usize {
        self.sealed.len() + 1
    }

    /// Rotations performed since open.
    pub fn rotated(&self) -> u64 {
        self.rotated
    }

    /// Segments deleted by retention since open.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// What [`Oplog::open`] found and repaired.
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configuration this log was opened with.
    pub(crate) fn config(&self) -> &OplogConfig {
        &self.cfg
    }

    /// Reads every record payload in `dir`, in LSN order, without
    /// opening the log for writing. Returns the payloads plus a
    /// [`ReadReport`] noting where scanning stopped early (torn tails,
    /// mid-log corruption). Memory use is bounded by the retention cap;
    /// [`crate::replay_dir`] walks the same frames one segment at a
    /// time instead of collecting them.
    pub fn read_dir_records(
        dir: &Path,
        max_record_bytes: u32,
    ) -> io::Result<(Vec<Vec<u8>>, ReadReport)> {
        let mut records = Vec::new();
        let report = walk_dir(dir, max_record_bytes, |payload| records.push(payload.to_vec()))?;
        Ok((records, report))
    }
}

/// Hands `visit` every whole record payload in `dir`, in LSN order, and
/// reports where scanning stopped — the walk behind
/// [`Oplog::read_dir_records`]. One segment's bytes are in memory at a
/// time (one buffer, reused), and each payload is borrowed from it.
pub(crate) fn walk_dir(
    dir: &Path,
    max_record_bytes: u32,
    mut visit: impl FnMut(&[u8]),
) -> io::Result<ReadReport> {
    let segments = list_segments(dir)?;
    let mut report = ReadReport {
        segments: segments.len(),
        first_lsn: segments.first().map_or(0, |&(lsn, _)| lsn),
        ..Default::default()
    };
    let last = segments.len().saturating_sub(1);
    let mut bytes = Vec::new();
    for (i, (_, path)) in segments.iter().enumerate() {
        read_segment(path, &mut bytes)?;
        let scan = walk_segment_bytes(&bytes, max_record_bytes, |payload| {
            report.records += 1;
            visit(payload);
        });
        if scan.torn_bytes > 0 {
            report.torn_bytes += scan.torn_bytes;
            if i != last {
                // A sealed segment should be complete: bytes after a
                // bad frame in the middle of the log are real loss,
                // and later records would be mis-numbered — stop.
                report.stopped_mid_log = true;
                break;
            }
        }
    }
    Ok(report)
}

/// What [`Oplog::read_dir_records`] saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReadReport {
    /// Segment files read.
    pub segments: usize,
    /// LSN of the first record read (retention may have retired 0..N).
    pub first_lsn: u64,
    /// Whole records returned.
    pub records: u64,
    /// Bytes skipped as torn/corrupt.
    pub torn_bytes: u64,
    /// Whether scanning stopped at corruption *before* the final
    /// segment (data loss beyond a crash tail).
    pub stopped_mid_log: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("rmon-oplog-{tag}-{}", std::process::id()))
            .join(format!("{:?}", std::thread::current().id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn small_cfg() -> OplogConfig {
        OplogConfig { segment_bytes: 64, max_segments: 3, ..OplogConfig::default() }
    }

    #[test]
    fn lsns_are_dense_and_survive_reopen() {
        let dir = tmp_dir("lsn");
        let mut log = Oplog::open(&dir, OplogConfig::default()).unwrap();
        for i in 0..5u64 {
            assert_eq!(log.append(format!("rec{i}").as_bytes()).unwrap(), i);
        }
        log.sync().unwrap();
        drop(log);
        let mut log = Oplog::open(&dir, OplogConfig::default()).unwrap();
        assert_eq!(log.next_lsn(), 5);
        assert_eq!(log.recovery().tail_records, 5);
        assert_eq!(log.append(b"rec5").unwrap(), 5);
        let (records, report) = Oplog::read_dir_records(&dir, 1 << 20).unwrap();
        assert_eq!(records.len(), 6);
        assert_eq!(report.records, 6);
        assert!(!report.stopped_mid_log);
    }

    #[test]
    fn rotation_seals_and_names_by_first_lsn() {
        let dir = tmp_dir("rotate");
        let mut log = Oplog::open(&dir, small_cfg()).unwrap();
        // 24-byte payloads + 8-byte frame header: two per 64-byte cap.
        for _ in 0..6 {
            log.append(&[7u8; 24]).unwrap();
        }
        assert!(log.rotated() >= 2, "six 32-byte frames must rotate a 64-byte segment");
        let names = list_segments(&dir).unwrap();
        assert_eq!(names.len(), log.segment_count());
        // Each segment's name is the LSN of its first record.
        let (records, _) = Oplog::read_dir_records(&dir, 1 << 20).unwrap();
        assert_eq!(records.len(), 6);
    }

    #[test]
    fn retention_bounds_disk_and_advances_first_lsn() {
        let dir = tmp_dir("retention");
        let mut log = Oplog::open(&dir, small_cfg()).unwrap();
        for _ in 0..20 {
            log.append(&[1u8; 24]).unwrap();
        }
        assert!(log.segment_count() <= 3);
        assert!(log.retired() > 0, "20 frames must retire segments under a 3-file cap");
        assert!(log.first_retained_lsn() > 0);
        let (records, report) = Oplog::read_dir_records(&dir, 1 << 20).unwrap();
        assert_eq!(report.first_lsn, log.first_retained_lsn());
        assert!(records.len() < 20, "old records must be gone");
        assert_eq!(records.len() as u64 + report.first_lsn, 20, "suffix of the log survives");
    }

    #[test]
    fn crash_tail_is_truncated_on_open() {
        let dir = tmp_dir("crash");
        let mut log = Oplog::open(&dir, OplogConfig::default()).unwrap();
        log.append(b"committed-one").unwrap();
        log.append(b"committed-two").unwrap();
        log.sync().unwrap();
        drop(log);
        // Simulate a torn write: append half a frame to the active file.
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(&[42u8; 5]);
        fs::write(&path, &bytes).unwrap();
        let log = Oplog::open(&dir, OplogConfig::default()).unwrap();
        assert_eq!(log.recovery().truncated_bytes, 5);
        assert_eq!(log.recovery().tail_records, 2);
        assert_eq!(log.next_lsn(), 2);
        let (records, report) = Oplog::read_dir_records(&dir, 1 << 20).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(report.torn_bytes, 0, "open() already truncated the tail");
    }

    #[test]
    fn destroyed_header_reseeds_empty_segment() {
        let dir = tmp_dir("header");
        let mut log = Oplog::open(&dir, OplogConfig::default()).unwrap();
        log.append(b"doomed").unwrap();
        drop(log);
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        fs::write(&path, b"not-a-segment").unwrap();
        let mut log = Oplog::open(&dir, OplogConfig::default()).unwrap();
        assert_eq!(log.recovery().tail_records, 0);
        assert_eq!(log.append(b"fresh").unwrap(), 0);
        let (records, _) = Oplog::read_dir_records(&dir, 1 << 20).unwrap();
        assert_eq!(records, vec![b"fresh".to_vec()]);
    }

    #[test]
    fn oversized_and_empty_appends_are_rejected() {
        let dir = tmp_dir("reject");
        let cfg = OplogConfig { max_record_bytes: 16, ..OplogConfig::default() };
        let mut log = Oplog::open(&dir, cfg).unwrap();
        assert!(log.append(&[]).is_err());
        assert!(log.append(&[0u8; 17]).is_err());
        assert!(log.append(&[0u8; 16]).is_ok());
    }

    #[test]
    fn every_append_policy_syncs_without_error() {
        let dir = tmp_dir("fsync");
        let cfg = OplogConfig { fsync: FsyncPolicy::EveryAppend, ..small_cfg() };
        let mut log = Oplog::open(&dir, cfg).unwrap();
        for _ in 0..5 {
            log.append(&[9u8; 24]).unwrap();
        }
        assert_eq!(log.next_lsn(), 5);
    }
}
