//! # rmon-storage — the durable oplog engine
//!
//! The paper's prototype keeps its recorded history and fault reports
//! in memory; this crate gives the runtime an *operations-grade*
//! journal: an append-only, CRC-framed, segmented file log with
//! torn-tail crash recovery, size-based rotation, count-based
//! retention, and a differential replayer that re-runs detection over
//! the persisted log and checks it reproduces the live verdicts.
//!
//! The wire format and the sink trait live in [`rmon_core::oplog`]
//! (so `rmon-rt` journals through `Arc<dyn JournalSink>` without
//! depending on this crate); the on-disk format is specified in
//! `docs/STORAGE.md`, and `docs/OPERATIONS.md` covers tuning.
//!
//! ## Layers
//!
//! * [`frame`] — the `[len][crc32][payload]` frame codec, shared
//!   between segment files and `rmon-net`'s wire protocol (including
//!   the incremental [`FrameBuf`] decoder sockets need).
//! * [`segment`] — one segment file: frames behind a magic header,
//!   scan / recover / append.
//! * [`oplog`] — the [`Oplog`] engine: a directory of segments named
//!   by first LSN, rotation, retention and fsync policy.
//! * [`sink`] — [`DurableSink`]: the core journal sink over one
//!   oplog; what a runtime plugs in.
//! * [`replay`] — the differential replayer and its
//!   [`ReplayOutcome`] acceptance check.
//!
//! ## Example
//!
//! ```
//! use rmon_core::oplog::JournalSink;
//! use rmon_core::{FaultReport, MonitorId, Nanos};
//! use rmon_storage::{DurableSink, OplogConfig};
//! use std::collections::HashMap;
//!
//! let dir = std::env::temp_dir().join(format!("oplog-doc-{}", std::process::id()));
//! let sink = DurableSink::open(&dir, OplogConfig::default())?;
//! sink.append_epoch(Nanos::ZERO)?;
//! sink.append_register(MonitorId::new(0), "mailbox", Nanos::new(1))?;
//! sink.append_checkpoint(Nanos::new(2), &HashMap::new(), &FaultReport::default())?;
//! sink.sync()?;
//! assert_eq!(sink.next_lsn(), 3);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod frame;
pub mod oplog;
pub mod replay;
pub mod segment;
pub mod sink;

pub use frame::{FrameBuf, FrameError};
pub use oplog::{FsyncPolicy, Oplog, OplogConfig, ReadReport, RecoveryReport};
pub use replay::{replay_dir, replay_records, verdict_keys, ReplayOutcome, SpecResolver};
pub use segment::{scan_segment, scan_segment_bytes, SegmentScan};
pub use sink::DurableSink;
