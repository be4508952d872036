//! The append-only, CRC-framed write-ahead log and its snapshot form.
//!
//! Every durable fact the daemon knows — a published revision, a hosted
//! tenant, a quarantine/degradation transition — is one [`WalRecord`]
//! appended to `wal.log` as a *frame*:
//!
//! ```text
//! [payload length: u32 LE][CRC-32 (IEEE) of payload: u32 LE][payload: JSON]
//! ```
//!
//! Replay walks frames from the start and stops at the first frame that
//! is incomplete (a torn append at the tail) or whose CRC mismatches
//! (a corrupt tail): everything before it is the recovered state, which
//! is exactly the committed prefix. A record is *committed* once its
//! append has been flushed; the daemon answers a mutating request only
//! after that flush, so crash recovery restores every acknowledged
//! operation.
//!
//! Periodic compaction folds the log into `snapshot.json` — a single
//! CRC-framed [`Snapshot`] whose header carries the protocol version
//! and the alert-sequence high-water mark — written tmp + fsync +
//! rename, after which the WAL is truncated. Startup loads the snapshot
//! (if any), then replays the WAL on top.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use sedspec_devices::{DeviceKind, QemuVersion};
use sedspec_fleet::pool::{TenantConfig, TenantState};
use serde::{Deserialize, Serialize};

/// Upper bound on one WAL frame payload. A full specification revision
/// is well under this; a corrupt length prefix beyond it is treated as
/// a corrupt tail rather than an allocation request.
pub const MAX_WAL_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Snapshot/WAL format version, stamped in every snapshot header.
pub const WAL_FORMAT_VERSION: u32 = 1;

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB8_8320`), the
/// classic zlib checksum. Implemented here because the build is
/// offline; four bits per step keeps it table-free and still fast
/// enough for WAL frames.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// One durable fact in the daemon's journal.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum WalRecord {
    /// A specification revision passed the publish gate and became its
    /// channel's current revision. Replay re-publishes in order (gate
    /// skipped — it ran at the original publish), so channel epochs
    /// reproduce exactly.
    Publish {
        /// Channel device.
        device: DeviceKind,
        /// Channel QEMU version.
        version: QemuVersion,
        /// FNV-1a digest the revision had when journaled; replay
        /// verifies the re-published revision digests identically.
        digest: u64,
        /// Channel epoch after the original publish.
        epoch: u64,
        /// The revision's full shipping JSON.
        spec_json: String,
    },
    /// A tenant was admitted to the pool. Replay re-hosts it.
    TenantHosted {
        /// The tenant's full configuration.
        config: TenantConfig,
    },
    /// A tenant's protective state changed — organically (a shard
    /// rolled it back, quarantined or degraded it) or by operator
    /// command. Appended when the pool's live state differs from the
    /// last one journaled. Replay seeds the pool's state map before
    /// re-hosting, so neither a crash nor a restart launders
    /// quarantine.
    StateChange {
        /// The tenant.
        tenant: u64,
        /// Quarantine flag after the transition.
        quarantined: bool,
        /// Degraded (warn-only fallback) flag after the transition.
        degraded: bool,
        /// Rollback budget spent so far.
        rollbacks_used: u32,
    },
    /// The alert-sequence high-water mark advanced. Appended whenever a
    /// served batch raised alerts, so the mark survives even a `kill
    /// -9` with no compaction in between; compaction folds every mark
    /// into the snapshot header's `alert_seq`.
    AlertMark {
        /// The new high-water mark.
        seq: u64,
    },
}

impl WalRecord {
    /// Stable name for metrics labels and doctor reports.
    pub fn kind(&self) -> &'static str {
        match self {
            WalRecord::Publish { .. } => "Publish",
            WalRecord::TenantHosted { .. } => "TenantHosted",
            WalRecord::StateChange { .. } => "StateChange",
            WalRecord::AlertMark { .. } => "AlertMark",
        }
    }

    /// The `StateChange` record journaling `state` for `tenant`.
    pub fn state_change(tenant: u64, state: TenantState) -> Self {
        let TenantState { quarantined, degraded, rollbacks_used } = state;
        WalRecord::StateChange { tenant, quarantined, degraded, rollbacks_used }
    }

    /// The tenant and state a `StateChange` journals; `None` for every
    /// other kind.
    pub fn tenant_state(&self) -> Option<(u64, TenantState)> {
        match *self {
            WalRecord::StateChange { tenant, quarantined, degraded, rollbacks_used } => {
                Some((tenant, TenantState { quarantined, degraded, rollbacks_used }))
            }
            _ => None,
        }
    }
}

/// The compacted form of the journal: the surviving records plus the
/// counters that must outlive them.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Snapshot {
    /// [`WAL_FORMAT_VERSION`] at write time.
    pub format: u32,
    /// Alert-sequence high-water mark at compaction time; restored via
    /// `EnforcementPool::set_alert_seq` so [`AlertEvent::seq`] stays
    /// monotonic across daemon restarts.
    ///
    /// [`AlertEvent::seq`]: sedspec_fleet::telemetry::AlertEvent
    pub alert_seq: u64,
    /// WAL records folded into this snapshot, in original order.
    pub records: Vec<WalRecord>,
}

/// How a WAL replay ended, with what it salvaged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ReplayStats {
    /// Intact records recovered.
    pub records: u64,
    /// Bytes of intact frames consumed.
    pub bytes: u64,
    /// Whether the log ended in an incomplete frame (torn append).
    pub truncated_tail: bool,
    /// Whether the log ended in a CRC-mismatched or unparseable frame.
    pub corrupt_tail: bool,
}

impl ReplayStats {
    /// Whether the log was cleanly terminated (no salvage needed).
    pub fn clean(&self) -> bool {
        !self.truncated_tail && !self.corrupt_tail
    }
}

/// WAL failures that are *not* tolerable tail damage.
#[derive(Debug)]
pub enum WalError {
    /// The filesystem failed.
    Io(io::Error),
    /// A record would not serialize (shim limitation or pathological
    /// content).
    Encode(String),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::Encode(m) => write!(f, "wal encode error: {m}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

/// Encodes one record as a CRC frame.
fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// The append handle on `wal.log`.
pub struct Wal {
    path: PathBuf,
    file: File,
}

impl Wal {
    /// Opens (creating if absent) the log for appending.
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    pub fn open(path: &Path) -> Result<Self, WalError> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Wal { path: path.to_path_buf(), file })
    }

    /// Appends one record and flushes it to the OS. Returns the frame
    /// size in bytes. The record is *committed* when this returns.
    ///
    /// # Errors
    ///
    /// Encoding or filesystem errors; on error nothing is considered
    /// committed (a partial append is torn tail, which replay drops).
    pub fn append(&mut self, record: &WalRecord) -> Result<u64, WalError> {
        let json = serde_json::to_string(record).map_err(|e| WalError::Encode(e.to_string()))?;
        let frame = encode_frame(json.as_bytes());
        self.file.write_all(&frame)?;
        self.file.sync_data()?;
        Ok(frame.len() as u64)
    }

    /// Truncates the log to empty (after a successful compaction).
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    pub fn truncate(&mut self) -> Result<(), WalError> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.sync_data()?;
        Ok(())
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Walks frames in `bytes`, decoding records until the tail runs out.
fn replay_bytes(bytes: &[u8]) -> (Vec<WalRecord>, ReplayStats) {
    let mut records = Vec::new();
    let mut stats = ReplayStats::default();
    let mut at = 0usize;
    while at < bytes.len() {
        let rest = &bytes[at..];
        if rest.len() < 8 {
            stats.truncated_tail = true;
            break;
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
        if len > MAX_WAL_FRAME_LEN {
            stats.corrupt_tail = true;
            break;
        }
        let crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        let end = 8 + len as usize;
        if rest.len() < end {
            stats.truncated_tail = true;
            break;
        }
        let payload = &rest[8..end];
        if crc32(payload) != crc {
            stats.corrupt_tail = true;
            break;
        }
        let Ok(text) = std::str::from_utf8(payload) else {
            stats.corrupt_tail = true;
            break;
        };
        let Ok(record) = serde_json::from_str::<WalRecord>(text) else {
            stats.corrupt_tail = true;
            break;
        };
        records.push(record);
        stats.records += 1;
        stats.bytes += end as u64;
        at += end;
    }
    (records, stats)
}

/// Replays the log at `path`, tolerating a damaged tail. A missing file
/// replays as empty and clean.
///
/// # Errors
///
/// Only filesystem read failures; tail damage is reported in the stats,
/// never as an error.
pub fn replay(path: &Path) -> Result<(Vec<WalRecord>, ReplayStats), WalError> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Ok((Vec::new(), ReplayStats::default()))
        }
        Err(e) => return Err(WalError::Io(e)),
    };
    Ok(replay_bytes(&bytes))
}

/// Writes a snapshot atomically: CRC-framed JSON to `<path>.tmp`,
/// fsync, rename over `path`.
///
/// # Errors
///
/// Encoding or filesystem errors; on error the previous snapshot (if
/// any) is untouched.
pub fn write_snapshot(path: &Path, snapshot: &Snapshot) -> Result<(), WalError> {
    let json = serde_json::to_string(snapshot).map_err(|e| WalError::Encode(e.to_string()))?;
    let frame = encode_frame(json.as_bytes());
    let tmp = path.with_extension("tmp");
    {
        let mut file = File::create(&tmp)?;
        file.write_all(&frame)?;
        file.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    Ok(())
}

/// Loads a snapshot. A missing file loads as `None`; a damaged or
/// mismatched-format snapshot also loads as `None` (the WAL alone then
/// rebuilds state — the snapshot is an optimization, the log is truth
/// until compaction truncates it).
///
/// # Errors
///
/// Only filesystem read failures.
pub fn read_snapshot(path: &Path) -> Result<Option<Snapshot>, WalError> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(WalError::Io(e)),
    };
    if bytes.len() < 8 {
        return Ok(None);
    }
    let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    let crc = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if len > MAX_WAL_FRAME_LEN || bytes.len() < 8 + len as usize {
        return Ok(None);
    }
    let payload = &bytes[8..8 + len as usize];
    if crc32(payload) != crc {
        return Ok(None);
    }
    let Ok(text) = std::str::from_utf8(payload) else { return Ok(None) };
    let Ok(snapshot) = serde_json::from_str::<Snapshot>(text) else { return Ok(None) };
    if snapshot.format != WAL_FORMAT_VERSION {
        return Ok(None);
    }
    Ok(Some(snapshot))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("sedspecd-wal-{}-{tag}-{n}", std::process::id()))
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::TenantHosted { config: TenantConfig::new(7) },
            WalRecord::StateChange {
                tenant: 7,
                quarantined: true,
                degraded: false,
                rollbacks_used: 1,
            },
            WalRecord::Publish {
                device: DeviceKind::Fdc,
                version: QemuVersion::Patched,
                digest: 0xdead_beef,
                epoch: 3,
                spec_json: "{\"demo\":true}".into(),
            },
        ]
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic zlib test vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"hello"), 0x3610_A686);
    }

    #[test]
    fn append_then_replay_round_trips() {
        let path = temp_path("roundtrip");
        let mut wal = Wal::open(&path).unwrap();
        for record in sample_records() {
            wal.append(&record).unwrap();
        }
        let (records, stats) = replay(&path).unwrap();
        assert_eq!(records, sample_records());
        assert_eq!(stats.records, 3);
        assert!(stats.clean());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_tail_recovers_the_prefix() {
        let path = temp_path("torn");
        let mut wal = Wal::open(&path).unwrap();
        for record in sample_records() {
            wal.append(&record).unwrap();
        }
        drop(wal);
        // Tear the final frame mid-payload.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let (records, stats) = replay(&path).unwrap();
        assert_eq!(records, sample_records()[..2]);
        assert!(stats.truncated_tail && !stats.corrupt_tail);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_tail_recovers_the_prefix() {
        let path = temp_path("corrupt");
        let mut wal = Wal::open(&path).unwrap();
        for record in sample_records() {
            wal.append(&record).unwrap();
        }
        drop(wal);
        // Flip a byte inside the last frame's payload.
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 3;
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let (records, stats) = replay(&path).unwrap();
        assert_eq!(records, sample_records()[..2]);
        assert!(stats.corrupt_tail && !stats.truncated_tail);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn snapshot_round_trips_and_tolerates_damage() {
        let path = temp_path("snap");
        let snapshot =
            Snapshot { format: WAL_FORMAT_VERSION, alert_seq: 42, records: sample_records() };
        write_snapshot(&path, &snapshot).unwrap();
        assert_eq!(read_snapshot(&path).unwrap(), Some(snapshot));
        // Damage it: a corrupt snapshot loads as None, never as garbage.
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(read_snapshot(&path).unwrap(), None);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_files_are_empty_not_errors() {
        let path = temp_path("missing");
        let (records, stats) = replay(&path).unwrap();
        assert!(records.is_empty() && stats.clean());
        assert_eq!(read_snapshot(&path).unwrap(), None);
    }
}
