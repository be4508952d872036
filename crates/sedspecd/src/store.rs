//! The daemon's durable store: a directory holding `wal.log` and
//! `snapshot.json`, with load, append, compaction, and an integrity
//! scan for the doctor.
//!
//! Layering: [`crate::wal`] owns the byte format; this module owns the
//! directory layout, the in-memory journal mirror that compaction folds
//! from, each tenant's last journaled state, and the *semantic* folding
//! rules — full publish history is preserved (its length per channel
//! *is* the channel epoch), while tenant state churn collapses to one
//! record per tenant and alert marks collapse into the snapshot header.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use sedspec_fleet::pool::TenantState;
use serde::{Deserialize, Serialize};

pub use crate::wal::WalRecord;
use crate::wal::{
    read_snapshot, replay, write_snapshot, ReplayStats, Snapshot, Wal, WalError, WAL_FORMAT_VERSION,
};

/// WAL file name inside a store directory.
pub const WAL_FILE: &str = "wal.log";
/// Snapshot file name inside a store directory.
pub const SNAPSHOT_FILE: &str = "snapshot.json";

/// Store failures (all fatal — tail damage is handled inside the WAL
/// layer and never surfaces as an error).
#[derive(Debug)]
pub enum StoreError {
    /// The WAL or snapshot layer failed.
    Wal(WalError),
    /// The store directory could not be created or read.
    Dir(io::Error),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Wal(e) => write!(f, "store: {e}"),
            StoreError::Dir(e) => write!(f, "store directory: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<WalError> for StoreError {
    fn from(e: WalError) -> Self {
        StoreError::Wal(e)
    }
}

/// Everything a fresh daemon needs to warm-load: the folded journal in
/// replay order plus the counters that outlive records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadedState {
    /// Snapshot records followed by WAL records, in append order.
    pub records: Vec<WalRecord>,
    /// Alert-sequence high-water mark: the snapshot header's value
    /// raised by any [`WalRecord::AlertMark`] replayed after it.
    pub alert_seq: u64,
    /// Whether a valid snapshot contributed records.
    pub snapshot_loaded: bool,
    /// How the WAL replay ended.
    pub replay: ReplayStats,
}

/// The open store: an append handle plus the journal mirror compaction
/// folds from.
pub struct DurableStore {
    dir: PathBuf,
    wal: Wal,
    /// Every live record (snapshot + WAL + appends since), in order.
    journal: Vec<WalRecord>,
    /// Each tenant's last journaled state: its last `StateChange` wins.
    states: HashMap<u64, TenantState>,
    records_appended: u64,
    bytes_appended: u64,
    compactions: u64,
}

impl DurableStore {
    /// Opens (creating if absent) the store at `dir` and loads its
    /// state: snapshot first, then the WAL replayed on top, tolerating
    /// a damaged tail.
    ///
    /// # Errors
    ///
    /// Directory creation or non-tail filesystem failures.
    pub fn open(dir: &Path) -> Result<(Self, LoadedState), StoreError> {
        fs::create_dir_all(dir).map_err(StoreError::Dir)?;
        let snapshot = read_snapshot(&dir.join(SNAPSHOT_FILE))?;
        let (wal_records, replay_stats) = replay(&dir.join(WAL_FILE))?;
        let snapshot_loaded = snapshot.is_some();
        let mut alert_seq = snapshot.as_ref().map_or(0, |s| s.alert_seq);
        let mut records = snapshot.map_or_else(Vec::new, |s| s.records);
        records.extend(wal_records);
        let mut states = HashMap::new();
        for record in &records {
            if let WalRecord::AlertMark { seq } = record {
                alert_seq = alert_seq.max(*seq);
            }
            states.extend(record.tenant_state());
        }
        let wal = Wal::open(&dir.join(WAL_FILE))?;
        let store = DurableStore {
            dir: dir.to_path_buf(),
            wal,
            journal: records.clone(),
            states,
            records_appended: 0,
            bytes_appended: 0,
            compactions: 0,
        };
        let loaded = LoadedState { records, alert_seq, snapshot_loaded, replay: replay_stats };
        Ok((store, loaded))
    }

    /// Appends one record; it is committed (crash-durable) on return.
    ///
    /// # Errors
    ///
    /// WAL append failures; on error the record is not committed.
    pub fn record(&mut self, record: WalRecord) -> Result<u64, StoreError> {
        let bytes = self.wal.append(&record)?;
        self.states.extend(record.tenant_state());
        self.journal.push(record);
        self.records_appended += 1;
        self.bytes_appended += bytes;
        Ok(bytes)
    }

    /// Folds the journal into a snapshot (publish history intact,
    /// tenant state collapsed to one record per tenant, alert marks
    /// into the header), writes it atomically, then truncates the WAL.
    /// Returns the folded record count.
    ///
    /// # Errors
    ///
    /// Snapshot write or WAL truncate failures. A failed snapshot write
    /// leaves the previous snapshot and the full WAL intact.
    pub fn compact(&mut self, alert_seq: u64) -> Result<u64, StoreError> {
        let folded = fold(&self.journal);
        let count = folded.len() as u64;
        let snapshot = Snapshot { format: WAL_FORMAT_VERSION, alert_seq, records: folded.clone() };
        write_snapshot(&self.dir.join(SNAPSHOT_FILE), &snapshot)?;
        self.wal.truncate()?;
        self.journal = folded;
        self.compactions += 1;
        Ok(count)
    }

    /// A tenant's last journaled state; the default when none was
    /// journaled.
    pub fn tenant_state(&self, tenant: u64) -> TenantState {
        self.states.get(&tenant).copied().unwrap_or_default()
    }

    /// Live records (snapshot + appends since).
    pub fn journal_len(&self) -> usize {
        self.journal.len()
    }

    /// Records appended since open.
    pub fn records_appended(&self) -> u64 {
        self.records_appended
    }

    /// Frame bytes appended since open.
    pub fn bytes_appended(&self) -> u64 {
        self.bytes_appended
    }

    /// Compactions performed since open.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// Semantic compaction: preserve the publish history in order (per
/// channel, its length is the channel epoch), the first hosting of each
/// tenant, and only the *last* state change per tenant; alert marks are
/// dropped (the caller lifts the mark into the snapshot header).
fn fold(journal: &[WalRecord]) -> Vec<WalRecord> {
    let mut last_state: HashMap<u64, usize> = HashMap::new();
    for (i, record) in journal.iter().enumerate() {
        if let WalRecord::StateChange { tenant, .. } = record {
            last_state.insert(*tenant, i);
        }
    }
    let mut folded = Vec::new();
    for (i, record) in journal.iter().enumerate() {
        match record {
            WalRecord::Publish { .. } | WalRecord::TenantHosted { .. } => {
                folded.push(record.clone());
            }
            WalRecord::StateChange { tenant, .. } => {
                if last_state.get(tenant) == Some(&i) {
                    folded.push(record.clone());
                }
            }
            WalRecord::AlertMark { .. } => {}
        }
    }
    folded
}

/// One store file's integrity, as the doctor reports it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntegrityReport {
    /// The scanned directory.
    pub dir: String,
    /// Whether the directory exists.
    pub exists: bool,
    /// Whether a snapshot file is present.
    pub snapshot_present: bool,
    /// Whether the present snapshot parsed and passed its CRC.
    pub snapshot_valid: bool,
    /// Records in the valid snapshot.
    pub snapshot_records: u64,
    /// Alert-seq high-water mark in the valid snapshot.
    pub snapshot_alert_seq: u64,
    /// Intact WAL records.
    pub wal_records: u64,
    /// Intact WAL bytes.
    pub wal_bytes: u64,
    /// Whether the WAL ends in a torn (incomplete) frame.
    pub wal_truncated_tail: bool,
    /// Whether the WAL ends in a CRC-mismatched frame.
    pub wal_corrupt_tail: bool,
}

impl IntegrityReport {
    /// Whether the store would load without salvage.
    pub fn healthy(&self) -> bool {
        (!self.snapshot_present || self.snapshot_valid)
            && !self.wal_truncated_tail
            && !self.wal_corrupt_tail
    }
}

/// Scans a store directory without opening it for writing — the CRC
/// sweep behind `sedspec ctl doctor`.
///
/// # Errors
///
/// Non-tail filesystem failures only.
pub fn scan(dir: &Path) -> Result<IntegrityReport, StoreError> {
    let exists = dir.is_dir();
    let snapshot_path = dir.join(SNAPSHOT_FILE);
    let snapshot_present = snapshot_path.is_file();
    let snapshot = if snapshot_present { read_snapshot(&snapshot_path)? } else { None };
    let (_, stats) = replay(&dir.join(WAL_FILE))?;
    Ok(IntegrityReport {
        dir: dir.display().to_string(),
        exists,
        snapshot_present,
        snapshot_valid: snapshot.is_some(),
        snapshot_records: snapshot.as_ref().map_or(0, |s| s.records.len() as u64),
        snapshot_alert_seq: snapshot.as_ref().map_or(0, |s| s.alert_seq),
        wal_records: stats.records,
        wal_bytes: stats.bytes,
        wal_truncated_tail: stats.truncated_tail,
        wal_corrupt_tail: stats.corrupt_tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sedspec_fleet::pool::TenantConfig;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("sedspecd-store-{}-{tag}-{n}", std::process::id()))
    }

    fn state(tenant: u64, quarantined: bool) -> WalRecord {
        WalRecord::StateChange { tenant, quarantined, degraded: false, rollbacks_used: 0 }
    }

    #[test]
    fn open_record_reopen_restores_the_journal() {
        let dir = temp_dir("reopen");
        let (mut store, loaded) = DurableStore::open(&dir).unwrap();
        assert!(loaded.records.is_empty() && loaded.alert_seq == 0);
        store.record(WalRecord::TenantHosted { config: TenantConfig::new(3) }).unwrap();
        store.record(state(3, true)).unwrap();
        store.record(WalRecord::AlertMark { seq: 9 }).unwrap();
        drop(store);

        let (_, loaded) = DurableStore::open(&dir).unwrap();
        assert_eq!(loaded.records.len(), 3);
        assert_eq!(loaded.alert_seq, 9);
        assert!(!loaded.snapshot_loaded && loaded.replay.clean());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_folds_state_churn_and_lifts_alert_marks() {
        let dir = temp_dir("compact");
        let (mut store, _) = DurableStore::open(&dir).unwrap();
        store.record(WalRecord::TenantHosted { config: TenantConfig::new(1) }).unwrap();
        store.record(state(1, true)).unwrap();
        store.record(state(1, false)).unwrap();
        store.record(state(1, true)).unwrap();
        store.record(WalRecord::AlertMark { seq: 5 }).unwrap();
        let quarantined = TenantState { quarantined: true, ..TenantState::default() };
        assert_eq!(store.tenant_state(1), quarantined);
        let folded = store.compact(5).unwrap();
        // Hosting + the final state only.
        assert_eq!(folded, 2);
        drop(store);

        let (store, loaded) = DurableStore::open(&dir).unwrap();
        assert_eq!(store.tenant_state(1), quarantined, "the last state survives compaction");
        assert_eq!(store.tenant_state(2), TenantState::default());
        assert!(loaded.snapshot_loaded);
        assert_eq!(loaded.alert_seq, 5);
        assert_eq!(
            loaded.records,
            vec![WalRecord::TenantHosted { config: TenantConfig::new(1) }, state(1, true)]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_reports_tail_damage() {
        let dir = temp_dir("scan");
        let (mut store, _) = DurableStore::open(&dir).unwrap();
        store.record(state(2, false)).unwrap();
        store.record(state(2, true)).unwrap();
        drop(store);
        let wal_path = dir.join(WAL_FILE);
        let bytes = fs::read(&wal_path).unwrap();
        fs::write(&wal_path, &bytes[..bytes.len() - 3]).unwrap();

        let report = scan(&dir).unwrap();
        assert!(!report.healthy());
        assert_eq!(report.wal_records, 1);
        assert!(report.wal_truncated_tail);
        // The store still opens, salvaging the committed prefix.
        let (_, loaded) = DurableStore::open(&dir).unwrap();
        assert_eq!(loaded.records, vec![state(2, false)]);
        fs::remove_dir_all(&dir).unwrap();
    }
}
