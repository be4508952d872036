//! The round ledger an enforcing device keeps; fleet reports sum it and
//! sinks export its deltas ([`ObsSink::counts`](crate::ObsSink::counts)).

use serde::{Deserialize, Serialize};

/// Counters accumulated by an enforcing device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EnforceStats {
    /// I/O rounds intercepted.
    pub rounds: u64,
    /// Rounds fully checked before device execution.
    pub precheck_complete: u64,
    /// Rounds requiring device-side sync data.
    pub synced_rounds: u64,
    /// Rounds that raised warnings (enhancement mode).
    pub warnings: u64,
    /// Rounds that halted the device.
    pub halts: u64,
    /// Rounds whose journaled shadow writes were rolled back (partial
    /// walks suspended at a sync point plus flagged rounds).
    pub aborts: u64,
    /// Total ES blocks walked.
    pub check_blocks: u64,
    /// Total sync values consumed.
    pub check_syncs: u64,
}

impl EnforceStats {
    /// Folds another counter set into this one. Aggregation across
    /// devices, tenants or shards is plain per-field addition.
    pub fn merge(&mut self, other: &EnforceStats) {
        *self = self.zip(other, |a, b| a + b);
    }

    /// What accrued since `before`, an earlier reading of the same
    /// ledger (the counters only grow).
    pub fn since(&self, before: &EnforceStats) -> EnforceStats {
        self.zip(before, |a, b| a - b)
    }

    fn zip(&self, other: &EnforceStats, f: impl Fn(u64, u64) -> u64) -> EnforceStats {
        EnforceStats {
            rounds: f(self.rounds, other.rounds),
            precheck_complete: f(self.precheck_complete, other.precheck_complete),
            synced_rounds: f(self.synced_rounds, other.synced_rounds),
            warnings: f(self.warnings, other.warnings),
            halts: f(self.halts, other.halts),
            aborts: f(self.aborts, other.aborts),
            check_blocks: f(self.check_blocks, other.check_blocks),
            check_syncs: f(self.check_syncs, other.check_syncs),
        }
    }
}
