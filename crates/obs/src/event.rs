//! The typed event vocabulary of the trace recorder.
//!
//! Hot-path events ([`TraceEventKind::BlockStep`], [`TraceEventKind::RoundBegin`],
//! [`TraceEventKind::RoundEnd`], the sync/journal events) carry only
//! integers; identity is interned once per instrumented component as a
//! [`ScopeId`], so emitting an event never formats or allocates strings.
//! Control-plane events (spec compile/publish, shard and tenant
//! lifecycle) are rare and may carry rendered text.

use serde::{Deserialize, Serialize};

/// Interned identity of one instrumented component (one enforcing
/// device of one tenant, a shard worker, the spec registry, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ScopeId(pub u32);

/// What a [`ScopeId`] stands for; registered once, carried by every
/// record so exports and forensics can name their origin.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScopeInfo {
    /// Shard index, when the component runs inside a pool shard.
    pub shard: Option<u32>,
    /// Tenant id, when the component belongs to a tenant.
    pub tenant: Option<u64>,
    /// Device (or component) name, e.g. `"FDC"` or `"registry"`.
    pub device: String,
}

impl ScopeInfo {
    /// A scope for a bare device outside any fleet (tests, benches).
    pub fn device(name: impl Into<String>) -> Self {
        ScopeInfo { shard: None, tenant: None, device: name.into() }
    }

    /// A scope for one tenant device on one shard.
    pub fn tenant_device(shard: u32, tenant: u64, device: impl Into<String>) -> Self {
        ScopeInfo { shard: Some(shard), tenant: Some(tenant), device: device.into() }
    }
}

impl std::fmt::Display for ScopeInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(s) = self.shard {
            write!(f, "shard{s}/")?;
        }
        if let Some(t) = self.tenant {
            write!(f, "tenant-{t}/")?;
        }
        write!(f, "{}", self.device)
    }
}

/// The round verdict summarized for the trace (mirrors the variants of
/// the enforcement layer's `IoVerdict` without carrying its payloads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VerdictKind {
    /// No anomaly; the device serviced the request.
    Allowed,
    /// The checker saw nothing but the device itself faulted.
    DeviceFault,
    /// The round halted the device.
    Halted,
    /// Enhancement mode warned and continued.
    Warned,
}

/// Which kind of sync-point value the walk fetched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SyncKind {
    /// An externally loaded scalar.
    Var,
    /// A recorded branch outcome.
    Branch,
    /// A recorded switch value.
    Switch,
    /// Externally copied buffer content.
    Buf,
}

/// One structured trace event.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEventKind {
    /// An enforced I/O round started on handler `program`.
    RoundBegin {
        /// Handler index the request routed to.
        program: u32,
    },
    /// The round's verdict was rendered.
    RoundEnd {
        /// Summary verdict.
        verdict: VerdictKind,
        /// ES blocks walked this round (all walk phases).
        blocks: u64,
        /// Sync values consumed this round.
        syncs: u64,
        /// Wall-clock nanoseconds spent inside the specification walk.
        walk_ns: u64,
    },
    /// The walk entered one ES block.
    BlockStep {
        /// Handler index.
        program: u32,
        /// ES block index.
        block: u32,
    },
    /// The walk consumed one sync-point value.
    SyncFetch {
        /// What was fetched.
        kind: SyncKind,
    },
    /// A round was accepted: the undo journal was discarded.
    JournalCommit {
        /// Journaled writes the commit kept.
        writes: u64,
    },
    /// A round was rejected: the undo journal was replayed backwards.
    JournalAbort {
        /// Journaled writes the abort rolled back.
        writes: u64,
    },
    /// A specification was lowered to its compiled form.
    SpecCompiled {
        /// Device the specification targets.
        device: String,
        /// Handler programs in the specification.
        programs: u32,
        /// Total ES blocks across handlers.
        blocks: u32,
    },
    /// A specification revision became a channel's current one.
    SpecPublished {
        /// Device channel.
        device: String,
        /// QEMU behaviour version channel.
        version: String,
        /// Content digest of the revision.
        digest: String,
        /// Channel epoch after the publish.
        epoch: u64,
    },
    /// A pool shard worker came up.
    ShardStarted {
        /// Shard index.
        shard: u32,
    },
    /// A tenant was registered on its shard.
    TenantAdded {
        /// Tenant id.
        tenant: u64,
    },
    /// A tenant exhausted its rollback budget and was quarantined.
    TenantQuarantined {
        /// Tenant id.
        tenant: u64,
    },
    /// A tenant device was redeployed onto a newer spec revision.
    SpecSwapped {
        /// Tenant id.
        tenant: u64,
        /// Device whose deployment was swapped.
        device: String,
        /// Channel epoch the replacement was built at.
        epoch: u64,
    },
    /// A flagged round raised an alert.
    Alert {
        /// Alert severity, rendered.
        level: String,
    },
    /// A fault-injection site fired (chaos testing). Emitted by the
    /// injection seam itself, so a chaos run's blast radius is visible
    /// in the same trace as its effects.
    FaultInjected {
        /// The fault kind, rendered (e.g. `"WorkerPanic"`).
        kind: String,
        /// Tenant the fault targeted, when tenant-scoped.
        tenant: Option<u64>,
    },
    /// A dead pool shard worker was respawned by the supervisor.
    WorkerRestarted {
        /// Shard index.
        shard: u32,
        /// Restart attempt number (1 = first respawn).
        attempt: u32,
    },
    /// A tenant switched to warn-only enforcement after a
    /// compiled-engine fault.
    TenantDegraded {
        /// Tenant id.
        tenant: u64,
    },
    /// The enforcement daemon came up and warm-loaded its durable store.
    DaemonStarted {
        /// Listening endpoint (socket path or TCP address), rendered.
        endpoint: String,
        /// Specification revisions replayed from the store.
        restored_revisions: u32,
        /// Tenant configurations replayed from the store.
        restored_tenants: u32,
    },
    /// A record was appended (and flushed) to the daemon's write-ahead
    /// log.
    WalAppended {
        /// Record kind, rendered (e.g. `"Publish"`).
        kind: String,
        /// On-disk bytes of the framed record (header + payload).
        bytes: u64,
    },
    /// The daemon folded its WAL into a fresh snapshot.
    SnapshotCompacted {
        /// WAL records folded into the snapshot.
        records: u64,
        /// Alert-sequence high-water mark persisted in the snapshot
        /// header.
        alert_seq: u64,
    },
    /// One wire-protocol request was served.
    RequestServed {
        /// Request kind, rendered (e.g. `"SubmitBatch"`).
        kind: String,
        /// Whether the request was answered with an error frame.
        error: bool,
    },
}

/// A stamped trace record: global sequence number, the originating
/// scope's round counter at emission time, and the scope itself.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Hub-wide monotonic sequence number.
    pub seq: u64,
    /// The scope's round counter when the event fired (0 before the
    /// first round).
    pub round: u64,
    /// Originating scope.
    pub scope: ScopeId,
    /// The event.
    pub kind: TraceEventKind,
}
