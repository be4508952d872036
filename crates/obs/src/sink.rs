//! The sink trait instrumentation sites hold.
//!
//! The enforcement pipeline keeps an `Option<Arc<dyn ObsSink>>` and
//! emits through it only when present, so the disabled path costs one
//! predictable branch and the compiled checker's no-allocation
//! invariant holds. [`ScopedSink`] routes into an [`ObsHub`] under a
//! pre-registered [`ScopeId`]; [`NoopSink`] swallows everything (the
//! overhead regression test drives it).

use std::sync::Arc;

use crate::event::{ScopeId, TraceEventKind};
use crate::flight::ForensicData;
use crate::hub::ObsHub;
use crate::stats::EnforceStats;

/// Receiver of structured instrumentation events.
pub trait ObsSink: Send + Sync + std::fmt::Debug {
    /// Records one trace event.
    fn event(&self, kind: TraceEventKind);

    /// Freezes the forensic payload of a flagged round.
    fn violation(&self, data: ForensicData);

    /// Takes what an enforcer's [`EnforceStats`] gained during one public
    /// call: the only source of the exported round counters.
    fn counts(&self, _delta: &EnforceStats) {}

    /// Whether the instrumentation site should assemble the expensive
    /// forensic payloads (block paths, labels, shadow diffs) at all.
    /// No-op sinks return `false` so flagged rounds stay cheap.
    fn wants_forensics(&self) -> bool {
        true
    }
}

/// A sink that drops everything. Exists to measure the cost of the
/// instrumentation call sites themselves.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl ObsSink for NoopSink {
    fn event(&self, _kind: TraceEventKind) {}

    fn violation(&self, _data: ForensicData) {}

    fn wants_forensics(&self) -> bool {
        false
    }
}

/// A sink bound to one registered scope of an [`ObsHub`].
pub struct ScopedSink {
    hub: Arc<ObsHub>,
    scope: ScopeId,
}

impl ScopedSink {
    /// Binds `hub` under `scope` (usually via [`ObsHub::sink`]).
    pub fn new(hub: Arc<ObsHub>, scope: ScopeId) -> Self {
        ScopedSink { hub, scope }
    }

    /// The scope this sink reports under.
    pub fn scope(&self) -> ScopeId {
        self.scope
    }
}

impl std::fmt::Debug for ScopedSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScopedSink").field("scope", &self.scope).finish_non_exhaustive()
    }
}

impl ObsSink for ScopedSink {
    fn event(&self, kind: TraceEventKind) {
        self.hub.record(self.scope, kind);
    }

    fn violation(&self, data: ForensicData) {
        self.hub.record_violation(self.scope, data);
    }

    fn counts(&self, delta: &EnforceStats) {
        self.hub.counts(self.scope, delta);
    }
}
