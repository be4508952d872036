//! The fault-injection seam of the fleet runtime.
//!
//! Chaos testing needs hooks *inside* the runtime — a worker that can
//! be told to panic, a registry fetch that can be told to stall — but
//! the runtime must not depend on the chaos layer, and the disabled
//! seam must cost nothing. The shape mirrors the observability seam:
//! instrumentation sites hold an `Option<Arc<dyn FaultPoint>>` and
//! consult it only when present, so production pools pay one
//! predictable branch per site and allocate nothing.
//!
//! The policy side — *which* site fires *when* — lives in
//! `sedspec-chaos` (`FaultPlan`/`FaultInjector`); this module defines
//! only the vocabulary ([`FaultKind`], [`FaultAction`], [`FaultSite`])
//! and the trait the runtime calls through.

use std::sync::Arc;
use std::time::Duration;

use sedspec_devices::DeviceKind;
use sedspec_obs::{EnforceStats, ForensicData, ObsSink, TraceEventKind};
use serde::{Deserialize, Serialize};

/// The typed faults the runtime knows how to inject (and recover from).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FaultKind {
    /// The shard worker thread panics while servicing a submit.
    WorkerPanic,
    /// The tenant's compiled engine fails at a batch boundary; the
    /// tenant degrades to warn-only enforcement.
    DeviceStepError,
    /// A registry fetch ([`SpecRegistry::current_compiled`]) stalls
    /// (hot-swap delay).
    ///
    /// [`SpecRegistry::current_compiled`]: crate::registry::SpecRegistry::current_compiled
    RegistryStall,
    /// A registry fetch fails outright: the channel reports no current
    /// revision, as if the publish had been torn down mid-hot-swap.
    RegistryFail,
    /// The observability sink stalls before forwarding an event.
    ObsSinkStall,
    /// The pool refuses the submission as if the shard queue were full.
    SubmitSaturated,
}

impl FaultKind {
    /// Every kind, in a stable order (reports iterate this).
    pub const ALL: [FaultKind; 6] = [
        FaultKind::WorkerPanic,
        FaultKind::DeviceStepError,
        FaultKind::RegistryStall,
        FaultKind::RegistryFail,
        FaultKind::ObsSinkStall,
        FaultKind::SubmitSaturated,
    ];

    /// Stable dense index (for counter arrays).
    pub fn index(self) -> usize {
        match self {
            FaultKind::WorkerPanic => 0,
            FaultKind::DeviceStepError => 1,
            FaultKind::RegistryStall => 2,
            FaultKind::RegistryFail => 3,
            FaultKind::ObsSinkStall => 4,
            FaultKind::SubmitSaturated => 5,
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// What an instrumentation site should do, as decided by a
/// [`FaultPoint`] for one invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// No fault: behave normally.
    Proceed,
    /// Panic the calling thread (worker-panic sites).
    Panic,
    /// Fail the operation (registry fetch returns nothing; device-step
    /// sites degrade the tenant).
    Fail,
    /// Sleep for the given milliseconds, capped at [`MAX_STALL_MS`],
    /// then proceed.
    Stall(u64),
    /// Reject the operation with backpressure (submit sites return
    /// [`PoolError::Saturated`]).
    ///
    /// [`PoolError::Saturated`]: crate::pool::PoolError::Saturated
    Reject,
}

/// Where in the runtime a [`FaultPoint`] is being consulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSite {
    /// The fault this site can inject.
    pub kind: FaultKind,
    /// Tenant in whose context the site runs, when tenant-scoped.
    pub tenant: Option<u64>,
    /// Shard the site runs on, when shard-scoped.
    pub shard: Option<u32>,
    /// Device channel the site touches (registry fetches).
    pub device: Option<DeviceKind>,
}

impl FaultSite {
    /// The worker-panic site: a shard servicing `tenant`'s submit.
    pub fn worker_panic(shard: u32, tenant: u64) -> Self {
        FaultSite {
            kind: FaultKind::WorkerPanic,
            tenant: Some(tenant),
            shard: Some(shard),
            device: None,
        }
    }

    /// The device-step site: a tenant's batch about to run.
    pub fn device_step(shard: u32, tenant: u64) -> Self {
        FaultSite {
            kind: FaultKind::DeviceStepError,
            tenant: Some(tenant),
            shard: Some(shard),
            device: None,
        }
    }

    /// A registry fetch for one device channel.
    pub fn registry_fetch(kind: FaultKind, device: DeviceKind) -> Self {
        FaultSite { kind, tenant: None, shard: None, device: Some(device) }
    }

    /// The obs-sink site: an event about to be forwarded.
    pub fn obs_sink(tenant: Option<u64>) -> Self {
        FaultSite { kind: FaultKind::ObsSinkStall, tenant, shard: None, device: None }
    }

    /// The submit site: a batch about to be queued.
    pub fn submit(shard: u32, tenant: u64) -> Self {
        FaultSite {
            kind: FaultKind::SubmitSaturated,
            tenant: Some(tenant),
            shard: Some(shard),
            device: None,
        }
    }
}

/// Upper bound on any injected stall, so no chaos plan can freeze a
/// worker (or CI) indefinitely.
pub const MAX_STALL_MS: u64 = 250;

/// Sleeps for `ms` milliseconds, capped at [`MAX_STALL_MS`].
pub fn stall(ms: u64) {
    std::thread::sleep(Duration::from_millis(ms.min(MAX_STALL_MS)));
}

/// The decision side of the seam: consulted by every instrumented site
/// with its [`FaultSite`], answers with the [`FaultAction`] to take.
///
/// Implementations must be deterministic given their own state (the
/// chaos layer keys per-site invocation counters), and cheap — sites
/// sit on submit and batch paths.
pub trait FaultPoint: Send + Sync + std::fmt::Debug {
    /// Decides this invocation's action.
    fn check(&self, site: &FaultSite) -> FaultAction;
}

/// An [`ObsSink`] adapter that consults the fault seam before
/// forwarding. An injected [`FaultKind::ObsSinkStall`] delays the
/// event and leaves a [`TraceEventKind::FaultInjected`] marker in the
/// trace, but the original event is **always** forwarded afterwards:
/// observability under fault degrades (late, annotated), it is never
/// silently lost — the flight recorder can still assemble a forensic
/// record for a round whose sink stalled mid-way.
pub struct FaultySink {
    inner: Arc<dyn ObsSink>,
    faults: Arc<dyn FaultPoint>,
    tenant: Option<u64>,
}

impl FaultySink {
    /// Wraps `inner`, consulting `faults` at the obs-sink site of
    /// `tenant` on every event and violation.
    pub fn new(inner: Arc<dyn ObsSink>, faults: Arc<dyn FaultPoint>, tenant: Option<u64>) -> Self {
        FaultySink { inner, faults, tenant }
    }

    fn maybe_stall(&self) {
        if let FaultAction::Stall(ms) = self.faults.check(&FaultSite::obs_sink(self.tenant)) {
            stall(ms);
            self.inner.event(TraceEventKind::FaultInjected {
                kind: FaultKind::ObsSinkStall.to_string(),
                tenant: self.tenant,
            });
        }
    }
}

impl std::fmt::Debug for FaultySink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultySink").field("tenant", &self.tenant).finish_non_exhaustive()
    }
}

impl ObsSink for FaultySink {
    fn event(&self, kind: TraceEventKind) {
        self.maybe_stall();
        self.inner.event(kind);
    }

    fn violation(&self, data: ForensicData) {
        self.maybe_stall();
        self.inner.violation(data);
    }

    fn wants_forensics(&self) -> bool {
        self.inner.wants_forensics()
    }

    /// Forwarded without consulting the fault seam: the ledger delta is
    /// no event, so chaos invocation counters never see it.
    fn counts(&self, delta: &EnforceStats) {
        self.inner.counts(delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sedspec_obs::{ObsHub, ScopeInfo, VerdictKind};

    #[derive(Debug)]
    struct AlwaysStall;

    impl FaultPoint for AlwaysStall {
        fn check(&self, site: &FaultSite) -> FaultAction {
            match site.kind {
                FaultKind::ObsSinkStall => FaultAction::Stall(0),
                _ => FaultAction::Proceed,
            }
        }
    }

    #[test]
    fn faulty_sink_always_forwards_with_marker() {
        let hub = Arc::new(ObsHub::new());
        let scoped = hub.sink(ScopeInfo::device("FDC"));
        let sink = FaultySink::new(scoped, Arc::new(AlwaysStall), Some(9));
        sink.event(TraceEventKind::RoundBegin { program: 0 });
        sink.violation(ForensicData {
            verdict: VerdictKind::Halted,
            strategy: "Parameter".into(),
            violation: "BufferOverflow".into(),
            violated: None,
            executed: false,
            block_path: Vec::new(),
            shadow_diff: Vec::new(),
        });
        let events = hub.recent_events(10);
        // Stall marker + original event (the violation goes to the
        // flight recorder, preceded by its own marker).
        assert_eq!(events.len(), 3);
        assert!(matches!(events[0].kind, TraceEventKind::FaultInjected { .. }));
        assert!(matches!(events[1].kind, TraceEventKind::RoundBegin { .. }));
        assert_eq!(hub.forensics().len(), 1);
        assert_eq!(hub.metrics().sum_counter("sedspec_faults_injected_total"), 2);
    }

    #[test]
    fn kind_indices_are_dense_and_stable() {
        for (i, kind) in FaultKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
    }
}
