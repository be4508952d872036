//! The sharded enforcement pool.
//!
//! One pool hosts many *tenants* — isolated machines of enforcing
//! devices — spread deterministically over N worker shards
//! (`shard = tenant id mod N`). Guest traffic is submitted in batches;
//! each shard services its tenants' batches in submission order, so a
//! tenant's verdict stream depends only on its own traffic, never on
//! shard count or sibling load.
//!
//! Degradation is graceful and tenant-local: a protection-mode halt
//! first tries a [`SnapshotRing`] rollback (the paper's §VIII anomaly
//! defence); once the rollback budget is exhausted the tenant is
//! quarantined — later batches are rejected — while the shard keeps
//! serving its other tenants.
//!
//! The pool also survives *its own* failures, not just the tenants':
//!
//! * a dead shard worker (panic, failed spawn) is respawned by the
//!   supervisor on the next submit, with capped exponential backoff and
//!   a bounded restart budget ([`RecoveryConfig`]); its tenants are
//!   re-hosted from their stored configs with quarantine, degradation
//!   and spent rollback budget carried over ([`TenantState`]), so a
//!   compromised tenant cannot launder its record through a crash (its
//!   `EnforceStats` restart from zero; a hub's counters do not);
//! * submits are bounded: a shard with too many batches in flight
//!   rejects with [`PoolError::Saturated`] instead of queueing without
//!   limit, and [`EnforcementPool::wait`] can enforce a per-batch
//!   timeout ([`PoolError::BatchTimeout`]);
//! * a compiled-engine fault degrades the tenant to warn-only mode on
//!   the same engine (a `DegradedMode` alert is emitted) rather than
//!   halting a possibly-benign tenant.
//!
//! Every failure mode above is reachable on demand through the
//! [`fault`](crate::fault) seam, which is how the chaos suite drives
//! them deterministically.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::{Mutex, RwLock};
use sedspec::checker::WorkingMode;
use sedspec::collect::{apply_step, TrainStep};
use sedspec::enforce::{EnforceStats, EnforcingDevice, IoVerdict};
use sedspec::pipeline::deploy_compiled;
use sedspec::response::{highest_alert, AlertLevel, SnapshotRing};
use sedspec_devices::{build_device, DeviceKind, QemuVersion};
use sedspec_obs::{ObsHub, ObsSink, ScopeId, ScopeInfo, TraceEventKind};
use sedspec_vmm::{IoRequest, VmContext, SECTOR_SIZE};
use serde::{Deserialize, Serialize};

use crate::fault::{FaultAction, FaultKind, FaultPoint, FaultSite, FaultySink};
use crate::registry::{SpecKey, SpecRegistry};
use crate::telemetry::{AlertEvent, FleetReport, ShardTelemetry, TenantStatus};

/// Fleet-wide tenant identity. Placement is `id mod shard_count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TenantId(pub u64);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

/// How a tenant's machine is built and degraded.
///
/// Serializes, so the `sedspecd` daemon can carry tenant configs over
/// its wire protocol and persist them in its durable store.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantConfig {
    /// The tenant's identity (also decides its shard).
    pub tenant: TenantId,
    /// Devices to attach, resolved against the registry's current
    /// revision per `(kind, version)` channel.
    pub devices: Vec<(DeviceKind, QemuVersion)>,
    /// Enforcement mode for every attached device.
    pub mode: WorkingMode,
    /// Snapshots retained per device for rollback.
    pub snapshot_depth: usize,
    /// Halts absorbed by rollback before the tenant is quarantined.
    pub rollback_budget: u32,
    /// Guest memory bytes: the size of the guest's address space, not
    /// a reservation. Pages are allocated on first write, so a tenant
    /// costs the pages its devices write. At most
    /// [`TenantConfig::MAX_MEM_SIZE`].
    pub mem_size: usize,
    /// Disk backend size in sectors. Like `mem_size`, this sizes an
    /// address space; sectors take memory once written. At most
    /// [`TenantConfig::MAX_DISK_SECTORS`].
    pub disk_sectors: usize,
}

impl TenantConfig {
    /// Largest accepted [`mem_size`](Self::mem_size): 1 GiB. It bounds
    /// the page table a tenant's memory is built with (one pointer per
    /// 4 KiB page, 2 MiB at the cap).
    pub const MAX_MEM_SIZE: usize = 1 << 30;

    /// Largest accepted [`disk_sectors`](Self::disk_sectors): a 1 GiB
    /// disk, with the same page-table bound as memory.
    pub const MAX_DISK_SECTORS: usize = Self::MAX_MEM_SIZE / SECTOR_SIZE;

    /// Refuses sizes past the caps before anything is allocated. The
    /// comparisons are on the fields as given, so no size arithmetic
    /// can overflow on the way.
    fn check_size(&self) -> Result<(), PoolError> {
        for (what, value, cap) in [
            ("mem_size", self.mem_size, Self::MAX_MEM_SIZE),
            ("disk_sectors", self.disk_sectors, Self::MAX_DISK_SECTORS),
        ] {
            if value > cap {
                return Err(PoolError::TooLarge { tenant: self.tenant, what, cap });
            }
        }
        Ok(())
    }

    /// A protection-mode tenant with the fleet defaults: every device
    /// patched, four snapshots, one rollback before quarantine.
    pub fn new(tenant: u64) -> Self {
        TenantConfig {
            tenant: TenantId(tenant),
            devices: DeviceKind::all().into_iter().map(|k| (k, QemuVersion::Patched)).collect(),
            mode: WorkingMode::Protection,
            snapshot_depth: 4,
            rollback_budget: 1,
            mem_size: 0x100000,
            disk_sectors: 4096,
        }
    }

    /// Replaces the device list.
    pub fn with_devices(mut self, devices: Vec<(DeviceKind, QemuVersion)>) -> Self {
        self.devices = devices;
        self
    }

    /// Replaces the working mode.
    pub fn with_mode(mut self, mode: WorkingMode) -> Self {
        self.mode = mode;
        self
    }
}

/// Recovery budgets and limits for an [`EnforcementPool`].
///
/// The defaults match the pre-recovery pool as closely as possible: no
/// batch timeout (waits block), generous backpressure, and a small
/// bounded restart budget so a crash-looping worker cannot spin
/// forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryConfig {
    /// Worker respawns allowed per shard before the shard is declared
    /// permanently down ([`PoolError::ShardDown`]).
    pub max_restarts_per_shard: u32,
    /// Base supervisor backoff before a respawn, in milliseconds;
    /// doubled per prior restart of the shard.
    pub backoff_base_ms: u64,
    /// Cap on the exponential backoff, in milliseconds.
    pub backoff_cap_ms: u64,
    /// Per-batch wait budget for [`EnforcementPool::wait`]; `None`
    /// blocks indefinitely (the pre-recovery behaviour).
    pub batch_timeout_ms: Option<u64>,
    /// Extra submit+wait attempts
    /// [`EnforcementPool::run_batch_reliable`] makes after the first.
    pub submit_retries: u32,
    /// Batches a shard may have in flight before submits are rejected
    /// with [`PoolError::Saturated`].
    pub max_pending_per_shard: usize,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            max_restarts_per_shard: 3,
            backoff_base_ms: 1,
            backoff_cap_ms: 64,
            batch_timeout_ms: None,
            submit_retries: 2,
            max_pending_per_shard: 1024,
        }
    }
}

/// A tenant's protective state: what its record says about it, as
/// opposed to what its devices are doing. It outlives the tenant's
/// runtime, so neither a worker crash nor a daemon restart can launder
/// a quarantine or hand back spent rollback budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantState {
    /// Later batches are refused.
    pub quarantined: bool,
    /// Enforcement runs the warn-only fallback after a compiled-engine
    /// fault.
    pub degraded: bool,
    /// Halts absorbed by rollback since hosting or the last release.
    pub rollbacks_used: u32,
}

/// The pool's tenant-state map, shared by the pool and its workers: the
/// only live copy of every [`TenantState`]. A respawned worker re-hosts
/// its tenants from their boot configs and this map.
#[derive(Default)]
struct StateMap(Mutex<HashMap<TenantId, TenantState>>);

impl StateMap {
    fn get(&self, tenant: TenantId) -> TenantState {
        self.0.lock().get(&tenant).copied().unwrap_or_default()
    }

    fn update<R>(&self, tenant: TenantId, f: impl FnOnce(&mut TenantState) -> R) -> R {
        f(self.0.lock().entry(tenant).or_default())
    }
}

type FaultSeam = RwLock<Option<Arc<dyn FaultPoint>>>;

/// Handle for one submitted batch; redeem with [`EnforcementPool::wait`].
#[derive(Debug, PartialEq, Eq, Hash)]
#[must_use = "redeem the ticket with EnforcementPool::wait"]
pub struct Ticket(u64);

/// The outcome of one batch on one tenant.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchReport {
    /// The tenant the batch ran on.
    pub tenant: TenantId,
    /// I/O rounds serviced (memory writes and delays excluded).
    pub rounds: u64,
    /// Rounds flagged anomalous (halted or warned).
    pub flagged: u64,
    /// Snapshot rollbacks performed during the batch.
    pub rollbacks: u32,
    /// Whether the tenant ended the batch quarantined.
    pub quarantined: bool,
    /// Whether the batch was refused because the tenant was already
    /// quarantined when it arrived (no rounds ran).
    pub rejected: bool,
    /// Whether the tenant ended the batch on the warn-only degraded
    /// fallback engine.
    pub degraded: bool,
    /// Checking counters accumulated by this batch alone.
    pub stats: EnforceStats,
    /// Highest alert level raised during the batch.
    pub alert: Option<AlertLevel>,
}

/// Why a pool call failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// The tenant id is not registered on its shard.
    UnknownTenant(TenantId),
    /// The tenant id is already registered.
    TenantExists(TenantId),
    /// No specification is published for a requested channel.
    NoSpec(DeviceKind, QemuVersion),
    /// Two attached devices claim overlapping bus regions.
    RegionConflict(TenantId),
    /// The shard worker is gone (its thread exited) and the restart
    /// budget is spent — or the failure outran the supervisor.
    ShardDown(usize),
    /// The ticket was already redeemed or never issued.
    UnknownTicket,
    /// The shard has too many batches in flight; back off and retry.
    Saturated(usize),
    /// The batch did not complete within the configured wait budget.
    BatchTimeout(TenantId),
    /// A size in the tenant's config is past its cap
    /// ([`TenantConfig::MAX_MEM_SIZE`], [`TenantConfig::MAX_DISK_SECTORS`]).
    TooLarge {
        /// The refused tenant.
        tenant: TenantId,
        /// The config field over its cap.
        what: &'static str,
        /// The field's cap.
        cap: usize,
    },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::UnknownTenant(t) => write!(f, "{t} is not registered"),
            PoolError::TenantExists(t) => write!(f, "{t} is already registered"),
            PoolError::NoSpec(k, v) => {
                write!(f, "no specification published for {k}/{v}")
            }
            PoolError::RegionConflict(t) => {
                write!(f, "{t}: attached devices claim overlapping regions")
            }
            PoolError::ShardDown(s) => write!(f, "shard {s} is down"),
            PoolError::UnknownTicket => write!(f, "unknown or already redeemed ticket"),
            PoolError::Saturated(s) => write!(f, "shard {s} is saturated; retry later"),
            PoolError::BatchTimeout(t) => write!(f, "{t}: batch timed out"),
            PoolError::TooLarge { tenant, what, cap } => {
                write!(f, "{tenant}: {what} exceeds its cap of {cap}")
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// One enforcing device inside a tenant, plus its provenance.
struct DeviceSlot {
    kind: DeviceKind,
    version: QemuVersion,
    key: SpecKey,
    /// Registry epoch the deployment was built at; compared against the
    /// channel epoch at batch boundaries to detect hot-swaps.
    epoch: u64,
    enforcer: EnforcingDevice,
    ring: SnapshotRing,
    /// Observability sink bound to this slot's `shard/tenant/device`
    /// scope (wrapped in a [`FaultySink`] when a fault seam is
    /// attached); survives hot-swaps (the fresh enforcer is
    /// re-attached).
    sink: Option<Arc<dyn ObsSink>>,
}

/// A tenant's runtime state, owned by exactly one shard.
struct TenantRuntime {
    id: TenantId,
    mode: WorkingMode,
    snapshot_depth: usize,
    rollback_budget: u32,
    ctx: VmContext,
    slots: Vec<DeviceSlot>,
    /// Stats of enforcers retired by hot-swaps.
    retired: EnforceStats,
    flagged_rounds: u64,
    worst_alert: Option<AlertLevel>,
    /// Hub plus the owning shard's scope, for tenant lifecycle events.
    obs: Option<(Arc<ObsHub>, ScopeId)>,
    /// The pool's state map, which holds this tenant's protective
    /// state.
    states: Arc<StateMap>,
}

impl TenantRuntime {
    fn build(
        cfg: &TenantConfig,
        registry: &SpecRegistry,
        shard: usize,
        obs: Option<&(Arc<ObsHub>, ScopeId)>,
        faults: Option<&Arc<dyn FaultPoint>>,
        states: &Arc<StateMap>,
    ) -> Result<Self, PoolError> {
        let ctx = VmContext::new(cfg.mem_size, cfg.disk_sectors);
        // Probe for region overlaps the way Machine::attach would.
        let mut bus = sedspec_vmm::Bus::new();
        let mut slots = Vec::with_capacity(cfg.devices.len());
        for &(kind, version) in &cfg.devices {
            // The publish-time compile is shared: deploying a tenant
            // device is an `Arc` clone, not a specification clone.
            let (key, compiled, epoch) =
                registry.current_compiled(kind, version).ok_or(PoolError::NoSpec(kind, version))?;
            let device = build_device(kind, version);
            for &(space, base, len) in &device.regions {
                bus.register(space, base, len, device.name.clone())
                    .map_err(|_| PoolError::RegionConflict(cfg.tenant))?;
            }
            let mut enforcer = deploy_compiled(device, compiled, cfg.mode);
            let sink = obs.map(|(hub, _)| {
                let scoped = hub.sink(ScopeInfo::tenant_device(
                    shard as u32,
                    cfg.tenant.0,
                    kind.to_string(),
                ));
                let sink: Arc<dyn ObsSink> = match faults {
                    Some(fp) => {
                        Arc::new(FaultySink::new(scoped, Arc::clone(fp), Some(cfg.tenant.0)))
                    }
                    None => scoped,
                };
                enforcer.set_sink(Some(Arc::clone(&sink)));
                sink
            });
            slots.push(DeviceSlot {
                kind,
                version,
                key,
                epoch,
                enforcer,
                ring: SnapshotRing::new(cfg.snapshot_depth),
                sink,
            });
        }
        let mut runtime = TenantRuntime {
            id: cfg.tenant,
            mode: cfg.mode,
            snapshot_depth: cfg.snapshot_depth,
            rollback_budget: cfg.rollback_budget,
            ctx,
            slots,
            retired: EnforceStats::default(),
            flagged_rounds: 0,
            worst_alert: None,
            obs: obs.cloned(),
            states: Arc::clone(states),
        };
        // A tenant re-hosted after a respawn or a restart keeps its
        // degradation; quarantine and spent budget are read from the
        // map where they are used.
        if runtime.states.get(cfg.tenant).degraded {
            for slot in &mut runtime.slots {
                slot.enforcer.degrade();
            }
        }
        // Baseline snapshot: a tenant attacked in its very first batch
        // can still roll back to boot state.
        for slot in &mut runtime.slots {
            slot.ring.capture(&slot.enforcer);
        }
        Ok(runtime)
    }

    /// Redeploys any slot whose registry channel advanced past the
    /// epoch it was built at. The replacement starts from device boot
    /// state (the same contract as a fresh deployment); the retired
    /// enforcer's counters are folded into the tenant total. A
    /// registry fetch failed by the fault seam leaves the old
    /// deployment serving — a failed hot-swap never takes a tenant
    /// down.
    fn refresh_specs(&mut self, registry: &SpecRegistry) {
        for slot in &mut self.slots {
            let epoch_now = registry.epoch(slot.kind, slot.version);
            if epoch_now == slot.epoch {
                continue;
            }
            if let Some((key, compiled, epoch)) = registry.current_compiled(slot.kind, slot.version)
            {
                let fresh =
                    deploy_compiled(build_device(slot.kind, slot.version), compiled, self.mode);
                let old = std::mem::replace(&mut slot.enforcer, fresh);
                self.retired.merge(&old.stats);
                slot.key = key;
                slot.epoch = epoch;
                if self.states.get(self.id).degraded {
                    slot.enforcer.degrade();
                }
                if let Some(sink) = &slot.sink {
                    slot.enforcer.set_sink(Some(Arc::clone(sink)));
                    sink.event(TraceEventKind::SpecSwapped {
                        tenant: self.id.0,
                        device: slot.kind.to_string(),
                        epoch,
                    });
                }
                slot.ring = SnapshotRing::new(self.snapshot_depth);
                slot.ring.capture(&slot.enforcer);
            }
        }
    }

    fn total_stats(&self) -> EnforceStats {
        let mut total = self.retired;
        for slot in &self.slots {
            total.merge(&slot.enforcer.stats);
        }
        total
    }

    /// Switches every device to warn-only mode: the graceful response
    /// to a compiled-engine fault. Emits a `DegradedMode` alert and the
    /// obs events feeding `sedspec_degraded_tenants`.
    fn degrade(&mut self, shard: usize, alerts: &Sender<AlertEvent>, alert_seq: &AtomicU64) {
        if self.states.update(self.id, |s| std::mem::replace(&mut s.degraded, true)) {
            return;
        }
        for slot in &mut self.slots {
            slot.enforcer.degrade();
        }
        if let Some((hub, scope)) = &self.obs {
            hub.record(
                *scope,
                TraceEventKind::FaultInjected {
                    kind: FaultKind::DeviceStepError.to_string(),
                    tenant: Some(self.id.0),
                },
            );
            hub.record(*scope, TraceEventKind::TenantDegraded { tenant: self.id.0 });
        }
        if let Some(slot) = self.slots.first() {
            let _ = alerts.send(AlertEvent {
                seq: alert_seq.fetch_add(1, Ordering::Relaxed) + 1,
                round: slot.enforcer.stats.rounds,
                shard,
                tenant: self.id,
                device: slot.kind,
                level: None,
                detail: "DegradedMode: compiled-engine fault; warn-only enforcement".into(),
            });
        }
    }

    fn run_batch(
        &mut self,
        steps: &[TrainStep],
        registry: &SpecRegistry,
        shard: usize,
        alerts: &Sender<AlertEvent>,
        alert_seq: &AtomicU64,
        faults: Option<&Arc<dyn FaultPoint>>,
    ) -> BatchReport {
        let state = self.states.get(self.id);
        if state.quarantined {
            return BatchReport {
                tenant: self.id,
                rounds: 0,
                flagged: 0,
                rollbacks: 0,
                quarantined: true,
                rejected: true,
                degraded: state.degraded,
                stats: EnforceStats::default(),
                alert: None,
            };
        }
        // Chaos seam: a compiled-engine failure at the batch boundary
        // degrades the tenant instead of halting it.
        if let Some(fp) = faults {
            if matches!(
                fp.check(&FaultSite::device_step(shard as u32, self.id.0)),
                FaultAction::Fail
            ) {
                self.degrade(shard, alerts, alert_seq);
            }
        }
        self.refresh_specs(registry);

        let before = self.total_stats();
        let mut flagged = 0u64;
        let mut rollbacks = 0u32;
        let mut worst: Option<AlertLevel> = None;

        // Maximal runs of consecutive I/O steps that resolve to the same
        // device slot ride the checker's batched walk path; a run's
        // reports are processed per verdict with the exact sequential
        // semantics (alerts, rollback, quarantine). I/O steps are
        // context-pass-through in `apply_step`, so gathering a run up
        // front reorders no context mutation; MemWrite/Delay steps end
        // a run.
        let mut run: Vec<&IoRequest> = Vec::new();
        let mut verdicts: Vec<IoVerdict> = Vec::new();
        let mut i = 0;
        'steps: while i < steps.len() {
            let Some(req) = apply_step(&steps[i], &mut self.ctx) else {
                i += 1;
                continue;
            };
            let Some(idx) = self.slots.iter().position(|s| s.enforcer.device.route(req).is_some())
            else {
                i += 1;
                continue; // unmapped, as on a real bus: ignored
            };
            run.clear();
            run.push(req);
            let mut j = i + 1;
            while j < steps.len() {
                let TrainStep::Io(next) = &steps[j] else { break };
                // Same first-slot-wins routing decision as the head.
                let routed =
                    self.slots.iter().position(|s| s.enforcer.device.route(next).is_some());
                if routed != Some(idx) {
                    break;
                }
                run.push(next);
                j += 1;
            }
            i = j;
            let slot = &mut self.slots[idx];
            let mut consumed = 0;
            while consumed < run.len() {
                verdicts.clear();
                let n = slot.enforcer.handle_batch(&mut self.ctx, &run[consumed..], &mut verdicts);
                if n == 0 {
                    break; // defensive: a non-empty slice always consumes
                }
                consumed += n;
                // Only a chunk's final verdict can be flagged (clean
                // prefixes commit; a flagged round stops its chunk), so
                // per-chunk processing observes alerts and halts in the
                // same order and with the same round numbers as the
                // sequential loop.
                for verdict in &verdicts {
                    if verdict.flagged() {
                        flagged += 1;
                        let level = highest_alert(verdict.violations());
                        worst = worst.max(level);
                        if let Some(sink) = &slot.sink {
                            sink.event(TraceEventKind::Alert {
                                level: level.map_or_else(|| "-".into(), |l| format!("{l:?}")),
                            });
                        }
                        let _ = alerts.send(AlertEvent {
                            seq: alert_seq.fetch_add(1, Ordering::Relaxed) + 1,
                            round: slot.enforcer.stats.rounds,
                            shard,
                            tenant: self.id,
                            device: slot.kind,
                            level,
                            detail: verdict
                                .violations()
                                .first()
                                .map(|v| format!("{v:?}"))
                                .unwrap_or_default(),
                        });
                    }
                }
                if slot.enforcer.is_halted() {
                    if self.states.get(self.id).rollbacks_used < self.rollback_budget
                        && slot.ring.rollback_latest(&mut slot.enforcer)
                    {
                        self.states.update(self.id, |s| s.rollbacks_used += 1);
                        rollbacks += 1;
                    } else {
                        self.states.update(self.id, |s| s.quarantined = true);
                        if let Some((hub, scope)) = &self.obs {
                            hub.record(
                                *scope,
                                TraceEventKind::TenantQuarantined { tenant: self.id.0 },
                            );
                        }
                        break 'steps;
                    }
                }
            }
        }

        let state = self.states.get(self.id);
        if !state.quarantined {
            for slot in &mut self.slots {
                slot.ring.capture(&slot.enforcer);
            }
        }
        self.flagged_rounds += flagged;
        self.worst_alert = self.worst_alert.max(worst);

        let after = self.total_stats();
        BatchReport {
            tenant: self.id,
            rounds: after.rounds - before.rounds,
            flagged,
            rollbacks,
            quarantined: state.quarantined,
            rejected: false,
            degraded: state.degraded,
            stats: after.since(&before),
            alert: worst,
        }
    }

    fn status(&self) -> TenantStatus {
        let state = self.states.get(self.id);
        TenantStatus {
            tenant: self.id,
            quarantined: state.quarantined,
            degraded: state.degraded,
            rollbacks: state.rollbacks_used,
            flagged_rounds: self.flagged_rounds,
            worst_alert: self.worst_alert,
            stats: self.total_stats(),
            specs: self.slots.iter().map(|s| s.key).collect(),
        }
    }
}

enum ShardMsg {
    AddTenant(Box<TenantConfig>, Sender<Result<(), PoolError>>),
    Submit {
        tenant: TenantId,
        steps: Vec<TrainStep>,
        reply: Sender<BatchReport>,
    },
    /// Operator-driven quarantine control: `on = true` quarantines the
    /// tenant, `on = false` releases it with a fresh rollback budget.
    /// Replies with the tenant's previous quarantine flag.
    SetQuarantine {
        tenant: TenantId,
        on: bool,
        reply: Sender<Result<bool, PoolError>>,
    },
    Report(Sender<ShardTelemetry>),
    Shutdown,
}

struct ShardHandle {
    tx: Sender<ShardMsg>,
    /// `None` when the spawn itself failed; the supervisor treats that
    /// exactly like a dead worker (revivable, budget permitting).
    thread: Option<JoinHandle<()>>,
    /// Batches sent but not yet replied to, for backpressure. Reset on
    /// respawn (queued work died with the worker).
    inflight: Arc<AtomicUsize>,
    /// Set when a send or wait observed the worker's channel
    /// disconnected. A panicking thread drops its channel endpoints
    /// before `JoinHandle::is_finished` turns true, so the supervisor
    /// must remember the disconnect or it would race the unwind and
    /// skip a needed respawn.
    suspect: bool,
}

/// Everything a shard worker borrows from the pool, bundled so respawns
/// hand the replacement the exact same environment.
#[derive(Clone)]
struct ShardCtx {
    registry: Arc<SpecRegistry>,
    alerts: Sender<AlertEvent>,
    alert_seq: Arc<AtomicU64>,
    obs: Option<Arc<ObsHub>>,
    seam: Arc<FaultSeam>,
    states: Arc<StateMap>,
}

// Thread entry point: owns its channel endpoints for the worker's lifetime.
#[allow(clippy::needless_pass_by_value)]
fn shard_main(shard: usize, rx: Receiver<ShardMsg>, ctx: ShardCtx, inflight: Arc<AtomicUsize>) {
    // Shard-level scope: worker lifecycle and tenant admission events.
    let obs = ctx.obs.map(|hub| {
        let scope = hub.register_scope(ScopeInfo {
            shard: Some(shard as u32),
            tenant: None,
            device: "pool".into(),
        });
        hub.record(scope, TraceEventKind::ShardStarted { shard: shard as u32 });
        (hub, scope)
    });
    let mut tenants: HashMap<TenantId, TenantRuntime> = HashMap::new();
    while let Ok(msg) = rx.recv() {
        match msg {
            ShardMsg::AddTenant(cfg, reply) => {
                let faults = ctx.seam.read().clone();
                let result = match tenants.entry(cfg.tenant) {
                    Entry::Occupied(_) => Err(PoolError::TenantExists(cfg.tenant)),
                    Entry::Vacant(slot) => TenantRuntime::build(
                        &cfg,
                        &ctx.registry,
                        shard,
                        obs.as_ref(),
                        faults.as_ref(),
                        &ctx.states,
                    )
                    .map(|rt| {
                        if let Some((hub, scope)) = &obs {
                            hub.record(
                                *scope,
                                TraceEventKind::TenantAdded { tenant: cfg.tenant.0 },
                            );
                        }
                        slot.insert(rt);
                    }),
                };
                let _ = reply.send(result);
            }
            ShardMsg::Submit { tenant, steps, reply } => {
                let faults = ctx.seam.read().clone();
                if let Some(fp) = &faults {
                    if matches!(
                        fp.check(&FaultSite::worker_panic(shard as u32, tenant.0)),
                        FaultAction::Panic
                    ) {
                        if let Some((hub, scope)) = &obs {
                            hub.record(
                                *scope,
                                TraceEventKind::FaultInjected {
                                    kind: FaultKind::WorkerPanic.to_string(),
                                    tenant: Some(tenant.0),
                                },
                            );
                        }
                        // The panic drops `reply` (and the whole rx):
                        // every waiter gets a disconnect, never a hang.
                        panic!("chaos: injected worker panic on shard {shard} ({tenant})");
                    }
                }
                let report = match tenants.get_mut(&tenant) {
                    Some(rt) => rt.run_batch(
                        &steps,
                        &ctx.registry,
                        shard,
                        &ctx.alerts,
                        &ctx.alert_seq,
                        faults.as_ref(),
                    ),
                    None => BatchReport {
                        tenant,
                        rounds: 0,
                        flagged: 0,
                        rollbacks: 0,
                        quarantined: false,
                        rejected: true,
                        degraded: false,
                        stats: EnforceStats::default(),
                        alert: None,
                    },
                };
                let _ = reply.send(report);
                inflight.fetch_sub(1, Ordering::AcqRel);
            }
            ShardMsg::SetQuarantine { tenant, on, reply } => {
                let result = if tenants.contains_key(&tenant) {
                    let was = ctx.states.update(tenant, |s| {
                        if !on {
                            // A released tenant gets its rollback budget
                            // back; re-arming it half-spent would
                            // quarantine again on first halt.
                            s.rollbacks_used = 0;
                        }
                        std::mem::replace(&mut s.quarantined, on)
                    });
                    if on && !was {
                        if let Some((hub, scope)) = &obs {
                            hub.record(
                                *scope,
                                TraceEventKind::TenantQuarantined { tenant: tenant.0 },
                            );
                        }
                    }
                    Ok(was)
                } else {
                    Err(PoolError::UnknownTenant(tenant))
                };
                let _ = reply.send(result);
            }
            ShardMsg::Report(reply) => {
                let mut statuses: Vec<TenantStatus> =
                    tenants.values().map(TenantRuntime::status).collect();
                statuses.sort_by_key(|s| s.tenant);
                let mut stats = EnforceStats::default();
                for s in &statuses {
                    stats.merge(&s.stats);
                }
                let _ = reply.send(ShardTelemetry { shard, tenants: statuses, stats });
            }
            ShardMsg::Shutdown => break,
        }
    }
}

struct PendingBatch {
    tenant: TenantId,
    shard: usize,
    rx: Receiver<BatchReport>,
}

/// The sharded multi-tenant enforcement runtime.
pub struct EnforcementPool {
    registry: Arc<SpecRegistry>,
    shards: Vec<ShardHandle>,
    /// Retained so a worker panic never severs the alert stream, and so
    /// respawned workers inherit the same channel.
    alerts_tx: Sender<AlertEvent>,
    alerts_rx: Receiver<AlertEvent>,
    alert_seq: Arc<AtomicU64>,
    obs: Option<Arc<ObsHub>>,
    /// Supervisor scope for restart events (registered lazily).
    obs_scope: Option<ScopeId>,
    seam: Arc<FaultSeam>,
    states: Arc<StateMap>,
    /// Boot configs of every hosted tenant, for re-hosting after a
    /// worker respawn.
    configs: Mutex<HashMap<TenantId, TenantConfig>>,
    recovery: RecoveryConfig,
    /// Respawns performed per shard.
    restarts: Vec<u32>,
    next_ticket: u64,
    pending: HashMap<u64, PendingBatch>,
}

impl EnforcementPool {
    /// Spawns `shards` worker threads sharing `registry`.
    pub fn new(shards: usize, registry: Arc<SpecRegistry>) -> Self {
        Self::build(shards, registry, None)
    }

    /// Like [`EnforcementPool::new`], but every shard, tenant device
    /// and the registry report into `hub`: structured trace events,
    /// metrics, and a forensic flight record per flagged round.
    pub fn with_obs(shards: usize, registry: Arc<SpecRegistry>, hub: &Arc<ObsHub>) -> Self {
        registry.attach_obs(hub);
        Self::build(shards, registry, Some(hub))
    }

    fn build(shards: usize, registry: Arc<SpecRegistry>, obs: Option<&Arc<ObsHub>>) -> Self {
        let shards = shards.max(1);
        let (alerts_tx, alerts_rx) = unbounded();
        let ctx = ShardCtx {
            registry: Arc::clone(&registry),
            alerts: alerts_tx.clone(),
            alert_seq: Arc::new(AtomicU64::new(0)),
            obs: obs.cloned(),
            seam: Arc::new(RwLock::new(None)),
            states: Arc::default(),
        };
        let handles = (0..shards).map(|i| spawn_worker(i, &ctx)).collect();
        let obs_scope = obs.map(|hub| hub.register_scope(ScopeInfo::device("supervisor")));
        EnforcementPool {
            registry,
            shards: handles,
            alerts_tx,
            alerts_rx,
            alert_seq: Arc::clone(&ctx.alert_seq),
            obs: ctx.obs.clone(),
            obs_scope,
            seam: Arc::clone(&ctx.seam),
            states: Arc::clone(&ctx.states),
            configs: Mutex::new(HashMap::new()),
            recovery: RecoveryConfig::default(),
            restarts: vec![0; shards],
            next_ticket: 0,
            pending: HashMap::new(),
        }
    }

    /// Attaches a fault-injection point to the pool's seams — worker
    /// submit path, device-step boundary, obs sinks of tenants hosted
    /// *after* the attach — and to the registry's fetch path. With no
    /// attachment every site is one predictable branch (the production
    /// configuration).
    pub fn with_faults(self, faults: Arc<dyn FaultPoint>) -> Self {
        self.registry.attach_faults(Some(Arc::clone(&faults)));
        *self.seam.write() = Some(faults);
        self
    }

    /// Replaces the recovery budgets (builder form).
    pub fn with_recovery(mut self, recovery: RecoveryConfig) -> Self {
        self.recovery = recovery;
        self
    }

    /// The active recovery budgets.
    pub fn recovery(&self) -> &RecoveryConfig {
        &self.recovery
    }

    /// The registry this pool resolves specifications from.
    pub fn registry(&self) -> &Arc<SpecRegistry> {
        &self.registry
    }

    /// Number of worker shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Deterministic tenant placement: `id mod shard_count`.
    pub fn shard_of(&self, tenant: TenantId) -> usize {
        (tenant.0 % self.shards.len() as u64) as usize
    }

    /// Whether the shard's worker thread is currently live.
    pub fn shard_alive(&self, shard: usize) -> bool {
        let handle = &self.shards[shard];
        !handle.suspect && handle.thread.as_ref().is_some_and(|t| !t.is_finished())
    }

    /// Respawns performed per shard since the pool was built.
    pub fn restart_counts(&self) -> &[u32] {
        &self.restarts
    }

    fn shard_ctx(&self) -> ShardCtx {
        ShardCtx {
            registry: Arc::clone(&self.registry),
            alerts: self.alerts_tx.clone(),
            alert_seq: Arc::clone(&self.alert_seq),
            obs: self.obs.clone(),
            seam: Arc::clone(&self.seam),
            states: Arc::clone(&self.states),
        }
    }

    /// Supervision: if `shard`'s worker is dead, reap it, back off
    /// (capped exponential in the number of prior restarts), respawn
    /// it, and re-host its tenants from their boot configs — their
    /// [`TenantState`] (quarantine, degradation, spent rollbacks)
    /// carries over.
    ///
    /// # Errors
    ///
    /// [`PoolError::ShardDown`] once the restart budget is spent.
    pub fn revive_shard(&mut self, shard: usize) -> Result<(), PoolError> {
        if self.shard_alive(shard) {
            return Ok(());
        }
        let attempt = self.restarts[shard];
        if attempt >= self.recovery.max_restarts_per_shard {
            return Err(PoolError::ShardDown(shard));
        }
        // Reap the corpse; a panicked thread's join error is expected.
        if let Some(thread) = self.shards[shard].thread.take() {
            let _ = thread.join();
        }
        let backoff = self
            .recovery
            .backoff_base_ms
            .saturating_mul(1u64 << attempt.min(16))
            .min(self.recovery.backoff_cap_ms);
        if backoff > 0 {
            std::thread::sleep(Duration::from_millis(backoff));
        }
        self.restarts[shard] = attempt + 1;
        let ctx = self.shard_ctx();
        self.shards[shard] = spawn_worker(shard, &ctx);
        if let (Some(hub), Some(scope)) = (&self.obs, self.obs_scope) {
            hub.record(
                scope,
                TraceEventKind::WorkerRestarted { shard: shard as u32, attempt: attempt + 1 },
            );
        }
        // Re-host the shard's tenants in id order (deterministic), with
        // a couple of attempts each so a transient registry fault
        // cannot permanently evict a tenant.
        let mut configs: Vec<TenantConfig> = self
            .configs
            .lock()
            .values()
            .filter(|c| self.shard_of(c.tenant) == shard)
            .cloned()
            .collect();
        configs.sort_by_key(|c| c.tenant);
        for cfg in configs {
            for _ in 0..3 {
                match self.add_tenant_on(shard, cfg.clone()) {
                    Ok(()) | Err(PoolError::TenantExists(_)) => break,
                    Err(PoolError::ShardDown(s)) => return Err(PoolError::ShardDown(s)),
                    Err(_) => {}
                }
            }
        }
        Ok(())
    }

    fn add_tenant_on(&self, shard: usize, cfg: TenantConfig) -> Result<(), PoolError> {
        let (reply_tx, reply_rx) = unbounded();
        self.shards[shard]
            .tx
            .send(ShardMsg::AddTenant(Box::new(cfg), reply_tx))
            .map_err(|_| PoolError::ShardDown(shard))?;
        reply_rx.recv().map_err(|_| PoolError::ShardDown(shard))?
    }

    /// Registers a tenant on its shard, deploying its devices from the
    /// registry's current revisions. Blocks until the shard confirms.
    ///
    /// # Errors
    ///
    /// [`PoolError::TenantExists`] for duplicate ids,
    /// [`PoolError::NoSpec`] when a channel has no published revision,
    /// [`PoolError::RegionConflict`] for overlapping device claims,
    /// [`PoolError::TooLarge`] for memory or disk past its cap (checked
    /// here, before the shard sees the config).
    pub fn add_tenant(&self, cfg: TenantConfig) -> Result<(), PoolError> {
        cfg.check_size()?;
        let shard = self.shard_of(cfg.tenant);
        self.add_tenant_on(shard, cfg.clone())?;
        self.configs.lock().insert(cfg.tenant, cfg);
        Ok(())
    }

    /// Submits a batch of guest script steps (I/O, memory writes,
    /// delays) to a tenant. Returns immediately with a ticket. If the
    /// tenant's shard worker is dead it is revived first (budget
    /// permitting).
    ///
    /// # Errors
    ///
    /// [`PoolError::Saturated`] when the shard has too many batches in
    /// flight (or the fault seam injects saturation);
    /// [`PoolError::ShardDown`] when the worker is gone and the
    /// restart budget is spent.
    pub fn submit_steps(
        &mut self,
        tenant: TenantId,
        steps: Vec<TrainStep>,
    ) -> Result<Ticket, PoolError> {
        let shard = self.shard_of(tenant);
        if let Some(fp) = self.seam.read().clone() {
            if matches!(fp.check(&FaultSite::submit(shard as u32, tenant.0)), FaultAction::Reject) {
                if let (Some(hub), Some(scope)) = (&self.obs, self.obs_scope) {
                    hub.record(
                        scope,
                        TraceEventKind::FaultInjected {
                            kind: FaultKind::SubmitSaturated.to_string(),
                            tenant: Some(tenant.0),
                        },
                    );
                }
                return Err(PoolError::Saturated(shard));
            }
        }
        if self.shards[shard].inflight.load(Ordering::Acquire)
            >= self.recovery.max_pending_per_shard
        {
            return Err(PoolError::Saturated(shard));
        }
        self.revive_shard(shard)?;
        let (reply_tx, reply_rx) = unbounded();
        let mut msg = ShardMsg::Submit { tenant, steps, reply: reply_tx };
        // One revive attempt if the worker died between the health
        // probe and the send (the send hands the message back).
        let mut revived = false;
        loop {
            self.shards[shard].inflight.fetch_add(1, Ordering::AcqRel);
            match self.shards[shard].tx.send(msg) {
                Ok(()) => break,
                Err(send_err) => {
                    self.shards[shard].inflight.fetch_sub(1, Ordering::AcqRel);
                    self.shards[shard].suspect = true;
                    if revived {
                        return Err(PoolError::ShardDown(shard));
                    }
                    self.revive_shard(shard)?;
                    revived = true;
                    msg = send_err.0;
                }
            }
        }
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.pending.insert(ticket, PendingBatch { tenant, shard, rx: reply_rx });
        Ok(Ticket(ticket))
    }

    /// Submits a batch of raw I/O requests to a tenant.
    ///
    /// # Errors
    ///
    /// As for [`EnforcementPool::submit_steps`].
    pub fn submit_batch(
        &mut self,
        tenant: TenantId,
        requests: Vec<IoRequest>,
    ) -> Result<Ticket, PoolError> {
        self.submit_steps(tenant, requests.into_iter().map(TrainStep::Io).collect())
    }

    /// Blocks until the batch behind `ticket` completes, up to the
    /// configured [`RecoveryConfig::batch_timeout_ms`].
    ///
    /// # Errors
    ///
    /// [`PoolError::UnknownTicket`] for redeemed tickets,
    /// [`PoolError::ShardDown`] when the worker died mid-batch (the
    /// disconnect is immediate — a killed worker never hangs a
    /// waiter), [`PoolError::BatchTimeout`] when the wait budget ran
    /// out.
    // Takes the ticket by value on purpose: a ticket is single-redeem.
    #[allow(clippy::needless_pass_by_value)]
    pub fn wait(&mut self, ticket: Ticket) -> Result<BatchReport, PoolError> {
        let pending = self.pending.remove(&ticket.0).ok_or(PoolError::UnknownTicket)?;
        let result = match self.recovery.batch_timeout_ms {
            None => pending.rx.recv().map_err(|_| PoolError::ShardDown(pending.shard)),
            Some(ms) => pending.rx.recv_timeout(Duration::from_millis(ms)).map_err(|e| match e {
                RecvTimeoutError::Timeout => PoolError::BatchTimeout(pending.tenant),
                RecvTimeoutError::Disconnected => PoolError::ShardDown(pending.shard),
            }),
        };
        // A disconnect is proof of death even while the worker is still
        // unwinding; remember it so the next submit revives for sure.
        if matches!(result, Err(PoolError::ShardDown(_))) {
            self.shards[pending.shard].suspect = true;
        }
        result
    }

    /// Submit + wait with the configured bounded retry: up to
    /// `1 + submit_retries` attempts, reviving the tenant's shard
    /// between attempts as needed. Returns the report and the number
    /// of retries spent.
    ///
    /// # Errors
    ///
    /// The last attempt's error once the retry budget is spent.
    pub fn run_batch_reliable(
        &mut self,
        tenant: TenantId,
        steps: &[TrainStep],
    ) -> Result<(BatchReport, u32), PoolError> {
        let mut last = PoolError::ShardDown(self.shard_of(tenant));
        for attempt in 0..=self.recovery.submit_retries {
            match self.submit_steps(tenant, steps.to_vec()) {
                Ok(ticket) => match self.wait(ticket) {
                    Ok(report) => return Ok((report, attempt)),
                    Err(e) => last = e,
                },
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// Quarantines (`on = true`) or releases (`on = false`) a tenant by
    /// operator decision, bypassing the rollback budget. Releasing also
    /// restores the tenant's full rollback budget. Returns the previous
    /// quarantine flag.
    ///
    /// # Errors
    ///
    /// [`PoolError::UnknownTenant`] when the tenant is not hosted;
    /// [`PoolError::ShardDown`] when its shard cannot be revived.
    pub fn set_quarantine(&mut self, tenant: TenantId, on: bool) -> Result<bool, PoolError> {
        let shard = self.shard_of(tenant);
        self.revive_shard(shard)?;
        let (reply_tx, reply_rx) = unbounded();
        self.shards[shard]
            .tx
            .send(ShardMsg::SetQuarantine { tenant, on, reply: reply_tx })
            .map_err(|_| PoolError::ShardDown(shard))?;
        reply_rx.recv().map_err(|_| PoolError::ShardDown(shard))?
    }

    /// Seeds a tenant's protective state *before* the tenant is
    /// hosted, so [`EnforcementPool::add_tenant`] builds it already
    /// quarantined / degraded / part-spent. This is how the `sedspecd`
    /// daemon warm-loads tenant state from its durable store: exactly
    /// the carry-over path a worker respawn uses, so a restart cannot
    /// launder quarantine any more than a crash can.
    pub fn restore_tenant_state(&self, tenant: TenantId, state: TenantState) {
        self.states.update(tenant, |s| *s = state);
    }

    /// A tenant's protective state as it stands after every batch and
    /// operator command already answered; the default for a tenant
    /// never hosted.
    pub fn tenant_state(&self, tenant: TenantId) -> TenantState {
        self.states.get(tenant)
    }

    /// The pool-wide alert sequence high-water mark: the `seq` the most
    /// recently emitted [`AlertEvent`] carried (0 before the first).
    pub fn alert_seq(&self) -> u64 {
        self.alert_seq.load(Ordering::Acquire)
    }

    /// Starts the alert sequence counter at `seq` (the next alert gets
    /// `seq + 1`). The daemon calls this after replaying its store so
    /// [`AlertEvent::seq`] stays monotonic across restarts. Only raises
    /// the counter — a stale snapshot can never rewind a live stream.
    pub fn set_alert_seq(&self, seq: u64) {
        self.alert_seq.fetch_max(seq, Ordering::AcqRel);
    }

    /// Drains the alert stream (non-blocking).
    pub fn drain_alerts(&mut self) -> Vec<AlertEvent> {
        self.alerts_rx.try_iter().collect()
    }

    /// Collects per-shard, per-tenant telemetry from every worker.
    /// Dead shards are skipped; call [`EnforcementPool::revive_shard`]
    /// first for a complete picture.
    pub fn report(&self) -> FleetReport {
        let mut shards = Vec::with_capacity(self.shards.len());
        for handle in &self.shards {
            let (tx, rx) = unbounded();
            if handle.tx.send(ShardMsg::Report(tx)).is_ok() {
                if let Ok(telemetry) = rx.recv() {
                    shards.push(telemetry);
                }
            }
        }
        FleetReport { shards }
    }
}

fn spawn_worker(shard: usize, ctx: &ShardCtx) -> ShardHandle {
    let (tx, rx) = unbounded();
    let inflight = Arc::new(AtomicUsize::new(0));
    let worker_ctx = ctx.clone();
    let worker_inflight = Arc::clone(&inflight);
    // A failed spawn is not fatal: the handle's channel has no
    // receiver, so sends fail as ShardDown and the supervisor can
    // retry the spawn within the restart budget.
    let thread = std::thread::Builder::new()
        .name(format!("sedspec-shard-{shard}"))
        .spawn(move || shard_main(shard, rx, worker_ctx, worker_inflight))
        .ok();
    ShardHandle { tx, thread, inflight, suspect: false }
}

impl Drop for EnforcementPool {
    fn drop(&mut self) {
        for handle in &self.shards {
            let _ = handle.tx.send(ShardMsg::Shutdown);
        }
        for handle in &mut self.shards {
            if let Some(thread) = handle.thread.take() {
                let _ = thread.join();
            }
        }
    }
}
