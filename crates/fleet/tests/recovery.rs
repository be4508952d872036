//! Worker-failure regression tests: a killed shard worker must surface
//! as a `PoolError`, never hang a waiter; the supervisor must revive
//! the worker within its restart budget; and crash-surviving (sticky)
//! tenant state must carry across the respawn.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sedspec::pipeline::{train_script, TrainingConfig};
use sedspec_devices::{build_device, DeviceKind, QemuVersion};
use sedspec_fleet::pool::{EnforcementPool, PoolError, RecoveryConfig, TenantConfig, TenantId};
use sedspec_fleet::registry::SpecRegistry;
use sedspec_fleet::{FaultAction, FaultKind, FaultPoint, FaultSite};
use sedspec_vmm::VmContext;
use sedspec_workloads::attacks::{poc, Cve};
use sedspec_workloads::generators::training_suite;

const SUITE_SEED: u64 = 11;

fn publish_channel(registry: &SpecRegistry, kind: DeviceKind, version: QemuVersion) {
    let mut device = build_device(kind, version);
    let mut ctx = VmContext::new(0x100000, 4096);
    let suite = training_suite(kind, 4, SUITE_SEED);
    let spec = train_script(&mut device, &mut ctx, &suite, &TrainingConfig::default()).unwrap();
    registry.publish(kind, version, spec).expect("benign spec passes the publish gate");
}

fn benign_batch(kind: DeviceKind, n: usize) -> Vec<sedspec::collect::TrainStep> {
    let suite = training_suite(kind, 4, SUITE_SEED);
    suite[n % suite.len()].clone()
}

/// Panics the worker on selected submits of one tenant (by 0-based
/// submit index), or on every submit when `every` is set.
#[derive(Debug)]
struct PanicOn {
    tenant: u64,
    at: Vec<u64>,
    every: bool,
    seen: AtomicU64,
}

impl PanicOn {
    fn nth(tenant: u64, at: u64) -> Self {
        Self::at(tenant, &[at])
    }

    fn at(tenant: u64, at: &[u64]) -> Self {
        PanicOn { tenant, at: at.to_vec(), every: false, seen: AtomicU64::new(0) }
    }

    fn every(tenant: u64) -> Self {
        PanicOn { tenant, at: Vec::new(), every: true, seen: AtomicU64::new(0) }
    }
}

impl FaultPoint for PanicOn {
    fn check(&self, site: &FaultSite) -> FaultAction {
        if site.kind == FaultKind::WorkerPanic && site.tenant == Some(self.tenant) {
            let n = self.seen.fetch_add(1, Ordering::Relaxed);
            if self.every || self.at.contains(&n) {
                return FaultAction::Panic;
            }
        }
        FaultAction::Proceed
    }
}

/// Stalls every obs-sink event at the cap, to force slow batches.
#[derive(Debug)]
struct StallSinks;

impl FaultPoint for StallSinks {
    fn check(&self, site: &FaultSite) -> FaultAction {
        if site.kind == FaultKind::ObsSinkStall {
            FaultAction::Stall(sedspec_fleet::fault::MAX_STALL_MS)
        } else {
            FaultAction::Proceed
        }
    }
}

#[test]
fn killed_worker_errors_the_waiter_instead_of_hanging() {
    let registry = Arc::new(SpecRegistry::new());
    publish_channel(&registry, DeviceKind::Fdc, QemuVersion::Patched);
    let mut pool =
        EnforcementPool::new(1, Arc::clone(&registry)).with_faults(Arc::new(PanicOn::nth(0, 1)));
    pool.add_tenant(
        TenantConfig::new(0).with_devices(vec![(DeviceKind::Fdc, QemuVersion::Patched)]),
    )
    .unwrap();

    // First batch is served; the second panics the worker mid-service.
    let ticket = pool.submit_steps(TenantId(0), benign_batch(DeviceKind::Fdc, 0)).unwrap();
    assert!(!pool.wait(ticket).unwrap().rejected);
    let ticket = pool.submit_steps(TenantId(0), benign_batch(DeviceKind::Fdc, 1)).unwrap();
    // The reply channel disconnects with the dying worker: an error,
    // not a block — this call returning at all is the regression test.
    assert_eq!(pool.wait(ticket), Err(PoolError::ShardDown(0)));
    assert!(!pool.shard_alive(0));

    // The registry survived the worker panic: no poisoned lock, the
    // channel still serves fetches.
    assert!(registry.current_compiled(DeviceKind::Fdc, QemuVersion::Patched).is_some());
}

#[test]
fn supervisor_revives_the_worker_and_rehosts_its_tenants() {
    let registry = Arc::new(SpecRegistry::new());
    publish_channel(&registry, DeviceKind::Fdc, QemuVersion::Patched);
    let mut pool = EnforcementPool::new(1, Arc::clone(&registry))
        .with_faults(Arc::new(PanicOn::nth(0, 0)))
        .with_recovery(RecoveryConfig {
            backoff_base_ms: 0,
            backoff_cap_ms: 0,
            ..RecoveryConfig::default()
        });
    for t in 0..2u64 {
        pool.add_tenant(
            TenantConfig::new(t).with_devices(vec![(DeviceKind::Fdc, QemuVersion::Patched)]),
        )
        .unwrap();
    }

    // Tenant 0's first submit kills the worker; the bounded retry
    // revives it and the batch completes on the respawned worker.
    let (report, attempts) =
        pool.run_batch_reliable(TenantId(0), &benign_batch(DeviceKind::Fdc, 0)).unwrap();
    assert!(!report.rejected && !report.quarantined);
    assert_eq!(attempts, 1, "one retry absorbs the crash");
    assert_eq!(pool.restart_counts(), &[1]);
    assert!(pool.shard_alive(0));

    // The shard-mate was re-hosted too and serves without a retry.
    let (report, attempts) =
        pool.run_batch_reliable(TenantId(1), &benign_batch(DeviceKind::Fdc, 0)).unwrap();
    assert!(!report.rejected);
    assert_eq!(attempts, 0);
    assert_eq!(pool.report().tenant_count(), 2);
}

#[test]
fn sticky_quarantine_survives_a_worker_restart() {
    let registry = Arc::new(SpecRegistry::new());
    publish_channel(&registry, DeviceKind::Fdc, QemuVersion::V2_3_0);
    // Tenant 1's second submit panics the worker *after* tenant 0 has
    // been quarantined, wiping the shard's in-memory state; its fourth
    // panics it again after tenant 0 has been released.
    let mut pool = EnforcementPool::new(1, Arc::clone(&registry))
        .with_faults(Arc::new(PanicOn::at(1, &[1, 3])))
        .with_recovery(RecoveryConfig {
            backoff_base_ms: 0,
            backoff_cap_ms: 0,
            ..RecoveryConfig::default()
        });
    for t in 0..2u64 {
        pool.add_tenant(
            TenantConfig::new(t).with_devices(vec![(DeviceKind::Fdc, QemuVersion::V2_3_0)]),
        )
        .unwrap();
    }

    // Quarantine tenant 0 the honest way: Venom past the rollback
    // budget.
    let venom = poc(Cve::Cve2015_3456);
    for _ in 0..2 {
        let (report, _) = pool.run_batch_reliable(TenantId(0), &venom.steps).unwrap();
        assert!(report.flagged > 0 || report.quarantined);
    }
    let (report, _) =
        pool.run_batch_reliable(TenantId(1), &benign_batch(DeviceKind::Fdc, 0)).unwrap();
    assert!(!report.rejected);

    // Crash the worker (tenant 1's second submit) and recover.
    let (report, attempts) =
        pool.run_batch_reliable(TenantId(1), &benign_batch(DeviceKind::Fdc, 1)).unwrap();
    assert_eq!(attempts, 1);
    assert!(!report.rejected, "benign shard-mate serves after the respawn");
    assert_eq!(pool.restart_counts(), &[1]);

    // Quarantine must not be laundered by the crash: the re-hosted
    // tenant 0 is still refused.
    let (report, _) =
        pool.run_batch_reliable(TenantId(0), &benign_batch(DeviceKind::Fdc, 0)).unwrap();
    assert!(report.rejected && report.quarantined, "sticky quarantine survives the restart");
    assert_eq!(pool.report().quarantined_count(), 1);

    // A release is as sticky as the quarantine it lifts: after the next
    // crash tenant 0 is re-hosted released, with its budget restored.
    assert!(pool.set_quarantine(TenantId(0), false).unwrap(), "tenant 0 was quarantined");
    let (report, attempts) =
        pool.run_batch_reliable(TenantId(1), &benign_batch(DeviceKind::Fdc, 2)).unwrap();
    assert_eq!(attempts, 1);
    assert!(!report.rejected);
    assert_eq!(pool.restart_counts(), &[2]);
    let status = |pool: &EnforcementPool| {
        pool.report().tenants().into_iter().find(|s| s.tenant == TenantId(0)).cloned().unwrap()
    };
    let released = status(&pool);
    assert!(!released.quarantined && released.rollbacks == 0, "release lost: {released:?}");
    let (report, _) =
        pool.run_batch_reliable(TenantId(0), &benign_batch(DeviceKind::Fdc, 0)).unwrap();
    assert!(!report.rejected && !report.quarantined, "released tenant refused: {report:?}");
    assert_eq!(status(&pool).rollbacks, 0);
}

#[test]
fn restart_budget_exhausts_to_shard_down() {
    let registry = Arc::new(SpecRegistry::new());
    publish_channel(&registry, DeviceKind::Fdc, QemuVersion::Patched);
    let mut pool = EnforcementPool::new(1, Arc::clone(&registry))
        .with_faults(Arc::new(PanicOn::every(0)))
        .with_recovery(RecoveryConfig {
            max_restarts_per_shard: 2,
            backoff_base_ms: 0,
            backoff_cap_ms: 0,
            submit_retries: 5,
            ..RecoveryConfig::default()
        });
    pool.add_tenant(
        TenantConfig::new(0).with_devices(vec![(DeviceKind::Fdc, QemuVersion::Patched)]),
    )
    .unwrap();

    let err = pool.run_batch_reliable(TenantId(0), &benign_batch(DeviceKind::Fdc, 0)).unwrap_err();
    assert_eq!(err, PoolError::ShardDown(0), "a crash loop must exhaust to ShardDown, not spin");
    assert_eq!(pool.restart_counts(), &[2], "exactly the budgeted respawns were attempted");
}

#[test]
fn zero_pending_budget_rejects_with_saturated() {
    let registry = Arc::new(SpecRegistry::new());
    publish_channel(&registry, DeviceKind::Fdc, QemuVersion::Patched);
    let mut pool = EnforcementPool::new(1, Arc::clone(&registry))
        .with_recovery(RecoveryConfig { max_pending_per_shard: 0, ..RecoveryConfig::default() });
    pool.add_tenant(
        TenantConfig::new(0).with_devices(vec![(DeviceKind::Fdc, QemuVersion::Patched)]),
    )
    .unwrap();
    let err = pool.submit_steps(TenantId(0), benign_batch(DeviceKind::Fdc, 0)).unwrap_err();
    assert_eq!(err, PoolError::Saturated(0));
}

#[test]
fn stalled_batch_times_out_instead_of_blocking() {
    use sedspec_obs::ObsHub;

    let registry = Arc::new(SpecRegistry::new());
    publish_channel(&registry, DeviceKind::Fdc, QemuVersion::Patched);
    let hub = Arc::new(ObsHub::new());
    // Every tenant-sink event stalls at the cap; the wait budget is far
    // below one stall, so the waiter must time out while the worker is
    // still grinding.
    let mut pool = EnforcementPool::with_obs(1, Arc::clone(&registry), &hub)
        .with_faults(Arc::new(StallSinks))
        .with_recovery(RecoveryConfig { batch_timeout_ms: Some(10), ..RecoveryConfig::default() });
    pool.add_tenant(
        TenantConfig::new(0).with_devices(vec![(DeviceKind::Fdc, QemuVersion::Patched)]),
    )
    .unwrap();
    let one_round = vec![benign_batch(DeviceKind::Fdc, 0).into_iter().next().unwrap()];
    let ticket = pool.submit_steps(TenantId(0), one_round).unwrap();
    assert_eq!(pool.wait(ticket), Err(PoolError::BatchTimeout(TenantId(0))));
}

#[test]
fn oversized_tenant_configs_are_refused_typed_before_the_shard() {
    // No devices, so no specification is needed: only the sizes matter.
    let pool = EnforcementPool::new(1, Arc::new(SpecRegistry::new()));
    let bare = |id: u64| TenantConfig::new(id).with_devices(vec![]);
    let huge_mem = TenantConfig { mem_size: usize::MAX, ..bare(0) };
    let huge_disk = TenantConfig { disk_sectors: usize::MAX / 256, ..bare(0) };
    let past_cap = TenantConfig { mem_size: TenantConfig::MAX_MEM_SIZE + 1, ..bare(0) };
    for (cfg, what, cap) in [
        (huge_mem, "mem_size", TenantConfig::MAX_MEM_SIZE),
        (huge_disk, "disk_sectors", TenantConfig::MAX_DISK_SECTORS),
        (past_cap, "mem_size", TenantConfig::MAX_MEM_SIZE),
    ] {
        assert_eq!(
            pool.add_tenant(cfg),
            Err(PoolError::TooLarge { tenant: TenantId(0), what, cap })
        );
    }
    assert!(pool.shard_alive(0), "a refused config must never reach, let alone kill, the shard");
    assert_eq!(pool.restart_counts(), &[0]);
    // The caps themselves are accepted, and the refused id is still free.
    let at_caps = TenantConfig {
        mem_size: TenantConfig::MAX_MEM_SIZE,
        disk_sectors: TenantConfig::MAX_DISK_SECTORS,
        ..bare(0)
    };
    pool.add_tenant(at_caps).unwrap();
    assert!(pool.shard_alive(0));
}
