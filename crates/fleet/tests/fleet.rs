//! Fleet runtime integration tests: shard-count determinism, tenant
//! quarantine isolation, and registry hot-swap.

use std::sync::Arc;

use sedspec::enforce::EnforceStats;
use sedspec::pipeline::{train_script, TrainingConfig};
use sedspec::response::AlertLevel;
use sedspec_devices::{build_device, DeviceKind, QemuVersion};
use sedspec_fleet::pool::{EnforcementPool, TenantConfig, TenantId};
use sedspec_fleet::registry::SpecRegistry;
use sedspec_fleet::{FaultAction, FaultKind, FaultPoint, FaultSite};
use sedspec_vmm::VmContext;
use sedspec_workloads::attacks::{poc, Cve};
use sedspec_workloads::generators::training_suite;

const SUITE_SEED: u64 = 11;

/// Trains and publishes a spec for one channel from `cases` benign cases.
fn publish_channel(registry: &SpecRegistry, kind: DeviceKind, version: QemuVersion, cases: usize) {
    let mut device = build_device(kind, version);
    let mut ctx = VmContext::new(0x100000, 4096);
    let suite = training_suite(kind, cases, SUITE_SEED);
    let spec = train_script(&mut device, &mut ctx, &suite, &TrainingConfig::default()).unwrap();
    registry.publish(kind, version, spec).expect("benign spec passes the publish gate");
}

/// Per-tenant benign traffic: cases replayed from the training suite,
/// rotated by tenant id so tenants exercise different cases.
fn benign_batch(kind: DeviceKind, tenant: u64, batch: usize) -> Vec<sedspec::collect::TrainStep> {
    let suite = training_suite(kind, 6, SUITE_SEED);
    suite[(tenant as usize + batch) % suite.len()].clone()
}

#[test]
fn verdicts_and_stats_do_not_depend_on_shard_count() {
    let registry = Arc::new(SpecRegistry::new());
    for kind in [DeviceKind::Fdc, DeviceKind::Sdhci, DeviceKind::Scsi] {
        publish_channel(&registry, kind, QemuVersion::Patched, 6);
    }

    let run = |shards: usize| {
        let mut pool = EnforcementPool::new(shards, Arc::clone(&registry));
        for t in 0..6u64 {
            let cfg = TenantConfig::new(t).with_devices(vec![
                (DeviceKind::Fdc, QemuVersion::Patched),
                (DeviceKind::Sdhci, QemuVersion::Patched),
                (DeviceKind::Scsi, QemuVersion::Patched),
            ]);
            pool.add_tenant(cfg).unwrap();
        }
        let mut per_tenant: Vec<(u64, u64, EnforceStats)> = Vec::new();
        for batch in 0..3 {
            let mut tickets = Vec::new();
            for t in 0..6u64 {
                let mut steps = Vec::new();
                for kind in [DeviceKind::Fdc, DeviceKind::Sdhci, DeviceKind::Scsi] {
                    steps.extend(benign_batch(kind, t, batch));
                }
                tickets.push(pool.submit_steps(TenantId(t), steps).unwrap());
            }
            for ticket in tickets {
                let r = pool.wait(ticket).unwrap();
                assert!(!r.rejected);
                per_tenant.push((r.tenant.0, r.flagged, r.stats));
            }
        }
        per_tenant.sort_by_key(|&(t, _, _)| t);
        let report = pool.report();
        (per_tenant, report)
    };

    let (seq_results, seq_report) = run(1);
    let (par_results, par_report) = run(4);

    assert_eq!(seq_results, par_results, "per-batch verdicts must not depend on shard count");
    assert_eq!(
        seq_report.aggregate(),
        par_report.aggregate(),
        "fleet aggregate must not depend on shard count"
    );

    // The aggregate is exactly the sum of per-tenant stats.
    let mut summed = EnforceStats::default();
    for t in par_report.tenants() {
        summed.merge(&t.stats);
    }
    assert_eq!(par_report.aggregate(), summed);
    assert_eq!(par_report.tenant_count(), 6);
    // 6 tenants over 4 shards: deterministic modulo placement.
    assert_eq!(par_report.shards.len(), 4);
    assert_eq!(par_report.shards[0].tenants.len(), 2); // tenants 0, 4
    assert_eq!(par_report.shards[1].tenants.len(), 2); // tenants 1, 5
}

#[test]
fn cve_tenant_is_quarantined_while_siblings_keep_serving() {
    let registry = Arc::new(SpecRegistry::new());
    // Venom targets the 2.3.0 FDC; train that channel on benign traffic.
    publish_channel(&registry, DeviceKind::Fdc, QemuVersion::V2_3_0, 6);

    let mut pool = EnforcementPool::new(2, Arc::clone(&registry));
    for t in 0..3u64 {
        let cfg = TenantConfig::new(t).with_devices(vec![(DeviceKind::Fdc, QemuVersion::V2_3_0)]);
        pool.add_tenant(cfg).unwrap();
    }

    // Warm every tenant with one benign batch.
    for t in 0..3u64 {
        let ticket = pool.submit_steps(TenantId(t), benign_batch(DeviceKind::Fdc, t, 0)).unwrap();
        let r = pool.wait(ticket).unwrap();
        assert_eq!(r.flagged, 0, "benign warm-up must not flag");
    }

    // Tenant 1 is compromised: the Venom PoC grinds the FIFO. The halt
    // consumes the rollback budget, the next halt quarantines.
    let venom = poc(Cve::Cve2015_3456);
    let ticket = pool.submit_steps(TenantId(1), venom.steps.clone()).unwrap();
    let r = pool.wait(ticket).unwrap();
    assert!(r.flagged > 0, "the PoC must be detected");
    let ticket = pool.submit_steps(TenantId(1), venom.steps).unwrap();
    let r = pool.wait(ticket).unwrap();
    assert!(r.quarantined, "repeat attack past the rollback budget quarantines");

    // The attacked tenant is refused further service...
    let ticket = pool.submit_steps(TenantId(1), benign_batch(DeviceKind::Fdc, 1, 1)).unwrap();
    let r = pool.wait(ticket).unwrap();
    assert!(r.rejected && r.quarantined);
    assert_eq!(r.rounds, 0);

    // ...while its siblings — including tenant 1's shard-mate — serve on.
    for t in [0u64, 2] {
        let ticket = pool.submit_steps(TenantId(t), benign_batch(DeviceKind::Fdc, t, 1)).unwrap();
        let r = pool.wait(ticket).unwrap();
        assert!(!r.rejected && !r.quarantined && r.flagged == 0, "tenant {t} must stay healthy");
    }

    // Telemetry: exactly one quarantined tenant, and the alert stream
    // carries critical events for it.
    let report = pool.report();
    assert_eq!(report.quarantined_count(), 1);
    let statuses = report.tenants();
    assert!(statuses.iter().find(|s| s.tenant == TenantId(1)).unwrap().quarantined);
    assert!(!statuses.iter().find(|s| s.tenant == TenantId(0)).unwrap().quarantined);
    let alerts = pool.drain_alerts();
    assert!(alerts.iter().any(|a| a.tenant == TenantId(1)
        && a.device == DeviceKind::Fdc
        && a.level >= Some(AlertLevel::Warning)));
    assert!(alerts.iter().all(|a| a.tenant == TenantId(1)), "no benign tenant raises alerts");
}

#[test]
fn publishing_a_revision_retargets_tenants_at_their_next_batch() {
    let registry = Arc::new(SpecRegistry::new());
    publish_channel(&registry, DeviceKind::Fdc, QemuVersion::Patched, 4);
    let first = registry.current(DeviceKind::Fdc, QemuVersion::Patched).unwrap().0;

    let mut pool = EnforcementPool::new(1, Arc::clone(&registry));
    let cfg = TenantConfig::new(0).with_devices(vec![(DeviceKind::Fdc, QemuVersion::Patched)]);
    pool.add_tenant(cfg).unwrap();

    let ticket = pool.submit_steps(TenantId(0), benign_batch(DeviceKind::Fdc, 0, 0)).unwrap();
    let before = pool.wait(ticket).unwrap();
    assert!(!before.quarantined);
    let status = &pool.report().shards[0].tenants[0];
    assert_eq!(status.specs, vec![first], "tenant starts on the first revision");
    let rounds_before = status.stats.rounds;
    assert!(rounds_before > 0);

    // Publish a broader revision (the 4-case suite is a prefix of the
    // 8-case one, so traffic trained under the old spec stays legal).
    publish_channel(&registry, DeviceKind::Fdc, QemuVersion::Patched, 8);
    let second = registry.current(DeviceKind::Fdc, QemuVersion::Patched).unwrap().0;
    assert_ne!(first.digest, second.digest);

    // The very next batch runs under the new revision.
    let ticket = pool.submit_steps(TenantId(0), benign_batch(DeviceKind::Fdc, 0, 1)).unwrap();
    let after = pool.wait(ticket).unwrap();
    assert!(!after.quarantined && after.flagged == 0, "hot-swap must not disrupt the tenant");
    let status = &pool.report().shards[0].tenants[0];
    assert_eq!(status.specs, vec![second], "tenant retargeted to the published revision");
    // Counters survive the swap: the retired deployment's rounds are
    // folded into the tenant total.
    assert_eq!(status.stats.rounds, rounds_before + after.stats.rounds);
}

/// Fails tenant 2's compiled engine from its second batch on, so the
/// tenant degrades after it has served rounds; every other site
/// proceeds.
#[derive(Debug, Default)]
struct DegradeTenantTwo(std::sync::atomic::AtomicU32);

impl FaultPoint for DegradeTenantTwo {
    fn check(&self, site: &FaultSite) -> FaultAction {
        match (site.kind, site.tenant) {
            (FaultKind::DeviceStepError, Some(2))
                if self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed) > 0 =>
            {
                FaultAction::Fail
            }
            _ => FaultAction::Proceed,
        }
    }
}

#[test]
fn observed_pool_records_lifecycle_alerts_and_forensics() {
    use sedspec_obs::{ObsConfig, ObsHub, TraceEventKind, VerdictKind};

    let registry = Arc::new(SpecRegistry::new());
    publish_channel(&registry, DeviceKind::Fdc, QemuVersion::V2_3_0, 6);

    // A ring large enough to keep the lifecycle events the test asserts.
    let ring_capacity = 1 << 16;
    let hub = Arc::new(ObsHub::with_config(ObsConfig { ring_capacity, ..ObsConfig::default() }));
    let mut pool = EnforcementPool::with_obs(2, Arc::clone(&registry), &hub)
        .with_faults(Arc::new(DegradeTenantTwo::default()));
    for t in 0..3u64 {
        let cfg = TenantConfig::new(t).with_devices(vec![(DeviceKind::Fdc, QemuVersion::V2_3_0)]);
        pool.add_tenant(cfg).unwrap();
    }
    let mut run = |tenant: u64, steps: Vec<sedspec::collect::TrainStep>| {
        let ticket = pool.submit_steps(TenantId(tenant), steps).unwrap();
        pool.wait(ticket).unwrap()
    };

    // Benign traffic on tenants 1 and 2.
    for t in 1..3 {
        run(t, benign_batch(DeviceKind::Fdc, t, 0));
    }

    // Republishing mid-stream emits the publish event (compile is
    // cached from the first publish, so no second compile event) and
    // hot-swaps every tenant at its next batch.
    publish_channel(&registry, DeviceKind::Fdc, QemuVersion::V2_3_0, 6);

    // Drive tenant 0 through rollback into quarantine. Tenant 2
    // degrades at its next batch boundary, so it only warns on the
    // same PoC.
    let venom = poc(Cve::Cve2015_3456);
    for _ in 0..2 {
        run(0, venom.steps.clone());
    }
    run(2, venom.steps.clone());
    for t in 1..3 {
        run(t, benign_batch(DeviceKind::Fdc, t, 1));
    }

    // Alert stream: pool-wide monotonic seq, round indices populated.
    let alerts = pool.drain_alerts();
    assert!(!alerts.is_empty());
    assert!(alerts.windows(2).all(|w| w[0].seq < w[1].seq), "seq must be monotonic");
    assert!(alerts.iter().all(|a| a.seq > 0 && a.round > 0));
    let rendered = sedspec_fleet::FleetReport::render_alerts(&alerts);
    assert!(rendered.contains(&format!("#{} round {}", alerts[0].seq, alerts[0].round)));

    // Trace ring: shard/tenant lifecycle and the hot-swap all recorded.
    let events = hub.recent_events(ring_capacity);
    assert_eq!(hub.dropped_events(), 0);
    let has = |pred: &dyn Fn(&TraceEventKind) -> bool| events.iter().any(|e| pred(&e.kind));
    assert!(has(&|k| matches!(k, TraceEventKind::ShardStarted { .. })));
    assert!(has(&|k| matches!(k, TraceEventKind::TenantAdded { .. })));
    assert!(has(&|k| matches!(k, TraceEventKind::SpecPublished { .. })));
    assert!(has(&|k| matches!(k, TraceEventKind::SpecSwapped { tenant: 0, .. })));
    assert!(has(&|k| matches!(k, TraceEventKind::TenantQuarantined { tenant: 0 })));
    assert!(has(&|k| matches!(k, TraceEventKind::Alert { .. })));

    // Every halt froze a forensic record naming the tenant's device.
    let records = hub.forensics();
    assert!(!records.is_empty(), "halting PoC must leave flight-recorder records");
    assert!(records.iter().all(|r| r.scope.device == "FDC"));
    // Tenant 0 halted; the degraded tenant 2 recorded its warnings.
    for r in &records {
        let halted = r.data.verdict == VerdictKind::Halted;
        assert_eq!(r.scope.tenant, Some(if halted { 0 } else { 2 }));
    }

    // Metrics: the per-tenant alert counter saw tenants 0 and 2 only.
    assert!(hub.metrics().counter("sedspec_alerts_total", Some(("tenant", "0"))) > 0);
    assert!(hub.metrics().counter("sedspec_alerts_total", Some(("tenant", "2"))) > 0);
    assert_eq!(hub.metrics().counter("sedspec_alerts_total", Some(("tenant", "1"))), 0);

    // The exported round counters are the ledger: per-device sums equal
    // the fleet aggregate, tenant series each tenant's status.
    let report = pool.report();
    let fleet = report.aggregate();
    assert!(fleet.halts > 0 && fleet.warnings > 0 && fleet.aborts > 0);
    let m = hub.metrics();
    for (name, field) in [
        ("sedspec_rounds_total", fleet.rounds),
        ("sedspec_halts_total", fleet.halts),
        ("sedspec_warnings_total", fleet.warnings),
        ("sedspec_aborts_total", fleet.aborts),
        ("sedspec_sync_fetch_total", fleet.check_syncs),
    ] {
        assert_eq!(m.sum_counter(name), field, "{name}");
    }
    let tenants = report.tenants();
    assert_eq!(tenants.len(), 3);
    assert!(tenants[0].quarantined && tenants[2].degraded);
    for status in tenants {
        let t = status.tenant.0.to_string();
        let series = |name| m.counter(name, Some(("tenant", t.as_str())));
        assert_eq!(series("sedspec_tenant_rounds_total"), status.stats.rounds, "tenant {t}");
        assert_eq!(series("sedspec_tenant_aborts_total"), status.stats.aborts, "tenant {t}");
    }
}

#[test]
fn enforce_stats_merge_is_field_wise_addition() {
    let a = EnforceStats {
        rounds: 5,
        precheck_complete: 4,
        synced_rounds: 1,
        warnings: 2,
        halts: 1,
        aborts: 2,
        check_blocks: 100,
        check_syncs: 7,
    };
    let b = EnforceStats { rounds: 3, check_blocks: 50, ..EnforceStats::default() };
    let mut m = a;
    m.merge(&b);
    assert_eq!(m.rounds, 8);
    assert_eq!(m.check_blocks, 150);
    assert_eq!(m.precheck_complete, 4);
    assert_eq!(m.aborts, 2);
    // `since` is the inverse: what accrued on top of an earlier reading.
    assert_eq!(m.since(&a), b);
    assert_eq!(m.since(&b), a);
}
