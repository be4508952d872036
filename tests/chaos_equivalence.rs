//! Differential proof that the fault seam is inert when no fault
//! fires: an `EnforcementPool` with a zero-rule `FaultPlan` attached
//! must be verdict-, stats-, alert- and telemetry-identical to a plain
//! pool over random tenant/device/mode batches — including a registry
//! hot-swap and a CVE attack stream mid-run.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use sedspec::checker::WorkingMode;
use sedspec::collect::TrainStep;
use sedspec::pipeline::{train_script, TrainingConfig};
use sedspec::spec::ExecutionSpecification;
use sedspec_repro::chaos::{FaultInjector, FaultPlan};
use sedspec_repro::devices::{build_device, DeviceKind, QemuVersion};
use sedspec_repro::fleet::pool::{BatchReport, EnforcementPool, TenantConfig, TenantId};
use sedspec_repro::fleet::registry::SpecRegistry;
use sedspec_repro::fleet::{AlertEvent, FaultPoint, FleetReport};
use sedspec_repro::vmm::VmContext;
use sedspec_repro::workloads::attacks::{poc, Cve};
use sedspec_repro::workloads::generators::training_suite;
use sedspec_repro::workloads::splitmix64;

const SUITE_SEED: u64 = 11;
const CASES: usize = 4;

/// Trained specs are the slow part; train each channel once per
/// process and publish clones into fresh registries per scenario.
fn cached_specs() -> &'static [(DeviceKind, QemuVersion, usize, ExecutionSpecification)] {
    static SPECS: OnceLock<Vec<(DeviceKind, QemuVersion, usize, ExecutionSpecification)>> =
        OnceLock::new();
    SPECS.get_or_init(|| {
        let channels = [
            (DeviceKind::Fdc, QemuVersion::Patched, CASES),
            (DeviceKind::Fdc, QemuVersion::Patched, CASES + 2), // hot-swap target
            (DeviceKind::Fdc, QemuVersion::V2_3_0, CASES),
            (DeviceKind::Sdhci, QemuVersion::Patched, CASES),
        ];
        channels
            .into_iter()
            .map(|(kind, version, cases)| {
                let mut device = build_device(kind, version);
                let mut ctx = VmContext::new(0x100000, 4096);
                let suite = training_suite(kind, cases, SUITE_SEED);
                let spec = train_script(&mut device, &mut ctx, &suite, &TrainingConfig::default())
                    .expect("benign suite trains");
                (kind, version, cases, spec)
            })
            .collect()
    })
}

fn publish(registry: &SpecRegistry, kind: DeviceKind, version: QemuVersion, cases: usize) {
    let spec = cached_specs()
        .iter()
        .find(|(k, v, c, _)| *k == kind && *v == version && *c == cases)
        .map(|(_, _, _, s)| s.clone())
        .expect("channel is cached");
    registry.publish(kind, version, spec).expect("benign spec passes the publish gate");
}

/// Scenario derived from `seed`: tenant count, per-tenant device sets
/// and modes, whether a hot-swap happens, and which tenant (if any)
/// runs a Venom PoC on the last round.
struct Scenario {
    tenants: u64,
    shards: usize,
    batches: usize,
    hotswap: bool,
    attacker: Option<u64>,
}

impl Scenario {
    fn derive(seed: u64) -> Self {
        let tenants = 2 + splitmix64(seed) % 3; // 2..=4
        Scenario {
            tenants,
            shards: 1 + (splitmix64(seed ^ 1) % 3) as usize, // 1..=3
            batches: 2 + (splitmix64(seed ^ 2) % 2) as usize, // 2..=3
            hotswap: splitmix64(seed ^ 3).is_multiple_of(2),
            attacker: splitmix64(seed ^ 4)
                .is_multiple_of(2)
                .then(|| splitmix64(seed ^ 5) % tenants),
        }
    }

    fn devices_for(&self, tenant: u64, seed: u64) -> Vec<(DeviceKind, QemuVersion)> {
        if self.attacker == Some(tenant) {
            return vec![(DeviceKind::Fdc, QemuVersion::V2_3_0)];
        }
        if splitmix64(seed ^ tenant.rotate_left(17)).is_multiple_of(2) {
            vec![(DeviceKind::Fdc, QemuVersion::Patched), (DeviceKind::Sdhci, QemuVersion::Patched)]
        } else {
            vec![(DeviceKind::Fdc, QemuVersion::Patched)]
        }
    }

    fn mode_for(tenant: u64, seed: u64) -> WorkingMode {
        if splitmix64(seed ^ tenant.rotate_left(29)).is_multiple_of(2) {
            WorkingMode::Protection
        } else {
            WorkingMode::Enhancement
        }
    }

    fn steps_for(&self, tenant: u64, round: usize) -> Vec<TrainStep> {
        if self.attacker == Some(tenant) && round + 1 == self.batches {
            return poc(Cve::Cve2015_3456).steps;
        }
        let mut steps = Vec::new();
        for (kind, _) in self.devices_for(tenant, 0xD1CE) {
            let suite = training_suite(kind, CASES, SUITE_SEED);
            steps.extend(suite[(tenant as usize + round) % suite.len()].clone());
        }
        steps
    }
}

/// Runs the scenario on a pool, optionally with the inert fault seam
/// attached, and returns everything observable.
fn run_pool(seed: u64, with_seam: bool) -> (Vec<BatchReport>, Vec<AlertEvent>, FleetReport) {
    let scenario = Scenario::derive(seed);
    let registry = Arc::new(SpecRegistry::new());
    publish(&registry, DeviceKind::Fdc, QemuVersion::Patched, CASES);
    publish(&registry, DeviceKind::Fdc, QemuVersion::V2_3_0, CASES);
    publish(&registry, DeviceKind::Sdhci, QemuVersion::Patched, CASES);

    let mut pool = EnforcementPool::new(scenario.shards, Arc::clone(&registry));
    if with_seam {
        let injector: Arc<dyn FaultPoint> = Arc::new(FaultInjector::new(FaultPlan::empty(seed)));
        pool = pool.with_faults(injector);
    }
    for t in 0..scenario.tenants {
        let cfg = TenantConfig::new(t)
            .with_devices(scenario.devices_for(t, 0xD1CE))
            .with_mode(Scenario::mode_for(t, 0xD1CE));
        pool.add_tenant(cfg).expect("tenant admits");
    }

    let mut reports = Vec::new();
    for round in 0..scenario.batches {
        if scenario.hotswap && round == 1 {
            publish(&registry, DeviceKind::Fdc, QemuVersion::Patched, CASES + 2);
        }
        // Serialized submit/wait keeps alert ordering deterministic so
        // the two runs are comparable event-for-event.
        for t in 0..scenario.tenants {
            let ticket = pool.submit_steps(TenantId(t), scenario.steps_for(t, round)).unwrap();
            reports.push(pool.wait(ticket).unwrap());
        }
    }
    let alerts = pool.drain_alerts();
    let fleet = pool.report();
    (reports, alerts, fleet)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn fault_free_plan_is_observationally_inert(seed in 0u64..5000) {
        let (plain_reports, plain_alerts, plain_fleet) = run_pool(seed, false);
        let (seam_reports, seam_alerts, seam_fleet) = run_pool(seed, true);
        prop_assert_eq!(
            &plain_reports,
            &seam_reports,
            "batch verdicts/stats must not change under an inert seam"
        );
        prop_assert_eq!(
            &plain_alerts,
            &seam_alerts,
            "the alert stream must not change under an inert seam"
        );
        prop_assert_eq!(
            plain_fleet,
            seam_fleet,
            "fleet telemetry must not change under an inert seam"
        );
        // Sanity: scenarios with an attacker really do exercise the
        // interesting paths.
        if Scenario::derive(seed).attacker.is_some() {
            prop_assert!(
                plain_reports.iter().any(|r| r.flagged > 0 || r.quarantined),
                "the scripted PoC must be detected in both runs"
            );
        }
    }
}
