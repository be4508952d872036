//! Seeded inputs: the benign stream, the trained specifications, the
//! tenants, and each workload's operation list.
//!
//! Everything here is a pure function of the seed. The benign stream is
//! `training_suite(kind, CASES, seed)` for all five devices, case by
//! case, and the specifications are trained on that same suite, so a
//! patched tenant replaying it from boot is false-positive-free by
//! construction.

use std::sync::Arc;
use std::time::Instant;

use sedspec::collect::TrainStep;
use sedspec::pipeline::{train_script, TrainingConfig};
use sedspec::spec::ExecutionSpecification;
use sedspec_devices::{build_device, Device, DeviceKind, QemuVersion};
use sedspec_fleet::pool::{BatchReport, TenantConfig};
use sedspec_vmm::VmContext;
use sedspec_workloads::attacks::{poc, Cve};
use sedspec_workloads::generators::training_suite;

/// Training cases per device.
pub const CASES: usize = 48;
/// Steps per SubmitBatch on `bulk`.
pub const BULK_STEPS: usize = 256;
/// Steps per SubmitBatch on `interactive` and for containment's benign
/// follow-up request.
pub const INTERACTIVE_STEPS: usize = 8;
/// Load clients on `bulk` and `interactive` (the host has two cores).
pub const CLIENTS: usize = 2;
/// Passes over the stream a load client may make. A stream replays
/// cleanly only from device boot state, so each pass runs on a fresh
/// tenant hosted at set-up; a client that runs out of passes before
/// its window closes fails the run.
pub const PASSES: usize = 16;
/// The patched tenant that takes containment's benign requests.
pub const BENIGN_TENANT: u64 = 3;
/// First PoC tenant; PoC `i` of Table III runs on `POC_TENANT_BASE + i`.
pub const POC_TENANT_BASE: u64 = 10;

/// The tenant load client `client` uses on its `pass`-th pass. Client
/// `c` always lands on shard `c` of the daemon's two.
pub fn load_tenant(client: usize, pass: usize) -> u64 {
    (100 + pass * CLIENTS + client) as u64
}

/// Which traffic mix a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two clients, 256-step benign batches.
    Bulk,
    /// Two clients, 8-step benign batches (same rounds as `bulk`).
    Interactive,
    /// One client cycling the eight PoCs, each followed by a release
    /// and one 8-step benign batch.
    Containment,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "bulk" => Some(Workload::Bulk),
            "interactive" => Some(Workload::Interactive),
            "containment" => Some(Workload::Containment),
            _ => None,
        }
    }
}

/// What a correct daemon answers to an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// A benign batch: exactly this many rounds, none flagged, tenant
    /// neither rejected nor quarantined, no rollback.
    Clean {
        /// I/O steps routed to one of the tenant's devices.
        rounds: u64,
    },
    /// A PoC: the tenant ends quarantined. With the fleet's rollback
    /// budget of one, a PoC whose first halt is absorbed by a rollback
    /// is submitted once more; that submission must quarantine.
    Quarantined,
    /// An operator release of a quarantined tenant.
    Released,
}

/// One client operation.
#[derive(Debug, Clone)]
pub enum Op {
    /// `SubmitBatch` of `steps` on `tenant`.
    Submit {
        /// Target tenant.
        tenant: u64,
        /// The batch (shared between passes).
        steps: Arc<[TrainStep]>,
        /// The correct answer.
        expect: Expect,
    },
    /// Operator `Release` of `tenant`.
    Release {
        /// Target tenant.
        tenant: u64,
    },
}

impl Op {
    /// The correct answer.
    pub fn expect(&self) -> Expect {
        match self {
            Op::Submit { expect, .. } => *expect,
            Op::Release { .. } => Expect::Released,
        }
    }
}

/// Whether a PoC answer calls for the PoC to be submitted again: the
/// halt was absorbed by the tenant's one rollback.
pub fn resubmit(r: &BatchReport) -> bool {
    !r.quarantined && !r.rejected && r.flagged > 0 && r.rollbacks == 1
}

/// The channels every run publishes: the five patched devices, then
/// each distinct vulnerable `(device, version)` a Table III PoC needs.
pub fn channels() -> Vec<(DeviceKind, QemuVersion)> {
    let mut channels: Vec<(DeviceKind, QemuVersion)> =
        DeviceKind::all().into_iter().map(|k| (k, QemuVersion::Patched)).collect();
    for cve in Cve::all() {
        let p = poc(cve);
        if !channels.contains(&(p.device, p.qemu_version)) {
            channels.push((p.device, p.qemu_version));
        }
    }
    channels
}

/// Every tenant a run hosts: the load tenants, the containment benign
/// tenant, and one tenant per PoC whose PoC device runs the vulnerable
/// version. All run in protection mode with the fleet defaults (four
/// snapshots, one rollback before quarantine).
pub fn tenants() -> Vec<TenantConfig> {
    let mut out = Vec::new();
    for pass in 0..PASSES {
        for client in 0..CLIENTS {
            out.push(TenantConfig::new(load_tenant(client, pass)));
        }
    }
    out.push(TenantConfig::new(BENIGN_TENANT));
    for (i, cve) in Cve::all().into_iter().enumerate() {
        let p = poc(cve);
        let devices = DeviceKind::all()
            .into_iter()
            .map(|k| (k, if k == p.device { p.qemu_version } else { QemuVersion::Patched }))
            .collect();
        out.push(TenantConfig::new(POC_TENANT_BASE + i as u64).with_devices(devices));
    }
    out
}

/// One trained channel, with its training wall time.
pub struct TrainedSpec {
    /// Channel device.
    pub device: DeviceKind,
    /// Channel version.
    pub version: QemuVersion,
    /// The shipping JSON.
    pub json: String,
    /// Wall time of `train_script`, in seconds.
    pub train_s: f64,
}

/// The seed's benign suites, per device in `DeviceKind::all()` order.
pub fn suites(seed: u64) -> Vec<Vec<Vec<TrainStep>>> {
    DeviceKind::all().into_iter().map(|k| training_suite(k, CASES, seed)).collect()
}

/// Trains every channel on its device's suite.
pub fn train_all(suites: &[Vec<Vec<TrainStep>>]) -> Vec<TrainedSpec> {
    channels()
        .into_iter()
        .map(|(device, version)| {
            let idx = DeviceKind::all().iter().position(|k| *k == device).expect("known device");
            let start = Instant::now();
            let spec = train(device, version, &suites[idx]);
            let train_s = start.elapsed().as_secs_f64();
            TrainedSpec { device, version, json: spec.to_json(), train_s }
        })
        .collect()
}

fn train(
    device: DeviceKind,
    version: QemuVersion,
    suite: &[Vec<TrainStep>],
) -> ExecutionSpecification {
    let mut target = build_device(device, version);
    let mut ctx = VmContext::new(0x200000, 8192);
    train_script(&mut target, &mut ctx, suite, &TrainingConfig::default())
        .expect("a benign suite always reaches the device")
}

/// The benign stream: case `i` of every device, then case `i + 1`.
pub fn benign_stream(suites: &[Vec<Vec<TrainStep>>]) -> Vec<TrainStep> {
    let mut stream = Vec::new();
    for case in 0..CASES {
        for suite in suites {
            stream.extend(suite[case].iter().cloned());
        }
    }
    stream
}

/// The benign stream cut into `size`-step batches, each with the
/// number of I/O steps some patched device claims (its round count).
pub fn benign_batches(stream: &[TrainStep], size: usize) -> Vec<(Arc<[TrainStep]>, u64)> {
    let devices: Vec<Device> =
        DeviceKind::all().into_iter().map(|k| build_device(k, QemuVersion::Patched)).collect();
    stream
        .chunks(size)
        .map(|chunk| {
            let rounds = chunk
                .iter()
                .filter(|s| match s {
                    TrainStep::Io(req) => devices.iter().any(|d| d.route(req).is_some()),
                    _ => false,
                })
                .count() as u64;
            (Arc::from(chunk), rounds)
        })
        .collect()
}

/// Load client `client`'s operations: every batch on its first pass
/// tenant, then every batch again on its next, for `PASSES` passes.
pub fn load_ops(batches: &[(Arc<[TrainStep]>, u64)], client: usize) -> Vec<Op> {
    (0..PASSES)
        .flat_map(|pass| {
            batches.iter().map(move |(steps, rounds)| Op::Submit {
                tenant: load_tenant(client, pass),
                steps: Arc::clone(steps),
                expect: Expect::Clean { rounds: *rounds },
            })
        })
        .collect()
}

/// Operations per containment cycle: PoC, release, benign batch, for
/// each of the eight PoCs.
pub const CONTAIN_OPS_PER_CYCLE: usize = 3 * 8;

/// Containment cycles until the benign stream runs out. Each cycle
/// sends PoC `i` to its vulnerable tenant, releases that tenant, then
/// sends the next 8-step slice of the benign stream to the patched
/// tenant, for each of the eight PoCs in Table III order.
pub fn containment_ops(stream: &[TrainStep]) -> Vec<Op> {
    let pocs: Vec<Arc<[TrainStep]>> = Cve::all().into_iter().map(|c| poc(c).steps.into()).collect();
    let mut benign = benign_batches(stream, INTERACTIVE_STEPS).into_iter();
    let mut ops = Vec::new();
    loop {
        for (i, steps) in pocs.iter().enumerate() {
            let Some((next, rounds)) = benign.next() else { return ops };
            let tenant = POC_TENANT_BASE + i as u64;
            ops.push(Op::Submit { tenant, steps: Arc::clone(steps), expect: Expect::Quarantined });
            ops.push(Op::Release { tenant });
            ops.push(Op::Submit {
                tenant: BENIGN_TENANT,
                steps: next,
                expect: Expect::Clean { rounds },
            });
        }
    }
}
