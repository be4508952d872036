//! Sharded multi-tenant enforcement runtime for SEDSpec.
//!
//! The paper deploys one ES-Checker in front of one emulated device.
//! A cloud host runs *fleets*: many tenant VMs, each with several
//! emulated devices, all needing enforcement without sharing fate.
//! This crate scales the single-device pipeline out to that setting:
//!
//! * [`registry::SpecRegistry`] — a content-addressed store of
//!   published execution specifications, keyed by
//!   `(device, QEMU version, digest)`, with atomic hot-swap: publishing
//!   a new revision retargets every tenant at its next batch.
//! * [`pool::EnforcementPool`] — N worker shards over channels, each
//!   owning its tenants' machines of
//!   [`EnforcingDevice`](sedspec::enforce::EnforcingDevice)s.
//!   Placement is deterministic (`tenant id mod N`), batches run in
//!   submission order, and a compromised tenant degrades gracefully —
//!   snapshot rollback first, then quarantine — while its shard keeps
//!   serving the other tenants.
//! * [`telemetry`] — per-shard/per-tenant
//!   [`EnforceStats`](sedspec::enforce::EnforceStats) aggregation, a
//!   live alert stream classified by
//!   [`highest_alert`](sedspec::response::highest_alert), and a
//!   plain-text fleet report.
//! * [`fault`] — the fault-injection seam (`Option<Arc<dyn`
//!   [`FaultPoint`](fault::FaultPoint)`>>`, mirroring the obs seam):
//!   typed fault sites inside the pool, the registry and the sink
//!   path, driven by `sedspec-chaos` plans and costing one predictable
//!   branch when disabled. The pool recovers: supervised worker
//!   restart with capped backoff, bounded submit retry, backpressure
//!   ([`PoolError::Saturated`](pool::PoolError::Saturated)), and
//!   warn-only engine degradation instead of halting benign tenants.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use sedspec::pipeline::{train_script, TrainingConfig};
//! use sedspec_devices::{build_device, DeviceKind, QemuVersion};
//! use sedspec_fleet::pool::{EnforcementPool, TenantConfig, TenantId};
//! use sedspec_fleet::registry::SpecRegistry;
//! use sedspec_vmm::{AddressSpace, IoRequest, VmContext};
//!
//! // Publish a trained spec for the FDC channel.
//! let registry = Arc::new(SpecRegistry::new());
//! let mut device = build_device(DeviceKind::Fdc, QemuVersion::Patched);
//! let mut ctx = VmContext::new(0x10000, 64);
//! let samples = vec![vec![IoRequest::read(AddressSpace::Pmio, 0x3f4, 1).into()]];
//! let spec = train_script(&mut device, &mut ctx, &samples, &TrainingConfig::default()).unwrap();
//! registry.publish(DeviceKind::Fdc, QemuVersion::Patched, spec).unwrap();
//!
//! // Host a tenant on a two-shard pool and run a batch.
//! let mut pool = EnforcementPool::new(2, registry);
//! let cfg = TenantConfig::new(7)
//!     .with_devices(vec![(DeviceKind::Fdc, QemuVersion::Patched)]);
//! pool.add_tenant(cfg).unwrap();
//! let ticket = pool
//!     .submit_batch(TenantId(7), vec![IoRequest::read(AddressSpace::Pmio, 0x3f4, 1)])
//!     .unwrap();
//! let report = pool.wait(ticket).unwrap();
//! assert_eq!(report.rounds, 1);
//! assert!(!report.quarantined);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod pool;
pub mod registry;
pub mod telemetry;

pub use fault::{FaultAction, FaultKind, FaultPoint, FaultSite, FaultySink};
pub use pool::{
    BatchReport, EnforcementPool, PoolError, RecoveryConfig, TenantConfig, TenantId, TenantState,
    Ticket,
};
pub use registry::{PublishJsonError, PublishRejected, SpecDigest, SpecKey, SpecRegistry};
pub use telemetry::{AlertEvent, FleetReport, ShardTelemetry, TenantStatus};
