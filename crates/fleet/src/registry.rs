//! Content-addressed specification store with atomic hot-swap.
//!
//! The paper has device developers and testers generate execution
//! specifications once and ship them to deployments (§IV). At fleet
//! scale that shipping needs an authority: one process-wide registry
//! holding every published revision, addressed by content digest, with
//! a *current* pointer per `(device, QEMU version)` channel. Publishing
//! a new revision bumps the channel epoch; enforcement shards compare
//! epochs at batch boundaries and retarget their tenants without any
//! cross-thread locking on the hot path.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;
use sedspec::compiled::CompiledSpec;
use sedspec::spec::ExecutionSpecification;
use sedspec_analysis::diff::{diff, SemanticChangelog};
use sedspec_analysis::{analyze, AnalysisContext, AnalysisReport};
use sedspec_devices::{build_device, DeviceKind, QemuVersion};
use sedspec_obs::{ObsHub, ScopeId, ScopeInfo, TraceEventKind};
use serde::{Deserialize, Serialize};

use crate::fault::{self, FaultAction, FaultKind, FaultPoint, FaultSite};

/// FNV-1a digest of a specification's canonical (pretty) JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SpecDigest(pub u64);

impl std::fmt::Display for SpecDigest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Identity of one published specification revision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SpecKey {
    /// Device the specification was trained for.
    pub device: DeviceKind,
    /// QEMU behaviour version it was trained against.
    pub version: QemuVersion,
    /// Content digest of the revision.
    pub digest: SpecDigest,
}

impl std::fmt::Display for SpecKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}@{}", self.device, self.version, self.digest)
    }
}

/// All revisions published for one `(device, version)` pair.
#[derive(Default)]
struct Channel {
    revisions: HashMap<SpecDigest, Arc<ExecutionSpecification>>,
    /// Hot-path form of each revision, compiled once at publish time and
    /// shared by every tenant checker.
    compiled: HashMap<SpecDigest, Arc<CompiledSpec>>,
    current: Option<SpecDigest>,
    /// Bumped on every publish; consumers poll it at batch boundaries.
    epoch: u64,
}

/// The fleet's specification store.
///
/// Cheap to share: clone an `Arc<SpecRegistry>` into every shard.
/// Reads take a shared lock and clone an `Arc`, so concurrent tenants
/// never copy a specification.
#[derive(Default)]
pub struct SpecRegistry {
    channels: RwLock<HashMap<(DeviceKind, QemuVersion), Channel>>,
    /// Observability attachment: publish/compile events are recorded
    /// under one interned "registry" scope.
    obs: RwLock<Option<(Arc<ObsHub>, ScopeId)>>,
    /// Fault-injection attachment, mirroring the obs seam: consulted on
    /// every [`SpecRegistry::current_compiled`] fetch when present.
    faults: RwLock<Option<Arc<dyn FaultPoint>>>,
}

impl SpecRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        SpecRegistry::default()
    }

    /// Attaches an observability hub; subsequent publishes emit
    /// [`TraceEventKind::SpecCompiled`] / [`TraceEventKind::SpecPublished`]
    /// events. Attaching the same hub twice is a no-op.
    pub fn attach_obs(&self, hub: &Arc<ObsHub>) {
        let mut obs = self.obs.write();
        if let Some((attached, _)) = obs.as_ref() {
            if Arc::ptr_eq(attached, hub) {
                return;
            }
        }
        let scope = hub.register_scope(ScopeInfo::device("registry"));
        *obs = Some((Arc::clone(hub), scope));
    }

    fn obs_record(&self, kind: TraceEventKind) {
        if let Some((hub, scope)) = self.obs.read().as_ref() {
            hub.record(*scope, kind);
        }
    }

    /// Attaches a fault-injection point; subsequent
    /// [`SpecRegistry::current_compiled`] fetches consult it and can be
    /// stalled ([`FaultKind::RegistryStall`]) or failed
    /// ([`FaultKind::RegistryFail`]). Detach with `None`.
    pub fn attach_faults(&self, faults: Option<Arc<dyn FaultPoint>>) {
        *self.faults.write() = faults;
    }

    /// Consults the fault seam at a registry-fetch site. Returns `true`
    /// when the fetch must fail (report no current revision). Stalls are
    /// served here, after the channel lock is released by the caller —
    /// a stalled fetch delays one consumer, it never blocks publishers.
    fn fetch_fault(&self, device: DeviceKind) -> bool {
        let Some(faults) = self.faults.read().clone() else { return false };
        match faults.check(&FaultSite::registry_fetch(FaultKind::RegistryStall, device)) {
            FaultAction::Stall(ms) => {
                self.obs_record(TraceEventKind::FaultInjected {
                    kind: FaultKind::RegistryStall.to_string(),
                    tenant: None,
                });
                fault::stall(ms);
            }
            FaultAction::Proceed | FaultAction::Panic | FaultAction::Fail | FaultAction::Reject => {
            }
        }
        if matches!(
            faults.check(&FaultSite::registry_fetch(FaultKind::RegistryFail, device)),
            FaultAction::Fail
        ) {
            self.obs_record(TraceEventKind::FaultInjected {
                kind: FaultKind::RegistryFail.to_string(),
                tenant: None,
            });
            return true;
        }
        false
    }

    /// Content digest of a specification (FNV-1a over its JSON).
    pub fn digest_of(spec: &ExecutionSpecification) -> SpecDigest {
        let json = spec.to_json();
        let mut h = 0xcbf29ce484222325u64;
        for b in json.as_bytes() {
            h = (h ^ *b as u64).wrapping_mul(0x100000001b3);
        }
        SpecDigest(h)
    }

    /// Publishes a revision and makes it the channel's current one,
    /// after vetting it with the full `sedspec-analysis` pass pipeline
    /// against a freshly built `(device, version)` target and the
    /// publish-time compiled form. Equivalent to
    /// [`SpecRegistry::publish_with`] under default [`PublishOptions`]
    /// — in particular, loosening deltas are refused.
    ///
    /// Republishing identical content is idempotent (same key), but
    /// still bumps the epoch so consumers refresh.
    ///
    /// # Errors
    ///
    /// See [`SpecRegistry::publish_with`].
    pub fn publish(
        &self,
        device: DeviceKind,
        version: QemuVersion,
        spec: ExecutionSpecification,
    ) -> Result<PublishOutcome, PublishError> {
        self.publish_with(device, version, spec, &PublishOptions::default())
    }

    /// Publishes a revision with explicit gate options.
    ///
    /// Two gates run, in order:
    ///
    /// 1. **Analyzer** — the full pass pipeline against a freshly built
    ///    `(device, version)` target and the publish-time compiled form;
    ///    any error-severity finding rejects the revision.
    /// 2. **Semantic diff** — when the channel already serves an
    ///    incumbent, the candidate is diffed against it
    ///    ([`sedspec_analysis::diff::diff`]). A delta that *loosens*
    ///    enforcement anywhere (commands appearing, allowed sets or
    ///    trained edges growing, static guards disappearing) is refused
    ///    unless [`PublishOptions::allow_loosening`] is set — loosening
    ///    is exactly the direction an attack-surface regression takes,
    ///    so it requires an explicit operator decision.
    ///
    /// Every accepted publish that displaced an incumbent carries the
    /// [`SemanticChangelog`] in its [`PublishOutcome`], so channel
    /// history records what changed semantically, not just that an
    /// epoch bumped.
    ///
    /// # Errors
    ///
    /// [`PublishError::Rejected`] on analyzer error findings —
    /// including `SA008` for a spec trained on a different device or
    /// version than the channel it was submitted to.
    /// [`PublishError::Loosening`] when the semantic diff against the
    /// incumbent loosens enforcement and `allow_loosening` is unset.
    /// Refused revisions are not stored. Use
    /// [`SpecRegistry::publish_unchecked`] to force-publish.
    pub fn publish_with(
        &self,
        device: DeviceKind,
        version: QemuVersion,
        spec: ExecutionSpecification,
        options: &PublishOptions,
    ) -> Result<PublishOutcome, PublishError> {
        let digest = Self::digest_of(&spec);
        let stored = Arc::new(spec);
        let compiled = Arc::new(CompiledSpec::compile(Arc::clone(&stored)));
        let target = build_device(device, version);
        let report = analyze(&stored, &AnalysisContext::full(&target, &compiled));
        let key = SpecKey { device, version, digest };
        if report.has_errors() {
            return Err(PublishError::Rejected(PublishRejected { key, report: Box::new(report) }));
        }
        let changelog = self
            .current(device, version)
            .map(|(_, incumbent, _)| SemanticChangelog { delta: diff(&incumbent, &stored) });
        if let Some(changelog) = &changelog {
            if changelog.has_loosening() && !options.allow_loosening {
                return Err(PublishError::Loosening(LooseningRefused {
                    key,
                    changelog: Box::new(changelog.clone()),
                }));
            }
        }
        let key = self.store(device, version, digest, &stored, &compiled);
        Ok(PublishOutcome { key, changelog })
    }

    /// Publishes a revision *without* running the static analyzer — the
    /// forced path for operators who have reviewed the findings and for
    /// callers that already vetted the artifact out of band.
    pub fn publish_unchecked(
        &self,
        device: DeviceKind,
        version: QemuVersion,
        spec: ExecutionSpecification,
    ) -> SpecKey {
        let digest = Self::digest_of(&spec);
        let stored = Arc::new(spec);
        let compiled = Arc::new(CompiledSpec::compile(Arc::clone(&stored)));
        self.store(device, version, digest, &stored, &compiled)
    }

    fn store(
        &self,
        device: DeviceKind,
        version: QemuVersion,
        digest: SpecDigest,
        spec: &Arc<ExecutionSpecification>,
        compiled: &Arc<CompiledSpec>,
    ) -> SpecKey {
        let mut channels = self.channels.write();
        let channel = channels.entry((device, version)).or_default();
        let stored =
            Arc::clone(channel.revisions.entry(digest).or_insert_with(|| Arc::clone(spec)));
        let freshly_compiled = !channel.compiled.contains_key(&digest);
        channel.compiled.entry(digest).or_insert_with(|| Arc::clone(compiled));
        channel.current = Some(digest);
        channel.epoch += 1;
        let epoch = channel.epoch;
        drop(channels);
        if freshly_compiled {
            self.obs_record(TraceEventKind::SpecCompiled {
                device: device.to_string(),
                programs: stored.cfgs.len() as u32,
                blocks: stored.cfgs.iter().map(|c| c.blocks.len() as u32).sum(),
            });
        }
        self.obs_record(TraceEventKind::SpecPublished {
            device: device.to_string(),
            version: version.to_string(),
            digest: digest.to_string(),
            epoch,
        });
        SpecKey { device, version, digest }
    }

    /// Publishes a revision parsed from JSON (the shipping format),
    /// running the same publish-time analyzer gate as
    /// [`SpecRegistry::publish`].
    ///
    /// # Errors
    ///
    /// Returns the parse error on malformed input, or the analyzer
    /// rejection on error findings.
    pub fn publish_json(
        &self,
        device: DeviceKind,
        version: QemuVersion,
        json: &str,
    ) -> Result<PublishOutcome, PublishJsonError> {
        self.publish_json_with(device, version, json, &PublishOptions::default())
    }

    /// [`SpecRegistry::publish_json`] with explicit gate options.
    ///
    /// # Errors
    ///
    /// Returns the parse error on malformed input, or the gate
    /// rejection ([`PublishError`]) wrapped in
    /// [`PublishJsonError::Gate`].
    pub fn publish_json_with(
        &self,
        device: DeviceKind,
        version: QemuVersion,
        json: &str,
        options: &PublishOptions,
    ) -> Result<PublishOutcome, PublishJsonError> {
        let spec = ExecutionSpecification::from_json(json).map_err(PublishJsonError::Parse)?;
        self.publish_with(device, version, spec, options).map_err(PublishJsonError::Gate)
    }

    /// Looks up a revision by key.
    pub fn get(&self, key: &SpecKey) -> Option<Arc<ExecutionSpecification>> {
        let channels = self.channels.read();
        channels.get(&(key.device, key.version))?.revisions.get(&key.digest).cloned()
    }

    /// The channel's current revision, with the epoch it was read at.
    pub fn current(
        &self,
        device: DeviceKind,
        version: QemuVersion,
    ) -> Option<(SpecKey, Arc<ExecutionSpecification>, u64)> {
        let channels = self.channels.read();
        let channel = channels.get(&(device, version))?;
        let digest = channel.current?;
        let spec = channel.revisions.get(&digest)?.clone();
        Some((SpecKey { device, version, digest }, spec, channel.epoch))
    }

    /// The channel's current revision in compiled form, with the epoch
    /// it was read at. This is what enforcement shards deploy: the
    /// publish-time compile is shared, so retargeting a tenant is an
    /// `Arc` clone instead of a specification clone plus re-lowering.
    pub fn current_compiled(
        &self,
        device: DeviceKind,
        version: QemuVersion,
    ) -> Option<(SpecKey, Arc<CompiledSpec>, u64)> {
        let fetched = {
            let channels = self.channels.read();
            let channel = channels.get(&(device, version))?;
            let digest = channel.current?;
            let compiled = channel.compiled.get(&digest)?.clone();
            (SpecKey { device, version, digest }, compiled, channel.epoch)
        };
        // Chaos seam, outside the channel lock: an injected stall or
        // failure hits this fetch only, never the store itself.
        if self.fetch_fault(device) {
            return None;
        }
        Some(fetched)
    }

    /// A stored revision's compiled form, by key.
    pub fn get_compiled(&self, key: &SpecKey) -> Option<Arc<CompiledSpec>> {
        let channels = self.channels.read();
        channels.get(&(key.device, key.version))?.compiled.get(&key.digest).cloned()
    }

    /// The channel's publish epoch (0 when nothing was ever published).
    pub fn epoch(&self, device: DeviceKind, version: QemuVersion) -> u64 {
        self.channels.read().get(&(device, version)).map_or(0, |c| c.epoch)
    }

    /// Serializes a stored revision back to its shipping JSON.
    pub fn export_json(&self, key: &SpecKey) -> Option<String> {
        self.get(key).map(|spec| spec.to_json())
    }

    /// Number of channels with at least one revision.
    pub fn channel_count(&self) -> usize {
        self.channels.read().len()
    }

    /// Total stored revisions across all channels.
    pub fn revision_count(&self) -> usize {
        self.channels.read().values().map(|c| c.revisions.len()).sum()
    }
}

/// Gate knobs for [`SpecRegistry::publish_with`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PublishOptions {
    /// Accept a revision whose semantic diff against the incumbent
    /// loosens enforcement somewhere. Off by default: loosening means
    /// traffic the incumbent would halt gets accepted, which is an
    /// explicit operator decision, not a side effect of retraining.
    pub allow_loosening: bool,
}

/// An accepted publish: the stored identity plus, when an incumbent was
/// displaced, the semantic changelog describing what changed.
#[derive(Debug, Clone)]
pub struct PublishOutcome {
    /// Identity of the stored revision (now the channel's current).
    pub key: SpecKey,
    /// Semantic diff against the displaced incumbent; `None` only for
    /// the channel's first revision, which has nothing to diff against.
    pub changelog: Option<SemanticChangelog>,
}

impl PublishOutcome {
    /// One-line changelog summary (`"first revision"` when none).
    pub fn changelog_summary(&self) -> String {
        self.changelog
            .as_ref()
            .map_or_else(|| "first revision".to_string(), SemanticChangelog::summary)
    }
}

/// A revision the publish-time analyzer gate refused to store.
#[derive(Debug)]
pub struct PublishRejected {
    /// The identity the revision would have had.
    pub key: SpecKey,
    /// The full analysis report; `has_errors()` is true.
    pub report: Box<AnalysisReport>,
}

impl std::fmt::Display for PublishRejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "spec {} rejected by static analysis: {} error finding(s)",
            self.key,
            self.report.error_count()
        )?;
        for d in self.report.diagnostics.iter().filter(|d| d.is_error()) {
            write!(f, "\n  {}", d.render())?;
        }
        Ok(())
    }
}

impl std::error::Error for PublishRejected {}

/// A revision refused because its semantic diff against the incumbent
/// loosens enforcement and the publisher did not opt in.
#[derive(Debug)]
pub struct LooseningRefused {
    /// The identity the revision would have had.
    pub key: SpecKey,
    /// The full changelog; `has_loosening()` is true.
    pub changelog: Box<SemanticChangelog>,
}

impl std::fmt::Display for LooseningRefused {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "spec {} loosens enforcement vs the incumbent ({}); \
             republish with allow_loosening to accept",
            self.key,
            self.changelog.summary()
        )?;
        for e in self
            .changelog
            .delta
            .entries
            .iter()
            .filter(|e| e.direction == sedspec_analysis::diff::Direction::Loosening)
        {
            write!(f, "\n  {}", e.render())?;
        }
        Ok(())
    }
}

impl std::error::Error for LooseningRefused {}

/// A revision the publish gate refused to store.
#[derive(Debug)]
pub enum PublishError {
    /// The analyzer reported error-severity findings.
    Rejected(PublishRejected),
    /// The semantic diff loosens enforcement without the opt-in.
    Loosening(LooseningRefused),
}

impl PublishError {
    /// The identity the refused revision would have had.
    pub fn key(&self) -> SpecKey {
        match self {
            PublishError::Rejected(r) => r.key,
            PublishError::Loosening(l) => l.key,
        }
    }
}

impl std::fmt::Display for PublishError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PublishError::Rejected(r) => r.fmt(f),
            PublishError::Loosening(l) => l.fmt(f),
        }
    }
}

impl std::error::Error for PublishError {}

/// Failure publishing a JSON-shipped revision.
#[derive(Debug)]
pub enum PublishJsonError {
    /// The shipping JSON did not parse.
    Parse(serde_json::Error),
    /// The parsed spec failed a publish gate.
    Gate(PublishError),
}

impl std::fmt::Display for PublishJsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PublishJsonError::Parse(e) => write!(f, "malformed spec JSON: {e}"),
            PublishJsonError::Gate(r) => r.fmt(f),
        }
    }
}

impl std::error::Error for PublishJsonError {}

#[cfg(test)]
mod tests {
    use super::*;
    use sedspec::checker::WorkingMode;
    use sedspec::pipeline::{deploy, train, TrainingConfig};
    use sedspec_devices::build_device;
    use sedspec_vmm::{AddressSpace, IoRequest, VmContext};

    fn small_spec() -> ExecutionSpecification {
        let mut device = build_device(DeviceKind::Fdc, QemuVersion::Patched);
        let mut ctx = VmContext::new(0x10000, 64);
        let samples = vec![vec![IoRequest::read(AddressSpace::Pmio, 0x3f4, 1)]];
        train(&mut device, &mut ctx, &samples, &TrainingConfig::default()).unwrap()
    }

    #[test]
    fn publish_and_lookup_round_trip() {
        let reg = SpecRegistry::new();
        let outcome = reg.publish(DeviceKind::Fdc, QemuVersion::Patched, small_spec()).unwrap();
        let key = outcome.key;
        assert_eq!(key.device, DeviceKind::Fdc);
        assert!(outcome.changelog.is_none(), "first revision has no incumbent to diff");
        assert_eq!(outcome.changelog_summary(), "first revision");
        let (cur_key, spec, epoch) = reg.current(DeviceKind::Fdc, QemuVersion::Patched).unwrap();
        assert_eq!(cur_key, key);
        assert_eq!(epoch, 1);
        assert_eq!(spec.device, "FDC");
        // The stored revision still deploys.
        let device = build_device(DeviceKind::Fdc, QemuVersion::Patched);
        let mut enforcer = deploy(device, (*spec).clone(), WorkingMode::Protection);
        let mut ctx = VmContext::new(0x10000, 64);
        let v = enforcer.handle_io(&mut ctx, &IoRequest::read(AddressSpace::Pmio, 0x3f4, 1));
        assert!(!v.flagged());
    }

    #[test]
    fn json_round_trip_preserves_digest() {
        let reg = SpecRegistry::new();
        let key = reg.publish(DeviceKind::Fdc, QemuVersion::Patched, small_spec()).unwrap().key;
        let json = reg.export_json(&key).unwrap();
        let reg2 = SpecRegistry::new();
        let key2 = reg2.publish_json(DeviceKind::Fdc, QemuVersion::Patched, &json).unwrap().key;
        assert_eq!(key, key2, "shipping a spec through JSON must not change its identity");
    }

    #[test]
    fn publish_json_runs_the_analysis_gate() {
        // Regression pin: the JSON import path must route through the
        // same analyzer gate as `publish`, so shipping a spec as JSON
        // (the `sedspecd` PublishSpec frame, `sedspec ctl publish`)
        // cannot deploy a revision the verifier would reject.
        let reg = SpecRegistry::new();
        let mut broken = small_spec();
        let cfg = broken.cfgs.iter_mut().find(|c| !c.edges.is_empty()).expect("some trained edges");
        let bogus = cfg.blocks.len() as u32 + 7;
        cfg.edges.values_mut().next().unwrap()[0].to = bogus;
        let json = broken.to_json();
        let err = reg
            .publish_json(DeviceKind::Fdc, QemuVersion::Patched, &json)
            .expect_err("JSON import of a dangling-edge spec must be rejected");
        match err {
            PublishJsonError::Gate(PublishError::Rejected(r)) => {
                assert!(!r.report.with_code("SA002").is_empty(), "{}", r.report.render_human());
            }
            other => panic!("expected analyzer rejection, got: {other}"),
        }
        assert_eq!(reg.revision_count(), 0, "gated JSON imports are not stored");
    }

    #[test]
    fn republish_bumps_epoch_and_retargets_current() {
        let reg = SpecRegistry::new();
        let spec = small_spec();
        let first = reg.publish(DeviceKind::Fdc, QemuVersion::Patched, spec.clone()).unwrap().key;
        let mut grown = spec;
        grown.stats.training_rounds += 1;
        let outcome = reg.publish(DeviceKind::Fdc, QemuVersion::Patched, grown).unwrap();
        let second = outcome.key;
        // Stats-only drift is semantically empty: changelog attached,
        // zero entries, no loosening gate in the way.
        let changelog = outcome.changelog.expect("incumbent displaced -> changelog attached");
        assert!(changelog.delta.is_empty(), "{}", changelog.delta.render_human());
        assert_ne!(first.digest, second.digest);
        let (cur, _, epoch) = reg.current(DeviceKind::Fdc, QemuVersion::Patched).unwrap();
        assert_eq!(cur, second);
        assert_eq!(epoch, 2);
        // The superseded revision stays addressable.
        assert!(reg.get(&first).is_some());
        assert_eq!(reg.revision_count(), 2);
    }

    #[test]
    fn gate_rejects_error_findings_and_unchecked_forces() {
        let reg = SpecRegistry::new();
        let mut broken = small_spec();
        // Retarget a trained edge at a block that does not exist: the
        // structure pass reports this as SA002 (error severity).
        let cfg = broken.cfgs.iter_mut().find(|c| !c.edges.is_empty()).expect("some trained edges");
        let bogus = cfg.blocks.len() as u32 + 7;
        cfg.edges.values_mut().next().unwrap()[0].to = bogus;
        let err = reg
            .publish(DeviceKind::Fdc, QemuVersion::Patched, broken.clone())
            .expect_err("dangling edge must be rejected");
        let PublishError::Rejected(err) = err else { panic!("expected analyzer rejection: {err}") };
        assert!(err.report.has_errors());
        assert!(!err.report.with_code("SA002").is_empty(), "{}", err.report.render_human());
        assert_eq!(reg.revision_count(), 0, "rejected revisions are not stored");
        // The force path still stores it.
        let key = reg.publish_unchecked(DeviceKind::Fdc, QemuVersion::Patched, broken);
        assert_eq!(reg.revision_count(), 1);
        assert!(reg.get_compiled(&key).is_some());
    }

    #[test]
    fn gate_rejects_wrong_channel_publish() {
        let reg = SpecRegistry::new();
        // An FDC-trained spec submitted to the SCSI channel: SA008.
        let err = reg
            .publish(DeviceKind::Scsi, QemuVersion::Patched, small_spec())
            .expect_err("cross-device publish must be rejected");
        assert_eq!(err.key().device, DeviceKind::Scsi);
        let PublishError::Rejected(err) = err else { panic!("expected analyzer rejection: {err}") };
        assert!(!err.report.with_code("SA008").is_empty());
    }

    /// A spec trained on a bigger suite than the incumbent: more
    /// commands/edges trained, i.e. a loosening delta.
    fn bigger_spec() -> ExecutionSpecification {
        let mut device = build_device(DeviceKind::Fdc, QemuVersion::Patched);
        let mut ctx = VmContext::new(0x10000, 64);
        let samples = vec![
            vec![IoRequest::read(AddressSpace::Pmio, 0x3f4, 1)],
            vec![IoRequest::write(AddressSpace::Pmio, 0x3f2, 1, 0x14)],
            vec![
                IoRequest::write(AddressSpace::Pmio, 0x3f5, 1, 0x08),
                IoRequest::read(AddressSpace::Pmio, 0x3f5, 1),
            ],
        ];
        train(&mut device, &mut ctx, &samples, &TrainingConfig::default()).unwrap()
    }

    #[test]
    fn loosening_publish_needs_the_opt_in() {
        let reg = SpecRegistry::new();
        reg.publish(DeviceKind::Fdc, QemuVersion::Patched, small_spec()).unwrap();
        // The retrained, broader spec accepts traffic the incumbent
        // would halt: refused by default.
        let err = reg
            .publish(DeviceKind::Fdc, QemuVersion::Patched, bigger_spec())
            .expect_err("loosening publish must be refused without the opt-in");
        let PublishError::Loosening(l) = err else { panic!("expected loosening refusal: {err}") };
        assert!(l.changelog.has_loosening());
        assert_eq!(reg.revision_count(), 1, "refused revisions are not stored");
        // With the opt-in it lands, changelog attached.
        let outcome = reg
            .publish_with(
                DeviceKind::Fdc,
                QemuVersion::Patched,
                bigger_spec(),
                &PublishOptions { allow_loosening: true },
            )
            .expect("opt-in accepts the loosening publish");
        let changelog = outcome.changelog.expect("changelog attached");
        assert!(changelog.has_loosening());
        assert_eq!(reg.revision_count(), 2);
        let (cur, _, _) = reg.current(DeviceKind::Fdc, QemuVersion::Patched).unwrap();
        assert_eq!(cur, outcome.key);
    }

    #[test]
    fn tightening_publish_lands_without_opt_in_and_carries_changelog() {
        let reg = SpecRegistry::new();
        reg.publish(DeviceKind::Fdc, QemuVersion::Patched, bigger_spec()).unwrap();
        // Narrowing the spec (fewer trained behaviours) only tightens:
        // no opt-in required, and the changelog names the direction.
        let outcome = reg
            .publish(DeviceKind::Fdc, QemuVersion::Patched, small_spec())
            .expect("tightening publish needs no opt-in");
        let changelog = outcome.changelog.expect("changelog attached");
        assert!(!changelog.has_loosening(), "{}", changelog.delta.render_human());
        assert!(!changelog.delta.is_empty());
    }
}
