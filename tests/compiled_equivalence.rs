//! Differential proof that the enforcement paths are
//! verdict-equivalent.
//!
//! One lockstep harness drives two enforcing devices over the *same
//! compiled specification* through identical traffic. Each side picks
//! its walk engine ([`Engine::Compiled`], the journaled in-place walk,
//! or [`Engine::Interpreted`], the per-round shadow-clone oracle),
//! whether an `ObsHub` sink is attached, and whether it submits round
//! by round or through `handle_batch` in fixed-size runs; both sides
//! may run in warn-only degraded mode. Every round must produce the
//! same [`IoVerdict`] and alert level, and at the end the same
//! `EnforceStats`, halt latch, shadow state and command scope. The
//! inputs are random benign-and-rare streams for all five devices in
//! both working modes, plus every CVE proof-of-concept stream from
//! Table III:
//!
//! * compiled ≡ interpreted, normal and degraded;
//! * batched ≡ sequential (compiled engine);
//! * observed ≡ unobserved, round by round and batched.

use std::sync::Arc;

use proptest::prelude::*;
use sedspec::checker::{NoSync, WorkingMode};
use sedspec::collect::{apply_step, TrainStep};
use sedspec::compiled::{CompileOptions, CompiledSpec};
use sedspec::enforce::{EnforcingDevice, Engine, IoVerdict};
use sedspec::pipeline::{train_script, TrainingConfig};
use sedspec::response::highest_alert;
use sedspec_dbl::interp::ExecLimits;
use sedspec_repro::devices::{build_device, DeviceKind, QemuVersion};
use sedspec_repro::obs::{ObsHub, ScopeInfo};
use sedspec_repro::vmm::{IoRequest, VmContext};
use sedspec_repro::workloads::attacks::{poc, Cve, Poc};
use sedspec_repro::workloads::generators::{eval_case, training_suite};
use sedspec_repro::workloads::InteractionMode;

fn train(kind: DeviceKind, version: QemuVersion, cases: usize) -> Arc<CompiledSpec> {
    let mut device = build_device(kind, version);
    device.set_limits(ExecLimits { max_steps: 50_000, ..ExecLimits::default() });
    let mut ctx = VmContext::new(0x200000, 8192);
    let suite = training_suite(kind, cases, 0x7a11);
    let spec =
        train_script(&mut device, &mut ctx, &suite, &TrainingConfig::default()).expect("training");
    Arc::new(CompiledSpec::compile(Arc::new(spec)))
}

/// How one side of a lockstep comparison is built and driven.
#[derive(Debug, Clone, Copy)]
struct Side {
    engine: Engine,
    /// Attach an `ObsHub` sink.
    observed: bool,
    /// Submit through `handle_batch` in runs of this many requests;
    /// `None` submits every round through `handle_io`.
    chunk: Option<usize>,
}

impl Side {
    const COMPILED: Side = Side { engine: Engine::Compiled, observed: false, chunk: None };
    const INTERPRETED: Side = Side { engine: Engine::Interpreted, ..Side::COMPILED };

    fn observed(self) -> Side {
        Side { observed: true, ..self }
    }

    fn batched(self, chunk: usize) -> Side {
        Side { chunk: Some(chunk), ..self }
    }
}

/// The traffic and configuration both sides of a comparison share.
struct Case<'a> {
    kind: DeviceKind,
    version: QemuVersion,
    compiled: &'a Arc<CompiledSpec>,
    steps: &'a [TrainStep],
    mode: WorkingMode,
    /// Run both sides in warn-only degraded mode.
    degraded: bool,
}

/// Builds one side and drives it through the case's steps, returning
/// its verdicts and the enforcer. Batched sides flush their pending run
/// before every non-I/O step (guest memory writes, delays), exactly as
/// a pool drains before foreign events.
fn drive(case: &Case, side: Side) -> (Vec<IoVerdict>, EnforcingDevice) {
    fn flush(
        enforcer: &mut EnforcingDevice,
        ctx: &mut VmContext,
        pending: &mut Vec<&IoRequest>,
        verdicts: &mut Vec<IoVerdict>,
    ) {
        let mut consumed = 0;
        while consumed < pending.len() {
            let n = enforcer.handle_batch(ctx, &pending[consumed..], verdicts);
            assert!(n > 0, "a non-empty batch consumes at least one round");
            consumed += n;
        }
        pending.clear();
    }

    let mut device = build_device(case.kind, case.version);
    device.set_limits(ExecLimits { max_steps: 50_000, ..ExecLimits::default() });
    let mut enforcer = EnforcingDevice::new_compiled(device, Arc::clone(case.compiled), case.mode)
        .with_engine(side.engine);
    if case.degraded {
        enforcer.degrade();
    }
    if side.observed {
        let hub = Arc::new(ObsHub::new());
        enforcer.set_sink(Some(hub.sink(ScopeInfo::device(case.kind.to_string()))));
    }
    let mut ctx = VmContext::new(0x200000, 8192);
    let mut verdicts = Vec::new();
    let mut pending = Vec::new();
    for step in case.steps {
        match (step, side.chunk) {
            (TrainStep::Io(req), None) => verdicts.push(enforcer.handle_io(&mut ctx, req)),
            (TrainStep::Io(req), Some(chunk)) => {
                pending.push(req);
                if pending.len() >= chunk {
                    flush(&mut enforcer, &mut ctx, &mut pending, &mut verdicts);
                }
            }
            _ => {
                flush(&mut enforcer, &mut ctx, &mut pending, &mut verdicts);
                apply_step(step, &mut ctx);
            }
        }
    }
    flush(&mut enforcer, &mut ctx, &mut pending, &mut verdicts);
    (verdicts, enforcer)
}

/// Drives sides `a` and `b` through the case and asserts they agree on
/// every verdict and alert level, and on the final `EnforceStats`,
/// halt latch, committed shadow and command scope. Degraded sides must
/// never halt.
fn assert_lockstep(case: &Case, a: Side, b: Side) -> Result<(), TestCaseError> {
    let (va, ea) = drive(case, a);
    let (vb, eb) = drive(case, b);
    let (kind, mode, degraded) = (case.kind, case.mode, case.degraded);
    let at = format!("{kind} {mode:?} degraded={degraded} {a:?} vs {b:?}");
    prop_assert_eq!(va.len(), vb.len(), "{}: verdict counts diverged", at);
    for (round, (x, y)) in va.iter().zip(&vb).enumerate() {
        prop_assert_eq!(x, y, "{} round {}: verdicts diverged", at, round);
        prop_assert_eq!(
            highest_alert(x.violations()),
            highest_alert(y.violations()),
            "{} round {}: alert levels diverged",
            at,
            round
        );
        prop_assert!(
            !(degraded && matches!(x, IoVerdict::Halted { .. })),
            "{} round {}: a degraded enforcer halted",
            at,
            round
        );
    }
    prop_assert_eq!(ea.stats, eb.stats, "{}: EnforceStats diverged", at);
    prop_assert_eq!(ea.is_halted(), eb.is_halted(), "{}: halt latches diverged", at);
    prop_assert_eq!(
        ea.checker().shadow(),
        eb.checker().shadow(),
        "{}: committed shadow states diverged",
        at
    );
    prop_assert_eq!(
        ea.checker().cmd_ctx(),
        eb.checker().cmd_ctx(),
        "{}: command scopes diverged",
        at
    );
    Ok(())
}

/// A random eval stream: even seeds stay benign; odd seeds inject
/// rare/hostile operations so the violation paths (halts, warnings,
/// aborts) are compared too.
fn eval_stream(kind: DeviceKind, seed: u64) -> Vec<TrainStep> {
    let rare = if seed.is_multiple_of(2) { 0.0 } else { 0.25 };
    eval_case(kind, InteractionMode::all()[(seed % 3) as usize], rare, seed)
}

/// A CVE proof-of-concept stream against the device version it targets.
fn poc_case<'a>(
    p: &'a Poc,
    compiled: &'a Arc<CompiledSpec>,
    mode: WorkingMode,
    degraded: bool,
) -> Case<'a> {
    Case { kind: p.device, version: p.qemu_version, compiled, steps: &p.steps, mode, degraded }
}

/// Compiled ≡ interpreted in both working modes; on hostile streams
/// also in degraded (warn-only) mode.
fn run_differential(kind: DeviceKind, seed: u64) -> Result<(), TestCaseError> {
    let compiled = train(kind, QemuVersion::Patched, 40);
    let steps = eval_stream(kind, seed);
    let hostile = !seed.is_multiple_of(2);
    let degraded_modes: &[bool] = if hostile { &[false, true] } else { &[false] };
    for mode in [WorkingMode::Protection, WorkingMode::Enhancement] {
        for &degraded in degraded_modes {
            let version = QemuVersion::Patched;
            let case = Case { kind, version, compiled: &compiled, steps: &steps, mode, degraded };
            assert_lockstep(&case, Side::COMPILED, Side::INTERPRETED)?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn fdc_compiled_matches_interpreted(seed in 0u64..5000) {
        run_differential(DeviceKind::Fdc, seed)?;
    }

    #[test]
    fn sdhci_compiled_matches_interpreted(seed in 0u64..5000) {
        run_differential(DeviceKind::Sdhci, seed)?;
    }

    #[test]
    fn scsi_compiled_matches_interpreted(seed in 0u64..5000) {
        run_differential(DeviceKind::Scsi, seed)?;
    }

    #[test]
    fn ehci_compiled_matches_interpreted(seed in 0u64..5000) {
        run_differential(DeviceKind::UsbEhci, seed)?;
    }

    #[test]
    fn pcnet_compiled_matches_interpreted(seed in 0u64..5000) {
        run_differential(DeviceKind::Pcnet, seed)?;
    }
}

/// Every CVE proof-of-concept stream (including the known-miss case)
/// renders identical verdicts on both engines, in both working modes,
/// normal and degraded, against the vulnerable device version it
/// targets.
#[test]
fn cve_pocs_render_identical_verdicts() {
    for cve in Cve::all_with_known_miss() {
        let p = poc(cve);
        let compiled = train(p.device, p.qemu_version, 60);
        for mode in [WorkingMode::Protection, WorkingMode::Enhancement] {
            for degraded in [false, true] {
                let case = poc_case(&p, &compiled, mode, degraded);
                assert_lockstep(&case, Side::COMPILED, Side::INTERPRETED)
                    .unwrap_or_else(|e| panic!("{}: {}", p.cve.id(), e));
            }
        }
    }
}

/// Batched ≡ sequential, and observed ≡ unobserved both round by round
/// and batched, over one random chunk size. Batching must be
/// unobservable (hostile rounds stop the batch and re-drive
/// sequentially), and attaching a sink must not change a verdict.
fn run_batched_differential(kind: DeviceKind, seed: u64) -> Result<(), TestCaseError> {
    let compiled = train(kind, QemuVersion::Patched, 40);
    let steps = eval_stream(kind, seed);
    let chunk = [1, 2, 3, 5, 16, 64, 256][(seed % 7) as usize];
    for mode in [WorkingMode::Protection, WorkingMode::Enhancement] {
        let version = QemuVersion::Patched;
        let case =
            Case { kind, version, compiled: &compiled, steps: &steps, mode, degraded: false };
        for (a, b) in batch_and_sink_pairs(chunk) {
            assert_lockstep(&case, a, b)?;
        }
    }
    Ok(())
}

/// The side pairs that pin batching and observation as unobservable.
fn batch_and_sink_pairs(chunk: usize) -> [(Side, Side); 3] {
    let seq = Side::COMPILED;
    let bat = Side::COMPILED.batched(chunk);
    [(seq, bat), (seq, seq.observed()), (bat, bat.observed())]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn fdc_batched_matches_sequential(seed in 0u64..5000) {
        run_batched_differential(DeviceKind::Fdc, seed)?;
    }

    #[test]
    fn sdhci_batched_matches_sequential(seed in 0u64..5000) {
        run_batched_differential(DeviceKind::Sdhci, seed)?;
    }

    #[test]
    fn scsi_batched_matches_sequential(seed in 0u64..5000) {
        run_batched_differential(DeviceKind::Scsi, seed)?;
    }

    #[test]
    fn ehci_batched_matches_sequential(seed in 0u64..5000) {
        run_batched_differential(DeviceKind::UsbEhci, seed)?;
    }

    #[test]
    fn pcnet_batched_matches_sequential(seed in 0u64..5000) {
        run_batched_differential(DeviceKind::Pcnet, seed)?;
    }
}

/// Every CVE proof-of-concept stream produces the same verdicts whether
/// submitted round by round or through the batched path, with or
/// without a sink — detection ordering must be bit-identical.
#[test]
fn cve_pocs_batched_matches_sequential() {
    for cve in Cve::all_with_known_miss() {
        let p = poc(cve);
        let compiled = train(p.device, p.qemu_version, 60);
        for mode in [WorkingMode::Protection, WorkingMode::Enhancement] {
            let case = poc_case(&p, &compiled, mode, false);
            for chunk in [1, 7, 256] {
                for (a, b) in batch_and_sink_pairs(chunk) {
                    assert_lockstep(&case, a, b)
                        .unwrap_or_else(|e| panic!("{}: {}", p.cve.id(), e));
                }
            }
        }
    }
}

/// Profile-guided block reordering is layout-only: a spec compiled with
/// a live heat profile must render the same verdicts, stats and shadow
/// as the identity layout on benign and hostile streams.
#[test]
fn pgo_layout_preserves_verdicts() {
    for kind in [DeviceKind::Fdc, DeviceKind::Pcnet, DeviceKind::Sdhci] {
        let identity = train(kind, QemuVersion::Patched, 40);
        let spec = identity.spec().clone();

        // Warm a sinked checker on a short benign stream to accumulate
        // block heat, then recompile with the profile — the same
        // feedback loop `SpecRegistry::optimize_from_obs` runs.
        let hub = Arc::new(ObsHub::new());
        let device = build_device(kind, QemuVersion::Patched);
        let mut warm = sedspec::checker::EsChecker::new(spec.clone(), device.control.clone());
        warm.set_sink(Some(hub.sink(ScopeInfo::device(kind.to_string()))));
        let mut ctx = VmContext::new(0x200000, 8192);
        for step in &eval_case(kind, InteractionMode::all()[0], 0.0, 0x5eed) {
            if let Some(req) = apply_step(step, &mut ctx) {
                if let Some(pi) = device.route(req) {
                    warm.walk_round_fast(pi, req, &mut NoSync);
                    warm.abort_round();
                }
            }
        }
        let profile = hub.heat_profile(&kind.to_string());
        let pgo = Arc::new(CompiledSpec::compile_with(
            Arc::new(spec),
            &CompileOptions { profile: Some(&profile) },
        ));

        for seed in [0u64, 1, 3] {
            let rare = if seed == 0 { 0.0 } else { 0.25 };
            let steps = eval_case(kind, InteractionMode::all()[(seed % 3) as usize], rare, seed);
            for mode in [WorkingMode::Protection, WorkingMode::Enhancement] {
                let drive = |compiled: &Arc<CompiledSpec>| {
                    let mut dev = build_device(kind, QemuVersion::Patched);
                    dev.set_limits(ExecLimits { max_steps: 50_000, ..ExecLimits::default() });
                    let mut enf = EnforcingDevice::new_compiled(dev, Arc::clone(compiled), mode);
                    let mut ctx = VmContext::new(0x200000, 8192);
                    let mut verdicts = Vec::new();
                    for step in &steps {
                        if let Some(req) = apply_step(step, &mut ctx) {
                            verdicts.push(enf.handle_io(&mut ctx, req));
                        }
                    }
                    (verdicts, enf.stats, enf.is_halted())
                };
                let (vi, si, hi) = drive(&identity);
                let (vp, sp, hp) = drive(&pgo);
                assert_eq!(vi, vp, "{kind} {mode:?}: PGO layout changed verdicts");
                assert_eq!(si, sp, "{kind} {mode:?}: PGO layout changed stats");
                assert_eq!(hi, hp, "{kind} {mode:?}: PGO layout changed halt latch");
            }
        }
    }
}
