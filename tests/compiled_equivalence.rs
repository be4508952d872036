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
//! both working modes, every CVE proof-of-concept stream from Table III,
//! and benign, mutated and boundary-probe streams for a hand-built
//! device whose value lookups are all too sparse for a dense table:
//!
//! * compiled ≡ interpreted, normal and degraded;
//! * batched ≡ sequential (compiled engine);
//! * observed ≡ unobserved, round by round and batched.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;
use sedspec::checker::WorkingMode;
use sedspec::collect::{apply_step, TrainStep};
use sedspec::compiled::CompiledSpec;
use sedspec::enforce::{EnforcingDevice, Engine, IoVerdict};
use sedspec::pipeline::{train_script, TrainingConfig};
use sedspec::response::highest_alert;
use sedspec_dbl::builder::ProgramBuilder;
use sedspec_dbl::interp::ExecLimits;
use sedspec_dbl::ir::{BinOp, Expr, Width};
use sedspec_dbl::state::ControlStructure;
use sedspec_repro::devices::{build_device, Device, DeviceKind, EntryPoint, QemuVersion};
use sedspec_repro::fuzz::mutate::Mutator;
use sedspec_repro::fuzz::rng::FuzzRng;
use sedspec_repro::obs::{ObsHub, ScopeInfo};
use sedspec_repro::vmm::{AddressSpace, IoRequest, VmContext};
use sedspec_repro::workloads::attacks::{poc, Cve, Poc};
use sedspec_repro::workloads::generators::{eval_case, training_suite};
use sedspec_repro::workloads::InteractionMode;

fn train(kind: DeviceKind, version: QemuVersion, cases: usize) -> Arc<CompiledSpec> {
    train_on(&build_device(kind, version), &training_suite(kind, cases, 0x7a11))
}

fn train_on(device: &Device, suite: &[Vec<TrainStep>]) -> Arc<CompiledSpec> {
    let mut device = device.clone();
    device.set_limits(ExecLimits { max_steps: 50_000, ..ExecLimits::default() });
    let mut ctx = VmContext::new(0x200000, 8192);
    let spec =
        train_script(&mut device, &mut ctx, suite, &TrainingConfig::default()).expect("training");
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
    /// The device under test; each side drives its own clone.
    device: &'a Device,
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

    let mut device = case.device.clone();
    device.set_limits(ExecLimits { max_steps: 50_000, ..ExecLimits::default() });
    let mut enforcer = EnforcingDevice::new_compiled(device, Arc::clone(case.compiled), case.mode)
        .with_engine(side.engine);
    if case.degraded {
        enforcer.degrade();
    }
    if side.observed {
        let hub = Arc::new(ObsHub::new());
        enforcer.set_sink(Some(hub.sink(ScopeInfo::device(case.device.name.clone()))));
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
    let (name, mode, degraded) = (&case.device.name, case.mode, case.degraded);
    let at = format!("{name} {mode:?} degraded={degraded} {a:?} vs {b:?}");
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
    device: &'a Device,
    compiled: &'a Arc<CompiledSpec>,
    mode: WorkingMode,
    degraded: bool,
) -> Case<'a> {
    Case { device, compiled, steps: &p.steps, mode, degraded }
}

/// Compiled ≡ interpreted in both working modes; on hostile streams
/// also in degraded (warn-only) mode.
fn run_differential(kind: DeviceKind, seed: u64) -> Result<(), TestCaseError> {
    let device = build_device(kind, QemuVersion::Patched);
    let compiled = train(kind, QemuVersion::Patched, 40);
    let steps = eval_stream(kind, seed);
    let hostile = !seed.is_multiple_of(2);
    let degraded_modes: &[bool] = if hostile { &[false, true] } else { &[false] };
    for mode in [WorkingMode::Protection, WorkingMode::Enhancement] {
        for &degraded in degraded_modes {
            let case = Case { device: &device, compiled: &compiled, steps: &steps, mode, degraded };
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
        let device = build_device(p.device, p.qemu_version);
        let compiled = train(p.device, p.qemu_version, 60);
        for mode in [WorkingMode::Protection, WorkingMode::Enhancement] {
            for degraded in [false, true] {
                let case = poc_case(&p, &device, &compiled, mode, degraded);
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
    let device = build_device(kind, QemuVersion::Patched);
    let compiled = train(kind, QemuVersion::Patched, 40);
    let steps = eval_stream(kind, seed);
    let chunk = [1, 2, 3, 5, 16, 64, 256][(seed % 7) as usize];
    for mode in [WorkingMode::Protection, WorkingMode::Enhancement] {
        let case =
            Case { device: &device, compiled: &compiled, steps: &steps, mode, degraded: false };
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
        let device = build_device(p.device, p.qemu_version);
        let compiled = train(p.device, p.qemu_version, 60);
        for mode in [WorkingMode::Protection, WorkingMode::Enhancement] {
            let case = poc_case(&p, &device, &compiled, mode, false);
            for chunk in [1, 7, 256] {
                for (a, b) in batch_and_sink_pairs(chunk) {
                    assert_lockstep(&case, a, b)
                        .unwrap_or_else(|e| panic!("{}: {}", p.cve.id(), e));
                }
            }
        }
    }
}

/// Ports of the sparse device: set the function pointer, issue a
/// command, call through the pointer. Each value set below is spread
/// more than 4096 apart, so none of the compiled form's value lookups
/// (port switch, command decision, function-pointer table) gets a dense
/// table and every one takes the sorted, binary-search side, which no
/// trained device model reaches.
const SPARSE_PORTS: [u64; 3] = [0x10, 0x2010, 0x9010];
/// Commands of the sparse device's command decision.
const SPARSE_CMDS: [u64; 3] = [0x1, 0x5000, 0x7_0000];
/// Registered function-pointer values; the last is legitimate but never
/// called in training.
const SPARSE_FNS: [u64; 3] = [0x100, 0x8_0000, 0x40_0000];

/// A hand-built PMIO device over [`SPARSE_PORTS`], [`SPARSE_CMDS`] and
/// [`SPARSE_FNS`].
fn sparse_device() -> Device {
    let mut cs = ControlStructure::new("Sparse");
    let fnptr = cs.var("fnptr", Width::W64);
    let count = cs.var("count", Width::W32);
    let mut b = ProgramBuilder::new("sparse_pmio_write");
    let entry = b.entry_block("port_dispatch");
    let set_fn = b.block("set_fn");
    let decide = b.cmd_decision_block("cmd_dispatch");
    let cmd_blocks = [b.block("cmd_add"), b.block("cmd_double"), b.block("cmd_clear")];
    let cmd_end = b.cmd_end_block("cmd_end");
    let call = b.block("call_fn");
    let fn_blocks = [b.block("fn_toggle"), b.block("fn_nop"), b.block("fn_untrained")];
    let after_call = b.exit_block("after_call");
    let done = b.exit_block("done");
    for (&v, &f) in SPARSE_FNS.iter().zip(&fn_blocks) {
        b.register_fn(v, f);
    }
    b.select(entry);
    b.switch(Expr::IoAddr, SPARSE_PORTS.into_iter().zip([set_fn, decide, call]).collect(), done);
    b.select(set_fn);
    b.set_var(fnptr, Expr::IoData);
    b.jump(done);
    b.select(decide);
    b.switch(Expr::IoData, SPARSE_CMDS.into_iter().zip(cmd_blocks).collect(), done);
    let updates = [
        Expr::bin(BinOp::Add, Expr::var(count), Expr::lit(1)),
        Expr::bin(BinOp::Mul, Expr::var(count), Expr::lit(2)),
        Expr::lit(0),
    ];
    for (blk, e) in cmd_blocks.into_iter().zip(updates) {
        b.select(blk);
        b.set_var(count, e);
        b.jump(cmd_end);
    }
    b.select(cmd_end);
    b.jump(done);
    b.select(call);
    b.indirect_call(fnptr, after_call);
    for (i, blk) in fn_blocks.into_iter().enumerate() {
        b.select(blk);
        if i == 0 {
            b.set_var(count, Expr::bin(BinOp::Xor, Expr::var(count), Expr::lit(1)));
        }
        b.ret();
    }
    let program = b.finish().expect("sparse device program");
    Device::assemble(
        "Sparse",
        QemuVersion::Patched,
        cs,
        vec![(EntryPoint::PmioWrite, program)],
        vec![(AddressSpace::Pmio, 0, 0x1_0000)],
    )
}

fn sparse_write(port: usize, data: u64) -> TrainStep {
    TrainStep::Io(IoRequest::write(AddressSpace::Pmio, SPARSE_PORTS[port], 8, data))
}

/// A benign stream: every trained command, and calls through the two
/// trained function pointers, in a seed-dependent order.
fn sparse_benign(seed: u64) -> Vec<TrainStep> {
    let mut rng = FuzzRng::new(seed);
    let mut steps = Vec::new();
    for _ in 0..24 {
        if rng.chance(1, 2) {
            steps.push(sparse_write(1, SPARSE_CMDS[rng.index(SPARSE_CMDS.len())]));
        } else {
            steps.push(sparse_write(0, SPARSE_FNS[rng.index(2)]));
            steps.push(sparse_write(2, 0));
        }
    }
    steps
}

/// Boundary probes of every sparse lookup: below the minimum, in a
/// hole, above the maximum and `u64::MAX` for commands and function
/// pointers, plus the legitimate-but-untrained function pointer and
/// ports beside the trained ones. Each probe follows a benign round.
fn sparse_probes() -> Vec<TrainStep> {
    let mut steps = Vec::new();
    for data in [0, 2, 0x4fff, 0x5001, 0x7_0001, u64::MAX] {
        steps.extend([sparse_write(1, SPARSE_CMDS[0]), sparse_write(1, data)]);
    }
    for data in [0xff, 0x101, 0x7_ffff, 0x8_0001, SPARSE_FNS[2], u64::MAX] {
        steps.extend([sparse_write(0, data), sparse_write(2, 0), sparse_write(0, SPARSE_FNS[0])]);
    }
    for addr in [0xf, 0x11, 0x200f, 0x9011, 0xffff] {
        steps.push(sparse_write(1, SPARSE_CMDS[1]));
        steps.push(TrainStep::Io(IoRequest::write(AddressSpace::Pmio, addr, 8, 0)));
    }
    steps
}

/// The sorted side of every compiled value lookup: compiled ≡
/// interpreted (normal and degraded) and batched ≡ sequential ≡
/// observed on benign, mutated and boundary-probe streams.
#[test]
fn sparse_lookups_match_interpreted_and_sequential() {
    let device = sparse_device();
    let compiled = train_on(&device, &[sparse_benign(1), sparse_benign(2), sparse_benign(3)]);
    let trained_cmds: Vec<u64> = compiled.cmd_keys().iter().map(|k| k.1).collect();
    assert_eq!(trained_cmds, SPARSE_CMDS, "every sparse command is trained");
    let fns: Vec<u64> = compiled.fn_entries(0).iter().map(|e| e.0).collect();
    assert_eq!(fns, SPARSE_FNS, "every registered function pointer is legitimate");
    // The probes reach every miss path of the three lookups.
    let probes = sparse_probes();
    let mode = WorkingMode::Protection;
    let case = Case { device: &device, compiled: &compiled, steps: &probes, mode, degraded: true };
    let raised: BTreeSet<String> = drive(&case, Side::COMPILED)
        .0
        .iter()
        .flat_map(IoVerdict::violations)
        .map(|v| format!("{v:?}").split([' ', '{']).next().unwrap_or_default().to_string())
        .collect();
    for kind in ["UnknownCommand", "UnknownSwitchTarget", "IndirectTarget", "UntracedPath"] {
        assert!(raised.contains(kind), "no probe raised {kind}: {raised:?}");
    }

    let benign = sparse_benign(7);
    let mutator = Mutator::new(device.regions.clone());
    let mut streams = vec![benign.clone(), sparse_probes()];
    streams.extend((0..6).map(|seed| mutator.mutate(&benign, None, &mut FuzzRng::new(seed))));
    for steps in &streams {
        for mode in [WorkingMode::Protection, WorkingMode::Enhancement] {
            for degraded in [false, true] {
                let case = Case { device: &device, compiled: &compiled, steps, mode, degraded };
                assert_lockstep(&case, Side::COMPILED, Side::INTERPRETED)
                    .unwrap_or_else(|e| panic!("{e}"));
            }
            let case = Case { device: &device, compiled: &compiled, steps, mode, degraded: false };
            for chunk in [1, 7, 256] {
                for (a, b) in batch_and_sink_pairs(chunk) {
                    assert_lockstep(&case, a, b).unwrap_or_else(|e| panic!("{e}"));
                }
            }
        }
    }
}
