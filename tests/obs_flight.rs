//! Violation flight recorder, end to end: enforcing a CVE PoC with an
//! observability hub attached must freeze a forensic record for every
//! halt — the walked ES-block path (labelled from the compiled
//! specification), the shadow-state byte diff of the aborted round,
//! and the scope's recent trace events — while the paper's documented
//! miss (CVE-2016-1568) must leave the flight recorder empty. A
//! degraded (warn-only) enforcer records the same violations as
//! `Warned`.

use std::sync::Arc;

use sedspec::checker::WorkingMode;
use sedspec::collect::apply_step;
use sedspec::enforce::{EnforcingDevice, IoVerdict};
use sedspec::pipeline::{train_script, TrainingConfig};
use sedspec::spec::ExecutionSpecification;
use sedspec_dbl::interp::ExecLimits;
use sedspec_repro::devices::{build_device, DeviceKind, QemuVersion};
use sedspec_repro::obs::{ObsHub, ScopeInfo, TraceEventKind, VerdictKind};
use sedspec_repro::vmm::VmContext;
use sedspec_repro::workloads::attacks::{poc, Cve};
use sedspec_repro::workloads::generators::training_suite;

fn trained(kind: DeviceKind, version: QemuVersion) -> ExecutionSpecification {
    let mut device = build_device(kind, version);
    let mut ctx = VmContext::new(0x200000, 8192);
    let suite = training_suite(kind, 60, 0x7a11);
    train_script(&mut device, &mut ctx, &suite, &TrainingConfig::default()).unwrap()
}

/// Replays `cve`'s PoC under observed protection-mode enforcement,
/// optionally in warn-only degraded mode. Returns the hub and whether
/// a halt was reached.
fn run_poc_observed(cve: Cve, degraded: bool) -> (Arc<ObsHub>, bool) {
    let p = poc(cve);
    let spec = trained(p.device, p.qemu_version);
    let mut device = build_device(p.device, p.qemu_version);
    device.set_limits(ExecLimits { max_steps: 50_000, ..ExecLimits::default() });
    let hub = Arc::new(ObsHub::new());
    let mut enforcer = EnforcingDevice::new(device, spec, WorkingMode::Protection)
        .with_sink(hub.sink(ScopeInfo::device(p.device.to_string())));
    if degraded {
        enforcer.degrade();
    }
    let mut ctx = VmContext::new(0x200000, 8192);
    let mut halted = false;
    for step in &p.steps {
        let Some(req) = apply_step(step, &mut ctx) else { continue };
        if matches!(enforcer.handle_io(&mut ctx, req), IoVerdict::Halted { .. }) {
            halted = true;
            break;
        }
    }
    (hub, halted)
}

#[test]
fn every_halting_cve_poc_yields_a_forensic_record() {
    for cve in Cve::all() {
        let (hub, halted) = run_poc_observed(cve, false);
        assert!(halted, "{}: the PoC must halt under protection", cve.id());
        let records = hub.forensics();
        assert!(!records.is_empty(), "{}: halt must freeze a flight record", cve.id());

        let last = records.last().unwrap();
        assert_eq!(last.data.verdict, VerdictKind::Halted, "{}", cve.id());
        assert!(last.round > 0, "{}: record must carry the originating round", cve.id());
        let violated = last
            .data
            .violated
            .as_ref()
            .unwrap_or_else(|| panic!("{}: the record must name the violated block", cve.id()));

        // The rendered record is the operator-facing dump: it must name
        // the violated block and include the walked path and the
        // shadow-state diff of the aborted round.
        let text = last.render();
        assert!(
            text.contains(&format!("violated block: p{}/b{}", violated.program, violated.block)),
            "{}: render must name the violated block:\n{text}",
            cve.id()
        );
        assert!(text.contains("walked block path"), "{}:\n{text}", cve.id());
        assert!(text.contains("shadow diff"), "{}:\n{text}", cve.id());
        assert!(text.contains("recent events"), "{}:\n{text}", cve.id());

        // Path steps carry the specification's block labels so the
        // record reads without the spec at hand.
        for step in &last.data.block_path {
            assert!(!step.label.is_empty(), "{}: unlabelled path step {step}", cve.id());
        }

        // The frozen trace tail shows the walk approaching the halt (a
        // long fatal round may scroll its own RoundBegin out of the
        // fixed-size freeze window, but the block steps remain).
        assert!(!last.recent.is_empty(), "{}", cve.id());
        assert!(
            last.recent.iter().any(|e| matches!(
                e.kind,
                TraceEventKind::BlockStep { .. } | TraceEventKind::RoundBegin { .. }
            )),
            "{}: frozen tail must show the walk in progress",
            cve.id()
        );
    }
}

/// A degraded tenant is warn-only, but its violations are still frozen
/// into flight records: every PoC that halts a healthy enforcer leaves
/// a `Warned` record naming the violated block on a degraded one.
#[test]
fn degraded_enforcers_keep_their_flight_records() {
    for cve in Cve::all() {
        let (hub, halted) = run_poc_observed(cve, true);
        assert!(!halted, "{}: a degraded enforcer must never halt", cve.id());
        let records = hub.forensics();
        let warned = records
            .iter()
            .find(|r| r.data.verdict == VerdictKind::Warned && r.data.violated.is_some())
            .unwrap_or_else(|| panic!("{}: a degraded violation must freeze a record", cve.id()));
        let violated = warned.data.violated.as_ref().unwrap();
        let text = warned.render();
        assert!(
            text.contains(&format!("violated block: p{}/b{}", violated.program, violated.block)),
            "{}: render must name the violated block:\n{text}",
            cve.id()
        );
    }
}

#[test]
fn forensic_records_survive_an_injected_sink_fault() {
    use sedspec_repro::fleet::{FaultAction, FaultKind, FaultPoint, FaultSite, FaultySink};

    /// Stalls every obs-sink delivery (zero sleep, marker still
    /// emitted), modelling a slow/contended telemetry backend.
    #[derive(Debug)]
    struct StallEverySinkEvent;

    impl FaultPoint for StallEverySinkEvent {
        fn check(&self, site: &FaultSite) -> FaultAction {
            if site.kind == FaultKind::ObsSinkStall {
                FaultAction::Stall(0)
            } else {
                FaultAction::Proceed
            }
        }
    }

    let p = poc(Cve::Cve2015_3456);
    let spec = trained(p.device, p.qemu_version);
    let mut device = build_device(p.device, p.qemu_version);
    device.set_limits(ExecLimits { max_steps: 50_000, ..ExecLimits::default() });
    let hub = Arc::new(ObsHub::new());
    let faulty = Arc::new(FaultySink::new(
        hub.sink(ScopeInfo::device(p.device.to_string())),
        Arc::new(StallEverySinkEvent),
        Some(0),
    ));
    let mut enforcer =
        EnforcingDevice::new(device, spec, WorkingMode::Protection).with_sink(faulty);
    let mut ctx = VmContext::new(0x200000, 8192);
    let mut halted = false;
    for step in &p.steps {
        let Some(req) = apply_step(step, &mut ctx) else { continue };
        if matches!(enforcer.handle_io(&mut ctx, req), IoVerdict::Halted { .. }) {
            halted = true;
            break;
        }
    }
    assert!(halted, "Venom must still halt with a faulted sink");

    // Observability under fault degrades (late, marker-annotated) but
    // loses nothing: the halt's forensic record is intact and renders
    // like the clean-sink record.
    let records = hub.forensics();
    assert!(!records.is_empty(), "the stalled sink must still deliver the forensic record");
    let last = records.last().unwrap();
    assert_eq!(last.data.verdict, VerdictKind::Halted);
    assert!(last.data.violated.is_some(), "the record must still name the violated block");
    assert!(last.render().contains("shadow diff"));

    // The blast radius is visible in the same trace: every stall left
    // an injection marker, and the fault metric counted them.
    let events = hub.recent_events(4096);
    let markers =
        events.iter().filter(|e| matches!(e.kind, TraceEventKind::FaultInjected { .. })).count();
    assert!(markers > 0, "stalls must leave FaultInjected markers in the trace");
    // The metric saw every stall; the trace ring may have scrolled
    // early markers out, so it only bounds the metric from below.
    assert!(
        hub.metrics().sum_counter("sedspec_faults_injected_total") >= markers as u64,
        "the fault metric must count at least the markers still in the ring"
    );
}

#[test]
fn the_documented_miss_leaves_no_flight_record() {
    let (hub, halted) = run_poc_observed(Cve::Cve2016_1568, false);
    assert!(!halted, "CVE-2016-1568 is the paper's documented miss");
    assert!(hub.forensics().is_empty(), "a PoC that evades detection must not fabricate forensics");
    // The rounds themselves were still traced.
    assert!(hub.metrics().sum_counter("sedspec_rounds_total") > 0);
}
