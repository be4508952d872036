//! Deploying the ES-Checker in front of a device (Figure 1 phase 3).
//!
//! [`EnforcingDevice`] intercepts every I/O interaction. If the
//! specification walk completes without sync points, the verdict is
//! rendered **before** the device executes (the paper's early-detection
//! property); otherwise the device runs under observation points, the
//! recorded sync values complete the walk, and the verdict is rendered
//! post-hoc (the granularity deviation from the paper's mid-handler sync
//! functions is documented in DESIGN.md).
//!
//! The wrapper also charges virtual time for checking work, which is
//! what the performance experiments of Figures 3–5 measure.

use std::sync::Arc;

use sedspec_dbl::interp::{ExecOutcome, Fault};
use sedspec_devices::Device;
use sedspec_obs::{ForensicData, ObsSink, PathStep, ShadowDelta, TraceEventKind, VerdictKind};
use sedspec_vmm::{IoRequest, VmContext};

use crate::checker::{
    BatchOutcome, CheckConfig, EsChecker, NoSync, RecordedSync, RoundReport, Strategy,
    SyncProvider, Violation, WalkResult, WorkingMode,
};
use crate::compiled::CompiledSpec;
use crate::observe::Observer;
use crate::spec::ExecutionSpecification;

/// The round ledger; defined beside the sink that exports it.
pub use sedspec_obs::EnforceStats;

/// Virtual nanoseconds charged per walked ES block. The spec walk is a
/// table-driven graph traversal, roughly an order of magnitude lighter
/// than emulating the block.
pub const CHECK_BLOCK_NS: u64 = 1;
/// Virtual nanoseconds charged per consumed sync value.
pub const CHECK_SYNC_NS: u64 = 10;
/// Fixed virtual nanoseconds charged per checked round.
pub const CHECK_ROUND_NS: u64 = 15;

/// The outcome of one enforced I/O interaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoVerdict {
    /// No anomaly; the device serviced the request.
    Allowed(ExecOutcome),
    /// The checker found no violation but the device crashed — a missed
    /// detection (ground truth for the evaluation).
    DeviceFault {
        /// The device fault description.
        fault: String,
        /// Violations found post-hoc, if any.
        violations: Vec<Violation>,
    },
    /// The device (and VM) was halted.
    Halted {
        /// The violations that triggered the halt.
        violations: Vec<Violation>,
        /// Whether the device had already executed the request (post-hoc
        /// detection through a sync point).
        executed: bool,
    },
    /// Enhancement mode: anomaly warned, execution continued.
    Warned {
        /// The violations warned about.
        violations: Vec<Violation>,
        /// The device outcome, when it completed.
        outcome: Option<ExecOutcome>,
    },
}

impl IoVerdict {
    /// Whether the round was detected as anomalous (halted or warned).
    pub fn flagged(&self) -> bool {
        matches!(self, IoVerdict::Halted { .. } | IoVerdict::Warned { .. })
    }

    /// The violations attached to the verdict.
    pub fn violations(&self) -> &[Violation] {
        match self {
            IoVerdict::Allowed(_) => &[],
            IoVerdict::DeviceFault { violations, .. }
            | IoVerdict::Halted { violations, .. }
            | IoVerdict::Warned { violations, .. } => violations,
        }
    }
}

/// Summarizes a verdict for the trace (drops the payloads).
fn verdict_kind(v: &IoVerdict) -> VerdictKind {
    match v {
        IoVerdict::Allowed(_) => VerdictKind::Allowed,
        IoVerdict::DeviceFault { .. } => VerdictKind::DeviceFault,
        IoVerdict::Halted { .. } => VerdictKind::Halted,
        IoVerdict::Warned { .. } => VerdictKind::Warned,
    }
}

/// The verdict of a device run no violation stands against.
fn serviced(result: Result<ExecOutcome, Fault>) -> IoVerdict {
    match result {
        Ok(out) => IoVerdict::Allowed(out),
        Err(f) => IoVerdict::DeviceFault { fault: f.to_string(), violations: Vec::new() },
    }
}

/// Which walk implementation an [`EnforcingDevice`] runs per round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Engine {
    /// In-place journaled walk over the [`CompiledSpec`] (the only
    /// engine production selects, degraded tenants included).
    #[default]
    Compiled,
    /// The interpreted reference walk, cloning the shadow per round:
    /// the oracle of the differential equivalence suite and the
    /// denominator of the checker benchmarks. Verdicts and statistics
    /// are identical; its forensic records carry no walked path or
    /// shadow diff (it keeps no journal).
    Interpreted,
}

/// A device with an ES-Checker enforcing its execution specification.
#[derive(Debug)]
pub struct EnforcingDevice {
    /// The wrapped device.
    pub device: Device,
    checker: EsChecker,
    /// Working mode.
    pub mode: WorkingMode,
    /// Accumulated statistics.
    pub stats: EnforceStats,
    halted: bool,
    engine: Engine,
    /// Warn-only survival mode: set by [`EnforcingDevice::degrade`]
    /// after a compiled-engine fault. Violations are still detected and
    /// reported, but never halt the device.
    degraded: bool,
    /// The interpreted walk's tentative post-round state, held until
    /// the round commits or aborts (always `None` on the compiled
    /// engine, whose walk journals in place).
    pending: Option<WalkResult>,
    /// Reused across synced rounds; `begin` clears the event buffer.
    observer: Observer,
    /// Observability sink; also forwarded to the checker.
    sink: Option<Arc<dyn ObsSink>>,
    /// Wall-clock ns spent in spec walks this round (sink-enabled only).
    walk_ns: u64,
    /// Program indices routed while feeding the batched pre-walk,
    /// replayed by the execute loop so each round routes exactly once.
    route_buf: Vec<usize>,
}

impl EnforcingDevice {
    /// Wraps `device` with a checker enforcing `spec` in `mode`.
    pub fn new(device: Device, spec: ExecutionSpecification, mode: WorkingMode) -> Self {
        Self::new_compiled(device, Arc::new(CompiledSpec::compile(Arc::new(spec))), mode)
    }

    /// Wraps `device` with a checker over an already-compiled
    /// specification (the fleet path: one compile per published
    /// revision, shared by every tenant).
    pub fn new_compiled(device: Device, compiled: Arc<CompiledSpec>, mode: WorkingMode) -> Self {
        let checker = EsChecker::from_compiled(compiled, device.control.clone());
        EnforcingDevice {
            device,
            checker,
            mode,
            stats: EnforceStats::default(),
            halted: false,
            engine: Engine::default(),
            degraded: false,
            pending: None,
            observer: Observer::new(),
            sink: None,
            walk_ns: 0,
            route_buf: Vec::new(),
        }
    }

    /// Replaces the strategy configuration (for per-strategy experiments).
    pub fn with_config(mut self, config: CheckConfig) -> Self {
        self.checker = self.checker.with_config(config);
        self
    }

    /// Attaches (or detaches) the observability sink, forwarding it to
    /// the checker. With no sink every instrumentation site is a single
    /// predictable branch.
    pub fn set_sink(&mut self, sink: Option<Arc<dyn ObsSink>>) {
        self.checker.set_sink(sink.clone());
        self.sink = sink;
    }

    /// Builder form of [`EnforcingDevice::set_sink`].
    pub fn with_sink(mut self, sink: Arc<dyn ObsSink>) -> Self {
        self.set_sink(Some(sink));
        self
    }

    /// Selects the walk engine (compiled by default; the interpreted
    /// engine is the oracle for tests and benchmarks).
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Switches to warn-only mode: the graceful-degradation response to
    /// a compiled-engine fault. Checking continues on the same engine —
    /// violations are still walked, counted, reported and recorded as
    /// forensics — but the device is never halted, so a benign tenant
    /// survives an enforcement-side failure. Also clears an existing
    /// halt latch so the device can keep serving.
    pub fn degrade(&mut self) {
        self.degraded = true;
        self.halted = false;
    }

    /// Whether a halt verdict has stopped the device.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Clears the halt latch (test harnesses re-arm between cases).
    pub fn reset_halt(&mut self) {
        self.halted = false;
    }

    /// The checker (for inspection).
    pub fn checker(&self) -> &EsChecker {
        &self.checker
    }

    /// Mutable checker access (shadow resync, reconfiguration).
    pub fn checker_mut(&mut self) -> &mut EsChecker {
        &mut self.checker
    }

    fn should_halt(&self, violations: &[Violation]) -> bool {
        if self.degraded {
            // Degraded mode is warn-only by contract: enforcement keeps
            // observing but never stops a possibly-benign tenant on the
            // strength of a faulted engine.
            return false;
        }
        match self.mode {
            WorkingMode::Protection => !violations.is_empty(),
            WorkingMode::Enhancement => {
                violations.iter().any(|v| v.strategy() == Strategy::Parameter)
            }
        }
    }

    fn charge(&mut self, ctx: &mut VmContext, report: &RoundReport, base: bool) {
        self.stats.check_blocks += report.blocks_walked;
        self.stats.check_syncs += report.syncs_used;
        ctx.clock.advance_ns(
            if base { CHECK_ROUND_NS } else { 0 }
                + CHECK_BLOCK_NS * report.blocks_walked
                + CHECK_SYNC_NS * report.syncs_used
                + report.sync_bytes / 16, // shadow content replay (memcpy speed)
        );
    }

    /// Services one I/O interaction under enforcement. An attached sink
    /// gets the call's ledger delta once, on exit (`ObsSink::counts`).
    pub fn handle_io(&mut self, ctx: &mut VmContext, req: &IoRequest) -> IoVerdict {
        let before = self.stats;
        let verdict = self.io(ctx, req);
        if let Some(sink) = &self.sink {
            sink.counts(&self.stats.since(&before));
        }
        verdict
    }

    /// [`EnforcingDevice::handle_io`] without publishing: the batch re-drive.
    fn io(&mut self, ctx: &mut VmContext, req: &IoRequest) -> IoVerdict {
        self.stats.rounds += 1;
        if self.halted {
            return IoVerdict::Halted { violations: Vec::new(), executed: false };
        }
        match self.device.route(req) {
            Some(pi) => self.enforce_round(ctx, req, pi),
            // Unclaimed requests bypass the checker, as they bypass the device.
            None => serviced(self.device.handle_io(ctx, req)),
        }
    }

    /// Services a prefix of `reqs` in one batched submission, pushing
    /// one verdict per serviced request and returning how many were
    /// consumed (always ≥ 1 for a non-empty slice; callers loop until
    /// the run is drained).
    ///
    /// The fast path pre-walks the whole run through
    /// [`EsChecker::walk_batch`] — journal setup, scope promotion and
    /// commit amortized across the run — then executes the device for
    /// every clean pre-checked round in submission order. This is
    /// behavior-identical to per-round [`EnforcingDevice::handle_io`]:
    /// specification walks never read the VM context, devices only
    /// advance the virtual clock (all checking charges are additive),
    /// and any round that raises a violation or suspends at a sync
    /// point stops the batch and is re-driven through the sequential
    /// path, so verdicts, statistics and halt ordering come out
    /// exactly as if the run had been submitted round by round.
    ///
    /// Falls back to one sequential round per call when batching would
    /// change observable behavior or buy nothing: an attached obs sink
    /// (rounds need `RoundBegin`/`RoundEnd` brackets), the interpreted
    /// reference engine, a halted or single-request stream, or an
    /// unrouted (checker-bypassing) head request.
    ///
    /// With a sink attached each call is one round through
    /// [`EnforcingDevice::handle_io`], which publishes the call's
    /// [`EnforceStats`] delta; the sink-less batched path publishes none.
    pub fn handle_batch(
        &mut self,
        ctx: &mut VmContext,
        reqs: &[&IoRequest],
        verdicts: &mut Vec<IoVerdict>,
    ) -> usize {
        if reqs.is_empty() {
            return 0;
        }
        if self.sink.is_some()
            || matches!(self.engine, Engine::Interpreted)
            || self.halted
            || reqs.len() == 1
        {
            let v = self.handle_io(ctx, reqs[0]);
            verdicts.push(v);
            return 1;
        }
        let mut out = BatchOutcome::default();
        {
            let device = &self.device;
            let route_buf = &mut self.route_buf;
            route_buf.clear();
            self.checker.walk_batch(
                reqs.iter().map_while(|r| {
                    device.route(r).map(|pi| {
                        route_buf.push(pi);
                        (pi, *r)
                    })
                }),
                &mut out,
            );
        }
        let stopped = out.stopper.is_some();
        if out.committed == 0 && !stopped {
            // Unrouted head request: bypass round via the sequential path.
            self.checker.commit_batch();
            let v = self.io(ctx, reqs[0]);
            verdicts.push(v);
            return 1;
        }
        // Charge the clean pre-checked prefix: identical accounting to
        // `committed` sequential precheck-complete rounds (no-sync
        // walks consume no sync values, so only the round base and the
        // per-block cost apply).
        let n = out.committed as u64;
        self.stats.rounds += n;
        self.stats.precheck_complete += n;
        self.stats.check_blocks += out.blocks_walked;
        ctx.clock.advance_ns(CHECK_ROUND_NS * n + CHECK_BLOCK_NS * out.blocks_walked);
        if stopped {
            // Roll the stopper's open shadow writes back to the batch
            // watermark before finalizing the committed prefix.
            self.checker.abort_round();
        }
        self.checker.commit_batch();
        for (req, pi) in reqs[..out.committed].iter().zip(&self.route_buf) {
            verdicts.push(serviced(self.device.handle_io_routed(ctx, req, *pi)));
        }
        if stopped {
            // Re-drive the stopping round sequentially: the walk is
            // deterministic over the committed shadow, so it reproduces
            // the same outcome while taking the full slow machinery
            // (sync re-walk, forensics, halt/warn/abort accounting).
            let v = self.io(ctx, reqs[out.committed]);
            verdicts.push(v);
            return out.committed + 1;
        }
        out.committed
    }

    /// One enforced round of routed program `pi`: the ES-Checker's
    /// round protocol (Figure 1 phase 3), for either engine, with or
    /// without a sink.
    ///
    /// The pre-execution walk renders the verdict before the device
    /// runs. A walk that suspends at a sync point is aborted, the
    /// device runs under observation, and the walk is redone over the
    /// recorded sync values. A clean walk commits; a flagged one
    /// freezes its forensics, aborts, and halts or warns. With a sink
    /// attached the round is bracketed by `RoundBegin`/`RoundEnd`
    /// events carrying the verdict, this round's block/sync tallies
    /// and the wall-clock nanoseconds spent inside the walks.
    fn enforce_round(&mut self, ctx: &mut VmContext, req: &IoRequest, pi: usize) -> IoVerdict {
        let sink = self.sink.clone();
        let (blocks0, syncs0) = (self.stats.check_blocks, self.stats.check_syncs);
        if let Some(sink) = &sink {
            sink.event(TraceEventKind::RoundBegin { program: pi as u32 });
            self.walk_ns = 0;
        }
        let verdict = 'round: {
            // Phase 1: pre-execution walk.
            let pre = self.walk(pi, req, &mut NoSync);
            self.charge(ctx, &pre, true);
            // Phase 2, when the walk needs sync data: roll the partial
            // walk back, run the device under observation, then re-walk
            // with the recorded sync values. `ran` holds the device's
            // result once it has executed.
            let (report, ran) = if pre.needs_sync {
                self.abort();
                self.stats.aborts += 1;
                self.stats.synced_rounds += 1;
                self.observer.begin(pi, req);
                let result = self.device.handle_io_hooked(ctx, req, &mut self.observer);
                let round_log =
                    self.observer.end(result.as_ref().err().map(std::string::ToString::to_string));
                let post = self.walk(pi, req, &mut RecordedSync::from_round(&round_log));
                self.charge(ctx, &post, false);
                (post, Some(result))
            } else {
                (pre, None)
            };

            if report.ok() && !report.needs_sync {
                self.commit();
                let result = ran.unwrap_or_else(|| {
                    self.stats.precheck_complete += 1;
                    self.device.handle_io(ctx, req)
                });
                break 'round serviced(result);
            }

            let violations = report.violations;
            let executed = ran.is_some();
            let halt = self.should_halt(&violations);
            // Freeze forensics while the undo journal still holds the
            // round's shadow writes; the abort replays and clears it.
            self.emit_forensics(
                &violations,
                if halt { VerdictKind::Halted } else { VerdictKind::Warned },
                executed,
                pi,
            );
            self.abort();
            self.stats.aborts += 1;
            if halt {
                self.halted = true;
                self.stats.halts += 1;
                break 'round IoVerdict::Halted { violations, executed };
            }
            let result = ran.unwrap_or_else(|| self.device.handle_io(ctx, req));
            match (result, violations.is_empty()) {
                // Sync data ran out without a verdict: the device
                // diverged from every trained path (it may have crashed
                // mid-round).
                (Err(f), true) => IoVerdict::DeviceFault { fault: f.to_string(), violations },
                (Ok(out), true) => {
                    self.checker.resync_shadow(&self.device.state);
                    IoVerdict::Allowed(out)
                }
                (result, false) => {
                    self.stats.warnings += 1;
                    self.checker.resync_shadow(&self.device.state);
                    IoVerdict::Warned { violations, outcome: result.ok() }
                }
            }
        };
        if let Some(sink) = &sink {
            sink.event(TraceEventKind::RoundEnd {
                verdict: verdict_kind(&verdict),
                blocks: self.stats.check_blocks - blocks0,
                syncs: self.stats.check_syncs - syncs0,
                walk_ns: self.walk_ns,
            });
        }
        verdict
    }

    /// Walks round `pi` on the selected engine, timed when a sink is
    /// attached. Settle the walk with [`EnforcingDevice::commit`] or
    /// [`EnforcingDevice::abort`].
    fn walk(&mut self, pi: usize, req: &IoRequest, sync: &mut dyn SyncProvider) -> RoundReport {
        let t0 = self.sink.is_some().then(std::time::Instant::now);
        let report = match self.engine {
            Engine::Compiled => self.checker.walk_round_fast(pi, req, sync),
            Engine::Interpreted => {
                let mut walked = self.checker.walk_round(pi, req, sync);
                let report = std::mem::take(&mut walked.report);
                self.pending = Some(walked);
                report
            }
        };
        if let Some(t0) = t0 {
            self.walk_ns += t0.elapsed().as_nanos() as u64;
        }
        report
    }

    /// Accepts the last walk: keeps its shadow writes and command scope.
    fn commit(&mut self) {
        match self.engine {
            Engine::Compiled => self.checker.commit_round(),
            Engine::Interpreted => {
                if let Some(walked) = self.pending.take() {
                    self.checker.commit(&walked);
                }
            }
        }
    }

    /// Rejects the last walk: the shadow and command scope stay as they
    /// were before it.
    fn abort(&mut self) {
        match self.engine {
            Engine::Compiled => self.checker.abort_round(),
            Engine::Interpreted => self.pending = None,
        }
    }

    /// Assembles and emits the forensic payload of a flagged round:
    /// the walked block path with labels from the compiled spec, the
    /// violated block, and the shadow byte diff still held in the undo
    /// journal. Must run *before* the abort replays the journal.
    fn emit_forensics(
        &self,
        violations: &[Violation],
        verdict: VerdictKind,
        executed: bool,
        pi: usize,
    ) {
        let Some(sink) = &self.sink else { return };
        if violations.is_empty() || !sink.wants_forensics() {
            return;
        }
        let spec = self.checker.compiled().spec();
        let label_of = |program: usize, block: u32| -> String {
            spec.cfgs
                .get(program)
                .and_then(|c| c.blocks.get(block as usize))
                .map(|b| b.label.clone())
                .unwrap_or_default()
        };
        let block_path: Vec<PathStep> = self
            .checker
            .last_walk_path()
            .iter()
            .map(|&b| PathStep { program: pi as u32, block: b, label: label_of(pi, b) })
            .collect();
        let first = &violations[0];
        let (vp, vb) = first.site();
        let violated = vb.map(|b| PathStep {
            program: vp as u32,
            block: b,
            label: first.label().map_or_else(|| label_of(vp, b), str::to_string),
        });
        let control = self.checker.control();
        let shadow_diff: Vec<ShadowDelta> = self
            .checker
            .walk_shadow_diff()
            .into_iter()
            .map(|(offset, old, new)| {
                let field = match control.field_at(offset as usize) {
                    Some((name, 0)) => name.to_string(),
                    Some((name, at)) => format!("{name}[+{at}]"),
                    None => "?".to_string(),
                };
                ShadowDelta { offset, field, old, new }
            })
            .collect();
        sink.violation(ForensicData {
            verdict,
            strategy: format!("{:?}", first.strategy()),
            violation: format!("{first:?}"),
            violated,
            executed,
            block_path,
            shadow_diff,
        });
    }
}
