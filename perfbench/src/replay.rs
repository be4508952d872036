//! The traced replay: the e2e run's request stream again, one request
//! at a time, with a span around every call into a layer's public
//! functions. Nothing inside the program is instrumented; every span
//! wraps a call made from this file.
//!
//! Each request walks the served path's layers in order: client encode,
//! server decode, `Daemon::handle` (on a second daemon, not bound to a
//! socket), server response encode, a socket round trip carrying frames
//! of the same sizes, and client response decode. The pool call inside
//! `Daemon::handle` is private, so the request also runs on a twin
//! `EnforcementPool` (span `pool.run_batch_reliable`, child of
//! `daemon.handle`); the pool's tenant loop is private too, so a twin of
//! it built from the public pieces the pool itself calls (`apply_step`,
//! `Device::route`, `EnforcingDevice::handle_batch`, `SnapshotRing`)
//! supplies the enforcer, snapshot and rollback spans (children of the
//! pool span). A parent's self time is its duration minus its
//! children's durations. Every instance must answer every request with
//! the `BatchReport` the e2e run got.
//!
//! Two more twins give the paper tie-back on the same rounds: the
//! tenant loop with no obs sink, and the bare devices with no checker.

use std::collections::HashMap;
use std::io::Write as _;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sedspec::collect::{apply_step, TrainStep};
use sedspec::compiled::CompiledSpec;
use sedspec::enforce::{EnforceStats, EnforcingDevice, IoVerdict};
use sedspec::pipeline::deploy_compiled;
use sedspec::response::{highest_alert, AlertLevel, SnapshotRing};
use sedspec::spec::ExecutionSpecification;
use sedspec_analysis::{analyze, AnalysisContext};
use sedspec_devices::{build_device, Device, DeviceKind};
use sedspec_fleet::pool::{BatchReport, EnforcementPool, TenantConfig, TenantId};
use sedspec_fleet::registry::SpecRegistry;
use sedspec_obs::{ObsHub, ObsSink, ScopeInfo, TraceEventKind, WindowConfig};
use sedspec_vmm::{IoRequest, VmContext};
use sedspecd::proto::{
    parse_request, read_frame, read_response, write_frame, write_request, write_response,
};
use sedspecd::PROTOCOL_VERSION;
use sedspecd::{Daemon, DaemonConfig, DurableStore, Request, RequestBody, ResponseBody, WalRecord};

use crate::inputs::{self, Expect, Op, TrainedSpec};
use crate::load::check_report;
use crate::stats::{prom_sum, ratio};

/// Worker shards of the daemon under test (`DaemonConfig::new`).
const SHARDS: usize = 2;
/// Spans written to the spans file at most.
const MAX_SPANS_WRITTEN: usize = 200_000;

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn device_index(kind: DeviceKind) -> usize {
    DeviceKind::all().iter().position(|k| *k == kind).expect("known device")
}

/// Metric-name slug of a device.
pub fn device_slug(kind: DeviceKind) -> &'static str {
    match kind {
        DeviceKind::Fdc => "fdc",
        DeviceKind::UsbEhci => "usb-ehci",
        DeviceKind::Pcnet => "pcnet",
        DeviceKind::Sdhci => "sdhci",
        DeviceKind::Scsi => "scsi",
    }
}

/// One timed call: name, start, end, causing span, request id.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    request: u32,
}

/// Spans kept in memory and written when the run ends.
struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn now(&self) -> u64 {
        nanos(self.origin.elapsed())
    }

    fn begin(&mut self, name: &'static str, request: u32, parent: Option<u32>) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
        u32::try_from(self.spans.len() - 1).expect("fewer than 2^32 spans")
    }

    /// Closes a span and returns its duration in ns.
    fn end(&mut self, id: u32) -> u64 {
        let now = self.now();
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        now - span.start_ns
    }

    /// Cost of one `begin`/`end` pair, in ns, measured on throwaway
    /// spans.
    fn calibrate(&mut self) -> f64 {
        const N: u32 = 20_000;
        let kept = self.spans.len();
        let start = Instant::now();
        for _ in 0..N {
            let s = self.begin("calibrate", u32::MAX, None);
            self.end(s);
        }
        let per = start.elapsed().as_nanos() as f64 / f64::from(N);
        self.spans.truncate(kept);
        per
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.iter().take(MAX_SPANS_WRITTEN) {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.request
            )?;
        }
        out.flush()
    }
}

/// Wall and virtual time one device spent on its rounds.
#[derive(Debug, Default, Clone, Copy)]
struct DevTime {
    wall_ns: u64,
    vclock_ns: u64,
    rounds: u64,
}

/// What one request cost inside a tenant twin.
#[derive(Debug, Default)]
struct TwinCost {
    enforce_ns: u64,
    capture_ns: u64,
    rollback_ns: u64,
    rollbacks: u64,
    flagged_ns: u64,
    flagged_calls: u64,
    batched_rounds: u64,
    per_device: [DevTime; 5],
}

/// Span names of a tenant twin.
struct TwinNames {
    enforce: &'static str,
    capture: &'static str,
    rollback: &'static str,
}

const OBSERVED: TwinNames = TwinNames {
    enforce: "enforce.handle_batch",
    capture: "pool.snapshot_capture",
    rollback: "response.rollback",
};
const UNOBSERVED: TwinNames = TwinNames {
    enforce: "twin.unobserved.handle_batch",
    capture: "twin.unobserved.snapshot_capture",
    rollback: "twin.unobserved.rollback",
};

struct TwinSlot {
    device: usize,
    enforcer: EnforcingDevice,
    ring: SnapshotRing,
    sink: Option<Arc<dyn ObsSink>>,
}

/// One tenant run the way a pool shard worker runs it, from the public
/// pieces the worker uses.
struct Twin {
    tenant: TenantId,
    ctx: VmContext,
    slots: Vec<TwinSlot>,
    rollback_budget: u32,
    rollbacks_used: u32,
    quarantined: bool,
}

fn stats_delta(a: &EnforceStats, b: &EnforceStats) -> EnforceStats {
    EnforceStats {
        rounds: a.rounds - b.rounds,
        precheck_complete: a.precheck_complete - b.precheck_complete,
        synced_rounds: a.synced_rounds - b.synced_rounds,
        warnings: a.warnings - b.warnings,
        halts: a.halts - b.halts,
        aborts: a.aborts - b.aborts,
        check_blocks: a.check_blocks - b.check_blocks,
        check_syncs: a.check_syncs - b.check_syncs,
    }
}

impl Twin {
    fn build(
        cfg: &TenantConfig,
        registry: &SpecRegistry,
        hub: Option<&Arc<ObsHub>>,
    ) -> Result<Twin, String> {
        let shard = (cfg.tenant.0 % SHARDS as u64) as u32;
        let mut slots = Vec::with_capacity(cfg.devices.len());
        for &(kind, version) in &cfg.devices {
            let (_, compiled, _) = registry
                .current_compiled(kind, version)
                .ok_or_else(|| format!("no spec for {kind}/{version}"))?;
            let mut enforcer = deploy_compiled(build_device(kind, version), compiled, cfg.mode);
            let sink = hub.map(|hub| {
                let sink: Arc<dyn ObsSink> =
                    hub.sink(ScopeInfo::tenant_device(shard, cfg.tenant.0, kind.to_string()));
                enforcer.set_sink(Some(Arc::clone(&sink)));
                sink
            });
            let mut ring = SnapshotRing::new(cfg.snapshot_depth);
            ring.capture(&enforcer);
            slots.push(TwinSlot { device: device_index(kind), enforcer, ring, sink });
        }
        Ok(Twin {
            tenant: cfg.tenant,
            ctx: VmContext::new(cfg.mem_size, cfg.disk_sectors),
            slots,
            rollback_budget: cfg.rollback_budget,
            rollbacks_used: 0,
            quarantined: false,
        })
    }

    fn route(&self, req: &IoRequest) -> Option<usize> {
        self.slots.iter().position(|s| s.enforcer.device.route(req).is_some())
    }

    fn stats(&self) -> EnforceStats {
        let mut total = EnforceStats::default();
        for slot in &self.slots {
            total.merge(&slot.enforcer.stats);
        }
        total
    }

    fn release(&mut self) {
        self.quarantined = false;
        self.rollbacks_used = 0;
    }

    /// The shard worker's batch loop: same-device runs through
    /// `handle_batch`, rollback or quarantine on a halt, a snapshot of
    /// every slot after a batch that did not quarantine.
    fn run(
        &mut self,
        steps: &[TrainStep],
        spans: &mut Spans,
        names: &TwinNames,
        request: u32,
        parent: Option<u32>,
    ) -> (BatchReport, TwinCost) {
        let mut cost = TwinCost::default();
        if self.quarantined {
            let report = BatchReport {
                tenant: self.tenant,
                rounds: 0,
                flagged: 0,
                rollbacks: 0,
                quarantined: true,
                rejected: true,
                degraded: false,
                stats: EnforceStats::default(),
                alert: None,
            };
            return (report, cost);
        }
        let before = self.stats();
        let mut flagged = 0u64;
        let mut rollbacks = 0u32;
        let mut worst: Option<AlertLevel> = None;
        let mut run: Vec<&IoRequest> = Vec::new();
        let mut verdicts: Vec<IoVerdict> = Vec::new();
        let mut i = 0;
        'steps: while i < steps.len() {
            let Some(req) = apply_step(&steps[i], &mut self.ctx) else {
                i += 1;
                continue;
            };
            let Some(idx) = self.route(req) else {
                i += 1;
                continue;
            };
            run.clear();
            run.push(req);
            let mut j = i + 1;
            while j < steps.len() {
                let TrainStep::Io(next) = &steps[j] else { break };
                if self.route(next) != Some(idx) {
                    break;
                }
                run.push(next);
                j += 1;
            }
            i = j;
            let slot = &mut self.slots[idx];
            let mut consumed = 0;
            while consumed < run.len() {
                verdicts.clear();
                let synced = slot.enforcer.stats.synced_rounds;
                let vclock = self.ctx.clock.now_ns();
                let span = spans.begin(names.enforce, request, parent);
                let n = slot.enforcer.handle_batch(&mut self.ctx, &run[consumed..], &mut verdicts);
                let ns = spans.end(span);
                if n == 0 {
                    break;
                }
                consumed += n;
                cost.enforce_ns += ns;
                let dev = &mut cost.per_device[slot.device];
                dev.wall_ns += ns;
                dev.vclock_ns += self.ctx.clock.now_ns() - vclock;
                dev.rounds += n as u64;
                // A multi-round call committed its prefix through the
                // batched pre-walk; its last round was re-driven
                // sequentially when it synced or raised a violation.
                let redriven = slot.enforcer.stats.synced_rounds > synced
                    || verdicts.last().is_some_and(|v| !v.violations().is_empty());
                if n > 1 {
                    cost.batched_rounds += (n - usize::from(redriven)) as u64;
                }
                if verdicts.iter().any(IoVerdict::flagged) {
                    cost.flagged_ns += ns;
                    cost.flagged_calls += 1;
                }
                for verdict in verdicts.iter().filter(|v| v.flagged()) {
                    flagged += 1;
                    let level = highest_alert(verdict.violations());
                    worst = worst.max(level);
                    if let Some(sink) = &slot.sink {
                        sink.event(TraceEventKind::Alert {
                            level: level.map_or_else(|| "-".into(), |l| format!("{l:?}")),
                        });
                    }
                }
                if slot.enforcer.is_halted() {
                    let rolled_back = self.rollbacks_used < self.rollback_budget && {
                        let span = spans.begin(names.rollback, request, parent);
                        let done = slot.ring.rollback_latest(&mut slot.enforcer);
                        cost.rollback_ns += spans.end(span);
                        cost.rollbacks += 1;
                        done
                    };
                    if rolled_back {
                        self.rollbacks_used += 1;
                        rollbacks += 1;
                    } else {
                        self.quarantined = true;
                        break 'steps;
                    }
                }
            }
        }
        if !self.quarantined {
            let span = spans.begin(names.capture, request, parent);
            for slot in &mut self.slots {
                slot.ring.capture(&slot.enforcer);
            }
            cost.capture_ns = spans.end(span);
        }
        let after = self.stats();
        let report = BatchReport {
            tenant: self.tenant,
            rounds: after.rounds - before.rounds,
            flagged,
            rollbacks,
            quarantined: self.quarantined,
            rejected: false,
            degraded: false,
            stats: stats_delta(&after, &before),
            alert: worst,
        };
        (report, cost)
    }
}

/// A tenant's devices with no checker in front.
struct Bare {
    ctx: VmContext,
    devices: Vec<(usize, Device)>,
}

impl Bare {
    fn new(cfg: &TenantConfig) -> Bare {
        Bare {
            ctx: VmContext::new(cfg.mem_size, cfg.disk_sectors),
            devices: cfg
                .devices
                .iter()
                .map(|&(k, v)| (device_index(k), build_device(k, v)))
                .collect(),
        }
    }

    fn route(&self, req: &IoRequest) -> Option<usize> {
        self.devices.iter().position(|(_, d)| d.route(req).is_some())
    }

    /// Runs the batch's same-device runs on the bare devices.
    fn run(&mut self, steps: &[TrainStep], spans: &mut Spans, request: u32) -> [DevTime; 5] {
        let mut out = [DevTime::default(); 5];
        let mut i = 0;
        while i < steps.len() {
            let Some(req) = apply_step(&steps[i], &mut self.ctx) else {
                i += 1;
                continue;
            };
            let Some(idx) = self.route(req) else {
                i += 1;
                continue;
            };
            let mut j = i + 1;
            while j < steps.len() {
                let TrainStep::Io(next) = &steps[j] else { break };
                if self.route(next) != Some(idx) {
                    break;
                }
                j += 1;
            }
            let (device, target) = &mut self.devices[idx];
            let vclock = self.ctx.clock.now_ns();
            let span = spans.begin("twin.bare.handle_io", request, None);
            for step in &steps[i..j] {
                if let TrainStep::Io(r) = step {
                    let _ = target.handle_io(&mut self.ctx, r);
                }
            }
            let ns = spans.end(span);
            let dev = &mut out[*device];
            dev.wall_ns += ns;
            dev.vclock_ns += self.ctx.clock.now_ns() - vclock;
            dev.rounds += (j - i) as u64;
            i = j;
        }
        out
    }
}

/// A socket peer that answers each frame with the next queued reply:
/// the transport cost of a request/response pair of given sizes.
struct Echo {
    stream: UnixStream,
    replies: Option<mpsc::Sender<Vec<u8>>>,
    thread: Option<JoinHandle<()>>,
}

impl Echo {
    fn start() -> Result<Echo, String> {
        let (near, mut far) = UnixStream::pair().map_err(|e| format!("socket pair: {e}"))?;
        let (tx, rx) = mpsc::channel::<Vec<u8>>();
        let thread = std::thread::spawn(move || {
            while let Ok(reply) = rx.recv() {
                if read_frame(&mut far).is_err() || write_frame(&mut far, &reply).is_err() {
                    return;
                }
            }
        });
        Ok(Echo { stream: near, replies: Some(tx), thread: Some(thread) })
    }

    /// Queues the reply payload the peer sends after the next frame.
    fn queue(&self, reply: Vec<u8>) -> Result<(), String> {
        let tx = self.replies.as_ref().expect("echo running");
        tx.send(reply).map_err(|_| "echo peer exited".to_string())
    }

    /// Writes one frame and reads the peer's reply frame.
    fn round_trip(&mut self, payload: &[u8]) -> Result<(), String> {
        write_frame(&mut self.stream, payload).map_err(|e| format!("echo write: {e}"))?;
        read_frame(&mut self.stream).map(|_| ()).map_err(|e| format!("echo read: {e}"))
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        self.replies = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// What one replayed operation cost, layer by layer, in ns.
#[derive(Debug, Default)]
struct Cost {
    submit: bool,
    poc: bool,
    req_bytes: u64,
    encode: u64,
    decode: u64,
    handle: u64,
    resp_encode: u64,
    transport: u64,
    resp_decode: u64,
    pool: u64,
    retries: u64,
    observed: TwinCost,
    unobserved_ns: u64,
    bare: Option<[DevTime; 5]>,
    wal_ns: u64,
    wal_records: u64,
    report: Option<BatchReport>,
}

impl Cost {
    /// The replayed request's latency along the served path.
    fn path(&self) -> u64 {
        self.encode
            + self.decode
            + self.handle
            + self.resp_encode
            + self.transport
            + self.resp_decode
    }
}

/// What the replay is given.
pub struct ReplayInput<'a> {
    /// The trained channels the e2e daemon published.
    pub specs: &'a [TrainedSpec],
    /// One e2e client's operations, in order.
    pub ops: &'a [Op],
    /// What the e2e run answered to each of those operations.
    pub e2e: &'a [Option<BatchReport>],
    /// Operations replayed after the stream to exercise the flagged
    /// path on workloads whose stream is benign (may be empty).
    pub probe: &'a [Op],
    /// Wall time the stream replay may take.
    pub budget: Duration,
    /// Where the spans are written.
    pub spans_path: &'a Path,
}

/// What the replay measured.
pub struct ReplayOutput {
    /// Per-layer metrics, `(name, value, unit)`.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Median replayed path latency per SubmitBatch, in µs.
    pub path_p50_us: f64,
    /// SubmitBatch requests replayed from the stream.
    pub requests: usize,
    /// Report mismatches and wrong verdicts, rendered.
    pub problems: Vec<String>,
}

struct Replay {
    spans: Spans,
    daemon: Daemon,
    pool: EnforcementPool,
    registry: Arc<SpecRegistry>,
    twin_hub: Arc<ObsHub>,
    observed: HashMap<u64, Twin>,
    unobserved: HashMap<u64, Twin>,
    bare: HashMap<u64, Bare>,
    wal: DurableStore,
    echo: Echo,
    /// Per tenant: quarantined and rollbacks as last journaled, the
    /// way the daemon mirrors them to decide what to journal.
    journaled: HashMap<u64, (bool, u32)>,
    alert_seq: u64,
}

/// Set-up layer timings, in ns per channel.
#[derive(Default)]
struct SetupCost {
    publish_decode: Vec<u64>,
    registry_publish: Vec<u64>,
    compile: Vec<u64>,
    gate: Vec<u64>,
}

impl Replay {
    fn build(dir: &Path, specs: &[TrainedSpec]) -> Result<(Replay, SetupCost), String> {
        let hub = Arc::new(ObsHub::new());
        let daemon = Daemon::new(DaemonConfig::new(dir.join("store")), Arc::clone(&hub))
            .map_err(|e| format!("replay daemon: {e}"))?;
        let pool_hub = Arc::new(ObsHub::new());
        pool_hub.enable_window(WindowConfig::default());
        let registry = Arc::new(SpecRegistry::new());
        let twin_hub = Arc::new(ObsHub::new());
        twin_hub.enable_window(WindowConfig::default());
        let mut spans = Spans { origin: Instant::now(), spans: Vec::new() };
        let mut setup = SetupCost::default();
        for (i, spec) in specs.iter().enumerate() {
            let req = Request {
                v: PROTOCOL_VERSION,
                id: i as u64 + 1,
                auth: None,
                body: RequestBody::PublishSpec {
                    device: spec.device,
                    version: spec.version,
                    spec_json: spec.json.clone(),
                    allow_loosening: false,
                },
            };
            let mut frame = Vec::new();
            write_request(&mut frame, &req).map_err(|e| e.to_string())?;
            let s = spans.begin("proto.decode", u32::MAX, None);
            let parsed = parse_request(&frame[4..]).map_err(|e| e.to_string())?;
            setup.publish_decode.push(spans.end(s));
            match daemon.handle(&parsed).body {
                ResponseBody::Published { .. } => {}
                other => return Err(format!("replay publish: {other:?}")),
            }
            let s = spans.begin("registry.publish_json", u32::MAX, None);
            registry
                .publish_json(spec.device, spec.version, &spec.json)
                .map_err(|e| format!("registry publish: {e}"))?;
            setup.registry_publish.push(spans.end(s));
            let parsed = ExecutionSpecification::from_json(&spec.json)
                .map_err(|e| format!("spec json: {e}"))?;
            let stored = Arc::new(parsed);
            let s = spans.begin("compiled.compile", u32::MAX, None);
            let compiled = CompiledSpec::compile(Arc::clone(&stored));
            setup.compile.push(spans.end(s));
            let target = build_device(spec.device, spec.version);
            let s = spans.begin("analysis.gate", u32::MAX, None);
            let report = analyze(&stored, &AnalysisContext::full(&target, &compiled));
            setup.gate.push(spans.end(s));
            if report.has_errors() {
                return Err(format!("{}/{} fails the gate", spec.device, spec.version));
            }
        }
        let pool = EnforcementPool::with_obs(SHARDS, Arc::clone(&registry), &pool_hub);
        let (wal, _) =
            DurableStore::open(&dir.join("wal")).map_err(|e| format!("wal store: {e}"))?;
        let replay = Replay {
            spans,
            daemon,
            pool,
            registry,
            twin_hub,
            observed: HashMap::new(),
            unobserved: HashMap::new(),
            bare: HashMap::new(),
            wal,
            echo: Echo::start()?,
            journaled: HashMap::new(),
            alert_seq: 0,
        };
        Ok((replay, setup))
    }

    /// Hosts `tenant` on every instance the first time an operation
    /// names it (the replay touches only a few of the run's tenants).
    fn host(&mut self, tenant: u64) -> Result<(), String> {
        if self.observed.contains_key(&tenant) {
            return Ok(());
        }
        let cfg = inputs::tenants()
            .into_iter()
            .find(|c| c.tenant.0 == tenant)
            .ok_or_else(|| format!("tenant {tenant} is not in the run"))?;
        let req = Request {
            v: PROTOCOL_VERSION,
            id: 0,
            auth: None,
            body: RequestBody::AddTenant { config: cfg.clone() },
        };
        match self.daemon.handle(&req).body {
            ResponseBody::TenantAdded { .. } => {}
            other => return Err(format!("replay add tenant: {other:?}")),
        }
        self.pool.add_tenant(cfg.clone()).map_err(|e| format!("twin pool add tenant: {e}"))?;
        self.observed.insert(tenant, Twin::build(&cfg, &self.registry, Some(&self.twin_hub))?);
        self.unobserved.insert(tenant, Twin::build(&cfg, &self.registry, None)?);
        self.bare.insert(tenant, Bare::new(&cfg));
        Ok(())
    }

    /// The WAL records the daemon appends for an answered operation.
    fn journal_records(&mut self, op: &Op, report: Option<&BatchReport>) -> Vec<WalRecord> {
        let mut records = Vec::new();
        match (op, report) {
            (Op::Submit { tenant, .. }, Some(r)) => {
                if r.flagged > 0 {
                    self.alert_seq += r.flagged;
                    records.push(WalRecord::AlertMark { seq: self.alert_seq });
                }
                let prev = self.journaled.get(tenant).copied().unwrap_or_default();
                let next = (r.quarantined, prev.1 + r.rollbacks);
                if next != prev {
                    records.push(WalRecord::StateChange {
                        tenant: *tenant,
                        quarantined: next.0,
                        degraded: false,
                        rollbacks_used: next.1,
                    });
                    self.journaled.insert(*tenant, next);
                }
            }
            (Op::Release { tenant }, _) => {
                records.push(WalRecord::StateChange {
                    tenant: *tenant,
                    quarantined: false,
                    degraded: false,
                    rollbacks_used: 0,
                });
                self.journaled.insert(*tenant, (false, 0));
            }
            (Op::Submit { .. }, None) => {}
        }
        records
    }

    /// Replays one operation through every layer and twin.
    fn op(&mut self, k: u32, op: &Op, problems: &mut Vec<String>) -> Result<Cost, String> {
        let mut c = Cost::default();
        let body = match op {
            Op::Submit { tenant, steps, .. } => {
                self.host(*tenant)?;
                RequestBody::SubmitBatch { tenant: *tenant, steps: steps.to_vec() }
            }
            Op::Release { tenant } => {
                self.host(*tenant)?;
                RequestBody::Release { tenant: *tenant }
            }
        };
        let req = Request { v: PROTOCOL_VERSION, id: u64::from(k) + 1, auth: None, body };

        let s = self.spans.begin("proto.encode", k, None);
        let mut frame = Vec::new();
        write_request(&mut frame, &req).map_err(|e| e.to_string())?;
        c.encode = self.spans.end(s);
        c.req_bytes = frame.len() as u64;

        let s = self.spans.begin("proto.decode", k, None);
        let parsed = parse_request(&frame[4..]).map_err(|e| e.to_string())?;
        c.decode = self.spans.end(s);

        let handle = self.spans.begin("daemon.handle", k, None);
        let resp = self.daemon.handle(&parsed);
        c.handle = self.spans.end(handle);

        let s = self.spans.begin("proto.resp_encode", k, None);
        let mut reply = Vec::new();
        write_response(&mut reply, &resp).map_err(|e| e.to_string())?;
        c.resp_encode = self.spans.end(s);

        self.echo.queue(reply[4..].to_vec())?;
        let s = self.spans.begin("transport.round_trip", k, None);
        self.echo.round_trip(&frame[4..])?;
        c.transport = self.spans.end(s);

        let s = self.spans.begin("proto.resp_decode", k, None);
        let answer = read_response(&mut reply.as_slice()).map_err(|e| e.to_string())?;
        c.resp_decode = self.spans.end(s);

        match op {
            Op::Submit { tenant, steps, expect } => {
                c.submit = true;
                c.poc = *expect == Expect::Quarantined;
                let ResponseBody::Batch { report } = answer.body else {
                    return Err(format!("op {k}: daemon answered {:?}", answer.body));
                };
                let s = self.spans.begin("pool.run_batch_reliable", k, Some(handle));
                let (pooled, retries) = self
                    .pool
                    .run_batch_reliable(TenantId(*tenant), steps)
                    .map_err(|e| format!("op {k}: twin pool: {e}"))?;
                c.pool = self.spans.end(s);
                c.retries = u64::from(retries);
                let twin = self.observed.get_mut(tenant).ok_or("unknown tenant")?;
                let (looped, cost) = twin.run(steps, &mut self.spans, &OBSERVED, k, Some(s));
                c.observed = cost;
                let twin = self.unobserved.get_mut(tenant).ok_or("unknown tenant")?;
                let (unobserved, cost) = twin.run(steps, &mut self.spans, &UNOBSERVED, k, None);
                c.unobserved_ns = cost.enforce_ns;
                if !c.poc {
                    let bare = self.bare.get_mut(tenant).ok_or("unknown tenant")?;
                    c.bare = Some(bare.run(steps, &mut self.spans, k));
                }
                for (who, other) in
                    [("twin pool", &pooled), ("tenant loop", &looped), ("unobserved", &unobserved)]
                {
                    if *other != report {
                        problems
                            .push(format!("op {k}: {who} answered {other:?}, daemon {report:?}"));
                    }
                }
                c.report = Some(report);
            }
            Op::Release { tenant } => {
                match answer.body {
                    ResponseBody::QuarantineSet { was_quarantined: true, .. } => {}
                    other => problems.push(format!("replay op {k}: release answered {other:?}")),
                }
                let s = self.spans.begin("pool.set_quarantine", k, Some(handle));
                self.pool
                    .set_quarantine(TenantId(*tenant), false)
                    .map_err(|e| format!("op {k}: twin pool release: {e}"))?;
                self.spans.end(s);
                for twins in [&mut self.observed, &mut self.unobserved] {
                    twins.get_mut(tenant).ok_or("unknown tenant")?.release();
                }
            }
        }
        for record in self.journal_records(op, c.report.as_ref()) {
            let s = self.spans.begin("wal.append", k, None);
            self.wal.record(record).map_err(|e| format!("wal append: {e}"))?;
            c.wal_ns += self.spans.end(s);
            c.wal_records += 1;
        }
        Ok(c)
    }
}

/// Replays one operation the way the e2e client sends it (a PoC whose
/// halt the rollback absorbed goes twice), pushes each submission's
/// cost, checks the verdict, and returns the final report.
fn replay_op(
    replay: &mut Replay,
    k: u32,
    op: &Op,
    problems: &mut Vec<String>,
    costs: &mut Vec<Cost>,
) -> Result<Option<BatchReport>, String> {
    let mut cost = replay.op(k, op, problems)?;
    if let (Op::Submit { expect: Expect::Quarantined, .. }, Some(first)) = (op, &cost.report) {
        if inputs::resubmit(first) {
            costs.push(cost);
            cost = replay.op(k, op, problems)?;
        }
    }
    let report = cost.report.clone();
    if let (Op::Submit { expect, .. }, Some(r)) = (op, &report) {
        if let Err(e) = check_report(*expect, r) {
            problems.push(format!("replay op {k}: {e}"));
        }
    }
    costs.push(cost);
    Ok(report)
}

fn mean(values: impl Iterator<Item = u64>) -> f64 {
    let (sum, n) = values.fold((0u64, 0u64), |(s, n), v| (s + v, n + 1));
    ratio(sum as f64, n as f64)
}

fn median_of(values: impl Iterator<Item = u64>) -> f64 {
    let mut v: Vec<u64> = values.collect();
    v.sort_unstable();
    crate::stats::quantile(&v, 0.5)
}

/// Replays `input.ops` (as far as the e2e run got and the budget
/// allows), then `input.probe`, and derives the per-layer metrics.
pub fn run(dir: &Path, input: &ReplayInput<'_>) -> Result<ReplayOutput, String> {
    let (mut replay, setup) = Replay::build(dir, input.specs)?;
    let span_ns = replay.spans.calibrate();
    let mut problems = Vec::new();
    let mut stream = Vec::new();
    let deadline = Instant::now() + input.budget;
    for (k, op) in input.ops.iter().enumerate().take(input.e2e.len()) {
        if Instant::now() >= deadline {
            break;
        }
        let k = u32::try_from(k).map_err(|_| "stream too long")?;
        let replayed = replay_op(&mut replay, k, op, &mut problems, &mut stream)?;
        if let (Some(replayed), Some(Some(served))) = (&replayed, input.e2e.get(k as usize)) {
            if replayed != served {
                problems.push(format!("op {k}: e2e answered {served:?}, replay {replayed:?}"));
            }
        }
    }
    let mut probe = Vec::new();
    for (i, op) in input.probe.iter().enumerate() {
        let k = u32::try_from(input.ops.len() + i).map_err(|_| "stream too long")?;
        replay_op(&mut replay, k, op, &mut problems, &mut probe)?;
    }
    if let Err(e) = replay.spans.write(input.spans_path) {
        eprintln!("perfbench: writing spans: {e}");
    }

    let submits: Vec<&Cost> = stream.iter().filter(|c| c.submit).collect();
    let benign: Vec<&Cost> = submits.iter().copied().filter(|c| !c.poc).collect();
    let all: Vec<&Cost> = stream.iter().chain(&probe).collect();
    let us = |ns: f64| ns / 1e3;
    let ms = |ns: &[u64]| mean(ns.iter().copied()) / 1e6;

    let rounds: u64 = benign.iter().filter_map(|c| c.report.as_ref()).map(|r| r.rounds).sum();
    let stat = |f: fn(&EnforceStats) -> u64| -> f64 {
        benign.iter().filter_map(|c| c.report.as_ref()).map(|r| f(&r.stats)).sum::<u64>() as f64
    };
    let observed_ns: u64 = benign.iter().map(|c| c.observed.enforce_ns).sum();
    let unobserved_ns: u64 = benign.iter().map(|c| c.unobserved_ns).sum();
    let mut enforced = [DevTime::default(); 5];
    let mut bare = [DevTime::default(); 5];
    for c in &benign {
        for d in 0..5 {
            let o = c.observed.per_device[d];
            enforced[d].wall_ns += o.wall_ns;
            enforced[d].vclock_ns += o.vclock_ns;
            enforced[d].rounds += o.rounds;
            if let Some(b) = c.bare {
                bare[d].wall_ns += b[d].wall_ns;
                bare[d].vclock_ns += b[d].vclock_ns;
                bare[d].rounds += b[d].rounds;
            }
        }
    }
    let bare_ns: u64 = bare.iter().map(|d| d.wall_ns).sum();
    let bare_rounds: u64 = bare.iter().map(|d| d.rounds).sum();
    let flagged_ns: u64 = all.iter().map(|c| c.observed.flagged_ns).sum();
    let flagged_calls: u64 = all.iter().map(|c| c.observed.flagged_calls).sum();
    let rollback_ns: u64 = all.iter().map(|c| c.observed.rollback_ns).sum();
    let rollback_calls: u64 = all.iter().map(|c| c.observed.rollbacks).sum();
    let wal_ns: u64 = all.iter().map(|c| c.wal_ns).sum();
    let wal_records: u64 = all.iter().map(|c| c.wal_records).sum();
    let req_bytes: u64 = submits.iter().map(|c| c.req_bytes).sum();
    let decode_ns: u64 = submits.iter().map(|c| c.decode).sum();
    let walk_text = replay.twin_hub.metrics().render_prometheus();
    let walk_ns = ratio(
        prom_sum(&walk_text, "sedspec_walk_ns_sum", ""),
        prom_sum(&walk_text, "sedspec_walk_ns_count", ""),
    );
    let path_p50_us = median_of(submits.iter().map(|c| c.path())) / 1e3;

    let mut m: Vec<(String, f64, &'static str)> = vec![
        ("proto.req_bytes".into(), mean(submits.iter().map(|c| c.req_bytes)), "B"),
        ("proto.encode_us".into(), us(mean(submits.iter().map(|c| c.encode))), "us"),
        ("proto.decode_us".into(), us(mean(submits.iter().map(|c| c.decode))), "us"),
        ("proto.decode_ns_per_byte".into(), ratio(decode_ns as f64, req_bytes as f64), "ns/B"),
        ("proto.resp_encode_us".into(), us(mean(submits.iter().map(|c| c.resp_encode))), "us"),
        ("proto.resp_decode_us".into(), us(mean(submits.iter().map(|c| c.resp_decode))), "us"),
        ("proto.publish_decode_ms".into(), ms(&setup.publish_decode), "ms"),
        ("transport.round_trip_us".into(), us(mean(submits.iter().map(|c| c.transport))), "us"),
        (
            "daemon.dispatch_self_us".into(),
            us(mean(submits.iter().map(|c| c.handle.saturating_sub(c.pool)))),
            "us",
        ),
        ("wal.append_us".into(), us(ratio(wal_ns as f64, wal_records as f64)), "us"),
        ("pool.batch_us".into(), us(mean(submits.iter().map(|c| c.pool))), "us"),
        (
            "pool.self_us".into(),
            us(mean(submits.iter().map(|c| {
                c.pool.saturating_sub(
                    c.observed.enforce_ns + c.observed.capture_ns + c.observed.rollback_ns,
                )
            }))),
            "us",
        ),
        (
            "pool.snapshot_capture_us".into(),
            us(mean(submits.iter().map(|c| c.observed.capture_ns))),
            "us",
        ),
        ("pool.retries".into(), stream.iter().map(|c| c.retries).sum::<u64>() as f64, "count"),
        ("compiled.compile_ms".into(), ms(&setup.compile), "ms"),
        ("analysis.gate_ms".into(), ms(&setup.gate), "ms"),
        ("registry.publish_ms".into(), ms(&setup.registry_publish), "ms"),
        ("enforce.round_ns".into(), ratio(observed_ns as f64, rounds as f64), "ns"),
        ("enforce.round_ns_unobserved".into(), ratio(unobserved_ns as f64, rounds as f64), "ns"),
        (
            "enforce.obs_share".into(),
            ratio(observed_ns as f64 - unobserved_ns as f64, observed_ns as f64),
            "ratio",
        ),
        (
            "enforce.batched_share".into(),
            ratio(
                benign.iter().map(|c| c.observed.batched_rounds).sum::<u64>() as f64,
                rounds as f64,
            ),
            "ratio",
        ),
        ("enforce.synced_share".into(), ratio(stat(|s| s.synced_rounds), rounds as f64), "ratio"),
        (
            "enforce.flagged_round_us".into(),
            us(ratio(flagged_ns as f64, flagged_calls as f64)),
            "us",
        ),
        ("checker.walk_ns".into(), walk_ns, "ns"),
        (
            "checker.blocks_per_round".into(),
            ratio(stat(|s| s.check_blocks), rounds as f64),
            "count",
        ),
        ("checker.syncs_per_round".into(), ratio(stat(|s| s.check_syncs), rounds as f64), "count"),
        ("response.rollback_us".into(), us(ratio(rollback_ns as f64, rollback_calls as f64)), "us"),
        ("device.exec_ns".into(), ratio(bare_ns as f64, bare_rounds as f64), "ns"),
        ("trace.requests".into(), submits.len() as f64, "count"),
        ("trace.reports_match".into(), if problems.is_empty() { 1.0 } else { 0.0 }, "bool"),
        ("trace.span_ns".into(), span_ns, "ns"),
        ("trace.span_overhead_share".into(), ratio(6.0 * span_ns, path_p50_us * 1e3), "ratio"),
    ];
    for kind in DeviceKind::all() {
        let d = device_index(kind);
        m.push((
            format!("enforce.wall_overhead_ratio.{}", device_slug(kind)),
            ratio(enforced[d].wall_ns as f64, bare[d].wall_ns as f64),
            "ratio",
        ));
        m.push((
            format!("enforce.model_overhead_ratio.{}", device_slug(kind)),
            ratio(enforced[d].vclock_ns as f64, bare[d].vclock_ns as f64),
            "ratio",
        ));
        eprintln!(
            "tie-back {:>8}: {:>7} rounds, enforced {:>7.0} ns/round, bare {:>7.0} ns/round, \
             wall ratio {:.2}, model ratio {:.3}",
            device_slug(kind),
            enforced[d].rounds,
            ratio(enforced[d].wall_ns as f64, enforced[d].rounds as f64),
            ratio(bare[d].wall_ns as f64, bare[d].rounds as f64),
            ratio(enforced[d].wall_ns as f64, bare[d].wall_ns as f64),
            ratio(enforced[d].vclock_ns as f64, bare[d].vclock_ns as f64),
        );
    }
    Ok(ReplayOutput { metrics: m, path_p50_us, requests: submits.len(), problems })
}
