//! The daemon: owns a [`SpecRegistry`] and an [`EnforcementPool`],
//! warm-loads both from the durable store, and serves the framed wire
//! protocol over a Unix domain socket (TCP behind a flag).
//!
//! ## Durability contract
//!
//! A mutating request is answered *after* its WAL record is flushed:
//! an acknowledged publish, hosting, or quarantine transition survives
//! `kill -9`. On startup the store's snapshot + WAL replay drives the
//! warm load:
//!
//! 1. every journaled revision is re-published (analyzer gate skipped —
//!    it ran at the original publish) in order, so channel epochs
//!    reproduce and exported JSON is byte-identical;
//! 2. the alert-sequence high-water mark is restored, so
//!    [`AlertEvent::seq`] stays monotonic across restarts;
//! 3. each tenant's last journaled state, as the store holds it, seeds
//!    the pool's state map *before* the tenant is re-hosted — the same
//!    carry-over path a worker respawn uses, so a daemon restart cannot
//!    launder quarantine any more than a shard crash can.
//!
//! A tenant's protective state has one live owner, the pool
//! ([`EnforcementPool::tenant_state`]), and one journaled owner, the
//! store. After every served batch and operator quarantine or release
//! the daemon compares the two and appends a `StateChange` when they
//! differ; a failed append is retried by the next comparison.
//!
//! ## Concurrency model
//!
//! The accept loop is thread-per-connection: each accepted stream gets
//! its own OS thread holding an `Arc<Daemon>`, so a long batch on one
//! connection never starves a ping, a metrics scrape, or a live watch
//! on another. All mutating work still funnels through the single
//! `Mutex<Core>` — the WAL keeps exactly one writer, and the
//! answered-after-flush durability contract is unchanged. Watch
//! connections never hold the core lock while streaming; they block on
//! the [`WatchHub`] ring instead.
//!
//! A telemetry ticker thread samples the hub's windowed-metrics layer
//! every `window_ms`, publishing window reports, health transitions
//! and forensic summaries to the watch stream, and drains the pool's
//! alert stream so alerts reach watchers even between requests.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use sedspec::spec::ExecutionSpecification;
use sedspec_fleet::pool::{EnforcementPool, PoolError, TenantId};
use sedspec_fleet::registry::{PublishJsonError, PublishOptions, SpecRegistry};
use sedspec_fleet::telemetry::AlertEvent;
use sedspec_obs::{ObsHub, ScopeId, ScopeInfo, TraceEventKind, WindowConfig, WindowReport};

use crate::auth::{AuthConfig, RateLimitConfig, RateLimiter};
use crate::proto::{
    parse_request, read_frame, write_response, ErrCode, ForensicSummary, ProtoError, Request,
    RequestBody, Response, ResponseBody, ServerHealth, WatchEvent, PROTOCOL_VERSION,
};
use crate::store::{DurableStore, StoreError, WalRecord};
use crate::watch::WatchHub;

/// Alerts retained for `FleetStatus` responses.
const RECENT_ALERTS_CAP: usize = 256;
/// Alerts returned per `FleetStatus` response.
const RECENT_ALERTS_REPLY: usize = 64;

/// How the daemon is built and bound.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Unix domain socket path (the default transport).
    pub socket: Option<PathBuf>,
    /// TCP listen address (optional, behind a flag).
    pub tcp: Option<String>,
    /// Durable store directory.
    pub store_dir: PathBuf,
    /// Enforcement pool worker shards.
    pub shards: usize,
    /// Token table; empty = open mode.
    pub auth: AuthConfig,
    /// Per-tenant token-bucket parameters.
    pub rate: RateLimitConfig,
    /// Auto-compact after this many WAL appends (`0` = only on
    /// graceful shutdown).
    pub compact_every: u64,
    /// Telemetry tick interval in milliseconds: how often the window
    /// layer is sampled and the watch stream gets its heartbeat.
    pub window_ms: u64,
}

/// Default telemetry tick interval.
pub const DEFAULT_WINDOW_MS: u64 = 1000;

impl DaemonConfig {
    /// Defaults: no endpoints bound yet, two shards, open auth,
    /// unlimited rate, compaction only on shutdown, 1 s telemetry
    /// ticks.
    pub fn new(store_dir: impl Into<PathBuf>) -> Self {
        DaemonConfig {
            socket: None,
            tcp: None,
            store_dir: store_dir.into(),
            shards: 2,
            auth: AuthConfig::open(),
            rate: RateLimitConfig::unlimited(),
            compact_every: 0,
            window_ms: DEFAULT_WINDOW_MS,
        }
    }
}

/// What the warm load recovered (and what it had to skip).
#[derive(Debug, Clone, Default)]
pub struct WarmStats {
    /// Revisions re-published from the journal.
    pub revisions: u32,
    /// Tenants re-hosted from the journal.
    pub tenants: u32,
    /// Restored alert-sequence high-water mark.
    pub alert_seq: u64,
    /// Whether a snapshot contributed (vs. WAL-only).
    pub snapshot_loaded: bool,
    /// Whether the WAL replay ended cleanly (no salvaged tail).
    pub replay_clean: bool,
    /// Journal entries that could not be re-applied, rendered.
    pub skipped: Vec<String>,
}

/// Why the daemon could not start or serve.
#[derive(Debug)]
pub enum DaemonError {
    /// The durable store failed to open or load.
    Store(StoreError),
    /// An endpoint failed to bind.
    Bind(String, io::Error),
    /// Neither a socket nor a TCP address was configured.
    NoEndpoint,
}

impl std::fmt::Display for DaemonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DaemonError::Store(e) => write!(f, "daemon store: {e}"),
            DaemonError::Bind(ep, e) => write!(f, "bind {ep}: {e}"),
            DaemonError::NoEndpoint => write!(f, "no endpoint: configure a socket or --tcp"),
        }
    }
}

impl std::error::Error for DaemonError {}

impl From<StoreError> for DaemonError {
    fn from(e: StoreError) -> Self {
        DaemonError::Store(e)
    }
}

/// Mutable daemon state behind one lock (requests are serialized — the
/// pool itself fans work out to its shard threads).
struct Core {
    pool: EnforcementPool,
    store: DurableStore,
    limiter: RateLimiter,
    recent_alerts: VecDeque<AlertEvent>,
    /// Highest alert seq already journaled as an `AlertMark`.
    alert_mark: u64,
    appends_since_compact: u64,
}

/// The enforcement-as-a-service daemon.
pub struct Daemon {
    config: DaemonConfig,
    registry: Arc<SpecRegistry>,
    core: Mutex<Core>,
    hub: Arc<ObsHub>,
    scope: ScopeId,
    warm: WarmStats,
    shutdown: AtomicBool,
    started: Instant,
    /// Live event fan-out for watch connections.
    watch: WatchHub,
    /// Latest windowed-telemetry report, refreshed by the ticker.
    last_window: Mutex<Option<WindowReport>>,
    /// Highest forensic-record seq already summarized to the stream.
    forensic_seen: AtomicU64,
    /// Requests served, watch subscriptions included.
    requests_served: AtomicU64,
}

impl Daemon {
    /// Opens the store, warm-loads registry + pool from it, and builds
    /// the (not yet bound) daemon.
    ///
    /// # Errors
    ///
    /// Store failures. Individual journal entries that cannot be
    /// re-applied are skipped and reported in [`Daemon::warm_stats`],
    /// never fatal — a salvageable store always yields a daemon.
    pub fn new(config: DaemonConfig, hub: Arc<ObsHub>) -> Result<Self, DaemonError> {
        let scope = hub.register_scope(ScopeInfo::device("sedspecd"));
        if !hub.window_enabled() {
            hub.enable_window(WindowConfig::default());
        }
        let (store, loaded) = DurableStore::open(&config.store_dir)?;

        let registry = Arc::new(SpecRegistry::new());
        registry.attach_obs(&hub);
        let mut warm = WarmStats {
            alert_seq: loaded.alert_seq,
            snapshot_loaded: loaded.snapshot_loaded,
            replay_clean: loaded.replay.clean(),
            ..WarmStats::default()
        };

        // Pass 1: re-publish every journaled revision, in order.
        let mut hosted: Vec<sedspec_fleet::pool::TenantConfig> = Vec::new();
        for record in &loaded.records {
            match record {
                WalRecord::Publish { device, version, digest, epoch, spec_json } => {
                    match ExecutionSpecification::from_json(spec_json) {
                        Ok(spec) => {
                            let key = registry.publish_unchecked(*device, *version, spec);
                            warm.revisions += 1;
                            if key.digest.0 != *digest {
                                warm.skipped.push(format!(
                                    "publish {key}: journaled digest {digest:016x} does not match"
                                ));
                            }
                            let now = registry.epoch(*device, *version);
                            if now != *epoch {
                                warm.skipped.push(format!(
                                    "publish {key}: epoch replayed to {now}, journal said {epoch}"
                                ));
                            }
                        }
                        Err(e) => {
                            warm.skipped.push(format!("publish {device:?}/{version:?}: {e}"));
                        }
                    }
                }
                WalRecord::TenantHosted { config } => hosted.push(config.clone()),
                WalRecord::StateChange { .. } | WalRecord::AlertMark { .. } => {}
            }
        }

        // Pass 2: build the pool on the restored registry, seed the
        // alert counter, then re-host tenants with their journaled
        // state already in place.
        let pool = EnforcementPool::with_obs(config.shards.max(1), Arc::clone(&registry), &hub);
        pool.set_alert_seq(loaded.alert_seq);
        for cfg in hosted {
            let tenant = cfg.tenant;
            pool.restore_tenant_state(tenant, store.tenant_state(tenant.0));
            match pool.add_tenant(cfg) {
                Ok(()) => warm.tenants += 1,
                Err(e) => warm.skipped.push(format!("{tenant} could not be re-hosted: {e}")),
            }
        }

        hub.record(
            scope,
            TraceEventKind::DaemonStarted {
                endpoint: describe_endpoint(&config),
                restored_revisions: warm.revisions,
                restored_tenants: warm.tenants,
            },
        );

        let limiter = RateLimiter::new(config.rate);
        let alert_mark = loaded.alert_seq;
        Ok(Daemon {
            config,
            registry,
            core: Mutex::new(Core {
                pool,
                store,
                limiter,
                recent_alerts: VecDeque::new(),
                alert_mark,
                appends_since_compact: 0,
            }),
            hub,
            scope,
            warm,
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            watch: WatchHub::new(),
            last_window: Mutex::new(None),
            forensic_seen: AtomicU64::new(0),
            requests_served: AtomicU64::new(0),
        })
    }

    /// What the warm load recovered.
    pub fn warm_stats(&self) -> &WarmStats {
        &self.warm
    }

    /// The daemon's specification registry (shared with the pool).
    pub fn registry(&self) -> &Arc<SpecRegistry> {
        &self.registry
    }

    /// The daemon's observability hub.
    pub fn hub(&self) -> &Arc<ObsHub> {
        &self.hub
    }

    /// The daemon's live-event fan-out (watch stream).
    pub fn watch_hub(&self) -> &WatchHub {
        &self.watch
    }

    /// Asks the serve loop to stop after the current connection.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    /// Whether shutdown has been requested.
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Monotonic daemon clock, in nanoseconds since construction (the
    /// rate limiter's time base).
    fn now_ns(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Appends one WAL record, charging the flush to `op`'s
    /// `wal_fsync` stage histogram.
    fn journal(
        &self,
        core: &mut Core,
        op: &'static str,
        record: WalRecord,
    ) -> Result<(), StoreError> {
        let kind = record.kind();
        let flush_start = Instant::now();
        let bytes = core.store.record(record)?;
        self.stage_ns(op, "wal_fsync", flush_start.elapsed());
        self.hub.record(self.scope, TraceEventKind::WalAppended { kind: kind.into(), bytes });
        core.appends_since_compact += 1;
        if self.config.compact_every > 0 && core.appends_since_compact >= self.config.compact_every
        {
            self.compact_core(core);
        }
        Ok(())
    }

    fn compact_core(&self, core: &mut Core) {
        let alert_seq = core.pool.alert_seq();
        match core.store.compact(alert_seq) {
            Ok(records) => {
                core.appends_since_compact = 0;
                self.hub
                    .record(self.scope, TraceEventKind::SnapshotCompacted { records, alert_seq });
            }
            Err(e) => {
                // A failed compaction is not fatal: the WAL still holds
                // everything; surface it and carry on.
                self.warm_noop(&e);
            }
        }
    }

    // Compaction failures have nowhere synchronous to go; record them
    // on the trace so the flight recorder keeps the evidence.
    fn warm_noop(&self, e: &StoreError) {
        self.hub.record(
            self.scope,
            TraceEventKind::RequestServed { kind: format!("compact-failed: {e}"), error: true },
        );
    }

    /// Drains the pool's alert stream into the recent ring, publishes
    /// each alert to the watch stream, and journals an `AlertMark`
    /// when the high-water mark advanced.
    fn sync_alerts(&self, core: &mut Core, op: &'static str) {
        let alerts = core.pool.drain_alerts();
        for alert in alerts {
            if core.recent_alerts.len() == RECENT_ALERTS_CAP {
                core.recent_alerts.pop_front();
            }
            self.watch.publish(WatchEvent::Alert { alert: alert.clone() });
            core.recent_alerts.push_back(alert);
        }
        let seq = core.pool.alert_seq();
        if seq > core.alert_mark && self.journal(core, op, WalRecord::AlertMark { seq }).is_ok() {
            core.alert_mark = seq;
        }
    }

    /// Appends a `StateChange` when the pool's live state for `tenant`
    /// differs from the store's last journaled one.
    fn sync_tenant_state(
        &self,
        core: &mut Core,
        op: &'static str,
        tenant: u64,
    ) -> Result<(), StoreError> {
        let live = core.pool.tenant_state(TenantId(tenant));
        if live == core.store.tenant_state(tenant) {
            return Ok(());
        }
        self.journal(core, op, WalRecord::state_change(tenant, live))
    }

    /// Records one per-request stage latency as
    /// `sedspecd_request_ns{op,stage}`.
    fn stage_ns(&self, op: &'static str, stage: &str, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.hub.metrics().observe_labeled2(
            "sedspecd_request_ns",
            ("op", op),
            ("stage", stage),
            ns,
        );
    }

    /// Serves one request. This is the whole protocol: transport code
    /// only frames and unframes around this call. (The streaming
    /// `Watch` op is the one exception — it owns its connection and is
    /// intercepted by the serve loop before reaching here.)
    pub fn handle(&self, req: &Request) -> Response {
        let op = req.body.kind();
        let total_start = Instant::now();
        let id = req.id;
        if req.v != PROTOCOL_VERSION {
            return err(
                id,
                ErrCode::Version,
                format!("daemon speaks protocol {PROTOCOL_VERSION}, request said {}", req.v),
            );
        }
        let auth_start = Instant::now();
        let admitted = match self.config.auth.identify(req.auth.as_deref()) {
            None => Err(err(id, ErrCode::Unauthorized, "unrecognized token".into())),
            Some(identity) if req.body.is_admin() && !self.config.auth.allows_admin(identity) => {
                Err(err(id, ErrCode::Unauthorized, "admin token required".into()))
            }
            Some(identity) => Ok(identity),
        };
        self.stage_ns(op, "auth", auth_start.elapsed());
        let resp = match admitted {
            Err(denied) => denied,
            Ok(identity) => {
                let enforce_start = Instant::now();
                let resp = self.dispatch(id, identity, &req.body);
                self.stage_ns(op, "enforce", enforce_start.elapsed());
                resp
            }
        };
        let resp = self.served(resp, &req.body);
        self.stage_ns(op, "total", total_start.elapsed());
        resp
    }

    fn served(&self, resp: Response, body: &RequestBody) -> Response {
        let error = matches!(resp.body, ResponseBody::Error { .. });
        self.hub
            .record(self.scope, TraceEventKind::RequestServed { kind: body.kind().into(), error });
        self.requests_served.fetch_add(1, Ordering::Relaxed);
        resp
    }

    #[allow(clippy::too_many_lines)]
    fn dispatch(&self, id: u64, identity: crate::auth::Identity, body: &RequestBody) -> Response {
        match body {
            RequestBody::Ping => ok(
                id,
                ResponseBody::Pong {
                    server: env!("CARGO_PKG_VERSION").into(),
                    protocol: PROTOCOL_VERSION,
                },
            ),
            RequestBody::PublishSpec { device, version, spec_json, allow_loosening } => {
                let options = PublishOptions { allow_loosening: *allow_loosening };
                match self.registry.publish_json_with(*device, *version, spec_json, &options) {
                    Ok(outcome) => {
                        let key = outcome.key;
                        let changelog = outcome.changelog_summary();
                        let epoch = self.registry.epoch(*device, *version);
                        // Journal the *stored* form so a restart
                        // restores revisions byte-identically.
                        let canonical =
                            self.registry.export_json(&key).unwrap_or_else(|| spec_json.clone());
                        let mut core = self.core.lock();
                        let record = WalRecord::Publish {
                            device: *device,
                            version: *version,
                            digest: key.digest.0,
                            epoch,
                            spec_json: canonical,
                        };
                        match self.journal(&mut core, "PublishSpec", record) {
                            Ok(()) => ok(id, ResponseBody::Published { key, epoch, changelog }),
                            Err(e) => err(id, ErrCode::Store, e.to_string()),
                        }
                    }
                    Err(e @ PublishJsonError::Parse(_)) => {
                        err(id, ErrCode::BadRequest, e.to_string())
                    }
                    Err(e @ PublishJsonError::Gate(_)) => {
                        err(id, ErrCode::SpecRejected, e.to_string())
                    }
                }
            }
            RequestBody::AddTenant { config } => {
                let mut core = self.core.lock();
                match core.pool.add_tenant(config.clone()) {
                    Ok(()) => {
                        let tenant = config.tenant.0;
                        let record = WalRecord::TenantHosted { config: config.clone() };
                        match self.journal(&mut core, "AddTenant", record) {
                            Ok(()) => ok(id, ResponseBody::TenantAdded { tenant }),
                            Err(e) => err(id, ErrCode::Store, e.to_string()),
                        }
                    }
                    Err(e) => err(id, ErrCode::Pool, e.to_string()),
                }
            }
            RequestBody::SubmitBatch { tenant, steps } => {
                if !self.config.auth.allows_tenant(identity, *tenant) {
                    return err(
                        id,
                        ErrCode::Unauthorized,
                        format!("token not admitted for tenant-{tenant}"),
                    );
                }
                let mut core = self.core.lock();
                let cost = (steps.len() as u64).max(1);
                let now = self.now_ns();
                if let Err(wait_ms) = core.limiter.take(*tenant, cost, now) {
                    return err(
                        id,
                        ErrCode::RateLimited,
                        format!("tenant-{tenant} over rate; retry in ~{wait_ms}ms"),
                    );
                }
                match core.pool.run_batch_reliable(TenantId(*tenant), steps) {
                    Ok((report, _retries)) => {
                        self.sync_alerts(&mut core, "SubmitBatch");
                        // A failed append is retried by the next sync;
                        // the batch itself was served.
                        let _ = self.sync_tenant_state(&mut core, "SubmitBatch", *tenant);
                        ok(id, ResponseBody::Batch { report })
                    }
                    Err(e) => err(id, ErrCode::Pool, e.to_string()),
                }
            }
            RequestBody::TenantStatus { tenant } => {
                if !self.config.auth.allows_tenant(identity, *tenant) {
                    return err(
                        id,
                        ErrCode::Unauthorized,
                        format!("token not admitted for tenant-{tenant}"),
                    );
                }
                let core = self.core.lock();
                let report = core.pool.report();
                match report.tenants().into_iter().find(|t| t.tenant.0 == *tenant) {
                    Some(status) => ok(id, ResponseBody::Status { status: status.clone() }),
                    None => err(
                        id,
                        ErrCode::Pool,
                        PoolError::UnknownTenant(TenantId(*tenant)).to_string(),
                    ),
                }
            }
            RequestBody::FleetStatus => {
                let mut core = self.core.lock();
                self.sync_alerts(&mut core, "FleetStatus");
                let report = core.pool.report();
                let alert_seq = core.pool.alert_seq();
                let recent_alerts: Vec<AlertEvent> = core
                    .recent_alerts
                    .iter()
                    .rev()
                    .take(RECENT_ALERTS_REPLY)
                    .rev()
                    .cloned()
                    .collect();
                ok(id, ResponseBody::Fleet { report, alert_seq, recent_alerts })
            }
            RequestBody::Quarantine { tenant } | RequestBody::Release { tenant } => {
                let on = matches!(body, RequestBody::Quarantine { .. });
                let mut core = self.core.lock();
                match core.pool.set_quarantine(TenantId(*tenant), on) {
                    Ok(was) => {
                        let op = if on { "Quarantine" } else { "Release" };
                        match self.sync_tenant_state(&mut core, op, *tenant) {
                            Ok(()) => ok(
                                id,
                                ResponseBody::QuarantineSet {
                                    tenant: *tenant,
                                    quarantined: on,
                                    was_quarantined: was,
                                },
                            ),
                            Err(e) => err(id, ErrCode::Store, e.to_string()),
                        }
                    }
                    Err(e) => err(id, ErrCode::Pool, e.to_string()),
                }
            }
            RequestBody::Metrics => ok(
                id,
                ResponseBody::MetricsText { prometheus: self.hub.metrics().render_prometheus() },
            ),
            RequestBody::Doctor => ok(id, ResponseBody::Doctor { health: self.health() }),
            RequestBody::Health => ok(
                id,
                ResponseBody::HealthReport {
                    health: self.health(),
                    window: self.last_window.lock().clone(),
                    states: self.hub.health_states(),
                },
            ),
            RequestBody::Watch { .. } => err(
                id,
                ErrCode::BadRequest,
                "Watch is a streaming operation; it owns its connection and cannot be \
                 dispatched as a one-shot request"
                    .into(),
            ),
            RequestBody::Shutdown => {
                self.request_shutdown();
                ok(id, ResponseBody::ShuttingDown)
            }
        }
    }

    /// The daemon's self-reported health section.
    pub fn health(&self) -> ServerHealth {
        let core = self.core.lock();
        let report = core.pool.report();
        let shards = core.pool.shard_count();
        let shards_alive = (0..shards).filter(|s| core.pool.shard_alive(*s)).count();
        ServerHealth {
            server: env!("CARGO_PKG_VERSION").into(),
            protocol: PROTOCOL_VERSION,
            channels: self.registry.channel_count(),
            revisions: self.registry.revision_count(),
            tenants: report.tenant_count(),
            quarantined: report.quarantined_count(),
            degraded: report.degraded_count(),
            shards_alive,
            shards,
            alert_seq: core.pool.alert_seq(),
            wal_records: core.store.records_appended(),
            wal_bytes: core.store.bytes_appended(),
            compactions: core.store.compactions(),
            requests: self.requests_served.load(Ordering::Relaxed),
            trace_dropped: self.hub.dropped_events(),
            watchers: self.watch.watchers(),
        }
    }

    /// One telemetry tick: drain pool alerts to the stream, sample the
    /// windowed layer (publishing health transitions and the window
    /// heartbeat), and summarize newly frozen forensic records.
    fn telemetry_tick(&self) {
        {
            let mut core = self.core.lock();
            self.sync_alerts(&mut core, "Ticker");
        }
        let at_ms = u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX);
        if let Some(report) = self.hub.sample_window(at_ms) {
            for transition in &report.transitions {
                self.watch.publish(WatchEvent::HealthChanged { transition: transition.clone() });
            }
            *self.last_window.lock() = Some(report.clone());
            self.watch.publish(WatchEvent::Window { report });
        }
        let seen = self.forensic_seen.load(Ordering::Acquire);
        let mut newest = seen;
        for record in self.hub.forensics() {
            if record.seq <= seen {
                continue;
            }
            newest = newest.max(record.seq);
            self.watch.publish(WatchEvent::Forensic {
                summary: ForensicSummary {
                    seq: record.seq,
                    round: record.round,
                    shard: record.scope.shard,
                    tenant: record.scope.tenant,
                    device: record.scope.device.clone(),
                    verdict: format!("{:?}", record.data.verdict),
                    violation: record.data.violation.clone(),
                },
            });
        }
        self.forensic_seen.store(newest, Ordering::Release);
    }

    /// The ticker thread body: fires [`Daemon::telemetry_tick`] every
    /// `window_ms`, sleeping in short slices so shutdown is prompt.
    fn ticker_loop(&self) {
        let interval = Duration::from_millis(self.config.window_ms.max(10));
        let mut next = Instant::now() + interval;
        while !self.shutting_down() {
            let now = Instant::now();
            if now < next {
                std::thread::sleep((next - now).min(Duration::from_millis(50)));
                continue;
            }
            next = now + interval;
            self.telemetry_tick();
        }
    }

    /// Serves one connection: frames in, [`Daemon::handle`], frames
    /// out, until the peer closes or a framing error desyncs the
    /// stream. A `Watch` request upgrades the connection to a
    /// one-way event stream and consumes it.
    fn serve_conn<S: Read + Write>(&self, stream: &mut S) {
        loop {
            let payload = match read_frame(stream) {
                Ok(payload) => payload,
                Err(ProtoError::Closed) => return,
                Err(ProtoError::Oversized(n)) => {
                    let _ = write_response(
                        stream,
                        &err(0, ErrCode::BadRequest, ProtoError::Oversized(n).to_string()),
                    );
                    return;
                }
                Err(_) => return,
            };
            let decode_start = Instant::now();
            let req = match parse_request(&payload) {
                Ok(req) => req,
                Err(e) => {
                    // Best-effort error frame, then drop the connection:
                    // after a malformed frame the stream may be desynced.
                    let _ = write_response(stream, &err(0, ErrCode::BadRequest, e.to_string()));
                    return;
                }
            };
            self.stage_ns(req.body.kind(), "decode", decode_start.elapsed());
            if let RequestBody::Watch { cursor, tenant } = req.body {
                // The subscription owns the connection from here on.
                self.serve_watch(stream, req.v, req.id, req.auth.as_deref(), cursor, tenant);
                return;
            }
            self.hub.metrics().add_gauge("sedspecd_pending_requests", 1);
            let resp = self.handle(&req);
            let stop = matches!(resp.body, ResponseBody::ShuttingDown);
            let delivered = write_response(stream, &resp).is_ok();
            self.hub.metrics().add_gauge("sedspecd_pending_requests", -1);
            if !delivered || stop {
                return;
            }
        }
    }

    /// Serves a watch subscription: acks with `Watching`, then pushes
    /// `Event` frames off the [`WatchHub`] ring until the client
    /// disconnects or the daemon shuts down. Holds no core lock while
    /// streaming, so submitters on other connections are never stalled
    /// by a slow watcher.
    fn serve_watch<S: Read + Write>(
        &self,
        stream: &mut S,
        v: u32,
        id: u64,
        auth: Option<&str>,
        cursor: Option<u64>,
        tenant: Option<u64>,
    ) {
        if v != PROTOCOL_VERSION {
            let _ = write_response(
                stream,
                &err(
                    id,
                    ErrCode::Version,
                    format!("daemon speaks protocol {PROTOCOL_VERSION}, request said {v}"),
                ),
            );
            return;
        }
        if self.config.auth.identify(auth).is_none() {
            let _ = write_response(
                stream,
                &err(id, ErrCode::Unauthorized, "unrecognized token".into()),
            );
            return;
        }
        let (earliest, latest) = self.watch.bounds();
        let mut cursor = cursor.unwrap_or(latest);
        if write_response(
            stream,
            &ok(id, ResponseBody::Watching { resume: cursor, earliest, latest }),
        )
        .is_err()
        {
            return;
        }
        self.hub.record(
            self.scope,
            TraceEventKind::RequestServed { kind: "Watch".into(), error: false },
        );
        self.requests_served.fetch_add(1, Ordering::Relaxed);
        self.watch.watcher_attached();
        while !self.shutting_down() {
            for frame in self.watch.collect_after(cursor, Duration::from_millis(100)) {
                cursor = frame.seq;
                let deliver = match (tenant, frame.event.tenant()) {
                    (Some(want), Some(have)) => want == have,
                    _ => true,
                };
                if deliver
                    && write_response(stream, &ok(id, ResponseBody::Event { frame })).is_err()
                {
                    self.watch.watcher_detached();
                    return;
                }
            }
        }
        self.watch.watcher_detached();
    }

    /// Binds the configured endpoints and serves until shutdown, then
    /// compacts the store (persisting the alert-seq high-water mark)
    /// and removes the socket file.
    ///
    /// Thread-per-connection: each accepted stream is handed to its
    /// own thread holding a clone of this `Arc`, and a telemetry
    /// ticker thread drives the windowed layer and the watch stream.
    /// Shutdown joins every connection thread, so the durability
    /// contract (answer after flush) holds to the last frame.
    ///
    /// # Errors
    ///
    /// [`DaemonError::NoEndpoint`] with nothing to bind;
    /// [`DaemonError::Bind`] when an endpoint cannot be bound.
    pub fn run(self: &Arc<Self>) -> Result<(), DaemonError> {
        let uds = match &self.config.socket {
            Some(path) => {
                // A stale socket file from a killed daemon blocks bind.
                if path.exists() {
                    let _ = std::fs::remove_file(path);
                }
                let listener = UnixListener::bind(path)
                    .map_err(|e| DaemonError::Bind(path.display().to_string(), e))?;
                listener
                    .set_nonblocking(true)
                    .map_err(|e| DaemonError::Bind(path.display().to_string(), e))?;
                Some(listener)
            }
            None => None,
        };
        let tcp = match &self.config.tcp {
            Some(addr) => {
                let listener =
                    TcpListener::bind(addr).map_err(|e| DaemonError::Bind(addr.clone(), e))?;
                listener.set_nonblocking(true).map_err(|e| DaemonError::Bind(addr.clone(), e))?;
                Some(listener)
            }
            None => None,
        };
        if uds.is_none() && tcp.is_none() {
            return Err(DaemonError::NoEndpoint);
        }

        let ticker = {
            let daemon = Arc::clone(self);
            std::thread::Builder::new()
                .name("sedspecd-ticker".into())
                .spawn(move || daemon.ticker_loop())
                .ok()
        };

        let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.shutting_down() {
            let mut idle = true;
            if let Some(listener) = &uds {
                match listener.accept() {
                    Ok((stream, _)) => {
                        idle = false;
                        self.spawn_conn(&mut conns, stream);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(_) => {}
                }
            }
            if let Some(listener) = &tcp {
                match listener.accept() {
                    Ok((stream, _)) => {
                        idle = false;
                        self.spawn_conn(&mut conns, stream);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(_) => {}
                }
            }
            conns.retain(|handle| !handle.is_finished());
            if idle {
                std::thread::sleep(Duration::from_millis(2));
            }
        }

        // Wake parked watch loops so they observe the shutdown flag,
        // then drain every connection thread.
        self.watch.notify_all();
        for handle in conns {
            let _ = handle.join();
        }
        if let Some(handle) = ticker {
            let _ = handle.join();
        }

        // Graceful exit: fold the journal (lifting the alert mark into
        // the snapshot header) and clean up the socket file.
        {
            let mut core = self.core.lock();
            self.sync_alerts(&mut core, "Shutdown");
            self.compact_core(&mut core);
        }
        if let Some(path) = &self.config.socket {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }

    /// Moves an accepted stream onto its own connection thread.
    fn spawn_conn<S: ConnStream>(
        self: &Arc<Self>,
        conns: &mut Vec<std::thread::JoinHandle<()>>,
        stream: S,
    ) {
        stream.configure_blocking();
        let daemon = Arc::clone(self);
        let handle = std::thread::Builder::new().name("sedspecd-conn".into()).spawn(move || {
            let mut stream = stream;
            daemon.serve_conn(&mut stream);
        });
        if let Ok(handle) = handle {
            conns.push(handle);
        }
        // On spawn failure (thread exhaustion) the stream is dropped:
        // the peer sees a closed connection and retries.
    }
}

/// The accepted stream types the daemon serves, with their
/// post-accept socket configuration (accept loops are nonblocking;
/// connection threads read blocking with a timeout so a stalled peer
/// cannot pin its thread forever).
trait ConnStream: Read + Write + Send + 'static {
    /// Switches the stream to blocking reads with a timeout.
    fn configure_blocking(&self);
}

impl ConnStream for std::os::unix::net::UnixStream {
    fn configure_blocking(&self) {
        let _ = self.set_nonblocking(false);
        let _ = self.set_read_timeout(Some(Duration::from_secs(5)));
    }
}

impl ConnStream for std::net::TcpStream {
    fn configure_blocking(&self) {
        let _ = self.set_nonblocking(false);
        let _ = self.set_read_timeout(Some(Duration::from_secs(5)));
    }
}

fn describe_endpoint(config: &DaemonConfig) -> String {
    match (&config.socket, &config.tcp) {
        (Some(s), Some(t)) => format!("unix:{} + tcp:{t}", s.display()),
        (Some(s), None) => format!("unix:{}", s.display()),
        (None, Some(t)) => format!("tcp:{t}"),
        (None, None) => "unbound".into(),
    }
}

fn ok(id: u64, body: ResponseBody) -> Response {
    Response { v: PROTOCOL_VERSION, id, body }
}

fn err(id: u64, code: ErrCode, message: String) -> Response {
    Response { v: PROTOCOL_VERSION, id, body: ResponseBody::Error { code, message } }
}
