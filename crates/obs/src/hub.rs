//! The hub: one process-wide collector owning the trace ring, the
//! metrics registry and the flight recorder.
//!
//! Components register a [`ScopeInfo`] once and emit through a
//! [`ScopedSink`]; the hub stamps every event with a global sequence
//! number and the scope's round counter, feeds the metrics registry,
//! and maintains the per-block heat map behind `obs-report`'s
//! "hottest blocks" listing.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::event::{ScopeId, ScopeInfo, TraceEvent, TraceEventKind, VerdictKind};
use crate::flight::{FlightRecorder, ForensicData, ForensicRecord};
use crate::metrics::MetricsRegistry;
use crate::sink::ScopedSink;
use crate::stats::EnforceStats;
use crate::trace::TraceRecorder;
use crate::window::{TenantHealth, WindowConfig, WindowReport, WindowedMetrics};

/// Capacity knobs for a hub.
#[derive(Debug, Clone, Copy)]
pub struct ObsConfig {
    /// Trace ring capacity (events).
    pub ring_capacity: usize,
    /// Flight recorder capacity (forensic records).
    pub flight_capacity: usize,
    /// Trace events frozen into each forensic record.
    pub flight_events: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig { ring_capacity: 4096, flight_capacity: 64, flight_events: 16 }
    }
}

#[derive(Debug)]
struct ScopeState {
    info: ScopeInfo,
    /// The `tenant` label value, rendered once at registration.
    tenant: Option<String>,
    round: u64,
}

#[derive(Debug)]
struct HubInner {
    seq: u64,
    scopes: Vec<ScopeState>,
    ring: TraceRecorder,
    flight: FlightRecorder,
    /// `(scope, program, block)` → times the walk entered the block.
    heat: HashMap<(ScopeId, u32, u32), u64>,
}

/// The central observability collector.
#[derive(Debug)]
pub struct ObsHub {
    config: ObsConfig,
    metrics: MetricsRegistry,
    inner: Mutex<HubInner>,
    /// The windowed aggregation layer; `None` (the default) keeps the
    /// record path exactly as cheap as before the layer existed.
    window: Mutex<Option<WindowedMetrics>>,
}

impl Default for ObsHub {
    fn default() -> Self {
        ObsHub::new()
    }
}

impl ObsHub {
    /// A hub with default capacities.
    pub fn new() -> Self {
        ObsHub::with_config(ObsConfig::default())
    }

    /// A hub with explicit capacities.
    pub fn with_config(config: ObsConfig) -> Self {
        ObsHub {
            config,
            metrics: MetricsRegistry::new(),
            inner: Mutex::new(HubInner {
                seq: 0,
                scopes: Vec::new(),
                ring: TraceRecorder::new(config.ring_capacity),
                flight: FlightRecorder::new(config.flight_capacity),
                heat: HashMap::new(),
            }),
            window: Mutex::new(None),
        }
    }

    /// Attaches the windowed aggregation layer. Idempotent on
    /// reconfiguration: the ring and watchdog state start fresh.
    pub fn enable_window(&self, config: WindowConfig) {
        *self.window.lock() = Some(WindowedMetrics::new(config));
    }

    /// Whether the windowed layer is attached.
    pub fn window_enabled(&self) -> bool {
        self.window.lock().is_some()
    }

    /// Takes one windowed sample of the metrics registry (the caller
    /// owns the tick clock; `at_ms` is its timestamp). `None` when the
    /// layer is disabled.
    pub fn sample_window(&self, at_ms: u64) -> Option<WindowReport> {
        self.window.lock().as_mut().map(|w| w.sample(&self.metrics, at_ms))
    }

    /// Every tenant's current watchdog state (empty when the windowed
    /// layer is disabled or has not sampled yet).
    pub fn health_states(&self) -> Vec<TenantHealth> {
        self.window.lock().as_ref().map(WindowedMetrics::states).unwrap_or_default()
    }

    /// Interns a component identity; the returned id keys every event
    /// the component emits.
    pub fn register_scope(&self, info: ScopeInfo) -> ScopeId {
        let mut inner = self.inner.lock();
        let id = ScopeId(inner.scopes.len() as u32);
        let tenant = info.tenant.map(|t| t.to_string());
        inner.scopes.push(ScopeState { info, tenant, round: 0 });
        id
    }

    /// Registers `info` and returns a sink bound to it.
    pub fn sink(self: &Arc<Self>, info: ScopeInfo) -> Arc<ScopedSink> {
        let scope = self.register_scope(info);
        Arc::new(ScopedSink::new(Arc::clone(self), scope))
    }

    /// Stamps and records one event, updating metrics and the heat map.
    /// Round counters come from [`ObsHub::counts`] instead.
    pub fn record(&self, scope: ScopeId, kind: TraceEventKind) {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        inner.seq += 1;
        let seq = inner.seq;
        let state = &mut inner.scopes[scope.0 as usize];
        if matches!(kind, TraceEventKind::RoundBegin { .. }) {
            state.round += 1;
        }
        let round = state.round;
        let device = ("device", state.info.device.as_str());
        let tenant = state.tenant.as_deref().map(|t| ("tenant", t));
        match &kind {
            TraceEventKind::BlockStep { program, block } => {
                *inner.heat.entry((scope, *program, *block)).or_default() += 1;
            }
            TraceEventKind::RoundEnd { verdict, blocks, syncs, walk_ns } => {
                if *verdict == VerdictKind::DeviceFault {
                    self.metrics.inc_labeled("sedspec_device_faults_total", device, 1);
                }
                self.metrics.observe_labeled("sedspec_walk_ns", device, *walk_ns);
                self.metrics.observe_labeled("sedspec_blocks_per_round", device, *blocks);
                self.metrics.observe_labeled("sedspec_syncs_per_round", device, *syncs);
                if let Some(t) = tenant {
                    self.metrics.observe_labeled(crate::window::TENANT_WALK_NS, t, *walk_ns);
                }
            }
            TraceEventKind::JournalCommit { writes } | TraceEventKind::JournalAbort { writes } => {
                self.metrics.observe_labeled("sedspec_journal_undo_depth", device, *writes);
            }
            TraceEventKind::RoundBegin { .. }
            | TraceEventKind::SyncFetch { .. }
            | TraceEventKind::ShardStarted { .. } => {}
            TraceEventKind::SpecCompiled { .. } => {
                self.metrics.inc("sedspec_spec_compiled_total", 1);
            }
            TraceEventKind::SpecPublished { .. } => {
                self.metrics.inc("sedspec_spec_published_total", 1);
            }
            TraceEventKind::TenantAdded { .. } => {
                self.metrics.inc("sedspec_tenants_total", 1);
            }
            TraceEventKind::TenantQuarantined { .. } => {
                self.metrics.add_gauge("sedspec_quarantined_tenants", 1);
            }
            TraceEventKind::SpecSwapped { .. } => {
                self.metrics.inc("sedspec_spec_swaps_total", 1);
            }
            TraceEventKind::Alert { .. } => {
                self.metrics.inc_labeled("sedspec_alerts_total", tenant.unwrap_or(device), 1);
            }
            TraceEventKind::FaultInjected { kind: fault, .. } => {
                self.metrics.inc_labeled("sedspec_faults_injected_total", ("kind", fault), 1);
            }
            TraceEventKind::WorkerRestarted { .. } => {
                self.metrics.inc("sedspec_worker_restarts_total", 1);
            }
            TraceEventKind::TenantDegraded { .. } => {
                self.metrics.add_gauge("sedspec_degraded_tenants", 1);
            }
            TraceEventKind::DaemonStarted { restored_revisions, restored_tenants, .. } => {
                self.metrics.inc("sedspecd_starts_total", 1);
                self.metrics
                    .inc("sedspecd_restored_revisions_total", u64::from(*restored_revisions));
                self.metrics.inc("sedspecd_restored_tenants_total", u64::from(*restored_tenants));
            }
            TraceEventKind::WalAppended { kind: record, bytes } => {
                self.metrics.inc_labeled("sedspecd_wal_records_total", ("kind", record), 1);
                self.metrics.inc("sedspecd_wal_bytes_total", *bytes);
            }
            TraceEventKind::SnapshotCompacted { records, .. } => {
                self.metrics.inc("sedspecd_snapshot_compactions_total", 1);
                self.metrics.observe("sedspecd_snapshot_records", *records);
            }
            TraceEventKind::RequestServed { kind: request, error } => {
                self.metrics.inc_labeled("sedspecd_requests_total", ("kind", request), 1);
                if *error {
                    self.metrics.inc("sedspecd_request_errors_total", 1);
                }
            }
        }
        if inner.ring.push(TraceEvent { seq, round, scope, kind }) {
            self.metrics.inc("sedspec_trace_dropped_total", 1);
        }
    }

    /// Folds one enforcer call's [`EnforceStats`] delta into the round
    /// counters, their only writer. Nothing enters the trace ring.
    pub fn counts(&self, scope: ScopeId, delta: &EnforceStats) {
        let inner = self.inner.lock();
        let state = &inner.scopes[scope.0 as usize];
        let device = Some(("device", state.info.device.as_str()));
        let tenant = state.tenant.as_deref().map(|t| ("tenant", t));
        for (name, label, n) in [
            ("sedspec_rounds_total", device, delta.rounds),
            ("sedspec_halts_total", device, delta.halts),
            ("sedspec_warnings_total", device, delta.warnings),
            ("sedspec_aborts_total", device, delta.aborts),
            ("sedspec_sync_fetch_total", device, delta.check_syncs),
            (crate::window::TENANT_ROUNDS, tenant, delta.rounds),
            (crate::window::TENANT_ABORTS, tenant, delta.aborts),
        ] {
            if let Some(label) = label.filter(|_| n > 0) {
                self.metrics.inc_labeled(name, label, n);
            }
        }
    }

    /// Freezes a flagged round's forensic payload together with the
    /// scope's most recent trace events.
    pub fn record_violation(&self, scope: ScopeId, data: ForensicData) {
        let mut inner = self.inner.lock();
        inner.seq += 1;
        let seq = inner.seq;
        let state = &inner.scopes[scope.0 as usize];
        let (round, info) = (state.round, state.info.clone());
        let recent = inner.ring.tail_for(scope, self.config.flight_events);
        inner.flight.push(ForensicRecord { seq, round, scope: info, recent, data });
        self.metrics.inc("sedspec_forensic_records_total", 1);
    }

    /// The metrics registry (Prometheus exposition, JSON snapshot).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The trace ring serialized as JSON Lines, oldest first.
    pub fn trace_jsonl(&self) -> String {
        self.inner.lock().ring.to_jsonl()
    }

    /// The most recent `n` trace events, oldest first.
    pub fn recent_events(&self, n: usize) -> Vec<TraceEvent> {
        self.inner.lock().ring.tail(n)
    }

    /// Events evicted from the ring since creation.
    pub fn dropped_events(&self) -> u64 {
        self.inner.lock().ring.dropped()
    }

    /// All frozen forensic records, oldest first.
    pub fn forensics(&self) -> Vec<ForensicRecord> {
        self.inner.lock().flight.records().cloned().collect()
    }

    /// Per-device block heat, aggregated across scopes and sorted
    /// hottest-first: `(device, program, block, hits)`.
    pub fn block_heat(&self) -> Vec<(String, u32, u32, u64)> {
        let inner = self.inner.lock();
        let mut agg: HashMap<(String, u32, u32), u64> = HashMap::new();
        for (&(scope, program, block), &hits) in &inner.heat {
            let device = inner.scopes[scope.0 as usize].info.device.clone();
            *agg.entry((device, program, block)).or_default() += hits;
        }
        let mut out: Vec<(String, u32, u32, u64)> =
            agg.into_iter().map(|((d, p, b), h)| (d, p, b, h)).collect();
        out.sort_by(|a, b| b.3.cmp(&a.3).then_with(|| a.cmp(b)));
        out
    }

    /// One device's block heat, aggregated across scopes as
    /// `(program, block, hits)` triples sorted by key — what
    /// [`ObsHub::coverage_map`] re-keys. Empty when the device has
    /// emitted no block steps.
    pub fn heat_profile(&self, device: &str) -> Vec<(u32, u32, u64)> {
        let inner = self.inner.lock();
        let mut agg: HashMap<(u32, u32), u64> = HashMap::new();
        for (&(scope, program, block), &hits) in &inner.heat {
            if inner.scopes[scope.0 as usize].info.device == device {
                *agg.entry((program, block)).or_default() += hits;
            }
        }
        let mut out: Vec<(u32, u32, u64)> = agg.into_iter().map(|((p, b), h)| (p, b, h)).collect();
        out.sort_unstable();
        out
    }

    /// One device's cumulative ES-block coverage as an ordered
    /// [`CoverageMap`] — the heat map re-keyed for consumers that care
    /// about *which* blocks ran rather than how hot they are (fuzz
    /// novelty decisions, coverage-percent reporting).
    ///
    /// [`CoverageMap`]: crate::coverage::CoverageMap
    pub fn coverage_map(&self, device: &str) -> crate::coverage::CoverageMap {
        crate::coverage::CoverageMap::from_profile(&self.heat_profile(device))
    }

    /// Renders the operator report: totals, top-`top_n` hottest blocks
    /// per device (labels via `resolve`), per-device latency
    /// histograms, and the most recent forensic records.
    pub fn render_report(
        &self,
        top_n: usize,
        resolve: &dyn Fn(&str, u32, u32) -> Option<String>,
    ) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "sedspec observability report");
        let _ = writeln!(out, "============================");
        {
            let inner = self.inner.lock();
            let _ = writeln!(
                out,
                "trace ring: {} events held, {} dropped; {} forensic records",
                inner.ring.len(),
                inner.ring.dropped(),
                inner.flight.len()
            );
        }
        let m = &self.metrics;
        let _ = writeln!(
            out,
            "rounds {}  halts {}  warnings {}  aborts {}  alerts {}",
            m.sum_counter("sedspec_rounds_total"),
            m.sum_counter("sedspec_halts_total"),
            m.sum_counter("sedspec_warnings_total"),
            m.sum_counter("sedspec_aborts_total"),
            m.sum_counter("sedspec_alerts_total"),
        );

        let heat = self.block_heat();
        let mut devices: Vec<String> = heat.iter().map(|(d, ..)| d.clone()).collect();
        devices.sort();
        devices.dedup();
        let _ = writeln!(out, "hottest blocks per device (top {top_n}):");
        for device in &devices {
            let _ = writeln!(out, "  {device}:");
            for (d, program, block, hits) in heat.iter().filter(|(d, ..)| d == device).take(top_n) {
                let label = resolve(d, *program, *block).unwrap_or_default();
                let _ = writeln!(out, "    p{program}/b{block:<4} x{hits:<8} {label}");
            }
        }

        let _ = writeln!(out, "walk latency per device (ns):");
        for series in m.snapshot() {
            if series.name != "sedspec_walk_ns" {
                continue;
            }
            let Some(h) = &series.histogram else { continue };
            let device = series.label.as_ref().map_or("-", |(_, v)| v.as_str());
            let _ = writeln!(
                out,
                "  {:<10} count {:>8}  p50 {:>8}  p90 {:>8}  p99 {:>8}  max {:>8}",
                device, h.count, h.p50, h.p90, h.p99, h.max
            );
        }

        let records = self.forensics();
        let _ = writeln!(out, "recent alerts with forensics ({}):", records.len());
        for record in records.iter().rev() {
            out.push_str(&record.render());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SyncKind;
    use crate::sink::ObsSink;

    #[test]
    fn stamps_rounds_and_sequences() {
        let hub = Arc::new(ObsHub::new());
        let sink = hub.sink(ScopeInfo::device("FDC"));
        sink.event(TraceEventKind::RoundBegin { program: 0 });
        sink.event(TraceEventKind::BlockStep { program: 0, block: 1 });
        sink.event(TraceEventKind::RoundEnd {
            verdict: VerdictKind::Allowed,
            blocks: 1,
            syncs: 0,
            walk_ns: 120,
        });
        sink.event(TraceEventKind::RoundBegin { program: 0 });
        let events = hub.recent_events(10);
        assert_eq!(events.len(), 4);
        assert_eq!(events.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        assert_eq!(events.iter().map(|e| e.round).collect::<Vec<_>>(), vec![1, 1, 1, 2]);
        // Events stamp rounds but count none: the ledger delta does.
        assert_eq!(hub.metrics().counter("sedspec_rounds_total", Some(("device", "FDC"))), 0);
        sink.counts(&EnforceStats { rounds: 2, ..EnforceStats::default() });
        assert_eq!(hub.metrics().counter("sedspec_rounds_total", Some(("device", "FDC"))), 2);
        assert_eq!(hub.recent_events(10).len(), 4, "a ledger delta is no trace event");
    }

    #[test]
    fn violation_freezes_scope_events() {
        let hub = Arc::new(ObsHub::new());
        let fdc = hub.sink(ScopeInfo::tenant_device(0, 3, "FDC"));
        let other = hub.sink(ScopeInfo::tenant_device(1, 4, "SDHCI"));
        fdc.event(TraceEventKind::RoundBegin { program: 0 });
        other.event(TraceEventKind::RoundBegin { program: 0 });
        fdc.event(TraceEventKind::SyncFetch { kind: SyncKind::Var });
        fdc.violation(ForensicData {
            verdict: VerdictKind::Halted,
            strategy: "Parameter".into(),
            violation: "BufferOverflow".into(),
            violated: None,
            executed: false,
            block_path: Vec::new(),
            shadow_diff: Vec::new(),
        });
        let records = hub.forensics();
        assert_eq!(records.len(), 1);
        let r = &records[0];
        assert_eq!(r.scope, ScopeInfo::tenant_device(0, 3, "FDC"));
        // Only the FDC scope's events were frozen.
        assert_eq!(r.recent.len(), 2);
        assert!(r.recent.iter().all(|e| e.scope == ScopeId(0)));
    }

    #[test]
    fn report_lists_hot_blocks_with_resolved_labels() {
        let hub = Arc::new(ObsHub::new());
        let sink = hub.sink(ScopeInfo::device("FDC"));
        for _ in 0..3 {
            sink.event(TraceEventKind::BlockStep { program: 0, block: 7 });
        }
        sink.event(TraceEventKind::BlockStep { program: 0, block: 2 });
        let report = hub.render_report(5, &|device, program, block| {
            Some(format!("{device}-handler{program}-blk{block}"))
        });
        assert!(report.contains("p0/b7"));
        assert!(report.contains("x3"));
        assert!(report.contains("FDC-handler0-blk7"));
        let b7 = report.find("p0/b7").unwrap();
        let b2 = report.find("p0/b2").unwrap();
        assert!(b7 < b2, "hotter block must list first");
    }

    #[test]
    fn ring_evictions_surface_as_trace_dropped_total() {
        let hub =
            Arc::new(ObsHub::with_config(ObsConfig { ring_capacity: 4, ..ObsConfig::default() }));
        let sink = hub.sink(ScopeInfo::device("FDC"));
        for _ in 0..10 {
            sink.event(TraceEventKind::RoundBegin { program: 0 });
        }
        assert_eq!(hub.dropped_events(), 6);
        assert_eq!(hub.metrics().counter("sedspec_trace_dropped_total", None), 6);
    }

    #[test]
    fn tenant_scopes_feed_tenant_labeled_series_and_the_window() {
        let hub = Arc::new(ObsHub::new());
        assert!(!hub.window_enabled(), "windowed layer must be off by default");
        assert!(hub.sample_window(0).is_none());
        hub.enable_window(crate::window::WindowConfig::default());
        let sink = hub.sink(ScopeInfo::tenant_device(0, 9, "FDC"));
        sink.event(TraceEventKind::RoundBegin { program: 0 });
        sink.event(TraceEventKind::RoundEnd {
            verdict: VerdictKind::Allowed,
            blocks: 3,
            syncs: 0,
            walk_ns: 500,
        });
        sink.event(TraceEventKind::JournalAbort { writes: 2 });
        sink.counts(&EnforceStats { rounds: 1, aborts: 1, ..EnforceStats::default() });
        let m = hub.metrics();
        assert_eq!(m.counter(crate::window::TENANT_ROUNDS, Some(("tenant", "9"))), 1);
        assert_eq!(m.counter(crate::window::TENANT_ABORTS, Some(("tenant", "9"))), 1);
        assert_eq!(
            m.histogram(crate::window::TENANT_WALK_NS, Some(("tenant", "9"))).unwrap().count(),
            1
        );
        let report = hub.sample_window(1000).unwrap();
        assert_eq!(report.tick, 1);
        assert_eq!(report.tenants.len(), 1);
        assert_eq!(report.tenants[0].tenant, 9);
        assert_eq!(hub.health_states().len(), 1);
    }

    #[test]
    fn jsonl_export_parses_back() {
        let hub = Arc::new(ObsHub::new());
        let sink = hub.sink(ScopeInfo::device("PCNET"));
        sink.event(TraceEventKind::RoundBegin { program: 1 });
        sink.event(TraceEventKind::JournalCommit { writes: 5 });
        let jsonl = hub.trace_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        for line in jsonl.lines() {
            let _: TraceEvent = serde_json::from_str(line).unwrap();
        }
    }
}
