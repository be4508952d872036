//! sedspec-obs: structured tracing, metrics and a violation flight
//! recorder for the SEDSpec enforcement pipeline.
//!
//! Three pieces, all bounded and shim-only:
//!
//! 1. a **structured trace recorder** ([`TraceRecorder`]) — a ring of
//!    typed [`TraceEvent`]s (round begin/end with verdict, block-walk
//!    steps, sync fetches, journal commit/abort, spec compile/publish,
//!    shard/tenant lifecycle), each stamped with a global sequence
//!    number and the scope's round counter, exportable as JSON Lines;
//! 2. a **metrics registry** ([`MetricsRegistry`]) — counters, gauges
//!    and log-linear-bucket [`Histogram`]s (walk ns/round, blocks per
//!    round, sync round-trips, journal undo depth, alerts per tenant)
//!    with a Prometheus-style text exposition and a serde JSON
//!    snapshot;
//! 3. a **violation flight recorder** ([`FlightRecorder`]) — on any
//!    halted or warned round, the last-N trace events for that scope
//!    plus the walked block path (labels from the compiled spec) and
//!    the shadow-state byte diff of the aborted round are frozen into a
//!    [`ForensicRecord`].
//!
//! The pipeline holds instrumentation as `Option<Arc<dyn`[`ObsSink`]
//! `>>` handles; with the option `None` the checker hot path keeps its
//! zero-allocation invariant and pays one predictable branch per site.
//! [`ObsHub`] is the process-wide collector behind `sedspec
//! obs-report`.

pub mod coverage;
pub mod event;
pub mod flight;
pub mod hub;
pub mod metrics;
pub mod sink;
pub mod stats;
pub mod trace;
pub mod window;

pub use coverage::{CoverageMap, CoverageSink};
pub use event::{ScopeId, ScopeInfo, SyncKind, TraceEvent, TraceEventKind, VerdictKind};
pub use flight::{
    render_kind, FlightRecorder, ForensicData, ForensicRecord, PathStep, ShadowDelta,
};
pub use hub::{ObsConfig, ObsHub};
pub use metrics::{Histogram, HistogramSnapshot, MetricsRegistry, SeriesSnapshot};
pub use sink::{NoopSink, ObsSink, ScopedSink};
pub use stats::EnforceStats;
pub use trace::TraceRecorder;
pub use window::{
    HealthState, HealthTransition, TenantHealth, TenantWindow, WindowConfig, WindowReport,
    WindowedMetrics,
};
