//! The versioned, length-prefixed JSON wire protocol.
//!
//! Every message on a connection is one *frame*: a 4-byte little-endian
//! payload length followed by that many bytes of UTF-8 JSON. The JSON
//! is a [`Request`] (client → daemon) or a [`Response`] (daemon →
//! client); both carry the protocol version in a `v` field and a
//! client-chosen correlation `id` the daemon echoes back. Frames are
//! served strictly in order per connection, so `id` exists for log
//! correlation, not reordering.
//!
//! The framing is transport-agnostic: the daemon speaks it over a Unix
//! domain socket by default and over TCP behind a flag, and the
//! durable-store tests speak it over in-memory pipes. Length-prefixing
//! (rather than line-delimiting) keeps spec JSON — which may contain
//! newlines once pretty-printed — opaque to the transport.

use std::io::{self, Read, Write};

use sedspec::collect::TrainStep;
use sedspec_devices::{DeviceKind, QemuVersion};
use sedspec_fleet::pool::{BatchReport, TenantConfig};
use sedspec_fleet::registry::SpecKey;
use sedspec_fleet::telemetry::{AlertEvent, FleetReport, TenantStatus};
use sedspec_obs::{HealthTransition, TenantHealth, WindowReport};
use serde::{Deserialize, Serialize};

/// Wire protocol version. Bumped on any frame-shape change; the daemon
/// rejects mismatched frames with [`ErrCode::Version`] so old clients
/// fail loudly instead of misparsing. v2 added the streaming `Watch`
/// and one-shot `Health` operations plus the telemetry fields of
/// [`ServerHealth`].
pub const PROTOCOL_VERSION: u32 = 2;

/// Upper bound on a frame payload. A full five-device specification
/// set is ~2 MiB of JSON; 64 MiB leaves room for batch submissions
/// while making a corrupt length prefix fail fast instead of
/// allocating the universe.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// The most a frame read allocates before payload bytes arrive; larger
/// payloads grow the buffer as they are read.
const FRAME_CHUNK: usize = 64 * 1024;

/// One client request frame.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Request {
    /// Protocol version ([`PROTOCOL_VERSION`]).
    pub v: u32,
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Admission token; `None` on open (tokenless) daemons.
    pub auth: Option<String>,
    /// The operation.
    pub body: RequestBody,
}

/// The operations the daemon serves.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RequestBody {
    /// Liveness probe; answered with [`ResponseBody::Pong`].
    Ping,
    /// Publish a specification revision (admin). Runs the same
    /// `sedspec-analysis` gate as an in-process
    /// `SpecRegistry::publish`, then journals the revision to the WAL.
    PublishSpec {
        /// Channel device.
        device: DeviceKind,
        /// Channel QEMU version.
        version: QemuVersion,
        /// The revision's shipping JSON.
        spec_json: String,
        /// Accept a revision whose semantic diff against the incumbent
        /// loosens enforcement (`SpecRegistry::publish_with`); without
        /// it such a revision is refused with `SpecRejected`.
        allow_loosening: bool,
    },
    /// Host a tenant on the pool (admin). Journaled, so a restart
    /// re-hosts it.
    AddTenant {
        /// The tenant's full configuration.
        config: TenantConfig,
    },
    /// Run a batch of guest script steps on a tenant. Requires a token
    /// admitted for that tenant; rate-limited per tenant.
    ///
    /// Consecutive I/O steps ride the pool's batched enforcement path
    /// (`EnforcingDevice::handle_batch`): the shard worker pre-walks
    /// each run of same-device requests through the compiled checker in
    /// one submission and only then executes the clean prefix, so a
    /// daemon client gets the amortized-dispatch throughput without any
    /// protocol change. Verdict order, alerts, rollback and quarantine
    /// behave exactly as if every step were submitted alone.
    SubmitBatch {
        /// Target tenant.
        tenant: u64,
        /// Guest steps (I/O, memory writes, delays).
        steps: Vec<TrainStep>,
    },
    /// One tenant's cumulative status.
    TenantStatus {
        /// The tenant.
        tenant: u64,
    },
    /// The whole fleet: per-shard telemetry, recent alerts, alert seq.
    FleetStatus,
    /// Operator quarantine of a tenant (admin). Journaled.
    Quarantine {
        /// The tenant.
        tenant: u64,
    },
    /// Operator release of a quarantined tenant (admin); restores its
    /// rollback budget. Journaled.
    Release {
        /// The tenant.
        tenant: u64,
    },
    /// The daemon's metrics in Prometheus text exposition.
    Metrics,
    /// Server-side health: store, registry, pool, uptime counters.
    Doctor,
    /// One-shot health probe: the [`ServerHealth`] section plus the
    /// latest windowed-telemetry report, for `ctl top`-style pollers.
    Health,
    /// Subscribe the connection to the daemon's live event stream.
    /// Answered with one [`ResponseBody::Watching`] ack, after which
    /// the daemon pushes [`ResponseBody::Event`] frames (alerts,
    /// health transitions, windowed deltas, forensic summaries) until
    /// the client disconnects or the daemon shuts down. Any admitted
    /// token may watch; tenant tokens see the full stream — telemetry
    /// is observability, not data-plane access.
    Watch {
        /// Resume after this event sequence number; `None` starts at
        /// the live tail. Events still buffered in the daemon's ring
        /// are replayed first, so a reconnecting client can pass the
        /// last `seq` it saw and miss nothing the ring still holds.
        cursor: Option<u64>,
        /// When set, only events attributable to this tenant are
        /// delivered (window heartbeats always flow — they carry the
        /// stream's liveness).
        tenant: Option<u64>,
    },
    /// Graceful shutdown (admin): compacts the store (persisting the
    /// alert-seq high-water mark), then stops accepting connections.
    Shutdown,
}

impl RequestBody {
    /// Stable name for metrics labels and request logs.
    pub fn kind(&self) -> &'static str {
        match self {
            RequestBody::Ping => "Ping",
            RequestBody::PublishSpec { .. } => "PublishSpec",
            RequestBody::AddTenant { .. } => "AddTenant",
            RequestBody::SubmitBatch { .. } => "SubmitBatch",
            RequestBody::TenantStatus { .. } => "TenantStatus",
            RequestBody::FleetStatus => "FleetStatus",
            RequestBody::Quarantine { .. } => "Quarantine",
            RequestBody::Release { .. } => "Release",
            RequestBody::Metrics => "Metrics",
            RequestBody::Doctor => "Doctor",
            RequestBody::Health => "Health",
            RequestBody::Watch { .. } => "Watch",
            RequestBody::Shutdown => "Shutdown",
        }
    }

    /// Whether the operation mutates daemon state and therefore
    /// requires an admin token on token-guarded daemons.
    pub fn is_admin(&self) -> bool {
        matches!(
            self,
            RequestBody::PublishSpec { .. }
                | RequestBody::AddTenant { .. }
                | RequestBody::Quarantine { .. }
                | RequestBody::Release { .. }
                | RequestBody::Shutdown
        )
    }
}

/// One daemon response frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// Protocol version ([`PROTOCOL_VERSION`]).
    pub v: u32,
    /// The request's correlation id.
    pub id: u64,
    /// The outcome.
    pub body: ResponseBody,
}

/// Daemon answers, one variant per request kind plus the error frame.
/// `PartialEq` only: windowed reports carry f64 rates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ResponseBody {
    /// Liveness answer.
    Pong {
        /// Daemon build version (`CARGO_PKG_VERSION`).
        server: String,
        /// Protocol version the daemon speaks.
        protocol: u32,
    },
    /// The revision was gated, stored, journaled, and made current.
    Published {
        /// Identity of the stored revision.
        key: SpecKey,
        /// Channel epoch after the publish.
        epoch: u64,
        /// Semantic changelog vs the displaced incumbent
        /// (`"first revision"` when the channel was empty).
        changelog: String,
    },
    /// The tenant is hosted and journaled.
    TenantAdded {
        /// The tenant id.
        tenant: u64,
    },
    /// The batch ran; its report.
    Batch {
        /// Outcome of the batch on its tenant.
        report: BatchReport,
    },
    /// One tenant's status.
    Status {
        /// The status, as its shard reports it.
        status: TenantStatus,
    },
    /// The whole fleet.
    Fleet {
        /// Per-shard telemetry snapshot.
        report: FleetReport,
        /// Alert-sequence high-water mark (monotonic across restarts).
        alert_seq: u64,
        /// Most recent alerts (bounded tail of the stream).
        recent_alerts: Vec<AlertEvent>,
    },
    /// Quarantine flag updated.
    QuarantineSet {
        /// The tenant.
        tenant: u64,
        /// The flag after the operation.
        quarantined: bool,
        /// The flag before the operation.
        was_quarantined: bool,
    },
    /// Prometheus text exposition of the daemon's metrics registry.
    MetricsText {
        /// The exposition body.
        prometheus: String,
    },
    /// Server-side health report (JSON-shaped; the `ctl doctor`
    /// command merges it with client-side store and socket checks).
    Doctor {
        /// The daemon's own health section.
        health: ServerHealth,
    },
    /// One-shot health + latest windowed-telemetry snapshot.
    HealthReport {
        /// The daemon's own health section.
        health: ServerHealth,
        /// Per-tenant window deltas and watchdog states from the most
        /// recent telemetry tick; `None` before the first tick.
        window: Option<WindowReport>,
        /// Current watchdog verdict per tenant.
        states: Vec<TenantHealth>,
    },
    /// The watch subscription is live; [`ResponseBody::Event`] frames
    /// follow on this connection.
    Watching {
        /// The cursor the stream resumes after (the requested cursor,
        /// or the live tail when none was given).
        resume: u64,
        /// Oldest event sequence number still buffered. A reconnecting
        /// client whose cursor predates this has a gap.
        earliest: u64,
        /// Newest event sequence number published so far.
        latest: u64,
    },
    /// One pushed event on a watch subscription.
    Event {
        /// The event and its stream cursor.
        frame: WatchFrame,
    },
    /// The daemon acknowledged the shutdown and is draining.
    ShuttingDown,
    /// The request failed.
    Error {
        /// Machine-readable failure class.
        code: ErrCode,
        /// Human-readable detail (analyzer reports render here).
        message: String,
    },
}

/// One event on the watch stream, stamped with its cursor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WatchFrame {
    /// Daemon-run-scoped monotonic sequence number (starts at 1).
    /// Resumable within one daemon lifetime; a restart resets it, which
    /// the [`ResponseBody::Watching`] bounds make visible.
    pub seq: u64,
    /// What happened.
    pub event: WatchEvent,
}

/// The events a watch subscription delivers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WatchEvent {
    /// A flagged round, straight off the pool's alert stream.
    Alert {
        /// The alert as the shard raised it.
        alert: AlertEvent,
    },
    /// The health watchdog moved a tenant between states.
    HealthChanged {
        /// The transition, with the window evidence that caused it.
        transition: HealthTransition,
    },
    /// Periodic windowed-telemetry heartbeat: per-tenant rates,
    /// latency quantiles and watchdog states for the latest tick.
    Window {
        /// The tick's report.
        report: WindowReport,
    },
    /// A forensic record was frozen for a halted or warned round.
    Forensic {
        /// Compact summary (the full record stays in `obs-report`).
        summary: ForensicSummary,
    },
}

impl WatchEvent {
    /// The tenant this event is attributable to, for server-side
    /// stream filtering. `None` means the event is stream-wide
    /// (window heartbeats) and always delivered.
    pub fn tenant(&self) -> Option<u64> {
        match self {
            WatchEvent::Alert { alert } => Some(alert.tenant.0),
            WatchEvent::HealthChanged { transition } => Some(transition.tenant),
            WatchEvent::Window { .. } => None,
            WatchEvent::Forensic { summary } => summary.tenant,
        }
    }
}

/// Compact rendering of a [`sedspec_obs::ForensicRecord`] for the
/// watch stream; heavy payloads (block path, shadow diff, recent
/// trace) stay server-side.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ForensicSummary {
    /// The forensic record's capture sequence number.
    pub seq: u64,
    /// The scope's round counter when the record froze.
    pub round: u64,
    /// Shard of the originating scope, when pooled.
    pub shard: Option<u32>,
    /// Tenant of the originating scope, when tenant-bound.
    pub tenant: Option<u64>,
    /// Device (or component) name of the originating scope.
    pub device: String,
    /// The round's verdict, rendered (`"halt"` / `"warn"` / ...).
    pub verdict: String,
    /// The first violation, rendered for the log line.
    pub violation: String,
}

/// Machine-readable failure classes of [`ResponseBody::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrCode {
    /// Frame `v` does not match the daemon's [`PROTOCOL_VERSION`].
    Version,
    /// Missing or unrecognized admission token, or a tenant token used
    /// on another tenant's traffic or an admin operation.
    Unauthorized,
    /// The tenant's token bucket is empty; retry after the advertised
    /// refill interval.
    RateLimited,
    /// The request was well-formed JSON but semantically invalid.
    BadRequest,
    /// The publish-time static analyzer rejected the revision.
    SpecRejected,
    /// The enforcement pool refused the operation (unknown tenant,
    /// saturation, dead shard, ...).
    Pool,
    /// The daemon could not persist to its durable store.
    Store,
    /// Unexpected server-side failure.
    Internal,
}

/// The daemon's self-reported health, embedded in doctor reports.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerHealth {
    /// Daemon build version.
    pub server: String,
    /// Protocol version.
    pub protocol: u32,
    /// Spec-store channels with at least one revision.
    pub channels: usize,
    /// Stored specification revisions.
    pub revisions: usize,
    /// Hosted tenants.
    pub tenants: usize,
    /// Quarantined tenants.
    pub quarantined: usize,
    /// Degraded tenants.
    pub degraded: usize,
    /// Worker shards and their liveness.
    pub shards_alive: usize,
    /// Total worker shards.
    pub shards: usize,
    /// Alert-sequence high-water mark.
    pub alert_seq: u64,
    /// WAL records appended since the daemon started.
    pub wal_records: u64,
    /// WAL bytes appended since the daemon started.
    pub wal_bytes: u64,
    /// Snapshot compactions performed since the daemon started.
    pub compactions: u64,
    /// Requests served since the daemon started.
    pub requests: u64,
    /// Trace-ring events evicted before export since the daemon
    /// started (`sedspec_trace_dropped_total`). A rising value means
    /// forensic tails are losing history — raise the ring capacity.
    pub trace_dropped: u64,
    /// Watch subscriptions currently attached.
    pub watchers: usize,
}

/// Protocol-level failures of the framing layer.
#[derive(Debug)]
pub enum ProtoError {
    /// The transport failed mid-frame.
    Io(io::Error),
    /// The peer closed the connection between frames (clean EOF).
    Closed,
    /// A length prefix exceeded [`MAX_FRAME_LEN`].
    Oversized(u32),
    /// The payload was not valid frame JSON.
    Malformed(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "transport error: {e}"),
            ProtoError::Closed => write!(f, "connection closed"),
            ProtoError::Oversized(n) => {
                write!(f, "frame length {n} exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            ProtoError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// [`ProtoError::Oversized`] before writing anything when the payload
/// exceeds the cap; transport errors otherwise.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), ProtoError> {
    let len = u32::try_from(payload.len()).map_err(|_| ProtoError::Oversized(u32::MAX))?;
    if len > MAX_FRAME_LEN {
        return Err(ProtoError::Oversized(len));
    }
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one length-prefixed frame payload.
///
/// # Errors
///
/// [`ProtoError::Closed`] on clean EOF at a frame boundary;
/// [`ProtoError::Oversized`] on a length prefix beyond the cap;
/// transport errors (including EOF mid-frame) otherwise.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, ProtoError> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Err(ProtoError::Closed),
        Err(e) => return Err(ProtoError::Io(e)),
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(ProtoError::Oversized(len));
    }
    // The prefix is only a claim: size the buffer by the bytes that
    // actually arrive, doubling from one chunk, so a peer that sends a
    // large prefix and stops costs a chunk, not the whole claim.
    let len = len as usize;
    let mut payload = Vec::new();
    while payload.len() < len {
        let filled = payload.len();
        payload.resize(len.min(if filled == 0 { FRAME_CHUNK } else { filled * 2 }), 0);
        r.read_exact(&mut payload[filled..])?;
    }
    Ok(payload)
}

/// Serializes and writes one request frame.
///
/// # Errors
///
/// As for [`write_frame`].
pub fn write_request(w: &mut impl Write, req: &Request) -> Result<(), ProtoError> {
    let json = serde_json::to_string(req).map_err(|e| ProtoError::Malformed(e.to_string()))?;
    write_frame(w, json.as_bytes())
}

/// Parses a request frame payload. Split from [`read_request`] so the
/// daemon can time JSON decode separately from the blocking read.
///
/// # Errors
///
/// [`ProtoError::Malformed`] on non-UTF-8 or bad JSON.
pub fn parse_request(payload: &[u8]) -> Result<Request, ProtoError> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| ProtoError::Malformed(format!("not UTF-8: {e}")))?;
    serde_json::from_str(text).map_err(|e| ProtoError::Malformed(e.to_string()))
}

/// Reads and parses one request frame.
///
/// # Errors
///
/// As for [`read_frame`], plus [`ProtoError::Malformed`] on bad JSON.
pub fn read_request(r: &mut impl Read) -> Result<Request, ProtoError> {
    let payload = read_frame(r)?;
    parse_request(&payload)
}

/// Serializes and writes one response frame.
///
/// # Errors
///
/// As for [`write_frame`].
pub fn write_response(w: &mut impl Write, resp: &Response) -> Result<(), ProtoError> {
    let json = serde_json::to_string(resp).map_err(|e| ProtoError::Malformed(e.to_string()))?;
    write_frame(w, json.as_bytes())
}

/// Reads and parses one response frame.
///
/// # Errors
///
/// As for [`read_frame`], plus [`ProtoError::Malformed`] on bad JSON.
pub fn read_response(r: &mut impl Read) -> Result<Response, ProtoError> {
    let payload = read_frame(r)?;
    let text =
        String::from_utf8(payload).map_err(|e| ProtoError::Malformed(format!("not UTF-8: {e}")))?;
    serde_json::from_str(&text).map_err(|e| ProtoError::Malformed(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let req = Request {
            v: PROTOCOL_VERSION,
            id: 42,
            auth: Some("tok".into()),
            body: RequestBody::TenantStatus { tenant: 7 },
        };
        let mut buf = Vec::new();
        write_request(&mut buf, &req).unwrap();
        let back = read_request(&mut buf.as_slice()).unwrap();
        assert_eq!(back, req);

        let resp = Response {
            v: PROTOCOL_VERSION,
            id: 42,
            body: ResponseBody::Error { code: ErrCode::RateLimited, message: "slow down".into() },
        };
        let mut buf = Vec::new();
        write_response(&mut buf, &resp).unwrap();
        assert_eq!(read_response(&mut buf.as_slice()).unwrap(), resp);
    }

    #[test]
    fn eof_at_boundary_is_closed_and_midframe_is_io() {
        let mut empty: &[u8] = &[];
        assert!(matches!(read_frame(&mut empty), Err(ProtoError::Closed)));
        // A length prefix promising more bytes than follow.
        let mut torn: &[u8] = &[8, 0, 0, 0, b'x'];
        assert!(matches!(read_frame(&mut torn), Err(ProtoError::Io(_))));
    }

    #[test]
    fn deep_nests_are_malformed_not_an_abort() {
        // Decoded before auth: one small unauthenticated frame must not
        // overflow the connection thread's stack.
        for open in ["[", "{\"a\":"] {
            for bytes in [10 << 10, 1 << 20] {
                let frame = open.repeat(bytes / open.len());
                let err =
                    parse_request(frame.as_bytes()).expect_err("a hostile nest must not parse");
                assert!(
                    matches!(&err, ProtoError::Malformed(m) if m.contains("nesting deeper than")),
                    "{open} x {bytes}: {err}"
                );
            }
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert!(matches!(read_frame(&mut bytes.as_slice()), Err(ProtoError::Oversized(_))));
    }

    #[test]
    fn request_kinds_are_stable() {
        assert_eq!(RequestBody::Ping.kind(), "Ping");
        assert!(RequestBody::Shutdown.is_admin());
        assert!(!RequestBody::FleetStatus.is_admin());
        assert!(
            !RequestBody::SubmitBatch { tenant: 0, steps: Vec::new() }.is_admin(),
            "submission is tenant-scoped, not admin"
        );
        assert_eq!(RequestBody::Health.kind(), "Health");
        assert_eq!(RequestBody::Watch { cursor: None, tenant: None }.kind(), "Watch");
        assert!(
            !RequestBody::Watch { cursor: None, tenant: None }.is_admin(),
            "watching is observability, not mutation"
        );
        assert!(!RequestBody::Health.is_admin());
    }

    #[test]
    fn watch_frames_round_trip_and_filter_by_tenant() {
        use sedspec_fleet::pool::TenantId;

        let alert = WatchEvent::Alert {
            alert: AlertEvent {
                seq: 9,
                round: 3,
                shard: 1,
                tenant: TenantId(7),
                device: DeviceKind::Fdc,
                level: None,
                detail: "oob".into(),
            },
        };
        assert_eq!(alert.tenant(), Some(7));

        let forensic = WatchEvent::Forensic {
            summary: ForensicSummary {
                seq: 2,
                round: 3,
                shard: Some(1),
                tenant: Some(7),
                device: "FDC".into(),
                verdict: "halt".into(),
                violation: "write beyond track".into(),
            },
        };
        assert_eq!(forensic.tenant(), Some(7));

        let resp = Response {
            v: PROTOCOL_VERSION,
            id: 5,
            body: ResponseBody::Event { frame: WatchFrame { seq: 11, event: alert } },
        };
        let mut buf = Vec::new();
        write_response(&mut buf, &resp).unwrap();
        assert_eq!(read_response(&mut buf.as_slice()).unwrap(), resp);
    }
}
