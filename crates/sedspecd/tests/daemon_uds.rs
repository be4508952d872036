//! Integration tests against a live daemon: the wire protocol over a
//! real Unix domain socket, token-guarded admission, per-tenant rate
//! limiting, and the durability contract across both crash-style and
//! graceful restarts.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use sedspec::collect::TrainStep;
use sedspec::pipeline::{train, TrainingConfig};
use sedspec_devices::{build_device, DeviceKind, QemuVersion};
use sedspec_fleet::pool::TenantConfig;
use sedspec_fleet::TenantStatus;
use sedspec_obs::ObsHub;
use sedspec_vmm::{AddressSpace, IoRequest, VmContext};
use sedspecd::proto::{read_response, write_frame};
use sedspecd::wal::replay;
use sedspecd::{
    AuthConfig, ClientError, CtlClient, Daemon, DaemonConfig, DurableStore, ErrCode,
    RateLimitConfig, Request, RequestBody, ResponseBody, WalRecord, PROTOCOL_VERSION,
};

fn unique(tag: &str) -> String {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    format!("sedspecd-it-{}-{tag}-{n}", std::process::id())
}

fn fresh_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(unique(tag));
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A real FDC specification, trained on a single in-spec PMIO read so
/// publishing stays fast and anything else is off-spec.
fn spec_json() -> String {
    let mut device = build_device(DeviceKind::Fdc, QemuVersion::Patched);
    let mut ctx = VmContext::new(0x10000, 64);
    let samples = vec![vec![IoRequest::read(AddressSpace::Pmio, 0x3f4, 1)]];
    train(&mut device, &mut ctx, &samples, &TrainingConfig::default()).unwrap().to_json()
}

/// A tenant hosting only the FDC channel the test publishes.
fn fdc_tenant(id: u64) -> TenantConfig {
    let mut config = TenantConfig::new(id);
    config.devices = vec![(DeviceKind::Fdc, QemuVersion::Patched)];
    config
}

fn in_spec_steps() -> Vec<TrainStep> {
    vec![TrainStep::Io(IoRequest::read(AddressSpace::Pmio, 0x3f4, 1))]
}

/// Three off-spec writes: with the default rollback budget of one, the
/// first halt rolls back and the next quarantines within one batch.
fn off_spec_steps() -> Vec<TrainStep> {
    (0..3).map(|_| TrainStep::Io(IoRequest::write(AddressSpace::Pmio, 0x3f5, 1, 0xEE))).collect()
}

/// Boots a daemon on a fresh socket and blocks until it answers frames.
/// On guarded daemons an `Unauthorized` error frame still proves the
/// server is up, so it counts as ready.
fn start(mut config: DaemonConfig, tag: &str) -> (Arc<Daemon>, thread::JoinHandle<()>, PathBuf) {
    let socket = std::env::temp_dir().join(format!("{}.sock", unique(tag)));
    config.socket = Some(socket.clone());
    let daemon = Arc::new(Daemon::new(config, Arc::new(ObsHub::new())).unwrap());
    let runner = Arc::clone(&daemon);
    let join = thread::spawn(move || runner.run().unwrap());
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(mut probe) = CtlClient::connect_unix(&socket) {
            match probe.ping() {
                Ok(_) | Err(ClientError::Server { .. }) => break,
                Err(_) => {}
            }
        }
        assert!(Instant::now() < deadline, "daemon did not come up on {}", socket.display());
        thread::sleep(Duration::from_millis(10));
    }
    (daemon, join, socket)
}

fn server_err(result: Result<impl std::fmt::Debug, ClientError>) -> ErrCode {
    match result {
        Err(ClientError::Server { code, .. }) => code,
        other => panic!("expected a server error frame, got {other:?}"),
    }
}

#[test]
fn lifecycle_round_trip_and_graceful_restart_over_uds() {
    let store = fresh_store("lifecycle");
    let (daemon, join, socket) = start(DaemonConfig::new(&store), "lifecycle");

    let mut ctl = CtlClient::connect_unix(&socket).unwrap();
    let (_, protocol) = ctl.ping().unwrap();
    assert_eq!(protocol, PROTOCOL_VERSION);

    let (key, epoch) =
        ctl.publish_spec(DeviceKind::Fdc, QemuVersion::Patched, spec_json()).unwrap();
    assert_eq!((key.device, key.version, epoch), (DeviceKind::Fdc, QemuVersion::Patched, 1));
    assert_eq!(ctl.add_tenant(fdc_tenant(1)).unwrap(), 1);

    // In-spec traffic passes; off-spec traffic burns the rollback
    // budget and quarantines the tenant within one batch.
    let clean = ctl.submit(1, in_spec_steps()).unwrap();
    assert!(!clean.quarantined && clean.flagged == 0, "in-spec batch flagged: {clean:?}");
    let hostile = ctl.submit(1, off_spec_steps()).unwrap();
    assert!(hostile.quarantined, "off-spec batch must quarantine: {hostile:?}");
    assert_eq!(hostile.rollbacks, 1);
    let rejected = ctl.submit(1, in_spec_steps()).unwrap();
    assert!(rejected.rejected, "a quarantined tenant must reject batches");

    let status = ctl.tenant_status(1).unwrap();
    assert!(status.quarantined && status.rollbacks == 1);
    let (report, alert_seq, recent) = ctl.fleet_status().unwrap();
    assert_eq!(report.quarantined_count(), 1);
    assert!(alert_seq > 0, "halts must advance the alert sequence");
    assert!(!recent.is_empty(), "the alert tail must surface over the wire");
    assert!(ctl.metrics().unwrap().contains("sedspec"), "metrics exposition looks empty");
    let health = ctl.server_health().unwrap();
    assert_eq!((health.revisions, health.tenants, health.quarantined), (1, 1, 1));
    assert!(health.wal_records > 0, "mutations must have been journaled");

    let exported = daemon.registry().export_json(&key).expect("published revision present");
    ctl.shutdown().unwrap();
    join.join().unwrap();
    assert!(!socket.exists(), "graceful exit must remove the socket file");
    drop(daemon);

    // Same store, new process: the snapshot written at shutdown warm
    // loads the whole world back, byte-identically.
    let warm = Daemon::new(DaemonConfig::new(&store), Arc::new(ObsHub::new())).unwrap();
    let stats = warm.warm_stats();
    assert!(stats.snapshot_loaded, "graceful shutdown must have compacted a snapshot");
    assert!(stats.replay_clean && stats.skipped.is_empty(), "warm load not clean: {stats:?}");
    assert_eq!((stats.revisions, stats.tenants), (1, 1));
    assert_eq!(stats.alert_seq, alert_seq, "alert high-water mark must survive restart");
    assert_eq!(
        warm.registry().export_json(&key).as_deref(),
        Some(exported.as_str()),
        "restored revision must be byte-identical"
    );
    assert_eq!(warm.registry().epoch(DeviceKind::Fdc, QemuVersion::Patched), 1);
    match warm.handle(&req(1, RequestBody::TenantStatus { tenant: 1 })).body {
        ResponseBody::Status { status } => {
            assert!(status.quarantined, "quarantine must survive restart");
            assert_eq!(status.rollbacks, 1, "spent rollback budget must survive restart");
        }
        other => panic!("unexpected response: {other:?}"),
    }
}

/// The operator path end to end: an organic quarantine, an operator
/// quarantine and a release are each journaled once, and a restart on
/// the same store brings both tenants back in the state they left in.
/// Nothing is submitted after the release: a released tenant's next
/// batch is not part of this contract.
#[test]
fn operator_quarantine_and_release_survive_a_restart() {
    let store = fresh_store("operator");
    let (daemon, join, socket) = start(DaemonConfig::new(&store), "operator");
    let mut ctl = CtlClient::connect_unix(&socket).unwrap();
    ctl.publish_spec(DeviceKind::Fdc, QemuVersion::Patched, spec_json()).unwrap();
    ctl.add_tenant(fdc_tenant(1)).unwrap();
    ctl.add_tenant(fdc_tenant(2)).unwrap();

    let hostile = ctl.submit(1, off_spec_steps()).unwrap();
    assert!(hostile.quarantined && hostile.rollbacks == 1, "bad batch outcome: {hostile:?}");
    assert!(!ctl.set_quarantine(2, true).unwrap(), "tenant 2 was not quarantined before");
    assert!(ctl.set_quarantine(1, false).unwrap(), "tenant 1 was quarantined before");

    let before: Vec<TenantStatus> = [1, 2].map(|t| ctl.tenant_status(t).unwrap()).to_vec();
    assert_eq!(protective(&before[0]), (false, false, 0), "release restores the budget");
    assert_eq!(protective(&before[1]), (true, false, 0));
    let state = |tenant, quarantined, rollbacks_used| WalRecord::StateChange {
        tenant,
        quarantined,
        degraded: false,
        rollbacks_used,
    };
    let (wal, _) = replay(&store.join("wal.log")).unwrap();
    assert_eq!(
        tenant_records(wal),
        vec![
            WalRecord::TenantHosted { config: fdc_tenant(1) },
            WalRecord::TenantHosted { config: fdc_tenant(2) },
            state(1, true, 1),
            state(2, true, 0),
            state(1, false, 0),
        ],
        "each transition is journaled exactly once"
    );
    ctl.shutdown().unwrap();
    join.join().unwrap();
    drop(daemon);

    let warm = Daemon::new(DaemonConfig::new(&store), Arc::new(ObsHub::new())).unwrap();
    let stats = warm.warm_stats();
    assert!(stats.replay_clean && stats.skipped.is_empty(), "warm load not clean: {stats:?}");
    for status in &before {
        let tenant = status.tenant.0;
        match warm.handle(&req(tenant, RequestBody::TenantStatus { tenant })).body {
            ResponseBody::Status { status: after } => {
                assert_eq!(protective(&after), protective(status), "tenant-{tenant}");
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    drop(warm);

    // The shutdown compacted the journal: hostings, then each tenant's
    // last state in journal order.
    let (_, loaded) = DurableStore::open(&store).unwrap();
    assert_eq!(
        tenant_records(loaded.records),
        vec![
            WalRecord::TenantHosted { config: fdc_tenant(1) },
            WalRecord::TenantHosted { config: fdc_tenant(2) },
            state(2, true, 0),
            state(1, false, 0),
        ]
    );
}

#[test]
fn crash_restart_replays_the_wal_alone() {
    let store = fresh_store("crash");
    let key;
    let exported;
    let alert_seq_before;
    {
        // No `run()`, no graceful shutdown: dropping the daemon here is
        // the kill -9 shape — nothing but the WAL survives.
        let daemon = Daemon::new(DaemonConfig::new(&store), Arc::new(ObsHub::new())).unwrap();
        let published = daemon.handle(&req(
            1,
            RequestBody::PublishSpec {
                device: DeviceKind::Fdc,
                version: QemuVersion::Patched,
                spec_json: spec_json(),
                allow_loosening: false,
            },
        ));
        key = match published.body {
            ResponseBody::Published { key, epoch, changelog } => {
                assert_eq!(epoch, 1);
                assert_eq!(changelog, "first revision");
                key
            }
            other => panic!("publish failed: {other:?}"),
        };
        expect_ok(&daemon.handle(&req(2, RequestBody::AddTenant { config: fdc_tenant(7) })));
        let report = match daemon
            .handle(&req(3, RequestBody::SubmitBatch { tenant: 7, steps: off_spec_steps() }))
            .body
        {
            ResponseBody::Batch { report } => report,
            other => panic!("submit failed: {other:?}"),
        };
        assert!(report.quarantined && report.rollbacks == 1, "bad batch outcome: {report:?}");
        exported = daemon.registry().export_json(&key).unwrap();
        alert_seq_before = daemon.health().alert_seq;
        assert!(alert_seq_before > 0);
    }
    assert!(store.join("wal.log").metadata().unwrap().len() > 0, "the WAL must hold the journal");
    assert!(!store.join("snapshot.json").exists(), "no compaction happened before the crash");

    let warm = Daemon::new(DaemonConfig::new(&store), Arc::new(ObsHub::new())).unwrap();
    let stats = warm.warm_stats();
    assert!(!stats.snapshot_loaded, "recovery must have come from the WAL alone");
    assert!(stats.replay_clean && stats.skipped.is_empty(), "warm load not clean: {stats:?}");
    assert_eq!((stats.revisions, stats.tenants), (1, 1));
    assert_eq!(stats.alert_seq, alert_seq_before, "AlertMark records must preserve the mark");
    assert_eq!(
        warm.registry().export_json(&key).as_deref(),
        Some(exported.as_str()),
        "crash recovery must restore the revision byte-identically"
    );
    assert_eq!(warm.registry().epoch(DeviceKind::Fdc, QemuVersion::Patched), 1);
    match warm.handle(&req(1, RequestBody::TenantStatus { tenant: 7 })).body {
        ResponseBody::Status { status } => {
            assert!(status.quarantined && status.rollbacks == 1);
        }
        other => panic!("unexpected response: {other:?}"),
    }
}

#[test]
fn guarded_daemon_rejects_bad_tokens_and_scopes_tenants() {
    let store = fresh_store("auth");
    let mut config = DaemonConfig::new(&store);
    config.auth = AuthConfig {
        admin_tokens: vec!["root".into()],
        tenant_tokens: vec![("tenant-one".into(), 1)],
    };
    let (_daemon, join, socket) = start(config, "auth");

    // Connections each get their own daemon thread; the drops below
    // just keep the test's conversations tidy, not ordered.

    // No token at all: even a ping is refused.
    let mut anon = CtlClient::connect_unix(&socket).unwrap();
    assert_eq!(server_err(anon.ping()), ErrCode::Unauthorized);
    drop(anon);

    let mut admin = CtlClient::connect_unix(&socket).unwrap().with_auth(Some("root".into()));
    admin.publish_spec(DeviceKind::Fdc, QemuVersion::Patched, spec_json()).unwrap();
    admin.add_tenant(fdc_tenant(1)).unwrap();
    admin.add_tenant(fdc_tenant(2)).unwrap();
    drop(admin);

    // A recognized tenant token drives its own traffic but cannot
    // mutate or touch other tenants.
    let mut tenant = CtlClient::connect_unix(&socket).unwrap().with_auth(Some("tenant-one".into()));
    tenant.ping().unwrap();
    assert!(tenant.submit(1, in_spec_steps()).is_ok(), "a tenant may drive its own traffic");
    assert_eq!(
        server_err(tenant.submit(2, in_spec_steps())),
        ErrCode::Unauthorized,
        "a tenant token must not drive another tenant's traffic"
    );
    assert_eq!(
        server_err(tenant.publish_spec(DeviceKind::Fdc, QemuVersion::Patched, spec_json())),
        ErrCode::Unauthorized,
        "publishing is an admin operation"
    );
    assert_eq!(server_err(tenant.shutdown()), ErrCode::Unauthorized);
    drop(tenant);

    // An unrecognized token is indistinguishable from no token.
    let mut forged = CtlClient::connect_unix(&socket).unwrap().with_auth(Some("guess".into()));
    assert_eq!(server_err(forged.ping()), ErrCode::Unauthorized);
    drop(forged);

    let mut admin = CtlClient::connect_unix(&socket).unwrap().with_auth(Some("root".into()));
    admin.shutdown().unwrap();
    join.join().unwrap();
}

#[test]
fn rate_limiter_refuses_the_overdraft_with_a_retry_hint() {
    let store = fresh_store("rate");
    let mut config = DaemonConfig::new(&store);
    config.rate = RateLimitConfig { capacity: 2, refill_per_sec: 1 };
    let (_daemon, join, socket) = start(config, "rate");

    let mut ctl = CtlClient::connect_unix(&socket).unwrap();
    ctl.publish_spec(DeviceKind::Fdc, QemuVersion::Patched, spec_json()).unwrap();
    ctl.add_tenant(fdc_tenant(1)).unwrap();
    ctl.add_tenant(fdc_tenant(2)).unwrap();

    // Capacity two, cost one per single-step batch: the third submit in
    // the same instant overdraws the bucket.
    ctl.submit(1, in_spec_steps()).unwrap();
    ctl.submit(1, in_spec_steps()).unwrap();
    match ctl.submit(1, in_spec_steps()) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrCode::RateLimited);
            assert!(message.contains("ms"), "refusal must advertise a retry delay: {message}");
        }
        other => panic!("expected RateLimited, got {other:?}"),
    }
    // Buckets are per tenant: tenant 2 is untouched by tenant 1's burn.
    ctl.submit(2, in_spec_steps()).unwrap();
    // Read-only traffic is never rate limited.
    ctl.tenant_status(1).unwrap();
    ctl.fleet_status().unwrap();

    ctl.shutdown().unwrap();
    join.join().unwrap();
}

/// A 1 MiB nest of `[` is decoded before auth; it must come back as a
/// `BadRequest` frame, and the daemon must keep serving.
#[test]
fn a_deeply_nested_frame_is_a_bad_request_not_an_abort() {
    let store = fresh_store("nest");
    let (_daemon, join, socket) = start(DaemonConfig::new(&store), "nest");
    let mut stream = std::os::unix::net::UnixStream::connect(&socket).unwrap();
    write_frame(&mut stream, "[".repeat(1 << 20).as_bytes()).unwrap();
    let resp = read_response(&mut stream).unwrap();
    assert!(
        matches!(resp.body, ResponseBody::Error { code: ErrCode::BadRequest, .. }),
        "got {resp:?}"
    );
    let mut ctl = CtlClient::connect_unix(&socket).unwrap();
    ctl.ping().unwrap();
    ctl.shutdown().unwrap();
    join.join().unwrap();
}

/// What a restart must carry over: quarantined, degraded, rollbacks.
fn protective(status: &TenantStatus) -> (bool, bool, u32) {
    (status.quarantined, status.degraded, status.rollbacks)
}

/// The hosting and state records of a journal, in order.
fn tenant_records(records: Vec<WalRecord>) -> Vec<WalRecord> {
    records
        .into_iter()
        .filter(|r| matches!(r, WalRecord::TenantHosted { .. } | WalRecord::StateChange { .. }))
        .collect()
}

fn req(id: u64, body: RequestBody) -> Request {
    Request { v: PROTOCOL_VERSION, id, auth: None, body }
}

fn expect_ok(resp: &sedspecd::Response) {
    if let ResponseBody::Error { code, message } = &resp.body {
        panic!("request {} failed: {code:?} {message}", resp.id);
    }
}
