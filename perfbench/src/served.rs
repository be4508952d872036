//! The daemon under test: a live in-process `sedspecd` on a fresh
//! store and Unix socket, set up the way an operator would — specs
//! trained, published over the wire through the daemon's gate, tenants
//! hosted with `AddTenant`.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sedspec_obs::ObsHub;
use sedspecd::{CtlClient, Daemon, DaemonConfig, DaemonError};

use crate::inputs::{self, TrainedSpec};

/// A running daemon bound to `socket`, serving from its own thread.
pub struct Served {
    daemon: Arc<Daemon>,
    runner: Option<JoinHandle<Result<(), DaemonError>>>,
    /// The daemon's Unix socket.
    pub socket: PathBuf,
    dir: PathBuf,
}

impl Served {
    /// Opens a daemon on `dir/store`, binds `dir/d.sock`, and waits
    /// until it answers a ping.
    pub fn start(dir: &Path) -> Result<Served, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let socket = dir.join("d.sock");
        let mut config = DaemonConfig::new(dir.join("store"));
        config.socket = Some(socket.clone());
        let daemon = Arc::new(
            Daemon::new(config, Arc::new(ObsHub::new())).map_err(|e| format!("daemon: {e}"))?,
        );
        let runner = {
            let daemon = Arc::clone(&daemon);
            std::thread::spawn(move || daemon.run())
        };
        let served = Served { daemon, runner: Some(runner), socket, dir: dir.to_path_buf() };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Ok(mut probe) = CtlClient::connect_unix(&served.socket) {
                if probe.ping().is_ok() {
                    return Ok(served);
                }
            }
            if Instant::now() > deadline {
                return Err(format!("daemon did not answer on {}", served.socket.display()));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// A fresh client connection.
    pub fn client(&self) -> Result<CtlClient, String> {
        CtlClient::connect_unix(&self.socket).map_err(|e| format!("connect: {e}"))
    }

    /// Stops the serve loop, waits for it, and removes the store.
    pub fn stop(mut self) -> Result<(), String> {
        self.halt()?;
        std::fs::remove_dir_all(&self.dir)
            .map_err(|e| format!("remove {}: {e}", self.dir.display()))
    }

    fn halt(&mut self) -> Result<(), String> {
        let Some(runner) = self.runner.take() else { return Ok(()) };
        self.daemon.request_shutdown();
        match runner.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("daemon: {e}")),
            Err(_) => Err("daemon thread panicked".into()),
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.halt();
    }
}

/// What one set-up produced.
pub struct Setup {
    /// The hosted daemon.
    pub served: Served,
    /// The trained channels, as published.
    pub specs: Vec<TrainedSpec>,
    /// The seed's benign suites (the stream's source).
    pub suites: Vec<Vec<Vec<sedspec::collect::TrainStep>>>,
}

/// Generates the seed's suites, trains every channel, opens a daemon on
/// `dir`, publishes every spec with `PublishSpec` and hosts every
/// tenant with `AddTenant`. This is what `setup_s` times.
pub fn setup(seed: u64, dir: &Path) -> Result<Setup, String> {
    let suites = inputs::suites(seed);
    let specs = inputs::train_all(&suites);
    let served = Served::start(dir)?;
    let mut client = served.client()?;
    for spec in &specs {
        client
            .publish_spec(spec.device, spec.version, spec.json.clone())
            .map_err(|e| format!("publish {}/{}: {e}", spec.device, spec.version))?;
    }
    for tenant in inputs::tenants() {
        let id = tenant.tenant.0;
        client.add_tenant(tenant).map_err(|e| format!("add tenant {id}: {e}"))?;
    }
    Ok(Setup { served, specs, suites })
}
