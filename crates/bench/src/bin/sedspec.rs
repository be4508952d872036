//! Command-line front end for the SEDSpec pipeline.
//!
//! ```text
//! sedspec train  <device> [--cases N] [--seed S] [--out spec.json]
//! sedspec inspect <spec.json>
//! sedspec attack <cve> [--spec spec.json] [--mode protection|enhancement]
//! sedspec fuzz   --device D [--seed S] [--rounds N] [--qemu-version V]
//!                [--corpus DIR] [--export DIR] [--json]
//! sedspec fleet  [--tenants K] [--shards N] [--cases C] [--batches B] [--seed S]
//! sedspec bench-checker [--cases N] [--out BENCH_checker.json]
//! sedspec obs-report [--cases N] [--top K] [--metrics] [--trace]
//! sedspec lint-spec [--device D | --all-devices | --spec FILE] [--version V]
//!                   [--deep] [--deny-warnings] [--json] [--cases N] [--seed S]
//!                   [--allow FILE]
//! sedspec spec-diff <OLD> <NEW> [--json] [--cases N] [--seed S]
//!                   (operands: spec JSON file or device@version)
//! sedspec chaos  [--plan FILE] [--seed S] [--tenants K] [--shards N]
//!                [--batches B] [--cases C]
//! sedspec serve  --store DIR (--socket PATH | --tcp ADDR) [--shards N]
//!                [--admin-token T] [--tenant-token TOKEN=ID]
//!                [--rate-capacity N --rate-refill N] [--compact-every N]
//! sedspec ctl    <command> [args] (--socket PATH | --tcp ADDR) [--token T]
//!   commands: ping | publish <device> [--version V] [--spec FILE]
//!             [--cases N] [--seed S] [--allow-loosening] |
//!             add-tenant <id> [--version V]
//!             [--device D]... | submit <tenant> (--cve CVE | --benign
//!             [--cases N]) | status <tenant> | fleet [--json] |
//!             quarantine <tenant> | release <tenant> | metrics |
//!             doctor [--store DIR] | shutdown
//! sedspec devices|cves
//! ```
//!
//! `train` produces a serializable execution specification for a patched
//! device; `attack` trains (or loads) a specification for the CVE's
//! vulnerable device version and replays the PoC under enforcement;
//! `fleet` hosts K tenants of five enforced devices each on an N-shard
//! pool, drives benign traffic plus injected CVE PoCs, and prints
//! throughput and the quarantine summary; `obs-report` runs a small
//! observed fleet (one benign tenant, one Venom-compromised tenant)
//! and prints the observability report — hottest ES blocks, walk
//! latency histograms, and the flight-recorder forensics of every
//! flagged round; `lint-spec` trains (or loads) specifications and runs
//! the `sedspec-analysis` static pass pipeline over them — `--deep`
//! adds the flow-sensitive fixpoint lints (SA5xx) — exiting non-zero on
//! any error-severity finding (with `--deny-warnings`, any warning too)
//! not matched by the `--allow` list — the same vet the fleet registry
//! applies at publish time, shaped for CI; `spec-diff` computes the
//! semantic revision delta (SA601–SA606) between two specifications and
//! exits non-zero when the delta loosens enforcement; `chaos` replays a
//! committed fault plan against a mixed
//! benign/compromised fleet and prints the deterministic recovery
//! report (stdout) plus wall-clock recovery latencies (stderr),
//! exiting non-zero if containment or convergence failed.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use sedspec_fleet::pool::{EnforcementPool, TenantConfig, TenantId};
use sedspec_fleet::registry::SpecRegistry;

use sedspec::checker::WorkingMode;
use sedspec::collect::apply_step;
use sedspec::compiled::CompiledSpec;
use sedspec::enforce::{EnforcingDevice, IoVerdict};
use sedspec::pipeline::{train_script, TrainingConfig};
use sedspec::response::highest_alert;
use sedspec::spec::ExecutionSpecification;
use sedspec_analysis::diff::diff;
use sedspec_analysis::{
    analyze, analyze_deep, analyze_deep_full, analyze_full, AnalysisContext, AnalysisReport,
    Severity,
};
use sedspec_devices::{build_device, DeviceKind, QemuVersion};
use sedspec_vmm::VmContext;
use sedspec_workloads::attacks::{poc, Cve};
use sedspec_workloads::generators::training_suite;

fn parse_device(name: &str) -> Option<DeviceKind> {
    match name.to_ascii_lowercase().as_str() {
        "fdc" => Some(DeviceKind::Fdc),
        "ehci" | "usb" | "usb-ehci" => Some(DeviceKind::UsbEhci),
        "pcnet" => Some(DeviceKind::Pcnet),
        "sdhci" => Some(DeviceKind::Sdhci),
        "scsi" | "esp" => Some(DeviceKind::Scsi),
        _ => None,
    }
}

fn parse_cve(id: &str) -> Option<Cve> {
    Cve::all_with_known_miss()
        .into_iter()
        .find(|c| c.id().eq_ignore_ascii_case(id) || c.id()[4..].eq_ignore_ascii_case(id))
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn train_spec(
    kind: DeviceKind,
    version: QemuVersion,
    cases: usize,
    seed: u64,
) -> ExecutionSpecification {
    let mut device = build_device(kind, version);
    let mut ctx = VmContext::new(0x200000, 8192);
    let suite = training_suite(kind, cases, seed);
    train_script(&mut device, &mut ctx, &suite, &TrainingConfig::default())
        .expect("training produced no rounds")
}

fn cmd_train(args: &[String]) -> ExitCode {
    let Some(kind) = args.first().and_then(|a| parse_device(a)) else {
        eprintln!(
            "usage: sedspec train <fdc|ehci|pcnet|sdhci|scsi> [--cases N] [--seed S] [--out FILE]"
        );
        return ExitCode::from(2);
    };
    let cases = flag(args, "--cases").and_then(|v| v.parse().ok()).unwrap_or(60);
    let seed = flag(args, "--seed").and_then(|v| v.parse().ok()).unwrap_or(0x7a11);
    let spec = train_spec(kind, QemuVersion::Patched, cases, seed);
    eprintln!(
        "trained {} ({} rounds): {} blocks, {} edges, {} commands",
        spec.device,
        spec.stats.training_rounds,
        spec.block_count(),
        spec.edge_count(),
        spec.cmd_table.len()
    );
    let json = spec.to_json();
    match flag(args, "--out") {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path} ({} bytes)", json.len());
        }
        None => println!("{json}"),
    }
    ExitCode::SUCCESS
}

fn cmd_inspect(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("usage: sedspec inspect <spec.json>");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let spec = match ExecutionSpecification::from_json(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("not a specification: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("device:   {} ({})", spec.device, spec.version);
    println!(
        "params:   {} vars, {} buffers, {} fn ptrs",
        spec.params.selected_var_count(),
        spec.params.buffers.len(),
        spec.params.fn_ptrs.len()
    );
    println!(
        "spec:     {} blocks, {} edges, {} commands",
        spec.block_count(),
        spec.edge_count(),
        spec.cmd_table.len()
    );
    println!(
        "training: {} rounds, {} sync points, {} merged branches",
        spec.stats.training_rounds,
        spec.stats.recovery.sync_points,
        spec.stats.reduce.merged_branches
    );
    for cfg in &spec.cfgs {
        println!("  {:<20} {:>3} blocks {:>3} edges", cfg.name, cfg.blocks.len(), cfg.edge_count());
    }
    ExitCode::SUCCESS
}

fn cmd_attack(args: &[String]) -> ExitCode {
    let Some(cve) = args.first().and_then(|a| parse_cve(a)) else {
        eprintln!("usage: sedspec attack <CVE-id> [--spec FILE] [--mode protection|enhancement]");
        eprintln!(
            "known: {}",
            Cve::all_with_known_miss().map(sedspec_workloads::attacks::Cve::id).join(", ")
        );
        return ExitCode::from(2);
    };
    let p = poc(cve);
    let mode = match flag(args, "--mode") {
        Some("enhancement") => WorkingMode::Enhancement,
        _ => WorkingMode::Protection,
    };
    let spec = match flag(args, "--spec") {
        Some(path) => match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|t| ExecutionSpecification::from_json(&t).map_err(|e| e.to_string()))
        {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot load spec: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => {
            eprintln!("training specification for {} at {} ...", p.device, p.qemu_version);
            train_spec(p.device, p.qemu_version, 60, 0x7a11)
        }
    };
    let mut device = build_device(p.device, p.qemu_version);
    device.set_limits(sedspec_dbl::interp::ExecLimits { max_steps: 50_000, ..Default::default() });
    let mut enforcer = EnforcingDevice::new(device, spec, mode);
    let mut ctx = VmContext::new(0x200000, 8192);
    for (i, step) in p.steps.iter().enumerate() {
        let Some(req) = apply_step(step, &mut ctx) else { continue };
        match enforcer.handle_io(&mut ctx, req) {
            IoVerdict::Halted { violations, executed } => {
                println!(
                    "{}: HALTED at step {i} ({} execution) — {:?}, alert {:?}",
                    p.cve.id(),
                    if executed { "after" } else { "before" },
                    violations.first().map(sedspec::checker::Violation::strategy),
                    highest_alert(&violations),
                );
                return ExitCode::SUCCESS;
            }
            IoVerdict::Warned { violations, .. } => {
                println!(
                    "{}: WARNED at step {i} — {:?}",
                    p.cve.id(),
                    violations.first().map(sedspec::checker::Violation::strategy)
                );
            }
            IoVerdict::DeviceFault { fault, .. } => {
                println!("{}: device fault without detection: {fault}", p.cve.id());
                return ExitCode::FAILURE;
            }
            IoVerdict::Allowed(_) => {}
        }
    }
    println!("{}: PoC completed without a halt (expected for the documented miss)", p.cve.id());
    ExitCode::SUCCESS
}

/// Every fourth tenant is compromised, cycling through the PoC list.
fn injected_cve(tenant: u64) -> Option<Cve> {
    if tenant % 4 == 3 {
        let all = Cve::all();
        Some(all[(tenant as usize / 4) % all.len()])
    } else {
        None
    }
}

fn cmd_fuzz(args: &[String]) -> ExitCode {
    let Some(kind) = flag(args, "--device").and_then(parse_device) else {
        eprintln!(
            "usage: sedspec fuzz --device <fdc|ehci|pcnet|sdhci|scsi> [--seed S] [--rounds N] \
             [--qemu-version V] [--corpus DIR] [--export DIR] [--json]"
        );
        return ExitCode::from(2);
    };
    let version = match flag(args, "--qemu-version") {
        None => QemuVersion::Patched,
        Some(v) => match sedspec_fuzz::parse_version(v) {
            Some(v) => v,
            None => {
                eprintln!("unknown version {v:?} (try: {})", {
                    let names: Vec<String> =
                        QemuVersion::all().iter().map(ToString::to_string).collect();
                    names.join(", ")
                });
                return ExitCode::from(2);
            }
        },
    };
    let opts = sedspec_fuzz::FuzzOptions {
        device: kind,
        version,
        seed: flag(args, "--seed").and_then(|s| s.parse().ok()).unwrap_or(1),
        rounds: flag(args, "--rounds").and_then(|s| s.parse().ok()).unwrap_or(20_000),
        corpus_dir: flag(args, "--corpus").map(std::path::PathBuf::from),
    };
    let out = match sedspec_fuzz::run_campaign(&opts) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("fuzz: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(dir) = flag(args, "--export") {
        let dir = std::path::Path::new(dir);
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("fuzz: create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        for (name, body) in out.export_artifacts() {
            if let Err(e) = std::fs::write(dir.join(&name), body) {
                eprintln!("fuzz: write {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let report = &out.report;
    if args.iter().any(|a| a == "--json") {
        println!("{}", report.to_json());
    } else {
        println!(
            "fuzz {} @ {}  seed={} budget={} rounds",
            report.device, report.version, report.seed, report.round_budget
        );
        println!(
            "  executed {} inputs / {} rounds, corpus {} entries",
            report.inputs, report.rounds_run, report.corpus_size
        );
        println!(
            "  ES-block coverage {}/{} ({}.{}%)",
            report.covered_blocks,
            report.total_blocks,
            report.coverage_permille / 10,
            report.coverage_permille % 10
        );
        if report.findings.is_empty() {
            println!("  findings: none");
        } else {
            println!("  findings:");
            for f in &report.findings {
                println!(
                    "    {:<15} damage={:<10} violation={:<20} site={:?} ({} steps)",
                    f.class,
                    f.damage.as_deref().unwrap_or("-"),
                    f.violation.as_deref().unwrap_or("-"),
                    f.site,
                    f.steps_len
                );
            }
        }
        let suspect = report.dead_spec.iter().filter(|d| d.static_code.is_some()).count();
        println!(
            "  dead spec: {} unreached blocks ({} also flagged by deep static passes)",
            report.dead_spec.len(),
            suspect
        );
    }
    // CI contract: a false negative against this build means the spec
    // missed real device damage — fail loudly.
    if report.count(sedspec_fuzz::FindingClass::FalseNegative) > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn cmd_fleet(args: &[String]) -> ExitCode {
    let tenants: u64 = flag(args, "--tenants").and_then(|v| v.parse().ok()).unwrap_or(8);
    let shards: usize = flag(args, "--shards").and_then(|v| v.parse().ok()).unwrap_or(4);
    let cases: usize = flag(args, "--cases").and_then(|v| v.parse().ok()).unwrap_or(30);
    let batches: usize = flag(args, "--batches").and_then(|v| v.parse().ok()).unwrap_or(3);
    let seed: u64 = flag(args, "--seed").and_then(|v| v.parse().ok()).unwrap_or(0x7a11);

    // Publish one revision per channel the fleet needs: the five
    // patched devices, plus the vulnerable versions the injected PoCs
    // target.
    let registry = Arc::new(SpecRegistry::new());
    let mut channels: Vec<(DeviceKind, QemuVersion)> =
        DeviceKind::all().into_iter().map(|k| (k, QemuVersion::Patched)).collect();
    for t in 0..tenants {
        if let Some(cve) = injected_cve(t) {
            let p = poc(cve);
            if !channels.contains(&(p.device, p.qemu_version)) {
                channels.push((p.device, p.qemu_version));
            }
        }
    }
    eprintln!("training {} channels ({cases} cases each) ...", channels.len());
    for &(kind, version) in &channels {
        registry.publish(kind, version, train_spec(kind, version, cases, seed)).unwrap_or_else(
            |e| {
                eprintln!("{e}");
                std::process::exit(2)
            },
        );
    }

    // Host the tenants. A compromised tenant runs its PoC's device at
    // the vulnerable version; everything else is patched.
    let mut pool = EnforcementPool::new(shards, Arc::clone(&registry));
    for t in 0..tenants {
        let mut devices: Vec<(DeviceKind, QemuVersion)> =
            DeviceKind::all().into_iter().map(|k| (k, QemuVersion::Patched)).collect();
        if let Some(cve) = injected_cve(t) {
            let p = poc(cve);
            for slot in &mut devices {
                if slot.0 == p.device {
                    slot.1 = p.qemu_version;
                }
            }
        }
        if let Err(e) = pool.add_tenant(TenantConfig::new(t).with_devices(devices)) {
            eprintln!("cannot host tenant {t}: {e}");
            return ExitCode::FAILURE;
        }
    }
    eprintln!("hosting {tenants} tenants x 5 devices on {shards} shards");

    // Benign phase: every tenant replays training-suite cases on every
    // device in training order, so batch B is the suite's case B and
    // the device walks a path it was trained on from boot.
    let start = Instant::now();
    let mut benign_rounds = 0u64;
    let mut benign_flagged = 0u64;
    for batch in 0..batches {
        let mut tickets = Vec::new();
        for t in 0..tenants {
            let mut steps = Vec::new();
            for kind in DeviceKind::all() {
                let suite = training_suite(kind, cases, seed);
                steps.extend(suite[batch % suite.len()].clone());
            }
            match pool.submit_steps(TenantId(t), steps) {
                Ok(ticket) => tickets.push(ticket),
                Err(e) => {
                    eprintln!("submit failed for tenant {t}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        for ticket in tickets {
            let r = pool.wait(ticket).expect("shard serves the batch");
            benign_rounds += r.rounds;
            benign_flagged += r.flagged;
        }
    }
    let elapsed = start.elapsed();
    let throughput = benign_rounds as f64 / elapsed.as_secs_f64();
    println!(
        "benign phase: {benign_rounds} rounds in {elapsed:.2?} ({throughput:.0} rounds/s), {benign_flagged} flagged"
    );

    // Attack phase: the compromised tenants replay their PoCs twice —
    // the first halt is absorbed by rollback, the second quarantines.
    let mut attacked = Vec::new();
    for t in 0..tenants {
        if let Some(cve) = injected_cve(t) {
            attacked.push((t, cve));
            for _ in 0..2 {
                let steps = poc(cve).steps;
                let ticket = pool.submit_steps(TenantId(t), steps).expect("submit PoC");
                let _ = pool.wait(ticket).expect("shard serves the PoC");
            }
        }
    }
    for &(t, cve) in &attacked {
        println!("injected {} into tenant {t}", cve.id());
    }

    // Telemetry: the fleet report, the alert stream, and the
    // aggregate-equals-sum invariant.
    let report = pool.report();
    print!("{}", report.render());
    let alerts = pool.drain_alerts();
    println!("alert stream: {} events, tail:", alerts.len());
    let tail = &alerts[alerts.len().saturating_sub(5)..];
    print!("{}", sedspec_fleet::FleetReport::render_alerts(tail));

    let aggregate = report.aggregate();
    let mut summed = sedspec::enforce::EnforceStats::default();
    for t in report.tenants() {
        summed.merge(&t.stats);
    }
    if aggregate != summed {
        eprintln!("FAIL: aggregate stats diverge from per-tenant sum");
        return ExitCode::FAILURE;
    }
    println!("aggregate == sum of per-tenant stats: ok ({} rounds)", aggregate.rounds);

    let quarantined: Vec<u64> =
        report.tenants().iter().filter(|t| t.quarantined).map(|t| t.tenant.0).collect();
    let expected: Vec<u64> = attacked.iter().map(|&(t, _)| t).collect();
    if quarantined != expected {
        eprintln!("FAIL: quarantined {quarantined:?}, expected {expected:?}");
        return ExitCode::FAILURE;
    }
    if benign_flagged > 0 {
        eprintln!("FAIL: {benign_flagged} benign rounds flagged");
        return ExitCode::FAILURE;
    }
    println!(
        "quarantined {}/{} injected tenants; zero false halts on benign tenants",
        quarantined.len(),
        attacked.len()
    );
    ExitCode::SUCCESS
}

// ---------------------------------------------------- obs-report --

/// Runs a small fully observed fleet — a benign tenant and a
/// Venom-compromised tenant sharing one shard pair — then prints the
/// hub's operator report: hottest ES blocks (labelled from the
/// published specification), walk latency histograms, and the
/// flight-recorder forensics frozen at each flagged round.
fn cmd_obs_report(args: &[String]) -> ExitCode {
    use sedspec_fleet::FleetReport;
    use sedspec_obs::ObsHub;

    let cases: usize = flag(args, "--cases").and_then(|v| v.parse().ok()).unwrap_or(30);
    let top: usize = flag(args, "--top").and_then(|v| v.parse().ok()).unwrap_or(5);
    let seed = 0x7a11;
    let kind = DeviceKind::Fdc;
    let version = QemuVersion::V2_3_0; // the Venom-vulnerable FDC

    let hub = Arc::new(ObsHub::new());
    let registry = Arc::new(SpecRegistry::new());
    registry.attach_obs(&hub);
    eprintln!("training {kind}/{version} ({cases} cases) ...");
    registry.publish(kind, version, train_spec(kind, version, cases, seed)).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    });
    let spec = registry.current(kind, version).expect("just published").1;

    let mut pool = EnforcementPool::with_obs(2, Arc::clone(&registry), &hub);
    for t in 0..2u64 {
        if let Err(e) = pool.add_tenant(TenantConfig::new(t).with_devices(vec![(kind, version)])) {
            eprintln!("cannot host tenant {t}: {e}");
            return ExitCode::FAILURE;
        }
    }

    // Benign traffic on both tenants, then the Venom PoC grinds tenant
    // 1 through rollback into quarantine.
    let suite = training_suite(kind, cases, seed);
    for batch in 0..4 {
        for t in 0..2u64 {
            let steps = suite[(batch + t as usize) % suite.len()].clone();
            let ticket = pool.submit_steps(TenantId(t), steps).expect("submit benign batch");
            let _ = pool.wait(ticket).expect("shard serves the batch");
        }
    }
    let venom = poc(Cve::Cve2015_3456);
    for _ in 0..2 {
        let ticket = pool.submit_steps(TenantId(1), venom.steps.clone()).expect("submit PoC");
        let _ = pool.wait(ticket).expect("shard serves the PoC");
    }

    let alerts = pool.drain_alerts();
    println!("alert stream ({} events):", alerts.len());
    print!("{}", FleetReport::render_alerts(&alerts));

    // Labels come from the published specification's ES-CFG blocks.
    let resolve = move |device: &str, program: u32, block: u32| -> Option<String> {
        if device != spec.device {
            return None;
        }
        spec.cfgs
            .get(program as usize)
            .and_then(|c| c.blocks.get(block as usize))
            .map(|b| b.label.clone())
    };
    print!("{}", hub.render_report(top, &resolve));

    if args.iter().any(|a| a == "--metrics") {
        println!("--- prometheus exposition ---");
        print!("{}", hub.metrics().render_prometheus());
    }
    if args.iter().any(|a| a == "--trace") {
        println!("--- trace (json lines) ---");
        print!("{}", hub.trace_jsonl());
    }

    if hub.forensics().is_empty() {
        eprintln!("FAIL: the PoC left no flight-recorder records");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

// ------------------------------------------------- bench-checker --

/// One device's hot-path measurements for `BENCH_checker.json`.
#[derive(serde::Serialize)]
struct CheckerBenchRow {
    device: String,
    walk_interpreted_ns: f64,
    /// Amortized per-round cost of the batched walk (`walk_batch` over
    /// 256-round submissions, journal cleared once per batch) on the
    /// identity compile the daemon serves — the number the enforcement
    /// pool's batched path actually pays.
    walk_compiled_ns: f64,
    /// Per-round cost of one `walk_round_fast` call (un-amortized),
    /// for comparison against the batched number.
    walk_compiled_single_ns: f64,
    walk_speedup: f64,
    enforced_interpreted_rounds_per_sec: f64,
    /// Enforced throughput through `handle_batch` (device execution
    /// included), the pool's hot path.
    enforced_compiled_rounds_per_sec: f64,
}

#[derive(serde::Serialize)]
struct CheckerBenchReport {
    note: String,
    /// Logical cores visible to the benchmarking host; contextualizes
    /// the fleet number (no multi-shard overlap on a single core).
    host_cores: usize,
    /// Present exactly when `host_cores == 1`: the fleet number then
    /// measures sequential shard execution, so no shard-overlap
    /// speedup claim is made.
    #[serde(skip_serializing_if = "Option::is_none")]
    fleet_caveat: Option<String>,
    devices: Vec<CheckerBenchRow>,
    walk_speedup_geomean: f64,
    fleet_rounds_per_sec: f64,
}

/// Median ns/op over `samples` timed batches of `iters` calls each.
fn median_ns(samples: usize, iters: u32, mut op: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                op();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    times[times.len() / 2]
}

/// A routable single-round probe for `kind`: the first trained read
/// request (reads poll device status without re-arming a command, so
/// repeating one is a benign steady-state round).
fn bench_poll_request(kind: DeviceKind) -> sedspec_vmm::IoRequest {
    let device = build_device(kind, QemuVersion::Patched);
    training_suite(kind, 2, 0x7a11)
        .into_iter()
        .flatten()
        .find_map(|step| match step {
            sedspec::collect::TrainStep::Io(req)
                if req.direction == sedspec_vmm::IoDirection::Read
                    && device.route(&req).is_some() =>
            {
                Some(req)
            }
            _ => None,
        })
        .expect("training suite contains a routable read")
}

fn cmd_bench_checker(args: &[String]) -> ExitCode {
    use sedspec::checker::{BatchOutcome, EsChecker, NoSync};
    use sedspec::enforce::Engine;

    let cases = flag(args, "--cases").and_then(|v| v.parse().ok()).unwrap_or(40);
    let samples = 31;
    let iters = 5000;
    /// Rounds per batched submission — the pool's default batch shape.
    const BATCH: usize = 256;
    /// Batched-walk submissions per timed sample (BATCH rounds each).
    const BATCH_ITERS: u32 = 24;

    let mut rows = Vec::new();
    for kind in DeviceKind::all() {
        eprintln!("benchmarking {kind} ...");
        let spec = train_spec(kind, QemuVersion::Patched, cases, 0x7a11);
        let device = build_device(kind, QemuVersion::Patched);
        let req = bench_poll_request(kind);
        let pi = device.route(&req).expect("poll request routes");

        let interp = EsChecker::new(spec.clone(), device.control.clone());
        let walk_interpreted_ns =
            median_ns(samples, iters, || drop(interp.walk_round(pi, &req, &mut NoSync)));

        let compiled = Arc::new(CompiledSpec::compile(Arc::new(spec.clone())));

        let mut fast = EsChecker::from_compiled(Arc::clone(&compiled), device.control.clone());
        let walk_compiled_single_ns = median_ns(samples, iters, || {
            fast.walk_round_fast(pi, &req, &mut NoSync);
            fast.abort_round();
        });

        // Amortized batched walk: one journal commit boundary per BATCH
        // rounds, monomorphized no-sync dispatch, state-stable via the
        // whole-batch rollback.
        let batch_reqs: Vec<sedspec_vmm::IoRequest> = vec![req.clone(); BATCH];
        let mut batched = EsChecker::from_compiled(Arc::clone(&compiled), device.control.clone());
        let mut out = BatchOutcome::default();
        let walk_compiled_ns = median_ns(samples, BATCH_ITERS, || {
            batched.walk_batch(batch_reqs.iter().map(|r| (pi, r)), &mut out);
            assert!(out.stopper.is_none(), "poll batch walks clean");
            batched.abort_batch();
        }) / BATCH as f64;

        let mut enforcer = EnforcingDevice::new(
            build_device(kind, QemuVersion::Patched),
            spec.clone(),
            WorkingMode::Enhancement,
        )
        .with_engine(Engine::Interpreted);
        let mut ctx = VmContext::new(0x10000, 64);
        let interp_ns = median_ns(samples, iters, || drop(enforcer.handle_io(&mut ctx, &req)));

        // Enforced batched throughput: the pool's hot path — batched
        // pre-walk, then device execution per committed round.
        let mut enf = EnforcingDevice::new_compiled(
            build_device(kind, QemuVersion::Patched),
            Arc::clone(&compiled),
            WorkingMode::Enhancement,
        );
        let mut ctx2 = VmContext::new(0x10000, 64);
        let req_refs: Vec<&sedspec_vmm::IoRequest> = batch_reqs.iter().collect();
        let mut verdicts = Vec::with_capacity(BATCH);
        let enforced_ns = median_ns(samples, BATCH_ITERS, || {
            verdicts.clear();
            let mut consumed = 0;
            while consumed < req_refs.len() {
                let n = enf.handle_batch(&mut ctx2, &req_refs[consumed..], &mut verdicts);
                assert!(n > 0, "batch consumes");
                consumed += n;
            }
        }) / BATCH as f64;

        rows.push(CheckerBenchRow {
            device: kind.to_string(),
            walk_interpreted_ns,
            walk_compiled_ns,
            walk_compiled_single_ns,
            walk_speedup: walk_interpreted_ns / walk_compiled_ns,
            enforced_interpreted_rounds_per_sec: 1e9 / interp_ns,
            enforced_compiled_rounds_per_sec: 1e9 / enforced_ns,
        });
    }

    // Fleet throughput: four FDC tenants on one shard sharing the
    // publish-time compiled spec.
    eprintln!("benchmarking fleet throughput ...");
    let registry = Arc::new(SpecRegistry::new());
    registry
        .publish(
            DeviceKind::Fdc,
            QemuVersion::Patched,
            train_spec(DeviceKind::Fdc, QemuVersion::Patched, cases, 0x7a11),
        )
        .expect("benign spec passes the publish gate");
    let mut pool = EnforcementPool::new(1, Arc::clone(&registry));
    for t in 0..4u64 {
        pool.add_tenant(
            TenantConfig::new(t).with_devices(vec![(DeviceKind::Fdc, QemuVersion::Patched)]),
        )
        .expect("tenant hosts");
    }
    let batch: Vec<sedspec_vmm::IoRequest> =
        (0..256).map(|_| bench_poll_request(DeviceKind::Fdc)).collect();
    let start = Instant::now();
    let mut fleet_rounds = 0u64;
    for _ in 0..20 {
        let tickets: Vec<_> = (0..4u64)
            .map(|t| pool.submit_batch(TenantId(t), batch.clone()).expect("submit"))
            .collect();
        for ticket in tickets {
            fleet_rounds += pool.wait(ticket).expect("batch completes").rounds;
        }
    }
    let fleet_rounds_per_sec = fleet_rounds as f64 / start.elapsed().as_secs_f64();

    let walk_speedup_geomean =
        (rows.iter().map(|r| r.walk_speedup.ln()).sum::<f64>() / rows.len() as f64).exp();
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let fleet_caveat = (host_cores == 1).then(|| {
        "host has a single core: fleet_rounds_per_sec measures serialized \
         shard turns, not multi-shard overlap; treat it as a lower bound \
         and do not compare it across hosts with different core counts"
            .to_string()
    });
    let report = CheckerBenchReport {
        note: "median-of-31 timed batches per point; walk_compiled_ns is the \
               amortized per-round cost of 256-round walk_batch submissions \
               on the identity compile (walk_compiled_single_ns keeps \
               the old one-call-per-round shape for comparison); the \
               compiled walk has a near-constant per-round floor, so its \
               advantage grows with spec size (smallest on FDC, largest on \
               SDHCI/EHCI)"
            .into(),
        host_cores,
        fleet_caveat,
        devices: rows,
        walk_speedup_geomean,
        fleet_rounds_per_sec,
    };

    // Text report on stderr so `--out`/stdout stay machine-readable.
    eprintln!();
    eprintln!(
        "{:<8} {:>12} {:>12} {:>12} {:>9} {:>14} {:>14}",
        "device", "interp ns", "batched ns", "single ns", "speedup", "enf interp/s", "enf batch/s"
    );
    for r in &report.devices {
        eprintln!(
            "{:<8} {:>12.1} {:>12.1} {:>12.1} {:>8.2}x {:>14.0} {:>14.0}",
            r.device,
            r.walk_interpreted_ns,
            r.walk_compiled_ns,
            r.walk_compiled_single_ns,
            r.walk_speedup,
            r.enforced_interpreted_rounds_per_sec,
            r.enforced_compiled_rounds_per_sec,
        );
    }
    eprintln!(
        "geomean walk speedup: {:.2}x; fleet: {:.0} rounds/s across {} core(s)",
        report.walk_speedup_geomean, report.fleet_rounds_per_sec, report.host_cores
    );
    if let Some(caveat) = &report.fleet_caveat {
        eprintln!("caveat: {caveat}");
    }

    // Regression guard: compare against a committed baseline report. The
    // baseline may predate fields added since, so parse it untyped.
    if let Some(path) = flag(args, "--check-against") {
        let baseline: serde_json::Value = match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|t| serde_json::from_str_value(&t).map_err(|e| e.to_string()))
        {
            Ok(v) => v,
            Err(e) => {
                eprintln!("cannot load baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let Some(base_geomean) = baseline.get("walk_speedup_geomean").and_then(|v| match v {
            serde_json::Value::F64(f) => Some(*f),
            serde_json::Value::U64(u) => Some(*u as f64),
            serde_json::Value::I64(i) => Some(*i as f64),
            _ => None,
        }) else {
            eprintln!("baseline {path} lacks walk_speedup_geomean");
            return ExitCode::FAILURE;
        };
        // 15% tolerance: the speedup is a same-process ratio, so it is
        // immune to absolute clock differences, but shared runners still
        // jitter it low double-digit percent run to run; observed spread
        // on identical binaries is ~13%.
        let floor = base_geomean * 0.85;
        if report.walk_speedup_geomean < floor {
            eprintln!(
                "REGRESSION: walk_speedup_geomean {:.3} < 85% of baseline {:.3} (floor {:.3})",
                report.walk_speedup_geomean, base_geomean, floor
            );
            return ExitCode::FAILURE;
        }
        eprintln!(
            "baseline check ok: geomean {:.3} >= floor {:.3} (baseline {:.3})",
            report.walk_speedup_geomean, floor, base_geomean
        );
    }

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    match flag(args, "--out") {
        Some(path) => {
            if let Err(e) = std::fs::write(path, json + "\n") {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
    ExitCode::SUCCESS
}

/// One reviewed-and-accepted finding pattern from `--allow FILE`.
///
/// The file is a JSON array whose entries are either bare code strings
/// (legacy form, matches every finding with that code) or objects
/// `{"code": "SA201", "device": "fdc", "contains": "command 0x4",
///   "rationale": "..."}` where `device` and `contains` narrow the
/// match and `rationale` documents the review (ignored by the tool).
struct AllowEntry {
    code: String,
    device: Option<String>,
    contains: Option<String>,
}

impl AllowEntry {
    fn matches(&self, report_device: &str, d: &sedspec_analysis::Diagnostic) -> bool {
        self.code == d.code
            && self.device.as_deref().is_none_or(|dev| dev == report_device)
            && self.contains.as_deref().is_none_or(|needle| d.message.contains(needle))
    }
}

fn parse_allowlist(text: &str) -> Result<Vec<AllowEntry>, String> {
    use serde_json::Value;
    let v = serde_json::from_str_value(text).map_err(|e| e.to_string())?;
    let Value::Seq(items) = v else {
        return Err("allowlist must be a JSON array".to_string());
    };
    let mut out = Vec::new();
    for item in &items {
        match item {
            Value::Str(code) => {
                out.push(AllowEntry { code: code.clone(), device: None, contains: None });
            }
            Value::Map(_) => {
                let Some(Value::Str(code)) = item.get("code") else {
                    return Err("allowlist object entry needs a string \"code\"".to_string());
                };
                let field = |k: &str| match item.get(k) {
                    Some(Value::Str(s)) => Some(s.clone()),
                    _ => None,
                };
                out.push(AllowEntry {
                    code: code.clone(),
                    device: field("device"),
                    contains: field("contains"),
                });
            }
            _ => {
                return Err(
                    "allowlist entries must be code strings or {code, ...} objects".to_string()
                );
            }
        }
    }
    Ok(out)
}

fn cmd_lint_spec(args: &[String]) -> ExitCode {
    let json_out = args.iter().any(|a| a == "--json");
    let all = args.iter().any(|a| a == "--all-devices");
    let deep = args.iter().any(|a| a == "--deep");
    let deny_warnings = args.iter().any(|a| a == "--deny-warnings");
    let cases = flag(args, "--cases").and_then(|v| v.parse().ok()).unwrap_or(60);
    let seed = flag(args, "--seed").and_then(|v| v.parse().ok()).unwrap_or(0x7a11);
    let version = match flag(args, "--version") {
        Some(v) => {
            match QemuVersion::all().into_iter().find(|q| q.to_string().eq_ignore_ascii_case(v)) {
                Some(q) => q,
                None => {
                    eprintln!("unknown QEMU version '{v}' (try: patched, v2.3.0, ...)");
                    return ExitCode::from(2);
                }
            }
        }
        None => QemuVersion::Patched,
    };
    // Findings CI has reviewed and accepted. Errors outside this list
    // always block; with --deny-warnings, unlisted warnings block too.
    let allow: Vec<AllowEntry> = match flag(args, "--allow") {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match parse_allowlist(&text) {
                Ok(entries) => entries,
                Err(e) => {
                    eprintln!("malformed allowlist {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => Vec::new(),
    };

    let mut reports: Vec<AnalysisReport> = Vec::new();
    if let Some(path) = flag(args, "--spec") {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let spec = match ExecutionSpecification::from_json(&text) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot parse {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        reports.push(if deep { analyze_deep_full(&spec) } else { analyze_full(&spec) });
    } else {
        let kinds: Vec<DeviceKind> = if all {
            DeviceKind::all().into_iter().collect()
        } else {
            match flag(args, "--device").and_then(parse_device) {
                Some(k) => vec![k],
                None => {
                    eprintln!(
                        "usage: sedspec lint-spec [--device D | --all-devices | --spec FILE] \
                         [--version V] [--deep] [--deny-warnings] [--json] [--cases N] \
                         [--seed S] [--allow FILE]"
                    );
                    return ExitCode::from(2);
                }
            }
        };
        for kind in kinds {
            eprintln!("training {kind}/{version} ({cases} cases) ...");
            let spec = train_spec(kind, version, cases, seed);
            let device = build_device(kind, version);
            let compiled = CompiledSpec::compile(Arc::new(spec.clone()));
            let ctx = AnalysisContext::full(&device, &compiled);
            reports.push(if deep { analyze_deep(&spec, &ctx) } else { analyze(&spec, &ctx) });
        }
    }

    let blocks = |severity: Severity| {
        severity == Severity::Error || (deny_warnings && severity == Severity::Warning)
    };
    let blocking: Vec<String> = reports
        .iter()
        .flat_map(|r| {
            r.diagnostics
                .iter()
                .filter(|d| blocks(d.severity))
                .filter(|d| !allow.iter().any(|a| a.matches(&r.device, d)))
        })
        .map(sedspec_analysis::Diagnostic::render)
        .collect();
    if json_out {
        println!("{}", serde_json::to_string_pretty(&reports).expect("reports serialize"));
    } else {
        for r in &reports {
            print!("{}", r.render_human());
        }
    }
    if blocking.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("lint-spec: {} blocking finding(s):", blocking.len());
        for line in blocking {
            eprintln!("  {line}");
        }
        ExitCode::FAILURE
    }
}

// --------------------------------------------------- spec-diff --

/// Resolves a spec-diff operand: a path to a spec JSON file, or a
/// `device@version` pair trained deterministically on the spot.
fn resolve_spec_operand(
    arg: &str,
    cases: usize,
    seed: u64,
) -> Result<ExecutionSpecification, String> {
    if let Some((dev, ver)) = arg.split_once('@') {
        if let Some(kind) = parse_device(dev) {
            let version = QemuVersion::all()
                .into_iter()
                .find(|q| q.to_string().eq_ignore_ascii_case(ver))
                .ok_or_else(|| format!("unknown QEMU version '{ver}' in '{arg}'"))?;
            eprintln!("training {kind}/{version} ({cases} cases) ...");
            return Ok(train_spec(kind, version, cases, seed));
        }
    }
    let text = std::fs::read_to_string(arg).map_err(|e| format!("cannot read {arg}: {e}"))?;
    ExecutionSpecification::from_json(&text).map_err(|e| format!("cannot parse {arg}: {e}"))
}

/// `sedspec spec-diff <A> <B>`: semantic revision diff between two
/// specifications, each given as a spec JSON file or `device@version`
/// (trained with the same deterministic defaults as `train`). Exits 1
/// when the diff contains loosening entries, so CI can gate on it.
fn cmd_spec_diff(args: &[String]) -> ExitCode {
    let json_out = args.iter().any(|a| a == "--json");
    let cases = flag(args, "--cases").and_then(|v| v.parse().ok()).unwrap_or(60);
    let seed = flag(args, "--seed").and_then(|v| v.parse().ok()).unwrap_or(0x7a11);
    let positional: Vec<&String> = {
        let mut skip = false;
        args.iter()
            .filter(|a| {
                if skip {
                    skip = false;
                    return false;
                }
                if matches!(a.as_str(), "--cases" | "--seed") {
                    skip = true;
                    return false;
                }
                !a.starts_with("--")
            })
            .collect()
    };
    let [old_arg, new_arg] = positional.as_slice() else {
        eprintln!(
            "usage: sedspec spec-diff <OLD> <NEW> [--json] [--cases N] [--seed S]\n\
             each operand is a spec JSON file or device@version (e.g. fdc@v2.3.0)"
        );
        return ExitCode::from(2);
    };
    let old = match resolve_spec_operand(old_arg, cases, seed) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let new = match resolve_spec_operand(new_arg, cases, seed) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let delta = diff(&old, &new);
    if json_out {
        println!("{}", delta.to_json());
    } else {
        print!("{}", delta.render_human());
    }
    if delta.has_loosening() {
        eprintln!("spec-diff: delta contains loosening entries");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

// ------------------------------------------------------- chaos --

/// Replays a fault plan against a mixed fleet and prints the recovery
/// report. The report on stdout is byte-identical for a given plan;
/// latency medians go to stderr where wall-clock noise belongs.
fn cmd_chaos(args: &[String]) -> ExitCode {
    use sedspec_chaos::{run_chaos, ChaosConfig, FaultPlan};

    let mut plan = match flag(args, "--plan") {
        Some(path) => match FaultPlan::load(path) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("cannot load plan: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => FaultPlan::empty(0),
    };
    if let Some(seed) = flag(args, "--seed").and_then(|v| v.parse().ok()) {
        plan.seed = seed;
    }
    let defaults = ChaosConfig::default();
    let cfg = ChaosConfig {
        tenants: flag(args, "--tenants").and_then(|v| v.parse().ok()).unwrap_or(defaults.tenants),
        shards: flag(args, "--shards").and_then(|v| v.parse().ok()).unwrap_or(defaults.shards),
        batches: flag(args, "--batches").and_then(|v| v.parse().ok()).unwrap_or(defaults.batches),
        cases: flag(args, "--cases").and_then(|v| v.parse().ok()).unwrap_or(defaults.cases),
        ..defaults
    };
    eprintln!(
        "chaos: {} tenants on {} shards, {} rounds, {} plan rules, seed {}",
        cfg.tenants,
        cfg.shards,
        cfg.batches,
        plan.rules.len(),
        plan.seed
    );
    let (report, mut latencies_us) = run_chaos(&plan, &cfg);
    print!("{}", report.render());
    if latencies_us.is_empty() {
        eprintln!("recovery latency: no batch needed a retry");
    } else {
        latencies_us.sort_unstable();
        let median = latencies_us[latencies_us.len() / 2];
        let worst = latencies_us[latencies_us.len() - 1];
        eprintln!(
            "recovery latency over {} retried batches: median {median} us, worst {worst} us",
            latencies_us.len()
        );
    }
    if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------- serve / ctl --

fn parse_version(name: &str) -> Option<QemuVersion> {
    QemuVersion::all().into_iter().find(|v| v.to_string().eq_ignore_ascii_case(name))
}

/// Every value of a repeatable flag, in order.
fn multi_flag<'a>(args: &'a [String], name: &str) -> Vec<&'a str> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == name)
        .filter_map(|(i, _)| args.get(i + 1))
        .map(String::as_str)
        .collect()
}

/// Runs the enforcement-as-a-service daemon until a `ctl shutdown`.
fn cmd_serve(args: &[String]) -> ExitCode {
    use sedspecd::{AuthConfig, Daemon, DaemonConfig, RateLimitConfig};
    use std::path::PathBuf;

    let Some(store) = flag(args, "--store") else {
        eprintln!(
            "usage: sedspec serve --store DIR (--socket PATH | --tcp ADDR) [--shards N] \
             [--admin-token T] [--tenant-token TOKEN=ID] [--rate-capacity N --rate-refill N] \
             [--compact-every N] [--window-ms MS]"
        );
        return ExitCode::from(2);
    };
    let mut config = DaemonConfig::new(store);
    config.socket = flag(args, "--socket").map(PathBuf::from);
    config.tcp = flag(args, "--tcp").map(String::from);
    if config.socket.is_none() && config.tcp.is_none() {
        eprintln!("serve: need --socket PATH or --tcp ADDR");
        return ExitCode::from(2);
    }
    config.shards = flag(args, "--shards").and_then(|v| v.parse().ok()).unwrap_or(2);
    config.compact_every = flag(args, "--compact-every").and_then(|v| v.parse().ok()).unwrap_or(0);
    config.window_ms =
        flag(args, "--window-ms").and_then(|v| v.parse().ok()).unwrap_or(config.window_ms);
    config.auth = AuthConfig {
        admin_tokens: multi_flag(args, "--admin-token").into_iter().map(String::from).collect(),
        tenant_tokens: multi_flag(args, "--tenant-token")
            .into_iter()
            .filter_map(|pair| {
                let (token, id) = pair.split_once('=')?;
                Some((token.to_string(), id.parse().ok()?))
            })
            .collect(),
    };
    let capacity = flag(args, "--rate-capacity").and_then(|v| v.parse().ok()).unwrap_or(0);
    let refill = flag(args, "--rate-refill").and_then(|v| v.parse().ok()).unwrap_or(capacity);
    config.rate = RateLimitConfig { capacity, refill_per_sec: refill };

    let hub = Arc::new(sedspec_obs::ObsHub::new());
    let daemon = match Daemon::new(config, hub) {
        Ok(d) => Arc::new(d),
        Err(e) => {
            eprintln!("serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let warm = daemon.warm_stats();
    eprintln!(
        "sedspecd: warm-loaded {} revisions, {} tenants, alert seq {}{}",
        warm.revisions,
        warm.tenants,
        warm.alert_seq,
        if warm.replay_clean { "" } else { " (salvaged a damaged WAL tail)" }
    );
    for skipped in &warm.skipped {
        eprintln!("sedspecd: skipped: {skipped}");
    }
    eprintln!("sedspecd: serving");
    match daemon.run() {
        Ok(()) => {
            eprintln!("sedspecd: shut down cleanly (store compacted)");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve: {e}");
            ExitCode::FAILURE
        }
    }
}

fn ctl_connect(args: &[String]) -> Result<sedspecd::CtlClient, String> {
    use std::path::Path;
    let token = flag(args, "--token").map(String::from);
    let connected = if let Some(path) = flag(args, "--socket") {
        sedspecd::CtlClient::connect_unix(Path::new(path))
    } else if let Some(addr) = flag(args, "--tcp") {
        sedspecd::CtlClient::connect_tcp(addr)
    } else {
        return Err("ctl needs --socket PATH or --tcp ADDR".into());
    };
    connected.map(|c| c.with_auth(token)).map_err(|e| e.to_string())
}

/// `sedspec ctl fleet --json` output shape.
#[derive(serde::Serialize)]
struct FleetStatusOut {
    alert_seq: u64,
    quarantined: usize,
    degraded: usize,
    report: sedspec_fleet::FleetReport,
    recent_alerts: Vec<sedspec_fleet::telemetry::AlertEvent>,
}

/// Renders one watch frame as a human-readable log line.
fn render_watch_frame(frame: &sedspecd::WatchFrame) -> String {
    use sedspecd::WatchEvent;
    match &frame.event {
        WatchEvent::Alert { alert } => format!("[{:>6}] ALERT    {alert}", frame.seq),
        WatchEvent::HealthChanged { transition } => format!(
            "[{:>6}] HEALTH   tenant-{} {} -> {} ({})",
            frame.seq, transition.tenant, transition.from, transition.to, transition.reason
        ),
        WatchEvent::Window { report } => {
            let mut line = format!("[{:>6}] WINDOW   tick {}", frame.seq, report.tick);
            for t in &report.tenants {
                let _ = std::fmt::Write::write_fmt(
                    &mut line,
                    format_args!(
                        " | tenant-{}: {:.1} r/s, {} alert(s), p99 {} us",
                        t.tenant,
                        t.round_rate,
                        t.alerts,
                        t.walk_p99_ns / 1000
                    ),
                );
            }
            line
        }
        WatchEvent::Forensic { summary } => format!(
            "[{:>6}] FORENSIC tenant-{} {} {}: {}",
            frame.seq,
            summary.tenant.map_or_else(|| "?".to_string(), |t| t.to_string()),
            summary.device,
            summary.verdict,
            summary.violation
        ),
    }
}

/// `sedspec ctl watch`: attach to the daemon's live event stream.
fn cmd_ctl_watch(client: sedspecd::CtlClient, rest: &[String]) -> ExitCode {
    use sedspecd::proto::ProtoError;

    let tenant = flag(rest, "--tenant").and_then(|v| v.parse().ok());
    let cursor = flag(rest, "--cursor").and_then(|v| v.parse().ok());
    let json = rest.iter().any(|a| a == "--json");
    let max_events: Option<u64> = flag(rest, "--max-events").and_then(|v| v.parse().ok());
    let for_ms: Option<u64> = flag(rest, "--for-ms").and_then(|v| v.parse().ok());

    let mut stream = match client.watch(cursor, tenant) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ctl watch: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(c) = cursor {
        if stream.earliest > c + 1 {
            eprintln!(
                "ctl watch: events {}..{} already evicted from the ring; resuming at {}",
                c + 1,
                stream.earliest - 1,
                stream.earliest
            );
        }
    }
    eprintln!(
        "watching (cursor {}, ring holds {}..{}); ctrl-c to detach",
        stream.resume, stream.earliest, stream.latest
    );
    let deadline =
        for_ms.map(|ms| std::time::Instant::now() + std::time::Duration::from_millis(ms));
    let mut delivered: u64 = 0;
    loop {
        if max_events.is_some_and(|m| delivered >= m) {
            return ExitCode::SUCCESS;
        }
        if deadline.is_some_and(|d| std::time::Instant::now() >= d) {
            return ExitCode::SUCCESS;
        }
        match stream.next_frame() {
            Ok(frame) => {
                if json {
                    match serde_json::to_string(&frame) {
                        Ok(line) => println!("{line}"),
                        Err(e) => {
                            eprintln!("ctl watch: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                } else {
                    println!("{}", render_watch_frame(&frame));
                }
                delivered += 1;
            }
            Err(sedspecd::ClientError::Proto(ProtoError::Closed)) => {
                eprintln!("ctl watch: daemon closed the stream (resume cursor {})", stream.resume);
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("ctl watch: {e} (resume cursor {})", stream.resume);
                return ExitCode::FAILURE;
            }
        }
    }
}

/// Renders one `ctl top` refresh.
fn render_top(
    health: &sedspecd::proto::ServerHealth,
    window: Option<&sedspec_obs::WindowReport>,
    states: &[sedspec_obs::TenantHealth],
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "sedspecd {} | tenants {} ({} quarantined, {} degraded) | shards {}/{} | watchers {} | \
         requests {} | trace drops {}",
        health.server,
        health.tenants,
        health.quarantined,
        health.degraded,
        health.shards_alive,
        health.shards,
        health.watchers,
        health.requests,
        health.trace_dropped
    );
    let Some(report) = window else {
        let _ = writeln!(out, "  (no telemetry tick yet)");
        return out;
    };
    let _ = writeln!(
        out,
        "  tick {:>5}  {:<10} {:>9} {:>9} {:>7} {:>7} {:>9} {:>9}",
        report.tick, "TENANT", "STATE", "ROUNDS/S", "ALERTS", "ABORTS", "P50(us)", "P99(us)"
    );
    for t in &report.tenants {
        let state = states
            .iter()
            .find(|s| s.tenant == t.tenant)
            .map_or_else(|| "?".to_string(), |s| s.state.to_string());
        let _ = writeln!(
            out,
            "              tenant-{:<3} {:>9} {:>9.1} {:>7} {:>7} {:>9} {:>9}",
            t.tenant,
            state,
            t.round_rate,
            t.alerts,
            t.aborts,
            t.walk_p50_ns / 1000,
            t.walk_p99_ns / 1000
        );
    }
    out
}

/// `sedspec ctl top`: periodic health + windowed-telemetry renderer.
fn cmd_ctl_top(mut client: sedspecd::CtlClient, rest: &[String]) -> ExitCode {
    let interval: u64 = flag(rest, "--interval-ms").and_then(|v| v.parse().ok()).unwrap_or(1000);
    let iterations: u64 = flag(rest, "--iterations").and_then(|v| v.parse().ok()).unwrap_or(0);
    let mut shown: u64 = 0;
    loop {
        match client.health() {
            Ok((health, window, states)) => {
                print!("{}", render_top(&health, window.as_ref(), &states));
            }
            Err(e) => {
                eprintln!("ctl top: {e}");
                return ExitCode::FAILURE;
            }
        }
        shown += 1;
        if iterations > 0 && shown >= iterations {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(std::time::Duration::from_millis(interval.max(50)));
    }
}

/// The ctl client: one daemon request per invocation.
#[allow(clippy::too_many_lines)]
fn cmd_ctl(args: &[String]) -> ExitCode {
    use sedspec_fleet::FleetReport;

    let Some(command) = args.first().map(String::as_str) else {
        eprintln!(
            "usage: sedspec ctl <ping|publish|add-tenant|submit|status|fleet|quarantine|release|\
             metrics|doctor|watch|top|shutdown> [args] (--socket PATH | --tcp ADDR) [--token T]"
        );
        return ExitCode::from(2);
    };
    let rest = &args[1..];

    // Doctor runs even with no endpoint (store-only check), so it does
    // its own connection handling.
    if command == "doctor" {
        use std::path::Path;
        let report = sedspecd::run_doctor(
            flag(rest, "--socket").map(Path::new),
            flag(rest, "--tcp"),
            flag(rest, "--store").map(Path::new),
            flag(rest, "--token"),
        );
        match serde_json::to_string_pretty(&report) {
            Ok(json) => println!("{json}"),
            Err(e) => {
                eprintln!("ctl doctor: {e}");
                return ExitCode::FAILURE;
            }
        }
        return if report.healthy { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    let mut client = match ctl_connect(rest) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("ctl: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Watch upgrades the connection to a stream and consumes the
    // client; top loops Health polls. Both manage their own lifetime.
    if command == "watch" {
        return cmd_ctl_watch(client, rest);
    }
    if command == "top" {
        return cmd_ctl_top(client, rest);
    }
    let outcome: Result<(), String> = match command {
        "ping" => client
            .ping()
            .map(|(server, protocol)| println!("pong: sedspecd {server} (protocol {protocol})"))
            .map_err(|e| e.to_string()),
        "publish" => {
            let Some(kind) = rest.first().and_then(|a| parse_device(a)) else {
                eprintln!(
                    "usage: sedspec ctl publish <device> [--version V] [--spec FILE] \
                     [--allow-loosening] ..."
                );
                return ExitCode::from(2);
            };
            let version =
                flag(rest, "--version").and_then(parse_version).unwrap_or(QemuVersion::Patched);
            let json = match flag(rest, "--spec") {
                Some(path) => match std::fs::read_to_string(path) {
                    Ok(text) => text,
                    Err(e) => {
                        eprintln!("cannot read {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                },
                None => {
                    let cases = flag(rest, "--cases").and_then(|v| v.parse().ok()).unwrap_or(40);
                    let seed = flag(rest, "--seed").and_then(|v| v.parse().ok()).unwrap_or(0x7a11);
                    eprintln!("training {kind}/{version} ({cases} cases) ...");
                    train_spec(kind, version, cases, seed).to_json()
                }
            };
            let allow_loosening = rest.iter().any(|a| a == "--allow-loosening");
            client
                .publish_spec_with(kind, version, json, allow_loosening)
                .map(|(key, epoch, changelog)| {
                    println!("published {key} (epoch {epoch}): {changelog}");
                })
                .map_err(|e| e.to_string())
        }
        "add-tenant" => {
            let Some(tenant) = rest.first().and_then(|a| a.parse::<u64>().ok()) else {
                eprintln!("usage: sedspec ctl add-tenant <id> [--version V] [--device D]...");
                return ExitCode::from(2);
            };
            let version =
                flag(rest, "--version").and_then(parse_version).unwrap_or(QemuVersion::Patched);
            let devices: Vec<(DeviceKind, QemuVersion)> = {
                let named: Vec<DeviceKind> =
                    multi_flag(rest, "--device").into_iter().filter_map(parse_device).collect();
                if named.is_empty() {
                    DeviceKind::all().into_iter().map(|k| (k, version)).collect()
                } else {
                    named.into_iter().map(|k| (k, version)).collect()
                }
            };
            let mode = match flag(rest, "--mode") {
                Some("enhancement") => WorkingMode::Enhancement,
                _ => WorkingMode::Protection,
            };
            let config = TenantConfig::new(tenant).with_devices(devices).with_mode(mode);
            client
                .add_tenant(config)
                .map(|t| println!("hosted tenant-{t}"))
                .map_err(|e| e.to_string())
        }
        "submit" => {
            let Some(tenant) = rest.first().and_then(|a| a.parse::<u64>().ok()) else {
                eprintln!("usage: sedspec ctl submit <tenant> (--cve CVE | --benign --device D)");
                return ExitCode::from(2);
            };
            let steps = if let Some(id) = flag(rest, "--cve") {
                let Some(cve) = parse_cve(id) else {
                    eprintln!("unknown CVE {id} (try `sedspec cves`)");
                    return ExitCode::from(2);
                };
                poc(cve).steps
            } else if rest.iter().any(|a| a == "--benign") {
                let kind = flag(rest, "--device").and_then(parse_device).unwrap_or(DeviceKind::Fdc);
                let cases = flag(rest, "--cases").and_then(|v| v.parse().ok()).unwrap_or(10);
                let seed = flag(rest, "--seed").and_then(|v| v.parse().ok()).unwrap_or(0x7a11);
                training_suite(kind, cases, seed).into_iter().flatten().collect()
            } else {
                eprintln!("submit: need --cve CVE or --benign");
                return ExitCode::from(2);
            };
            client
                .submit(tenant, steps)
                .and_then(|report| {
                    serde_json::to_string_pretty(&report)
                        .map(|json| println!("{json}"))
                        .map_err(|e| sedspecd::ClientError::Unexpected(e.to_string()))
                })
                .map_err(|e| e.to_string())
        }
        "status" => {
            let Some(tenant) = rest.first().and_then(|a| a.parse::<u64>().ok()) else {
                eprintln!("usage: sedspec ctl status <tenant>");
                return ExitCode::from(2);
            };
            client
                .tenant_status(tenant)
                .and_then(|status| {
                    serde_json::to_string_pretty(&status)
                        .map(|json| println!("{json}"))
                        .map_err(|e| sedspecd::ClientError::Unexpected(e.to_string()))
                })
                .map_err(|e| e.to_string())
        }
        "fleet" => client
            .fleet_status()
            .and_then(|(report, alert_seq, recent_alerts)| {
                if rest.iter().any(|a| a == "--json") {
                    let out = FleetStatusOut {
                        alert_seq,
                        quarantined: report.quarantined_count(),
                        degraded: report.degraded_count(),
                        report,
                        recent_alerts,
                    };
                    serde_json::to_string_pretty(&out)
                        .map(|json| println!("{json}"))
                        .map_err(|e| sedspecd::ClientError::Unexpected(e.to_string()))
                } else {
                    print!("{}", report.render());
                    println!("alert seq {alert_seq}");
                    print!("{}", FleetReport::render_alerts(&recent_alerts));
                    Ok(())
                }
            })
            .map_err(|e| e.to_string()),
        "quarantine" | "release" => {
            let Some(tenant) = rest.first().and_then(|a| a.parse::<u64>().ok()) else {
                eprintln!("usage: sedspec ctl {command} <tenant>");
                return ExitCode::from(2);
            };
            let on = command == "quarantine";
            client
                .set_quarantine(tenant, on)
                .map(|was| {
                    println!(
                        "tenant-{tenant}: quarantined {} (was {})",
                        if on { "on" } else { "off" },
                        if was { "on" } else { "off" }
                    );
                })
                .map_err(|e| e.to_string())
        }
        "metrics" => client.metrics().map(|text| print!("{text}")).map_err(|e| e.to_string()),
        "shutdown" => {
            client.shutdown().map(|()| println!("daemon shutting down")).map_err(|e| e.to_string())
        }
        other => {
            eprintln!("ctl: unknown command {other}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ctl {command}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("train") => cmd_train(&args[1..]),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("attack") => cmd_attack(&args[1..]),
        Some("fuzz") => cmd_fuzz(&args[1..]),
        Some("fleet") => cmd_fleet(&args[1..]),
        Some("bench-checker") => cmd_bench_checker(&args[1..]),
        Some("obs-report") => cmd_obs_report(&args[1..]),
        Some("lint-spec") => cmd_lint_spec(&args[1..]),
        Some("spec-diff") => cmd_spec_diff(&args[1..]),
        Some("chaos") => cmd_chaos(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("ctl") => cmd_ctl(&args[1..]),
        Some("devices") => {
            for k in DeviceKind::all() {
                println!("{k}");
            }
            ExitCode::SUCCESS
        }
        Some("cves") => {
            for c in Cve::all_with_known_miss() {
                let p = poc(c);
                println!("{:<15} {:<9} {}", c.id(), p.device.to_string(), p.qemu_version);
            }
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!(
                "usage: sedspec <train|inspect|attack|fuzz|fleet|bench-checker|obs-report|lint-spec|spec-diff|chaos|serve|ctl|devices|cves> ..."
            );
            ExitCode::from(2)
        }
    }
}
