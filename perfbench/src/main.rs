//! `perfbench` — the served-path benchmark.
//!
//! ```text
//! perfbench --workload <bulk|interactive|containment> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Sets up a live in-process `sedspecd` (trained specs published over
//! its Unix socket, tenants hosted), drives the workload's closed-loop
//! clients through `CtlClient`, checks every answer, and prints one
//! JSON object as the last line of standard output. `--trace 1` runs
//! the untraced load for half the time, then replays the same request
//! stream layer by layer and reports the per-layer metrics instead.
//! NOTES.md explains every metric and why each workload exists.

mod inputs;
mod load;
mod replay;
mod served;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use inputs::{Op, Workload};
use load::{ClientLog, Window};
use sedspecd::proto::ServerHealth;
use stats::{prom_sum, quantile, ratio};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Warm-up before the window opens (answers still checked).
const WARM: Duration = Duration::from_millis(1000);
/// Containment cycles `bulk` and `interactive` run after their window
/// so that `contain_*` exist on every workload; the first is warm-up.
/// 129 timed cycles give 1032 PoCs, so at least 10 lie beyond p99.
const TAIL_CYCLES: usize = 130;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {name}"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <bulk|interactive|containment> \
                 --seed N --seconds S --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    // Run files (stores, sockets, spans) stay inside the checkout, under
    // the build directory; the path stays short for the socket's sake.
    let out = PathBuf::from(".bench_build").join("perfbench");
    let dir = out.join(format!("run-{}", std::process::id()));
    let result = run(&args, &dir, &out);
    let _ = std::fs::remove_dir_all(&dir);
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A metric line of the result: `(name, value, unit)`.
type Metric = (String, f64, &'static str);

fn run(args: &Args, dir: &Path, out: &Path) -> Result<String, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut kept: Option<served::Setup> = None;
    for i in 0..SETUP_REPEATS {
        let start = Instant::now();
        let fresh = served::setup(args.seed, &dir.join(format!("s{i}")))?;
        setup_s.push(start.elapsed().as_secs_f64());
        if let Some(old) = kept.replace(fresh) {
            old.served.stop()?;
        }
    }
    let setup = kept.expect("at least one set-up");
    eprintln!("setup_s samples: {setup_s:?}");

    let stream = inputs::benign_stream(&setup.suites);
    let contain = inputs::containment_ops(&stream);
    let benign = |size: usize| -> Vec<Vec<Op>> {
        let batches = inputs::benign_batches(&stream, size);
        (0..inputs::CLIENTS).map(|c| inputs::load_ops(&batches, c)).collect()
    };
    let (ops, warm_ops) = match args.workload {
        Workload::Bulk => (benign(inputs::BULK_STEPS), 0),
        Workload::Interactive => (benign(inputs::INTERACTIVE_STEPS), 0),
        Workload::Containment => (vec![contain.clone()], inputs::CONTAIN_OPS_PER_CYCLE),
    };
    let window_s = if args.trace { args.seconds / 2.0 } else { args.seconds };

    let before = scrape(&setup.served)?;
    let start = Instant::now();
    let window = Window {
        warm_until: start + WARM,
        warm_ops,
        end: start + WARM + Duration::from_secs_f64(window_s),
        max_ops: usize::MAX,
    };
    let logs = load::run_clients(&setup.served.socket, &ops, window);
    let after = scrape(&setup.served)?;
    report_clients("load", &logs);
    let mut e2e = load::summarize(&logs);
    // Both load tenants replay the same stream from boot, so their
    // answers must agree report for report.
    let mut problems = twin_client_problems(&logs);
    for (c, log) in logs.iter().enumerate() {
        if log.reports.len() == ops[c].len() {
            problems.push(format!("client {c} ran out of operations before its window closed"));
        }
    }

    let result = if args.trace {
        let probe = if args.workload == Workload::Containment {
            Vec::new()
        } else {
            contain[..inputs::CONTAIN_OPS_PER_CYCLE].to_vec()
        };
        let spans_path = out.join(format!("spans-{}.jsonl", workload_name(args.workload)));
        let replayed = replay::run(
            &dir.join("replay"),
            &replay::ReplayInput {
                specs: &setup.specs,
                ops: &ops[0],
                e2e: &logs[0].reports,
                probe: &probe,
                budget: Duration::from_secs_f64(args.seconds / 2.0),
                spans_path: &spans_path,
            },
        )?;
        problems.extend(replayed.problems.iter().cloned());
        let metrics = per_layer(&setup, &logs, &e2e, &before, &after, &replayed);
        (metrics, e2e.attempted, e2e.failed)
    } else {
        let mut tail_attempted = 0;
        let mut tail_failed = 0;
        if args.workload != Workload::Containment {
            let start = Instant::now();
            let tail = Window {
                warm_until: start,
                warm_ops: inputs::CONTAIN_OPS_PER_CYCLE,
                end: start + Duration::from_secs(120),
                max_ops: inputs::CONTAIN_OPS_PER_CYCLE * TAIL_CYCLES,
            };
            let logs = load::run_clients(&setup.served.socket, &[contain], tail);
            report_clients("containment tail", &logs);
            let tail = load::summarize(&logs);
            e2e.contain_ns = tail.contain_ns;
            tail_attempted = tail.attempted;
            tail_failed = tail.failed;
        }
        let attempted = e2e.attempted + tail_attempted;
        let failed = e2e.failed + tail_failed;
        let metrics = vec![
            ("setup_s".to_string(), stats::median(&setup_s), "s"),
            ("rounds_per_s".to_string(), e2e.rounds_per_s, "1/s"),
            ("req_p50_ms".to_string(), quantile(&e2e.submit_ns, 0.5) / 1e6, "ms"),
            ("req_p99_ms".to_string(), quantile(&e2e.submit_ns, 0.99) / 1e6, "ms"),
            ("contain_p50_ms".to_string(), quantile(&e2e.contain_ns, 0.5) / 1e6, "ms"),
            ("contain_p99_ms".to_string(), quantile(&e2e.contain_ns, 0.99) / 1e6, "ms"),
            ("ok_ratio".to_string(), 1.0 - ratio(failed as f64, attempted as f64), "ratio"),
            ("peak_rss_mb".to_string(), peak_rss_mb()?, "MB"),
        ];
        eprintln!(
            "samples: {} SubmitBatch latencies, {} containment latencies",
            e2e.submit_ns.len(),
            e2e.contain_ns.len()
        );
        (metrics, attempted, failed)
    };
    setup.served.stop()?;
    let (metrics, attempted, failed) = result;
    for p in problems.iter().take(8) {
        eprintln!("problem: {p}");
    }
    render(failed == 0 && problems.is_empty(), attempted, failed, &metrics)
}

fn workload_name(w: Workload) -> &'static str {
    match w {
        Workload::Bulk => "bulk",
        Workload::Interactive => "interactive",
        Workload::Containment => "containment",
    }
}

fn report_clients(phase: &str, logs: &[ClientLog]) {
    for (c, log) in logs.iter().enumerate() {
        eprintln!(
            "{phase} client {c}: {} ops sent, {} failed {:?}",
            log.attempted, log.failed, log.errors
        );
    }
}

/// Report-for-report disagreement between the two load clients.
fn twin_client_problems(logs: &[ClientLog]) -> Vec<String> {
    let [a, b] = logs else { return Vec::new() };
    a.reports
        .iter()
        .zip(&b.reports)
        .enumerate()
        .filter_map(|(k, pair)| match pair {
            (Some(x), Some(y))
                if (x.rounds, x.flagged, &x.stats) != (y.rounds, y.flagged, &y.stats) =>
            {
                Some(format!("op {k}: clients disagree: {x:?} vs {y:?}"))
            }
            _ => None,
        })
        .collect()
}

/// The daemon's own view: its metrics exposition and health section.
struct Scrape {
    prom: String,
    health: ServerHealth,
}

fn scrape(served: &served::Served) -> Result<Scrape, String> {
    let mut client = served.client()?;
    let prom = client.metrics().map_err(|e| format!("metrics scrape: {e}"))?;
    let health = client.server_health().map_err(|e| format!("health scrape: {e}"))?;
    Ok(Scrape { prom, health })
}

/// Mean of `sedspecd_request_ns{op,stage}` between two scrapes, in µs.
fn stage_us(before: &Scrape, after: &Scrape, op: &str, stage: &str) -> f64 {
    let series = format!("{{op=\"{op}\",stage=\"{stage}\"}}");
    let delta = |prefix: &str| {
        prom_sum(&after.prom, prefix, &series) - prom_sum(&before.prom, prefix, &series)
    };
    ratio(delta("sedspecd_request_ns_sum"), delta("sedspecd_request_ns_count")) / 1e3
}

fn per_layer(
    setup: &served::Setup,
    logs: &[ClientLog],
    e2e: &load::Summary,
    before: &Scrape,
    after: &Scrape,
    replayed: &replay::ReplayOutput,
) -> Vec<Metric> {
    let e2e_p50_us = quantile(&e2e.submit_ns, 0.5) / 1e3;
    let ops = e2e.attempted as f64;
    let wal_fsync_us = ratio(
        prom_sum(&after.prom, "sedspecd_request_ns_sum", "stage=\"wal_fsync\""),
        prom_sum(&after.prom, "sedspecd_request_ns_count", "stage=\"wal_fsync\""),
    ) / 1e3;
    let rollbacks: u64 =
        logs.iter().flat_map(|l| l.reports.iter().flatten()).map(|r| u64::from(r.rollbacks)).sum();
    let train_ms =
        setup.specs.iter().map(|s| s.train_s).sum::<f64>() * 1e3 / setup.specs.len() as f64;
    let (b, a) = (&before.health, &after.health);
    let decode_us = stage_us(before, after, "SubmitBatch", "decode");
    let enforce_us = stage_us(before, after, "SubmitBatch", "enforce");
    let total_us = stage_us(before, after, "SubmitBatch", "total");
    let mut m: Vec<Metric> = vec![
        ("e2e.req_samples".into(), e2e.submit_ns.len() as f64, "count"),
        ("e2e.req_p50_us".into(), e2e_p50_us, "us"),
        ("daemon.stage.decode_us".into(), decode_us, "us"),
        ("daemon.stage.auth_us".into(), stage_us(before, after, "SubmitBatch", "auth"), "us"),
        ("daemon.stage.enforce_us".into(), enforce_us, "us"),
        ("daemon.stage.total_us".into(), total_us, "us"),
        ("daemon.stage.wal_fsync_us".into(), wal_fsync_us, "us"),
        ("daemon.unexplained_us".into(), e2e_p50_us - replayed.path_p50_us, "us"),
        ("trace.path_p50_us".into(), replayed.path_p50_us, "us"),
        ("trace.accounted_share".into(), ratio(replayed.path_p50_us, e2e_p50_us), "ratio"),
        ("wal.records_per_op".into(), ratio((a.wal_records - b.wal_records) as f64, ops), "count"),
        ("wal.bytes_per_op".into(), ratio((a.wal_bytes - b.wal_bytes) as f64, ops), "B"),
        ("pool.rollbacks".into(), rollbacks as f64, "count"),
        ("obs.trace_dropped".into(), (a.trace_dropped - b.trace_dropped) as f64, "count"),
        ("train.spec_ms".into(), train_ms, "ms"),
    ];
    m.extend(replayed.metrics.iter().cloned());
    let replay_decode_us =
        replayed.metrics.iter().find(|x| x.0 == "proto.decode_us").map_or(0.0, |x| x.1);
    eprintln!(
        "reconciliation, mean us per SubmitBatch: daemon decode stage {decode_us:.1} vs replayed \
         parse_request {replay_decode_us:.1}; daemon enforce stage {enforce_us:.1}; daemon total \
         stage {total_us:.1} vs client-observed p50 {e2e_p50_us:.1} (total leaves out decode and \
         the response write)"
    );
    eprintln!("replayed {} SubmitBatch requests", replayed.requests);
    m
}

/// Peak resident set of this process (which hosts the daemon), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn render(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for (name, value, unit) in metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        eprintln!("{name:<40} {value:>16.6} {unit}");
        body.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}
