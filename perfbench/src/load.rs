//! Closed-loop load: each client sends its next operation only after
//! the previous answer arrived, the way a guest vCPU blocks on its
//! verdict before issuing the next I/O. Every answer is checked against
//! the operation's expected verdict.

use std::path::Path;
use std::time::{Duration, Instant};

use sedspec_fleet::pool::BatchReport;
use sedspecd::{ClientError, CtlClient};

use crate::inputs::{self, Expect, Op};

/// Which of a client's operations count toward the measurement.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Operations sent before this instant are warm-up.
    pub warm_until: Instant,
    /// Operations with a lower index are warm-up too.
    pub warm_ops: usize,
    /// No operation is sent at or after this instant.
    pub end: Instant,
    /// At most this many operations are sent.
    pub max_ops: usize,
}

/// What one client saw.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// The final report of every answered submission, by operation
    /// index (`None` for releases and failed operations).
    pub reports: Vec<Option<BatchReport>>,
    /// SubmitBatch latencies inside the window, in ns.
    pub submit_ns: Vec<u64>,
    /// PoC-first-submit-to-quarantined latencies inside the window, in ns.
    pub contain_ns: Vec<u64>,
    /// Enforced rounds answered inside the window.
    pub rounds: u64,
    /// Operations sent, warm-up included.
    pub attempted: u64,
    /// Operations answered wrongly or with an error.
    pub failed: u64,
    /// Send time of the first operation inside the window.
    pub first: Option<Instant>,
    /// Answer time of the last operation inside the window.
    pub last: Option<Instant>,
    /// The first few failures, rendered.
    pub errors: Vec<String>,
}

impl ClientLog {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }
}

#[derive(Debug)]
enum Answer {
    Batch(BatchReport),
    Released { was_quarantined: bool },
}

/// Checks a submission's final report against the expected verdict.
pub fn check_report(expect: Expect, r: &BatchReport) -> Result<(), String> {
    let ok = match expect {
        Expect::Clean { rounds } => {
            r.rounds == rounds
                && r.flagged == 0
                && r.rollbacks == 0
                && !r.quarantined
                && !r.rejected
                && !r.degraded
        }
        Expect::Quarantined => r.quarantined && !r.rejected && r.flagged > 0,
        Expect::Released => false,
    };
    if ok {
        Ok(())
    } else {
        Err(format!("expected {expect:?}, answered {r:?}"))
    }
}

fn check(expect: Expect, answer: &Answer) -> Result<(), String> {
    match answer {
        Answer::Batch(r) => check_report(expect, r),
        Answer::Released { was_quarantined: true } if expect == Expect::Released => Ok(()),
        Answer::Released { .. } => Err(format!("expected {expect:?}, answered {answer:?}")),
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Sends `ops` in order over one connection until the window closes.
pub fn drive(socket: &Path, ops: &[Op], window: Window) -> ClientLog {
    let mut log = ClientLog::default();
    let mut client = match CtlClient::connect_unix(socket) {
        Ok(client) => client,
        Err(e) => {
            log.attempted = 1;
            log.fail(format!("connect: {e}"));
            return log;
        }
    };
    for (i, op) in ops.iter().enumerate().take(window.max_ops) {
        let start = Instant::now();
        if start >= window.end {
            break;
        }
        let timed = start >= window.warm_until && i >= window.warm_ops;
        log.attempted += 1;
        let answer = match op {
            Op::Submit { tenant, steps, expect } => {
                let mut tries = 0;
                loop {
                    tries += 1;
                    let steps = steps.to_vec();
                    let sent = Instant::now();
                    let answer = client.submit(*tenant, steps);
                    if let Ok(report) = &answer {
                        if timed {
                            log.rounds += report.rounds;
                            log.submit_ns.push(nanos(sent.elapsed()));
                        }
                        if *expect == Expect::Quarantined && tries == 1 && inputs::resubmit(report)
                        {
                            continue;
                        }
                    }
                    break answer.map(Answer::Batch);
                }
            }
            Op::Release { tenant } => client
                .set_quarantine(*tenant, false)
                .map(|was_quarantined| Answer::Released { was_quarantined }),
        };
        let done = Instant::now();
        let answer = match answer {
            Ok(answer) => answer,
            Err(e) => {
                log.fail(format!("op {i}: {e}"));
                log.reports.push(None);
                if matches!(e, ClientError::Proto(_) | ClientError::Connect(_)) {
                    break; // the connection is gone
                }
                continue;
            }
        };
        let verdict = check(op.expect(), &answer);
        if let Err(e) = &verdict {
            log.fail(format!("op {i}: {e}"));
        }
        if timed {
            log.first.get_or_insert(start);
            log.last = Some(done);
            if op.expect() == Expect::Quarantined && verdict.is_ok() {
                log.contain_ns.push(nanos(done - start));
            }
        }
        log.reports.push(match answer {
            Answer::Batch(report) => Some(report),
            Answer::Released { .. } => None,
        });
    }
    log
}

/// Runs one closed-loop client per operation list, each on its own
/// thread and connection, and waits for all of them.
pub fn run_clients(socket: &Path, ops: &[Vec<Op>], window: Window) -> Vec<ClientLog> {
    std::thread::scope(|s| {
        let clients: Vec<_> =
            ops.iter().map(|ops| s.spawn(move || drive(socket, ops, window))).collect();
        clients.into_iter().map(|c| c.join().expect("client thread panicked")).collect()
    })
}

/// The end-to-end view of a set of client logs.
#[derive(Debug, Default)]
pub struct Summary {
    /// Enforced rounds per wall second inside the window, all clients.
    pub rounds_per_s: f64,
    /// Every SubmitBatch latency inside the window, sorted, in ns.
    pub submit_ns: Vec<u64>,
    /// Every containment latency inside the window, sorted, in ns.
    pub contain_ns: Vec<u64>,
    /// Operations sent, warm-up included.
    pub attempted: u64,
    /// Operations answered wrongly or with an error.
    pub failed: u64,
}

/// Merges client logs: the window runs from the first timed send of
/// any client to the last timed answer of any client.
pub fn summarize(logs: &[ClientLog]) -> Summary {
    let first = logs.iter().filter_map(|l| l.first).min();
    let last = logs.iter().filter_map(|l| l.last).max();
    let window_s = match (first, last) {
        (Some(a), Some(b)) => (b - a).as_secs_f64(),
        _ => 0.0,
    };
    let rounds: u64 = logs.iter().map(|l| l.rounds).sum();
    let mut submit_ns: Vec<u64> = logs.iter().flat_map(|l| l.submit_ns.iter().copied()).collect();
    let mut contain_ns: Vec<u64> = logs.iter().flat_map(|l| l.contain_ns.iter().copied()).collect();
    submit_ns.sort_unstable();
    contain_ns.sort_unstable();
    Summary {
        rounds_per_s: if window_s > 0.0 { rounds as f64 / window_s } else { 0.0 },
        submit_ns,
        contain_ns,
        attempted: logs.iter().map(|l| l.attempted).sum(),
        failed: logs.iter().map(|l| l.failed).sum(),
    }
}
