//! Instrumentation must be pay-for-what-you-use: an enforcing device
//! with a disabled [`NoopSink`] attached takes the branch-cheap
//! observed dispatch but skips every payload, so it must stay within
//! noise of the recorderless path. This is the regression guard for
//! the compiled checker's no-allocation hot-path invariant.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

use sedspec::checker::{BatchOutcome, EsChecker, NoSync, WorkingMode};
use sedspec::enforce::EnforcingDevice;
use sedspec::pipeline::{train_script, TrainingConfig};
use sedspec_repro::devices::{build_device, DeviceKind, QemuVersion};
use sedspec_repro::obs::NoopSink;
use sedspec_repro::vmm::{AddressSpace, IoRequest, VmContext};
use sedspec_repro::workloads::generators::training_suite;

/// Pass-through allocator counting allocations per thread, so the
/// zero-allocation guard below is immune to sibling tests running
/// concurrently in this binary.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocs_on_this_thread() -> u64 {
    ALLOCS.with(Cell::get)
}

const SAMPLES: usize = 15;
const ITERS: u32 = 3000;

/// Median ns per enforced round over `SAMPLES` timed batches.
fn median_round_ns(enforcer: &mut EnforcingDevice, req: &IoRequest) -> f64 {
    let mut ctx = VmContext::new(0x10000, 64);
    // Warm up caches and the branch predictor.
    for _ in 0..ITERS {
        let _ = enforcer.handle_io(&mut ctx, req);
    }
    let mut times: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..ITERS {
                let _ = enforcer.handle_io(&mut ctx, req);
            }
            start.elapsed().as_nanos() as f64 / ITERS as f64
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

#[test]
fn disabled_sink_stays_within_noise_of_recorderless_path() {
    let kind = DeviceKind::Fdc;
    let mut device = build_device(kind, QemuVersion::Patched);
    let mut ctx = VmContext::new(0x200000, 8192);
    let suite = training_suite(kind, 40, 0x7a11);
    let spec = train_script(&mut device, &mut ctx, &suite, &TrainingConfig::default()).unwrap();
    let req = IoRequest::read(AddressSpace::Pmio, 0x3f4, 1);

    let build = |sinked: bool| {
        let mut enforcer = EnforcingDevice::new(
            build_device(kind, QemuVersion::Patched),
            spec.clone(),
            WorkingMode::Enhancement,
        );
        if sinked {
            enforcer.set_sink(Some(Arc::new(NoopSink)));
        }
        enforcer
    };

    // Interleave the measurements so slow-host drift hits both arms.
    let mut best_ratio = f64::INFINITY;
    for _ in 0..3 {
        let none_ns = median_round_ns(&mut build(false), &req);
        let noop_ns = median_round_ns(&mut build(true), &req);
        best_ratio = best_ratio.min(noop_ns / none_ns);
        if best_ratio <= 1.25 {
            break;
        }
    }
    // Generous bound: a shared CI container jitters double-digit
    // percentages, but a disabled sink accidentally assembling event
    // payloads (string formatting, path recording, per-round timing)
    // costs multiples, which this still catches.
    assert!(
        best_ratio <= 1.5,
        "disabled sink costs {:.0}% over the recorderless path",
        (best_ratio - 1.0) * 100.0
    );
}

/// The fault seam added for chaos testing sits at batch boundaries
/// (submit, device-step, registry-fetch) as `Option::None` when
/// disabled; nothing fault-related may leak into the per-round walk.
/// This pins `walk_round_fast`'s no-allocation invariant: a warmed
/// checker with no sink and no fault point walks thousands of rounds
/// without touching the allocator at all.
#[test]
fn disabled_fault_seam_keeps_walk_round_fast_allocation_free() {
    let kind = DeviceKind::Fdc;
    let mut device = build_device(kind, QemuVersion::Patched);
    let mut ctx = VmContext::new(0x200000, 8192);
    let suite = training_suite(kind, 40, 0x7a11);
    let spec = train_script(&mut device, &mut ctx, &suite, &TrainingConfig::default()).unwrap();

    let device = build_device(kind, QemuVersion::Patched);
    let req = IoRequest::read(AddressSpace::Pmio, 0x3f4, 1);
    let pi = device.route(&req).expect("the poll port routes to a program");
    let mut checker = EsChecker::new(spec, device.control.clone());

    // Warm up: the first walks may grow the reusable journal and
    // scratch buffers to their steady-state capacity.
    for _ in 0..64 {
        let _ = checker.walk_round_fast(pi, &req, &mut NoSync);
        checker.abort_round();
    }

    let before = allocs_on_this_thread();
    for _ in 0..2000 {
        let _ = checker.walk_round_fast(pi, &req, &mut NoSync);
        checker.abort_round();
    }
    let during = allocs_on_this_thread() - before;
    assert_eq!(
        during, 0,
        "walk_round_fast allocated {during} times over 2000 warmed rounds; the hot path \
         (and the disabled fault seam around it) must be allocation-free"
    );
}

/// The batched engine shares the per-round invariant: once the journal,
/// scratch and [`BatchOutcome`] buffers reach steady-state capacity, a
/// warmed checker drains thousands of batched rounds without touching
/// the allocator — submission amortization must not buy throughput by
/// hiding per-batch buffer churn.
#[test]
fn walk_batch_is_allocation_free_when_warm() {
    let kind = DeviceKind::Fdc;
    let mut device = build_device(kind, QemuVersion::Patched);
    let mut ctx = VmContext::new(0x200000, 8192);
    let suite = training_suite(kind, 40, 0x7a11);
    let spec = train_script(&mut device, &mut ctx, &suite, &TrainingConfig::default()).unwrap();

    let device = build_device(kind, QemuVersion::Patched);
    let req = IoRequest::read(AddressSpace::Pmio, 0x3f4, 1);
    let pi = device.route(&req).expect("the poll port routes to a program");
    let mut checker = EsChecker::new(spec, device.control.clone());

    const BATCH: usize = 256;
    let reqs: Vec<IoRequest> = (0..BATCH).map(|_| req.clone()).collect();
    let mut out = BatchOutcome::default();

    // Warm up: grow the journal, scratch and outcome buffers.
    for _ in 0..8 {
        checker.walk_batch(reqs.iter().map(|r| (pi, r)), &mut out);
        checker.abort_batch();
    }

    let before = allocs_on_this_thread();
    for _ in 0..2000 / BATCH + 8 {
        checker.walk_batch(reqs.iter().map(|r| (pi, r)), &mut out);
        checker.abort_batch();
    }
    let during = allocs_on_this_thread() - before;
    assert_eq!(
        during, 0,
        "walk_batch allocated {during} times over warmed {BATCH}-round batches; the batched \
         hot path must be allocation-free"
    );
}

/// The windowed-telemetry layer is pay-for-what-you-use too: a live
/// [`ObsHub`] whose window is *disabled* (the default) must not change
/// the warmed batched hot path's zero-allocation invariant — the
/// window machinery may only cost anything once `enable_window` is
/// called, and even then only on the sampling thread, never in the
/// walk.
#[test]
fn disabled_window_layer_keeps_walk_batch_allocation_free() {
    use sedspec_repro::obs::{ObsHub, ScopeInfo};

    let kind = DeviceKind::Fdc;
    let mut device = build_device(kind, QemuVersion::Patched);
    let mut ctx = VmContext::new(0x200000, 8192);
    let suite = training_suite(kind, 40, 0x7a11);
    let spec = train_script(&mut device, &mut ctx, &suite, &TrainingConfig::default()).unwrap();

    // A hub exists in the process, scopes registered, window off —
    // the daemon's shape before anyone calls `enable_window`.
    let hub = Arc::new(ObsHub::new());
    let _scope = hub.register_scope(ScopeInfo::tenant_device(0, 1, "FDC"));
    assert!(!hub.window_enabled(), "the windowed layer must be off by default");
    assert!(hub.sample_window(0).is_none(), "a disabled window must not sample");

    let device = build_device(kind, QemuVersion::Patched);
    let req = IoRequest::read(AddressSpace::Pmio, 0x3f4, 1);
    let pi = device.route(&req).expect("the poll port routes to a program");
    let mut checker = EsChecker::new(spec, device.control.clone());

    const BATCH: usize = 256;
    let reqs: Vec<IoRequest> = (0..BATCH).map(|_| req.clone()).collect();
    let mut out = BatchOutcome::default();
    for _ in 0..8 {
        checker.walk_batch(reqs.iter().map(|r| (pi, r)), &mut out);
        checker.abort_batch();
    }

    let before = allocs_on_this_thread();
    for _ in 0..16 {
        checker.walk_batch(reqs.iter().map(|r| (pi, r)), &mut out);
        checker.abort_batch();
    }
    let during = allocs_on_this_thread() - before;
    assert_eq!(
        during, 0,
        "walk_batch allocated {during} times with a window-disabled hub alive; the windowed \
         layer must be pay-for-what-you-use"
    );
    drop(hub);
}

/// Every observed round updates the hub's per-device histograms
/// (`sedspec_walk_ns{device}` & co.), so updating a series that already
/// exists must look it up from the borrowed name and label values: only
/// a series' first sample may build its owned key.
#[test]
fn updating_existing_labeled_series_is_allocation_free() {
    use sedspec_repro::obs::MetricsRegistry;

    let metrics = MetricsRegistry::new();
    let device = ("device", "FDC");
    let stage = ("stage", "auth");
    // First samples create the series and size the histograms' buckets.
    metrics.inc_labeled("sedspec_alerts_total", device, 1);
    metrics.observe_labeled("sedspec_walk_ns", device, 900);
    metrics.observe_labeled2("sedspecd_request_ns", ("op", "SubmitBatch"), stage, 900);

    let before = allocs_on_this_thread();
    for v in 0..1000u64 {
        metrics.inc_labeled("sedspec_alerts_total", device, 1);
        metrics.observe_labeled("sedspec_walk_ns", device, v % 900);
        metrics.observe_labeled2("sedspecd_request_ns", ("op", "SubmitBatch"), stage, v % 900);
    }
    let during = allocs_on_this_thread() - before;
    assert_eq!(during, 0, "updating existing labeled series allocated {during} times");
    assert_eq!(metrics.counter("sedspec_alerts_total", Some(device)), 1001);
    assert_eq!(metrics.histogram("sedspec_walk_ns", Some(device)).map(|h| h.count()), Some(1001));
}
