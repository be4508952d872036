//! Property test for the static analyzer's detection floor: every
//! mutation class we can inflict on a known-good trained specification
//! must be caught by its designated `SA` diagnostic code. The analyzer
//! is the publish gate — a mutation class it misses is a corrupted spec
//! the fleet would happily deploy.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use sedspec::compiled::CompiledSpec;
use sedspec::escfg::{EsBlock, Nbtd};
use sedspec::pipeline::{train_script, TrainingConfig};
use sedspec::spec::ExecutionSpecification;
use sedspec_analysis::{analyze, AnalysisContext, AnalysisReport};
use sedspec_dbl::ir::{BlockKind, Expr};
use sedspec_repro::devices::{build_device, DeviceKind, QemuVersion};
use sedspec_repro::fuzz::train::{trained_compiled, trained_spec};
use sedspec_repro::vmm::VmContext;
use sedspec_repro::workloads::generators::training_suite;

/// One benign FDC spec, trained once and cloned per case.
fn known_good() -> &'static ExecutionSpecification {
    static SPEC: OnceLock<ExecutionSpecification> = OnceLock::new();
    SPEC.get_or_init(|| {
        let mut device = build_device(DeviceKind::Fdc, QemuVersion::Patched);
        let mut ctx = VmContext::new(0x200000, 8192);
        let suite = training_suite(DeviceKind::Fdc, 40, 0x7a11);
        train_script(&mut device, &mut ctx, &suite, &TrainingConfig::default()).unwrap()
    })
}

fn analyze_plain(spec: &ExecutionSpecification) -> AnalysisReport {
    analyze(spec, &AnalysisContext::default())
}

/// Picks the `pick`-th cfg (mod eligible count) satisfying `eligible`.
fn pick_cfg(
    spec: &mut ExecutionSpecification,
    pick: u64,
    eligible: impl Fn(&sedspec::escfg::EsCfg) -> bool,
) -> &mut sedspec::escfg::EsCfg {
    let idxs: Vec<usize> =
        spec.cfgs.iter().enumerate().filter(|(_, c)| eligible(c)).map(|(i, _)| i).collect();
    assert!(!idxs.is_empty(), "the trained FDC spec must offer a mutation site");
    let i = idxs[pick as usize % idxs.len()];
    &mut spec.cfgs[i]
}

/// Class: orphan block — appended, mapped, never targeted → `SA001`.
fn mutate_orphan_block(spec: &mut ExecutionSpecification, pick: u64) {
    let cfg = pick_cfg(spec, pick, |c| c.entry.is_some());
    let origin = cfg.blocks.iter().map(|b| b.origin).max().unwrap_or(0) + 1000;
    let es = cfg.blocks.len() as u32;
    cfg.blocks.push(EsBlock {
        origin,
        label: "orphan".to_string(),
        kind: BlockKind::Plain,
        dsod: Vec::new(),
        nbtd: Nbtd::None,
        is_exit: true,
        is_return: false,
    });
    cfg.by_origin.insert(origin, es);
}

/// Class: dropped bridge edges — entry keeps no successors → `SA001`.
fn mutate_drop_edges(spec: &mut ExecutionSpecification, pick: u64) {
    let cfg = pick_cfg(spec, pick, |c| c.entry.is_some() && c.blocks.len() > 1);
    cfg.edges.clear();
}

/// Class: dangling retarget — an edge aims past the block list → `SA002`.
fn mutate_dangling_edge(spec: &mut ExecutionSpecification, pick: u64) {
    let cfg = pick_cfg(spec, pick, |c| !c.edges.is_empty());
    let n = cfg.blocks.len() as u32;
    let lists: Vec<u32> = cfg.edges.keys().copied().collect();
    let from = lists[pick as usize % lists.len()];
    let list = cfg.edges.get_mut(&from).unwrap();
    let e = pick as usize % list.len();
    list[e].to = n + 7;
}

/// Class: duplicate edges — same key, conflicting targets → `SA004`.
fn mutate_duplicate_edge(spec: &mut ExecutionSpecification, pick: u64) {
    let cfg = pick_cfg(spec, pick, |c| !c.edges.is_empty());
    let lists: Vec<u32> = cfg.edges.keys().copied().collect();
    let from = lists[pick as usize % lists.len()];
    let list = cfg.edges.get_mut(&from).unwrap();
    let mut dup = list[0];
    dup.to += 1;
    list.insert(1, dup);
}

/// Class: shuffled (unsorted) edge list → `SA005`.
fn mutate_unsort_edges(spec: &mut ExecutionSpecification, pick: u64) {
    let cfg = pick_cfg(spec, pick, |c| c.edges.values().any(|l| l.len() >= 2));
    let lists: Vec<u32> = cfg.edges.iter().filter(|(_, l)| l.len() >= 2).map(|(&k, _)| k).collect();
    let from = lists[pick as usize % lists.len()];
    let list = cfg.edges.get_mut(&from).unwrap();
    list.swap(0, 1);
}

/// Class: widened constraint — a branch guard rewritten to a tautology
/// → `SA101` (the guard decides nothing anymore).
fn mutate_widen_guard(spec: &mut ExecutionSpecification, pick: u64) {
    let cfg =
        pick_cfg(spec, pick, |c| c.blocks.iter().any(|b| matches!(b.nbtd, Nbtd::Branch { .. })));
    let sites: Vec<usize> = cfg
        .blocks
        .iter()
        .enumerate()
        .filter(|(_, b)| matches!(b.nbtd, Nbtd::Branch { .. }))
        .map(|(i, _)| i)
        .collect();
    let b = sites[pick as usize % sites.len()];
    cfg.blocks[b].nbtd = Nbtd::Branch { cond: Expr::Const(1), needs_sync: false };
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn every_mutation_class_is_caught_by_its_designated_code(
        class in 0usize..6,
        pick in 0u64..10_000,
    ) {
        let mut spec = known_good().clone();
        let expected = match class {
            0 => { mutate_orphan_block(&mut spec, pick); "SA001" }
            1 => { mutate_drop_edges(&mut spec, pick); "SA001" }
            2 => { mutate_dangling_edge(&mut spec, pick); "SA002" }
            3 => { mutate_duplicate_edge(&mut spec, pick); "SA004" }
            4 => { mutate_unsort_edges(&mut spec, pick); "SA005" }
            _ => { mutate_widen_guard(&mut spec, pick); "SA101" }
        };
        let report = analyze_plain(&spec);
        prop_assert!(
            !report.with_code(expected).is_empty(),
            "mutation class {class} must trip {expected}, got:\n{}",
            report.render_human()
        );
    }

    #[test]
    fn mutating_after_compile_is_caught_by_the_preservation_diff(
        pick in 0u64..10_000,
    ) {
        // Compile the good spec, then rewire one interpreted edge to a
        // different (still valid) block: the enforced tables no longer
        // match the interpreted artifact → SA401.
        let good = known_good().clone();
        let compiled = CompiledSpec::compile(Arc::new(good.clone()));
        let mut spec = good;
        let cfg = pick_cfg(&mut spec, pick, |c| !c.edges.is_empty() && c.blocks.len() > 1);
        let n = cfg.blocks.len() as u32;
        let lists: Vec<u32> = cfg.edges.keys().copied().collect();
        let from = lists[pick as usize % lists.len()];
        let list = cfg.edges.get_mut(&from).unwrap();
        let e = pick as usize % list.len();
        list[e].to = (list[e].to + 1) % n;
        let ctx = AnalysisContext { device: None, compiled: Some(&compiled) };
        let report = analyze(&spec, &ctx);
        prop_assert!(
            !report.with_code("SA401").is_empty(),
            "stale compiled form must trip SA401, got:\n{}",
            report.render_human()
        );
    }
}

/// A stale compiled form with fewer blocks than the spec it is checked
/// against (PCNet v2.4.0's compile: `pcnet_pmio_write` has 27 blocks
/// there and 28 in the patched spec) is an SA401 finding, not an
/// out-of-bounds panic in the compiled lookups.
#[test]
fn stale_compile_with_fewer_blocks_is_an_sa401_finding() {
    let stale = trained_compiled(DeviceKind::Pcnet, QemuVersion::V2_4_0);
    let spec = trained_spec(DeviceKind::Pcnet, QemuVersion::Patched);
    let report = analyze(&spec, &AnalysisContext { device: None, compiled: Some(&stale) });
    let mismatches: Vec<_> = report
        .with_code("SA401")
        .into_iter()
        .filter(|d| d.message == "compiled form has 27 blocks, interpreted has 28")
        .collect();
    assert_eq!(mismatches.len(), 1, "got:\n{}", report.render_human());
    assert_eq!(mismatches[0].handler.as_deref(), Some("pcnet_pmio_write"));
}
