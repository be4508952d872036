//! Pass 5: compile-preservation diff (`SA401`).
//!
//! [`CompiledSpec::compile`] lowers the interpreted [`EsCfg`]s into the
//! dense zero-allocation tables the hot path walks. This pass checks the
//! lowering preserved structure in *both* directions, through the
//! compiled form's introspection methods, which read the walk's own
//! block records and value lookups: every interpreted edge resolves to
//! the same target, and the compiled tables answer `None`/empty exactly
//! where the interpreted spec has nothing — so the enforced behaviour
//! after `deploy_compiled` is the behaviour that was trained. A program
//! whose compiled form has a different block count (a stale compile of
//! another spec) is reported once instead of being diffed block by
//! block.
//!
//! [`EsCfg`]: sedspec::escfg::EsCfg

use std::collections::BTreeSet;

use sedspec::compiled::CompiledSpec;
use sedspec::escfg::{gid, ungid, EdgeKey};
use sedspec::spec::ExecutionSpecification;

use crate::diag::Diagnostic;

pub fn run(spec: &ExecutionSpecification, compiled: &CompiledSpec, out: &mut Vec<Diagnostic>) {
    if compiled.program_count() != spec.cfgs.len() {
        out.push(Diagnostic::new(
            "SA401",
            format!(
                "compiled spec has {} programs, interpreted has {}",
                compiled.program_count(),
                spec.cfgs.len()
            ),
        ));
        return;
    }
    for cfg in &spec.cfgs {
        let p = cfg.program;
        let diverge = |es: u32, msg: String| {
            Diagnostic::new("SA401", msg).in_program(p, &cfg.name).at_gid(gid(p, es))
        };
        let blocks = compiled.block_count(p).unwrap_or(0);
        if blocks != cfg.blocks.len() {
            // Block ids no longer name the same blocks on both sides, so
            // a per-block diff would only report the shift.
            out.push(
                Diagnostic::new(
                    "SA401",
                    format!(
                        "compiled form has {blocks} blocks, interpreted has {}",
                        cfg.blocks.len()
                    ),
                )
                .in_program(p, &cfg.name),
            );
            continue;
        }
        if compiled.entry_of(p) != cfg.entry {
            out.push(
                Diagnostic::new(
                    "SA401",
                    format!("entry {:?} compiled to {:?}", cfg.entry, compiled.entry_of(p)),
                )
                .in_program(p, &cfg.name),
            );
        }
        for (&from, list) in &cfg.edges {
            for e in list {
                let got = compiled.edge_target(p, from, e.key);
                if got != Some(e.to) {
                    out.push(diverge(
                        from,
                        format!("edge {:?} -> {} compiled to {:?}", e.key, e.to, got),
                    ));
                }
            }
        }
        for es in 0..cfg.blocks.len() as u32 {
            // Dense outcomes must answer None where nothing was trained.
            for key in [EdgeKey::Next, EdgeKey::Taken, EdgeKey::NotTaken] {
                if cfg.edge(es, key).is_none() {
                    if let Some(got) = compiled.edge_target(p, es, key) {
                        out.push(diverge(es, format!("phantom compiled {key:?} edge -> {got}")));
                    }
                }
            }
            let trained_cases = cfg
                .edges
                .get(&es)
                .map_or(0, |l| l.iter().filter(|e| matches!(e.key, EdgeKey::Case(_))).count());
            let cases = compiled.case_count(p, es).unwrap_or(0);
            if cases != trained_cases {
                out.push(diverge(
                    es,
                    format!("{cases} compiled cases for {trained_cases} trained"),
                ));
            }
            let flags = compiled.op_flags_of(p, es).map_or(0, <[bool]>::len);
            if flags != cfg.blocks[es as usize].dsod.len() {
                out.push(diverge(
                    es,
                    format!(
                        "{flags} compiled op flags for {} DSOD ops",
                        cfg.blocks[es as usize].dsod.len()
                    ),
                ));
            }
        }
        // Pass-through resolution must agree on every program origin.
        for &origin in cfg.forward.keys() {
            if compiled.resolve_of(p, origin) != cfg.resolve(origin) {
                out.push(
                    Diagnostic::new(
                        "SA401",
                        format!(
                            "origin {origin} resolves to {:?} interpreted, {:?} compiled",
                            cfg.resolve(origin),
                            compiled.resolve_of(p, origin)
                        ),
                    )
                    .in_program(p, &cfg.name),
                );
            }
        }
        // The compiled fn table must carry exactly the statically
        // legitimate values, each with the trained target (or none).
        let compiled_fns = compiled.fn_entries(p);
        let compiled_vals: BTreeSet<u64> = compiled_fns.iter().map(|&(v, _)| v).collect();
        if compiled_vals != cfg.legit_fn_values {
            out.push(
                Diagnostic::new(
                    "SA401",
                    format!(
                        "compiled fn values {compiled_vals:?} != legitimate {:?}",
                        cfg.legit_fn_values
                    ),
                )
                .in_program(p, &cfg.name),
            );
        }
        for (v, to) in compiled_fns {
            let trained = cfg.fn_targets.get(&v).copied();
            if to != trained {
                out.push(
                    Diagnostic::new(
                        "SA401",
                        format!("fn value {v:#x} targets {trained:?} interpreted, {to:?} compiled"),
                    )
                    .in_program(p, &cfg.name),
                );
            }
        }
    }
    check_cmd_table(spec, compiled, out);
}

/// The compiled command keys/bitmaps against the interpreted table.
fn check_cmd_table(
    spec: &ExecutionSpecification,
    compiled: &CompiledSpec,
    out: &mut Vec<Diagnostic>,
) {
    let interp: Vec<(u64, u64)> =
        spec.cmd_table.entries.iter().map(|e| (e.decision, e.cmd)).collect();
    if compiled.cmd_keys() != interp.as_slice() {
        out.push(Diagnostic::new(
            "SA401",
            format!(
                "compiled command keys ({}) differ from the interpreted table ({})",
                compiled.cmd_keys().len(),
                interp.len()
            ),
        ));
        return;
    }
    for (i, entry) in spec.cmd_table.entries.iter().enumerate() {
        let mut missing = 0usize;
        for &g in &entry.allowed {
            let (p, es) = ungid(g);
            if p < compiled.program_count() && !compiled.cmd_mask_allows(i, p, es) {
                missing += 1;
            }
        }
        if missing > 0 || compiled.cmd_mask_popcount(i) as usize != entry.allowed.len() {
            out.push(
                Diagnostic::new(
                    "SA401",
                    format!(
                        "cmd {:#x} bitmap has {} bits for {} allowed blocks ({missing} \
                         trained ids unset)",
                        entry.cmd,
                        compiled.cmd_mask_popcount(i),
                        entry.allowed.len()
                    ),
                )
                .at_gid(entry.decision),
            );
        }
    }
}
