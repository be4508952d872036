//! The plan executor: a [`FaultPoint`] driven by a [`FaultPlan`].
//!
//! Determinism is the whole design. Every decision is a pure function
//! of (plan, per-site invocation count): sites are keyed by their most
//! specific coordinate (tenant, else device, else shard), each
//! matching rule keeps its own counter per site key, and the
//! probabilistic path hashes `(seed, rule, key, invocation)` through
//! splitmix64. Nothing reads the clock or thread identity, so a plan
//! replays bit-for-bit — which is what lets the chaos suite demand
//! byte-identical recovery reports for a fixed seed.

use std::collections::HashMap;

use parking_lot::Mutex;
use sedspec_fleet::{FaultAction, FaultKind, FaultPoint, FaultSite};
use sedspec_workloads::splitmix64;

use crate::plan::FaultPlan;

/// Site key offsets keep tenant-, device- and shard-scoped sites from
/// colliding in one counter space.
const DEVICE_KEY_BASE: u64 = 1 << 40;
const SHARD_KEY_BASE: u64 = 1 << 41;

fn site_key(site: &FaultSite) -> u64 {
    if let Some(t) = site.tenant {
        t
    } else if let Some(d) = site.device {
        DEVICE_KEY_BASE + d as u64
    } else if let Some(s) = site.shard {
        SHARD_KEY_BASE + u64::from(s)
    } else {
        0
    }
}

#[derive(Default)]
struct InjectorState {
    /// Invocation counter per (rule index, site key).
    counters: HashMap<(usize, u64), u64>,
    /// Fires per rule (bounds `max_fires`).
    fired_per_rule: Vec<u64>,
    /// Fires per fault kind, dense-indexed by [`FaultKind::index`].
    fired_per_kind: [u64; 6],
}

/// Executes a [`FaultPlan`] behind the fleet's fault seam.
pub struct FaultInjector {
    plan: FaultPlan,
    state: Mutex<InjectorState>,
}

impl FaultInjector {
    /// Builds an injector for `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let rules = plan.rules.len();
        FaultInjector {
            plan,
            state: Mutex::new(InjectorState {
                counters: HashMap::new(),
                fired_per_rule: vec![0; rules],
                fired_per_kind: [0; 6],
            }),
        }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Fires so far per fault kind, dense-indexed like
    /// [`FaultKind::ALL`].
    pub fn fired_by_kind(&self) -> [u64; 6] {
        self.state.lock().fired_per_kind
    }

    /// Fires so far per plan rule, in rule order.
    pub fn fired_by_rule(&self) -> Vec<u64> {
        self.state.lock().fired_per_rule.clone()
    }

    /// Total faults injected so far.
    pub fn total_fired(&self) -> u64 {
        self.fired_by_kind().iter().sum()
    }

    fn action_for(kind: FaultKind, stall_ms: u64) -> FaultAction {
        match kind {
            FaultKind::WorkerPanic => FaultAction::Panic,
            FaultKind::DeviceStepError | FaultKind::RegistryFail => FaultAction::Fail,
            FaultKind::RegistryStall | FaultKind::ObsSinkStall => FaultAction::Stall(stall_ms),
            FaultKind::SubmitSaturated => FaultAction::Reject,
        }
    }
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("seed", &self.plan.seed)
            .field("rules", &self.plan.rules.len())
            .field("fired", &self.total_fired())
            .finish()
    }
}

impl FaultPoint for FaultInjector {
    fn check(&self, site: &FaultSite) -> FaultAction {
        let key = site_key(site);
        let mut state = self.state.lock();
        let mut decided: Option<FaultAction> = None;
        for (idx, rule) in self.plan.rules.iter().enumerate() {
            if rule.kind != site.kind {
                continue;
            }
            if let Some(want) = rule.tenant {
                if site.tenant != Some(want) {
                    continue;
                }
            }
            // Count the invocation for every matching rule, fired or
            // not, so one rule's fire cannot shift a sibling's
            // schedule.
            let n = {
                let counter = state.counters.entry((idx, key)).or_insert(0);
                let n = *counter;
                *counter += 1;
                n
            };
            if decided.is_some() || state.fired_per_rule[idx] >= rule.max_fires {
                continue;
            }
            let scheduled = rule.at.contains(&n);
            let rolled = rule.probability > 0.0 && {
                let h = splitmix64(
                    self.plan
                        .seed
                        .wrapping_mul(0xA076_1D64_78BD_642F)
                        .wrapping_add(splitmix64((idx as u64) << 32 | site.kind.index() as u64))
                        .wrapping_add(splitmix64(key))
                        .wrapping_add(n),
                );
                // 53 high bits → uniform in [0, 1).
                (h >> 11) as f64 / (1u64 << 53) as f64 <= rule.probability
            };
            if scheduled || rolled {
                state.fired_per_rule[idx] += 1;
                state.fired_per_kind[site.kind.index()] += 1;
                decided = Some(Self::action_for(rule.kind, rule.stall_ms));
            }
        }
        decided.unwrap_or(FaultAction::Proceed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultRule;

    #[test]
    fn at_schedule_fires_on_exact_invocations() {
        let plan = FaultPlan {
            seed: 1,
            rules: vec![FaultRule {
                kind: FaultKind::SubmitSaturated,
                tenant: Some(2),
                at: vec![1, 3],
                probability: 0.0,
                stall_ms: 0,
                max_fires: 8,
            }],
        };
        let inj = FaultInjector::new(plan);
        let hits: Vec<bool> =
            (0..5).map(|_| inj.check(&FaultSite::submit(0, 2)) == FaultAction::Reject).collect();
        assert_eq!(hits, vec![false, true, false, true, false]);
        // A different tenant's site has its own counter and no match.
        assert_eq!(inj.check(&FaultSite::submit(0, 3)), FaultAction::Proceed);
        assert_eq!(inj.fired_by_kind()[FaultKind::SubmitSaturated.index()], 2);
    }

    #[test]
    fn max_fires_bounds_the_rule() {
        let plan = FaultPlan {
            seed: 9,
            rules: vec![FaultRule {
                kind: FaultKind::RegistryFail,
                tenant: None,
                at: (0..100).collect(),
                probability: 0.0,
                stall_ms: 0,
                max_fires: 3,
            }],
        };
        let inj = FaultInjector::new(plan);
        let fired = (0..100)
            .filter(|_| {
                inj.check(&FaultSite::registry_fetch(
                    FaultKind::RegistryFail,
                    sedspec_devices::DeviceKind::Fdc,
                )) == FaultAction::Fail
            })
            .count();
        assert_eq!(fired, 3);
    }

    #[test]
    fn probabilistic_firing_is_seed_deterministic() {
        let mk = |seed| {
            FaultInjector::new(FaultPlan {
                seed,
                rules: vec![FaultRule {
                    kind: FaultKind::ObsSinkStall,
                    tenant: None,
                    at: Vec::new(),
                    probability: 0.5,
                    stall_ms: 1,
                    max_fires: u64::MAX,
                }],
            })
        };
        let trace = |inj: &FaultInjector| -> Vec<bool> {
            (0..64)
                .map(|_| inj.check(&FaultSite::obs_sink(Some(7))) != FaultAction::Proceed)
                .collect()
        };
        let a = trace(&mk(123));
        let b = trace(&mk(123));
        let c = trace(&mk(124));
        assert_eq!(a, b, "same seed must fire identically");
        assert_ne!(a, c, "different seeds must differ somewhere in 64 draws");
        let fired = a.iter().filter(|&&f| f).count();
        assert!(fired > 10 && fired < 54, "p=0.5 should fire roughly half: {fired}");
    }

    #[test]
    fn empty_plan_never_fires() {
        let inj = FaultInjector::new(FaultPlan::empty(7));
        for kind in FaultKind::ALL {
            let site = FaultSite { kind, tenant: Some(1), shard: Some(0), device: None };
            assert_eq!(inj.check(&site), FaultAction::Proceed);
        }
        assert_eq!(inj.total_fired(), 0);
    }
}
