//! Re-planning for shrunken worlds — the performance-model half of the
//! elastic-degradation rung (`fg_core::resilient`).
//!
//! When a rank dies permanently, the resilience driver shrinks the
//! world from `P` to some `P' < P` and needs a fresh parallel strategy
//! for the survivors. `replan_for_world` is the one-shot entry point:
//! it re-runs the full §V-C [`StrategyOptimizer`] search against a
//! *measured* platform at the reduced world size (including
//! non-power-of-two sizes, which the candidate enumeration handles via
//! divisor grids) and hands back its pick. Whether the pick compiles
//! and verifies is the shrink rung's one gate for a new layout
//! (`fg_core::DistExecutor::new_verified`), not the re-planner's.
//! [`degrade_replanner`] packages that as the boxed
//! [`fg_core::Replanner`] callback the driver's `DegradeConfig` wants,
//! owning its inputs so the closure can outlive the caller's frame.

use fg_core::{Replanner, Strategy};
use fg_nn::NetworkSpec;
use std::sync::Arc;

use crate::cost::CostBreakdown;
use crate::optimizer::StrategyOptimizer;
use crate::platform::Platform;

/// Re-run the strategy search for a (typically reduced) world size.
/// Returns `None` when `world` or `batch` is degenerate or the
/// optimizer's pick is for another world size — the caller then probes
/// the next smaller size.
fn replan_for_world(
    platform: &Platform,
    spec: &NetworkSpec,
    batch: usize,
    world: usize,
) -> Option<(Strategy, CostBreakdown)> {
    if world == 0 || batch == 0 {
        return None;
    }
    let (strategy, cost) = StrategyOptimizer::new(platform, spec, batch, world).optimize();
    (strategy.world_size() == world).then_some((strategy, cost))
}

/// The canonical [`Replanner`] for `DegradeConfig::replan`: a closure
/// owning the measured platform and network that re-plans any candidate
/// world size the degradation rung probes.
pub fn degrade_replanner(platform: Platform, spec: NetworkSpec, batch: usize) -> Replanner {
    Arc::new(move |world| replan_for_world(&platform, &spec, batch, world).map(|(s, _)| s))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_net() -> NetworkSpec {
        let mut net = NetworkSpec::new();
        let i = net.input("x", 3, 16, 16);
        let c = net.conv("c1", i, 8, 3, 1, 1);
        let r = net.relu("r", c);
        let g = net.global_avg_pool("gap", r);
        let f = net.fc("fc", g, 4);
        net.loss("loss", f);
        net
    }

    #[test]
    fn replans_a_shrunken_non_power_of_two_world() {
        let platform = Platform::lassen_like();
        let net = toy_net();
        // The degradation case: a 4-rank world lost a rank.
        let (s, cost) = replan_for_world(&platform, &net, 6, 3).expect("3 ranks viable");
        assert_eq!(s.world_size(), 3);
        assert_eq!(s.validate(&net, 6), Ok(()));
        assert!(cost.total() > 0.0);
    }

    #[test]
    fn degenerate_worlds_yield_none_not_a_panic() {
        let platform = Platform::lassen_like();
        let net = toy_net();
        assert!(replan_for_world(&platform, &net, 6, 0).is_none());
        assert!(replan_for_world(&platform, &net, 0, 3).is_none());
    }

    #[test]
    fn replanner_closure_produces_validated_strategies_for_every_probe() {
        let platform = Platform::lassen_like();
        let net = toy_net();
        let replan = degrade_replanner(platform, net.clone(), 8);
        for world in 1..=8 {
            if let Some(s) = replan(world) {
                assert_eq!(s.world_size(), world, "world {world}");
                assert_eq!(s.validate(&net, 8), Ok(()), "world {world}");
                // A replanned strategy must compile end-to-end.
                assert!(
                    fg_core::DistExecutor::new(net.clone(), s.clone(), 8).is_ok(),
                    "world {world} strategy must compile"
                );
            }
        }
        // The common shrink 4 → 3 must be viable for this net.
        assert!(replan(3).is_some());
    }

    #[test]
    fn replanned_strategies_pass_static_schedule_verification() {
        // The shrink rung verifies a replan before it commits to it
        // (`DistExecutor::new_verified`); the search's own picks must
        // already come out clean, so verify them explicitly here.
        let platform = Platform::lassen_like();
        let net = toy_net();
        for world in [1, 2, 3, 4] {
            if let Some((s, _)) = replan_for_world(&platform, &net, 8, world) {
                let exec = fg_core::DistExecutor::new(net.clone(), s, 8).unwrap();
                let report = exec.verify();
                assert!(report.is_clean(), "world {world}: {report}");
            }
        }
    }
}
