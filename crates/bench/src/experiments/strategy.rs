//! Strategy-optimizer demonstration (§V-C).
//!
//! Not a numbered figure in the paper, but a claimed capability: "our
//! system uses a performance model to determine promising ways to
//! parallelize the network". For each scenario we report the optimizer's
//! per-layer choices (summarized), its predicted mini-batch time, the
//! winner's exact per-rank memory peak, and the predicted times of the
//! uniform strategies the paper's experiments use — showing when the
//! optimizer agrees with the paper's hand-chosen decompositions, when it
//! finds better mixed ones, and what a device memory limit changes.

use std::time::Instant;

use fg_core::{analyze_strategy, sample_ranks, Strategy};
use fg_models::{mesh_model, resnet50, MeshSize};
use fg_nn::NetworkSpec;
use fg_perf::{network_cost, CostOptions, Platform, StrategyOptimizer};
use fg_tensor::ProcGrid;

use super::hybrid_grid;
use crate::table::{fmt_time, Table};

/// One optimization scenario.
pub struct Scenario {
    /// Display name.
    pub name: &'static str,
    /// The network.
    pub spec: NetworkSpec,
    /// Mini-batch size.
    pub batch: usize,
    /// World size.
    pub world: usize,
    /// Per-rank device memory limit in bytes, if any.
    pub memory_limit: Option<usize>,
}

/// The scenarios reported by the `strategy` experiment.
fn scenarios() -> Vec<Scenario> {
    let scenario =
        |name, spec, batch, world| Scenario { name, spec, batch, world, memory_limit: None };
    vec![
        scenario("mesh-1K, N=1, 4 GPUs (memory-constrained)", mesh_model(MeshSize::OneK), 1, 4),
        scenario("mesh-1K, N=4, 16 GPUs", mesh_model(MeshSize::OneK), 4, 16),
        scenario("mesh-1K, N=16, 16 GPUs", mesh_model(MeshSize::OneK), 16, 16),
        scenario("ResNet-50, N=64, 16 GPUs", resnet50(), 64, 16),
        scenario("ResNet-50, N=16, 16 GPUs (strong-scaled)", resnet50(), 16, 16),
        // The unconstrained winner's mixed tail needs 6.01 GiB per rank;
        // a 6 GiB device forces pure sample parallelism (5.95 GiB).
        scenario("ResNet-50, N=1024, 32 GPUs", resnet50(), 1024, 32),
        Scenario {
            memory_limit: Some(6 << 30),
            ..scenario("ResNet-50, N=1024, 32 GPUs, 6 GiB/GPU", resnet50(), 1024, 32)
        },
        // Table III's largest worlds: what the search itself costs there.
        scenario("ResNet-50, N=8192, 512 GPUs", resnet50(), 8192, 512),
        scenario("ResNet-50, N=32768, 2048 GPUs", resnet50(), 32768, 2048),
    ]
}

/// Summarize a strategy as "grid × layer-count" runs.
fn summarize(strategy: &Strategy) -> String {
    let mut runs: Vec<(ProcGrid, usize)> = Vec::new();
    for &g in &strategy.grids {
        match runs.last_mut() {
            Some((last, count)) if *last == g => *count += 1,
            _ => runs.push((g, 1)),
        }
    }
    runs.iter().map(|(g, c)| format!("{g}×{c}")).collect::<Vec<_>>().join(", ")
}

/// The strategy-optimizer comparison table.
pub fn strategy_report(platform: &Platform) -> Table {
    let opts = CostOptions::default();
    let mut t = Table::new(
        "Strategy optimizer (§V-C): optimized vs uniform strategies (modeled mini-batch time)",
        &[
            "scenario",
            "optimized",
            "best uniform",
            "uniform sample",
            "search wall",
            "layer / shuffle costs modeled, DP edges",
            "peak/rank (exact)",
            "optimized strategy",
        ],
    );
    for sc in scenarios() {
        let mut opt = StrategyOptimizer::new(platform, &sc.spec, sc.batch, sc.world);
        if let Some(bytes) = sc.memory_limit {
            opt = opt.with_memory_limit(bytes);
        }
        let started = Instant::now();
        let (strategy, cost, work) = opt.search();
        let search_wall = started.elapsed().as_secs_f64();
        assert_eq!(
            strategy.validate(&sc.spec, sc.batch),
            Ok(()),
            "optimizer must emit valid plans"
        );
        let peak = analyze_strategy(&sc.spec, &strategy, sc.batch, &sample_ranks(sc.world))
            .expect("a valid strategy analyzes")
            .max_peak();

        // Uniform baselines across the paper's schemes.
        let mut best_uniform = f64::INFINITY;
        let mut sample_uniform = f64::NAN;
        for k in [1usize, 2, 4, 8, 16] {
            if sc.world % k != 0 {
                continue;
            }
            let groups = sc.world / k;
            if groups > sc.batch {
                continue;
            }
            let s = Strategy::uniform(&sc.spec, hybrid_grid(groups, k));
            if s.validate(&sc.spec, sc.batch).is_err() {
                continue;
            }
            let time = network_cost(platform, &sc.spec, sc.batch, &s, &opts).total();
            if k == 1 {
                sample_uniform = time;
            }
            best_uniform = best_uniform.min(time);
        }
        t.push_row(vec![
            sc.name.into(),
            fmt_time(cost.total()),
            if best_uniform.is_finite() { fmt_time(best_uniform) } else { "n/a".into() },
            if sample_uniform.is_nan() { "n/a".into() } else { fmt_time(sample_uniform) },
            fmt_time(search_wall),
            format!("{} / {}, {}", work.layer_cost_evals, work.shuffle_cost_evals, work.dp_edges),
            format!("{:.2} GiB", peak as f64 / (1u64 << 30) as f64),
            summarize(&strategy),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimizer_never_loses_to_the_best_uniform_strategy_on_line_nets() {
        let platform = Platform::lassen_like();
        let opts = CostOptions::default();
        // Mesh model is a line network: the DP is optimal over the
        // candidate set, which includes every uniform strategy.
        let spec = mesh_model(MeshSize::OneK);
        for (batch, world) in [(1usize, 4usize), (4, 16), (16, 16)] {
            let (strategy, cost) =
                StrategyOptimizer::new(&platform, &spec, batch, world).optimize();
            assert_eq!(strategy.validate(&spec, batch), Ok(()));
            for k in [1usize, 2, 4, 8, 16] {
                if world % k != 0 || world / k > batch {
                    continue;
                }
                let uniform = Strategy::uniform(&spec, hybrid_grid(world / k, k));
                if uniform.validate(&spec, batch).is_err() {
                    continue;
                }
                let ut = network_cost(&platform, &spec, batch, &uniform, &opts).total();
                assert!(
                    cost.total() <= ut * 1.001,
                    "batch={batch} world={world}: optimized {} vs uniform k={k} {}",
                    cost.total(),
                    ut
                );
            }
        }
    }

    #[test]
    fn report_renders_all_scenarios() {
        let t = strategy_report(&Platform::lassen_like());
        assert_eq!(t.rows.len(), scenarios().len());
    }

    #[test]
    fn summarize_compresses_runs() {
        let spec = mesh_model(MeshSize::OneK);
        let s = Strategy::uniform(&spec, ProcGrid::sample(4));
        let sum = summarize(&s);
        assert_eq!(sum, format!("(n=4, c=1, h=1, w=1)×{}", spec.len()));
    }
}
