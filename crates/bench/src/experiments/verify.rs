//! `repro -- verify` — static schedule verification sweep.
//!
//! Runs the fg-verify static analyzer (`fg_core::verify`) over every
//! shipped model × parallel strategy × process grid up to 8 ranks and
//! reports, per combination, the trace volume the checker covered (ops
//! traced, p2p links, collectives, payload bytes) and the wall time the
//! verification itself took. Every row must come out clean: a violation
//! here means a shipped configuration would deadlock or corrupt a halo
//! before the first training step.
//!
//! The sweep's strategies mirror the paper's experiment grid: uniform
//! sample parallelism, uniform spatial decomposition (`spatial_split`),
//! the same spatial grid under a 1:3 weighted partition (the layout a
//! gray-failure rebalance emits), a hybrid 2-group split, and the §V-C
//! optimizer's pick for the same instance. Combinations whose strategy does not validate for the
//! batch size (e.g. 8-way sample parallelism at batch 4) are skipped,
//! not failed — the sweep checks every plan that could actually run.

use fg_core::{DistExecutor, Strategy, VerifyReport};
use fg_models::{mesh_model, resnet50, MeshSize};
use fg_nn::NetworkSpec;
use fg_perf::{Platform, StrategyOptimizer};
use fg_tensor::ProcGrid;

use super::{hybrid_grid, spatial_split};
use crate::table::{fmt_bytes, Table};

/// Largest world the sweep verifies. Tracing is O(P²) in links, and 8
/// ranks already exercises every plan kind (halos, shuffles, groups).
const MAX_VERIFY_WORLD: usize = 8;

/// Mini-batch size for the sweep: large enough that sample parallelism
/// at `MAX_VERIFY_WORLD` is populated.
const BATCH: usize = 8;

/// One verified combination.
pub struct SweepRow {
    /// Model display name.
    pub model: &'static str,
    /// Strategy display name.
    pub strategy: String,
    /// World size.
    pub world: usize,
    /// The verifier's report (stats + violations + wall time).
    pub report: VerifyReport,
}

/// The shipped models the sweep covers.
fn models() -> Vec<(&'static str, NetworkSpec)> {
    vec![
        ("mesh-1K", mesh_model(MeshSize::OneK)),
        ("mesh-2K", mesh_model(MeshSize::TwoK)),
        ("ResNet-50", resnet50()),
    ]
}

/// The strategies tried for one (model, world) instance, as
/// `(name, strategy)` pairs. Invalid ones are filtered by the caller.
fn strategies(platform: &Platform, spec: &NetworkSpec, world: usize) -> Vec<(String, Strategy)> {
    let mut out = Vec::new();
    out.push(("sample".to_string(), Strategy::uniform(spec, ProcGrid::sample(world))));
    if world > 1 {
        let (ph, pw) = spatial_split(world);
        out.push((
            format!("spatial {ph}x{pw}"),
            Strategy::uniform(spec, ProcGrid::spatial(ph, pw)),
        ));
        // The gray-failure rebalance layout: the same spatial grid with
        // a 1:3 weighted partition (rank 0 slowed, survivors weighted
        // up). Every weighted plan the straggler rung could emit must
        // verify as clean as its uniform twin.
        let mut weights = vec![3u64; world];
        weights[0] = 1;
        out.push((
            format!("weighted {ph}x{pw} (1:3)"),
            Strategy::uniform(spec, ProcGrid::spatial(ph, pw)).with_rank_weights(weights),
        ));
    }
    if world >= 4 {
        let k = world / 2;
        out.push((format!("hybrid 2x{k}"), Strategy::uniform(spec, hybrid_grid(2, k))));
    }
    let (opt, _) = StrategyOptimizer::new(platform, spec, BATCH, world).optimize();
    out.push(("optimized".to_string(), opt));
    out
}

/// Run the full sweep; every returned row carries its verify report.
pub fn sweep(platform: &Platform) -> Vec<SweepRow> {
    let mut rows = Vec::new();
    for (model, spec) in models() {
        let mut world = 1;
        while world <= MAX_VERIFY_WORLD {
            for (name, strategy) in strategies(platform, &spec, world) {
                if strategy.validate(&spec, BATCH).is_err() {
                    continue;
                }
                let exec = DistExecutor::new(spec.clone(), strategy, BATCH)
                    .expect("validated strategy must compile");
                let report = exec.verify();
                rows.push(SweepRow { model, strategy: name, world, report });
            }
            world *= 2;
        }
    }
    rows
}

/// The `repro -- verify` table.
pub fn verify_report(platform: &Platform) -> Table {
    let rows = sweep(platform);
    let mut t = Table::new(
        "Static schedule verification: shipped models x strategies x grids (batch 8, <= 8 ranks)",
        &[
            "model",
            "strategy",
            "ranks",
            "ops traced",
            "p2p links",
            "collectives",
            "bytes",
            "wall",
            "result",
        ],
    );
    let mut total_wall = 0.0;
    for r in &rows {
        let s = &r.report.stats;
        total_wall += r.report.wall.as_secs_f64();
        t.push_row(vec![
            r.model.into(),
            r.strategy.clone(),
            r.world.to_string(),
            s.ops_traced.to_string(),
            s.links_checked.to_string(),
            s.collectives_checked.to_string(),
            fmt_bytes(s.bytes_accounted as u64),
            format!("{:.1} ms", r.report.wall.as_secs_f64() * 1e3),
            if r.report.is_clean() {
                "clean".into()
            } else {
                format!("{} VIOLATIONS", r.report.violations.len())
            },
        ]);
    }
    t.push_row(vec![
        "total".into(),
        format!("{} combinations", rows.len()),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        format!("{:.1} ms", total_wall * 1e3),
        if rows.iter().all(|r| r.report.is_clean()) { "all clean".into() } else { "DIRTY".into() },
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_shipped_combination_verifies_clean() {
        // The acceptance bar: every model × strategy × grid the repo
        // ships must verify with zero violations.
        let rows = sweep(&Platform::lassen_like());
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(
                r.report.is_clean(),
                "{} / {} / {} ranks: {}",
                r.model,
                r.strategy,
                r.world,
                r.report
            );
            if r.world > 1 {
                assert!(r.report.stats.ops_traced > 0, "{} {} traced nothing", r.model, r.strategy);
            }
        }
        // The sweep must actually cover every model at the max world.
        for (model, _) in models() {
            assert!(
                rows.iter().any(|r| r.model == model && r.world == MAX_VERIFY_WORLD),
                "{model}"
            );
        }
    }
}
