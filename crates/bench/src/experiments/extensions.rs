//! Extension experiments beyond the paper's evaluation section:
//!
//! * **memory-pressure alternatives** (§VII): the exact per-rank training
//!   peak of the 2K mesh model under spatial parallelism vs one device
//!   vs micro-batching (`fg_core::analyze_strategy`, nothing executed);
//! * **modeled overlap ablation** (§IV-A, §V-B): the cost model with
//!   halo and allreduce overlap switched off in turn.

use fg_core::{analyze_strategy, sample_ranks, Strategy};
use fg_models::{mesh_model, MeshSize};
use fg_perf::{network_cost, CostOptions, Platform};
use fg_tensor::ProcGrid;

use crate::experiments::hybrid_grid;
use crate::table::{fmt_time, Table};

/// Memory-pressure alternatives for the 2K mesh model: the exact
/// per-rank peak of training one sample under each mechanism the
/// executor runs (§VII's comparison, made concrete).
fn memory_table() -> Table {
    let spec = mesh_model(MeshSize::TwoK);
    let peak = |grid: ProcGrid| {
        let strategy = Strategy::uniform(&spec, grid);
        let report = analyze_strategy(&spec, &strategy, 1, &sample_ranks(grid.size()))
            .expect("a uniform grid is valid for one 2K sample");
        format!("{:.1} GiB", report.max_peak() as f64 / (1u64 << 30) as f64)
    };
    let mut t = Table::new(
        "Extension: memory-pressure mechanisms, 2K mesh model (per-sample training footprint)",
        &["mechanism", "footprint/device", "extra cost"],
    );
    let single = peak(ProcGrid::sample(1));
    t.push_row(vec![
        "single device (infeasible on 16 GiB V100)".into(),
        single.clone(),
        "-".into(),
    ]);
    for (k, grid) in [(4, ProcGrid::spatial(2, 2)), (16, ProcGrid::spatial(4, 4))] {
        t.push_row(vec![
            format!("{k}-way spatial parallelism"),
            peak(grid),
            "halo exchanges".into(),
        ]);
    }
    // Micro-batching cannot go below one sample — it does NOT help here
    // (the paper's point: "not viable for very large samples").
    t.push_row(vec!["micro-batching (1 sample)".into(), single, "no help below 1 sample".into()]);
    t
}

/// Modeled overlap ablations (§IV-A, §V-B): the same configurations
/// with each overlap mechanism disabled, quantifying what hiding halo
/// exchanges and allreduces buys. (Modeled only: no executed run
/// disables an overlap.)
fn overlap_ablation_table(platform: &Platform) -> Table {
    let spec = mesh_model(MeshSize::OneK);
    let mut t = Table::new(
        "Extension: modeled overlap ablation, 1K mesh model",
        &["config", "both overlaps", "no halo overlap", "no allreduce overlap", "neither"],
    );
    for (batch, scheme) in [(4usize, 4usize), (4, 16), (64, 16)] {
        let world = batch * scheme;
        let strategy = Strategy::uniform(&spec, hybrid_grid(batch, scheme));
        let time = |halo: bool, ar: bool| {
            fmt_time(
                network_cost(
                    platform,
                    &spec,
                    batch,
                    &strategy,
                    &CostOptions { overlap_halo: halo, overlap_allreduce: ar },
                )
                .total(),
            )
        };
        t.push_row(vec![
            format!("N={batch}, {scheme} GPUs/sample ({world} GPUs)"),
            time(true, true),
            time(false, true),
            time(true, false),
            time(false, false),
        ]);
    }
    t
}

/// All extension tables.
pub fn extensions(platform: &Platform) -> Vec<Table> {
    vec![memory_table(), overlap_ablation_table(platform)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_ablation_shows_monotone_costs() {
        // Disabling an overlap can only increase modeled time; both
        // disabled is the worst.
        let t = overlap_ablation_table(&Platform::lassen_like());
        let parse = |s: &str| s.trim_end_matches('s').parse::<f64>().unwrap();
        for row in &t.rows {
            let both = parse(&row[1]);
            let no_halo = parse(&row[2]);
            let no_ar = parse(&row[3]);
            let neither = parse(&row[4]);
            assert!(no_halo >= both && no_ar >= both, "overlaps must not hurt: {row:?}");
            assert!(neither >= no_halo.max(no_ar) * 0.999, "neither must be worst: {row:?}");
        }
    }

    #[test]
    fn memory_table_reflects_the_paper_story() {
        let t = memory_table();
        assert!(t.rows[0][1].contains("GiB"));
        // Single device exceeds a 16 GiB V100; 16-way spatial fits the
        // usable share of one.
        let v100 = fg_perf::V100_BYTES as f64 / (1u64 << 30) as f64;
        let full: f64 = t.rows[0][1].trim_end_matches(" GiB").parse().unwrap();
        let spatial16: f64 = t.rows[2][1].trim_end_matches(" GiB").parse().unwrap();
        assert!(full > 16.0, "single-device footprint must exceed a V100");
        assert!(spatial16 < v100, "16-way spatial must fit");
    }
}
