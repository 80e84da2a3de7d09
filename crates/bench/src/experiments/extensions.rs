//! Extension experiments beyond the paper's evaluation section:
//!
//! * **memory-pressure alternatives** (§VII): activation footprints
//!   under spatial parallelism vs micro-batching vs recomputation for
//!   the 2K mesh model (shape arithmetic, nothing executed);
//! * **modeled overlap ablation** (§IV-A, §V-B): the cost model with
//!   halo and allreduce overlap switched off in turn.

use fg_core::Strategy;
use fg_models::{mesh_model, MeshSize};
use fg_perf::{network_cost, CostOptions, Platform};

use crate::experiments::hybrid_grid;
use crate::table::{fmt_time, Table};

/// Memory-pressure alternatives for the 2K mesh model: bytes per sample
/// under each mechanism (§VII's comparison, made concrete).
pub fn memory_table() -> Table {
    let spec = mesh_model(MeshSize::TwoK);
    let shapes = spec.shapes();
    // Activations + error signals, one sample.
    let full: usize = shapes.iter().map(|(c, h, w)| 2 * c * h * w * 4).sum();
    let gib = |b: f64| format!("{:.1} GiB", b / (1u64 << 30) as f64);
    let mut t = Table::new(
        "Extension: memory-pressure mechanisms, 2K mesh model (per-sample training footprint)",
        &["mechanism", "footprint/device", "extra cost"],
    );
    t.push_row(vec![
        "single device (infeasible on 16 GiB V100)".into(),
        gib(full as f64),
        "-".into(),
    ]);
    for k in [4usize, 16] {
        t.push_row(vec![
            format!("{k}-way spatial parallelism"),
            gib(full as f64 / k as f64),
            "halo exchanges".into(),
        ]);
    }
    // Micro-batching cannot go below one sample — it does NOT help here
    // (the paper's point: "not viable for very large samples").
    t.push_row(vec![
        "micro-batching (1 sample)".into(),
        gib(full as f64),
        "no help below 1 sample".into(),
    ]);
    // Checkpointing every block boundary: ~1/6 of activations live +
    // recompute. (Line network: segment = layers per block ≈ len/6.)
    let seg = spec.len() / 6;
    let live: usize = shapes.iter().take(seg).map(|(c, h, w)| 2 * c * h * w * 4).sum::<usize>()
        + shapes.iter().step_by(seg).map(|(c, h, w)| c * h * w * 4).sum::<usize>();
    t.push_row(vec![
        "recomputation (per-block checkpoints)".into(),
        gib(live as f64),
        "~2x forward compute".into(),
    ]);
    t
}

/// Modeled overlap ablations (§IV-A, §V-B): the same configurations
/// with each overlap mechanism disabled, quantifying what hiding halo
/// exchanges and allreduces buys. (The executed counterparts are the
/// Criterion `ablate_*` benches.)
pub fn overlap_ablation_table(platform: &Platform) -> Table {
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
        // 16-way spatial fits a 16 GiB device; single device does not.
        let full: f64 = t.rows[0][1].trim_end_matches(" GiB").parse().unwrap();
        let spatial16: f64 = t.rows[2][1].trim_end_matches(" GiB").parse().unwrap();
        assert!(full > 16.0, "single-device footprint must exceed a V100");
        assert!(spatial16 < 16.0, "16-way spatial must fit");
    }
}
