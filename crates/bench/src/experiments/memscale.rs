//! `repro -- memscale` — static per-rank peak-memory bounds across the
//! paper's parallelism modes and scales.
//!
//! The paper's memory motivation (§I, §VI): "data-parallel scaling
//! cannot reduce memory usage beyond what is required for a single
//! sample", while spatial decomposition shrinks every rank's activation
//! footprint with the number of GPUs per sample. This experiment states
//! that claim with the *exact* bounds from fg-core's tensor-liveness
//! analyzer ([`fg_core::analyze_strategy`]) rather than the cost model's
//! heuristic: every buffer a rank's compiled schedule ever holds —
//! activations, error signals, halo/shuffle staging, haloed windows,
//! weights + gradients + momentum — with its live interval, walked
//! along the step schedule the executor actually runs.
//!
//! Bounds are per-rank, so the sweep reaches the DES scales (2048 and
//! 32768 ranks of Tables I–III / Fig. 4) by analyzing sampled ranks
//! without compiling the full world. A machine-readable
//! `BENCH_memory.json` (peak bytes/rank vs world size per mode) is
//! written alongside the table.

use fg_core::{analyze_strategy, sample_ranks, Strategy};
use fg_tensor::ProcGrid;

use super::{hybrid_grid, model_spec, spatial_split};
use crate::bench_file::{BenchFile, Row};
use crate::table::{fmt_bytes, Table};

/// One analyzed configuration.
pub struct MemScaleRow {
    /// Which paper artifact the configuration comes from.
    pub source: &'static str,
    /// Model display name.
    pub model: &'static str,
    /// Parallelism mode: `sample`, `spatial`, or `hybrid`.
    pub mode: &'static str,
    /// Global mini-batch size.
    pub batch: usize,
    /// GPUs per sample group.
    pub gpus_per_sample: usize,
    /// World size.
    pub world: usize,
    /// Ranks actually analyzed (all, or 5 sampled at large worlds).
    pub ranks_analyzed: usize,
    /// Max static peak over the analyzed ranks, bytes/rank.
    pub peak_bytes: usize,
    /// Whole-step-resident bytes (params + grads + momentum).
    pub persistent_bytes: usize,
    /// Analysis wall time.
    pub wall_s: f64,
}

/// Analyze one configuration.
pub fn run_config(
    source: &'static str,
    model: &'static str,
    mode: &'static str,
    batch: usize,
    gpus_per_sample: usize,
    grid: ProcGrid,
) -> MemScaleRow {
    let spec = model_spec(model);
    let strategy = Strategy::uniform(&spec, grid);
    let world = strategy.world_size();
    let ranks = sample_ranks(world);
    let report = analyze_strategy(&spec, &strategy, batch, &ranks)
        .unwrap_or_else(|e| panic!("{model} {mode} b={batch} P={world}: {e}"));
    assert!(report.is_clean(), "{model} {mode} P={world} must analyze clean:\n{report}");
    MemScaleRow {
        source,
        model,
        mode,
        batch,
        gpus_per_sample,
        world,
        ranks_analyzed: ranks.len(),
        peak_bytes: report.max_peak(),
        persistent_bytes: report.bounds.iter().map(|b| b.persistent_bytes).max().unwrap_or(0),
        wall_s: report.wall.as_secs_f64(),
    }
}

/// The configuration sweep: per model, a sample-parallel ladder (world
/// grows with the batch — the footprint must not move), a spatial
/// ladder (GPUs/sample grows — the footprint must shrink), and the
/// hybrid ladders of Tables I–III / Fig. 4 up to the 32768-rank point.
pub fn sweep() -> Vec<MemScaleRow> {
    let mut rows = Vec::new();
    for &(model, source) in &[("mesh-1K", "Table I"), ("mesh-2K", "Table II")] {
        for p in [4usize, 64, 2048] {
            rows.push(run_config(source, model, "sample", p, 1, ProcGrid::sample(p)));
        }
        for k in [4usize, 16, 64] {
            let (ph, pw) = spatial_split(k);
            rows.push(run_config(source, model, "spatial", 1, k, ProcGrid::spatial(ph, pw)));
        }
        for groups in [4usize, 128, 2048] {
            rows.push(run_config(source, model, "hybrid", groups, 16, hybrid_grid(groups, 16)));
        }
    }
    for p in [32usize, 256, 2048] {
        rows.push(run_config("Table III", "ResNet-50", "sample", p, 1, ProcGrid::sample(p)));
    }
    for k in [2usize, 4] {
        rows.push(run_config("Table III", "ResNet-50", "spatial", 32, k, hybrid_grid(1, k)));
    }
    // Table III's strong-scaling ladder: 32 samples per 2-GPU group,
    // topping out at the N = 32768 / 2048-rank column.
    for b in [2048usize, 8192, 32768] {
        rows.push(run_config("Table III", "ResNet-50", "hybrid", b, 2, hybrid_grid(b / 32, 2)));
    }
    rows
}

/// `rows` as the `BENCH_memory.json` file.
pub fn to_bench_file(rows: &[MemScaleRow]) -> BenchFile {
    let row = |r: &MemScaleRow| {
        Row::default()
            .text("source", r.source)
            .text("model", r.model)
            .text("mode", r.mode)
            .num("batch", r.batch)
            .num("gpus_per_sample", r.gpus_per_sample)
            .num("ranks", r.world)
            .num("ranks_analyzed", r.ranks_analyzed)
            .num("peak_bytes_per_rank", r.peak_bytes)
            .num("persistent_bytes", r.persistent_bytes)
            .fixed("wall_s", r.wall_s, 6)
    };
    BenchFile::Array(rows.iter().map(row).collect())
}

/// The `repro -- memscale` table; also writes `BENCH_memory.json` to
/// the working directory.
pub fn memscale_report() -> Table {
    let rows = sweep();
    to_bench_file(&rows).write("BENCH_memory.json");
    let mut t = Table::new(
        "Static per-rank peak memory vs world size (memscale)",
        &[
            "config",
            "model",
            "mode",
            "batch",
            "k",
            "ranks",
            "analyzed",
            "peak/rank",
            "persistent",
            "wall",
        ],
    );
    for r in &rows {
        t.push_row(vec![
            r.source.into(),
            r.model.into(),
            r.mode.into(),
            r.batch.to_string(),
            r.gpus_per_sample.to_string(),
            r.world.to_string(),
            r.ranks_analyzed.to_string(),
            fmt_bytes(r.peak_bytes as u64),
            fmt_bytes(r.persistent_bytes as u64),
            format!("{:.2} s", r.wall_s),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's claim, on exact bounds: growing the world through
    /// sample parallelism leaves the per-rank peak untouched; growing
    /// GPUs/sample through spatial decomposition shrinks it.
    #[test]
    fn spatial_peak_shrinks_with_p_and_sample_peak_does_not() {
        let s4 = run_config("t", "mesh-2K", "sample", 4, 1, ProcGrid::sample(4));
        let s64 = run_config("t", "mesh-2K", "sample", 64, 1, ProcGrid::sample(64));
        assert_eq!(
            s4.peak_bytes, s64.peak_bytes,
            "sample parallelism must not change the per-rank peak"
        );

        let p4 = run_config("t", "mesh-2K", "spatial", 1, 4, ProcGrid::spatial(2, 2));
        let p16 = run_config("t", "mesh-2K", "spatial", 1, 16, ProcGrid::spatial(4, 4));
        assert!(
            p16.peak_bytes * 2 < p4.peak_bytes,
            "4x the spatial ranks must shrink the peak well past half: {} -> {}",
            p4.peak_bytes,
            p16.peak_bytes
        );
    }

    /// At equal world size, a hybrid strategy's activation term is
    /// divided across its sample group while sample parallelism's is
    /// not.
    #[test]
    fn hybrid_beats_sample_at_equal_world() {
        let sample = run_config("t", "mesh-2K", "sample", 64, 1, ProcGrid::sample(64));
        let hybrid = run_config("t", "mesh-2K", "hybrid", 4, 16, hybrid_grid(4, 16));
        assert_eq!(sample.world, hybrid.world);
        assert!(
            hybrid.peak_bytes * 2 < sample.peak_bytes,
            "16 GPUs/sample must at least halve the per-rank peak: {} vs {}",
            sample.peak_bytes,
            hybrid.peak_bytes
        );
    }
}
