//! Per-rank memory accounting for parallel execution strategies.
//!
//! §V's strategy system works "accounting for memory requirements" —
//! the constraint that motivates the whole paper: a 2K mesh sample's
//! activations exceed a 16 GB V100, so feasible strategies *must*
//! decompose spatially. This module estimates the training-time memory
//! footprint of each rank under a strategy — activations, error
//! signals, halo margins, replicated weights, gradients, and optimizer
//! state — and exposes the predicate the optimizer uses to reject
//! plans that don't fit.

use fg_core::Strategy;
use fg_nn::{LayerKind, NetworkSpec};
use fg_tensor::ProcGrid;

/// Bytes per f32 element.
const ELT: usize = 4;

/// Per-rank bytes to hold one layer's output activation *and* its error
/// signal under `grid` (worst rank, ceil-divided blocks), plus a halo
/// margin allowance for conv layers.
pub fn layer_activation_bytes(
    batch: usize,
    shape: (usize, usize, usize),
    grid: ProcGrid,
    halo_depth: usize,
) -> usize {
    let (c, h, w) = shape;
    let n_loc = batch.div_ceil(grid.n);
    // Per-sample (1×1) activations are replicated, not sharded.
    let (h_loc, w_loc) = if h == 1 && w == 1 {
        (1, 1)
    } else {
        (h.div_ceil(grid.h) + 2 * halo_depth, w.div_ceil(grid.w) + 2 * halo_depth)
    };
    // Activation + error signal.
    2 * n_loc * c * h_loc * w_loc * ELT
}

/// Per-rank parameter bytes of a layer: weights + gradient + momentum
/// (3×), replicated in the executor's scheme.
pub fn layer_param_bytes(spec: &NetworkSpec, id: usize) -> usize {
    3 * spec.layer_param_elems(id) * ELT
}

/// Peak per-rank training memory of a network under a strategy.
pub fn strategy_memory_bytes(spec: &NetworkSpec, batch: usize, strategy: &Strategy) -> usize {
    let shapes = spec.shapes();
    let mut total = 0usize;
    for (id, l) in spec.layers().iter().enumerate() {
        let halo = match &l.kind {
            LayerKind::Conv { kernel, .. } | LayerKind::Pool { kernel, .. } => kernel / 2,
            _ => 0,
        };
        total += layer_activation_bytes(batch, shapes[id], strategy.grids[id], halo);
        total += layer_param_bytes(spec, id);
    }
    total
}

/// Does the strategy fit in `bytes_per_rank` of device memory?
pub fn strategy_fits(
    spec: &NetworkSpec,
    batch: usize,
    strategy: &Strategy,
    bytes_per_rank: usize,
) -> bool {
    strategy_memory_bytes(spec, batch, strategy) <= bytes_per_rank
}

/// A V100's usable memory (16 GB part, minus framework overhead).
pub const V100_BYTES: usize = 15 * (1 << 30);

#[cfg(test)]
mod tests {
    use super::*;
    use fg_models::{mesh_model, MeshSize};
    use fg_tensor::ProcGrid;

    #[test]
    fn the_papers_memory_motivation_holds_quantitatively() {
        // "The model for the 2K mesh data is large enough … to exceed
        // GPU memory when training with even one sample" — and spatial
        // parallelism fixes it.
        let spec = mesh_model(MeshSize::TwoK);
        let single = Strategy::uniform(&spec, ProcGrid::sample(1));
        assert!(
            !strategy_fits(&spec, 1, &single, V100_BYTES),
            "one 2K sample must NOT fit a single V100"
        );
        let four_way = Strategy::uniform(&spec, ProcGrid::spatial(2, 2));
        assert!(
            strategy_fits(&spec, 1, &four_way, V100_BYTES),
            "4-way spatial decomposition must fit"
        );
    }

    #[test]
    fn the_1k_model_fits_one_sample_per_gpu() {
        // Table I's baseline (1 GPU/sample) exists, so one 1K sample must
        // fit. The paper says two do not; our optimistic model
        // (activations + error signals + parameters only — no cuDNN
        // workspace, no communication buffers, no fragmentation) puts one
        // sample at ~3.8 GiB, so the boundary the paper observed sits in
        // the unmodeled overheads. We pin the robust ends: one sample
        // fits comfortably, five clearly do not.
        let spec = mesh_model(MeshSize::OneK);
        let one = Strategy::uniform(&spec, ProcGrid::sample(1));
        assert!(strategy_fits(&spec, 1, &one, V100_BYTES), "one 1K sample fits");
        assert!(!strategy_fits(&spec, 5, &one, V100_BYTES), "five 1K samples must not fit");
    }

    #[test]
    fn memory_scales_down_with_spatial_decomposition() {
        let spec = mesh_model(MeshSize::TwoK);
        let m1 = strategy_memory_bytes(&spec, 1, &Strategy::uniform(&spec, ProcGrid::sample(1)));
        let m4 =
            strategy_memory_bytes(&spec, 1, &Strategy::uniform(&spec, ProcGrid::spatial(2, 2)));
        let m16 =
            strategy_memory_bytes(&spec, 1, &Strategy::uniform(&spec, ProcGrid::spatial(4, 4)));
        assert!(m4 < m1 / 3, "4-way should cut memory ~4x: {m1} → {m4}");
        assert!(m16 < m4 / 3, "16-way should keep cutting: {m4} → {m16}");
    }

    #[test]
    fn sample_parallelism_does_not_reduce_per_sample_memory() {
        // The paper's point: "data-parallel scaling cannot reduce memory
        // usage beyond what is required for a single sample."
        let spec = mesh_model(MeshSize::TwoK);
        let m_1gpu =
            strategy_memory_bytes(&spec, 1, &Strategy::uniform(&spec, ProcGrid::sample(1)));
        let m_8gpu =
            strategy_memory_bytes(&spec, 8, &Strategy::uniform(&spec, ProcGrid::sample(8)));
        // 8 samples over 8 ranks: same per-rank footprint as 1 over 1.
        assert_eq!(m_1gpu, m_8gpu);
    }
}
