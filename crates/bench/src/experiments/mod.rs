//! Experiment implementations, one module per paper artifact.
//!
//! | module | paper artifact |
//! |---|---|
//! | [`microbench`] | Fig. 2 (ResNet-50 layers), Fig. 3 (2K mesh layers) |
//! | [`scaling`] | Table I, Table II (mesh strong scaling), Fig. 4 (weak scaling) |
//! | [`resnet`] | Table III (ResNet-50 strong scaling) |
//! | [`modelval`] | §VI-B3 model validation |
//! | [`strategy`] | §V-C strategy optimizer demonstration |
//! | [`extensions`] | modeled overlap ablation, memory-footprint arithmetic |
//! | [`faults`] | fault-model overhead and checkpointed-recovery cost |
//! | [`verify`] | static schedule verification sweep (fg-verify) |
//! | [`simscale`] | Tables I–III / Fig. 4 as executed discrete-event runs |
//! | [`memscale`] | static per-rank peak-memory bounds vs world size (fg-core::mem) |
//! | [`stragglers`] | gray-failure straggler mitigation at paper scale |
//! | [`serve`] | inference serving tier: latency/goodput under load and chaos |
//! | [`ckptstore`] | durable checkpoint store: redundancy cost + recovery under storage chaos |

pub mod ckptstore;
pub mod extensions;
pub mod faults;
pub mod memscale;
pub mod microbench;
pub mod modelval;
pub mod resnet;
pub mod scaling;
pub mod serve;
pub mod simscale;
pub mod stragglers;
pub mod strategy;
pub mod verify;

use fg_models::{mesh_model, mesh_model_custom, resnet50, MeshSize};
use fg_nn::{init_params, GuardState, NetworkSpec, TrainState};
use fg_tensor::ProcGrid;

/// Lassen's size in the paper's experiments.
pub const MAX_WORLD: usize = 2048;

/// The paper's spatial decompositions for k GPUs/sample: near-square
/// `ph × pw` factorizations.
pub fn spatial_split(k: usize) -> (usize, usize) {
    match k {
        1 => (1, 1),
        2 => (2, 1),
        4 => (2, 2),
        8 => (4, 2),
        16 => (4, 4),
        _ => {
            // General: near-square split with powers of two.
            let ph = 1 << (k.trailing_zeros() / 2 + k.trailing_zeros() % 2);
            (ph, k / ph)
        }
    }
}

/// The paper model a sweep row names: `mesh-1K`, `mesh-2K` or
/// `ResNet-50`.
fn model_spec(model: &str) -> NetworkSpec {
    match model {
        "mesh-1K" => mesh_model(MeshSize::OneK),
        "mesh-2K" => mesh_model(MeshSize::TwoK),
        "ResNet-50" => resnet50(),
        other => panic!("unknown model {other}"),
    }
}

/// Input side of the scaled mesh model `serve` boots and `ckptstore`
/// stores: full depth and schedule, 64×64 inputs, widths ÷32 — a
/// checkpoint payload of about 100 KB.
const SCALED_MESH_HW: usize = 64;

/// The scaled mesh model and its `TrainState` at step 100, velocity
/// included.
fn scaled_mesh_state() -> (NetworkSpec, TrainState) {
    let spec = mesh_model_custom(MeshSize::OneK, SCALED_MESH_HW, 32);
    let params = init_params(&spec, 4242);
    let velocity = params.iter().map(|p| p.zeros_like()).collect();
    let losses = vec![0.3; 100];
    let state = TrainState { step: 100, params, velocity, losses, guard: GuardState::default() };
    (spec, state)
}

/// Hybrid grid: `groups` sample groups, each `k` GPUs/sample.
pub fn hybrid_grid(groups: usize, k: usize) -> ProcGrid {
    let (ph, pw) = spatial_split(k);
    ProcGrid::hybrid(groups, ph, pw)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spatial_splits_match_paper_configurations() {
        assert_eq!(spatial_split(1), (1, 1));
        assert_eq!(spatial_split(2), (2, 1));
        assert_eq!(spatial_split(4), (2, 2));
        assert_eq!(spatial_split(8), (4, 2));
        assert_eq!(spatial_split(16), (4, 4));
    }

    #[test]
    fn hybrid_grid_sizes() {
        assert_eq!(hybrid_grid(4, 4).size(), 16);
        assert_eq!(hybrid_grid(128, 16).size(), 2048);
        assert_eq!(hybrid_grid(8, 1), ProcGrid::sample(8));
    }
}
