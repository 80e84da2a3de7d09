//! The mesh-tangling semantic-segmentation models (paper §VI).
//!
//! "The data consists of images representing a hydrodynamics simulation
//! state at a timestep, and the problem is to predict, for each pixel,
//! whether the mesh cell at that location needs to be relaxed to prevent
//! tangling." Inputs are 1024² (1K) or 2048² (2K) with 18 channels; the
//! model is "a very simple fully-convolutional model adapted from VGGNet
//! … six blocks of either three (1K) or five (2K)
//! convolution–batch-normalization–ReLU operations, using 3×3
//! convolutional filters, and a final convolutional layer for
//! prediction. Downsampling is performed via stride-2 convolution at the
//! first convolutional filter of each block."
//!
//! The exact channel schedule is not published; ours is pinned by the
//! two layers the paper does specify (Fig. 3):
//! `conv1_1: C=18 F=128 K=5 P=2 S=2` and
//! `conv6_1: C=384 H=64 W=64 F=128 K=3 P=1 S=2` (for the 2K model),
//! giving blocks of 128, 192, 256, 320, 384, 128 filters. Prediction is
//! a 1×1 convolution to 2 classes (relax / keep) at the final feature
//! resolution.

use fg_nn::NetworkSpec;

/// Mesh-tangling dataset variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeshSize {
    /// 1024×1024 inputs, 3 convs per block.
    OneK,
    /// 2048×2048 inputs, 5 convs per block.
    TwoK,
}

impl MeshSize {
    /// Input image extent.
    pub fn input_hw(&self) -> usize {
        match self {
            MeshSize::OneK => 1024,
            MeshSize::TwoK => 2048,
        }
    }

    /// Convolutions per block.
    fn convs_per_block(&self) -> usize {
        match self {
            MeshSize::OneK => 3,
            MeshSize::TwoK => 5,
        }
    }
}

/// Input channel count (state variables + mesh quality metrics).
pub const MESH_CHANNELS: usize = 18;
/// Output classes (needs relaxation / does not).
const MESH_CLASSES: usize = 2;
/// Filter schedule per block, pinned by the published `conv1_1` and
/// `conv6_1` shapes.
const BLOCK_FILTERS: [usize; 6] = [128, 192, 256, 320, 384, 128];

/// Build the mesh model at the paper's full resolution.
pub fn mesh_model(size: MeshSize) -> NetworkSpec {
    mesh_model_scaled(size, size.input_hw())
}

/// Build the mesh model with a scaled input extent (same depth and
/// channel schedule; used by tests and thread-sim execution, where 2048²
/// activations would be needlessly slow).
pub fn mesh_model_scaled(size: MeshSize, input_hw: usize) -> NetworkSpec {
    mesh_model_custom(size, input_hw, 1)
}

/// Build the mesh model with both a scaled input extent and channel
/// widths divided by `width_scale` (minimum 4 filters per block). Depth,
/// kernel/stride schedule and layer names are unchanged, so tests can
/// exercise the exact architecture shape at a fraction of the FLOPs.
pub fn mesh_model_custom(size: MeshSize, input_hw: usize, width_scale: usize) -> NetworkSpec {
    assert!(input_hw.is_multiple_of(64), "input must survive 6 stride-2 stages");
    assert!(width_scale >= 1);
    let mut net = NetworkSpec::new();
    let data = net.input("data", MESH_CHANNELS, input_hw, input_hw);
    let mut prev = data;
    for (block, &full_filters) in BLOCK_FILTERS.iter().enumerate() {
        let filters = (full_filters / width_scale).max(4);
        for conv_idx in 0..size.convs_per_block() {
            let name = format!("conv{}_{}", block + 1, conv_idx + 1);
            // First conv of each block downsamples; the model's very
            // first conv uses a 5×5 kernel (per Fig. 3's conv1_1).
            let (k, p, s) = match (block, conv_idx) {
                (0, 0) => (5, 2, 2),
                (_, 0) => (3, 1, 2),
                _ => (3, 1, 1),
            };
            prev = net.conv(&name, prev, filters, k, s, p);
            prev = net.batchnorm(&format!("bn{}_{}", block + 1, conv_idx + 1), prev);
            prev = net.relu(&format!("relu{}_{}", block + 1, conv_idx + 1), prev);
        }
    }
    let pred = net.conv("pred", prev, MESH_CLASSES, 1, 1, 0);
    net.loss("loss", pred);
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_nn::LayerKind;

    #[test]
    fn twok_model_matches_published_layer_shapes() {
        let net = mesh_model(MeshSize::TwoK);
        let shapes = net.shapes();
        // conv1_1: C=18 H=2048 W=2048 F=128 K=5 P=2 S=2 (Fig. 3).
        let c11 = net.find("conv1_1").unwrap();
        assert_eq!(shapes[net.layer(c11).parents[0]], (18, 2048, 2048));
        match net.layer(c11).kind {
            LayerKind::Conv { filters, kernel, stride, pad, .. } => {
                assert_eq!((filters, kernel, stride, pad), (128, 5, 2, 2));
            }
            _ => unreachable!(),
        }
        assert_eq!(shapes[c11], (128, 1024, 1024));
        // conv6_1: C=384 H=64 W=64 F=128 K=3 P=1 S=2 (Fig. 3).
        let c61 = net.find("conv6_1").unwrap();
        assert_eq!(shapes[net.layer(c61).parents[0]], (384, 64, 64));
        match net.layer(c61).kind {
            LayerKind::Conv { filters, kernel, stride, pad, .. } => {
                assert_eq!((filters, kernel, stride, pad), (128, 3, 2, 1));
            }
            _ => unreachable!(),
        }
        assert_eq!(shapes[c61], (128, 32, 32));
    }

    #[test]
    fn conv_counts_match_paper() {
        // 1K: 6 blocks × 3 + pred = 19; 2K: 6 × 5 + pred = 31.
        let count = |net: &NetworkSpec| {
            net.layers().iter().filter(|l| matches!(l.kind, LayerKind::Conv { .. })).count()
        };
        assert_eq!(count(&mesh_model(MeshSize::OneK)), 19);
        assert_eq!(count(&mesh_model(MeshSize::TwoK)), 31);
    }

    #[test]
    fn onek_resolution_chain() {
        let net = mesh_model(MeshSize::OneK);
        let shapes = net.shapes();
        assert_eq!(shapes[net.find("conv1_1").unwrap()], (128, 512, 512));
        assert_eq!(shapes[net.find("conv6_1").unwrap()], (128, 16, 16));
        assert_eq!(shapes[net.find("pred").unwrap()], (2, 16, 16));
    }

    #[test]
    fn scaled_model_trains_end_to_end() {
        use fg_kernels::loss::Labels;
        use fg_nn::Network;
        use fg_tensor::{Shape4, Tensor};
        let spec = mesh_model_scaled(MeshSize::OneK, 64);
        let net = Network::init(spec, 7);
        let x = Tensor::from_fn(Shape4::new(1, MESH_CHANNELS, 64, 64), |_, c, h, w| {
            ((c + h + w) % 5) as f32 * 0.2 - 0.4
        });
        let labels = Labels::per_pixel(1, 1, 1, vec![1]);
        let (loss, _grads) = net.loss_and_grads(&x, &labels);
        assert!(loss.is_finite() && loss > 0.0);
    }

    #[test]
    fn memory_requirement_motivates_the_paper() {
        // One 2K sample's activations exceed a V100's 16 GB — the
        // paper's core motivation ("large enough … to exceed GPU memory
        // when training with even one sample"). Sum activation sizes.
        let net = mesh_model(MeshSize::TwoK);
        let shapes = net.shapes();
        let acts: usize = shapes.iter().map(|(c, h, w)| c * h * w * 4).sum();
        // Training keeps activations until backprop AND materializes
        // error signals of the same shapes.
        let bytes = 2 * acts;
        assert!(
            bytes > 16 * (1 << 30),
            "training footprint {bytes} should exceed 16 GiB per sample"
        );
    }
}
