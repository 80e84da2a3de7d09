//! Layer specifications and their parameters.
//!
//! Networks are described *declaratively* as a DAG of [`LayerSpec`]s.
//! The same spec drives four consumers: the serial executor in this
//! crate, the distributed executor in `fg-core`, the performance model
//! in `fg-perf`, and the strategy optimizer. Keeping the description
//! separate from execution state is what lets the optimizer reason about
//! a network without instantiating it.

use fg_kernels::pool::PoolKind;
use fg_tensor::Tensor;

/// The operator a layer applies.
#[derive(Debug, Clone, PartialEq)]
pub enum LayerKind {
    /// Network input: per-sample shape `(channels, height, width)`.
    Input {
        /// Channels per sample.
        channels: usize,
        /// Sample height.
        height: usize,
        /// Sample width.
        width: usize,
    },
    /// 2-D convolution with square kernel, symmetric padding, and no
    /// bias (the conv+BN idiom: the batch norm's β does the bias's work).
    Conv {
        /// Number of filters (output channels).
        filters: usize,
        /// Kernel size K (odd in the paper's formulation).
        kernel: usize,
        /// Stride S.
        stride: usize,
        /// Padding P.
        pad: usize,
    },
    /// 2-D pooling.
    Pool {
        /// Always [`PoolKind::Max`]; the field stays because the
        /// benchmark's kernel replay reads it.
        kind: PoolKind,
        /// Window size.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Padding.
        pad: usize,
    },
    /// Batch normalization over (N, H, W) per channel.
    BatchNorm,
    /// Rectified linear unit.
    Relu,
    /// Elementwise sum of all parents (residual join).
    Add,
    /// Global average pooling to 1×1.
    GlobalAvgPool,
    /// Fully-connected layer on flattened input.
    Fc {
        /// Output features.
        out_features: usize,
    },
    /// Fused softmax + cross-entropy loss head (over channels at each
    /// spatial position; per-pixel segmentation when H,W > 1).
    SoftmaxCrossEntropy,
}

/// One node of the network DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSpec {
    /// Human-readable unique name (e.g. `res3b_branch2a`).
    pub name: String,
    /// Operator.
    pub kind: LayerKind,
    /// Indices of parent layers (earlier in the list).
    pub parents: Vec<usize>,
}

/// Learnable parameters (and their gradients) of one layer.
#[derive(Debug, Clone, PartialEq)]
pub enum LayerParams {
    /// No parameters.
    None,
    /// Convolution parameters.
    Conv {
        /// Weights `(F, C, K, K)`.
        w: Tensor,
    },
    /// Batch-norm affine parameters, length C.
    Bn {
        /// Scale γ.
        gamma: Vec<f32>,
        /// Shift β.
        beta: Vec<f32>,
    },
    /// Fully-connected parameters.
    Fc {
        /// Weights `(out_features, in_features, 1, 1)`.
        w: Tensor,
        /// Bias, length `out_features`.
        b: Vec<f32>,
    },
}

impl LayerParams {
    /// Total scalar parameter count.
    pub fn len(&self) -> usize {
        match self {
            LayerParams::None => 0,
            LayerParams::Conv { w } => w.len(),
            LayerParams::Bn { gamma, beta } => gamma.len() + beta.len(),
            LayerParams::Fc { w, b } => w.len() + b.len(),
        }
    }

    /// True when the layer has no parameters.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The parameter slices in [`LayerParams::to_flat`] order — weights
    /// (or γ), then bias (or β) — borrowed in place; `None` where the
    /// variant has no such slice.
    pub(crate) fn slices(&self) -> [Option<&[f32]>; 2] {
        match self {
            LayerParams::None => [None, None],
            LayerParams::Conv { w } => [Some(w.as_slice()), None],
            LayerParams::Bn { gamma, beta } => [Some(gamma), Some(beta)],
            LayerParams::Fc { w, b } => [Some(w.as_slice()), Some(b)],
        }
    }

    /// [`LayerParams::slices`], mutably.
    pub(crate) fn slices_mut(&mut self) -> [Option<&mut [f32]>; 2] {
        match self {
            LayerParams::None => [None, None],
            LayerParams::Conv { w } => [Some(w.as_mut_slice()), None],
            LayerParams::Bn { gamma, beta } => [Some(gamma), Some(beta)],
            LayerParams::Fc { w, b } => [Some(w.as_mut_slice()), Some(b)],
        }
    }

    /// Flatten parameters into a single vector (allreduce-friendly).
    pub fn to_flat(&self) -> Vec<f32> {
        match self {
            LayerParams::None => Vec::new(),
            LayerParams::Conv { w } => w.as_slice().to_vec(),
            LayerParams::Bn { gamma, beta } => {
                let mut v = gamma.clone();
                v.extend_from_slice(beta);
                v
            }
            LayerParams::Fc { w, b } => {
                let mut v = w.as_slice().to_vec();
                v.extend_from_slice(b);
                v
            }
        }
    }

    /// Overwrite from a flat vector produced by a structurally identical
    /// [`LayerParams::to_flat`].
    pub fn assign_flat(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.len(), "flat parameter length mismatch");
        match self {
            LayerParams::None => {}
            LayerParams::Conv { w } => w.as_mut_slice().copy_from_slice(flat),
            LayerParams::Bn { gamma, beta } => {
                let ng = gamma.len();
                gamma.copy_from_slice(&flat[..ng]);
                beta.copy_from_slice(&flat[ng..]);
            }
            LayerParams::Fc { w, b } => {
                let nw = w.len();
                w.as_mut_slice().copy_from_slice(&flat[..nw]);
                b.copy_from_slice(&flat[nw..]);
            }
        }
    }

    /// `self += scale · other` over all parameters.
    pub fn add_scaled(&mut self, other: &LayerParams, scale: f32) {
        match (self, other) {
            (LayerParams::None, LayerParams::None) => {}
            (LayerParams::Conv { w }, LayerParams::Conv { w: ow }) => w.add_scaled(ow, scale),
            (LayerParams::Bn { gamma, beta }, LayerParams::Bn { gamma: og, beta: ob }) => {
                for (x, y) in gamma.iter_mut().zip(og) {
                    *x += scale * y;
                }
                for (x, y) in beta.iter_mut().zip(ob) {
                    *x += scale * y;
                }
            }
            (LayerParams::Fc { w, b }, LayerParams::Fc { w: ow, b: ob }) => {
                w.add_scaled(ow, scale);
                for (x, y) in b.iter_mut().zip(ob) {
                    *x += scale * y;
                }
            }
            _ => panic!("parameter structure mismatch in add_scaled"),
        }
    }

    /// Squared L2 norm of all parameters, accumulated in f64 — the
    /// gradient-norm screen of the numerical-anomaly guard. NaN/Inf in
    /// any element makes the result non-finite, so a single poisoned
    /// gradient entry is always visible in the scalar.
    pub fn l2_sq(&self) -> f64 {
        fn slice_l2(v: &[f32]) -> f64 {
            v.iter().map(|&x| x as f64 * x as f64).sum()
        }
        match self {
            LayerParams::None => 0.0,
            LayerParams::Conv { w } => slice_l2(w.as_slice()),
            LayerParams::Bn { gamma, beta } => slice_l2(gamma) + slice_l2(beta),
            LayerParams::Fc { w, b } => slice_l2(w.as_slice()) + slice_l2(b),
        }
    }

    /// A zero-valued clone with the same structure (gradient buffer).
    pub fn zeros_like(&self) -> LayerParams {
        match self {
            LayerParams::None => LayerParams::None,
            LayerParams::Conv { w } => LayerParams::Conv { w: Tensor::zeros(w.shape()) },
            LayerParams::Bn { gamma, beta } => {
                LayerParams::Bn { gamma: vec![0.0; gamma.len()], beta: vec![0.0; beta.len()] }
            }
            LayerParams::Fc { w, b } => {
                LayerParams::Fc { w: Tensor::zeros(w.shape()), b: vec![0.0; b.len()] }
            }
        }
    }
}

/// Per-sample output shape of a layer given its parents' per-sample
/// shapes `(C, H, W)`. Panics on arity or shape errors — these are
/// network construction bugs.
pub fn infer_shape(kind: &LayerKind, parents: &[(usize, usize, usize)]) -> (usize, usize, usize) {
    match kind {
        LayerKind::Input { channels, height, width } => {
            assert!(parents.is_empty(), "input layer cannot have parents");
            (*channels, *height, *width)
        }
        LayerKind::Conv { filters, kernel, stride, pad, .. } => {
            let (_, h, w) = one_parent(parents);
            (*filters, (h + 2 * pad - kernel) / stride + 1, (w + 2 * pad - kernel) / stride + 1)
        }
        LayerKind::Pool { kernel, stride, pad, .. } => {
            let (c, h, w) = one_parent(parents);
            (c, (h + 2 * pad - kernel) / stride + 1, (w + 2 * pad - kernel) / stride + 1)
        }
        LayerKind::BatchNorm | LayerKind::Relu | LayerKind::SoftmaxCrossEntropy => {
            one_parent(parents)
        }
        LayerKind::Add => {
            assert!(parents.len() >= 2, "Add needs at least two parents");
            let first = parents[0];
            assert!(parents.iter().all(|p| *p == first), "Add parents must have equal shapes");
            first
        }
        LayerKind::GlobalAvgPool => {
            let (c, _, _) = one_parent(parents);
            (c, 1, 1)
        }
        LayerKind::Fc { out_features } => {
            let _ = one_parent(parents);
            (*out_features, 1, 1)
        }
    }
}

fn one_parent(parents: &[(usize, usize, usize)]) -> (usize, usize, usize) {
    assert_eq!(parents.len(), 1, "layer expects exactly one parent");
    parents[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_tensor::Shape4;

    #[test]
    fn shape_inference_conv_pool() {
        // ResNet conv1: 224 → 112 with K=7 S=2 P=3.
        let s = infer_shape(
            &LayerKind::Conv { filters: 64, kernel: 7, stride: 2, pad: 3 },
            &[(3, 224, 224)],
        );
        assert_eq!(s, (64, 112, 112));
        // Following 3x3 s2 p1 max pool: 112 → 56.
        let s = infer_shape(
            &LayerKind::Pool { kind: PoolKind::Max, kernel: 3, stride: 2, pad: 1 },
            &[s],
        );
        assert_eq!(s, (64, 56, 56));
    }

    #[test]
    fn shape_inference_misc() {
        assert_eq!(infer_shape(&LayerKind::Relu, &[(8, 4, 4)]), (8, 4, 4));
        assert_eq!(infer_shape(&LayerKind::Add, &[(8, 4, 4), (8, 4, 4)]), (8, 4, 4));
        assert_eq!(infer_shape(&LayerKind::GlobalAvgPool, &[(8, 4, 4)]), (8, 1, 1));
        assert_eq!(infer_shape(&LayerKind::Fc { out_features: 10 }, &[(8, 2, 2)]), (10, 1, 1));
    }

    #[test]
    #[should_panic(expected = "equal shapes")]
    fn add_rejects_mismatched_parents() {
        infer_shape(&LayerKind::Add, &[(8, 4, 4), (8, 2, 2)]);
    }

    #[test]
    fn params_flat_round_trip() {
        let mut p = LayerParams::Conv {
            w: Tensor::from_fn(Shape4::new(2, 3, 3, 3), |a, b, c, d| (a + b + c + d) as f32),
        };
        let flat = p.to_flat();
        assert_eq!(flat.len(), p.len());
        let mut q = p.zeros_like();
        q.assign_flat(&flat);
        assert_eq!(q, p);
        p.add_scaled(&q, -1.0);
        assert!(p.to_flat().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn l2_sq_sums_all_fields_and_exposes_poison() {
        let p = LayerParams::Bn { gamma: vec![3.0, 4.0], beta: vec![12.0] };
        assert_eq!(p.l2_sq(), 9.0 + 16.0 + 144.0);
        assert_eq!(LayerParams::None.l2_sq(), 0.0);
        let fc = LayerParams::Fc {
            w: Tensor::from_fn(Shape4::new(2, 2, 1, 1), |_, _, _, _| 1.0),
            b: vec![2.0],
        };
        assert_eq!(fc.l2_sq(), 4.0 + 4.0);
        // One NaN anywhere poisons the scalar — the guard's screen.
        let bad = LayerParams::Bn { gamma: vec![1.0, f32::NAN], beta: vec![1.0] };
        assert!(!bad.l2_sq().is_finite());
        let inf = LayerParams::Bn { gamma: vec![1.0, f32::INFINITY], beta: vec![1.0] };
        assert!(!inf.l2_sq().is_finite());
    }

    #[test]
    fn bn_params_round_trip() {
        let p = LayerParams::Bn { gamma: vec![1.0, 2.0], beta: vec![3.0, 4.0] };
        assert_eq!(p.to_flat(), vec![1.0, 2.0, 3.0, 4.0]);
        let mut q = p.zeros_like();
        q.assign_flat(&[5.0, 6.0, 7.0, 8.0]);
        assert_eq!(q, LayerParams::Bn { gamma: vec![5.0, 6.0], beta: vec![7.0, 8.0] });
    }
}
