//! Softmax and cross-entropy, for both image classification (ResNet-50
//! on ImageNet-style labels) and per-pixel semantic segmentation (the
//! mesh-tangling model predicts, for each pixel, whether the mesh cell
//! needs relaxation — a 2-class per-pixel problem).
//!
//! The softmax runs over the channel dimension at every `(n, h, w)`
//! position, so classification is simply the `H = W = 1` case.

use fg_tensor::Tensor;

/// Numerically stable softmax over C at each `(n, h, w)` position.
fn softmax_channels(x: &Tensor) -> Tensor {
    let s = x.shape();
    let mut y = Tensor::zeros(s);
    for n in 0..s.n {
        for h in 0..s.h {
            for w in 0..s.w {
                let mut mx = f32::NEG_INFINITY;
                for c in 0..s.c {
                    mx = mx.max(x.at(n, c, h, w));
                }
                let mut z = 0.0f32;
                for c in 0..s.c {
                    let e = (x.at(n, c, h, w) - mx).exp();
                    *y.at_mut(n, c, h, w) = e;
                    z += e;
                }
                for c in 0..s.c {
                    *y.at_mut(n, c, h, w) /= z;
                }
            }
        }
    }
    y
}

/// Integer labels for a batch: `labels[(n, h, w)] ∈ 0..C`. For plain
/// classification, `h = w = 1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Labels {
    /// Samples.
    pub n: usize,
    /// Label-map height.
    pub h: usize,
    /// Label-map width.
    pub w: usize,
    /// Row-major class indices, length `n·h·w`.
    pub data: Vec<u32>,
}

impl Labels {
    /// Classification labels, one class per sample.
    pub fn per_sample(classes: Vec<u32>) -> Self {
        Labels { n: classes.len(), h: 1, w: 1, data: classes }
    }

    /// Dense per-pixel labels.
    pub fn per_pixel(n: usize, h: usize, w: usize, data: Vec<u32>) -> Self {
        assert_eq!(data.len(), n * h * w, "label map size mismatch");
        Labels { n, h, w, data }
    }

    /// Label at `(n, h, w)`.
    #[inline]
    pub fn at(&self, n: usize, h: usize, w: usize) -> u32 {
        self.data[(n * self.h + h) * self.w + w]
    }
}

/// Fused softmax + mean cross-entropy. Returns `(loss, dlogits)` where
/// the gradient is with respect to the *logits* (pre-softmax), averaged
/// over all `(n, h, w)` positions — the standard fused formulation.
pub fn softmax_cross_entropy(logits: &Tensor, labels: &Labels) -> (f64, Tensor) {
    let s = logits.shape();
    assert_eq!((labels.n, labels.h, labels.w), (s.n, s.h, s.w), "labels do not match logits");
    let probs = softmax_channels(logits);
    let positions = (s.n * s.h * s.w) as f64;
    let mut loss = 0.0f64;
    let mut grad = probs.clone();
    for n in 0..s.n {
        for h in 0..s.h {
            for w in 0..s.w {
                let t = labels.at(n, h, w) as usize;
                assert!(t < s.c, "label {t} out of range for {} classes", s.c);
                let p = probs.at(n, t, h, w).max(1e-30);
                loss -= (p as f64).ln();
                *grad.at_mut(n, t, h, w) -= 1.0;
            }
        }
    }
    grad.scale(1.0 / positions as f32);
    (loss / positions, grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_tensor::Shape4;

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::from_fn(Shape4::new(2, 3, 2, 2), |n, c, h, w| {
            (n + 2 * c + h + 3 * w) as f32 * 0.7 - 2.0
        });
        let p = softmax_channels(&x);
        for n in 0..2 {
            for h in 0..2 {
                for w in 0..2 {
                    let s: f32 = (0..3).map(|c| p.at(n, c, h, w)).sum();
                    assert!((s - 1.0).abs() < 1e-5);
                }
            }
        }
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let a = Tensor::from_vec(Shape4::new(1, 3, 1, 1), vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_vec(Shape4::new(1, 3, 1, 1), vec![1001.0, 1002.0, 1003.0]);
        let pa = softmax_channels(&a);
        let pb = softmax_channels(&b);
        pa.assert_close(&pb, 1e-5);
        assert!(pb.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn cross_entropy_of_perfect_prediction_is_small() {
        let mut x = Tensor::full(Shape4::new(2, 4, 1, 1), -20.0);
        *x.at_mut(0, 1, 0, 0) = 20.0;
        *x.at_mut(1, 3, 0, 0) = 20.0;
        let labels = Labels::per_sample(vec![1, 3]);
        let (loss, _g) = softmax_cross_entropy(&x, &labels);
        assert!(loss < 1e-6, "loss {loss}");
    }

    #[test]
    fn uniform_logits_give_log_c() {
        let x = Tensor::zeros(Shape4::new(1, 8, 1, 1));
        let labels = Labels::per_sample(vec![5]);
        let (loss, _g) = softmax_cross_entropy(&x, &labels);
        assert!((loss - (8.0f64).ln()).abs() < 1e-6);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let x = Tensor::from_fn(Shape4::new(2, 3, 2, 1), |n, c, h, _| {
            ((n * 5 + c * 3 + h * 2) % 7) as f32 * 0.4 - 1.0
        });
        let labels = Labels::per_pixel(2, 2, 1, vec![0, 2, 1, 1]);
        let (_l, g) = softmax_cross_entropy(&x, &labels);
        let eps = 1e-3f32;
        for (n, c, h) in [(0, 0, 0), (1, 2, 1), (0, 1, 1)] {
            let mut xp = x.clone();
            *xp.at_mut(n, c, h, 0) += eps;
            let mut xm = x.clone();
            *xm.at_mut(n, c, h, 0) -= eps;
            let (lp, _) = softmax_cross_entropy(&xp, &labels);
            let (lm, _) = softmax_cross_entropy(&xm, &labels);
            let fd = (lp - lm) / (2.0 * eps as f64);
            let an = g.at(n, c, h, 0) as f64;
            assert!((fd - an).abs() < 1e-4, "grad[{n},{c},{h}]: {an} vs {fd}");
        }
    }

    #[test]
    fn per_pixel_segmentation_shapes() {
        // 2-class per-pixel problem, 4x4 map.
        let x = Tensor::from_fn(
            Shape4::new(1, 2, 4, 4),
            |_, c, h, w| {
                if (h + w) % 2 == c {
                    5.0
                } else {
                    -5.0
                }
            },
        );
        let labels =
            Labels::per_pixel(1, 4, 4, (0..16).map(|i| ((i / 4 + i % 4) % 2) as u32).collect());
        let (loss, g) = softmax_cross_entropy(&x, &labels);
        assert!(loss < 1e-3);
        assert_eq!(g.shape(), x.shape());
    }
}
