//! SGD with momentum and weight decay.
//!
//! In the paper's setting the optimizer runs redundantly on every rank
//! after the gradient allreduce ("SGD can proceed independently on each
//! processor", §III-A); the update must therefore be deterministic given
//! identical gradients, which this plain implementation is.
//!
//! The update is in place: one fused loop per parameter slice reads `g`
//! and rewrites `v` and `p` where they live, so a step touches each of
//! the three vectors once and allocates nothing. That is bit-neutral
//! against updating all of `v` first and all of `p` after it, because
//! element `i` of `v` and `p` depends on element `i` alone and its two
//! expressions — `v = μ·v + g + λ·p`, then `p += (−η)·v` — are evaluated
//! in that order, in `f32`, without `mul_add`.

use crate::layer::LayerParams;
use fg_tensor::Shape4;

/// Stochastic gradient descent with classical momentum:
///
/// `v ← μ·v + (g + λ·p)`, `p ← p − η·v`.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate η.
    pub lr: f32,
    /// Momentum μ.
    pub momentum: f32,
    /// Weight decay λ (L2).
    pub weight_decay: f32,
    velocity: Vec<LayerParams>,
}

impl Sgd {
    /// Create an optimizer with velocity buffers shaped like `params`.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32, params: &[LayerParams]) -> Self {
        Sgd {
            lr,
            momentum,
            weight_decay,
            velocity: params.iter().map(|p| p.zeros_like()).collect(),
        }
    }

    /// Reconstruct an optimizer from checkpointed state: hyperparameters
    /// plus the saved velocity buffers. The inverse of snapshotting
    /// [`Sgd::velocity`], used by checkpoint restore; an optimizer
    /// rebuilt this way continues bitwise-identically to one that never
    /// stopped.
    pub fn with_state(
        lr: f32,
        momentum: f32,
        weight_decay: f32,
        velocity: Vec<LayerParams>,
    ) -> Self {
        Sgd { lr, momentum, weight_decay, velocity }
    }

    /// The per-layer velocity buffers (checkpointing reads these).
    pub fn velocity(&self) -> &[LayerParams] {
        &self.velocity
    }

    /// Apply one update step.
    ///
    /// # Panics
    /// When `grads` or the velocity differs in structure from `params`
    /// at some layer (another variant, a weight tensor of another shape, a
    /// slice of another length); the message names the layer and the
    /// three structures.
    pub fn step(&mut self, params: &mut [LayerParams], grads: &[LayerParams]) {
        assert_eq!(params.len(), grads.len(), "params/grads length mismatch");
        assert_eq!(params.len(), self.velocity.len(), "optimizer bound to different network");
        let (mu, lambda, neg_lr) = (self.momentum, self.weight_decay, -self.lr);
        for (layer, ((p, g), v)) in params.iter_mut().zip(grads).zip(&mut self.velocity).enumerate()
        {
            let (sp, sg, sv) = (structure(p), structure(g), structure(v));
            assert!(
                sp == sg && sp == sv,
                "layer {layer}: parameter structure mismatch: params {sp:?}, grads {sg:?}, \
                 velocity {sv:?}"
            );
            for ((p, g), v) in p.slices_mut().into_iter().zip(g.slices()).zip(v.slices_mut()) {
                let (Some(p), Some(g), Some(v)) = (p, g, v) else { continue };
                for ((p, g), v) in p.iter_mut().zip(g).zip(v) {
                    *v = mu * *v + *g + lambda * *p;
                    *p += neg_lr * *v;
                }
            }
        }
    }
}

/// What two [`LayerParams`] must share to be updated against each other:
/// the variant, the weight tensor's shape and the length of each slice.
fn structure(p: &LayerParams) -> (&'static str, Option<Shape4>, [Option<usize>; 2]) {
    let (variant, w_shape) = match p {
        LayerParams::None => ("None", None),
        LayerParams::Conv { w, .. } => ("Conv", Some(w.shape())),
        LayerParams::Bn { .. } => ("Bn", None),
        LayerParams::Fc { w, .. } => ("Fc", Some(w.shape())),
    };
    (variant, w_shape, p.slices().map(|s| s.map(<[f32]>::len)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_tensor::Tensor;

    fn one_param(v: f32) -> Vec<LayerParams> {
        vec![LayerParams::Conv { w: Tensor::full(Shape4::new(1, 1, 1, 1), v) }]
    }

    fn value(p: &[LayerParams]) -> f32 {
        p[0].to_flat()[0]
    }

    #[test]
    fn plain_sgd_descends_quadratic() {
        // f(w) = w², g = 2w; minimizes to 0.
        let mut p = one_param(1.0);
        let mut opt = Sgd::new(0.1, 0.0, 0.0, &p);
        for _ in 0..50 {
            let g = one_param(2.0 * value(&p));
            opt.step(&mut p, &g);
        }
        assert!(value(&p).abs() < 1e-4);
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let mut p = one_param(0.0);
        let mut opt = Sgd::new(1.0, 0.5, 0.0, &p);
        let g = one_param(1.0);
        opt.step(&mut p, &g);
        assert_eq!(value(&p), -1.0); // v=1
        opt.step(&mut p, &g);
        assert_eq!(value(&p), -2.5); // v=1.5
        opt.step(&mut p, &g);
        assert_eq!(value(&p), -4.25); // v=1.75
    }

    #[test]
    fn weight_decay_shrinks_params_without_gradient() {
        let mut p = one_param(1.0);
        let mut opt = Sgd::new(0.1, 0.0, 0.5, &p);
        let g = one_param(0.0);
        opt.step(&mut p, &g);
        assert!((value(&p) - 0.95).abs() < 1e-6);
    }

    #[test]
    fn empty_params_are_skipped() {
        let mut p = vec![LayerParams::None];
        let g = vec![LayerParams::None];
        let mut opt = Sgd::new(0.1, 0.9, 0.1, &p);
        opt.step(&mut p, &g); // must not panic
    }

    /// The update as it was before it ran in place: copy `v`, `g` and `p`
    /// out, rewrite all of `v`, copy it back, then one more pass over
    /// `p`. Kept as the reference the in-place step must equal bit for
    /// bit.
    fn three_copy_step(
        (lr, momentum, weight_decay): (f32, f32, f32),
        velocity: &mut [LayerParams],
        params: &mut [LayerParams],
        grads: &[LayerParams],
    ) {
        for ((p, g), v) in params.iter_mut().zip(grads).zip(velocity) {
            let mut vf = v.to_flat();
            let gf = g.to_flat();
            let pf = p.to_flat();
            for i in 0..vf.len() {
                vf[i] = momentum * vf[i] + gf[i] + weight_decay * pf[i];
            }
            v.assign_flat(&vf);
            p.add_scaled(v, -lr);
        }
    }

    /// Every `LayerParams` variant, filled from a small generator whose
    /// values make rounding order visible (mixed magnitudes and signs).
    fn every_variant(seed: u32) -> Vec<LayerParams> {
        let mut state = seed.wrapping_mul(2_654_435_761).wrapping_add(12345);
        let mut draw = move || {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let unit = (state >> 8) as f32 / (1u32 << 24) as f32 - 0.5;
            unit * [1e-3, 1.0, 37.0][(state % 3) as usize]
        };
        let mut tensor =
            |shape: Shape4| Tensor::from_vec(shape, (0..shape.len()).map(|_| draw()).collect());
        let conv = tensor(Shape4::new(5, 3, 3, 3));
        let conv1x1 = tensor(Shape4::new(2, 3, 1, 1));
        let fc = tensor(Shape4::new(4, 7, 1, 1));
        let mut vec = |n: usize| (0..n).map(|_| draw()).collect::<Vec<f32>>();
        vec![
            LayerParams::Conv { w: conv },
            LayerParams::None,
            LayerParams::Conv { w: conv1x1 },
            LayerParams::Bn { gamma: vec(6), beta: vec(6) },
            LayerParams::Fc { w: fc, b: vec(4) },
        ]
    }

    fn bits(p: &[LayerParams]) -> Vec<Vec<u32>> {
        p.iter().map(|p| p.to_flat().iter().map(|x| x.to_bits()).collect()).collect()
    }

    #[test]
    fn in_place_step_equals_three_copy_reference_bitwise() {
        for momentum in [0.0, 0.9] {
            for weight_decay in [0.0, 1e-4] {
                let lr = 0.05;
                let mut p = every_variant(1);
                let mut p_ref = p.clone();
                let mut opt = Sgd::new(lr, momentum, weight_decay, &p);
                let mut v_ref: Vec<LayerParams> = p.iter().map(|p| p.zeros_like()).collect();
                for step in 0..10 {
                    if step == 5 {
                        // A checkpoint restore in the middle of the run.
                        opt = Sgd::with_state(lr, momentum, weight_decay, opt.velocity().to_vec());
                    }
                    let g = every_variant(100 + step);
                    opt.step(&mut p, &g);
                    three_copy_step((lr, momentum, weight_decay), &mut v_ref, &mut p_ref, &g);
                    let at = format!("μ={momentum} λ={weight_decay} step {step}");
                    assert_eq!(bits(&p), bits(&p_ref), "parameters diverge at {at}");
                    assert_eq!(bits(opt.velocity()), bits(&v_ref), "velocity diverges at {at}");
                }
            }
        }
    }

    fn step_against(grads: Vec<LayerParams>) {
        let mut p = every_variant(1);
        let mut opt = Sgd::new(0.1, 0.9, 1e-4, &p);
        opt.step(&mut p, &grads);
    }

    #[test]
    #[should_panic(expected = "layer 0: parameter structure mismatch: params (\"Conv\"")]
    fn step_rejects_a_gradient_of_another_variant() {
        let mut g = every_variant(2);
        g[0] = LayerParams::Bn { gamma: vec![0.0; 130], beta: vec![0.0; 5] };
        step_against(g);
    }

    #[test]
    #[should_panic(expected = "layer 3: parameter structure mismatch")]
    fn step_rejects_a_slice_of_another_length() {
        let mut g = every_variant(2);
        // Same total length, split differently between γ and β.
        g[3] = LayerParams::Bn { gamma: vec![0.0; 7], beta: vec![0.0; 5] };
        step_against(g);
    }

    #[test]
    #[should_panic(expected = "layer 4: parameter structure mismatch")]
    fn step_rejects_a_restored_velocity_of_another_shape() {
        let mut p = every_variant(1);
        let mut v: Vec<LayerParams> = p.iter().map(|p| p.zeros_like()).collect();
        v[4] = LayerParams::Fc { w: Tensor::zeros(Shape4::new(7, 4, 1, 1)), b: vec![0.0; 4] };
        let mut opt = Sgd::with_state(0.1, 0.9, 0.0, v);
        opt.step(&mut p, &every_variant(2));
    }
}
