//! Parameter initialization.
//!
//! Kaiming-uniform fan-in initialization for conv and FC weights (the
//! standard choice for ReLU networks), identity affine for batch norm.
//! Everything is seeded, so serial and distributed runs can start from
//! bit-identical parameters — a precondition for the equivalence tests.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::graph::NetworkSpec;
use crate::layer::{LayerKind, LayerParams};
use fg_tensor::{Shape4, Tensor};

/// Initialize parameters for every layer of `spec`, deterministically
/// from `seed`.
pub fn init_params(spec: &NetworkSpec, seed: u64) -> Vec<LayerParams> {
    let mut rng = StdRng::seed_from_u64(seed);
    let shapes = spec.shapes();
    spec.layers()
        .iter()
        .enumerate()
        .map(|(id, l)| match &l.kind {
            LayerKind::Conv { filters, kernel, .. } => {
                let c_in = shapes[l.parents[0]].0;
                let fan_in = c_in * kernel * kernel;
                let w =
                    kaiming_tensor(Shape4::new(*filters, c_in, *kernel, *kernel), fan_in, &mut rng);
                LayerParams::Conv { w }
            }
            LayerKind::BatchNorm => {
                let c = shapes[id].0;
                LayerParams::Bn { gamma: vec![1.0; c], beta: vec![0.0; c] }
            }
            LayerKind::Fc { out_features } => {
                let (c, h, w) = shapes[l.parents[0]];
                let fan_in = c * h * w;
                let wt = kaiming_tensor(Shape4::new(*out_features, fan_in, 1, 1), fan_in, &mut rng);
                LayerParams::Fc { w: wt, b: vec![0.0; *out_features] }
            }
            _ => LayerParams::None,
        })
        .collect()
}

/// Kaiming-uniform tensor: `U(−√(6/fan_in), √(6/fan_in))`.
fn kaiming_tensor(shape: Shape4, fan_in: usize, rng: &mut StdRng) -> Tensor {
    let bound = (6.0f32 / fan_in as f32).sqrt();
    Tensor::from_fn(shape, |_, _, _, _| rng.gen_range(-bound..bound))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_net() -> NetworkSpec {
        let mut net = NetworkSpec::new();
        let i = net.input("x", 3, 8, 8);
        let c = net.conv("c", i, 4, 3, 1, 1);
        let b = net.batchnorm("b", c);
        let r = net.relu("r", b);
        let g = net.global_avg_pool("g", r);
        let f = net.fc("f", g, 2);
        net.loss("l", f);
        net
    }

    #[test]
    fn init_is_deterministic() {
        let net = tiny_net();
        let a = init_params(&net, 42);
        let b = init_params(&net, 42);
        assert_eq!(a, b);
        let c = init_params(&net, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn init_matches_structure() {
        let net = tiny_net();
        let p = init_params(&net, 1);
        assert!(matches!(p[0], LayerParams::None));
        match &p[1] {
            LayerParams::Conv { w } => assert_eq!(w.shape(), Shape4::new(4, 3, 3, 3)),
            other => panic!("expected conv params, got {other:?}"),
        }
        match &p[2] {
            LayerParams::Bn { gamma, beta } => {
                assert_eq!(gamma, &vec![1.0; 4]);
                assert_eq!(beta, &vec![0.0; 4]);
            }
            other => panic!("expected bn params, got {other:?}"),
        }
    }

    #[test]
    fn kaiming_bound_respected() {
        let net = tiny_net();
        let p = init_params(&net, 7);
        if let LayerParams::Conv { w, .. } = &p[1] {
            let bound = (6.0f32 / 27.0).sqrt();
            assert!(w.as_slice().iter().all(|v| v.abs() <= bound));
            // Not degenerate: spread over the range.
            let mx = w.as_slice().iter().cloned().fold(f32::MIN, f32::max);
            assert!(mx > bound * 0.5);
        } else {
            panic!("layer 1 should be conv");
        }
    }
}
