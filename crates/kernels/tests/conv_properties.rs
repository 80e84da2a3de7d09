//! Property-based tests of the convolution kernels against a naive
//! reference implementation of the paper's Eqs. 1–3, over random
//! geometries, plus algebraic invariants (linearity, adjointness)
//! that hold for convolution as an operator.

use fg_kernels::conv::{
    conv2d_backward_data, conv2d_backward_filter, conv2d_forward, ConvGeometry,
};
use fg_tensor::{Shape4, Tensor};
use proptest::prelude::*;

fn tensor_from_seed(shape: Shape4, seed: u64) -> Tensor {
    let mut state = seed | 1;
    Tensor::from_fn(shape, |_, _, _, _| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ((state % 512) as f32) / 128.0 - 2.0
    })
}

/// Naive Eq. 1 with explicit bounds checks.
fn reference_forward(x: &Tensor, w: &Tensor, g: &ConvGeometry) -> Tensor {
    let xs = x.shape();
    let ws = w.shape();
    let mut y = Tensor::zeros(Shape4::new(xs.n, ws.n, g.out_h(), g.out_w()));
    for k in 0..xs.n {
        for f in 0..ws.n {
            for oh in 0..g.out_h() {
                for ow in 0..g.out_w() {
                    let mut acc = 0.0f32;
                    for c in 0..xs.c {
                        for r in 0..g.kh {
                            for s in 0..g.kw {
                                let ih = (oh * g.stride_h + r) as i64 - g.pad_h as i64;
                                let iw = (ow * g.stride_w + s) as i64 - g.pad_w as i64;
                                if ih >= 0
                                    && iw >= 0
                                    && (ih as usize) < xs.h
                                    && (iw as usize) < xs.w
                                {
                                    acc += x.at(k, c, ih as usize, iw as usize) * w.at(f, c, r, s);
                                }
                            }
                        }
                    }
                    *y.at_mut(k, f, oh, ow) = acc;
                }
            }
        }
    }
    y
}

fn geometry() -> impl Strategy<Value = (usize, usize, usize, ConvGeometry, u64)> {
    (
        1usize..3,                                            // n
        1usize..4,                                            // c
        1usize..4,                                            // f
        prop_oneof![Just(1usize), Just(3), Just(5), Just(7)], // k
        1usize..3,                                            // s
        0usize..4,                                            // p
        7usize..16,                                           // h
        7usize..16,                                           // w
        any::<u64>(),
    )
        .prop_filter_map("output must be non-empty", |(n, c, f, k, s, p, h, w, seed)| {
            if h + 2 * p < k || w + 2 * p < k {
                return None;
            }
            let geom = ConvGeometry {
                in_h: h,
                in_w: w,
                kh: k,
                kw: k,
                stride_h: s,
                stride_w: s,
                pad_h: p,
                pad_w: p,
            };
            (geom.out_h() > 0 && geom.out_w() > 0).then_some((n, c, f, geom, seed))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn forward_matches_naive_reference((n, c, f, geom, seed) in geometry()) {
        let x = tensor_from_seed(Shape4::new(n, c, geom.in_h, geom.in_w), seed);
        let w = tensor_from_seed(Shape4::new(f, c, geom.kh, geom.kw), seed ^ 0xFACE);
        let got = conv2d_forward(&x, &w, None, &geom);
        let want = reference_forward(&x, &w, &geom);
        prop_assert!(got.max_abs_diff(&want) <= 1e-3,
            "direct conv deviates from Eq. 1 reference by {}", got.max_abs_diff(&want));
    }

    #[test]
    fn forward_is_linear_in_the_input((n, c, f, geom, seed) in geometry()) {
        let x1 = tensor_from_seed(Shape4::new(n, c, geom.in_h, geom.in_w), seed);
        let x2 = tensor_from_seed(Shape4::new(n, c, geom.in_h, geom.in_w), seed ^ 0x5555);
        let w = tensor_from_seed(Shape4::new(f, c, geom.kh, geom.kw), seed ^ 0xAAAA);
        // conv(a·x1 + x2) == a·conv(x1) + conv(x2)
        let a = 0.5f32;
        let mut lhs_in = x1.clone();
        lhs_in.scale(a);
        lhs_in.add_assign(&x2);
        let lhs = conv2d_forward(&lhs_in, &w, None, &geom);
        let mut rhs = conv2d_forward(&x1, &w, None, &geom);
        rhs.scale(a);
        rhs.add_assign(&conv2d_forward(&x2, &w, None, &geom));
        prop_assert!(lhs.max_rel_diff(&rhs, 1.0) < 1e-3);
    }

    #[test]
    fn backward_data_is_the_adjoint_of_forward((n, c, f, geom, seed) in geometry()) {
        // ⟨conv(x), dy⟩ == ⟨x, convᵀ(dy)⟩ — Eq. 3 is the transpose of Eq. 1.
        let x = tensor_from_seed(Shape4::new(n, c, geom.in_h, geom.in_w), seed);
        let w = tensor_from_seed(Shape4::new(f, c, geom.kh, geom.kw), seed ^ 0x1111);
        let y = conv2d_forward(&x, &w, None, &geom);
        let dy = tensor_from_seed(y.shape(), seed ^ 0x2222);
        let dx = conv2d_backward_data(&dy, &w, &geom);
        let lhs: f64 = y
            .as_slice()
            .iter()
            .zip(dy.as_slice())
            .map(|(a, b)| (*a as f64) * (*b as f64))
            .sum();
        let rhs: f64 = x
            .as_slice()
            .iter()
            .zip(dx.as_slice())
            .map(|(a, b)| (*a as f64) * (*b as f64))
            .sum();
        let scale = lhs.abs().max(rhs.abs()).max(1.0);
        prop_assert!((lhs - rhs).abs() / scale < 1e-4,
            "adjoint identity violated: {lhs} vs {rhs}");
    }

    #[test]
    fn backward_filter_is_the_weight_adjoint((n, c, f, geom, seed) in geometry()) {
        // ⟨conv_w(x), dy⟩ must equal ⟨w, dW(x, dy)⟩.
        let x = tensor_from_seed(Shape4::new(n, c, geom.in_h, geom.in_w), seed);
        let w = tensor_from_seed(Shape4::new(f, c, geom.kh, geom.kw), seed ^ 0x3333);
        let y = conv2d_forward(&x, &w, None, &geom);
        let dy = tensor_from_seed(y.shape(), seed ^ 0x4444);
        let (dw, _db) = conv2d_backward_filter(&x, &dy, &geom);
        let lhs: f64 = y
            .as_slice()
            .iter()
            .zip(dy.as_slice())
            .map(|(a, b)| (*a as f64) * (*b as f64))
            .sum();
        let rhs: f64 = w
            .as_slice()
            .iter()
            .zip(dw.as_slice())
            .map(|(a, b)| (*a as f64) * (*b as f64))
            .sum();
        let scale = lhs.abs().max(rhs.abs()).max(1.0);
        prop_assert!((lhs - rhs).abs() / scale < 1e-4,
            "weight adjoint violated: {lhs} vs {rhs}");
    }
}
