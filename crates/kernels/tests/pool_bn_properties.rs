//! Property tests for pooling and batch normalization: partition
//! properties (the basis of their distributed forms), conservation laws,
//! and partial-moment merging over random splits.

use fg_kernels::batchnorm::{bn_partial_moments, BnPartials};
use fg_kernels::conv::ConvGeometry;
use fg_kernels::pool::{pool2d_backward, pool2d_backward_region, pool2d_forward, PoolKind};
use fg_tensor::{Box4, Shape4, Tensor};
use proptest::prelude::*;

fn tensor_from_seed(shape: Shape4, seed: u64) -> Tensor {
    let mut state = seed | 1;
    Tensor::from_fn(shape, |_, _, _, _| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ((state % 400) as f32) / 50.0 - 4.0
    })
}

fn pool_case() -> impl Strategy<Value = (Shape4, ConvGeometry, u64)> {
    (
        1usize..3,
        1usize..3,
        prop_oneof![Just(2usize), Just(3)],
        1usize..3,
        0usize..2,
        6usize..12,
        6usize..12,
        any::<u64>(),
    )
        .prop_filter_map("valid pooling", |(n, c, k, s, p, h, w, seed)| {
            if h + 2 * p < k || w + 2 * p < k || p >= k {
                return None;
            }
            let g = ConvGeometry {
                in_h: h,
                in_w: w,
                kh: k,
                kw: k,
                stride_h: s,
                stride_w: s,
                pad_h: p,
                pad_w: p,
            };
            (g.out_h() > 0 && g.out_w() > 0).then_some((Shape4::new(n, c, h, w), g, seed))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn backward_region_split_tiles_the_full_gradient((shape, geom, seed) in pool_case()) {
        // Computing dx in two arbitrary horizontal halves must agree with
        // the monolithic computation — the property the distributed
        // pooling layer depends on.
        let x = tensor_from_seed(shape, seed);
        let dy = tensor_from_seed(
            Shape4::new(shape.n, shape.c, geom.out_h(), geom.out_w()),
            seed ^ 0x77,
        );
        let kind = PoolKind::Max;
        let full = pool2d_backward(kind, &x, &dy, &geom);
        let mid = (shape.h / 2).max(1);
        let top = pool2d_backward_region(kind, &x, (0, 0), &dy, (0, 0), &geom, (0, mid), (0, shape.w));
        let bot = if mid < shape.h {
            Some(pool2d_backward_region(kind, &x, (0, 0), &dy, (0, 0), &geom, (mid, shape.h), (0, shape.w)))
        } else {
            None
        };
        for n in 0..shape.n {
            for c in 0..shape.c {
                for h in 0..shape.h {
                    for w in 0..shape.w {
                        let v = if h < mid {
                            top.at(n, c, h, w)
                        } else {
                            bot.as_ref().unwrap().at(n, c, h - mid, w)
                        };
                        prop_assert_eq!(v, full.at(n, c, h, w));
                    }
                }
            }
        }
    }

    #[test]
    fn max_pool_conserves_gradient_mass((shape, geom, seed) in pool_case()) {
        // Each output routes its whole gradient to exactly one input.
        let x = tensor_from_seed(shape, seed);
        let y = pool2d_forward(PoolKind::Max, &x, &geom);
        let dy = Tensor::full(y.shape(), 1.0);
        let dx = pool2d_backward(PoolKind::Max, &x, &dy, &geom);
        let mass: f64 = dx.as_slice().iter().map(|&v| v as f64).sum();
        prop_assert!(
            (mass - y.len() as f64).abs() < 1e-3,
            "gradient mass {} vs {} outputs", mass, y.len()
        );
    }

    #[test]
    fn max_pool_output_bounded_by_input_extremes((shape, geom, seed) in pool_case()) {
        let x = tensor_from_seed(shape, seed);
        let y = pool2d_forward(PoolKind::Max, &x, &geom);
        let xmax = x.as_slice().iter().cloned().fold(f32::MIN, f32::max);
        let xmin = x.as_slice().iter().cloned().fold(f32::MAX, f32::min);
        for &v in y.as_slice() {
            prop_assert!(v <= xmax && v >= xmin);
        }
    }

    #[test]
    fn bn_partials_merge_over_arbitrary_sample_splits(
        n in 2usize..8,
        c in 1usize..4,
        hw in 2usize..6,
        cut_frac in 1usize..7,
        seed in any::<u64>(),
    ) {
        let shape = Shape4::new(n, c, hw, hw);
        let x = tensor_from_seed(shape, seed);
        let cut = (cut_frac * n / 8).clamp(1, n - 1);
        let a = x.slice_box(&Box4::new([0, 0, 0, 0], [cut, c, hw, hw]));
        let b = x.slice_box(&Box4::new([cut, 0, 0, 0], [n, c, hw, hw]));
        let pa = bn_partial_moments(&a);
        let pb = bn_partial_moments(&b);
        let merged = BnPartials {
            sum: pa.sum.iter().zip(&pb.sum).map(|(x, y)| x + y).collect(),
            sumsq: pa.sumsq.iter().zip(&pb.sumsq).map(|(x, y)| x + y).collect(),
            count: pa.count + pb.count,
        }
        .finalize();
        let whole = bn_partial_moments(&x).finalize();
        for ch in 0..c {
            prop_assert!((merged.mean[ch] - whole.mean[ch]).abs() < 1e-4);
            prop_assert!((merged.var[ch] - whole.var[ch]).abs() < 1e-3);
        }
    }
}
