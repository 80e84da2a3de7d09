//! 2-D max pooling, forward and backward, in region form.
//!
//! Pooling layers are "parallelized similarly" to convolution in the
//! paper (§III-B): spatial partitioning plus a halo exchange when the
//! pooling window crosses a shard border. The kernels therefore take the
//! same window/origin/region arguments as [`crate::conv`].
//!
//! Padding semantics follow cuDNN: padding positions are *excluded* —
//! they never win a max. The one pooling layer of the models here,
//! ResNet-50's `pool1`, takes the maximum; the global average at a
//! network's head is its own layer.

use fg_tensor::{Shape4, Tensor};

use crate::conv::ConvGeometry;

/// Pooling operation kind. It has one variant: it stays an argument of
/// the kernels, of `LayerKind::Pool` and of `DistPool2d::new` because the
/// benchmark's kernel replay names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolKind {
    /// Maximum over the (valid part of the) window.
    Max,
}

/// Forward pooling over an output region (window/origin contract as in
/// [`crate::conv::conv2d_forward_region`]). Channel count is preserved.
pub fn pool2d_forward_region(
    kind: PoolKind,
    x: &Tensor,
    x_origin: (i64, i64),
    geom: &ConvGeometry,
    out_rows: (usize, usize),
    out_cols: (usize, usize),
) -> Tensor {
    let PoolKind::Max = kind;
    let s = x.shape();
    let (oh0, oh1) = out_rows;
    let (ow0, ow1) = out_cols;
    assert!(oh0 < oh1 && ow0 < ow1, "empty output region");
    assert!(oh1 <= geom.out_h() && ow1 <= geom.out_w(), "region exceeds layer output");
    let mut y = Tensor::zeros(Shape4::new(s.n, s.c, oh1 - oh0, ow1 - ow0));
    for k in 0..s.n {
        for c in 0..s.c {
            for oh in oh0..oh1 {
                for ow in ow0..ow1 {
                    *y.at_mut(k, c, oh - oh0, ow - ow0) =
                        window_iter(geom, x, x_origin, k, c, oh, ow)
                            .fold(f32::NEG_INFINITY, f32::max);
                }
            }
        }
    }
    y
}

/// Backward pooling over an input-gradient region.
///
/// * `x` — the forward input window (the argmax is recomputed from it).
/// * `dy` — error-signal window covering every valid output contributing
///   to the requested region.
///
/// Returns `dL/dx` of shape `(N, C, rows, cols)`.
#[allow(clippy::too_many_arguments)]
pub fn pool2d_backward_region(
    kind: PoolKind,
    x: &Tensor,
    x_origin: (i64, i64),
    dy: &Tensor,
    dy_origin: (i64, i64),
    geom: &ConvGeometry,
    dx_rows: (usize, usize),
    dx_cols: (usize, usize),
) -> Tensor {
    let PoolKind::Max = kind;
    let s = x.shape();
    let (ih0, ih1) = dx_rows;
    let (iw0, iw1) = dx_cols;
    assert!(ih0 < ih1 && iw0 < iw1, "empty input region");
    let mut dx = Tensor::zeros(Shape4::new(s.n, s.c, ih1 - ih0, iw1 - iw0));
    let (oh_lo, oh_hi) = geom.output_rows_for_input(ih0, ih1);
    let (ow_lo, ow_hi) = geom.output_cols_for_input(iw0, iw1);
    for k in 0..s.n {
        for c in 0..s.c {
            for oh in oh_lo..oh_hi {
                for ow in ow_lo..ow_hi {
                    let lh = (oh as i64 - dy_origin.0) as usize;
                    let lw = (ow as i64 - dy_origin.1) as usize;
                    let g = dy.at(k, c, lh, lw);
                    // Deterministic argmax: first maximum in row-major
                    // window order.
                    let mut best = f32::NEG_INFINITY;
                    let mut best_pos = None;
                    for (ih, iw, v) in window_iter_pos(geom, x, x_origin, k, c, oh, ow) {
                        if v > best {
                            best = v;
                            best_pos = Some((ih, iw));
                        }
                    }
                    if let Some((ih, iw)) = best_pos {
                        if ih >= ih0 && ih < ih1 && iw >= iw0 && iw < iw1 {
                            *dx.at_mut(k, c, ih - ih0, iw - iw0) += g;
                        }
                    }
                }
            }
        }
    }
    dx
}

/// Serial forward pooling with symmetric padding.
pub fn pool2d_forward(kind: PoolKind, x: &Tensor, geom: &ConvGeometry) -> Tensor {
    pool2d_forward_region(kind, x, (0, 0), geom, (0, geom.out_h()), (0, geom.out_w()))
}

/// Serial backward pooling.
pub fn pool2d_backward(kind: PoolKind, x: &Tensor, dy: &Tensor, geom: &ConvGeometry) -> Tensor {
    pool2d_backward_region(kind, x, (0, 0), dy, (0, 0), geom, (0, geom.in_h), (0, geom.in_w))
}

/// Iterate over the *valid* (in global bounds) values of the pooling
/// window of output `(oh, ow)`.
fn window_iter<'a>(
    geom: &'a ConvGeometry,
    x: &'a Tensor,
    x_origin: (i64, i64),
    k: usize,
    c: usize,
    oh: usize,
    ow: usize,
) -> impl Iterator<Item = f32> + 'a {
    window_iter_pos(geom, x, x_origin, k, c, oh, ow).map(|(_, _, v)| v)
}

/// As [`window_iter`], also yielding the global `(ih, iw)` position.
fn window_iter_pos<'a>(
    geom: &'a ConvGeometry,
    x: &'a Tensor,
    x_origin: (i64, i64),
    k: usize,
    c: usize,
    oh: usize,
    ow: usize,
) -> impl Iterator<Item = (usize, usize, f32)> + 'a {
    let h_base = oh as i64 * geom.stride_h as i64 - geom.pad_h as i64;
    let w_base = ow as i64 * geom.stride_w as i64 - geom.pad_w as i64;
    (0..geom.kh).flat_map(move |r| {
        (0..geom.kw).filter_map(move |s| {
            let ih = h_base + r as i64;
            let iw = w_base + s as i64;
            if ih < 0 || iw < 0 || ih >= geom.in_h as i64 || iw >= geom.in_w as i64 {
                return None; // padding: excluded
            }
            let lh = ih - x_origin.0;
            let lw = iw - x_origin.1;
            debug_assert!(
                lh >= 0 && lw >= 0 && (lh as usize) < x.shape().h && (lw as usize) < x.shape().w,
                "pooling window not covered by the provided x window"
            );
            Some((ih as usize, iw as usize, x.at(k, c, lh as usize, lw as usize)))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(shape: Shape4, seed: usize) -> Tensor {
        Tensor::from_fn(shape, |n, c, h, w| {
            ((n * 37 + c * 19 + h * 11 + w * 5 + seed) % 29) as f32 - 14.0
        })
    }

    #[test]
    fn max_pool_hand_computed() {
        // 1x1x4x4, 2x2 stride 2, no padding.
        let x = Tensor::from_vec(
            Shape4::new(1, 1, 4, 4),
            vec![1., 2., 3., 4., 5., 6., 7., 8., 9., 10., 11., 12., 13., 14., 15., 16.],
        );
        let g = ConvGeometry::square(4, 4, 2, 2, 0);
        let y = pool2d_forward(PoolKind::Max, &x, &g);
        assert_eq!(y.as_slice(), &[6., 8., 14., 16.]);
    }

    #[test]
    fn padding_is_excluded_from_max() {
        // All negative values: with padding included, max would be 0.
        let x = Tensor::full(Shape4::new(1, 1, 3, 3), -2.0);
        let g = ConvGeometry::square(3, 3, 3, 2, 1);
        let y = pool2d_forward(PoolKind::Max, &x, &g);
        assert!(y.as_slice().iter().all(|&v| v == -2.0), "padding leaked into max: {y:?}");
    }

    #[test]
    fn resnet_style_overlapping_max_pool_backward_routes_to_argmax() {
        let g = ConvGeometry::square(6, 6, 3, 2, 1);
        let x = t(Shape4::new(1, 2, 6, 6), 3);
        let y = pool2d_forward(PoolKind::Max, &x, &g);
        let dy = Tensor::full(y.shape(), 1.0);
        let dx = pool2d_backward(PoolKind::Max, &x, &dy, &g);
        // Total gradient mass is conserved: each output routes 1.0 to one
        // input position.
        let total: f32 = dx.as_slice().iter().sum();
        assert_eq!(total, (y.shape().len()) as f32);
        // Gradient lands only where x attains each window max.
        for n in 0..1 {
            for c in 0..2 {
                for h in 0..6 {
                    for w in 0..6 {
                        if dx.at(n, c, h, w) != 0.0 {
                            // This position must be the max of at least
                            // one window containing it.
                            let v = x.at(n, c, h, w);
                            let (o0, o1) = g.output_rows_for_input(h, h + 1);
                            let (p0, p1) = g.output_cols_for_input(w, w + 1);
                            let mut is_max = false;
                            for oh in o0..o1 {
                                for ow in p0..p1 {
                                    let m = window_iter(&g, &x, (0, 0), n, c, oh, ow)
                                        .fold(f32::NEG_INFINITY, f32::max);
                                    if m == v {
                                        is_max = true;
                                    }
                                }
                            }
                            assert!(is_max, "gradient at non-max position ({h},{w})");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn region_forward_matches_full() {
        let g = ConvGeometry::square(8, 8, 3, 2, 1);
        let x = t(Shape4::new(2, 2, 8, 8), 11);
        let full = pool2d_forward(PoolKind::Max, &x, &g);
        let region = pool2d_forward_region(PoolKind::Max, &x, (0, 0), &g, (1, 3), (0, 4));
        for n in 0..2 {
            for c in 0..2 {
                for oh in 1..3 {
                    for ow in 0..4 {
                        assert_eq!(region.at(n, c, oh - 1, ow), full.at(n, c, oh, ow));
                    }
                }
            }
        }
    }

    #[test]
    fn backward_region_partition_sums_to_full() {
        // Computing dx in two half-regions must equal the full dx.
        let g = ConvGeometry::square(6, 6, 3, 2, 1);
        let x = t(Shape4::new(1, 1, 6, 6), 13);
        let dy = t(Shape4::new(1, 1, g.out_h(), g.out_w()), 17);
        let kind = PoolKind::Max;
        let full = pool2d_backward(kind, &x, &dy, &g);
        let top = pool2d_backward_region(kind, &x, (0, 0), &dy, (0, 0), &g, (0, 3), (0, 6));
        let bot = pool2d_backward_region(kind, &x, (0, 0), &dy, (0, 0), &g, (3, 6), (0, 6));
        for h in 0..6 {
            for w in 0..6 {
                let v = if h < 3 { top.at(0, 0, h, w) } else { bot.at(0, 0, h - 3, w) };
                assert_eq!(v, full.at(0, 0, h, w), "at ({h},{w})");
            }
        }
    }
}
