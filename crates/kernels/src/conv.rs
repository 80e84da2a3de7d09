//! 2-D convolution: forward, backward-data, backward-filter (§II-A,
//! equations 1–3 of the paper).
//!
//! The kernels come in *region* form, designed for the distributed
//! setting: they compute an arbitrary global sub-range of the output
//! (or input gradient) while reading from a *window* buffer — a shard of
//! the global tensor with halo margins and materialized zero padding, as
//! maintained by `fg_tensor::DistTensor`. Origins are `i64` because a
//! window can hang off the global edge (virtual padding). The serial
//! wrappers materialize a fully padded window and call the region form on
//! the whole output, so the distributed and serial paths execute the same
//! inner loops — which is precisely the paper's "exactly replicates
//! convolution as if it were performed on a single GPU" property.
//!
//! cuDNN plays this role in the paper (§IV); numerics, not speed, are
//! what the reproduction needs from these kernels.

use fg_tensor::{Shape4, Tensor};

/// Global geometry of a convolution: input extent, kernel, stride, and
/// symmetric zero padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Global input height.
    pub in_h: usize,
    /// Global input width.
    pub in_w: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride along height.
    pub stride_h: usize,
    /// Stride along width.
    pub stride_w: usize,
    /// Zero padding above/below.
    pub pad_h: usize,
    /// Zero padding left/right.
    pub pad_w: usize,
}

impl ConvGeometry {
    /// Square-kernel geometry with equal strides/padding (the paper's
    /// K/S/P notation).
    pub const fn square(in_h: usize, in_w: usize, k: usize, s: usize, p: usize) -> Self {
        ConvGeometry { in_h, in_w, kh: k, kw: k, stride_h: s, stride_w: s, pad_h: p, pad_w: p }
    }

    /// Global output height.
    pub const fn out_h(&self) -> usize {
        (self.in_h + 2 * self.pad_h - self.kh) / self.stride_h + 1
    }

    /// Global output width.
    pub const fn out_w(&self) -> usize {
        (self.in_w + 2 * self.pad_w - self.kw) / self.stride_w + 1
    }

    /// Input rows `[lo, hi)` (in unclamped global coordinates, possibly
    /// negative) read when computing output rows `[oh0, oh1)`.
    pub fn input_rows_for_output(&self, oh0: usize, oh1: usize) -> (i64, i64) {
        debug_assert!(oh0 < oh1);
        let lo = oh0 as i64 * self.stride_h as i64 - self.pad_h as i64;
        let hi = (oh1 - 1) as i64 * self.stride_h as i64 - self.pad_h as i64 + self.kh as i64;
        (lo, hi)
    }

    /// Input cols read for output cols `[ow0, ow1)` (see
    /// [`ConvGeometry::input_rows_for_output`]).
    pub fn input_cols_for_output(&self, ow0: usize, ow1: usize) -> (i64, i64) {
        debug_assert!(ow0 < ow1);
        let lo = ow0 as i64 * self.stride_w as i64 - self.pad_w as i64;
        let hi = (ow1 - 1) as i64 * self.stride_w as i64 - self.pad_w as i64 + self.kw as i64;
        (lo, hi)
    }

    /// Output rows `[lo, hi)` that read any input row in `[ih0, ih1)`
    /// (clamped to the valid output range). Used to size backward-data
    /// windows.
    pub fn output_rows_for_input(&self, ih0: usize, ih1: usize) -> (usize, usize) {
        debug_assert!(ih0 < ih1);
        let s = self.stride_h as i64;
        let p = self.pad_h as i64;
        let k = self.kh as i64;
        // oh contributes to ih iff oh*s - p <= ih <= oh*s - p + k - 1.
        let lo = ((ih0 as i64 + p - k + 1) + s - 1).div_euclid(s).max(0);
        let hi = (ih1 as i64 - 1 + p).div_euclid(s) + 1;
        (lo.min(self.out_h() as i64) as usize, hi.clamp(0, self.out_h() as i64) as usize)
    }

    /// Output cols reading any input col in `[iw0, iw1)`.
    pub fn output_cols_for_input(&self, iw0: usize, iw1: usize) -> (usize, usize) {
        debug_assert!(iw0 < iw1);
        let s = self.stride_w as i64;
        let p = self.pad_w as i64;
        let k = self.kw as i64;
        let lo = ((iw0 as i64 + p - k + 1) + s - 1).div_euclid(s).max(0);
        let hi = (iw1 as i64 - 1 + p).div_euclid(s) + 1;
        (lo.min(self.out_w() as i64) as usize, hi.clamp(0, self.out_w() as i64) as usize)
    }
}

/// Check that the window `(origin, extent)` covers `[lo, hi)` in one
/// dimension; panics otherwise (caller sized the window wrong).
fn assert_window_covers(origin: i64, extent: usize, lo: i64, hi: i64, what: &str) {
    assert!(
        lo >= origin && hi <= origin + extent as i64,
        "{what} window [{origin}, {}) does not cover required [{lo}, {hi})",
        origin + extent as i64
    );
}

/// Forward convolution (Eq. 1) over an output region.
///
/// * `x` — input window `(N_loc, C, win_h, win_w)`, padding materialized
///   as zeros, with global origin `x_origin` (h, w).
/// * `w` — weights `(F, C, kh, kw)`; `x` and `w` must agree on C.
/// * `out_rows`/`out_cols` — global output index ranges to compute.
///
/// Returns `(N_loc, F, rows, cols)`.
pub fn conv2d_forward_region(
    x: &Tensor,
    x_origin: (i64, i64),
    w: &Tensor,
    bias: Option<&[f32]>,
    geom: &ConvGeometry,
    out_rows: (usize, usize),
    out_cols: (usize, usize),
) -> Tensor {
    let (n, c_in, win_h, win_w) = dims(x);
    let (f_out, c_w, kh, kw) = dims(w);
    assert_eq!(c_in, c_w, "input channels do not match weights");
    assert_eq!((kh, kw), (geom.kh, geom.kw), "weights do not match geometry");
    if let Some(b) = bias {
        assert_eq!(b.len(), f_out, "bias length must equal filter count");
    }
    let (oh0, oh1) = out_rows;
    let (ow0, ow1) = out_cols;
    assert!(oh0 < oh1 && ow0 < ow1, "empty output region");
    assert!(oh1 <= geom.out_h() && ow1 <= geom.out_w(), "output region exceeds layer output");
    let (ih_lo, ih_hi) = geom.input_rows_for_output(oh0, oh1);
    let (iw_lo, iw_hi) = geom.input_cols_for_output(ow0, ow1);
    assert_window_covers(x_origin.0, win_h, ih_lo, ih_hi, "input rows");
    assert_window_covers(x_origin.1, win_w, iw_lo, iw_hi, "input cols");

    let rows = oh1 - oh0;
    let cols = ow1 - ow0;
    let mut y = Tensor::zeros(Shape4::new(n, f_out, rows, cols));
    let xs = x.as_slice();
    let ws = w.as_slice();
    let x_shape = x.shape();
    let w_shape = w.shape();

    for k in 0..n {
        for f in 0..f_out {
            let bias_v = bias.map_or(0.0, |b| b[f]);
            for oh in oh0..oh1 {
                // Local output row accumulator.
                let y_base = y.shape().offset(k, f, oh - oh0, 0);
                let y_row = &mut y.as_mut_slice()[y_base..y_base + cols];
                y_row.fill(bias_v);
                for c in 0..c_in {
                    for r in 0..geom.kh {
                        let ih = oh as i64 * geom.stride_h as i64 - geom.pad_h as i64 + r as i64;
                        let lh = (ih - x_origin.0) as usize;
                        let x_base = x_shape.offset(k, c, lh, 0);
                        let x_row = &xs[x_base..x_base + win_w];
                        let w_base = w_shape.offset(f, c, r, 0);
                        let w_row = &ws[w_base..w_base + geom.kw];
                        for (s, &wv) in w_row.iter().enumerate() {
                            if wv == 0.0 {
                                continue;
                            }
                            let iw0_l = (ow0 as i64 * geom.stride_w as i64 - geom.pad_w as i64
                                + s as i64
                                - x_origin.1) as usize;
                            if geom.stride_w == 1 {
                                for (yv, xv) in y_row.iter_mut().zip(&x_row[iw0_l..iw0_l + cols]) {
                                    *yv += wv * xv;
                                }
                            } else {
                                for (j, yv) in y_row.iter_mut().enumerate() {
                                    *yv += wv * x_row[iw0_l + j * geom.stride_w];
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    y
}

/// Backward-data convolution (Eq. 3) over an input-gradient region.
///
/// * `dy` — error-signal window `(N_loc, F, win_h, win_w)` with origin
///   `dy_origin`; it must cover every *valid* output position that
///   contributes to the requested region (out-of-range output indices
///   contribute zero by definition).
/// * Returns `dL/dx` of shape `(N_loc, C, rows, cols)` for the global
///   input region `dx_rows × dx_cols`.
pub fn conv2d_backward_data_region(
    dy: &Tensor,
    dy_origin: (i64, i64),
    w: &Tensor,
    geom: &ConvGeometry,
    dx_rows: (usize, usize),
    dx_cols: (usize, usize),
) -> Tensor {
    let (n, f_in, win_h, win_w) = dims(dy);
    let (f_w, c_out, kh, kw) = dims(w);
    assert_eq!(f_in, f_w, "error-signal filters do not match weights");
    assert_eq!((kh, kw), (geom.kh, geom.kw), "weights do not match geometry");
    let (ih0, ih1) = dx_rows;
    let (iw0, iw1) = dx_cols;
    assert!(ih0 < ih1 && iw0 < iw1, "empty input region");
    assert!(ih1 <= geom.in_h && iw1 <= geom.in_w, "input region exceeds layer input");
    // Contract: the window covers all contributing valid outputs.
    let (oh_lo, oh_hi) = geom.output_rows_for_input(ih0, ih1);
    let (ow_lo, ow_hi) = geom.output_cols_for_input(iw0, iw1);
    if oh_lo < oh_hi {
        assert_window_covers(dy_origin.0, win_h, oh_lo as i64, oh_hi as i64, "dy rows");
    }
    if ow_lo < ow_hi {
        assert_window_covers(dy_origin.1, win_w, ow_lo as i64, ow_hi as i64, "dy cols");
    }

    let rows = ih1 - ih0;
    let cols = iw1 - iw0;
    let out_h = geom.out_h() as i64;
    let out_w = geom.out_w() as i64;
    let mut dx = Tensor::zeros(Shape4::new(n, c_out, rows, cols));
    let dys = dy.as_slice();
    let dy_shape = dy.shape();
    let w_shape = w.shape();
    let ws = w.as_slice();

    for k in 0..n {
        for c in 0..c_out {
            for ih in ih0..ih1 {
                let dx_base = dx.shape().offset(k, c, ih - ih0, 0);
                for r in 0..geom.kh {
                    let t = ih as i64 + geom.pad_h as i64 - r as i64;
                    if t < 0 || t % geom.stride_h as i64 != 0 {
                        continue;
                    }
                    let oh = t / geom.stride_h as i64;
                    if oh >= out_h {
                        continue;
                    }
                    let lh = (oh - dy_origin.0) as usize;
                    for f in 0..f_in {
                        let wv_base = w_shape.offset(f, c, r, 0);
                        let dy_base = dy_shape.offset(k, f, lh, 0);
                        for iw in iw0..iw1 {
                            let mut acc = 0.0f32;
                            for s in 0..geom.kw {
                                let u = iw as i64 + geom.pad_w as i64 - s as i64;
                                if u < 0 || u % geom.stride_w as i64 != 0 {
                                    continue;
                                }
                                let ow = u / geom.stride_w as i64;
                                if ow >= out_w {
                                    continue;
                                }
                                let lw = (ow - dy_origin.1) as usize;
                                acc += dys[dy_base + lw] * ws[wv_base + s];
                            }
                            let dxv = &mut dx.as_mut_slice()[dx_base + (iw - iw0)];
                            *dxv += acc;
                        }
                    }
                }
            }
        }
    }
    dx
}

/// Backward-filter convolution (Eq. 2) over an output region: the local
/// contribution to `dL/dw` (and `dL/db`) from the error-signal block
/// `dy_rows × dy_cols`. The distributed layer allreduces these partials
/// across ranks (the sums over N, H, W in Eq. 2).
///
/// * `x` — input window with origin `x_origin` (same window forward used).
/// * `dy` — error-signal window with origin `dy_origin`; only the
///   requested region is read, so a margin-free shard works.
///
/// Returns `(dw, db)` with `dw` of shape `(F, C, kh, kw)`.
pub fn conv2d_backward_filter_region(
    x: &Tensor,
    x_origin: (i64, i64),
    dy: &Tensor,
    dy_origin: (i64, i64),
    geom: &ConvGeometry,
    dy_rows: (usize, usize),
    dy_cols: (usize, usize),
) -> (Tensor, Vec<f32>) {
    let (n, c_in, win_h, win_w) = dims(x);
    let (n_dy, f_out, _, _) = dims(dy);
    assert_eq!(n, n_dy, "x and dy sample counts differ");
    let (oh0, oh1) = dy_rows;
    let (ow0, ow1) = dy_cols;
    assert!(oh0 < oh1 && ow0 < ow1, "empty region");
    assert!(oh1 <= geom.out_h() && ow1 <= geom.out_w(), "region exceeds layer output");
    let (ih_lo, ih_hi) = geom.input_rows_for_output(oh0, oh1);
    let (iw_lo, iw_hi) = geom.input_cols_for_output(ow0, ow1);
    assert_window_covers(x_origin.0, win_h, ih_lo, ih_hi, "input rows");
    assert_window_covers(x_origin.1, win_w, iw_lo, iw_hi, "input cols");

    let mut dw = Tensor::zeros(Shape4::new(f_out, c_in, geom.kh, geom.kw));
    let mut db = vec![0.0f32; f_out];
    let xs = x.as_slice();
    let x_shape = x.shape();
    let dy_shape = dy.shape();
    let dys = dy.as_slice();
    let cols = ow1 - ow0;

    for k in 0..n {
        for (f, db_f) in db.iter_mut().enumerate() {
            for oh in oh0..oh1 {
                let lh_dy = (oh as i64 - dy_origin.0) as usize;
                let lw_dy0 = (ow0 as i64 - dy_origin.1) as usize;
                let dy_base = dy_shape.offset(k, f, lh_dy, lw_dy0);
                let dy_row = &dys[dy_base..dy_base + cols];
                *db_f += dy_row.iter().sum::<f32>();
                for c in 0..c_in {
                    for r in 0..geom.kh {
                        let ih = oh as i64 * geom.stride_h as i64 - geom.pad_h as i64 + r as i64;
                        let lh = (ih - x_origin.0) as usize;
                        let x_base = x_shape.offset(k, c, lh, 0);
                        let x_row = &xs[x_base..x_base + win_w];
                        let dw_base = dw.shape().offset(f, c, r, 0);
                        for s in 0..geom.kw {
                            let iw0_l = (ow0 as i64 * geom.stride_w as i64 - geom.pad_w as i64
                                + s as i64
                                - x_origin.1) as usize;
                            let mut acc = 0.0f32;
                            if geom.stride_w == 1 {
                                for (g, xv) in dy_row.iter().zip(&x_row[iw0_l..iw0_l + cols]) {
                                    acc += g * xv;
                                }
                            } else {
                                for (j, g) in dy_row.iter().enumerate() {
                                    acc += g * x_row[iw0_l + j * geom.stride_w];
                                }
                            }
                            dw.as_mut_slice()[dw_base + s] += acc;
                        }
                    }
                }
            }
        }
    }
    (dw, db)
}

/// Serial forward convolution with symmetric zero padding.
pub fn conv2d_forward(x: &Tensor, w: &Tensor, bias: Option<&[f32]>, geom: &ConvGeometry) -> Tensor {
    let padded = pad_window(x, geom.pad_h, geom.pad_w);
    conv2d_forward_region(
        &padded,
        (-(geom.pad_h as i64), -(geom.pad_w as i64)),
        w,
        bias,
        geom,
        (0, geom.out_h()),
        (0, geom.out_w()),
    )
}

/// Serial backward-data convolution.
pub fn conv2d_backward_data(dy: &Tensor, w: &Tensor, geom: &ConvGeometry) -> Tensor {
    conv2d_backward_data_region(dy, (0, 0), w, geom, (0, geom.in_h), (0, geom.in_w))
}

/// Serial backward-filter convolution; returns `(dw, db)`.
pub fn conv2d_backward_filter(x: &Tensor, dy: &Tensor, geom: &ConvGeometry) -> (Tensor, Vec<f32>) {
    let padded = pad_window(x, geom.pad_h, geom.pad_w);
    conv2d_backward_filter_region(
        &padded,
        (-(geom.pad_h as i64), -(geom.pad_w as i64)),
        dy,
        (0, 0),
        geom,
        (0, geom.out_h()),
        (0, geom.out_w()),
    )
}

/// Copy `x` into a zero-initialized buffer with `ph`/`pw` margins on each
/// spatial side (materialized padding).
fn pad_window(x: &Tensor, ph: usize, pw: usize) -> Tensor {
    if ph == 0 && pw == 0 {
        return x.clone();
    }
    let s = x.shape();
    let mut out = Tensor::zeros(Shape4::new(s.n, s.c, s.h + 2 * ph, s.w + 2 * pw));
    out.copy_box_from(
        &fg_tensor::Box4::new([0, 0, ph, pw], [s.n, s.c, ph + s.h, pw + s.w]),
        x,
        &s.full_box(),
    );
    out
}

fn dims(t: &Tensor) -> (usize, usize, usize, usize) {
    let s = t.shape();
    (s.n, s.c, s.h, s.w)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference implementation: the paper's Eq. 1 verbatim, no window
    /// tricks, O(everything) loops.
    fn conv_reference(x: &Tensor, w: &Tensor, bias: Option<&[f32]>, g: &ConvGeometry) -> Tensor {
        let xs = x.shape();
        let wsh = w.shape();
        let mut y = Tensor::zeros(Shape4::new(xs.n, wsh.n, g.out_h(), g.out_w()));
        for k in 0..xs.n {
            for f in 0..wsh.n {
                for oh in 0..g.out_h() {
                    for ow in 0..g.out_w() {
                        let mut acc = bias.map_or(0.0, |b| b[f]);
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
                                        acc +=
                                            x.at(k, c, ih as usize, iw as usize) * w.at(f, c, r, s);
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

    fn test_tensor(shape: Shape4, seed: u32) -> Tensor {
        Tensor::from_fn(shape, |n, c, h, w| {
            let v = (n * 131 + c * 31 + h * 17 + w * 7 + seed as usize) % 23;
            v as f32 * 0.25 - 2.5
        })
    }

    fn geometries() -> Vec<(Shape4, Shape4, ConvGeometry)> {
        // (x shape, w shape, geometry) covering K∈{1,3,5,7}, S∈{1,2}, P.
        vec![
            (Shape4::new(2, 3, 8, 8), Shape4::new(4, 3, 3, 3), ConvGeometry::square(8, 8, 3, 1, 1)),
            (Shape4::new(1, 2, 9, 7), Shape4::new(3, 2, 3, 3), ConvGeometry::square(9, 7, 3, 2, 1)),
            (Shape4::new(2, 4, 6, 6), Shape4::new(2, 4, 1, 1), ConvGeometry::square(6, 6, 1, 1, 0)),
            (
                Shape4::new(1, 1, 12, 12),
                Shape4::new(2, 1, 5, 5),
                ConvGeometry::square(12, 12, 5, 1, 2),
            ),
            (
                Shape4::new(1, 2, 14, 14),
                Shape4::new(2, 2, 7, 7),
                ConvGeometry::square(14, 14, 7, 2, 3),
            ),
            (Shape4::new(2, 2, 8, 8), Shape4::new(3, 2, 1, 1), ConvGeometry::square(8, 8, 1, 2, 0)),
        ]
    }

    #[test]
    fn forward_matches_reference() {
        for (xs, wsz, g) in geometries() {
            let x = test_tensor(xs, 1);
            let w = test_tensor(wsz, 2);
            let bias: Vec<f32> = (0..wsz.n).map(|f| f as f32 * 0.5 - 1.0).collect();
            let got = conv2d_forward(&x, &w, Some(&bias), &g);
            let want = conv_reference(&x, &w, Some(&bias), &g);
            got.assert_close(&want, 1e-5);
        }
    }

    #[test]
    fn forward_region_matches_full() {
        let (xs, wsz, g) = (
            Shape4::new(1, 2, 10, 10),
            Shape4::new(3, 2, 3, 3),
            ConvGeometry::square(10, 10, 3, 1, 1),
        );
        let x = test_tensor(xs, 3);
        let w = test_tensor(wsz, 4);
        let full = conv2d_forward(&x, &w, None, &g);
        // Compute rows 4..8, cols 2..10 from a sufficient window.
        let padded = pad_window(&x, g.pad_h, g.pad_w);
        let region = conv2d_forward_region(&padded, (-1, -1), &w, None, &g, (4, 8), (2, 10));
        for n in 0..1 {
            for f in 0..3 {
                for oh in 4..8 {
                    for ow in 2..10 {
                        assert_eq!(region.at(n, f, oh - 4, ow - 2), full.at(n, f, oh, ow));
                    }
                }
            }
        }
    }

    /// Finite-difference gradient check of backward-data and
    /// backward-filter against the forward pass.
    #[test]
    fn gradients_match_finite_differences() {
        let g = ConvGeometry::square(5, 6, 3, 2, 1);
        let x = test_tensor(Shape4::new(1, 2, 5, 6), 5);
        let w = test_tensor(Shape4::new(2, 2, 3, 3), 6);
        // Loss = sum over y of fixed weights q.
        let q = test_tensor(Shape4::new(1, 2, g.out_h(), g.out_w()), 7);
        let loss = |x: &Tensor, w: &Tensor| -> f64 {
            let y = conv2d_forward(x, w, None, &g);
            y.as_slice().iter().zip(q.as_slice()).map(|(a, b)| (*a as f64) * (*b as f64)).sum()
        };
        let dx = conv2d_backward_data(&q, &w, &g);
        let (dw, _db) = conv2d_backward_filter(&x, &q, &g);

        let eps = 1e-2f32;
        // Check a scattering of x positions.
        for (k, c, h, wi) in [(0, 0, 0, 0), (0, 1, 2, 3), (0, 0, 4, 5), (0, 1, 1, 1)] {
            let mut xp = x.clone();
            *xp.at_mut(k, c, h, wi) += eps;
            let mut xm = x.clone();
            *xm.at_mut(k, c, h, wi) -= eps;
            let fd = (loss(&xp, &w) - loss(&xm, &w)) / (2.0 * eps as f64);
            let an = dx.at(k, c, h, wi) as f64;
            assert!(
                (fd - an).abs() < 1e-2 * fd.abs().max(1.0),
                "dx[{k},{c},{h},{wi}]: {an} vs {fd}"
            );
        }
        // And of w positions.
        for (f, c, r, s) in [(0, 0, 0, 0), (1, 1, 2, 2), (0, 1, 1, 0)] {
            let mut wp = w.clone();
            *wp.at_mut(f, c, r, s) += eps;
            let mut wm = w.clone();
            *wm.at_mut(f, c, r, s) -= eps;
            let fd = (loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps as f64);
            let an = dw.at(f, c, r, s) as f64;
            assert!(
                (fd - an).abs() < 1e-2 * fd.abs().max(1.0),
                "dw[{f},{c},{r},{s}]: {an} vs {fd}"
            );
        }
    }

    #[test]
    fn bias_gradient_sums_error_signal() {
        let g = ConvGeometry::square(4, 4, 3, 1, 1);
        let x = test_tensor(Shape4::new(2, 1, 4, 4), 8);
        let dy = test_tensor(Shape4::new(2, 2, 4, 4), 9);
        let (_dw, db) = conv2d_backward_filter(&x, &dy, &g);
        for (f, got) in db.iter().enumerate() {
            let mut want = 0.0f32;
            for n in 0..2 {
                for h in 0..4 {
                    for w in 0..4 {
                        want += dy.at(n, f, h, w);
                    }
                }
            }
            assert!((got - want).abs() < 1e-4);
        }
    }

    #[test]
    fn backward_data_region_matches_full() {
        let g = ConvGeometry::square(9, 9, 3, 2, 1);
        let w = test_tensor(Shape4::new(2, 3, 3, 3), 10);
        let dy = test_tensor(Shape4::new(1, 2, g.out_h(), g.out_w()), 11);
        let full = conv2d_backward_data(&dy, &w, &g);
        let region = conv2d_backward_data_region(&dy, (0, 0), &w, &g, (3, 7), (0, 9));
        for c in 0..3 {
            for ih in 3..7 {
                for iw in 0..9 {
                    assert_eq!(region.at(0, c, ih - 3, iw), full.at(0, c, ih, iw));
                }
            }
        }
    }

    #[test]
    fn output_input_range_helpers_are_consistent() {
        for (_, _, g) in geometries() {
            for oh in 0..g.out_h() {
                let (lo, hi) = g.input_rows_for_output(oh, oh + 1);
                // Every input row in [lo,hi) clamped in-bounds maps back to
                // an output range containing oh.
                let lo_c = lo.max(0) as usize;
                let hi_c = (hi.min(g.in_h as i64)) as usize;
                if lo_c < hi_c {
                    let (o0, o1) = g.output_rows_for_input(lo_c, hi_c);
                    assert!(o0 <= oh && oh < o1, "geom {g:?} oh={oh} got [{o0},{o1})");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not cover")]
    fn undersized_window_is_rejected() {
        let g = ConvGeometry::square(8, 8, 3, 1, 1);
        let x = test_tensor(Shape4::new(1, 1, 8, 8), 12);
        let w = test_tensor(Shape4::new(1, 1, 3, 3), 13);
        // Window without padding cannot produce output row 0.
        let _ = conv2d_forward_region(&x, (0, 0), &w, None, &g, (0, 8), (1, 7));
    }
}
