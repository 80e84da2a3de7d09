//! Property-based tests of the convolution kernels against a naive
//! reference implementation of the paper's Eqs. 1–3, over random
//! geometries, plus algebraic invariants (linearity, adjointness)
//! that hold for convolution as an operator.
//!
//! The second half pins the *bits*: the loops the kernels ran before
//! the stride-phase rewrite (a gather for backward-data, a strided read
//! for forward and backward-filter) live on below as references, and
//! the region kernels must reproduce them in every bit over generated
//! geometry, sub-regions and windows, and over a table of register-tile
//! edges — the per-element summation order is the contract
//! distributed-equals-serial rests on.

use fg_kernels::conv::{
    conv2d_backward_data, conv2d_backward_data_region, conv2d_backward_filter,
    conv2d_backward_filter_region, conv2d_forward, conv2d_forward_region, ConvGeometry,
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
        1usize..3,  // n
        1usize..4,  // c
        1usize..4,  // f
        1usize..8,  // k, even kernels included
        1usize..4,  // s
        0usize..4,  // p
        7usize..16, // h
        7usize..16, // w
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
        let got = conv2d_forward(&x, &w, &geom);
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
        let lhs = conv2d_forward(&lhs_in, &w, &geom);
        let mut rhs = conv2d_forward(&x1, &w, &geom);
        rhs.scale(a);
        rhs.add_assign(&conv2d_forward(&x2, &w, &geom));
        prop_assert!(lhs.max_rel_diff(&rhs, 1.0) < 1e-3);
    }

    #[test]
    fn backward_data_is_the_adjoint_of_forward((n, c, f, geom, seed) in geometry()) {
        // ⟨conv(x), dy⟩ == ⟨x, convᵀ(dy)⟩ — Eq. 3 is the transpose of Eq. 1.
        let x = tensor_from_seed(Shape4::new(n, c, geom.in_h, geom.in_w), seed);
        let w = tensor_from_seed(Shape4::new(f, c, geom.kh, geom.kw), seed ^ 0x1111);
        let y = conv2d_forward(&x, &w, &geom);
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
        let y = conv2d_forward(&x, &w, &geom);
        let dy = tensor_from_seed(y.shape(), seed ^ 0x4444);
        let dw = conv2d_backward_filter(&x, &dy, &geom);
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

// ---------------------------------------------------------------------
// Bit-for-bit: the region kernels against the loops they replaced.
// ---------------------------------------------------------------------

fn dims(t: &Tensor) -> (usize, usize, usize, usize) {
    let s = t.shape();
    (s.n, s.c, s.h, s.w)
}

/// Forward as the kernel ran it before the window rows were
/// de-interleaved by width phase: every tap a strided read of the row.
/// It also keeps the zero-weight skip the kernel dropped — for finite
/// `x` and sums that start at `+0.0`, skipping `y += 0·x` cannot change a
/// bit, so comparing against it pins that claim as well.
fn strided_forward_region(
    x: &Tensor,
    x_origin: (i64, i64),
    w: &Tensor,
    geom: &ConvGeometry,
    out_rows: (usize, usize),
    out_cols: (usize, usize),
) -> Tensor {
    let (n, c_in, _, win_w) = dims(x);
    let (f_out, _, _, _) = dims(w);
    let (oh0, oh1) = out_rows;
    let (ow0, ow1) = out_cols;
    let rows = oh1 - oh0;
    let cols = ow1 - ow0;
    let mut y = Tensor::zeros(Shape4::new(n, f_out, rows, cols));
    let xs = x.as_slice();
    let ws = w.as_slice();
    let x_shape = x.shape();
    let w_shape = w.shape();

    for k in 0..n {
        for f in 0..f_out {
            for oh in oh0..oh1 {
                let y_base = y.shape().offset(k, f, oh - oh0, 0);
                let y_row = &mut y.as_mut_slice()[y_base..y_base + cols];
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
                            for (j, yv) in y_row.iter_mut().enumerate() {
                                *yv += wv * x_row[iw0_l + j * geom.stride_w];
                            }
                        }
                    }
                }
            }
        }
    }
    y
}

/// Backward-data as the kernel ran it before the stride-phase
/// decomposition: per input position, gather over every tap and test
/// divisibility and bounds.
fn gather_backward_data_region(
    dy: &Tensor,
    dy_origin: (i64, i64),
    w: &Tensor,
    geom: &ConvGeometry,
    dx_rows: (usize, usize),
    dx_cols: (usize, usize),
) -> Tensor {
    let (n, f_in, _, _) = dims(dy);
    let (_, c_out, _, _) = dims(w);
    let (ih0, ih1) = dx_rows;
    let (iw0, iw1) = dx_cols;
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

/// Backward-filter as the kernel ran it before the window rows were
/// de-interleaved: the ascending-`j` dot product over a strided read.
fn strided_backward_filter_region(
    x: &Tensor,
    x_origin: (i64, i64),
    dy: &Tensor,
    dy_origin: (i64, i64),
    geom: &ConvGeometry,
    dy_rows: (usize, usize),
    dy_cols: (usize, usize),
) -> Tensor {
    let (n, c_in, _, win_w) = dims(x);
    let (_, f_out, _, _) = dims(dy);
    let (oh0, oh1) = dy_rows;
    let (ow0, ow1) = dy_cols;
    let mut dw = Tensor::zeros(Shape4::new(f_out, c_in, geom.kh, geom.kw));
    let xs = x.as_slice();
    let x_shape = x.shape();
    let dy_shape = dy.shape();
    let dys = dy.as_slice();
    let cols = ow1 - ow0;

    for k in 0..n {
        for f in 0..f_out {
            for oh in oh0..oh1 {
                let lh_dy = (oh as i64 - dy_origin.0) as usize;
                let lw_dy0 = (ow0 as i64 - dy_origin.1) as usize;
                let dy_base = dy_shape.offset(k, f, lh_dy, lw_dy0);
                let dy_row = &dys[dy_base..dy_base + cols];
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
                            for (j, g) in dy_row.iter().enumerate() {
                                acc += g * x_row[iw0_l + j * geom.stride_w];
                            }
                            dw.as_mut_slice()[dw_base + s] += acc;
                        }
                    }
                }
            }
        }
    }
    dw
}

/// Deterministic picks derived from a case's seed: the vendored
/// proptest has no `prop_flat_map`, and a pad bounded by its kernel or a
/// region inside its extent needs a range that depends on earlier draws.
struct Picks(u64);

impl Picks {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A non-empty `[lo, hi)` inside `[0, extent)`: the whole extent, a
    /// tail, or a run of 1, 2 or any number of elements from a random
    /// start — regions begin mid-phase and rows of one and two elements
    /// occur at every stride.
    fn sub_range(&mut self, extent: usize) -> (usize, usize) {
        if self.below(5) == 0 {
            return (0, extent);
        }
        let lo = self.below(extent);
        let room = extent - lo;
        let len = match self.below(4) {
            0 => 1,
            1 => room.min(2),
            2 => room,
            _ => 1 + self.below(room),
        };
        (lo, lo + len)
    }

    /// A window `(origin, extent)` over `[lo, hi)` (at least one element
    /// even when nothing is required) with 0–3 spare elements on either
    /// side, so origins are non-zero, often negative, and margins are
    /// wider than the kernel needs.
    fn window(&mut self, lo: i64, hi: i64) -> (i64, usize) {
        let (before, after) = (self.below(4), self.below(4));
        (lo - before as i64, (hi.max(lo + 1) - lo) as usize + before + after)
    }
}

/// Full-mantissa values in `[-2, 2)` — sums of their products round, so
/// a changed summation order shows — with signed zeros mixed in.
fn rounding_tensor(shape: Shape4, seed: u64) -> Tensor {
    let mut picks = Picks(seed | 1);
    Tensor::from_fn(shape, |_, _, _, _| {
        let bits = picks.next();
        match bits & 31 {
            0 => 0.0,
            1 => -0.0,
            _ => (bits >> 40) as f32 / (1u32 << 24) as f32 * 4.0 - 2.0,
        }
    })
}

/// One bitwise case; its `Debug` form is a single line, which is the
/// reproducer (the vendored proptest does not shrink).
#[derive(Debug, Clone, Copy)]
struct BitCase {
    n: usize,
    c: usize,
    f: usize,
    geom: ConvGeometry,
    seed: u64,
}

/// Kernel 1–7 and stride 1–3 independently per axis, pad `0..=k/2+1`,
/// extents 3–23; 1–13 channels and filters, so a case holds full
/// register-tile channel blocks and a remainder.
fn bit_case() -> impl Strategy<Value = BitCase> {
    (
        1usize..3,
        1usize..14,
        1usize..14,
        (1usize..8, 1usize..8),
        (1usize..4, 1usize..4),
        (3usize..24, 3usize..24),
        any::<u64>(),
    )
        .prop_filter_map(
            "output must be non-empty",
            |(n, c, f, (kh, kw), (stride_h, stride_w), (in_h, in_w), seed)| {
                let mut picks = Picks(seed | 1);
                let (pad_h, pad_w) = (picks.below(kh / 2 + 2), picks.below(kw / 2 + 2));
                if in_h + 2 * pad_h < kh || in_w + 2 * pad_w < kw {
                    return None;
                }
                let geom = ConvGeometry { in_h, in_w, kh, kw, stride_h, stride_w, pad_h, pad_w };
                Some(BitCase { n, c, f, geom, seed })
            },
        )
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

type Range2 = (usize, usize);

/// Forward over output region `rows × cols` against the strided
/// reference, through a window drawn from `picks`; `Err` is the one-line
/// reproducer.
fn check_forward(
    case: BitCase,
    rows: Range2,
    cols: Range2,
    picks: &mut Picks,
) -> Result<(), String> {
    let BitCase { n, c, f, geom, seed } = case;
    let (ih_lo, ih_hi) = geom.input_rows_for_output(rows.0, rows.1);
    let (iw_lo, iw_hi) = geom.input_cols_for_output(cols.0, cols.1);
    let (oy, win_h) = picks.window(ih_lo, ih_hi);
    let (ox, win_w) = picks.window(iw_lo, iw_hi);
    let x = rounding_tensor(Shape4::new(n, c, win_h, win_w), seed);
    let w = rounding_tensor(Shape4::new(f, c, geom.kh, geom.kw), seed ^ 0xFACE);
    let got = conv2d_forward_region(&x, (oy, ox), &w, None, &geom, rows, cols);
    let want = strided_forward_region(&x, (oy, ox), &w, &geom, rows, cols);
    if bits(got.as_slice()) == bits(want.as_slice()) {
        return Ok(());
    }
    Err(format!(
        "forward bits differ: {case:?} out_rows {rows:?} out_cols {cols:?} x_origin {:?} \
         window {win_h}x{win_w}",
        (oy, ox)
    ))
}

/// Backward-data over input region `rows × cols` against the gather
/// reference.
fn check_backward_data(
    case: BitCase,
    rows: Range2,
    cols: Range2,
    picks: &mut Picks,
) -> Result<(), String> {
    let BitCase { n, c, f, geom, seed } = case;
    let (oh_lo, oh_hi) = geom.output_rows_for_input(rows.0, rows.1);
    let (ow_lo, ow_hi) = geom.output_cols_for_input(cols.0, cols.1);
    let (oy, win_h) = picks.window(oh_lo as i64, oh_hi as i64);
    let (ox, win_w) = picks.window(ow_lo as i64, ow_hi as i64);
    // Random everywhere: window positions outside the valid output
    // range are garbage neither implementation may read.
    let dy = rounding_tensor(Shape4::new(n, f, win_h, win_w), seed);
    let w = rounding_tensor(Shape4::new(f, c, geom.kh, geom.kw), seed ^ 0x1111);
    let got = conv2d_backward_data_region(&dy, (oy, ox), &w, &geom, rows, cols);
    let want = gather_backward_data_region(&dy, (oy, ox), &w, &geom, rows, cols);
    if bits(got.as_slice()) == bits(want.as_slice()) {
        return Ok(());
    }
    Err(format!(
        "backward-data bits differ: {case:?} dx_rows {rows:?} dx_cols {cols:?} \
         dy_origin {:?} window {win_h}x{win_w}",
        (oy, ox)
    ))
}

/// Backward-filter over output region `rows × cols` against the strided
/// reference.
fn check_backward_filter(
    case: BitCase,
    rows: Range2,
    cols: Range2,
    picks: &mut Picks,
) -> Result<(), String> {
    let BitCase { n, c, f, geom, seed } = case;
    let (ih_lo, ih_hi) = geom.input_rows_for_output(rows.0, rows.1);
    let (iw_lo, iw_hi) = geom.input_cols_for_output(cols.0, cols.1);
    let (x_oy, x_h) = picks.window(ih_lo, ih_hi);
    let (x_ox, x_w) = picks.window(iw_lo, iw_hi);
    let (dy_oy, dy_h) = picks.window(rows.0 as i64, rows.1 as i64);
    let (dy_ox, dy_w) = picks.window(cols.0 as i64, cols.1 as i64);
    let x = rounding_tensor(Shape4::new(n, c, x_h, x_w), seed);
    let dy = rounding_tensor(Shape4::new(n, f, dy_h, dy_w), seed ^ 0x4444);
    let dw =
        conv2d_backward_filter_region(&x, (x_oy, x_ox), &dy, (dy_oy, dy_ox), &geom, rows, cols);
    let dw_ref =
        strided_backward_filter_region(&x, (x_oy, x_ox), &dy, (dy_oy, dy_ox), &geom, rows, cols);
    if bits(dw.as_slice()) == bits(dw_ref.as_slice()) {
        return Ok(());
    }
    Err(format!(
        "backward-filter bits differ: {case:?} dy_rows {rows:?} dy_cols {cols:?} \
         x_origin {:?} x window {x_h}x{x_w} dy_origin {:?} dy window {dy_h}x{dy_w}",
        (x_oy, x_ox),
        (dy_oy, dy_ox)
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn forward_region_equals_strided_reference_bitwise(case in bit_case()) {
        let mut picks = Picks(case.seed ^ 0xF0F0_F0F0 | 1);
        let rows = picks.sub_range(case.geom.out_h());
        let cols = picks.sub_range(case.geom.out_w());
        let checked = check_forward(case, rows, cols, &mut picks);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }

    #[test]
    fn backward_data_region_equals_gather_reference_bitwise(case in bit_case()) {
        let mut picks = Picks(case.seed ^ 0x0D0D_0D0D | 1);
        let rows = picks.sub_range(case.geom.in_h);
        let cols = picks.sub_range(case.geom.in_w);
        let checked = check_backward_data(case, rows, cols, &mut picks);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }

    #[test]
    fn backward_filter_region_equals_strided_reference_bitwise(case in bit_case()) {
        let mut picks = Picks(case.seed ^ 0x0B0B_0B0B | 1);
        let rows = picks.sub_range(case.geom.out_h());
        let cols = picks.sub_range(case.geom.out_w());
        let checked = check_backward_filter(case, rows, cols, &mut picks);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }
}

/// The row ranges a spatially split layer asks of one extent: all of it,
/// its boundary rows alone, runs of one and two rows at either end, and
/// the interior between the boundary rows.
fn split_row_ranges(extent: usize) -> Vec<Range2> {
    let mut ranges = vec![(0, extent), (0, 1), (extent - 1, extent)];
    if extent >= 2 {
        ranges.extend([(0, 2), (extent - 2, extent)]);
    }
    if extent >= 3 {
        ranges.push((1, extent - 1));
    }
    ranges.sort_unstable();
    ranges.dedup();
    ranges
}

/// All three kernels over every [`split_row_ranges`] sub-region (full
/// width) of one geometry.
fn check_split_regions(case: BitCase) -> Result<(), String> {
    let geom = case.geom;
    let mut picks = Picks(case.seed | 1);
    for rows in split_row_ranges(geom.out_h()) {
        check_forward(case, rows, (0, geom.out_w()), &mut picks)?;
        check_backward_filter(case, rows, (0, geom.out_w()), &mut picks)?;
    }
    for rows in split_row_ranges(geom.in_h) {
        check_backward_data(case, rows, (0, geom.in_w), &mut picks)?;
    }
    Ok(())
}

/// The edges of a register tile, deterministically: channel and filter
/// counts on both sides of every block size a tile or panel may use (1,
/// 4, 8, 16) × row widths on both sides of every chunk width forward and
/// backward-filter cut a row into (1, 2, 4, 8) and of two chunks, at
/// stride 1 and 2 — which puts backward-data's rows on both sides of its
/// row path's edge, a full chunk per column stride phase — and the small
/// maps of ResNet-50's deep stages, where a row is one or two elements
/// and the tile trades columns for channels.
#[test]
fn tile_edges_equal_reference_bitwise() {
    const CHANNELS: [usize; 7] = [1, 3, 4, 5, 8, 9, 17];
    const WIDTHS: [usize; 10] = [1, 2, 3, 4, 7, 8, 9, 15, 16, 17];
    let mut seed = 0x5EED_0001u64;
    let mut check = |n, c, f, geom| {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        if let Err(reproducer) = check_split_regions(BitCase { n, c, f, geom, seed }) {
            panic!("{reproducer}");
        }
    };
    for f in CHANNELS {
        for c in CHANNELS {
            for width in WIDTHS {
                for stride in 1..=2 {
                    // 3×3, pad 1: `width` output columns (forward and
                    // backward-filter rows), then `width` input columns
                    // (backward-data rows).
                    let in_w = (width - 1) * stride + 1;
                    check(1, c, f, ConvGeometry::square(3, in_w, 3, stride, 1));
                    check(1, c, f, ConvGeometry::square(3, width, 3, stride, 1));
                }
            }
            // ResNet-50 at 32×32 input, stages 4–5 and the stem.
            check(2, c, f, ConvGeometry::square(1, 1, 3, 1, 1));
            check(2, c, f, ConvGeometry::square(2, 2, 3, 1, 1));
            check(2, c, f, ConvGeometry::square(2, 2, 1, 2, 0));
            check(1, c, f, ConvGeometry::square(8, 8, 7, 2, 3));
        }
    }
}

/// All three kernels over every [`split_row_ranges`] row range, each at
/// the full width and at a drawn column sub-range, of one geometry.
fn check_split_regions_and_columns(case: BitCase) -> Result<(), String> {
    let geom = case.geom;
    let mut picks = Picks(case.seed | 1);
    for rows in split_row_ranges(geom.out_h()) {
        for cols in [(0, geom.out_w()), picks.sub_range(geom.out_w())] {
            check_forward(case, rows, cols, &mut picks)?;
            check_backward_filter(case, rows, cols, &mut picks)?;
        }
    }
    for rows in split_row_ranges(geom.in_h) {
        for cols in [(0, geom.in_w), picks.sub_range(geom.in_w)] {
            check_backward_data(case, rows, cols, &mut picks)?;
        }
    }
    Ok(())
}

/// Small maps — rows narrower than a full chunk of columns, where a call
/// covers all its samples and rows as one virtual row (forward, and
/// backward-data per stride phase, as it does wherever a column stride
/// phase is narrower than a chunk) or adds
/// its rows' dot products into `dw` a block of rows at a time
/// (backward-filter) — deterministically: output extents 1–7, 1–4
/// samples, 1×1 and 3×3 (pad 1) kernels at strides 1 and 2, channel and
/// filter counts on both sides of every block size, so virtual rows end
/// on and off every chunk width.
#[test]
fn small_maps_equal_reference_bitwise() {
    const CHANNELS: [usize; 9] = [1, 3, 4, 5, 8, 9, 16, 17, 33];
    let mut seed = 0x5EED_0002u64;
    let mut check = |n, c, f, geom| {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        if let Err(reproducer) = check_split_regions_and_columns(BitCase { n, c, f, geom, seed }) {
            panic!("{reproducer}");
        }
    };
    for extent in 1..=7 {
        for n in 1..=4 {
            // Input extents giving `extent` outputs: 1×1 and 3×3 (pad 1) at
            // stride 1, then at stride 2 from an odd or an even input.
            let strided = 2 * extent - n % 2;
            let geoms = [
                ConvGeometry::square(extent, extent, 1, 1, 0),
                ConvGeometry::square(strided, strided, 1, 2, 0),
                ConvGeometry::square(extent, extent, 3, 1, 1),
                ConvGeometry::square(strided, strided, 3, 2, 1),
            ];
            for (g, geom) in geoms.into_iter().enumerate() {
                // Every count once as channels, paired with a filter count
                // that shifts from one geometry to the next.
                for (i, c) in CHANNELS.into_iter().enumerate() {
                    let f = CHANNELS[(i + extent + 2 * n + 3 * g) % CHANNELS.len()];
                    check(n, c, f, geom);
                }
            }
        }
    }
    // Backward-filter rows in several blocks, the last one partial: a row
    // gathers 64·3·3 taps × 7 columns = 4 032 floats, so a 64 K-float
    // block holds 16 rows and 4 samples × 9 rows are 16 + 16 + 4.
    check(4, 64, 5, ConvGeometry::square(9, 7, 3, 1, 1));
}

/// ResNet-50's deep-stage layers at their real channel counts, two
/// samples a rank, deterministically: the 3×3 (pad 1) convolutions on
/// 1×1, 2×2, 4×4 and 4×8 maps with 64, 256 and 512 channels and filters,
/// and the 1×1 convolutions at stride 1 and 2 on 1×1, 2×2 and 4×4 maps
/// with 512 → 2048, 2048 → 512 and 1024 → 2048 channels — where a
/// backward-data phase gathers a hull of taps, or walks `w` filter by
/// filter, with more channels than any drawn case — and `res2`'s 1×1
/// convolutions on 4×8 maps, whose one-chunk rows take backward-data's
/// row path, as the 3×3 convolutions on those maps do.
#[test]
fn resnet50_shapes_equal_reference_bitwise() {
    let mut seed = 0x5EED_0003u64;
    let mut check = |c, f, geom| {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        if let Err(reproducer) = check_split_regions_and_columns(BitCase { n: 2, c, f, geom, seed })
        {
            panic!("{reproducer}");
        }
    };
    for (h, w) in [(1, 1), (2, 2), (4, 4), (4, 8)] {
        for channels in [64, 256, 512] {
            check(channels, channels, ConvGeometry::square(h, w, 3, 1, 1));
        }
    }
    for extent in [1, 2, 4] {
        for stride in 1..=2 {
            for (c, f) in [(512, 2048), (2048, 512), (1024, 2048)] {
                check(c, f, ConvGeometry::square(extent, extent, 1, stride, 0));
            }
        }
    }
    for (c, f) in [(64, 256), (256, 64)] {
        check(c, f, ConvGeometry::square(4, 8, 1, 1, 0));
    }
}

/// The mesh model's wide-row layers at its benchmark width (128² input,
/// channels divided by 8), one sample, deterministically: `conv1_1` (18
/// → 16, 5×5, stride 2, pad 2: 450 taps on 64-column rows), the 3×3
/// (pad 1) layers at stride 1 and 2 on 64-, 32- and 16-column rows with
/// 16–48 channels, and wide rows whose 12 and 20 filters end in partial
/// lane chunks — where backward-filter's lanes run across the filters and
/// its taps are read straight from the window.
#[test]
fn mesh_shapes_equal_reference_bitwise() {
    let mut seed = 0x5EED_0004u64;
    let mut check = |c, f, geom| {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        if let Err(reproducer) = check_split_regions_and_columns(BitCase { n: 1, c, f, geom, seed })
        {
            panic!("{reproducer}");
        }
    };
    check(18, 16, ConvGeometry::square(128, 128, 5, 2, 2));
    for (c, f, in_hw, stride) in [
        (16, 16, 64, 1),
        (16, 24, 128, 2),
        (24, 24, 32, 1),
        (24, 32, 64, 2),
        (32, 40, 16, 1),
        (40, 48, 32, 2),
        (48, 48, 16, 1),
        (16, 12, 64, 1),
        (16, 20, 32, 1),
    ] {
        check(c, f, ConvGeometry::square(in_hw, in_hw, 3, stride, 1));
    }
}

/// Backward-data at the edge of its row path, deterministically: a call
/// whose every column stride phase holds at least one chunk of 8 columns
/// covers each phase with full chunks over zero-padded `dy` rows, the last
/// chunk overlapping the one before, and a narrower call takes the stride
/// phases' virtual rows. 3×3 (pad 1) kernels at stride 1 and 2 with
/// phases of 7–9, 15–17, 31–33 and 63–65 columns, a 5×5 (pad 2) kernel
/// at stride 1, whose five taps take the term of any width, and 1×1 rows
/// of 8 and 16 columns, with channel and filter counts on both sides of
/// every block size. The drawn column sub-ranges start and end mid-row,
/// so the padded rows' zero columns meet the window's garbage.
#[test]
fn wide_row_phases_equal_reference_bitwise() {
    const CHANNELS: [usize; 7] = [1, 3, 4, 5, 8, 9, 17];
    let mut seed = 0x5EED_0005u64;
    let mut check = |c, f, geom| {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        if let Err(reproducer) = check_split_regions_and_columns(BitCase { n: 1, c, f, geom, seed })
        {
            panic!("{reproducer}");
        }
    };
    let mut geoms = Vec::new();
    for phase in [7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65] {
        for stride in 1..=2 {
            geoms.push(ConvGeometry::square(3, phase * stride, 3, stride, 1));
        }
    }
    for width in [8, 9, 16, 17] {
        geoms.push(ConvGeometry::square(5, width, 5, 1, 2));
    }
    for width in [8, 16] {
        geoms.push(ConvGeometry::square(2, width, 1, 1, 0));
    }
    for (g, geom) in geoms.into_iter().enumerate() {
        // Every count once as channels, paired with a filter count that
        // shifts from one geometry to the next.
        for (i, c) in CHANNELS.into_iter().enumerate() {
            check(c, CHANNELS[(i + g) % CHANNELS.len()], geom);
        }
    }
}
