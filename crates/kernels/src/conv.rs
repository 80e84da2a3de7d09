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
//! cuDNN plays this role in the paper (§IV). At P = 2 these loops *are*
//! the training step, so they are written for speed under one fixed
//! contract.
//!
//! # The order contract
//!
//! Every result element is one floating-point sum, and the order of its
//! terms is what "bitwise equal to a single device" rests on:
//!
//! * **forward** — `y[k,f,oh,ow]` starts at the bias (or `+0.0`) and adds
//!   `w·x` over `(c, r, s)`, ascending, `s` innermost;
//! * **backward-data** — `dx[k,c,ih,iw]` starts at `+0.0` and, for each
//!   valid kernel row `r` ascending and filter `f` ascending, adds
//!   `acc = Σ_s dy·w` (valid taps `s` ascending, from `+0.0`);
//! * **backward-filter** — `dw[f,c,r,s]` starts at `+0.0` and, for each
//!   `(k, oh)` ascending, adds the dot product of the `dy` row with the
//!   tap's input row, `j` ascending from `+0.0`; `db[f]` adds each row's
//!   sum in the same `(k, oh)` order.
//!
//! Loops may be reordered or split only where no element sees its terms
//! in a different order.
//!
//! # Contiguous inner loops at every stride
//!
//! Each innermost loop is a run over adjacent elements of two rows — no
//! division, no test, no strided read — which is the form the
//! autovectorizer handles.
//!
//! *Backward-data* decomposes the requested columns by stride phase. An
//! input column with `iw + pad_w = m·s_w + q` is reached only by taps
//! `s = q + e·s_w`, from output column `ow = m − e`; so within phase `q`
//! tap `e` is the dense update `t[m] += dy[m − e] · w[s]` over the range
//! of `m` with `0 ≤ m − e < out_w`, computed once per call. Kernel rows
//! decompose the same way (`r = (ih + pad_h) mod s_h, + s_h, …`). One
//! `(k, ih)` slab of `dx` — all channels — is accumulated phase by phase
//! and interleaved into place when its last term is in, so the loop
//! order is `k, ih, r, f, phase, tap, c`: a `dy` row is loaded once per
//! `(k, f, oh)`, the weights are walked at stride `kh·kw`, and zeroing
//! and adding a term are single runs over every channel, which is what
//! keeps rows of one or two elements (ResNet's deep layers) cheap.
//!
//! *Forward and backward-filter* read the window through [`TapRows`]:
//! when `stride_w > 1` the rows one call reads are copied once with
//! column `l` moved to `qoff[l mod s_w] + l / s_w`, so the elements
//! consecutive outputs read through one tap are adjacent and every tap is
//! the zip over two rows that stride 1 always was; the `(r, s)` taps of a
//! channel are one flat table of offsets.
//!
//! # Signed zeros
//!
//! Backward-data adds a phase's single tap straight into `dx` (not via
//! `0.0 + p`) and skips a phase no tap reaches (not `dx += 0.0`). Both
//! keep every bit: `dx` starts at `+0.0`, and a round-to-nearest sum is
//! `−0.0` only when both addends are, so `dx` is never `−0.0` and
//! `dx + (0.0 + p)` equals `dx + p` — they could differ only for
//! `p = −0.0`, where both leave `dx` as it was.

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

/// The window rows one forward or backward-filter call reads, in the
/// layout its inner loops want: through kernel tap `(r, s)`, output
/// `(row, j)` of the region reads element `tap_at[r·kw + s] + j` of
/// [`TapRows::rows`]`(plane, row)`. At `stride_w == 1` that is the window
/// itself; otherwise the rows are copied once with their columns grouped
/// by phase `l mod stride_w` — scratch the size of what the call reads
/// (the caller's `scratch`), gone when it returns.
struct TapRows<'a> {
    data: &'a [f32],
    /// Elements between the starts of consecutive `(k, c)` planes.
    plane: usize,
    /// Elements between the starts of consecutive rows.
    pitch: usize,
    /// Offset, within a plane, of the first row and column the call reads.
    first: usize,
    /// Per tap, in `(r, s)` order: where output column 0 reads, counted
    /// from the start of the output row's first input row.
    tap_at: Vec<usize>,
}

impl<'a> TapRows<'a> {
    /// Rows `rows` × columns `cols` (global, as returned by
    /// [`ConvGeometry::input_rows_for_output`]) of window `x`, which the
    /// caller has checked covers them. `scratch` holds the copy when one
    /// is made.
    fn new(
        x: &'a Tensor,
        x_origin: (i64, i64),
        geom: &ConvGeometry,
        rows: (i64, i64),
        cols: (i64, i64),
        scratch: &'a mut Vec<f32>,
    ) -> Self {
        let xs = x.shape();
        let row0 = (rows.0 - x_origin.0) as usize;
        let col0 = (cols.0 - x_origin.1) as usize;
        let sw = geom.stride_w;
        let rows_at = |data, plane, pitch, first, col_of: &dyn Fn(usize) -> usize| TapRows {
            data,
            plane,
            pitch,
            first,
            tap_at: (0..geom.kh)
                .flat_map(|r| (0..geom.kw).map(move |s| r * pitch + col_of(s)))
                .collect(),
        };
        if sw == 1 {
            return rows_at(x.as_slice(), xs.h * xs.w, xs.w, row0 * xs.w + col0, &|s| s);
        }
        let height = (rows.1 - rows.0) as usize;
        let width = (cols.1 - cols.0) as usize;
        // Phase q holds columns q, q + sw, …: ⌈(width − q) / sw⌉ of them.
        let mut qoff = vec![0usize; sw + 1];
        for q in 0..sw {
            qoff[q + 1] = qoff[q] + width.saturating_sub(q).div_ceil(sw);
        }
        scratch.resize(xs.n * xs.c * height * width, 0.0);
        let src = x.as_slice();
        for (p, plane) in scratch.chunks_exact_mut(height * width).enumerate() {
            let base = xs.offset(p / xs.c, p % xs.c, row0, col0);
            for (h, dst) in plane.chunks_exact_mut(width).enumerate() {
                let row = &src[base + h * xs.w..][..width];
                for q in 0..sw {
                    let phase = &mut dst[qoff[q]..qoff[q + 1]];
                    for (d, v) in phase.iter_mut().zip(row.iter().skip(q).step_by(sw)) {
                        *d = *v;
                    }
                }
            }
        }
        rows_at(scratch, height * width, width, 0, &|s| qoff[s % sw] + s / sw)
    }

    /// Everything from row `row` (counted from the first row the call
    /// reads) of plane `plane` (`k·C + c`) on, starting at the first
    /// column the call reads.
    fn rows(&self, plane: usize, row: usize) -> &[f32] {
        &self.data[plane * self.plane + self.first + row * self.pitch..]
    }
}

/// One kernel tap inside one width phase of a backward-data call: the
/// dense update `run[dst..dst + len] += dy_row[src..src + len] · w[s]`
/// of a channel's run of the phase.
struct PhaseTap {
    /// Kernel column.
    s: usize,
    /// First element of the phase row the tap reaches.
    dst: usize,
    /// Window column of the `dy` element that lands there.
    src: usize,
    /// Run length.
    len: usize,
}

/// The requested `dx` columns with one residue of `(iw + pad_w) mod
/// stride_w`.
struct WidthPhase {
    /// Columns in the phases before it: where its run starts in a
    /// phase-split row.
    start: usize,
    /// Columns in the phase.
    len: usize,
    /// Region-relative column of its first element; the rest follow at
    /// `stride_w`.
    first_col: usize,
    /// Its taps, ascending in `s`, as a range of [`WidthPhases::taps`].
    taps: std::ops::Range<usize>,
}

/// The stride-phase decomposition of one backward-data call's columns.
struct WidthPhases {
    phases: Vec<WidthPhase>,
    taps: Vec<PhaseTap>,
}

impl WidthPhases {
    /// Decompose `dx` columns `[iw0, iw1)`; `dy_col0` is the global
    /// column of the `dy` window's first element.
    fn new(geom: &ConvGeometry, (iw0, iw1): (usize, usize), dy_col0: i64) -> Self {
        let (sw, pw, out_w) = (geom.stride_w, geom.pad_w, geom.out_w());
        let mut phases = Vec::with_capacity(sw);
        let mut taps = Vec::new();
        let mut start = 0;
        for q in 0..sw {
            // Columns iw = m·sw + q − pw of the region: m ∈ [m_lo, m_hi).
            let m_lo = (iw0 + pw).saturating_sub(q).div_ceil(sw);
            let m_hi = (iw1 + pw).saturating_sub(q).div_ceil(sw);
            if m_lo == m_hi {
                continue;
            }
            let first_tap = taps.len();
            for (e, s) in (q..geom.kw).step_by(sw).enumerate() {
                // Tap s = q + e·sw reads output column m − e ∈ [0, out_w).
                let (a, b) = (m_lo.max(e), m_hi.min(out_w + e));
                if a < b {
                    let src = ((a - e) as i64 - dy_col0) as usize;
                    taps.push(PhaseTap { s, dst: a - m_lo, src, len: b - a });
                }
            }
            phases.push(WidthPhase {
                start,
                len: m_hi - m_lo,
                first_col: m_lo * sw + q - pw - iw0,
                taps: first_tap..taps.len(),
            });
            start += m_hi - m_lo;
        }
        WidthPhases { phases, taps }
    }
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
    let mut scratch = Vec::new();
    let x_rows = TapRows::new(x, x_origin, geom, (ih_lo, ih_hi), (iw_lo, iw_hi), &mut scratch);
    let w_chan = geom.kh * geom.kw;

    for k in 0..n {
        for (f, w_f) in w.as_slice().chunks_exact(c_in * w_chan).enumerate() {
            let bias_v = bias.map_or(0.0, |b| b[f]);
            for oh in oh0..oh1 {
                // Local output row accumulator.
                let y_base = y.shape().offset(k, f, oh - oh0, 0);
                let y_row = &mut y.as_mut_slice()[y_base..y_base + cols];
                y_row.fill(bias_v);
                let x_k = x_rows.rows(k * c_in, (oh - oh0) * geom.stride_h);
                for (c, w_c) in w_f.chunks_exact(w_chan).enumerate() {
                    let x_c = &x_k[c * x_rows.plane..];
                    for (&wv, &at) in w_c.iter().zip(&x_rows.tap_at) {
                        for (yv, xv) in y_row.iter_mut().zip(&x_c[at..at + cols]) {
                            *yv += wv * xv;
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
    let mut dx = Tensor::zeros(Shape4::new(n, c_out, rows, cols));
    let phases = WidthPhases::new(geom, dx_cols, dy_origin.1);
    let dys = dy.as_slice();
    let dy_shape = dy.shape();
    let w_shape = w.shape();
    let ws = w.as_slice();
    let w_chan = geom.kh * geom.kw;
    let (sh, sw) = (geom.stride_h, geom.stride_w);
    let out_h = geom.out_h();

    // One (k, ih) slab of dx, phase-major — phase `p` owns the block
    // `[C·p.start, C·(p.start + p.len))`, channel `c` its `c`-th run of
    // `p.len` — and a scratch of the same size for one (r, f) term.
    let mut slab = vec![0.0f32; c_out * cols];
    let mut term = vec![0.0f32; c_out * cols];
    for k in 0..n {
        for ih in ih0..ih1 {
            slab.fill(0.0);
            // Row ih + pad_h = mh·s_h + qh is reached by kernel rows
            // r = qh + eh·s_h from output row mh − eh.
            let (mh, qh) = ((ih + geom.pad_h) / sh, (ih + geom.pad_h) % sh);
            for (eh, r) in (qh..geom.kh).step_by(sh).enumerate() {
                if eh > mh || mh - eh >= out_h {
                    continue;
                }
                let lh = ((mh - eh) as i64 - dy_origin.0) as usize;
                for f in 0..f_in {
                    let dy_base = dy_shape.offset(k, f, lh, 0);
                    let dy_row = &dys[dy_base..dy_base + win_w];
                    // w[f][c][r][·] for c = 0, 1, … heads successive
                    // chunks of kh·kw elements from here.
                    let w_f = &ws[w_shape.offset(f, 0, r, 0)..];
                    for phase in &phases.phases {
                        let block = c_out * phase.start..c_out * (phase.start + phase.len);
                        let taps = &phases.taps[phase.taps.clone()];
                        // A lone tap adds straight into the slab; several
                        // sum into `term` first (see "Signed zeros").
                        let into = match taps.len() {
                            0 => continue,
                            1 => &mut slab[block.clone()],
                            _ => {
                                term[block.clone()].fill(0.0);
                                &mut term[block.clone()]
                            }
                        };
                        for tap in taps {
                            let src = &dy_row[tap.src..tap.src + tap.len];
                            for (run, w_c) in
                                into.chunks_exact_mut(phase.len).zip(w_f.chunks(w_chan))
                            {
                                let wv = w_c[tap.s];
                                for (d, g) in run[tap.dst..tap.dst + tap.len].iter_mut().zip(src) {
                                    *d += g * wv;
                                }
                            }
                        }
                        if taps.len() > 1 {
                            for (d, tv) in slab[block.clone()].iter_mut().zip(&term[block]) {
                                *d += tv;
                            }
                        }
                    }
                }
            }
            // Interleave the finished phase rows into dx.
            for phase in &phases.phases {
                let block = &slab[c_out * phase.start..c_out * (phase.start + phase.len)];
                for (c, run) in block.chunks_exact(phase.len).enumerate() {
                    let dx_base = dx.shape().offset(k, c, ih - ih0, phase.first_col);
                    let dx_row = &mut dx.as_mut_slice()[dx_base..];
                    for (d, v) in dx_row.iter_mut().step_by(sw).zip(run) {
                        *d = *v;
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
    let mut scratch = Vec::new();
    let x_rows = TapRows::new(x, x_origin, geom, (ih_lo, ih_hi), (iw_lo, iw_hi), &mut scratch);
    let dy_shape = dy.shape();
    let dys = dy.as_slice();
    let cols = ow1 - ow0;

    let w_chan = geom.kh * geom.kw;
    for k in 0..n {
        let dw_filters = dw.as_mut_slice().chunks_exact_mut(c_in * w_chan);
        for (f, (db_f, dw_f)) in db.iter_mut().zip(dw_filters).enumerate() {
            for oh in oh0..oh1 {
                let lh_dy = (oh as i64 - dy_origin.0) as usize;
                let lw_dy0 = (ow0 as i64 - dy_origin.1) as usize;
                let dy_base = dy_shape.offset(k, f, lh_dy, lw_dy0);
                let dy_row = &dys[dy_base..dy_base + cols];
                *db_f += dy_row.iter().sum::<f32>();
                let x_k = x_rows.rows(k * c_in, (oh - oh0) * geom.stride_h);
                for (c, dw_c) in dw_f.chunks_exact_mut(w_chan).enumerate() {
                    let x_c = &x_k[c * x_rows.plane..];
                    for (dwv, &at) in dw_c.iter_mut().zip(&x_rows.tap_at) {
                        let mut acc = 0.0f32;
                        for (g, xv) in dy_row.iter().zip(&x_c[at..at + cols]) {
                            acc += g * xv;
                        }
                        *dwv += acc;
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
