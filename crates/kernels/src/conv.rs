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
//! * **forward** — `y[k,f,oh,ow]` starts at `+0.0` and adds `w·x` over
//!   `(c, r, s)`, ascending, `s` innermost (no model's conv has a bias —
//!   the conv+BN idiom, where the batch norm's shift does its work);
//! * **backward-data** — `dx[k,c,ih,iw]` starts at `+0.0` and, for each
//!   valid kernel row `r` ascending and filter `f` ascending, adds
//!   `acc = Σ_s dy·w` (valid taps `s` ascending, from `+0.0`). A kernel
//!   may also visit, each in its place in that order, taps that reach no
//!   `dy` element from the position, reading `dy = +0.0` there: on small
//!   maps a stride phase gathers the hull of the taps that reach any of
//!   its positions, so a kernel row may reach nothing and a term may hold
//!   such taps ("Small maps"). With finite weights these inserted zeros
//!   change no bit ("Signed zeros");
//! * **backward-filter** — `dw[f,c,r,s]` starts at `+0.0` and, for each
//!   `(k, oh)` ascending, adds the dot product of the `dy` row with the
//!   tap's input row, `j` ascending from `+0.0`.
//!
//! Loops may be reordered or split only where no element sees its terms
//! in a different order.
//!
//! The contract does not depend on the instruction set the crate is
//! built for. Rust never contracts `a * b + c` into a fused multiply-add
//! (only an explicit `mul_add` does, and no kernel calls one), and LLVM
//! never reassociates a float add unless fast-math flags allow it, which
//! Rust does not set. A wider vector lane changes how many independent
//! sums advance per instruction, never which terms an element adds or in
//! what order, so an SSE2 build and an AVX2 build give the same bits.
//!
//! # One register tile under all three kernels
//!
//! Each kernel covers its result with tiles of `B` channels × `CW`
//! adjacent columns (`Tile`, `for_each_tile`): a `[[f32; CW]; B]`
//! block of sums that stays in registers for the tile's *whole*
//! reduction and is written to the result once. Inside the reduction
//! every loaded run of `CW` elements is used by all `B` channels
//! (`axpy_block`), the `CW` lanes are adjacent in memory on both sides
//! — no strided read, no test — which is the form the autovectorizer
//! handles, and the `B·CW` sums are independent add chains, so nothing
//! waits on an add's latency although no element's terms are reordered:
//! an element's sum is one lane of one tile, and the tile's loops visit
//! its terms in contract order. Tile widths come from the extents of the
//! call alone: a row is cut into chunks of 8 columns, then 4, 2, 1;
//! channels go in blocks of 4, then 1 — of 8 first under a chunk of one
//! or two columns, where there are registers to spare. Channels are
//! taken `PANEL` at a time through every row so the weights a panel
//! shares stay cached. Safe Rust throughout. Every crate is built for
//! the x86-64-v3 baseline (AVX2 + FMA, the root `.cargo/config.toml`),
//! under which a `CW = 8` run is one 256-bit register.
//!
//! * **Forward** — `B` filters × `CW` output columns of one `(k, oh)`
//!   row. The sums start at `+0.0`; for `c`, for tap `(r, s)`, one run
//!   of `x` is loaded and `w[f][c][r][s] · x` added into each filter's
//!   lanes. The window is read through `TapRows`: when `stride_w > 1`
//!   the rows one call reads are copied once with column `l` moved to
//!   `qoff[l mod s_w] + l / s_w`, so the elements consecutive outputs
//!   read through one tap are adjacent at every stride; the `(r, s)` taps
//!   of a channel are one flat table of offsets.
//! * **Backward-filter** — `B` filters × `CW` adjacent *taps*
//!   `(c, r, s)`, which are adjacent in `dw`. Per `(k, oh)` the row's
//!   inputs are gathered once into `xg[j][c·kh·kw + r·kw + s]` (through
//!   `TapRows`; `cols × C·kh·kw` floats, 115 KB for an 18-channel 5×5
//!   layer on 64-column rows, allocated once per call) and its `dy` into
//!   `dyg[j][f]`, then `acc[f][i] += dyg[j][f] · xg[j][i]` for `j`
//!   ascending from `+0.0` and `dw[f][i] += acc[f][i]`: the ascending-`j`
//!   dot product and the `(k, oh)` order of the contract, with the lanes
//!   across taps, so a row of one element is the rank-1 update it really
//!   is.
//! * **Backward-data**, on rows wider than two chunks (and the 1×1 calls
//!   "Small maps" keeps here) — `B` channels × `CW` columns of one
//!   `Segment` of one `(k, ih)` row. The requested columns decompose
//!   by stride phase (`WidthPhases`): an input column with `iw + pad_w
//!   = m·s_w + q` is reached only by taps `s = q + e·s_w`, from output
//!   column `ow = m − e`, so within phase `q` tap `e` reads the
//!   contiguous run `dy[m − e]`; each phase is cut where the set of
//!   taps reaching a column changes, so a tile sees one tap list. Kernel
//!   rows decompose the same way (`r = (ih + pad_h) mod s_h, + s_h, …`).
//!   Inside the tile, `for r { for f { term = Σ_s; acc += term } }`; the
//!   finished tile is written to `dx` at stride `s_w`.
//!
//! # Small maps
//!
//! A row narrower than one chunk of `CHUNK` columns leaves most lanes
//! idle: on ResNet-50's 4×4, 2×2 and 1×1 maps a forward tile is 4, 2 or 1
//! column wide. There forward and backward-filter take their `(k, oh)`
//! rows in blocks (`row_blocks`: as many as `BLOCK_FLOATS` of
//! gathered input hold; from `CHUNK` columns on, one row, which is the
//! loop above), and backward-data takes every call whose rows are at most
//! two chunks wide as one path:
//!
//! * **Forward** makes the block's positions `(k, oh, ow)` one virtual
//!   row (`TapRows::positions`): per channel and tap, what the
//!   positions read is gathered into one contiguous run, straight from
//!   the window with the stride folded in; the unchanged `ForwardTile`
//!   covers the row in full chunks, and its `(f, position)` results are
//!   written back to `(k, f, oh, ow)`.
//! * **Backward-filter** gathers the block's rows into one `xg` and
//!   `dyg`. Its tile loads its `dw` block once, adds each row's dot
//!   product (`j` ascending from `+0.0`) in `(k, oh)` order, and stores
//!   the block once, so `dw` is read and written once a block instead
//!   of once a row.
//! * **Backward-data** works one stride phase `(qh, qw)` at a time
//!   (`backward_data_phases`). The phase's positions `(k, ih, iw)` are
//!   one virtual row, and its taps are the hull, per axis (`AxisPhase`),
//!   of the kernel rows and columns that reach some position of the
//!   phase: a 3×3 kernel at stride 1 on a map of at least 2×2 gathers
//!   all nine taps for every position, where a row-by-row tile would see
//!   up to nine tap lists, one per border case, each only 1–2 columns
//!   wide. `dy` is gathered
//!   per filter and tap into one run over the positions, with `+0.0`
//!   where the tap reaches no output from a position, and the unchanged
//!   tile covers the run; positions of a phase no tap reaches keep their
//!   zeros. On the mesh model's 3×3 layers, rows of 16 columns gain from
//!   this (−18 %) and rows of 32 and 64 lose (+26 %, +54 %), so wider
//!   rows stay on the row path. So does a 1×1 kernel at stride 1 whose
//!   rows fill whole chunks, in blocks longer than the walk below takes
//!   (`res2`'s 1×1 layers on 4×8 maps): each of its rows already is a
//!   run of the virtual row, and the gather and scatter cost 10–25 %.
//! * A phase whose hull is a single tap — a 1×1 kernel at any stride, a
//!   3×3 kernel on a 1×1 map — walks `w` filter by filter, in memory
//!   order (`filter_major_walk`), in blocks of up to
//!   `WALK_POSITIONS` positions. The lanes run across channels; the
//!   block's positions × channels sums stay in a small buffer, and each
//!   `dy·w` is added straight in, `f` ascending, which is the lone-tap
//!   order. A tile reads only `B` floats of each filter's row, 2 KB apart
//!   on a 512-channel layer, so on `res5`'s 4 MB weight tensors it waited
//!   on memory; the walk streams them.
//!
//! No sum is reordered. A result element is still one lane of one tile
//! (or one slot of the walk's buffer), wherever its position sits in the
//! virtual row, and it sees its terms in the same order whatever the
//! gather put beside it; backward-filter's blocks still add one dot
//! product per row, from `+0.0`, in `(k, oh)` order.
//!
//! # Signed zeros
//!
//! Backward-data departs from the contract's literal form in three ways
//! that keep every bit:
//!
//! * it adds a single tap straight into the sums (not via `0.0 + p`);
//! * it leaves positions no tap reaches as `Tensor::zeros` made them
//!   (not `dx += 0.0`);
//! * on small maps it adds the products of hull taps that reach no
//!   output, `w·(+0.0)`, which is `±0.0`, and for a kernel row that
//!   reaches nothing a whole term of them, which is `+0.0`.
//!
//! No sum is ever `−0.0`: a sum starts at `+0.0`, and a round-to-nearest
//! sum is `−0.0` only when both addends are. So `acc + ±0.0 = acc` for
//! every `acc` a kernel holds (`+0.0 + −0.0` is `+0.0`), and an inserted
//! zero product, or a term made of them, adds nothing; and `acc + (0.0 +
//! p)` equals `acc + p`, since they could differ only for `p = −0.0`,
//! where both leave `acc` as it was.
//!
//! This holds while the weights are finite. An infinite or NaN weight
//! times an inserted `+0.0` is NaN, so it can turn a position it does not
//! reach into NaN, as forward's materialized padding (`w·0.0` at every
//! padded tap) already does. `dy` elements outside the valid outputs are
//! never read.

use std::borrow::Cow;
use std::ops::Range;

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

    /// A small map's virtual row: the output positions `(k, oh, ow)` of
    /// the region rows `block` (row `q` is sample `q / rows`, row `q %
    /// rows` of a region `rows × cols` whose first input element is
    /// `first`, global) in that order, `V = block.len()·cols` of them.
    /// Through tap `t`, position `p` of channel `c` reads element
    /// `tap_at[t] + p` of `rows(c, 0)` — every channel's and tap's run is
    /// contiguous. Gathered straight from the window, stride and all:
    /// `C·kh·kw·V` floats of `scratch`.
    fn positions(
        x: &Tensor,
        x_origin: (i64, i64),
        geom: &ConvGeometry,
        first: (i64, i64),
        (rows, cols): (usize, usize),
        block: Range<usize>,
        scratch: &'a mut Vec<f32>,
    ) -> Self {
        let xs = x.shape();
        let (row0, col0) = ((first.0 - x_origin.0) as usize, (first.1 - x_origin.1) as usize);
        let len = block.len() * cols;
        let taps = geom.kh * geom.kw;
        scratch.resize(xs.c * taps * len, 0.0);
        for (i, q) in block.enumerate() {
            let ih = row0 + q % rows * geom.stride_h;
            for c in 0..xs.c {
                for r in 0..geom.kh {
                    let row = &x.as_slice()[xs.offset(q / rows, c, ih + r, col0)..];
                    for s in 0..geom.kw {
                        let t = c * taps + r * geom.kw + s;
                        let run = &mut scratch[t * len + i * cols..][..cols];
                        for (d, v) in run.iter_mut().zip(row[s..].iter().step_by(geom.stride_w)) {
                            *d = *v;
                        }
                    }
                }
            }
        }
        TapRows {
            data: scratch,
            plane: taps * len,
            pitch: len,
            first: 0,
            tap_at: (0..taps).map(|t| t * len).collect(),
        }
    }

    /// Everything from row `row` (counted from the first row the call
    /// reads) of plane `plane` (`k·C + c`) on, starting at the first
    /// column the call reads.
    fn rows(&self, plane: usize, row: usize) -> &[f32] {
        &self.data[plane * self.plane + self.first + row * self.pitch..]
    }
}

/// One axis of one stride phase `q` of a backward-data call: the
/// region's coordinates `i` with `i + pad = m·stride + q`, which only the
/// kernel taps `q + e·stride` reach, tap `e` from output `m − e` where
/// that output exists.
struct AxisPhase {
    /// Region-relative index and `m` of each coordinate, ascending.
    coords: Vec<(usize, usize)>,
    /// The hull of the taps `e` that reach some coordinate; empty when
    /// none does.
    taps: Range<usize>,
    /// Output extent along the axis.
    out: usize,
    /// Kernel taps of the phase: `e < phase_taps`.
    phase_taps: usize,
}

impl AxisPhase {
    fn new(
        region: (usize, usize),
        q: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        out: usize,
    ) -> Self {
        let m_lo = (region.0 + pad).saturating_sub(q).div_ceil(stride);
        let m_hi = (region.1 + pad).saturating_sub(q).div_ceil(stride);
        let coords: Vec<_> = (m_lo..m_hi).map(|m| (m * stride + q - pad - region.0, m)).collect();
        let phase_taps = kernel.saturating_sub(q).div_ceil(stride);
        let mut axis = AxisPhase { coords, taps: 0..0, out, phase_taps };
        // Both ends of a coordinate's taps grow with `m`.
        let mut reached = axis.coords.iter().map(|&(_, m)| axis.reach(m)).filter(|e| !e.is_empty());
        if let Some(first) = reached.next() {
            axis.taps = first.start..reached.next_back().map_or(first.end, |last| last.end);
        }
        axis
    }

    /// The taps that reach coordinate `m`: `e ∈ [m + 1 − out, m]` that the
    /// phase has (`start == end` when none does).
    fn reach(&self, m: usize) -> Range<usize> {
        let hi = (m + 1).min(self.phase_taps);
        (m + 1).saturating_sub(self.out).min(hi)..hi
    }

    /// The `dy` window index tap `e` reads for coordinate `m` (the window
    /// starts at global index `origin`), or `None` where it reaches no
    /// output.
    fn source(&self, e: usize, m: usize, origin: i64) -> Option<usize> {
        self.reach(m).contains(&e).then(|| ((m - e) as i64 - origin) as usize)
    }
}

/// One kernel tap of a [`Segment`].
struct SegmentTap {
    /// Kernel column.
    s: usize,
    /// Window column of the `dy` element that lands on the segment's
    /// first column; the following columns read the following elements.
    src: usize,
}

/// A run of requested `dx` columns with one residue of `(iw + pad_w) mod
/// stride_w` that the same kernel taps reach.
struct Segment {
    /// Region-relative column of its first element; the rest follow at
    /// `stride_w`.
    first_col: usize,
    /// Columns in the segment.
    len: usize,
    /// Its taps, ascending in `s`, as a range of [`WidthPhases::taps`].
    taps: Range<usize>,
}

/// The stride-phase decomposition of one backward-data call's columns,
/// each phase cut where the set of taps reaching a column changes.
/// Columns no tap reaches are in no segment.
struct WidthPhases {
    segments: Vec<Segment>,
    taps: Vec<SegmentTap>,
}

impl WidthPhases {
    /// Decompose `dx` columns `dx_cols`; `dy_col0` is the global column of
    /// the `dy` window's first element.
    fn new(geom: &ConvGeometry, dx_cols: (usize, usize), dy_col0: i64) -> Self {
        let sw = geom.stride_w;
        let mut segments = Vec::new();
        let mut taps = Vec::new();
        for q in 0..sw {
            let axis = AxisPhase::new(dx_cols, q, geom.kw, sw, geom.pad_w, geom.out_w());
            let mut i = 0;
            while i < axis.coords.len() {
                let (first_col, m) = axis.coords[i];
                let reach = axis.reach(m);
                let len = axis.coords[i..]
                    .iter()
                    .take_while(|&&(_, next)| axis.reach(next) == reach)
                    .count();
                if !reach.is_empty() {
                    let first_tap = taps.len();
                    taps.extend(reach.map(|e| SegmentTap {
                        s: q + e * sw,
                        src: ((m - e) as i64 - dy_col0) as usize,
                    }));
                    segments.push(Segment { first_col, len, taps: first_tap..taps.len() });
                }
                i += len;
            }
        }
        WidthPhases { segments, taps }
    }
}

/// One register tile of a kernel's result: `B` channels × `CW` adjacent
/// columns, accumulated in a `[[f32; CW]; B]` local for the whole
/// reduction and written once. What a channel and a column are is the
/// kernel's business (see the module header).
trait Tile {
    /// Compute channels `[ch0, ch0 + B)` × columns `[col0, col0 + CW)`.
    fn run<const B: usize, const CW: usize>(&mut self, ch0: usize, col0: usize);
}

/// Channels a kernel takes through all of its rows together, so that the
/// weights (or weight gradients) of the panel stay cached from one row
/// and one sample to the next.
const PANEL: usize = 16;

/// `[0, channels)` in panels of [`PANEL`].
fn panels(channels: usize) -> impl Iterator<Item = Range<usize>> {
    (0..channels).step_by(PANEL).map(move |ch0| ch0..(ch0 + PANEL).min(channels))
}

/// Columns of the widest tile; a map narrower than this is a small map
/// (see the module header).
const CHUNK: usize = 8;

/// Floats of gathered input one row block of a small map may hold.
const BLOCK_FLOATS: usize = 64 * 1024;

/// A call's `(k, oh)` rows `[0, rows)` in blocks that share one gather:
/// one row at a time from [`CHUNK`] columns on, else as many rows as fit
/// in [`BLOCK_FLOATS`] at `per_col` floats a column (at least one).
fn row_blocks(rows: usize, cols: usize, per_col: usize) -> impl Iterator<Item = Range<usize>> {
    let block = if cols >= CHUNK { 1 } else { (BLOCK_FLOATS / (cols * per_col).max(1)).max(1) };
    (0..rows).step_by(block).map(move |q0| q0..(q0 + block).min(rows))
}

/// Cover `channels × [0, cols)` with tiles: the row in chunks of
/// [`CHUNK`] columns, then 4, 2, 1 as what is left of it allows, each
/// chunk in blocks of channels.
fn for_each_tile(channels: Range<usize>, cols: usize, tile: &mut impl Tile) {
    let mut col0 = 0;
    while col0 < cols {
        col0 += match cols - col0 {
            CHUNK.. => channel_blocks::<CHUNK>(channels.clone(), col0, tile),
            4.. => channel_blocks::<4>(channels.clone(), col0, tile),
            2.. => channel_blocks::<2>(channels.clone(), col0, tile),
            _ => channel_blocks::<1>(channels.clone(), col0, tile),
        };
    }
}

/// One chunk of `CW` columns in blocks of 4 channels and single
/// channels for the rest — 8 first when the chunk is narrow: a tile of
/// one or two columns has registers to spare, and the wider block halves
/// the walks over the reduction. Returns `CW`.
fn channel_blocks<const CW: usize>(
    channels: Range<usize>,
    col0: usize,
    tile: &mut impl Tile,
) -> usize {
    let mut ch0 = channels.start;
    if CW <= 2 {
        while ch0 + 8 <= channels.end {
            tile.run::<8, CW>(ch0, col0);
            ch0 += 8;
        }
    }
    while ch0 + 4 <= channels.end {
        tile.run::<4, CW>(ch0, col0);
        ch0 += 4;
    }
    while ch0 < channels.end {
        tile.run::<1, CW>(ch0, col0);
        ch0 += 1;
    }
    CW
}

/// `acc[b][i] += a[b] · v[i]`: the run `v`, loaded once, feeds every
/// channel of the block, and the `B·CW` sums are independent add chains.
#[inline(always)]
fn axpy_block<const B: usize, const CW: usize>(
    acc: &mut [[f32; CW]; B],
    a: [f32; B],
    v: &[f32; CW],
) {
    for (row, av) in acc.iter_mut().zip(a) {
        for (sum, vv) in row.iter_mut().zip(v) {
            *sum += av * vv;
        }
    }
}

/// `acc[b][i] += terms[b][i]`.
#[inline(always)]
fn add_block<const B: usize, const CW: usize>(acc: &mut [[f32; CW]; B], terms: &[[f32; CW]; B]) {
    for (sums, term) in acc.iter_mut().zip(terms) {
        for (sum, tv) in sums.iter_mut().zip(term) {
            *sum += tv;
        }
    }
}

/// The `CW` elements of `row` from `at` on.
#[inline(always)]
fn run_at<const CW: usize>(row: &[f32], at: usize) -> &[f32; CW] {
    row[at..at + CW].try_into().expect("a slice of CW elements")
}

/// Forward convolution (Eq. 1) over an output region.
///
/// * `x` — input window `(N_loc, C, win_h, win_w)`, padding materialized
///   as zeros, with global origin `x_origin` (h, w).
/// * `w` — weights `(F, C, kh, kw)`; `x` and `w` must agree on C.
/// * `bias` — must be `None`: a convolution has no bias. The argument
///   stays only because the benchmark's kernel replay passes it.
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
    assert!(bias.is_none(), "a convolution has no bias");
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
    if cols < CHUNK {
        let ys = y.shape();
        let mut y_block = Vec::new();
        for block in row_blocks(n * rows, cols, c_in * kh * kw) {
            let len = block.len() * cols;
            let x_rows = TapRows::positions(
                x,
                x_origin,
                geom,
                (ih_lo, iw_lo),
                (rows, cols),
                block.clone(),
                &mut scratch,
            );
            y_block.resize(f_out * len, 0.0);
            for filters in panels(f_out) {
                let mut tile = ForwardTile {
                    ws: w.as_slice(),
                    c_in,
                    x_rows: &x_rows,
                    x_k: x_rows.rows(0, 0),
                    y_row: &mut y_block,
                    y_plane: len,
                };
                for_each_tile(filters, len, &mut tile);
            }
            // The block's `(f, q, ow)` back to `(k, f, oh, ow)`.
            for (i, q) in block.enumerate() {
                for (f, y_f) in y_block.chunks_exact(len).enumerate() {
                    let at = ys.offset(q / rows, f, q % rows, 0);
                    y.as_mut_slice()[at..at + cols].copy_from_slice(&y_f[i * cols..][..cols]);
                }
            }
        }
        return y;
    }
    let x_rows = TapRows::new(x, x_origin, geom, (ih_lo, ih_hi), (iw_lo, iw_hi), &mut scratch);

    for filters in panels(f_out) {
        for (k, y_k) in y.as_mut_slice().chunks_exact_mut(f_out * rows * cols).enumerate() {
            for row in 0..rows {
                let mut tile = ForwardTile {
                    ws: w.as_slice(),
                    c_in,
                    x_rows: &x_rows,
                    x_k: x_rows.rows(k * c_in, row * geom.stride_h),
                    y_row: &mut y_k[row * cols..],
                    y_plane: rows * cols,
                };
                for_each_tile(filters.clone(), cols, &mut tile);
            }
        }
    }
    y
}

/// Forward's tile: `B` filters × `CW` adjacent output columns of one
/// `(k, oh)` row, or positions of a small map's virtual row.
struct ForwardTile<'a> {
    ws: &'a [f32],
    c_in: usize,
    x_rows: &'a TapRows<'a>,
    /// Channel 0's window rows from the output row's first input row on.
    x_k: &'a [f32],
    /// Filter 0's output row; filter `f`'s is `f · y_plane` further on.
    y_row: &'a mut [f32],
    y_plane: usize,
}

impl Tile for ForwardTile<'_> {
    fn run<const B: usize, const CW: usize>(&mut self, f0: usize, col0: usize) {
        let taps = &self.x_rows.tap_at;
        let w_filter = self.c_in * taps.len();
        let w_f: [&[f32]; B] = std::array::from_fn(|b| &self.ws[(f0 + b) * w_filter..][..w_filter]);
        let mut acc = [[0.0f32; CW]; B];
        for c in 0..self.c_in {
            let x_c = &self.x_k[c * self.x_rows.plane + col0..];
            for (t, &at) in taps.iter().enumerate() {
                let q = c * taps.len() + t;
                axpy_block(&mut acc, std::array::from_fn(|b| w_f[b][q]), run_at(x_c, at));
            }
        }
        for (b, sums) in acc.iter().enumerate() {
            self.y_row[(f0 + b) * self.y_plane + col0..][..CW].copy_from_slice(sums);
        }
    }
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
    // Rows up to two chunks wide: one virtual row per stride phase. A 1×1
    // kernel at stride 1 whose rows fill whole chunks, in blocks too long
    // for the walk, stays on the row path: its rows already are the
    // phase's virtual row, so the gather and scatter would be pure cost.
    let rows_are_the_row = (kh, kw, geom.stride_h, geom.stride_w) == (1, 1, 1, 1)
        && cols % CHUNK == 0
        && (BLOCK_FLOATS / f_in).min(n * rows * cols) > WALK_POSITIONS;
    if cols <= 2 * CHUNK && !rows_are_the_row {
        backward_data_phases(dy, dy_origin, w, geom, dx_rows, dx_cols, &mut dx);
        return dx;
    }
    let phases = WidthPhases::new(geom, dx_cols, dy_origin.1);
    // Per dx row, the kernel rows reaching it, each with the dy window row
    // it reads there.
    let sh = geom.stride_h;
    let mut row_taps: Vec<Vec<(usize, usize)>> = vec![Vec::new(); rows];
    for qh in 0..sh {
        let axis = AxisPhase::new(dx_rows, qh, geom.kh, sh, geom.pad_h, geom.out_h());
        for &(i, mh) in &axis.coords {
            let lh = |eh| axis.source(eh, mh, dy_origin.0).expect("a reaching tap");
            row_taps[i] = axis.reach(mh).map(|eh| (qh + eh * sh, lh(eh))).collect();
        }
    }
    for channels in panels(c_out) {
        for (k, dx_k) in dx.as_mut_slice().chunks_exact_mut(c_out * rows * cols).enumerate() {
            let dy_k = &dy.as_slice()[k * f_in * win_h * win_w..][..f_in * win_h * win_w];
            for (i, taps_i) in row_taps.iter().enumerate() {
                for segment in &phases.segments {
                    let mut tile = BackwardDataTile {
                        dy_k,
                        dy_plane: win_h * win_w,
                        win_w,
                        f_in,
                        ws: w.as_slice(),
                        w_filter: c_out * geom.kh * geom.kw,
                        geom,
                        row_taps: taps_i,
                        taps: &phases.taps[segment.taps.clone()],
                        dx_row: &mut dx_k[i * cols + segment.first_col..],
                        dx_plane: rows * cols,
                        dx_step: geom.stride_w,
                    };
                    for_each_tile(channels.clone(), segment.len, &mut tile);
                }
            }
        }
    }
    dx
}

/// Positions of a single-tap block up to which [`filter_major_walk`] is
/// taken: from there on the tile, whose weights each serve a chunk of
/// positions from registers, is faster.
const WALK_POSITIONS: usize = 4 * CHUNK;

/// Floats of sums one pass of [`filter_major_walk`] keeps: positions ×
/// channels, sized to stay in the L1 cache beside a weight row.
const WALK_FLOATS: usize = 4 * 1024;

/// Backward-data on a call whose rows are at most two chunks wide: per
/// stride phase `(qh, qw)`, the phase's `dx` positions `(k, ih, iw)` are
/// one virtual row, taken in blocks of as many positions as
/// [`BLOCK_FLOATS`] of gathered `dy` hold. The phase's taps are the hulls
/// of its [`AxisPhase`]s, `R` kernel rows × `S` kernel columns, and `dy`
/// is gathered so that what the `V` positions of a block read through
/// row tap `i` and column tap `e` of filter `f` is one run,
/// `dyv[((f·R + i)·S + e)·V + p]`, holding `+0.0` where that tap reaches
/// no output from the position. The block's sums, `dxv[c·V + p]`, go
/// back to `(k, c, ih, iw)`; positions of phases no tap reaches keep
/// their zeros.
fn backward_data_phases(
    dy: &Tensor,
    dy_origin: (i64, i64),
    w: &Tensor,
    geom: &ConvGeometry,
    dx_rows: (usize, usize),
    dx_cols: (usize, usize),
    dx: &mut Tensor,
) {
    let (dys, f_in) = (dy.shape(), dy.shape().c);
    let ds = dx.shape();
    let ConvGeometry { kh, kw, stride_h, stride_w, pad_h, pad_w, .. } = *geom;
    let (mut at, mut dyv, mut dxv, mut dst) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for qh in 0..stride_h {
        let rows = AxisPhase::new(dx_rows, qh, kh, stride_h, pad_h, geom.out_h());
        for qw in 0..stride_w {
            let cols = AxisPhase::new(dx_cols, qw, kw, stride_w, pad_w, geom.out_w());
            let (nr, ns) = (rows.taps.len(), cols.taps.len());
            if nr * ns == 0 {
                continue;
            }
            let per_sample = rows.coords.len() * cols.coords.len();
            let position = |p: usize| {
                let (k, q) = (p / per_sample, p % per_sample);
                (k, rows.coords[q / cols.coords.len()], cols.coords[q % cols.coords.len()])
            };
            let block = (BLOCK_FLOATS / (f_in * nr * ns)).max(1);
            for p0 in (0..ds.n * per_sample).step_by(block) {
                let len = block.min(ds.n * per_sample - p0);
                // Per tap `i·S + e` and position: where filter 0's `dy`
                // element is, or `usize::MAX` for a `+0.0`.
                at.resize(nr * ns * len, 0);
                dst.clear();
                for p in 0..len {
                    let (k, (ih, mh), (iw, mw)) = position(p0 + p);
                    dst.push(ds.offset(k, 0, ih, iw));
                    for (i, eh) in rows.taps.clone().enumerate() {
                        let lh = rows.source(eh, mh, dy_origin.0);
                        for (e, ew) in cols.taps.clone().enumerate() {
                            at[(i * ns + e) * len + p] =
                                match (lh, cols.source(ew, mw, dy_origin.1)) {
                                    (Some(lh), Some(lw)) => dys.offset(k, 0, lh, lw),
                                    _ => usize::MAX,
                                };
                        }
                    }
                }
                dyv.resize(f_in * nr * ns * len, 0.0);
                let f_stride = dys.h * dys.w;
                for (f, dyv_f) in dyv.chunks_exact_mut(nr * ns * len).enumerate() {
                    for (d, &a) in dyv_f.iter_mut().zip(&at) {
                        *d = if a == usize::MAX { 0.0 } else { dy.as_slice()[a + f * f_stride] };
                    }
                }
                dxv.resize(ds.c * len, 0.0);
                let row_tap = |i: usize| qh + (rows.taps.start + i) * stride_h;
                let col_tap = |e: usize| qw + (cols.taps.start + e) * stride_w;
                if nr * ns == 1 && len <= WALK_POSITIONS {
                    filter_major_walk(&dyv, w, row_tap(0) * kw + col_tap(0), len, &mut dxv);
                } else {
                    let row_taps: Vec<(usize, usize)> = (0..nr).map(|i| (row_tap(i), i)).collect();
                    let taps: Vec<SegmentTap> =
                        (0..ns).map(|e| SegmentTap { s: col_tap(e), src: e * len }).collect();
                    let mut tile = BackwardDataTile {
                        dy_k: &dyv,
                        dy_plane: nr * ns * len,
                        win_w: ns * len,
                        f_in,
                        ws: w.as_slice(),
                        w_filter: ds.c * kh * kw,
                        geom,
                        row_taps: &row_taps,
                        taps: &taps,
                        dx_row: &mut dxv,
                        dx_plane: len,
                        dx_step: 1,
                    };
                    for channels in panels(ds.c) {
                        for_each_tile(channels, len, &mut tile);
                    }
                }
                for (c, dx_c) in dxv.chunks_exact(len).enumerate() {
                    for (&to, v) in dst.iter().zip(dx_c) {
                        dx.as_mut_slice()[to + c * ds.h * ds.w] = *v;
                    }
                }
            }
        }
    }
}

/// Backward-data where one kernel tap, `tap = r·kw + s`, is a phase's
/// whole hull: `w` is walked filter by filter, in memory order, and each
/// `dy·w` is added straight into the sums, `f` ascending (see "Signed
/// zeros"). The lanes run across channels. A pass keeps the sums of the
/// block's `len` positions × a run of `width` channels (at most
/// [`WALK_FLOATS`] floats), `sums[p·width + c]`; each filter's weights
/// for the run, part of one row of `w` for a 1×1 kernel, are loaded once
/// for four positions. `dyv[f·len + p]` is the gathered `dy`; the sums
/// land in `dxv[c·len + p]`.
///
/// Never inlined: compiled into [`backward_data_phases`] it costs the
/// tile there its register allocation (a 3×3 layer on 2×2 maps read
/// 0.97 ms against 0.56 ms).
#[inline(never)]
fn filter_major_walk(dyv: &[f32], w: &Tensor, tap: usize, len: usize, dxv: &mut [f32]) {
    let c_out = w.shape().c;
    let taps = w.shape().h * w.shape().w;
    let width = (WALK_FLOATS / len / CHUNK * CHUNK).max(CHUNK).min(c_out);
    let (mut sums, mut w_run) = (vec![0.0f32; len * width], vec![0.0f32; width]);
    for c0 in (0..c_out).step_by(width) {
        let run = width.min(c_out - c0);
        let sums = &mut sums[..len * run];
        sums.fill(0.0);
        for (f, dy_f) in dyv.chunks_exact(len).enumerate() {
            let w_f = &w.as_slice()[(f * c_out + c0) * taps..][..run * taps];
            let w_f: &[f32] = if taps == 1 {
                w_f
            } else {
                for (d, channel) in w_run.iter_mut().zip(w_f.chunks_exact(taps)) {
                    *d = channel[tap];
                }
                &w_run[..run]
            };
            let mut fours = sums.chunks_exact_mut(4 * run);
            for (four, d) in (&mut fours).zip(dy_f.chunks_exact(4)) {
                let (s0, rest) = four.split_at_mut(run);
                let (s1, rest) = rest.split_at_mut(run);
                let (s2, s3) = rest.split_at_mut(run);
                let sums = s0.iter_mut().zip(s1.iter_mut()).zip(s2.iter_mut()).zip(s3.iter_mut());
                for ((((a0, a1), a2), a3), wv) in sums.zip(w_f) {
                    *a0 += d[0] * wv;
                    *a1 += d[1] * wv;
                    *a2 += d[2] * wv;
                    *a3 += d[3] * wv;
                }
            }
            let rest = fours.into_remainder();
            for (sums_p, &d) in rest.chunks_exact_mut(run).zip(&dy_f[len / 4 * 4..]) {
                for (sum, wv) in sums_p.iter_mut().zip(w_f) {
                    *sum += d * wv;
                }
            }
        }
        for (p, sums_p) in sums.chunks_exact(run).enumerate() {
            for (c, v) in sums_p.iter().enumerate() {
                dxv[(c0 + c) * len + p] = *v;
            }
        }
    }
}

/// Backward-data's tile: `B` channels × `CW` columns of one
/// [`Segment`] of one `(k, ih)` row, or positions of a small map's
/// virtual row.
struct BackwardDataTile<'a> {
    /// Sample `k`'s `dy` window, filter `f`'s plane at `f · dy_plane`.
    dy_k: &'a [f32],
    dy_plane: usize,
    win_w: usize,
    f_in: usize,
    ws: &'a [f32],
    /// Elements between consecutive filters of `ws`.
    w_filter: usize,
    geom: &'a ConvGeometry,
    /// Kernel row and `dy` window row of every row tap, `r` ascending.
    row_taps: &'a [(usize, usize)],
    /// The segment's column taps, `s` ascending.
    taps: &'a [SegmentTap],
    /// Channel 0's row from the segment's first column on, the segment's
    /// columns `dx_step` apart; channel `c`'s is `c · dx_plane` further.
    dx_row: &'a mut [f32],
    dx_plane: usize,
    dx_step: usize,
}

impl BackwardDataTile<'_> {
    /// Calls `each(w_at, dy_at)` for every row tap and filter in contract
    /// order, `r` outer: `w[f][c0][r][0]` is at `w_at` with the block's
    /// following channels `kh·kw` apart, and the filter's dy row starts,
    /// from column `col0` of the segment on, at `dy_at`.
    #[inline(always)]
    fn for_each_filter(&self, c0: usize, col0: usize, mut each: impl FnMut(usize, usize)) {
        for &(r, lh) in self.row_taps {
            let mut w_at = (c0 * self.geom.kh + r) * self.geom.kw;
            let mut dy_at = lh * self.win_w + col0;
            for _ in 0..self.f_in {
                each(w_at, dy_at);
                w_at += self.w_filter;
                dy_at += self.dy_plane;
            }
        }
    }

    /// One tap's operands at a filter: the block's weights and the dy
    /// run.
    #[inline(always)]
    fn operands<const B: usize, const CW: usize>(
        &self,
        w_at: usize,
        dy_at: usize,
        tap: &SegmentTap,
    ) -> ([f32; B], &[f32; CW]) {
        let w_chan = self.geom.kh * self.geom.kw;
        let wv = std::array::from_fn(|b| self.ws[w_at + b * w_chan + tap.s]);
        (wv, run_at(self.dy_k, dy_at + tap.src))
    }

    /// The tile's sums where one tap reaches the segment: every
    /// `(r, f)` term is a single product and adds straight into the sums
    /// (see "Signed zeros").
    ///
    /// Never inlined, and neither is [`Self::term_sums`]: compiled into
    /// one body the two reductions share a register allocation that
    /// spills this one's accumulators (a 1×1 layer of ResNet-50's second
    /// stage reads 3.3 ms against 0.8 ms).
    #[inline(never)]
    fn lone_tap_sums<const B: usize, const CW: usize>(
        &self,
        c0: usize,
        col0: usize,
        tap: &SegmentTap,
    ) -> [[f32; CW]; B] {
        let mut acc = [[0.0f32; CW]; B];
        self.for_each_filter(c0, col0, |w_at, dy_at| {
            let (wv, dy_run) = self.operands(w_at, dy_at, tap);
            axpy_block(&mut acc, wv, dy_run);
        });
        acc
    }

    /// The tile's sums where several taps reach the segment: every
    /// `(r, f)` term is summed over the taps from `+0.0`, `s` ascending,
    /// then added.
    #[inline(never)]
    fn term_sums<const B: usize, const CW: usize>(&self, c0: usize, col0: usize) -> [[f32; CW]; B] {
        let mut acc = [[0.0f32; CW]; B];
        self.for_each_filter(c0, col0, |w_at, dy_at| {
            let mut terms = [[0.0f32; CW]; B];
            for tap in self.taps {
                let (wv, dy_run) = self.operands(w_at, dy_at, tap);
                axpy_block(&mut terms, wv, dy_run);
            }
            add_block(&mut acc, &terms);
        });
        acc
    }
}

impl Tile for BackwardDataTile<'_> {
    fn run<const B: usize, const CW: usize>(&mut self, c0: usize, col0: usize) {
        let acc = match self.taps {
            [tap] => self.lone_tap_sums::<B, CW>(c0, col0, tap),
            _ => self.term_sums::<B, CW>(c0, col0),
        };
        let step = self.dx_step;
        for (b, sums) in acc.iter().enumerate() {
            let dx_c = &mut self.dx_row[(c0 + b) * self.dx_plane + col0 * step..];
            for (d, v) in dx_c.iter_mut().step_by(step).zip(sums) {
                *d = *v;
            }
        }
    }
}

/// Backward-filter convolution (Eq. 2) over an output region: the local
/// contribution to `dL/dw` from the error-signal block
/// `dy_rows × dy_cols`. The distributed layer allreduces these partials
/// across ranks (the sums over N, H, W in Eq. 2).
///
/// * `x` — input window with origin `x_origin` (same window forward used).
/// * `dy` — error-signal window with origin `dy_origin`; only the
///   requested region is read, so a margin-free shard works.
///
/// Returns `dw` of shape `(F, C, kh, kw)`.
pub fn conv2d_backward_filter_region(
    x: &Tensor,
    x_origin: (i64, i64),
    dy: &Tensor,
    dy_origin: (i64, i64),
    geom: &ConvGeometry,
    dy_rows: (usize, usize),
    dy_cols: (usize, usize),
) -> Tensor {
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
    let mut scratch = Vec::new();
    let x_rows = TapRows::new(x, x_origin, geom, (ih_lo, ih_hi), (iw_lo, iw_hi), &mut scratch);
    let dy_shape = dy.shape();
    let dy_plane = dy_shape.h * dy_shape.w;
    let cols = ow1 - ow0;

    // A block of `(k, oh)` rows, gathered per output column j of its row
    // i: `xg[(i·cols + j) · taps + c·kh·kw + r·kw + s]` is what the column
    // reads through tap (c, r, s), `dyg[(i·cols + j) · F + f]` its `dy`.
    let taps = c_in * geom.kh * geom.kw;
    let rows = oh1 - oh0;
    let lw_dy0 = (ow0 as i64 - dy_origin.1) as usize;
    let (mut xg, mut dyg) = (Vec::new(), Vec::new());
    for block in row_blocks(n * rows, cols, taps) {
        xg.resize(block.len() * cols * taps, 0.0);
        dyg.resize(block.len() * cols * f_out, 0.0);
        let gathered = xg.chunks_exact_mut(cols * taps).zip(dyg.chunks_exact_mut(cols * f_out));
        for (q, (xg_q, dyg_q)) in block.clone().zip(gathered) {
            let (k, oh) = (q / rows, oh0 + q % rows);
            let lh_dy = (oh as i64 - dy_origin.0) as usize;
            let dy_k = &dy.as_slice()[dy_shape.offset(k, 0, lh_dy, lw_dy0)..];
            for (f, dy_row) in dy_k.chunks(dy_plane).take(f_out).enumerate() {
                for (g, v) in dyg_q[f..].iter_mut().step_by(f_out).zip(&dy_row[..cols]) {
                    *g = *v;
                }
            }
            let x_k = x_rows.rows(k * c_in, (oh - oh0) * geom.stride_h);
            for (c, x_c) in x_k.chunks(x_rows.plane).take(c_in).enumerate() {
                for (t, &at) in x_rows.tap_at.iter().enumerate() {
                    let column = xg_q[c * x_rows.tap_at.len() + t..].iter_mut().step_by(taps);
                    for (g, xv) in column.zip(&x_c[at..at + cols]) {
                        *g = *xv;
                    }
                }
            }
        }
        let mut tile = BackwardFilterTile {
            xg: &xg,
            taps,
            dyg: &dyg,
            filters: f_out,
            rows: block.len(),
            cols,
            dw: dw.as_mut_slice(),
        };
        for filters in panels(f_out) {
            for_each_tile(filters, taps, &mut tile);
        }
    }
    dw
}

/// Backward-filter's tile: `B` filters × `CW` adjacent taps `(c, r, s)`
/// of `dw`, through one block of `(k, oh)` rows.
struct BackwardFilterTile<'a> {
    /// The block's gathered inputs, `taps` per output column.
    xg: &'a [f32],
    taps: usize,
    /// The block's gathered `dy`, `filters` per output column.
    dyg: &'a [f32],
    filters: usize,
    /// Rows in the block and output columns per row.
    rows: usize,
    cols: usize,
    dw: &'a mut [f32],
}

impl Tile for BackwardFilterTile<'_> {
    /// The block of `dw` is loaded once, gains each row's dot product in
    /// row order, and is stored once.
    fn run<const B: usize, const CW: usize>(&mut self, f0: usize, tap0: usize) {
        let dw_at = |b: usize| (f0 + b) * self.taps + tap0;
        let mut sums: [[f32; CW]; B] = std::array::from_fn(|b| *run_at(self.dw, dw_at(b)));
        let (mut dy_at, mut xg_at) = (f0, tap0);
        for _ in 0..self.rows {
            let mut acc = [[0.0f32; CW]; B];
            for _ in 0..self.cols {
                axpy_block(&mut acc, *run_at(self.dyg, dy_at), run_at(self.xg, xg_at));
                dy_at += self.filters;
                xg_at += self.taps;
            }
            add_block(&mut sums, &acc);
        }
        for (b, row) in sums.iter().enumerate() {
            self.dw[dw_at(b)..][..CW].copy_from_slice(row);
        }
    }
}

/// Serial forward convolution with symmetric zero padding.
pub fn conv2d_forward(x: &Tensor, w: &Tensor, geom: &ConvGeometry) -> Tensor {
    let padded = pad_window(x, geom.pad_h, geom.pad_w);
    conv2d_forward_region(
        &padded,
        (-(geom.pad_h as i64), -(geom.pad_w as i64)),
        w,
        None,
        geom,
        (0, geom.out_h()),
        (0, geom.out_w()),
    )
}

/// Serial backward-data convolution.
pub fn conv2d_backward_data(dy: &Tensor, w: &Tensor, geom: &ConvGeometry) -> Tensor {
    conv2d_backward_data_region(dy, (0, 0), w, geom, (0, geom.in_h), (0, geom.in_w))
}

/// Serial backward-filter convolution; returns `dw`.
pub fn conv2d_backward_filter(x: &Tensor, dy: &Tensor, geom: &ConvGeometry) -> Tensor {
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

/// `x` with `ph`/`pw` margins of zeros on each spatial side
/// (materialized padding): a copy, or `x` itself when there is nothing to
/// add.
fn pad_window(x: &Tensor, ph: usize, pw: usize) -> Cow<'_, Tensor> {
    if ph == 0 && pw == 0 {
        return Cow::Borrowed(x);
    }
    let s = x.shape();
    let mut out = Tensor::zeros(Shape4::new(s.n, s.c, s.h + 2 * ph, s.w + 2 * pw));
    out.copy_box_from(
        &fg_tensor::Box4::new([0, 0, ph, pw], [s.n, s.c, ph + s.h, pw + s.w]),
        x,
        &s.full_box(),
    );
    Cow::Owned(out)
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
    fn conv_reference(x: &Tensor, w: &Tensor, g: &ConvGeometry) -> Tensor {
        let xs = x.shape();
        let wsh = w.shape();
        let mut y = Tensor::zeros(Shape4::new(xs.n, wsh.n, g.out_h(), g.out_w()));
        for k in 0..xs.n {
            for f in 0..wsh.n {
                for oh in 0..g.out_h() {
                    for ow in 0..g.out_w() {
                        let mut acc = 0.0;
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
            let got = conv2d_forward(&x, &w, &g);
            let want = conv_reference(&x, &w, &g);
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
        let full = conv2d_forward(&x, &w, &g);
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
            let y = conv2d_forward(x, w, &g);
            y.as_slice().iter().zip(q.as_slice()).map(|(a, b)| (*a as f64) * (*b as f64)).sum()
        };
        let dx = conv2d_backward_data(&q, &w, &g);
        let dw = conv2d_backward_filter(&x, &q, &g);

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
