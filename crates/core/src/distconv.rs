//! Distributed-memory convolution (paper §III-A): sample, spatial, and
//! hybrid sample/spatial parallelism.
//!
//! A [`DistConv2d`] binds a convolution geometry to a process grid. The
//! grid factorizes the world into `n × h × w` ranks (`c` must be 1:
//! channel/filter partitioning is not supported):
//!
//! * `grid = (P, 1, 1, 1)` — pure sample parallelism (the data-parallel
//!   baseline): no halo, weight-gradient allreduce only;
//! * `grid = (1, 1, ph, pw)` — pure spatial parallelism: halo exchanges
//!   in forward and backward-data, plus the allreduce;
//! * `grid = (pn, 1, ph, pw)` — the paper's hybrid: samples partitioned
//!   into `pn` groups, each sample split spatially `ph × pw` ways.
//!
//! The forward/backward-data halos are sized from the convolution
//! geometry per §III-A (the `O = ⌊K/2⌋` rows/columns, adjusted for
//! stride), computed as uniform bounds over all ranks so every shard
//! shares one layout. All compute runs through the region kernels of
//! `fg-kernels`, so results are **bitwise identical** to a single-device
//! run — the paper's exact-replication property.
//!
//! Both passes run the §IV-A schedule. The paper's implementation
//! "automatically decomposes an input tensor into its interior domain and
//! boundary domains and calls cuDNN convolution kernels for each region
//! separately so that halo exchanges can be run concurrently with the
//! convolution of the interior domain." [`DistConv2d::forward`] posts the
//! halo sends, computes the *interior* output region (outputs whose
//! receptive fields lie entirely in the owned block, an
//! [`InteriorPlan`]), completes the receives, then computes the (up to
//! four) boundary strips; a rank with no halo to receive computes its
//! output block in one call. [`DistConv2d::backward`] hides the `dL/dy` halo
//! behind the filter gradient, which needs none. On the thread-simulated
//! communicator sends are eager and receives block, so the ordering is
//! executed for real; the latency benefit is priced by the overlapped
//! halo terms of `fg-perf`.

use fg_comm::{AllreduceAlgorithm, Collectives, Communicator, ReduceOp};
use fg_kernels::conv::{
    conv2d_backward_data_region, conv2d_backward_filter_region, conv2d_forward_region, ConvGeometry,
};
use fg_tensor::halo::{finish_halo_exchange, start_halo_exchange, HaloPlan};
use fg_tensor::{Box4, DistTensor, ProcGrid, Shape4, Tensor, TensorDist, NDIMS};

use crate::layers::{check_window, window_len, LayerBufs};

/// Margins `(below, above)` for one dimension.
type DimMargins = (usize, usize);

/// A distributed 2-D convolution layer bound to a process grid.
#[derive(Debug, Clone)]
pub struct DistConv2d {
    /// Convolution geometry (global extents).
    pub geom: ConvGeometry,
    /// Distribution of the input `x` (shape `N×C×H×W` over the grid).
    pub in_dist: TensorDist,
    /// Distribution of the output `y` (shape `N×F×OH×OW`, same grid).
    pub out_dist: TensorDist,
    /// Margins of the forward input window.
    pub x_margins: ([usize; NDIMS], [usize; NDIMS]),
    /// Margins of the backward-data error-signal window.
    pub dy_margins: ([usize; NDIMS], [usize; NDIMS]),
}

impl DistConv2d {
    /// Create the layer for a mini-batch of `n` samples with `c` input
    /// channels and `f` filters, over `grid` (whose `c` extent must be 1).
    ///
    /// Panics if the grid cannot partition the problem (more ranks than
    /// rows on some dimension, or a spatial shard smaller than its halo —
    /// the degenerate cases §III-A calls out as better served by other
    /// parallelism).
    pub fn new(n: usize, c: usize, f: usize, geom: ConvGeometry, grid: ProcGrid) -> Self {
        let in_shape = Shape4::new(n, c, geom.in_h, geom.in_w);
        let out_shape = Shape4::new(n, f, geom.out_h(), geom.out_w());
        Self::with_dists(geom, TensorDist::new(in_shape, grid), TensorDist::new(out_shape, grid))
    }

    /// Create the layer from explicit input/output distributions (which
    /// may carry non-uniform weights — gray-failure rebalancing). Margins
    /// are computed from the distributions' actual block boundaries, so
    /// weighted layouts get correctly sized halos.
    pub fn with_dists(geom: ConvGeometry, in_dist: TensorDist, out_dist: TensorDist) -> Self {
        let grid = in_dist.grid;
        assert_eq!(grid.c, 1, "channel/filter partitioning (grid.c > 1) is not supported");
        assert_eq!(out_dist.grid, grid, "conv input and output must share a grid");
        let in_shape = in_dist.shape;
        assert!(
            in_dist.is_fully_populated() && out_dist.is_fully_populated(),
            "grid {grid} leaves ranks without work for conv {geom:?} on {in_shape}"
        );

        // Forward x window: covers input rows/cols needed by the owned
        // output block. Uniform over ranks (max per side).
        let (h_lo, h_hi) = margin_bound(grid.h, |g| {
            let ob = out_dist.dim_range(2, g);
            let ib = in_dist.dim_range(2, g);
            let (lo, hi) = geom.input_rows_for_output(ob.start, ob.end);
            (ib.start as i64 - lo, hi - ib.end as i64)
        });
        let (w_lo, w_hi) = margin_bound(grid.w, |g| {
            let ob = out_dist.dim_range(3, g);
            let ib = in_dist.dim_range(3, g);
            let (lo, hi) = geom.input_cols_for_output(ob.start, ob.end);
            (ib.start as i64 - lo, hi - ib.end as i64)
        });
        let x_margins = ([0, 0, h_lo, w_lo], [0, 0, h_hi, w_hi]);

        // Backward dy window: covers output rows/cols contributing to the
        // owned input block.
        let (dh_lo, dh_hi) = margin_bound(grid.h, |g| {
            let ib = in_dist.dim_range(2, g);
            let ob = out_dist.dim_range(2, g);
            let (lo, hi) = geom.output_rows_for_input(ib.start, ib.end);
            (ob.start as i64 - lo as i64, hi as i64 - ob.end as i64)
        });
        let (dw_lo, dw_hi) = margin_bound(grid.w, |g| {
            let ib = in_dist.dim_range(3, g);
            let ob = out_dist.dim_range(3, g);
            let (lo, hi) = geom.output_cols_for_input(ib.start, ib.end);
            (ob.start as i64 - lo as i64, hi as i64 - ob.end as i64)
        });
        let dy_margins = ([0, 0, dh_lo, dw_lo], [0, 0, dh_hi, dw_hi]);

        DistConv2d { geom, in_dist, out_dist, x_margins, dy_margins }
    }

    /// The forward halo plan for this rank's input window — pure
    /// geometry, compiled once per layer by the executor.
    pub fn x_halo_plan(&self, rank: usize) -> HaloPlan {
        HaloPlan::for_layout(&self.in_dist, rank, self.x_margins.0, self.x_margins.1)
    }

    /// The backward-data halo plan for this rank's error-signal window.
    pub fn dy_halo_plan(&self, rank: usize) -> HaloPlan {
        HaloPlan::for_layout(&self.out_dist, rank, self.dy_margins.0, self.dy_margins.1)
    }

    /// The sizes of the two windows this rank's passes build: the one
    /// sizing function of the layer. The memory analyzer books it, and
    /// [`DistConv2d::forward`] / [`DistConv2d::backward`] assert every
    /// window they build against it.
    pub fn window_elems(&self, rank: usize) -> LayerBufs {
        LayerBufs {
            window_elems: window_len(&self.in_dist, rank, self.x_margins),
            dy_window_elems: window_len(&self.out_dist, rank, self.dy_margins),
        }
    }

    /// Forward propagation (Eq. 1) with the §IV-A overlap: (1) post the
    /// halo sends along `x_halo`, (2) compute `interior`'s interior
    /// region, (3) complete the receives, (4) compute the boundary strips.
    /// A rank that receives no halo (on every sample-parallel layer, for
    /// one) computes its whole output block at (2) instead.
    /// Takes the unpadded input shard; returns `(y, x_window)`, the window
    /// kept for the filter gradient.
    ///
    /// Collective over `comm` (world size must equal the grid size); the
    /// plans are this rank's [`DistConv2d::x_halo_plan`] and
    /// [`InteriorPlan::build`].
    pub fn forward<C: Communicator>(
        &self,
        comm: &C,
        x: &DistTensor,
        w: &Tensor,
        x_halo: &HaloPlan,
        interior: &InteriorPlan,
    ) -> (DistTensor, DistTensor) {
        debug_assert_eq!(*x.dist(), self.in_dist, "input shard has wrong distribution");
        // Window with owned data; margins zero until the exchange completes.
        let mut win = x.to_window(self.x_margins.0, self.x_margins.1);
        check_window(self, "x", &win, self.window_elems(comm.rank()).window_elems);
        let tag = start_halo_exchange(comm, &win, x_halo);

        let mut y = DistTensor::new_unpadded(self.out_dist.clone(), comm.rank());
        let origin = (win.origin()[2], win.origin()[3]);
        let ob = y.own_box();
        let mut compute = |win: &DistTensor, (rows, cols): ((usize, usize), (usize, usize))| {
            let t = conv2d_forward_region(win.local(), origin, w, None, &self.geom, rows, cols);
            write_region(&mut y, rows, cols, &t, &ob);
        };
        // With nothing to receive, the window is complete already and the
        // owned block is one call: forward's bits do not depend on the
        // region.
        let (before, after) = if x_halo.recvs.is_empty() {
            (Some(((ob.lo[2], ob.hi[2]), (ob.lo[3], ob.hi[3]))), &[][..])
        } else {
            (interior.interior, &interior.boundary[..])
        };
        if let Some(region) = before {
            compute(&win, region);
        }
        finish_halo_exchange(comm, &mut win, x_halo, tag);
        for &region in after {
            compute(&win, region);
        }
        (y, win)
    }

    /// Backward pass with the §IV-A task-parallel schedule: "we exploit
    /// the task-level parallelism of backward data and filter
    /// convolutions to hide the halo exchange for the data convolution
    /// within the filter convolution. Note that the filter convolution
    /// does not require halo exchanges."
    ///
    /// Posts the `dL/dy` halo sends along `dy_halo`, computes the local
    /// filter gradient (Eq. 2) from `x_window` (the window
    /// [`DistConv2d::forward`] returned), completes the receives, computes
    /// `dL/dx` (Eq. 3), and sums `dL/dw` over every rank (`BPa`): one
    /// allreduce per layer, as the paper models it, AR(|P|, F·C·K²).
    /// Returns `(dx, dw)`: `dx` is `None` when `wants_dx` is false (nobody
    /// reads this layer's input gradient; the exchange still runs, so the
    /// wire schedule is the same either way).
    pub fn backward<C: Communicator>(
        &self,
        comm: &C,
        x_window: &DistTensor,
        dy: &DistTensor,
        w: &Tensor,
        wants_dx: bool,
        dy_halo: &HaloPlan,
    ) -> (Option<DistTensor>, Tensor) {
        debug_assert_eq!(*dy.dist(), self.out_dist, "error signal has wrong distribution");
        let mut dyw = dy.to_window(self.dy_margins.0, self.dy_margins.1);
        check_window(self, "dy", &dyw, self.window_elems(comm.rank()).dy_window_elems);
        let tag = start_halo_exchange(comm, &dyw, dy_halo);

        let ob = dy.own_box();
        let dw_local = conv2d_backward_filter_region(
            x_window.local(),
            (x_window.origin()[2], x_window.origin()[3]),
            &dy.owned_tensor(),
            (ob.lo[2] as i64, ob.lo[3] as i64),
            &self.geom,
            (ob.lo[2], ob.hi[2]),
            (ob.lo[3], ob.hi[3]),
        );

        finish_halo_exchange(comm, &mut dyw, dy_halo, tag);
        let dx = wants_dx.then(|| {
            let mut dx = DistTensor::new_unpadded(self.in_dist.clone(), comm.rank());
            let ib = dx.own_box();
            let local = conv2d_backward_data_region(
                dyw.local(),
                (dyw.origin()[2], dyw.origin()[3]),
                w,
                &self.geom,
                (ib.lo[2], ib.hi[2]),
                (ib.lo[3], ib.hi[3]),
            );
            dx.set_owned(&local);
            dx
        });

        // The gradient's storage goes in and the reduced vector's comes
        // out, so the weights are not copied on either side.
        let shape = dw_local.shape();
        let dw = comm.allreduce_owned(dw_local.into_vec(), ReduceOp::Sum, AllreduceAlgorithm::Auto);
        (dx, Tensor::from_vec(shape, dw))
    }
}

impl std::fmt::Display for DistConv2d {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = &self.geom;
        let (x, y) = (self.in_dist.shape, self.out_dist.shape);
        write!(f, "conv {}x{}/{} {x} -> {y} on grid {}", g.kh, g.kw, g.stride_h, self.in_dist.grid)
    }
}

/// The output region computable from owned input only, plus the
/// boundary strips that complete the owned output block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InteriorPlan {
    /// `(rows, cols)` of the interior output region (global indices);
    /// empty if no output is interior.
    pub interior: Option<((usize, usize), (usize, usize))>,
    /// Boundary strips `(rows, cols)` covering own-output \ interior.
    pub boundary: Vec<((usize, usize), (usize, usize))>,
}

impl InteriorPlan {
    /// Build the decomposition for a conv layer's owned output block.
    pub fn build(conv: &DistConv2d, rank: usize) -> InteriorPlan {
        let geom = &conv.geom;
        let ob = conv.out_dist.local_box(rank);
        let ib = conv.in_dist.local_box(rank);
        let (oh0, oh1) = (ob.lo[2], ob.hi[2]);
        let (ow0, ow1) = (ob.lo[3], ob.hi[3]);

        // Interior rows: output rows whose input taps stay inside the
        // owned input rows.
        let rows = interior_range(
            oh0,
            oh1,
            ib.lo[2] as i64,
            ib.hi[2] as i64,
            geom.stride_h,
            geom.pad_h,
            geom.kh,
        );
        let cols = interior_range(
            ow0,
            ow1,
            ib.lo[3] as i64,
            ib.hi[3] as i64,
            geom.stride_w,
            geom.pad_w,
            geom.kw,
        );
        let (interior, boundary) = match (rows, cols) {
            (Some((r0, r1)), Some((c0, c1))) => {
                let mut strips = Vec::new();
                if oh0 < r0 {
                    strips.push(((oh0, r0), (ow0, ow1))); // top
                }
                if r1 < oh1 {
                    strips.push(((r1, oh1), (ow0, ow1))); // bottom
                }
                if ow0 < c0 {
                    strips.push(((r0, r1), (ow0, c0))); // left
                }
                if c1 < ow1 {
                    strips.push(((r0, r1), (c1, ow1))); // right
                }
                (Some(((r0, r1), (c0, c1))), strips)
            }
            // No interior: the whole block is boundary.
            _ => (None, vec![((oh0, oh1), (ow0, ow1))]),
        };
        InteriorPlan { interior, boundary }
    }
}

/// Interior sub-range of output `[o0, o1)` whose taps lie in owned input
/// rows `[i_lo, i_hi)`; `None` if empty.
fn interior_range(
    o0: usize,
    o1: usize,
    i_lo: i64,
    i_hi: i64,
    stride: usize,
    pad: usize,
    k: usize,
) -> Option<(usize, usize)> {
    let s = stride as i64;
    let p = pad as i64;
    let k = k as i64;
    // Need o*s - p >= i_lo and o*s - p + k <= i_hi.
    let lo = ((i_lo + p) + s - 1).div_euclid(s).max(o0 as i64);
    let hi = ((i_hi - k + p).div_euclid(s) + 1).min(o1 as i64);
    (lo < hi).then_some((lo as usize, hi as usize))
}

/// Copy a computed `(rows, cols)` region `t` into the owned output block.
fn write_region(
    y: &mut DistTensor,
    rows: (usize, usize),
    cols: (usize, usize),
    t: &Tensor,
    ob: &Box4,
) {
    let gbox =
        Box4::new([ob.lo[0], ob.lo[1], rows.0, cols.0], [ob.hi[0], ob.hi[1], rows.1, cols.1]);
    let lbox = y.global_to_local_box(&gbox);
    y.local_mut().unpack_box(&lbox, t.as_slice());
}

/// Uniform margin bound over all grid coordinates of one dimension:
/// `per(g)` returns `(needed_below, needed_above)` as signed counts;
/// negative values (needs less than owned) clamp to zero.
fn margin_bound(parts: usize, per: impl Fn(usize) -> (i64, i64)) -> DimMargins {
    let mut lo = 0i64;
    let mut hi = 0i64;
    for g in 0..parts {
        let (l, h) = per(g);
        lo = lo.max(l);
        hi = hi.max(h);
    }
    (lo.max(0) as usize, hi.max(0) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_comm::run_ranks;
    use fg_kernels::conv::{conv2d_backward_data, conv2d_backward_filter, conv2d_forward};
    use fg_tensor::gather::gather_to_root;

    fn pattern(shape: Shape4, seed: usize) -> Tensor {
        Tensor::from_fn(shape, |n, c, h, w| {
            (((n * 31 + c * 17 + h * 5 + w * 3 + seed) % 13) as f32) * 0.5 - 3.0
        })
    }

    /// Distributed forward+backward, through the plan-taking forms the
    /// step runs, must equal the serial kernels *bitwise* (same inner
    /// loops, same windows).
    fn check_equivalence(n: usize, c: usize, f: usize, geom: ConvGeometry, grid: ProcGrid) {
        let x_shape = Shape4::new(n, c, geom.in_h, geom.in_w);
        let w_shape = Shape4::new(f, c, geom.kh, geom.kw);
        let x = pattern(x_shape, 1);
        let w = pattern(w_shape, 2);
        let y_serial = conv2d_forward(&x, &w, &geom);
        let dy = pattern(y_serial.shape(), 3);
        let dx_serial = conv2d_backward_data(&dy, &w, &geom);
        let dw_serial = conv2d_backward_filter(&x, &dy, &geom);

        let layer = DistConv2d::new(n, c, f, geom, grid);
        let results = run_ranks(grid.size(), |comm| {
            let rank = comm.rank();
            let (x_halo, dy_halo) = (layer.x_halo_plan(rank), layer.dy_halo_plan(rank));
            let interior = InteriorPlan::build(&layer, rank);
            let xs = DistTensor::from_global(layer.in_dist.clone(), rank, &x, [0; 4], [0; 4]);
            let (y, win) = layer.forward(comm, &xs, &w, &x_halo, &interior);
            let dys = DistTensor::from_global(layer.out_dist.clone(), rank, &dy, [0; 4], [0; 4]);
            let (dx, dw) = layer.backward(comm, &win, &dys, &w, true, &dy_halo);
            // Skipping dx changes nothing else.
            let (none, dw_again) = layer.backward(comm, &win, &dys, &w, false, &dy_halo);
            assert!(none.is_none());
            assert_eq!(dw_again, dw);
            let y_full = gather_to_root(comm, &y, 0);
            let dx_full = gather_to_root(comm, &dx.expect("dx was asked for"), 0);
            (y_full, dx_full, dw)
        });
        let (y_full, dx_full, _) = &results[0];
        assert_eq!(
            y_full.as_ref().unwrap(),
            &y_serial,
            "forward not bitwise-identical for grid {grid}"
        );
        assert_eq!(
            dx_full.as_ref().unwrap(),
            &dx_serial,
            "backward-data not bitwise-identical for grid {grid}"
        );
        // dw goes through an allreduce → summation order differs from the
        // serial single accumulation; compare with tolerance.
        for (_, _, dw) in &results {
            dw.assert_close(&dw_serial, 1e-4);
        }
    }

    #[test]
    fn sample_parallelism_matches_serial() {
        check_equivalence(4, 3, 2, ConvGeometry::square(8, 8, 3, 1, 1), ProcGrid::sample(4));
    }

    #[test]
    fn spatial_2x2_matches_serial() {
        check_equivalence(2, 3, 4, ConvGeometry::square(8, 8, 3, 1, 1), ProcGrid::spatial(2, 2));
    }

    #[test]
    fn spatial_strided_matches_serial() {
        check_equivalence(1, 2, 3, ConvGeometry::square(12, 12, 3, 2, 1), ProcGrid::spatial(2, 2));
        check_equivalence(1, 2, 3, ConvGeometry::square(9, 11, 3, 2, 1), ProcGrid::spatial(3, 1));
    }

    #[test]
    fn spatial_large_kernel_matches_serial() {
        // K=7 like ResNet conv1 (large halo), stride 2.
        check_equivalence(1, 3, 2, ConvGeometry::square(16, 16, 7, 2, 3), ProcGrid::spatial(2, 2));
    }

    #[test]
    fn spatial_1x1_conv_needs_no_halo() {
        let geom = ConvGeometry::square(8, 8, 1, 1, 0);
        let layer = DistConv2d::new(2, 4, 4, geom, ProcGrid::spatial(2, 2));
        // The paper's `res3b_branch2a` case: spatial parallelism with no
        // communication at all.
        assert_eq!(layer.x_margins, ([0; 4], [0; 4]), "1x1 stride-1 conv exchanges no halo");
        assert_eq!(layer.dy_margins, ([0; 4], [0; 4]));
        check_equivalence(2, 4, 4, geom, ProcGrid::spatial(2, 2));
    }

    #[test]
    fn hybrid_sample_spatial_matches_serial() {
        check_equivalence(4, 2, 3, ConvGeometry::square(8, 8, 3, 1, 1), ProcGrid::hybrid(2, 2, 1));
        check_equivalence(4, 2, 3, ConvGeometry::square(8, 8, 5, 1, 2), ProcGrid::hybrid(2, 1, 2));
    }

    #[test]
    fn uneven_spatial_blocks_match_serial() {
        // 10 rows over 3 ranks (4,3,3) with stride 2.
        check_equivalence(1, 1, 2, ConvGeometry::square(10, 7, 3, 2, 1), ProcGrid::spatial(3, 1));
    }

    #[test]
    fn overlap_geometries_match_serial() {
        // Interior/boundary splits with every strip shape: square and
        // tall grids, large kernels, strides and a shard too thin for
        // any interior (16² K=7 S=2 is `spatial_large_kernel_matches_serial`).
        check_equivalence(2, 2, 3, ConvGeometry::square(12, 12, 3, 1, 1), ProcGrid::spatial(2, 2));
        check_equivalence(
            2,
            1,
            2,
            ConvGeometry::square(10, 10, 3, 2, 1),
            ProcGrid::hybrid(2, 2, 1),
        );
        check_equivalence(1, 1, 1, ConvGeometry::square(9, 9, 5, 1, 2), ProcGrid::spatial(3, 1));
        check_equivalence(
            2,
            2,
            3,
            ConvGeometry::square(10, 10, 5, 2, 2),
            ProcGrid::hybrid(2, 2, 1),
        );
        check_equivalence(1, 1, 1, ConvGeometry::square(8, 8, 5, 1, 2), ProcGrid::spatial(4, 1));
    }

    #[test]
    fn halo_traffic_matches_paper_model() {
        use fg_comm::{OpClass, TrafficStats};
        // 2x2 spatial grid, K=3 (O=1): each rank sends 2 side halos + 1
        // corner in forward (interior of a 2x2 grid: every rank is a
        // corner rank with 2 neighbors + 1 diagonal).
        let geom = ConvGeometry::square(8, 8, 3, 1, 1);
        let layer = DistConv2d::new(1, 2, 2, geom, ProcGrid::spatial(2, 2));
        let x = pattern(Shape4::new(1, 2, 8, 8), 4);
        let w = pattern(Shape4::new(2, 2, 3, 3), 5);
        let stats: Vec<TrafficStats> = run_ranks(4, |comm| {
            let rank = comm.rank();
            let xs = DistTensor::from_global(layer.in_dist.clone(), rank, &x, [0; 4], [0; 4]);
            let (x_halo, interior) = (layer.x_halo_plan(rank), InteriorPlan::build(&layer, rank));
            let _ = layer.forward(comm, &xs, &w, &x_halo, &interior);
            comm.stats()
        });
        for s in &stats {
            assert_eq!(s.messages(OpClass::Halo), 3, "2 sides + 1 corner");
            // Side: 1 row/col of 4 elements × 2 channels = 8; corner: 1×2.
            assert_eq!(s.bytes(OpClass::Halo), (8 + 8 + 2) * 4);
        }
    }

    #[test]
    fn margins_match_paper_o_for_unit_stride() {
        // For S=1, the halo is exactly O = ⌊K/2⌋ on each side (§III-A).
        for k in [3usize, 5, 7] {
            let geom = ConvGeometry::square(16, 16, k, 1, k / 2);
            let layer = DistConv2d::new(1, 1, 1, geom, ProcGrid::spatial(2, 2));
            let o = k / 2;
            assert_eq!(layer.x_margins.0, [0, 0, o, o], "K={k}");
            assert_eq!(layer.x_margins.1, [0, 0, o, o], "K={k}");
        }
    }

    #[test]
    fn interior_plan_partitions_owned_output() {
        let geom = ConvGeometry::square(16, 16, 3, 1, 1);
        let conv = DistConv2d::new(1, 1, 1, geom, ProcGrid::spatial(2, 2));
        // Rank 0 owns outputs 0..8 of each dimension; output 0 taps the
        // padding row and output 7 the halo, so the interior is 1..7.
        assert_eq!(InteriorPlan::build(&conv, 0).interior, Some(((1, 7), (1, 7))));
        for rank in 0..4 {
            let plan = InteriorPlan::build(&conv, rank);
            let ob = conv.out_dist.local_box(rank);
            // Interior + boundary must tile the owned output exactly.
            let mut covered = vec![0u8; (ob.hi[2] - ob.lo[2]) * (ob.hi[3] - ob.lo[3])];
            let mut mark = |rows: (usize, usize), cols: (usize, usize)| {
                for r in rows.0..rows.1 {
                    for c in cols.0..cols.1 {
                        covered[(r - ob.lo[2]) * (ob.hi[3] - ob.lo[3]) + (c - ob.lo[3])] += 1;
                    }
                }
            };
            if let Some((rows, cols)) = plan.interior {
                mark(rows, cols);
            }
            for &(rows, cols) in &plan.boundary {
                mark(rows, cols);
            }
            assert!(covered.iter().all(|&c| c == 1), "rank {rank}: region overlap or gap");
        }
    }

    #[test]
    fn interior_shrinks_with_kernel_size() {
        // Bigger halo ⇒ smaller interior.
        let g3 = ConvGeometry::square(16, 16, 3, 1, 1);
        let g7 = ConvGeometry::square(16, 16, 7, 1, 3);
        let c3 = DistConv2d::new(1, 1, 1, g3, ProcGrid::spatial(2, 2));
        let c7 = DistConv2d::new(1, 1, 1, g7, ProcGrid::spatial(2, 2));
        let area =
            |p: &InteriorPlan| p.interior.map_or(0, |((r0, r1), (c0, c1))| (r1 - r0) * (c1 - c0));
        assert!(area(&InteriorPlan::build(&c3, 0)) > area(&InteriorPlan::build(&c7, 0)));
    }

    #[test]
    fn tiny_shard_has_no_interior() {
        // Shard rows smaller than the kernel: everything is boundary.
        let geom = ConvGeometry::square(8, 8, 5, 1, 2);
        let conv = DistConv2d::new(1, 1, 1, geom, ProcGrid::spatial(4, 1));
        let plan = InteriorPlan::build(&conv, 1);
        assert!(plan.interior.is_none());
        assert_eq!(plan.boundary.len(), 1);
    }
}
