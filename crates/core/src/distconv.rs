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

use fg_comm::{AllreduceAlgorithm, Collectives, Communicator, ReduceOp};
use fg_kernels::conv::{
    conv2d_backward_data_region, conv2d_backward_filter_region, conv2d_forward_region, ConvGeometry,
};
use fg_tensor::halo::{exchange_halo_with_plan, HaloPlan};
use fg_tensor::{DistTensor, ProcGrid, Shape4, Tensor, TensorDist, NDIMS};

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

    /// Does this layer need a halo exchange at all? (`K = 1` and stride
    /// alignment can make all margins zero — the paper's
    /// `res3b_branch2a` case where spatial parallelism is
    /// communication-free.)
    pub fn needs_halo(&self) -> bool {
        self.x_margins.0.iter().any(|&m| m > 0) || self.x_margins.1.iter().any(|&m| m > 0)
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

    /// Forward propagation (Eq. 1), monolithic: build the haloed window,
    /// complete the exchange, then convolve. Takes the unpadded input
    /// shard; returns `(y, x_window)` — the window is kept for
    /// backward-filter. This is the reference the §IV-A overlapped
    /// driver ([`crate::overlap`], what the executor runs) is compared
    /// against.
    ///
    /// Collective over `comm` (world size must equal the grid size).
    pub fn forward<C: Communicator>(
        &self,
        comm: &C,
        x: &DistTensor,
        w: &Tensor,
        bias: Option<&[f32]>,
    ) -> (DistTensor, DistTensor) {
        debug_assert_eq!(*x.dist(), self.in_dist, "input shard has wrong distribution");
        let mut win = x.to_window(self.x_margins.0, self.x_margins.1);
        exchange_halo_with_plan(comm, &mut win, &self.x_halo_plan(comm.rank()));
        let y = self.forward_from_window(comm.rank(), &win, w, bias);
        (y, win)
    }

    /// Local forward compute given an already-exchanged window.
    pub fn forward_from_window(
        &self,
        rank: usize,
        win: &DistTensor,
        w: &Tensor,
        bias: Option<&[f32]>,
    ) -> DistTensor {
        let mut y = DistTensor::new_unpadded(self.out_dist.clone(), rank);
        let ob = y.own_box();
        let origin = (win.origin()[2], win.origin()[3]);
        let local = conv2d_forward_region(
            win.local(),
            origin,
            w,
            bias,
            &self.geom,
            (ob.lo[2], ob.hi[2]),
            (ob.lo[3], ob.hi[3]),
        );
        y.set_owned(&local);
        y
    }

    /// Backward-data (Eq. 3): error signal for the parent layer, in this
    /// layer's input distribution. Collective (halo exchange on `dy`).
    pub fn backward_data<C: Communicator>(
        &self,
        comm: &C,
        dy: &DistTensor,
        w: &Tensor,
    ) -> DistTensor {
        debug_assert_eq!(*dy.dist(), self.out_dist, "error signal has wrong distribution");
        let mut dyw = dy.to_window(self.dy_margins.0, self.dy_margins.1);
        exchange_halo_with_plan(comm, &mut dyw, &self.dy_halo_plan(comm.rank()));

        let mut dx = DistTensor::new_unpadded(self.in_dist.clone(), comm.rank());
        let ib = dx.own_box();
        let origin = (dyw.origin()[2], dyw.origin()[3]);
        let local = conv2d_backward_data_region(
            dyw.local(),
            origin,
            w,
            &self.geom,
            (ib.lo[2], ib.hi[2]),
            (ib.lo[3], ib.hi[3]),
        );
        dx.set_owned(&local);
        dx
    }

    /// Local weight-gradient contribution (Eq. 2), **without** the final
    /// allreduce. `x_window` is the window saved by [`DistConv2d::forward`].
    pub fn backward_filter_local(
        &self,
        x_window: &DistTensor,
        dy: &DistTensor,
        with_bias: bool,
    ) -> (Tensor, Option<Vec<f32>>) {
        let ob = dy.own_box();
        let x_origin = (x_window.origin()[2], x_window.origin()[3]);
        let dy_origin = (ob.lo[2] as i64, ob.lo[3] as i64);
        let (dw, db) = conv2d_backward_filter_region(
            x_window.local(),
            x_origin,
            &dy.owned_tensor(),
            dy_origin,
            &self.geom,
            (ob.lo[2], ob.hi[2]),
            (ob.lo[3], ob.hi[3]),
        );
        (dw, with_bias.then_some(db))
    }

    /// Complete weight gradient: local contribution + allreduce over all
    /// ranks (the sum over N, H, W of Eq. 2 — `BPa` in the performance
    /// model). Weights are replicated, so the group is the whole world.
    pub fn backward_filter<C: Communicator>(
        &self,
        comm: &C,
        x_window: &DistTensor,
        dy: &DistTensor,
        with_bias: bool,
    ) -> (Tensor, Option<Vec<f32>>) {
        let (dw, db) = self.backward_filter_local(x_window, dy, with_bias);
        allreduce_grads(comm, dw, db)
    }
}

/// Sum a layer's local weight gradient over `comm` — with its bias
/// gradient, when there is one, concatenated: one allreduce per layer,
/// as the paper models it, AR(|P|, F·C·K²). The gradient's storage goes
/// in and the reduced vector's comes out, so the weights are not copied
/// on either side of the collective.
pub(crate) fn allreduce_grads(
    comm: &impl Communicator,
    dw: Tensor,
    db: Option<Vec<f32>>,
) -> (Tensor, Option<Vec<f32>>) {
    let shape = dw.shape();
    let mut flat = dw.into_vec();
    if let Some(db) = &db {
        flat.extend_from_slice(db);
    }
    let mut flat = comm.allreduce_owned(flat, ReduceOp::Sum, AllreduceAlgorithm::Auto);
    let db = db.map(|_| flat.split_off(shape.len()));
    (Tensor::from_vec(shape, flat), db)
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

    /// Distributed forward+backward must equal the serial kernels
    /// *bitwise* (same inner loops, same windows).
    fn check_equivalence(n: usize, c: usize, f: usize, geom: ConvGeometry, grid: ProcGrid) {
        let x_shape = Shape4::new(n, c, geom.in_h, geom.in_w);
        let w_shape = Shape4::new(f, c, geom.kh, geom.kw);
        let x = pattern(x_shape, 1);
        let w = pattern(w_shape, 2);
        let bias: Vec<f32> = (0..f).map(|i| i as f32 * 0.25 - 0.5).collect();
        let y_serial = conv2d_forward(&x, &w, Some(&bias), &geom);
        let dy = pattern(y_serial.shape(), 3);
        let dx_serial = conv2d_backward_data(&dy, &w, &geom);
        let (dw_serial, db_serial) = conv2d_backward_filter(&x, &dy, &geom);

        let layer = DistConv2d::new(n, c, f, geom, grid);
        let results = run_ranks(grid.size(), |comm| {
            let xs =
                DistTensor::from_global(layer.in_dist.clone(), comm.rank(), &x, [0; 4], [0; 4]);
            let (y, win) = layer.forward(comm, &xs, &w, Some(&bias));
            let dys =
                DistTensor::from_global(layer.out_dist.clone(), comm.rank(), &dy, [0; 4], [0; 4]);
            let dx = layer.backward_data(comm, &dys, &w);
            let (dw, db) = layer.backward_filter(comm, &win, &dys, true);
            let y_full = gather_to_root(comm, &y, 0);
            let dx_full = gather_to_root(comm, &dx, 0);
            (y_full, dx_full, dw, db)
        });
        let (y_full, dx_full, _, _) = &results[0];
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
        for (_, _, dw, db) in &results {
            dw.assert_close(&dw_serial, 1e-4);
            for (a, b) in db.as_ref().unwrap().iter().zip(&db_serial) {
                assert!((a - b).abs() <= 1e-4 * a.abs().max(1.0), "db {a} vs {b}");
            }
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
        assert!(!layer.needs_halo(), "1x1 stride-1 conv must not exchange halos");
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
            let xs =
                DistTensor::from_global(layer.in_dist.clone(), comm.rank(), &x, [0; 4], [0; 4]);
            let _ = layer.forward(comm, &xs, &w, None);
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
}
