//! Distributed 2-D pooling (paper §III-B): partitioned like convolution,
//! with halo exchanges sized from the pooling window.

use fg_comm::{Communicator, WorldComm};
use fg_kernels::conv::ConvGeometry;
use fg_kernels::pool::{pool2d_backward_region, pool2d_forward_region, PoolKind};
use fg_tensor::halo::{exchange_halo_with_plan, HaloPlan};
use fg_tensor::{DistTensor, ProcGrid, Shape4, TensorDist, NDIMS};

use crate::executor::Act;
use crate::layers::plan::{
    window_elems, BwdCx, BwdOut, DistLayer, FwdCx, LayerBase, LayerBufs, LayerPlan, TraceCx,
};

/// A distributed 2-D pooling layer.
#[derive(Debug, Clone)]
pub struct DistPool2d {
    /// Pooling kind.
    pub kind: PoolKind,
    /// Window geometry (reuses the convolution geometry container).
    pub geom: ConvGeometry,
    /// Input distribution.
    pub in_dist: TensorDist,
    /// Output distribution.
    pub out_dist: TensorDist,
    x_margins: ([usize; NDIMS], [usize; NDIMS]),
    dy_margins: ([usize; NDIMS], [usize; NDIMS]),
}

impl DistPool2d {
    /// Create a pooling layer over `grid` (channel extent must be 1).
    pub fn new(kind: PoolKind, n: usize, c: usize, geom: ConvGeometry, grid: ProcGrid) -> Self {
        let in_shape = Shape4::new(n, c, geom.in_h, geom.in_w);
        let out_shape = Shape4::new(n, c, geom.out_h(), geom.out_w());
        Self::with_dists(
            kind,
            geom,
            TensorDist::new(in_shape, grid),
            TensorDist::new(out_shape, grid),
        )
    }

    /// Create the layer from explicit (possibly weighted) distributions;
    /// margins follow the distributions' actual block boundaries.
    pub fn with_dists(
        kind: PoolKind,
        geom: ConvGeometry,
        in_dist: TensorDist,
        out_dist: TensorDist,
    ) -> Self {
        let grid = in_dist.grid;
        assert_eq!(grid.c, 1, "pooling does not partition channels");
        assert_eq!(out_dist.grid, grid, "pool input and output must share a grid");
        let in_shape = in_dist.shape;
        assert!(
            in_dist.is_fully_populated() && out_dist.is_fully_populated(),
            "grid {grid} leaves ranks without work for pooling on {in_shape}"
        );
        // The x window must cover forward taps of the owned output block
        // AND (for backward) the taps of every output contributing to the
        // owned input block. Take the elementwise max of the two needs.
        let h = margin_max(
            grid.h,
            |g| in_dist.dim_range(2, g),
            |g| out_dist.dim_range(2, g),
            |o0, o1| geom.input_rows_for_output(o0, o1),
            |i0, i1| geom.output_rows_for_input(i0, i1),
        );
        let w = margin_max(
            grid.w,
            |g| in_dist.dim_range(3, g),
            |g| out_dist.dim_range(3, g),
            |o0, o1| geom.input_cols_for_output(o0, o1),
            |i0, i1| geom.output_cols_for_input(i0, i1),
        );
        let x_margins = ([0, 0, h.0 .0, w.0 .0], [0, 0, h.0 .1, w.0 .1]);
        let dy_margins = ([0, 0, h.1 .0, w.1 .0], [0, 0, h.1 .1, w.1 .1]);
        DistPool2d { kind, geom, in_dist, out_dist, x_margins, dy_margins }
    }

    /// Margins of the forward input window.
    pub fn x_margins(&self) -> ([usize; NDIMS], [usize; NDIMS]) {
        self.x_margins
    }

    /// Margins of the backward error-signal window.
    pub fn dy_margins(&self) -> ([usize; NDIMS], [usize; NDIMS]) {
        self.dy_margins
    }

    /// The forward halo plan for this rank's input window.
    pub fn x_halo_plan(&self, rank: usize) -> HaloPlan {
        HaloPlan::for_layout(&self.in_dist, rank, self.x_margins.0, self.x_margins.1)
    }

    /// The backward halo plan for this rank's error-signal window.
    pub fn dy_halo_plan(&self, rank: usize) -> HaloPlan {
        HaloPlan::for_layout(&self.out_dist, rank, self.dy_margins.0, self.dy_margins.1)
    }

    /// Forward pooling along this rank's precompiled halo plan
    /// ([`DistPool2d::x_halo_plan`]); returns `(y, x_window)`. The
    /// window's storage is drawn from `store` when provided (an arena
    /// slot); bitwise-identical either way.
    pub fn forward<C: Communicator>(
        &self,
        comm: &C,
        x: &DistTensor,
        plan: &HaloPlan,
        store: Option<Vec<f32>>,
    ) -> (DistTensor, DistTensor) {
        debug_assert_eq!(*x.dist(), self.in_dist);
        let mut win = x.to_window_in(self.x_margins.0, self.x_margins.1, store);
        exchange_halo_with_plan(comm, &mut win, plan);
        let mut y = DistTensor::new_unpadded(self.out_dist.clone(), comm.rank());
        let ob = y.own_box();
        let local = pool2d_forward_region(
            self.kind,
            win.local(),
            (win.origin()[2], win.origin()[3]),
            &self.geom,
            (ob.lo[2], ob.hi[2]),
            (ob.lo[3], ob.hi[3]),
        );
        y.set_owned(&local);
        (y, win)
    }

    /// Backward pooling along this rank's precompiled dy halo plan
    /// ([`DistPool2d::dy_halo_plan`]): the error signal for the parent.
    /// The transient dy window's storage is drawn from `store` when
    /// provided; the spent storage comes back as the second element
    /// (only when `store` was `Some`) so the caller can return it to its
    /// arena slot.
    pub fn backward<C: Communicator>(
        &self,
        comm: &C,
        x_window: &DistTensor,
        dy: &DistTensor,
        plan: &HaloPlan,
        store: Option<Vec<f32>>,
    ) -> (DistTensor, Option<Vec<f32>>) {
        debug_assert_eq!(*dy.dist(), self.out_dist);
        let had_store = store.is_some();
        let mut dyw = dy.to_window_in(self.dy_margins.0, self.dy_margins.1, store);
        exchange_halo_with_plan(comm, &mut dyw, plan);
        let mut dx = DistTensor::new_unpadded(self.in_dist.clone(), comm.rank());
        let ib = dx.own_box();
        let local = pool2d_backward_region(
            self.kind,
            x_window.local(),
            (x_window.origin()[2], x_window.origin()[3]),
            dyw.local(),
            (dyw.origin()[2], dyw.origin()[3]),
            &self.geom,
            (ib.lo[2], ib.hi[2]),
            (ib.lo[3], ib.hi[3]),
        );
        dx.set_owned(&local);
        let spent = had_store.then(|| dyw.into_storage());
        (dx, spent)
    }
}

/// For one dimension, compute `(x_margins, dy_margins)` as
/// `((lo, hi), (lo, hi))` covering both forward and backward needs.
#[allow(clippy::type_complexity)]
fn margin_max(
    parts: usize,
    in_range: impl Fn(usize) -> std::ops::Range<usize>,
    out_range: impl Fn(usize) -> std::ops::Range<usize>,
    in_for_out: impl Fn(usize, usize) -> (i64, i64),
    out_for_in: impl Fn(usize, usize) -> (usize, usize),
) -> ((usize, usize), (usize, usize)) {
    let mut x_lo = 0i64;
    let mut x_hi = 0i64;
    let mut d_lo = 0i64;
    let mut d_hi = 0i64;
    for g in 0..parts {
        let ib = in_range(g);
        let ob = out_range(g);
        // Forward: x needed for own output block.
        let (lo, hi) = in_for_out(ob.start, ob.end);
        x_lo = x_lo.max(ib.start as i64 - lo);
        x_hi = x_hi.max(hi - ib.end as i64);
        // Backward: outputs touching own input block...
        let (q0, q1) = out_for_in(ib.start, ib.end);
        d_lo = d_lo.max(ob.start as i64 - q0 as i64);
        d_hi = d_hi.max(q1 as i64 - ob.end as i64);
        // ...and the x taps of those outputs (the backward kernel walks
        // each contributing window over x).
        if q0 < q1 {
            let (lo, hi) = in_for_out(q0, q1);
            x_lo = x_lo.max(ib.start as i64 - lo);
            x_hi = x_hi.max(hi - ib.end as i64);
        }
    }
    ((x_lo.max(0) as usize, x_hi.max(0) as usize), (d_lo.max(0) as usize, d_hi.max(0) as usize))
}

/// [`DistLayer`] driver for [`DistPool2d`].
#[derive(Debug)]
pub struct PoolLayer {
    base: LayerBase,
    pool: DistPool2d,
}

impl PoolLayer {
    /// Wrap a pooling layer for uniform scheduling.
    pub fn new(base: LayerBase, pool: DistPool2d) -> Self {
        PoolLayer { base, pool }
    }
}

impl DistLayer for PoolLayer {
    fn base(&self) -> &LayerBase {
        &self.base
    }

    fn compile_plan(&self, rank: usize) -> LayerPlan {
        let mut plan = self.base.compile_io(rank);
        plan.x_halo = Some(self.pool.x_halo_plan(rank));
        plan.dy_halo = Some(self.pool.dy_halo_plan(rank));
        plan
    }

    fn forward(&self, comm: &WorldComm, cx: &mut FwdCx<'_>) -> Act {
        let x = cx.input(0).shard_of(self.base.id, &self.base.kind);
        let x_halo = cx.plan.x_halo.as_ref().expect("pool plan has an x halo");
        let store =
            cx.window_slot.as_ref().map(|s| s.alloc(self.memory_model(cx.rank).window_elems));
        let (y, win) = self.pool.forward(comm, x, x_halo, store);
        *cx.window = Some(win);
        Act::Shard(y)
    }

    fn backward(&self, comm: &WorldComm, cx: &BwdCx<'_>, dy: Act) -> BwdOut {
        let dy = dy.into_shard_of(self.base.id, &self.base.kind);
        let win = cx.window(&self.base);
        let dy_halo = cx.plan.dy_halo.as_ref().expect("pool plan has a dy halo");
        let store =
            cx.dyw_slot.as_ref().map(|s| s.alloc(self.memory_model(cx.rank).dy_window_elems));
        let (dx, spent) = self.pool.backward(comm, win, &dy, dy_halo, store);
        if let (Some(slot), Some(buf)) = (cx.dyw_slot.as_ref(), spent) {
            slot.release(buf);
        }
        BwdOut { dparents: vec![(0, Act::Shard(dx))], grads: None }
    }

    fn record_forward(&self, cx: &TraceCx<'_>, rec: &mut fg_comm::TraceRecorder) {
        let x_halo = cx.plan.x_halo.as_ref().expect("pool plan has an x halo");
        fg_tensor::halo::record_halo_exchange(rec, x_halo);
    }

    fn record_backward(&self, cx: &TraceCx<'_>, rec: &mut fg_comm::TraceRecorder) {
        let dy_halo = cx.plan.dy_halo.as_ref().expect("pool plan has a dy halo");
        fg_tensor::halo::record_halo_exchange(rec, dy_halo);
    }

    fn memory_model(&self, rank: usize) -> LayerBufs {
        let (xlo, xhi) = self.pool.x_margins();
        let (dlo, dhi) = self.pool.dy_margins();
        LayerBufs {
            window_elems: window_elems(&self.pool.in_dist, rank, xlo, xhi),
            dy_window_elems: window_elems(&self.pool.out_dist, rank, dlo, dhi),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_comm::run_ranks;
    use fg_kernels::pool::{pool2d_backward, pool2d_forward};
    use fg_tensor::gather::gather_to_root;
    use fg_tensor::Tensor;

    fn pattern(shape: Shape4, seed: usize) -> Tensor {
        Tensor::from_fn(shape, |n, c, h, w| {
            (((n * 29 + c * 13 + h * 7 + w * 3 + seed) % 17) as f32) * 0.4 - 3.0
        })
    }

    fn check_pool(kind: PoolKind, n: usize, c: usize, geom: ConvGeometry, grid: ProcGrid) {
        let x = pattern(Shape4::new(n, c, geom.in_h, geom.in_w), 1);
        let y_serial = pool2d_forward(kind, &x, &geom);
        let dy = pattern(y_serial.shape(), 2);
        let dx_serial = pool2d_backward(kind, &x, &dy, &geom);
        let layer = DistPool2d::new(kind, n, c, geom, grid);
        let outs = run_ranks(grid.size(), |comm| {
            let rank = comm.rank();
            let xs = DistTensor::from_global(layer.in_dist.clone(), rank, &x, [0; 4], [0; 4]);
            let (y, win) = layer.forward(comm, &xs, &layer.x_halo_plan(rank), None);
            let dys = DistTensor::from_global(layer.out_dist.clone(), rank, &dy, [0; 4], [0; 4]);
            let (dx, _) = layer.backward(comm, &win, &dys, &layer.dy_halo_plan(rank), None);
            (gather_to_root(comm, &y, 0), gather_to_root(comm, &dx, 0))
        });
        assert_eq!(outs[0].0.as_ref().unwrap(), &y_serial, "pool fwd {kind:?} grid {grid}");
        assert_eq!(outs[0].1.as_ref().unwrap(), &dx_serial, "pool bwd {kind:?} grid {grid}");
    }

    #[test]
    fn max_pool_resnet_style_spatial() {
        // 3x3 stride-2 pad-1 (ResNet's pool after conv1), overlapping
        // windows crossing shard borders.
        check_pool(
            PoolKind::Max,
            2,
            2,
            ConvGeometry::square(8, 8, 3, 2, 1),
            ProcGrid::spatial(2, 2),
        );
    }

    #[test]
    fn avg_pool_spatial_and_hybrid() {
        check_pool(
            PoolKind::Avg,
            2,
            3,
            ConvGeometry::square(8, 8, 2, 2, 0),
            ProcGrid::spatial(2, 2),
        );
        check_pool(
            PoolKind::Avg,
            4,
            1,
            ConvGeometry::square(6, 6, 3, 1, 1),
            ProcGrid::hybrid(2, 2, 1),
        );
    }

    #[test]
    fn pool_uneven_blocks() {
        check_pool(
            PoolKind::Max,
            1,
            1,
            ConvGeometry::square(10, 10, 3, 2, 1),
            ProcGrid::spatial(3, 1),
        );
    }
}
