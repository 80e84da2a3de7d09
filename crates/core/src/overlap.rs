//! Interior/boundary decomposition: overlapping halo exchange with
//! compute (paper §IV-A).
//!
//! The paper's implementation "automatically decomposes an input tensor
//! into its interior domain and boundary domains and calls cuDNN
//! convolution kernels for each region separately so that halo exchanges
//! can be run concurrently with the convolution of the interior domain."
//!
//! [`forward_overlapped`] reproduces that schedule:
//!
//! 1. post the halo sends ([`start_halo_exchange`]);
//! 2. compute the *interior* output region — outputs whose receptive
//!    fields lie entirely in the owned block;
//! 3. complete the halo receives;
//! 4. compute the (up to four) boundary strips that needed halo data.
//!
//! On the thread-simulated communicator this ordering is executed for
//! real (sends are eager, receives block), so the test below verifies
//! the decomposition is *exact*: identical output to the monolithic
//! path, which is itself bitwise-identical to a single device. The
//! latency benefit is captured by the performance model in `fg-perf`
//! (overlapped halo terms), and ablated in `fg-bench`.

use fg_comm::Communicator;
use fg_kernels::conv::conv2d_forward_region;
use fg_tensor::halo::{finish_halo_exchange, start_halo_exchange, HaloPlan};
use fg_tensor::{Box4, DistTensor, Tensor};

use crate::distconv::{allreduce_grads, DistConv2d};

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

/// Forward convolution with the overlap schedule, compiling its plans
/// on the spot. Produces exactly the same result as
/// [`DistConv2d::forward`].
pub fn forward_overlapped<C: Communicator>(
    conv: &DistConv2d,
    comm: &C,
    x: &DistTensor,
    w: &Tensor,
    bias: Option<&[f32]>,
) -> (DistTensor, DistTensor) {
    let rank = comm.rank();
    let halo = conv.x_halo_plan(rank);
    let iplan = InteriorPlan::build(conv, rank);
    forward_overlapped_with_plans_in(conv, comm, x, w, bias, &halo, &iplan, None)
}

/// [`forward_overlapped`] with precompiled halo and interior plans, the
/// window's storage drawn from `store` when provided (an arena slot);
/// bitwise-identical either way.
#[allow(clippy::too_many_arguments)]
pub fn forward_overlapped_with_plans_in<C: Communicator>(
    conv: &DistConv2d,
    comm: &C,
    x: &DistTensor,
    w: &Tensor,
    bias: Option<&[f32]>,
    plan: &HaloPlan,
    iplan: &InteriorPlan,
    store: Option<Vec<f32>>,
) -> (DistTensor, DistTensor) {
    let rank = comm.rank();
    // Window with owned data; margins zero until the exchange completes.
    let mut win = x.to_window_in(conv.x_margins.0, conv.x_margins.1, store);

    // (1) post sends; (2) interior compute; (3) receive; (4) boundary.
    let tag = start_halo_exchange(comm, &win, plan);

    let mut y = DistTensor::new_unpadded(conv.out_dist.clone(), rank);
    let origin = (win.origin()[2], win.origin()[3]);
    let ob = y.own_box();
    if let Some((rows, cols)) = iplan.interior {
        let t = conv2d_forward_region(win.local(), origin, w, bias, &conv.geom, rows, cols);
        write_region(&mut y, rows, cols, &t, &ob);
    }

    finish_halo_exchange(comm, &mut win, plan, tag);

    for &(rows, cols) in &iplan.boundary {
        let t = conv2d_forward_region(win.local(), origin, w, bias, &conv.geom, rows, cols);
        write_region(&mut y, rows, cols, &t, &ob);
    }
    (y, win)
}

/// Backward pass with the §IV-A task-parallel schedule: "we exploit the
/// task-level parallelism of backward data and filter convolutions to
/// hide the halo exchange for the data convolution within the filter
/// convolution. Note that the filter convolution does not require halo
/// exchanges."
///
/// Schedule: post the `dL/dy` halo sends → compute the (halo-free)
/// local filter gradient → complete the halo receives → compute
/// `dL/dx`. Results are identical to the monolithic path; the allreduce
/// completing `dL/dw` is performed as usual.
pub fn backward_overlapped<C: Communicator>(
    conv: &DistConv2d,
    comm: &C,
    x_window: &DistTensor,
    dy: &DistTensor,
    w: &Tensor,
    with_bias: bool,
) -> (DistTensor, Tensor, Option<Vec<f32>>) {
    let plan = conv.dy_halo_plan(comm.rank());
    let (dx, dw, db, _) = backward_overlapped_with_plans_in(
        conv, comm, x_window, dy, w, with_bias, true, &plan, None,
    );
    (dx.expect("dx was asked for"), dw, db)
}

/// [`backward_overlapped`] with a precompiled dy halo plan, the
/// transient dy window's storage drawn from `store` when provided; the
/// spent storage comes back as the last element (only when `store` was
/// `Some`) so the caller can return it to its arena slot.
///
/// With `wants_dx` false (nobody reads this layer's input gradient)
/// step (4) is skipped and `dx` is `None`. The dy halo exchange still
/// runs, so the wire schedule is the same either way.
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
pub fn backward_overlapped_with_plans_in<C: Communicator>(
    conv: &DistConv2d,
    comm: &C,
    x_window: &DistTensor,
    dy: &DistTensor,
    w: &Tensor,
    with_bias: bool,
    wants_dx: bool,
    plan: &HaloPlan,
    store: Option<Vec<f32>>,
) -> (Option<DistTensor>, Tensor, Option<Vec<f32>>, Option<Vec<f32>>) {
    use fg_kernels::conv::conv2d_backward_data_region;

    let rank = comm.rank();
    // (1) Post dy halo sends.
    let had_store = store.is_some();
    let mut dyw = dy.to_window_in(conv.dy_margins.0, conv.dy_margins.1, store);
    let tag = start_halo_exchange(comm, &dyw, plan);

    // (2) Filter-gradient compute — needs no halo on dy.
    let (dw_local, db_local) = conv.backward_filter_local(x_window, dy, with_bias);

    // (3) Complete the halo, (4) backward-data compute.
    finish_halo_exchange(comm, &mut dyw, plan, tag);
    let dx = wants_dx.then(|| {
        let mut dx = DistTensor::new_unpadded(conv.in_dist.clone(), rank);
        let ib = dx.own_box();
        let local = conv2d_backward_data_region(
            dyw.local(),
            (dyw.origin()[2], dyw.origin()[3]),
            w,
            &conv.geom,
            (ib.lo[2], ib.hi[2]),
            (ib.lo[3], ib.hi[3]),
        );
        dx.set_owned(&local);
        dx
    });

    // Complete dL/dw with the global allreduce (BPa), as usual.
    let (dw, db) = allreduce_grads(comm, dw_local, db_local);
    let spent = had_store.then(|| dyw.into_storage());
    (dx, dw, db, spent)
}

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

#[cfg(test)]
mod tests {
    use super::*;
    use fg_comm::run_ranks;
    use fg_kernels::conv::ConvGeometry;
    use fg_tensor::{ProcGrid, Shape4};

    fn pattern(shape: Shape4, seed: usize) -> Tensor {
        Tensor::from_fn(shape, |n, c, h, w| {
            (((n * 23 + c * 11 + h * 5 + w * 3 + seed) % 19) as f32) * 0.3 - 2.0
        })
    }

    #[test]
    fn interior_plan_partitions_owned_output() {
        let geom = ConvGeometry::square(16, 16, 3, 1, 1);
        let conv = DistConv2d::new(1, 1, 1, geom, ProcGrid::spatial(2, 2));
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
    fn overlapped_forward_is_bitwise_identical() {
        for (geom, grid, n, c, f) in [
            (ConvGeometry::square(12, 12, 3, 1, 1), ProcGrid::spatial(2, 2), 2, 2, 3),
            (ConvGeometry::square(16, 16, 7, 2, 3), ProcGrid::spatial(2, 2), 1, 3, 2),
            (ConvGeometry::square(10, 10, 3, 2, 1), ProcGrid::hybrid(2, 2, 1), 2, 1, 2),
            (ConvGeometry::square(9, 9, 5, 1, 2), ProcGrid::spatial(3, 1), 1, 1, 1),
        ] {
            let conv = DistConv2d::new(n, c, f, geom, grid);
            let x = pattern(Shape4::new(n, c, geom.in_h, geom.in_w), 1);
            let w = pattern(Shape4::new(f, c, geom.kh, geom.kw), 2);
            let outs = run_ranks(grid.size(), |comm| {
                let xs =
                    DistTensor::from_global(conv.in_dist.clone(), comm.rank(), &x, [0; 4], [0; 4]);
                let (y_mono, _) = conv.forward(comm, &xs, &w, None);
                let (y_ovl, _) = forward_overlapped(&conv, comm, &xs, &w, None);
                (y_mono.owned_tensor(), y_ovl.owned_tensor())
            });
            for (mono, ovl) in &outs {
                assert_eq!(mono, ovl, "overlap decomposition changed results for {geom:?}");
            }
        }
    }

    #[test]
    fn overlapped_backward_matches_monolithic() {
        for (geom, grid) in [
            (ConvGeometry::square(12, 12, 3, 1, 1), ProcGrid::spatial(2, 2)),
            (ConvGeometry::square(10, 10, 5, 2, 2), ProcGrid::hybrid(2, 2, 1)),
        ] {
            let (n, c, f) = (grid.n, 2, 3);
            let conv = DistConv2d::new(n, c, f, geom, grid);
            let x = pattern(Shape4::new(n, c, geom.in_h, geom.in_w), 5);
            let w = pattern(Shape4::new(f, c, geom.kh, geom.kw), 6);
            let dy = pattern(Shape4::new(n, f, geom.out_h(), geom.out_w()), 7);
            let outs = run_ranks(grid.size(), |comm| {
                let xs =
                    DistTensor::from_global(conv.in_dist.clone(), comm.rank(), &x, [0; 4], [0; 4]);
                let (_y, win) = conv.forward(comm, &xs, &w, None);
                let dys = DistTensor::from_global(
                    conv.out_dist.clone(),
                    comm.rank(),
                    &dy,
                    [0; 4],
                    [0; 4],
                );
                // Monolithic path.
                let dx_mono = conv.backward_data(comm, &dys, &w);
                let (dw_mono, _) = conv.backward_filter(comm, &win, &dys, false);
                // Overlapped path.
                let (dx_ovl, dw_ovl, _db) = backward_overlapped(&conv, comm, &win, &dys, &w, false);
                (dx_mono.owned_tensor(), dx_ovl.owned_tensor(), dw_mono, dw_ovl)
            });
            for (dx_m, dx_o, dw_m, dw_o) in &outs {
                assert_eq!(dx_m, dx_o, "overlap changed backward-data for {geom:?}");
                assert_eq!(dw_m, dw_o, "overlap changed backward-filter for {geom:?}");
            }
        }
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
