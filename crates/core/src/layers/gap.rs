//! Distributed global average pooling (paper §III-B): spatial-partial
//! sums reduced within each sample's spatial group, producing a
//! *per-sample replicated* activation (the representation FC layers and
//! classification losses consume).

use fg_comm::{Collectives, Communicator, ReduceOp, SubCommLayout, WorldComm};
use fg_tensor::{DistTensor, Shape4, Tensor};

use crate::executor::Act;
use crate::layers::groups::spatial_group_layout;
use crate::layers::plan::{BwdCx, BwdOut, DistLayer, FwdCx, LayerBase, LayerPlan, TraceCx};

/// Distributed global average pooling: shard → per-sample replicated
/// `(n_loc, C, 1, 1)` tensor (identical on all ranks of a sample group),
/// reduced within `group`, this rank's precompiled
/// [`spatial_group_layout`].
fn dist_global_avg_pool<C: Communicator>(
    comm: &C,
    x: &DistTensor,
    group: &SubCommLayout,
) -> Tensor {
    let shape = x.dist().shape;
    let own = x.own_box();
    let n_loc = own.hi[0] - own.lo[0];
    let owned = x.owned_tensor();
    // Local spatial partial sums, already scaled by the global plane size.
    let s = owned.shape();
    let scale = 1.0f32 / (shape.h * shape.w) as f32;
    // Orders of magnitude below any window; not an arena-managed class.
    let mut partial = vec![0.0f32; n_loc * shape.c];
    for n in 0..s.n {
        for c in 0..s.c {
            let base = s.offset(n, c, 0, 0);
            let sum: f32 = owned.as_slice()[base..base + s.h * s.w].iter().sum();
            partial[n * shape.c + c] = sum * scale;
        }
    }
    let sub = group.bind(comm);
    let total = sub.allreduce(&partial, ReduceOp::Sum);
    Tensor::from_vec(Shape4::new(n_loc, shape.c, 1, 1), total)
}

/// Backward of `dist_global_avg_pool`: per-sample replicated `dy`
/// broadcast over the owned spatial region.
fn dist_global_avg_pool_backward(x: &DistTensor, dy: &Tensor) -> DistTensor {
    let shape = x.dist().shape;
    let scale = 1.0f32 / (shape.h * shape.w) as f32;
    let own = x.own_box();
    let mut dx = DistTensor::new_unpadded(x.dist().clone(), x.rank());
    let mut local = Tensor::zeros(own.shape());
    let s = local.shape();
    for n in 0..s.n {
        for c in 0..s.c {
            let g = dy.at(n, c, 0, 0) * scale;
            let base = s.offset(n, c, 0, 0);
            for v in &mut local.as_mut_slice()[base..base + s.h * s.w] {
                *v = g;
            }
        }
    }
    dx.set_owned(&local);
    dx
}

/// [`DistLayer`] driver for global average pooling.
#[derive(Debug)]
pub struct GapLayer {
    base: LayerBase,
}

impl GapLayer {
    /// Wrap a global-average-pool layer for uniform scheduling.
    pub fn new(base: LayerBase) -> Self {
        GapLayer { base }
    }
}

impl DistLayer for GapLayer {
    fn base(&self) -> &LayerBase {
        &self.base
    }

    fn compile_plan(&self, rank: usize) -> LayerPlan {
        let mut plan = self.base.compile_io(rank);
        plan.spatial_group = Some(spatial_group_layout(rank, self.base.grid));
        plan
    }

    fn forward(&self, comm: &WorldComm, cx: &mut FwdCx<'_>) -> Act {
        let x = cx.input(0).shard_of(self.base.id, &self.base.kind);
        let group = cx.plan.spatial_group.as_ref().expect("GAP plan has a spatial group");
        Act::PerSample(dist_global_avg_pool(comm, x, group))
    }

    fn backward(&self, _comm: &WorldComm, cx: &BwdCx<'_>, dy: Act) -> BwdOut {
        let dy = dy.into_per_sample_of(self.base.id, &self.base.kind);
        let x = cx.input(&self.base, 0).shard_of(self.base.id, &self.base.kind);
        let dx = dist_global_avg_pool_backward(x, &dy);
        BwdOut { dparents: vec![(0, Act::Shard(dx))], grads: None }
    }

    fn needs_input_for_backward(&self) -> bool {
        true
    }

    fn record_forward(&self, cx: &TraceCx<'_>, rec: &mut fg_comm::TraceRecorder) {
        let group = cx.plan.spatial_group.as_ref().expect("GAP plan has a spatial group");
        let in_dist = self.base.in_dist.as_ref().expect("GAP consumes a sharded input");
        let own = in_dist.local_box(cx.rank);
        let n_loc = own.hi[0] - own.lo[0];
        let count = n_loc * in_dist.shape.c;
        rec.sub_allreduce(group.members(), group.group_id(), count, fg_comm::ScalarType::F32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_comm::run_ranks;
    use fg_tensor::gather::gather_to_root;
    use fg_tensor::{ProcGrid, TensorDist};

    fn pattern(shape: Shape4, seed: usize) -> Tensor {
        Tensor::from_fn(shape, |n, c, h, w| {
            (((n * 29 + c * 13 + h * 7 + w * 3 + seed) % 17) as f32) * 0.4 - 3.0
        })
    }

    #[test]
    fn global_avg_pool_replicates_within_sample_groups() {
        let shape = Shape4::new(4, 3, 6, 6);
        let x = pattern(shape, 8);
        let grid = ProcGrid::hybrid(2, 2, 1);
        let dist = TensorDist::new(shape, grid);
        let serial = fg_nn::network::global_avg_pool(&x);
        let outs = run_ranks(4, |comm| {
            let xs = DistTensor::from_global(dist.clone(), comm.rank(), &x, [0; 4], [0; 4]);
            dist_global_avg_pool(comm, &xs, &spatial_group_layout(comm.rank(), grid))
        });
        // Ranks 0,1 share sample block 0..2; ranks 2,3 share 2..4.
        assert_eq!(outs[0], outs[1]);
        assert_eq!(outs[2], outs[3]);
        for n in 0..2 {
            for c in 0..3 {
                assert!((outs[0].at(n, c, 0, 0) - serial.at(n, c, 0, 0)).abs() < 1e-5);
                assert!((outs[2].at(n, c, 0, 0) - serial.at(n + 2, c, 0, 0)).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn global_avg_pool_backward_matches_serial() {
        let shape = Shape4::new(2, 2, 4, 4);
        let x = pattern(shape, 9);
        let grid = ProcGrid::spatial(2, 2);
        let dist = TensorDist::new(shape, grid);
        let dy = pattern(Shape4::new(2, 2, 1, 1), 10);
        let serial = fg_nn::network::global_avg_pool_backward(&x, &dy);
        let outs = run_ranks(4, |comm| {
            let xs = DistTensor::from_global(dist.clone(), comm.rank(), &x, [0; 4], [0; 4]);
            let dx = dist_global_avg_pool_backward(&xs, &dy);
            gather_to_root(comm, &dx, 0)
        });
        assert_eq!(outs[0].as_ref().unwrap(), &serial);
    }
}
