//! Distributed softmax cross-entropy (paper §III-B): per-position over
//! shards (semantic segmentation) or per-sample over replicated
//! activations (classification).

use fg_comm::{Collectives, Communicator, ReduceOp, SubCommLayout, WorldComm};
use fg_kernels::loss::{softmax_cross_entropy, Labels};
use fg_tensor::{DistTensor, Tensor};

use crate::executor::Act;
use crate::layers::groups::cross_section_group_layout;
use crate::layers::plan::{BwdCx, BwdOut, DistLayer, FwdCx, LayerBase, LayerPlan, TraceCx};

/// Distributed per-position softmax cross-entropy on a shard
/// (semantic segmentation). Returns `(global mean loss, local dlogits)`.
///
/// Labels are globally replicated; each rank slices its owned positions.
fn dist_softmax_xent_shard<C: Communicator>(
    comm: &C,
    logits: &DistTensor,
    labels: &Labels,
) -> (f64, DistTensor) {
    let shape = logits.dist().shape;
    assert_eq!((labels.n, labels.h, labels.w), (shape.n, shape.h, shape.w));
    let own = logits.own_box();
    let owned = logits.owned_tensor();
    // Slice labels to the owned positions.
    let mut local_labels = Vec::with_capacity(
        (own.hi[0] - own.lo[0]) * (own.hi[2] - own.lo[2]) * (own.hi[3] - own.lo[3]),
    );
    for n in own.lo[0]..own.hi[0] {
        for h in own.lo[2]..own.hi[2] {
            for w in own.lo[3]..own.hi[3] {
                local_labels.push(labels.at(n, h, w));
            }
        }
    }
    let local_lab = Labels::per_pixel(
        own.hi[0] - own.lo[0],
        own.hi[2] - own.lo[2],
        own.hi[3] - own.lo[3],
        local_labels,
    );
    let (mean_local, mut grad_local) = softmax_cross_entropy(&owned, &local_lab);
    let local_positions = (local_lab.n * local_lab.h * local_lab.w) as f64;
    let global_positions = (shape.n * shape.h * shape.w) as f64;
    // Convert the local mean into a global mean and rescale the gradient.
    let sums = comm.allreduce(&[mean_local * local_positions], ReduceOp::Sum);
    grad_local.scale((local_positions / global_positions) as f32);
    let mut dlogits = DistTensor::new_unpadded(logits.dist().clone(), logits.rank());
    dlogits.set_owned(&grad_local);
    (sums[0] / global_positions, dlogits)
}

/// Classification softmax cross-entropy on per-sample replicated logits
/// `(n_loc, C, 1, 1)`, summed over `group`, this rank's precompiled
/// [`cross_section_group_layout`]. Returns `(global mean loss, dlogits)`
/// with the gradient scaled by the global batch size.
fn dist_softmax_xent_per_sample<C: Communicator>(
    comm: &C,
    group: &SubCommLayout,
    logits: &Tensor,
    labels_local: &Labels,
) -> (f64, Tensor) {
    let n_loc = logits.shape().n;
    assert_eq!(labels_local.n, n_loc, "labels must match the local sample block");
    let (mean_local, mut grad) = softmax_cross_entropy(logits, labels_local);
    // Sum distinct sample blocks only: replicas within a sample group
    // hold identical values, so reduce across the cross-section.
    let sub = group.bind(comm);
    let sums = sub.allreduce(&[mean_local * n_loc as f64, n_loc as f64], ReduceOp::Sum);
    let global_n = sums[1];
    grad.scale((n_loc as f64 / global_n) as f32);
    (sums[0] / global_n, grad)
}

/// [`DistLayer`] driver for softmax cross-entropy, in either the sharded
/// (per-position) or per-sample (classification) representation.
#[derive(Debug)]
pub struct SoftmaxLossLayer {
    base: LayerBase,
    per_sample: bool,
    batch: usize,
}

impl SoftmaxLossLayer {
    /// Wrap a loss layer; `per_sample` selects the classification path.
    pub fn new(base: LayerBase, per_sample: bool, batch: usize) -> Self {
        SoftmaxLossLayer { base, per_sample, batch }
    }
}

impl DistLayer for SoftmaxLossLayer {
    fn base(&self) -> &LayerBase {
        &self.base
    }

    fn compile_plan(&self, rank: usize) -> LayerPlan {
        let mut plan = self.base.compile_io(rank);
        if self.per_sample {
            plan.cross_group = Some(cross_section_group_layout(rank, self.base.grid));
            let coords = self.base.grid.coords(rank);
            plan.label_range =
                Some(fg_comm::collectives::block_range(self.batch, self.base.grid.n, coords[0]));
        }
        plan
    }

    fn forward(&self, comm: &WorldComm, cx: &mut FwdCx<'_>) -> Act {
        // The loss layer's "output" is its input logits, passed through;
        // take them (moving when this layer is the sole consumer) so the
        // pass never holds two copies.
        let logits = cx.take_input(0);
        if let Some(labels) = cx.labels {
            if self.per_sample {
                let l = logits.per_sample_of(self.base.id, &self.base.kind);
                assert_eq!(labels.n, self.batch, "labels do not match the batch");
                let range =
                    cx.plan.label_range.clone().expect("per-sample loss plan has a label range");
                let local = Labels::per_sample(labels.data[range].to_vec());
                let group =
                    cx.plan.cross_group.as_ref().expect("per-sample loss plan has a cross group");
                let (loss, dl) = dist_softmax_xent_per_sample(comm, group, l, &local);
                *cx.loss = Some(loss);
                *cx.loss_grad = Some(Act::PerSample(dl));
            } else {
                let l = logits.shard_of(self.base.id, &self.base.kind);
                let (loss, dl) = dist_softmax_xent_shard(comm, l, labels);
                *cx.loss = Some(loss);
                *cx.loss_grad = Some(Act::Shard(dl));
            }
        }
        logits
    }

    fn backward(&self, _comm: &WorldComm, _cx: &BwdCx<'_>, _dy: Act) -> BwdOut {
        unreachable!("loss layers seed backward; the scheduler never calls backward on them")
    }

    fn seeds_backward(&self) -> bool {
        true
    }

    fn record_forward(&self, cx: &TraceCx<'_>, rec: &mut fg_comm::TraceRecorder) {
        if self.per_sample {
            let group =
                cx.plan.cross_group.as_ref().expect("per-sample loss plan has a cross group");
            rec.sub_allreduce(group.members(), group.group_id(), 2, fg_comm::ScalarType::F64);
        } else {
            rec.world_allreduce(1, fg_comm::ScalarType::F64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_comm::run_ranks;
    use fg_tensor::gather::gather_to_root;
    use fg_tensor::{ProcGrid, Shape4, TensorDist};

    fn pattern(shape: Shape4, seed: usize) -> Tensor {
        Tensor::from_fn(shape, |n, c, h, w| {
            (((n * 29 + c * 13 + h * 7 + w * 3 + seed) % 17) as f32) * 0.4 - 3.0
        })
    }

    #[test]
    fn shard_loss_matches_serial() {
        let shape = Shape4::new(2, 3, 4, 4);
        let logits = pattern(shape, 11);
        let labels = Labels::per_pixel(2, 4, 4, (0..32).map(|i| (i % 3) as u32).collect());
        let (loss_serial, grad_serial) = softmax_cross_entropy(&logits, &labels);
        let grid = ProcGrid::spatial(2, 2);
        let dist = TensorDist::new(shape, grid);
        let outs = run_ranks(4, |comm| {
            let ls = DistTensor::from_global(dist.clone(), comm.rank(), &logits, [0; 4], [0; 4]);
            let (loss, dl) = dist_softmax_xent_shard(comm, &ls, &labels);
            (loss, gather_to_root(comm, &dl, 0))
        });
        for (loss, _) in &outs {
            assert!((loss - loss_serial).abs() < 1e-9, "{loss} vs {loss_serial}");
        }
        outs[0].1.as_ref().unwrap().assert_close(&grad_serial, 1e-5);
    }

    #[test]
    fn per_sample_loss_sums_across_sample_groups_only() {
        // 2 sample groups × 2 replicas. Each group sees its own samples;
        // the loss must average over the 4 distinct samples once.
        let grid = ProcGrid::hybrid(2, 2, 1);
        let all_logits = pattern(Shape4::new(4, 3, 1, 1), 12);
        let all_labels: Vec<u32> = vec![0, 1, 2, 1];
        let (serial_loss, serial_grad) =
            softmax_cross_entropy(&all_logits, &Labels::per_sample(all_labels.clone()));
        let outs = run_ranks(4, |comm| {
            let coords = grid.coords(comm.rank());
            let nb = fg_comm::collectives::block_range(4, 2, coords[0]);
            let local_logits =
                all_logits.slice_box(&fg_tensor::Box4::new([nb.start, 0, 0, 0], [nb.end, 3, 1, 1]));
            let local_labels = Labels::per_sample(all_labels[nb.clone()].to_vec());
            let group = cross_section_group_layout(comm.rank(), grid);
            dist_softmax_xent_per_sample(comm, &group, &local_logits, &local_labels)
        });
        for (loss, _) in &outs {
            assert!((loss - serial_loss).abs() < 1e-9, "{loss} vs {serial_loss}");
        }
        // Gradients: rank 0 holds samples 0..2 scaled by 1/4 globally.
        let g0 = &outs[0].1;
        for c in 0..3 {
            assert!((g0.at(0, c, 0, 0) - serial_grad.at(0, c, 0, 0)).abs() < 1e-6);
            assert!((g0.at(1, c, 0, 0) - serial_grad.at(1, c, 0, 0)).abs() < 1e-6);
        }
    }
}
