//! Distributed ReLU and residual add (paper §III-B): elementwise,
//! "parallelize trivially regardless of distribution".

use fg_comm::WorldComm;
use fg_tensor::DistTensor;

use crate::executor::Act;
use crate::layers::plan::{BwdCx, BwdOut, DistLayer, FwdCx, LayerBase};

/// Distributed ReLU: elementwise on the owned region.
fn dist_relu_forward(x: &DistTensor) -> DistTensor {
    let mut y = DistTensor::new_unpadded(x.dist().clone(), x.rank());
    y.set_owned(&fg_kernels::relu::relu_forward(&x.owned_tensor()));
    y
}

/// Distributed ReLU backward.
fn dist_relu_backward(x: &DistTensor, dy: &DistTensor) -> DistTensor {
    let mut dx = DistTensor::new_unpadded(x.dist().clone(), x.rank());
    dx.set_owned(&fg_kernels::relu::relu_backward(&x.owned_tensor(), &dy.owned_tensor()));
    dx
}

/// Distributed elementwise add (residual join); shards must share a
/// distribution.
fn dist_add(parts: &[&DistTensor]) -> DistTensor {
    assert!(!parts.is_empty());
    let mut acc = parts[0].owned_tensor();
    for p in &parts[1..] {
        assert_eq!(p.dist(), parts[0].dist(), "residual join requires matching distributions");
        acc.add_assign(&p.owned_tensor());
    }
    let mut y = DistTensor::new_unpadded(parts[0].dist().clone(), parts[0].rank());
    y.set_owned(&acc);
    y
}

/// [`DistLayer`] driver for distributed ReLU.
#[derive(Debug)]
pub struct ReluLayer {
    base: LayerBase,
}

impl ReluLayer {
    /// Wrap a ReLU layer for uniform scheduling.
    pub fn new(base: LayerBase) -> Self {
        ReluLayer { base }
    }
}

impl DistLayer for ReluLayer {
    fn base(&self) -> &LayerBase {
        &self.base
    }

    fn forward(&self, _comm: &WorldComm, cx: &mut FwdCx<'_>) -> Act {
        let x = cx.input(0).shard_of(self.base.id, &self.base.kind);
        Act::Shard(dist_relu_forward(x))
    }

    fn backward(&self, _comm: &WorldComm, cx: &BwdCx<'_>, dy: Act) -> BwdOut {
        let dy = dy.into_shard_of(self.base.id, &self.base.kind);
        let x = cx.input(&self.base, 0).shard_of(self.base.id, &self.base.kind);
        BwdOut { dparents: vec![(0, Act::Shard(dist_relu_backward(x, &dy)))], grads: None }
    }

    fn needs_input_for_backward(&self) -> bool {
        true
    }
}

/// [`DistLayer`] driver for the residual join.
#[derive(Debug)]
pub struct AddLayer {
    base: LayerBase,
}

impl AddLayer {
    /// Wrap a residual-add layer for uniform scheduling.
    pub fn new(base: LayerBase) -> Self {
        AddLayer { base }
    }
}

impl DistLayer for AddLayer {
    fn base(&self) -> &LayerBase {
        &self.base
    }

    fn forward(&self, _comm: &WorldComm, cx: &mut FwdCx<'_>) -> Act {
        let shards: Vec<&DistTensor> = (0..self.base.parents.len())
            .map(|i| cx.input(i).shard_of(self.base.id, &self.base.kind))
            .collect();
        Act::Shard(dist_add(&shards))
    }

    fn backward(&self, _comm: &WorldComm, _cx: &BwdCx<'_>, dy: Act) -> BwdOut {
        // The error signal passes through unchanged to every parent;
        // clone for all but the last edge, move into the last.
        let n = self.base.parents.len();
        let mut dparents: Vec<(usize, Act)> = (0..n - 1).map(|i| (i, dy.clone())).collect();
        dparents.push((n - 1, dy));
        BwdOut { dparents, grads: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_comm::{run_ranks, Communicator};
    use fg_tensor::gather::gather_to_root;
    use fg_tensor::{ProcGrid, Shape4, Tensor, TensorDist};

    fn pattern(shape: Shape4, seed: usize) -> Tensor {
        Tensor::from_fn(shape, |n, c, h, w| {
            (((n * 29 + c * 13 + h * 7 + w * 3 + seed) % 17) as f32) * 0.4 - 3.0
        })
    }

    #[test]
    fn relu_and_add_preserve_distribution_equivalence() {
        let shape = Shape4::new(2, 2, 6, 6);
        let a = pattern(shape, 6);
        let b = pattern(shape, 7);
        let grid = ProcGrid::spatial(2, 2);
        let dist = TensorDist::new(shape, grid);
        let outs = run_ranks(4, |comm| {
            let da = DistTensor::from_global(dist.clone(), comm.rank(), &a, [0; 4], [0; 4]);
            let db = DistTensor::from_global(dist.clone(), comm.rank(), &b, [0; 4], [0; 4]);
            let sum = dist_add(&[&da, &db]);
            let r = dist_relu_forward(&sum);
            let dy = DistTensor::from_global(dist.clone(), comm.rank(), &b, [0; 4], [0; 4]);
            let dx = dist_relu_backward(&sum, &dy);
            (gather_to_root(comm, &r, 0), gather_to_root(comm, &dx, 0))
        });
        let mut sum_serial = a.clone();
        sum_serial.add_assign(&b);
        let r_serial = fg_kernels::relu::relu_forward(&sum_serial);
        let dx_serial = fg_kernels::relu::relu_backward(&sum_serial, &b);
        assert_eq!(outs[0].0.as_ref().unwrap(), &r_serial);
        assert_eq!(outs[0].1.as_ref().unwrap(), &dx_serial);
    }
}
