//! Assembling a full tensor at a root rank.
//!
//! Used at the edge of the training pipeline (inspecting results) and
//! heavily in tests, where the serial reference runs on the gathered
//! tensor.

use fg_comm::{Collectives, Communicator};

use crate::dense::Tensor;
use crate::disttensor::DistTensor;

/// Gather the owned shards of `dt` into a full tensor on `root`.
/// Returns `Some` on the root, `None` elsewhere. Collective.
pub fn gather_to_root<C: Communicator>(comm: &C, dt: &DistTensor, root: usize) -> Option<Tensor> {
    let dist = dt.dist().clone();
    debug_assert_eq!(comm.size(), dist.world_size());
    let mine = dt.owned_tensor();
    let parts = comm.gatherv(root, mine.as_slice().to_vec())?;
    let mut full = Tensor::zeros(dist.shape);
    for (rank, data) in parts.into_iter().enumerate() {
        let b = dist.local_box(rank);
        full.unpack_box(&b, &data);
    }
    Some(full)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::TensorDist;
    use crate::procgrid::ProcGrid;
    use crate::shape::Shape4;
    use fg_comm::run_ranks;

    fn pattern(shape: Shape4) -> Tensor {
        Tensor::from_fn(shape, |n, c, h, w| (((n * 3 + c) * 17 + h) * 19 + w) as f32 * 0.25)
    }

    #[test]
    fn gather_assembles_at_the_root_only() {
        let shape = Shape4::new(4, 2, 6, 6);
        let dist = TensorDist::new(shape, ProcGrid::hybrid(2, 2, 1));
        let global = pattern(shape);
        let outs = run_ranks(4, |comm| {
            let dt = DistTensor::from_global(dist.clone(), comm.rank(), &global, [0; 4], [0; 4]);
            gather_to_root(comm, &dt, 3)
        });
        assert!(outs[0].is_none() && outs[1].is_none() && outs[2].is_none());
        assert_eq!(outs[3].as_ref().unwrap(), &global);
    }
}
