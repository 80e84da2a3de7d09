//! Data redistribution between distributions (paper §III-C).
//!
//! When adjacent layers use different distributions — e.g. a spatially
//! partitioned conv feeding a sample-parallel conv, or a conv feeding a
//! model-parallel FC layer — activations (forward) and error signals
//! (backward) must be shuffled. As in the paper, the shuffle is an
//! all-to-all where each rank sends the indices it owns under `D_i` but
//! not under `D_j` and receives the converse. Since the redistribution is
//! a *permutation* of elements, running it backward is simply a shuffle
//! with the distributions swapped.

use fg_comm::{Collectives, Communicator, OpClass, ScalarType, TraceRecorder};

use crate::dist::TensorDist;
use crate::disttensor::DistTensor;
use crate::shape::{Box4, NDIMS};

/// One rank's precompiled geometry for a §III-C redistribution: which
/// global boxes it contributes to each peer and which it receives.
///
/// Building the plan is pure geometry; [`ShufflePlan::execute`] performs
/// the all-to-all. Compiling once per layer edge and executing every
/// iteration is the plan-once/execute-many structure of the paper's
/// implementation. Send and receive boxes are enumerated in
/// `ranks_overlapping` order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShufflePlan {
    src: TensorDist,
    dst: TensorDist,
    rank: usize,
    /// `(peer, global box)` this rank packs for each destination, in
    /// destination-overlap order.
    sends: Vec<(usize, Box4)>,
    /// `(peer, global box)` this rank unpacks from each source, in
    /// source-overlap order.
    recvs: Vec<(usize, Box4)>,
}

impl ShufflePlan {
    /// Compile the shuffle geometry for one rank.
    ///
    /// Both distributions must cover the same global shape on the same
    /// world size.
    pub fn build(src: TensorDist, dst: TensorDist, rank: usize) -> ShufflePlan {
        assert_eq!(src.shape, dst.shape, "redistribution cannot change the global shape");
        assert_eq!(
            src.world_size(),
            dst.world_size(),
            "redistribution across different world sizes is not supported"
        );
        let my_old = src.local_box(rank);
        let my_new = dst.local_box(rank);
        let sends = dst.ranks_overlapping(&my_old);
        let recvs = src.ranks_overlapping(&my_new);
        ShufflePlan { src, dst, rank, sends, recvs }
    }

    /// Total elements this rank contributes to the all-to-all.
    pub fn send_elements(&self) -> usize {
        self.sends.iter().map(|(_, b)| b.len()).sum()
    }

    /// The `(peer, global box)` pairs this rank packs for each
    /// destination.
    pub fn sends(&self) -> &[(usize, Box4)] {
        &self.sends
    }

    /// The `(peer, global box)` pairs this rank unpacks from each source.
    pub fn recvs(&self) -> &[(usize, Box4)] {
        &self.recvs
    }

    /// Mutable access to the send list — a corruption hook for the
    /// schedule verifier's mutation tests, which skew a destination to
    /// prove the conservation check catches it. Production code never
    /// edits a compiled plan.
    pub fn sends_mut(&mut self) -> &mut Vec<(usize, Box4)> {
        &mut self.sends
    }

    /// Check shuffle conservation for this rank: the receive boxes must
    /// partition the destination shard — every owned element arrives
    /// exactly once, no gaps, no overlaps.
    pub fn check_conservation(&self) -> Result<(), String> {
        let target = self.dst.local_box(self.rank);
        let boxes: Vec<Box4> = self.recvs.iter().map(|(_, b)| *b).collect();
        check_box_partition(&target, &boxes).map_err(|e| {
            format!("shuffle recvs of rank {} do not partition its shard: {e}", self.rank)
        })
    }

    /// Record the all-to-all this plan's `execute` would run into a
    /// symbolic trace, mirroring the runtime's pairwise exchange exactly:
    /// a singleton world returns without drawing a tag; otherwise one
    /// world tag covers the whole exchange and every step sends to
    /// `(rank+step) % p` / receives from `(rank−step) % p`, including
    /// zero-length blocks (the runtime ships empty payloads too). The
    /// self block is copied locally and never hits the wire.
    pub fn record(&self, rec: &mut TraceRecorder) {
        let p = self.src.world_size();
        if p == 1 {
            return;
        }
        let mut to_counts = vec![0usize; p];
        for (peer, b) in &self.sends {
            to_counts[*peer] += b.len();
        }
        let mut from_counts = vec![0usize; p];
        for (peer, b) in &self.recvs {
            from_counts[*peer] += b.len();
        }
        rec.begin_exchange();
        let tag = rec.next_world_tag();
        for step in 1..p {
            let dst = (self.rank + step) % p;
            let src = (self.rank + p - step) % p;
            rec.send(dst, tag, to_counts[dst], ScalarType::F32);
            rec.recv(src, tag, from_counts[src], ScalarType::F32);
        }
    }

    /// Run the planned all-to-all: shuffle `src` into a fresh shard of
    /// the destination distribution, allocated with the given margins
    /// (unfilled; run a halo exchange afterwards if needed).
    ///
    /// Collective over `comm`. `src` must be laid out exactly as the
    /// plan was compiled for (same distribution and rank).
    pub fn execute<C: Communicator>(
        &self,
        comm: &C,
        src: &DistTensor,
        margin_lo: [usize; NDIMS],
        margin_hi: [usize; NDIMS],
    ) -> DistTensor {
        assert_eq!(*src.dist(), self.src, "tensor does not match the plan's source distribution");
        assert_eq!(src.rank(), self.rank, "tensor rank does not match the plan's rank");
        debug_assert_eq!(comm.size(), self.src.world_size());
        debug_assert_eq!(comm.rank(), self.rank);

        let mut dst = DistTensor::new(self.dst.clone(), self.rank, margin_lo, margin_hi);
        comm.with_class(OpClass::Shuffle, || {
            // Payload for each destination rank: my old box ∩ their new box.
            let mut sends: Vec<Vec<f32>> = (0..comm.size()).map(|_| Vec::new()).collect();
            for (peer, inter) in &self.sends {
                let lbox = src.global_to_local_box(inter);
                sends[*peer] = src.local().pack_box(&lbox);
            }
            let recvs = comm.alltoallv(sends);
            // Unpack: from each source rank, their old box ∩ my new box.
            for (peer, inter) in &self.recvs {
                let lbox = dst.global_to_local_box(inter);
                dst.local_mut().unpack_box(&lbox, &recvs[*peer]);
            }
        });
        dst
    }
}

/// Check that `boxes` exactly partition `target`: every box contained in
/// the target, no two boxes overlapping, and the volumes summing to the
/// target's — which together mean each target element is covered exactly
/// once. [`ShufflePlan::check_conservation`] is built on this.
pub fn check_box_partition(target: &Box4, boxes: &[Box4]) -> Result<(), String> {
    let mut volume = 0usize;
    for b in boxes {
        if b.is_empty() {
            return Err(format!("empty box {b:?} in partition of {target:?}"));
        }
        if b.intersect(target) != *b {
            return Err(format!("box {b:?} leaks outside the target {target:?}"));
        }
        volume += b.len();
    }
    for (i, a) in boxes.iter().enumerate() {
        for b in &boxes[i + 1..] {
            let inter = a.intersect(b);
            if !inter.is_empty() {
                return Err(format!("boxes {a:?} and {b:?} overlap on {inter:?}"));
            }
        }
    }
    if volume != target.len() {
        return Err(format!(
            "boxes cover {volume} of the target's {} elements — the gap would stay \
             uninitialized",
            target.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Tensor;
    use crate::procgrid::ProcGrid;
    use crate::shape::Shape4;
    use fg_comm::run_ranks;

    fn pattern(shape: Shape4) -> Tensor {
        Tensor::from_fn(shape, |n, c, h, w| (((n * 7 + c) * 11 + h) * 13 + w) as f32)
    }

    /// One rank's shuffle of `src` into `dst`, through a freshly
    /// compiled plan.
    fn shuffle<C: Communicator>(
        comm: &C,
        src: &DistTensor,
        dst: &TensorDist,
        margin: [usize; NDIMS],
    ) -> DistTensor {
        ShufflePlan::build(src.dist().clone(), dst.clone(), comm.rank())
            .execute(comm, src, margin, margin)
    }

    fn check_roundtrip(shape: Shape4, from: ProcGrid, to: ProcGrid) {
        assert_eq!(from.size(), to.size());
        let d_from = TensorDist::new(shape, from);
        let d_to = TensorDist::new(shape, to);
        let global = pattern(shape);
        run_ranks(from.size(), |comm| {
            let src = DistTensor::from_global(d_from.clone(), comm.rank(), &global, [0; 4], [0; 4]);
            let mid = shuffle(comm, &src, &d_to, [0; 4]);
            // Every owned element of the new distribution matches the global.
            for idx in mid.own_box().iter() {
                assert_eq!(mid.get_global(idx), Some(global.at_idx(idx)));
            }
            // And shuffling back restores the original shard exactly.
            let back = shuffle(comm, &mid, &d_from, [0; 4]);
            assert_eq!(back.owned_tensor(), src.owned_tensor());
        });
    }

    #[test]
    fn shuffle_traffic_is_booked_as_shuffle_not_alltoall() {
        let shape = Shape4::new(4, 3, 8, 8);
        let d_from = TensorDist::new(shape, ProcGrid::sample(4));
        let d_to = TensorDist::new(shape, ProcGrid::spatial(2, 2));
        let global = pattern(shape);
        let stats = run_ranks(4, |comm| {
            let src = DistTensor::from_global(d_from.clone(), comm.rank(), &global, [0; 4], [0; 4]);
            shuffle(comm, &src, &d_to, [0; 4]);
            comm.stats()
        });
        for s in &stats {
            // Each rank keeps a quarter of its sample and sends the rest.
            assert_eq!(s.bytes(OpClass::Shuffle), 3 * 3 * 4 * 4 * 4);
            assert_eq!(s.bytes(OpClass::AllToAll), 0);
        }
    }

    #[test]
    fn sample_to_spatial() {
        check_roundtrip(Shape4::new(4, 3, 8, 8), ProcGrid::sample(4), ProcGrid::spatial(2, 2));
    }

    #[test]
    fn spatial_to_spatial_different_factorization() {
        check_roundtrip(
            Shape4::new(2, 2, 12, 12),
            ProcGrid::spatial(4, 1),
            ProcGrid::spatial(2, 2),
        );
    }

    #[test]
    fn hybrid_to_sample() {
        check_roundtrip(Shape4::new(8, 2, 8, 8), ProcGrid::hybrid(2, 2, 2), ProcGrid::sample(8));
    }

    #[test]
    fn channel_partition_shuffle() {
        check_roundtrip(
            Shape4::new(2, 8, 4, 4),
            ProcGrid::new(2, 2, 1, 1),
            ProcGrid::new(1, 4, 1, 1),
        );
    }

    #[test]
    fn identity_redistribution_preserves_data() {
        let shape = Shape4::new(2, 2, 6, 6);
        let grid = ProcGrid::spatial(2, 2);
        let dist = TensorDist::new(shape, grid);
        let global = pattern(shape);
        run_ranks(4, |comm| {
            let src = DistTensor::from_global(dist.clone(), comm.rank(), &global, [0; 4], [0; 4]);
            let out = shuffle(comm, &src, &dist, [0; 4]);
            assert_eq!(out.owned_tensor(), src.owned_tensor());
        });
    }

    #[test]
    fn shuffle_into_margins_allocates_but_does_not_fill() {
        let shape = Shape4::new(1, 1, 8, 8);
        let d_from = TensorDist::new(shape, ProcGrid::spatial(4, 1));
        let d_to = TensorDist::new(shape, ProcGrid::spatial(1, 4));
        let global = pattern(shape);
        run_ranks(4, |comm| {
            let src = DistTensor::from_global(d_from.clone(), comm.rank(), &global, [0; 4], [0; 4]);
            let out = shuffle(comm, &src, &d_to, [0, 0, 1, 1]);
            for idx in out.own_box().iter() {
                assert_eq!(out.get_global(idx), Some(global.at_idx(idx)));
            }
            // Margins not filled by the shuffle.
            let needed = out.needed_box();
            for idx in needed.iter() {
                if !out.own_box().contains(idx) {
                    assert_eq!(out.get_global(idx), Some(0.0));
                }
            }
        });
    }
}
