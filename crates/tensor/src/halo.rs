//! Halo exchange among adjacent shards (paper §III-A and Fig. 1b).
//!
//! Spatially partitioned convolution needs `O = ⌊K/2⌋` rows/columns of
//! remote data at partition borders. A [`HaloPlan`], compiled once per
//! layer from the layout alone, names the boxes each rank sends and
//! receives; [`exchange_halo_with_plan`] (or its split form,
//! [`start_halo_exchange`] / [`finish_halo_exchange`]) fills each rank's
//! margins with the neighbors' border data, establishing the window
//! invariant documented in [`crate::disttensor`].
//!
//! The implementation is a *generalized box exchange* rather than a
//! hard-coded 8-neighbor stencil: each rank intersects every other shard's
//! owned box with its own needed-but-not-owned region and transfers
//! exactly those boxes. For the common case (margin smaller than the
//! local block) this degenerates to the paper's north/south/east/west
//! sends plus corner sends — the same message count the performance model
//! assumes — while remaining correct when a margin spans multiple
//! neighbor blocks or the grid is partitioned in N or C too.

use fg_comm::{Communicator, OpClass};

use crate::dist::TensorDist;
use crate::disttensor::DistTensor;
use crate::shape::{Box4, NDIMS};

/// Plan of one rank's sends and receives for a halo exchange.
///
/// Building the plan is pure geometry (no communication), so it can be
/// computed once per layer and reused every iteration, as the paper's
/// implementation does.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HaloPlan {
    /// `(peer, global box)` pairs this rank must send (peer's halo ∩ mine).
    pub sends: Vec<(usize, Box4)>,
    /// `(peer, global box)` pairs this rank will receive (my halo ∩ peer's).
    pub recvs: Vec<(usize, Box4)>,
}

impl HaloPlan {
    /// Construct the exchange plan for `dt`'s rank. All ranks must build
    /// plans from identically laid-out `DistTensor`s (same distribution
    /// and margins).
    pub fn build(dt: &DistTensor) -> HaloPlan {
        HaloPlan::for_layout(dt.dist(), dt.rank(), dt.margin_lo(), dt.margin_hi())
    }

    /// Construct the exchange plan from layout alone — distribution,
    /// rank, and margins — without materializing a tensor. This is what
    /// plan compilation uses: the geometry of a halo exchange depends
    /// only on the layout, so a layer can compile its plan once at
    /// construction and reuse it for every activation that flows through.
    pub fn for_layout(
        dist: &TensorDist,
        rank: usize,
        margin_lo: [usize; NDIMS],
        margin_hi: [usize; NDIMS],
    ) -> HaloPlan {
        let bounds = dist.shape.full_box();
        let own_me = dist.local_box(rank);
        let needed = own_me.expand_clamped(margin_lo, margin_hi, &bounds);
        let mut plan = HaloPlan::default();

        // What I receive: my needed box minus my own box, intersected
        // with each owner. The visitor never reports empty boxes.
        dist.visit_overlapping(&needed, |peer, inter| {
            if peer != rank {
                plan.recvs.push((peer, inter));
            }
        });

        // What I send: every other rank's needed-minus-own ∩ my own box.
        // Margins are a layout property shared by all ranks, so peer
        // geometry is computed locally.
        // Candidate peers only, not all of `0..world`: peer_needed =
        // peer_own expanded by (margin_lo, margin_hi), so it can reach
        // my own box iff peer_own intersects my own box expanded by the
        // *swapped* margins (their low-side growth faces my high side).
        // The visitor yields the candidates in ascending rank order; the
        // exact send region is computed per candidate.
        let reach = own_me.expand_clamped(margin_hi, margin_lo, &bounds);
        dist.visit_overlapping(&reach, |peer, _| {
            if peer == rank {
                return;
            }
            let peer_needed = dist.local_box(peer).expand_clamped(margin_lo, margin_hi, &bounds);
            let inter = peer_needed.intersect(&own_me);
            if !inter.is_empty() {
                plan.sends.push((peer, inter));
            }
        });
        plan
    }

    /// Total elements this rank sends.
    pub fn send_elements(&self) -> usize {
        self.sends.iter().map(|(_, b)| b.len()).sum()
    }

    /// Total elements this rank receives.
    pub fn recv_elements(&self) -> usize {
        self.recvs.iter().map(|(_, b)| b.len()).sum()
    }
}

/// Record the wire traffic of one forward-direction halo exchange into a
/// symbolic trace, mirroring [`start_halo_exchange`] /
/// [`finish_halo_exchange`] exactly: one world tag is drawn
/// unconditionally (even for an empty plan — the runtime draws before it
/// inspects the send list, and the verifier's tag simulation must stay in
/// lockstep), then sends and receives are recorded in plan order as f32
/// payloads.
pub fn record_halo_exchange(rec: &mut fg_comm::TraceRecorder, plan: &HaloPlan) {
    rec.begin_exchange();
    let tag = rec.next_world_tag();
    for (peer, gbox) in &plan.sends {
        rec.send(*peer, tag, gbox.len(), fg_comm::ScalarType::F32);
    }
    for (peer, gbox) in &plan.recvs {
        rec.recv(*peer, tag, gbox.len(), fg_comm::ScalarType::F32);
    }
}

/// Fill `dt`'s margins from neighboring shards along `plan`, which must
/// have been compiled for `dt`'s layout ([`HaloPlan::build`] or
/// [`HaloPlan::for_layout`]).
///
/// Collective over `comm`, whose size must equal the distribution's world
/// size and whose ranks must match shard ranks. After the call, the
/// window invariant holds: the local buffer equals the global tensor on
/// the in-bounds window, zeros outside.
pub fn exchange_halo_with_plan<C: Communicator>(comm: &C, dt: &mut DistTensor, plan: &HaloPlan) {
    let tag = start_halo_exchange(comm, dt, plan);
    finish_halo_exchange(comm, dt, plan, tag);
}

/// Post the sends of a halo exchange and return the exchange tag.
///
/// This is the §IV-A overlap hook: after `start`, the caller can compute
/// on the *interior* of its shard (which needs no halo) and only then
/// call [`finish_halo_exchange`] before touching boundary regions. Sends
/// read only owned data, so the owned region must not be mutated between
/// start and finish.
pub fn start_halo_exchange<C: Communicator>(
    comm: &C,
    dt: &DistTensor,
    plan: &HaloPlan,
) -> fg_comm::Tag {
    debug_assert_eq!(comm.size(), dt.dist().world_size(), "communicator/distribution mismatch");
    debug_assert_eq!(comm.rank(), dt.rank(), "rank mismatch");
    comm.with_class(OpClass::Halo, || {
        let tag = comm.next_collective_tag();
        for (peer, gbox) in &plan.sends {
            let lbox = dt.global_to_local_box(gbox);
            comm.send(*peer, tag, dt.local().pack_box(&lbox));
        }
        tag
    })
}

/// Receive and unpack the halos posted by [`start_halo_exchange`].
pub fn finish_halo_exchange<C: Communicator>(
    comm: &C,
    dt: &mut DistTensor,
    plan: &HaloPlan,
    tag: fg_comm::Tag,
) {
    comm.with_class(OpClass::Halo, || {
        for (peer, gbox) in &plan.recvs {
            let data = comm.recv::<f32>(*peer, tag);
            let lbox = dt.global_to_local_box(gbox);
            dt.local_mut().unpack_box(&lbox, &data);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Tensor;
    use crate::dist::TensorDist;
    use crate::procgrid::ProcGrid;
    use crate::shape::{Shape4, NDIMS};
    use fg_comm::run_ranks;

    fn global_pattern(shape: Shape4) -> Tensor {
        Tensor::from_fn(shape, |n, c, h, w| (n * 10000 + c * 1000 + h * 10 + w) as f32 + 0.5)
    }

    /// After exchange, every in-window position must equal the global
    /// value (window invariant); out-of-bounds margin stays zero.
    fn check_window_invariant(dt: &DistTensor, global: &Tensor) {
        let dims = dt.local().shape().dims();
        for idx_local in (Box4::new([0; 4], dims)).iter() {
            let mut g = [0i64; NDIMS];
            let mut in_bounds = true;
            for d in 0..NDIMS {
                g[d] = idx_local[d] as i64 + dt.origin()[d];
                if g[d] < 0 || g[d] >= global.shape().dims()[d] as i64 {
                    in_bounds = false;
                }
            }
            let lv = dt.local().at(idx_local[0], idx_local[1], idx_local[2], idx_local[3]);
            if in_bounds {
                let gv = global.at(g[0] as usize, g[1] as usize, g[2] as usize, g[3] as usize);
                assert_eq!(lv, gv, "window mismatch at local {idx_local:?} global {g:?}");
            } else {
                assert_eq!(lv, 0.0, "padding not zero at local {idx_local:?}");
            }
        }
    }

    fn run_exchange(grid: ProcGrid, shape: Shape4, mlo: [usize; 4], mhi: [usize; 4]) {
        let dist = TensorDist::new(shape, grid);
        let global = global_pattern(shape);
        run_ranks(grid.size(), |comm| {
            let mut dt = DistTensor::from_global(dist.clone(), comm.rank(), &global, mlo, mhi);
            let plan = HaloPlan::build(&dt);
            exchange_halo_with_plan(comm, &mut dt, &plan);
            check_window_invariant(&dt, &global);
        });
    }

    #[test]
    fn spatial_2x2_exchange_with_corners() {
        run_exchange(ProcGrid::spatial(2, 2), Shape4::new(2, 3, 8, 8), [0, 0, 1, 1], [0, 0, 1, 1]);
    }

    #[test]
    fn asymmetric_margins() {
        run_exchange(ProcGrid::spatial(2, 2), Shape4::new(1, 2, 9, 7), [0, 0, 2, 0], [0, 0, 1, 3]);
    }

    #[test]
    fn height_only_partition() {
        run_exchange(ProcGrid::spatial(4, 1), Shape4::new(1, 1, 16, 5), [0, 0, 3, 0], [0, 0, 3, 0]);
    }

    #[test]
    fn margin_spanning_multiple_neighbors() {
        // Blocks of 2 rows with a margin of 3: halo reaches two neighbors.
        run_exchange(ProcGrid::spatial(4, 1), Shape4::new(1, 1, 8, 4), [0, 0, 3, 0], [0, 0, 3, 0]);
    }

    #[test]
    fn hybrid_sample_spatial_grid() {
        run_exchange(
            ProcGrid::hybrid(2, 2, 2),
            Shape4::new(4, 2, 8, 8),
            [0, 0, 2, 2],
            [0, 0, 2, 2],
        );
    }

    #[test]
    fn uneven_blocks() {
        // 10 rows over 3 ranks: blocks of 4, 3, 3.
        run_exchange(ProcGrid::spatial(3, 1), Shape4::new(1, 1, 10, 3), [0, 0, 2, 0], [0, 0, 2, 0]);
    }

    #[test]
    fn plan_matches_paper_message_pattern() {
        // Interior rank of a 3x3 spatial grid: 4 side + 4 corner sends.
        let dist = TensorDist::new(Shape4::new(1, 1, 12, 12), ProcGrid::spatial(3, 3));
        let dt = DistTensor::new(dist.clone(), 4, [0, 0, 1, 1], [0, 0, 1, 1]);
        let plan = HaloPlan::build(&dt);
        assert_eq!(plan.sends.len(), 8, "interior rank sends to 8 neighbors");
        assert_eq!(plan.recvs.len(), 8, "interior rank receives from 8 neighbors");
        // Side halo: 1 row of 4 (or 4x1); corner halo: 1 element.
        let sizes: Vec<usize> = plan.recvs.iter().map(|(_, b)| b.len()).collect();
        assert_eq!(sizes.iter().filter(|&&s| s == 4).count(), 4);
        assert_eq!(sizes.iter().filter(|&&s| s == 1).count(), 4);
        // Corner rank: 3 neighbors only.
        let dt0 = DistTensor::new(dist.clone(), 0, [0, 0, 1, 1], [0, 0, 1, 1]);
        let plan0 = HaloPlan::build(&dt0);
        assert_eq!(plan0.recvs.len(), 3);
    }

    #[test]
    fn sends_and_receives_run_in_ascending_rank_order() {
        // Uneven blocks and margins of up to 2: halos reach past the
        // nearest neighbor, so each list has many peers to order.
        let grid = ProcGrid::spatial(3, 3);
        let gw = crate::weights::GridWeights::from_rank_weights(grid, &[1, 2, 3, 2, 3, 1, 3, 1, 2]);
        let dist = TensorDist::weighted(Shape4::new(2, 1, 9, 8), grid, gw);
        for rank in 0..grid.size() {
            let plan = HaloPlan::for_layout(&dist, rank, [0, 0, 2, 2], [0, 0, 2, 1]);
            for list in [&plan.sends, &plan.recvs] {
                assert!(list.windows(2).all(|w| w[0].0 < w[1].0), "rank {rank}: {list:?}");
            }
        }
    }

    #[test]
    fn zero_margin_is_a_no_op() {
        let dist = TensorDist::new(Shape4::new(1, 1, 8, 8), ProcGrid::spatial(2, 2));
        let global = global_pattern(dist.shape);
        run_ranks(4, |comm| {
            let mut dt =
                DistTensor::from_global(dist.clone(), comm.rank(), &global, [0; 4], [0; 4]);
            let plan = HaloPlan::build(&dt);
            assert!(plan.sends.is_empty() && plan.recvs.is_empty());
            exchange_halo_with_plan(comm, &mut dt, &plan);
            check_window_invariant(&dt, &global);
        });
    }
}
