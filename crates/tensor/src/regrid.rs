//! Old-grid → new-grid redistribution across *different* world sizes.
//!
//! [`crate::shuffle::ShufflePlan`] deliberately requires the source and
//! destination distributions to share a world: it is an exchange among
//! live ranks. Elastic degradation needs the opposite — a world of `P`
//! ranks died, a world of `P' != P` ranks is taking over, and the last
//! checkpoint's shards must be re-laid-out onto the new
//! [`crate::ProcGrid`]. A [`RegridPlan`] computes the overlap geometry
//! between the two blocked distributions (the same §II-C index-set
//! intersection that drives shuffles and generalized halo exchange, via
//! [`TensorDist::ranks_overlapping`]) and executes it *locally*, fragment
//! by fragment — gather-free: no full global tensor is ever materialized,
//! each fragment is copied straight from the old shard that owns it into
//! the new shard that needs it.
//!
//! Execution is local because the two worlds never coexist: the restore
//! path is orchestrated by the recovering driver (rank 0 of the new
//! world), which holds the old shards from the checkpoint. The plan still
//! reports which fragments *would* move between rank identities —
//! survivors keep their rank ids, so a fragment whose old and new owner
//! coincide is retained in place and only the remainder is "moved", the
//! number a recovery-cost model needs.

use crate::dist::TensorDist;
use crate::procgrid::ProcGrid;
use crate::shape::Box4;
use crate::Tensor;

/// Bytes per stored element (the library is f32 throughout).
const ELEM_BYTES: usize = 4;

/// A plan for re-laying-out one blocked tensor from a source grid onto a
/// destination grid of a (possibly) different world size.
#[derive(Debug, Clone)]
pub struct RegridPlan {
    src: TensorDist,
    dst: TensorDist,
    /// `(dst_rank, src_rank, global fragment box)`: every element of the
    /// destination shard `dst_rank` is covered by exactly one fragment.
    frags: Vec<(usize, usize, Box4)>,
}

impl RegridPlan {
    /// Build the overlap plan from `src` to `dst`.
    ///
    /// # Panics
    /// Panics if the two distributions disagree on the global shape —
    /// regridding relocates data, it never reshapes it.
    pub fn build(src: TensorDist, dst: TensorDist) -> RegridPlan {
        assert_eq!(src.shape, dst.shape, "regrid preserves the global tensor shape");
        let mut frags = Vec::new();
        for dst_rank in 0..dst.world_size() {
            let need = dst.local_box(dst_rank);
            for (src_rank, inter) in src.ranks_overlapping(&need) {
                frags.push((dst_rank, src_rank, inter));
            }
        }
        RegridPlan { src, dst, frags }
    }

    /// Convenience: plan a regrid of `shape` from `old` onto `new`.
    pub fn between(shape: crate::Shape4, old: ProcGrid, new: ProcGrid) -> RegridPlan {
        RegridPlan::build(TensorDist::new(shape, old), TensorDist::new(shape, new))
    }

    /// The source distribution.
    pub fn src(&self) -> &TensorDist {
        &self.src
    }

    /// The destination distribution.
    pub fn dst(&self) -> &TensorDist {
        &self.dst
    }

    /// Elements whose owner's rank id changes (surviving ranks keep
    /// their ids, so these are the elements that cross a rank boundary).
    fn moved_elements(&self) -> usize {
        self.frags.iter().filter(|(d, s, _)| d != s).map(|(_, _, b)| b.len()).sum()
    }

    /// Total elements covered by the plan (== the global tensor size).
    fn total_elements(&self) -> usize {
        self.frags.iter().map(|(_, _, b)| b.len()).sum()
    }

    /// [`RegridPlan::moved_elements`] in bytes.
    pub fn moved_bytes(&self) -> u64 {
        (self.moved_elements() * ELEM_BYTES) as u64
    }

    /// [`RegridPlan::total_elements`] in bytes.
    pub fn total_bytes(&self) -> u64 {
        (self.total_elements() * ELEM_BYTES) as u64
    }

    /// Check regrid conservation: for every destination rank, the
    /// fragments targeting it must partition its shard — no element of
    /// the new layout left unwritten, none written twice — and every
    /// fragment must lie inside the source rank it is read from.
    pub fn check_conservation(&self) -> Result<(), String> {
        for dst_rank in 0..self.dst.world_size() {
            let target = self.dst.local_box(dst_rank);
            let boxes: Vec<Box4> =
                self.frags.iter().filter(|(d, _, _)| *d == dst_rank).map(|(_, _, b)| *b).collect();
            check_box_partition(&target, &boxes)
                .map_err(|e| format!("regrid fragments for dst rank {dst_rank}: {e}"))?;
        }
        for &(dst_rank, src_rank, ref b) in &self.frags {
            let owner = self.src.local_box(src_rank);
            if b.intersect(&owner) != *b {
                return Err(format!(
                    "regrid fragment {b:?} for dst rank {dst_rank} is read from src rank \
                     {src_rank}, which only owns {owner:?}"
                ));
            }
        }
        Ok(())
    }

    /// Execute the plan on materialized shards: `old_shards[r]` is rank
    /// `r`'s shard under the source distribution (shape
    /// `src.local_shape(r)`), the result is the shards of the
    /// destination distribution in rank order. Fragment copies go
    /// directly old shard → new shard in local coordinates; the global
    /// tensor is never assembled.
    ///
    /// # Panics
    /// Panics if a shard's shape does not match the source distribution.
    pub fn execute_local(&self, old_shards: &[Tensor]) -> Vec<Tensor> {
        assert_eq!(old_shards.len(), self.src.world_size(), "one shard per source rank");
        for (r, s) in old_shards.iter().enumerate() {
            assert_eq!(s.shape(), self.src.local_shape(r), "source shard {r} has the wrong shape");
        }
        let mut out: Vec<Tensor> =
            (0..self.dst.world_size()).map(|r| Tensor::zeros(self.dst.local_shape(r))).collect();
        for &(dst_rank, src_rank, ref b) in &self.frags {
            let src_local = b.relative_to(self.src.local_box(src_rank).lo);
            let dst_local = b.relative_to(self.dst.local_box(dst_rank).lo);
            let data = old_shards[src_rank].pack_box(&src_local);
            out[dst_rank].unpack_box(&dst_local, &data);
        }
        out
    }
}

/// Check that `boxes` exactly partition `target`: every box contained in
/// the target, no two boxes overlapping, and the volumes summing to the
/// target's — which together mean each target element is covered exactly
/// once. The conservation checks of [`RegridPlan`] and
/// [`crate::shuffle::ShufflePlan`] are both built on this.
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

/// Split a full tensor into the shards of `dist`, in rank order (the
/// serialization side of a grid-tagged checkpoint).
pub fn shard_tensor(t: &Tensor, dist: &TensorDist) -> Vec<Tensor> {
    assert_eq!(t.shape(), dist.shape, "tensor shape must match the distribution");
    (0..dist.world_size())
        .map(|r| {
            let b = dist.local_box(r);
            Tensor::from_vec(b.shape(), t.pack_box(&b))
        })
        .collect()
}

/// Reassemble a full tensor from the shards of `dist` (inverse of
/// [`shard_tensor`]).
pub fn assemble_tensor(dist: &TensorDist, shards: &[Tensor]) -> Tensor {
    assert_eq!(shards.len(), dist.world_size(), "one shard per rank");
    let mut out = Tensor::zeros(dist.shape);
    for (r, s) in shards.iter().enumerate() {
        let b = dist.local_box(r);
        assert_eq!(s.shape(), b.shape(), "shard {r} has the wrong shape");
        out.unpack_box(&b, s.as_slice());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Shape4;

    fn ramp(shape: Shape4) -> Tensor {
        let mut i = 0f32;
        Tensor::from_fn(shape, |_, _, _, _| {
            i += 1.0;
            i
        })
    }

    #[test]
    fn shard_and_assemble_round_trip() {
        let shape = Shape4::new(3, 2, 7, 5);
        let t = ramp(shape);
        for grid in [ProcGrid::sample(3), ProcGrid::spatial(2, 2), ProcGrid::new(1, 1, 3, 1)] {
            let dist = TensorDist::new(shape, grid);
            let shards = shard_tensor(&t, &dist);
            assert_eq!(shards.len(), grid.size());
            let back = assemble_tensor(&dist, &shards);
            assert_eq!(back, t);
        }
    }

    #[test]
    fn regrid_across_world_sizes_is_bitwise_exact() {
        let shape = Shape4::new(2, 3, 8, 8);
        let t = ramp(shape);
        // 4-rank spatial grid shrinking to a 3-rank non-power-of-two
        // grid — the elastic-degradation case ShufflePlan forbids.
        let old = TensorDist::new(shape, ProcGrid::spatial(2, 2));
        let new = TensorDist::new(shape, ProcGrid::spatial(1, 3));
        let plan = RegridPlan::build(old.clone(), new.clone());
        let new_shards = plan.execute_local(&shard_tensor(&t, &old));
        assert_eq!(assemble_tensor(&new, &new_shards), t);
        assert_eq!(plan.total_elements(), shape.len());
        // Rank 0 keeps an overlap of its old block, so not everything
        // moves, but the repartition from 2×2 to 1×3 moves something.
        assert!(plan.moved_elements() > 0);
        assert!(plan.moved_elements() < plan.total_elements());
        assert_eq!(plan.moved_bytes(), 4 * plan.moved_elements() as u64);
    }

    #[test]
    fn identity_regrid_moves_nothing() {
        let shape = Shape4::new(1, 2, 6, 6);
        let dist = TensorDist::new(shape, ProcGrid::spatial(2, 2));
        let plan = RegridPlan::build(dist.clone(), dist.clone());
        assert_eq!(plan.moved_elements(), 0);
        let t = ramp(shape);
        let shards = shard_tensor(&t, &dist);
        let out = plan.execute_local(&shards);
        assert_eq!(out, shards);
    }

    #[test]
    fn empty_shards_regrid_cleanly() {
        // A 1-D vector treated as (L, 1, 1, 1) over a grid with spatial
        // extents leaves most ranks with empty shards; the plan must
        // still cover every element exactly once.
        let shape = Shape4::new(5, 1, 1, 1);
        let old = TensorDist::new(shape, ProcGrid::new(2, 1, 2, 1));
        let new = TensorDist::new(shape, ProcGrid::new(3, 1, 1, 1));
        let t = ramp(shape);
        let plan = RegridPlan::build(old.clone(), new.clone());
        assert_eq!(plan.total_elements(), 5);
        let out = plan.execute_local(&shard_tensor(&t, &old));
        assert_eq!(assemble_tensor(&new, &out), t);
    }

    #[test]
    fn conservation_holds_for_degenerate_grids() {
        let shape = Shape4::new(3, 2, 7, 5);
        // 1-rank grids in both directions, identity, and non-power-of-two
        // worlds (the spatial_fallback shapes): every plan must partition
        // its destination with no gaps or overlaps.
        let cases = [
            (ProcGrid::sample(1), ProcGrid::sample(1)),
            (ProcGrid::spatial(2, 2), ProcGrid::sample(1)),
            (ProcGrid::sample(1), ProcGrid::spatial(3, 1)),
            (ProcGrid::spatial(2, 2), ProcGrid::spatial(2, 2)),
            (ProcGrid::spatial(2, 2), ProcGrid::spatial(1, 3)),
            (ProcGrid::spatial(7, 1), ProcGrid::spatial(1, 5)),
            (ProcGrid::new(2, 1, 2, 1), ProcGrid::new(3, 1, 1, 1)),
        ];
        for (old, new) in cases {
            let plan = RegridPlan::between(shape, old, new);
            plan.check_conservation().unwrap_or_else(|e| panic!("{old:?} -> {new:?}: {e}"));
        }
    }

    #[test]
    fn conservation_catches_corrupted_fragments() {
        let shape = Shape4::new(2, 1, 6, 6);
        let old = TensorDist::new(shape, ProcGrid::spatial(2, 2));
        let new = TensorDist::new(shape, ProcGrid::spatial(1, 3));

        // Dropping a fragment leaves a gap.
        let mut plan = RegridPlan::build(old.clone(), new.clone());
        plan.frags.pop();
        let err = plan.check_conservation().unwrap_err();
        assert!(err.contains("uninitialized"), "{err}");

        // Shrinking a fragment by one row also leaves a gap.
        let mut plan = RegridPlan::build(old.clone(), new.clone());
        plan.frags[0].2.hi[2] -= 1;
        assert!(plan.check_conservation().is_err());

        // Re-pointing a fragment at a source rank that does not own it.
        let mut plan = RegridPlan::build(old.clone(), new.clone());
        let (_, src_rank, b) = plan.frags[0];
        let stranger = (0..old.world_size())
            .find(|r| *r != src_rank && b.intersect(&old.local_box(*r)) != b)
            .unwrap();
        plan.frags[0].1 = stranger;
        let err = plan.check_conservation().unwrap_err();
        assert!(err.contains("only owns"), "{err}");

        // Duplicating a fragment double-writes its elements.
        let mut plan = RegridPlan::build(old.clone(), new.clone());
        let dup = plan.frags[0];
        plan.frags.push(dup);
        let err = plan.check_conservation().unwrap_err();
        assert!(err.contains("overlap"), "{err}");
    }

    #[test]
    #[should_panic(expected = "global tensor shape")]
    fn shape_mismatch_is_rejected() {
        let a = TensorDist::new(Shape4::new(1, 1, 4, 4), ProcGrid::spatial(2, 2));
        let b = TensorDist::new(Shape4::new(1, 1, 4, 5), ProcGrid::spatial(1, 3));
        let _ = RegridPlan::build(a, b);
    }
}
