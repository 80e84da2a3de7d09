//! Blocked tensor distributions (the paper's §II-C formalism).
//!
//! A [`TensorDist`] assigns every index of a global [`Shape4`] to exactly
//! one rank of a [`ProcGrid`] by blocking each dimension: grid coordinate
//! `g` on a dimension of extent `I` owns the balanced block
//! `block_range(I, parts, g)`. Blocked distribution of the spatial
//! dimensions is a *requirement* of the paper's algorithms (§III):
//! convolution at a point needs spatially adjacent data, so a cyclic
//! distribution would need wholesale communication.
//!
//! The paper's index-set notation maps directly:
//! `I_p(D)` → [`TensorDist::local_box`], `|I_p^(m)|` → the box extents,
//! and `P_p(D^(m0), …)` → [`ProcGrid::group_of`].
//!
//! Distributions may additionally carry [`GridWeights`]: non-uniform
//! per-coordinate extents along split dimensions, used by gray-failure
//! mitigation to shrink a slow rank's shard. Weighted partitions are
//! still blocked — only the box boundaries move — so halo exchange,
//! shuffles, and the static verifier's geometry checks apply unchanged.
//! Equal weights normalize away at construction ([`TensorDist::weighted`]),
//! so a uniformly-weighted distribution is *identical* to the plain one.

use std::sync::Arc;

use fg_comm::collectives::block_range;

use crate::liveness::ELT_BYTES;
use crate::procgrid::ProcGrid;
use crate::shape::{Box4, Shape4, NDIMS};
use crate::weights::{weighted_block_range, weighted_owner, GridWeights};

/// A blocked distribution of a 4-D tensor over a process grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TensorDist {
    /// Global tensor shape.
    pub shape: Shape4,
    /// Process grid factorization (extent 1 = dimension not partitioned).
    pub grid: ProcGrid,
    /// Optional non-uniform per-coordinate weights (None = uniform).
    weights: Option<Arc<GridWeights>>,
}

impl TensorDist {
    /// Create a uniform distribution of `shape` over `grid`.
    pub const fn new(shape: Shape4, grid: ProcGrid) -> Self {
        TensorDist { shape, grid, weights: None }
    }

    /// Create a weighted distribution. Uniform weights normalize to the
    /// plain blocked distribution, so `weighted(s, g, uniform)` is
    /// bitwise-identical to (and compares equal to) `new(s, g)`.
    pub fn weighted(shape: Shape4, grid: ProcGrid, weights: GridWeights) -> Self {
        for d in 0..NDIMS {
            if let Some(w) = weights.for_dim(d) {
                assert_eq!(w.len(), grid.dims()[d], "weight vector must match grid dim {d}");
            }
        }
        let weights = if weights.is_uniform() { None } else { Some(Arc::new(weights)) };
        TensorDist { shape, grid, weights }
    }

    /// Weight vector for grid dimension `d` (None = uniform on `d`).
    fn dim_weights(&self, d: usize) -> Option<&[u64]> {
        self.weights.as_deref().and_then(|w| w.for_dim(d))
    }

    /// Number of ranks in the underlying grid.
    pub const fn world_size(&self) -> usize {
        self.grid.size()
    }

    /// The block of dimension `d` owned by grid coordinate `coord`.
    pub fn dim_range(&self, d: usize, coord: usize) -> std::ops::Range<usize> {
        let total = self.shape.dims()[d];
        match self.dim_weights(d) {
            Some(w) => weighted_block_range(total, w, coord),
            None => block_range(total, self.grid.dims()[d], coord),
        }
    }

    /// The global index box owned by `rank` (possibly empty when a
    /// dimension has fewer indices than grid parts).
    pub fn local_box(&self, rank: usize) -> Box4 {
        let coords = self.grid.coords(rank);
        let mut lo = [0; NDIMS];
        let mut hi = [0; NDIMS];
        for d in 0..NDIMS {
            let r = self.dim_range(d, coords[d]);
            lo[d] = r.start;
            hi[d] = r.end;
        }
        Box4::new(lo, hi)
    }

    /// Shape of the local shard of `rank`.
    pub fn local_shape(&self, rank: usize) -> Shape4 {
        self.local_box(rank).shape()
    }

    /// Grid coordinate owning global index `idx` on dimension `d`.
    fn owner_coord(&self, d: usize, idx: usize) -> usize {
        let dims = self.shape.dims();
        let parts = self.grid.dims();
        match self.dim_weights(d) {
            Some(w) => weighted_owner(dims[d], w, idx),
            None => owner_in_dim(dims[d], parts[d], idx),
        }
    }

    /// The unique owner of global index `idx`.
    pub fn owner_of(&self, idx: [usize; NDIMS]) -> usize {
        let dims = self.shape.dims();
        let mut coords = [0; NDIMS];
        for d in 0..NDIMS {
            debug_assert!(idx[d] < dims[d], "index out of bounds");
            coords[d] = self.owner_coord(d, idx[d]);
        }
        self.grid.rank_of(coords)
    }

    /// All `(rank, intersection)` pairs whose owned boxes overlap
    /// `region`, in ascending rank order; used by redistribution and
    /// generalized halo exchange.
    pub fn ranks_overlapping(&self, region: &Box4) -> Vec<(usize, Box4)> {
        let mut out = Vec::new();
        self.visit_overlapping(region, |rank, inter| out.push((rank, inter)));
        out
    }

    /// Call `f(rank, intersection)` for every rank whose owned box
    /// overlaps `region`, in ascending rank order. Walks only the grid
    /// coordinate ranges that can intersect, row-major — the order
    /// [`ProcGrid::rank_of`] numbers ranks in — and allocates nothing.
    pub(crate) fn visit_overlapping(&self, region: &Box4, mut f: impl FnMut(usize, Box4)) {
        let mut first = [0; NDIMS];
        let mut last = [0; NDIMS];
        for d in 0..NDIMS {
            if region.hi[d] <= region.lo[d] {
                return;
            }
            first[d] = self.owner_coord(d, region.lo[d]);
            last[d] = self.owner_coord(d, region.hi[d] - 1);
        }
        for gn in first[0]..=last[0] {
            for gc in first[1]..=last[1] {
                for gh in first[2]..=last[2] {
                    for gw in first[3]..=last[3] {
                        let rank = self.grid.rank_of([gn, gc, gh, gw]);
                        let inter = self.local_box(rank).intersect(region);
                        if !inter.is_empty() {
                            f(rank, inter);
                        }
                    }
                }
            }
        }
    }

    /// Bytes of re-laying this distribution onto `to`, a distribution of
    /// the same global shape over a grid of any world size: `(moved,
    /// total)`. Ranks keep their ids across the change, so an element
    /// whose old and new owner coincide stays in place and only the rest
    /// is moved — the number a recovery-cost model needs.
    ///
    /// # Panics
    /// Panics if the shapes differ, or if the overlaps do not cover the
    /// tensor exactly once.
    pub fn regrid_bytes(&self, to: &TensorDist) -> (u64, u64) {
        assert_eq!(self.shape, to.shape, "regrid preserves the global tensor shape");
        let (mut moved, mut total) = (0, 0);
        for dst in 0..to.world_size() {
            for (src, inter) in self.ranks_overlapping(&to.local_box(dst)) {
                total += inter.len();
                if src != dst {
                    moved += inter.len();
                }
            }
        }
        assert_eq!(total, self.shape.len(), "regrid overlaps cover every element once");
        ((moved * ELT_BYTES) as u64, (total * ELT_BYTES) as u64)
    }

    /// True when every rank owns a non-empty box (required by layers that
    /// assume work on all ranks; the strategy generator enforces this).
    /// Weighted partitions clamp every part to at least one element
    /// whenever `dims[d] >= parts[d]`, so the uniform criterion applies
    /// to them unchanged.
    pub fn is_fully_populated(&self) -> bool {
        let dims = self.shape.dims();
        let parts = self.grid.dims();
        (0..NDIMS).all(|d| dims[d] >= parts[d])
    }
}

/// Grid coordinate owning `idx` within a dimension of `total` indices
/// split into `parts` balanced blocks.
fn owner_in_dim(total: usize, parts: usize, idx: usize) -> usize {
    debug_assert!(idx < total);
    let base = total / parts;
    let rem = total % parts;
    // The first `rem` blocks have size base+1.
    let big = (base + 1) * rem;
    if idx < big {
        idx / (base + 1)
    } else {
        rem + (idx - big) / base.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_in_dim_matches_block_range() {
        for total in [1usize, 2, 7, 10, 16, 33] {
            for parts in [1usize, 2, 3, 4, 5, 8] {
                for part in 0..parts {
                    for idx in block_range(total, parts, part) {
                        assert_eq!(
                            owner_in_dim(total, parts, idx),
                            part,
                            "total={total} parts={parts} idx={idx}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn local_boxes_tile_the_tensor() {
        let dist = TensorDist::new(Shape4::new(4, 3, 10, 11), ProcGrid::new(2, 1, 2, 3));
        let mut counts = vec![0u8; dist.shape.len()];
        for rank in 0..dist.world_size() {
            for idx in dist.local_box(rank).iter() {
                counts[dist.shape.offset(idx[0], idx[1], idx[2], idx[3])] += 1;
            }
        }
        assert!(counts.iter().all(|&c| c == 1), "each element owned exactly once");
    }

    #[test]
    fn owner_of_agrees_with_local_box() {
        let dist = TensorDist::new(Shape4::new(3, 4, 8, 8), ProcGrid::new(3, 2, 2, 2));
        for rank in 0..dist.world_size() {
            for idx in dist.local_box(rank).iter() {
                assert_eq!(dist.owner_of(idx), rank);
            }
        }
    }

    #[test]
    fn ranks_overlapping_finds_all_intersections() {
        let dist = TensorDist::new(Shape4::new(1, 1, 8, 8), ProcGrid::spatial(2, 2));
        // A region straddling all four spatial blocks.
        let region = Box4::new([0, 0, 2, 2], [1, 1, 6, 6]);
        let overlaps = dist.ranks_overlapping(&region);
        assert_eq!(overlaps.len(), 4);
        let total: usize = overlaps.iter().map(|(_, b)| b.len()).sum();
        assert_eq!(total, region.len());
        // A region inside one block.
        let region = Box4::new([0, 0, 0, 0], [1, 1, 2, 2]);
        let overlaps = dist.ranks_overlapping(&region);
        assert_eq!(overlaps.len(), 1);
        assert_eq!(overlaps[0].0, 0);
    }

    #[test]
    fn empty_region_overlaps_nothing() {
        let dist = TensorDist::new(Shape4::new(1, 1, 8, 8), ProcGrid::spatial(2, 2));
        let region = Box4::new([0, 0, 4, 4], [1, 1, 4, 8]);
        assert!(dist.ranks_overlapping(&region).is_empty());
    }

    #[test]
    fn regrid_bytes_count_what_changes_owner() {
        let shape = Shape4::new(2, 3, 8, 8);
        let square = TensorDist::new(shape, ProcGrid::spatial(2, 2));
        assert_eq!(square.regrid_bytes(&square), (0, 4 * shape.len() as u64));
        // 2×2 shrinking to the 3-rank 1×3 grid: rank 0 keeps an overlap
        // of its old block, so something moves but not everything.
        let (moved, total) = square.regrid_bytes(&TensorDist::new(shape, ProcGrid::spatial(1, 3)));
        assert_eq!(total, 4 * shape.len() as u64);
        assert!(0 < moved && moved < total, "{moved} of {total}");
        // Most ranks of this grid own nothing of a 5-vector; the walk
        // still covers every element once.
        let shape = Shape4::new(5, 1, 1, 1);
        let sparse = TensorDist::new(shape, ProcGrid::new(2, 1, 2, 1));
        assert_eq!(sparse.regrid_bytes(&TensorDist::new(shape, ProcGrid::sample(3))).1, 20);
    }

    #[test]
    #[should_panic(expected = "global tensor shape")]
    fn regrid_between_shapes_is_rejected() {
        let a = TensorDist::new(Shape4::new(1, 1, 4, 4), ProcGrid::spatial(2, 2));
        let _ = a.regrid_bytes(&TensorDist::new(Shape4::new(1, 1, 4, 5), ProcGrid::spatial(1, 3)));
    }

    #[test]
    fn fully_populated_detection() {
        assert!(TensorDist::new(Shape4::new(4, 1, 8, 8), ProcGrid::sample(4)).is_fully_populated());
        assert!(!TensorDist::new(Shape4::new(2, 1, 8, 8), ProcGrid::sample(4)).is_fully_populated());
    }

    #[test]
    fn equal_weights_compare_and_partition_identically() {
        let shape = Shape4::new(2, 3, 16, 16);
        let grid = ProcGrid::spatial(4, 1);
        let uniform = TensorDist::new(shape, grid);
        let gw = GridWeights::from_rank_weights(grid, &[7, 7, 7, 7]);
        let weighted = TensorDist::weighted(shape, grid, gw);
        assert_eq!(uniform, weighted);
        for rank in 0..4 {
            assert_eq!(uniform.local_box(rank), weighted.local_box(rank));
        }
    }

    #[test]
    fn weighted_boxes_tile_and_owners_agree() {
        let shape = Shape4::new(2, 3, 16, 11);
        let grid = ProcGrid::spatial(4, 2);
        let gw = GridWeights::from_rank_weights(grid, &[1, 3, 3, 3, 3, 3, 3, 3]);
        let dist = TensorDist::weighted(shape, grid, gw);
        let mut counts = vec![0u8; dist.shape.len()];
        for rank in 0..dist.world_size() {
            for idx in dist.local_box(rank).iter() {
                counts[dist.shape.offset(idx[0], idx[1], idx[2], idx[3])] += 1;
                assert_eq!(dist.owner_of(idx), rank);
            }
        }
        assert!(counts.iter().all(|&c| c == 1), "weighted boxes tile exactly once");
    }

    #[test]
    fn weighted_ranks_overlapping_conserves_volume() {
        let shape = Shape4::new(1, 1, 16, 8);
        let grid = ProcGrid::spatial(4, 1);
        let gw = GridWeights::from_rank_weights(grid, &[1, 3, 3, 3]);
        let dist = TensorDist::weighted(shape, grid, gw);
        let region = Box4::new([0, 0, 0, 2], [1, 1, 14, 7]);
        let overlaps = dist.ranks_overlapping(&region);
        let total: usize = overlaps.iter().map(|(_, b)| b.len()).sum();
        assert_eq!(total, region.len());
    }
}
