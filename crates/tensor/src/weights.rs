//! Weighted blocked partitions: non-uniform per-part extents along a
//! split dimension.
//!
//! The uniform blocked distribution (`block_range`) gives every grid
//! coordinate the same share of a dimension (±1). Gray-failure
//! mitigation needs *weighted* blocks — a persistently slow rank gets a
//! proportionally smaller extent so every rank finishes its shard in the
//! same wall time (heterogeneity-aware decomposition, Park et al.,
//! arXiv 1901.05803). The partition stays *blocked* (contiguous,
//! ordered), so all of the paper's locality arguments — halo exchange
//! between adjacent shards, shuffle conservation — carry over unchanged;
//! only the box boundaries move.
//!
//! Sizes are apportioned by the largest-remainder method with ties
//! broken toward the lowest part index. With equal weights this
//! reproduces `block_range` *exactly* (equal quotas and equal
//! remainders, so the first `total % parts` parts get the extra
//! element), which is what makes an equal-weight [`GridWeights`]
//! bitwise-indistinguishable from the uniform distribution.

use std::ops::Range;

use crate::procgrid::ProcGrid;
use crate::shape::NDIMS;

/// Split `total` indices into `weights.len()` contiguous blocks with
/// sizes proportional to `weights`, by largest-remainder apportionment
/// (ties toward the lowest index). When `total >= weights.len()` every
/// block is guaranteed non-empty: zero-sized blocks borrow one element
/// from the currently largest block.
fn weighted_block_sizes(total: usize, weights: &[u64]) -> Vec<usize> {
    let parts = weights.len();
    assert!(parts > 0, "weighted partition needs at least one part");
    let w_total: u128 = weights.iter().map(|&w| w as u128).sum();
    assert!(w_total > 0, "weights must not all be zero");
    let mut sizes = Vec::with_capacity(parts);
    let mut remainders: Vec<(u128, usize)> = Vec::with_capacity(parts);
    let mut assigned = 0usize;
    for (k, &w) in weights.iter().enumerate() {
        let num = total as u128 * w as u128;
        let floor = (num / w_total) as usize;
        sizes.push(floor);
        assigned += floor;
        remainders.push((num % w_total, k));
    }
    // Hand the leftover elements to the largest remainders; lowest index
    // wins ties so equal weights reproduce `block_range` exactly.
    remainders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut deficit = total - assigned;
    for &(_, k) in &remainders {
        if deficit == 0 {
            break;
        }
        sizes[k] += 1;
        deficit -= 1;
    }
    // Min-1 clamp: a very light part may still round to zero. Whenever
    // the dimension has enough indices to go around, keep every part
    // populated (the executor requires work on all ranks).
    if total >= parts {
        while let Some(zero) = sizes.iter().position(|&s| s == 0) {
            let mut donor = 0;
            for i in 1..parts {
                if sizes[i] > sizes[donor] {
                    donor = i;
                }
            }
            debug_assert!(sizes[donor] >= 2, "pigeonhole guarantees a donor");
            sizes[donor] -= 1;
            sizes[zero] += 1;
        }
    }
    sizes
}

/// The index range owned by `part` under the weighted partition of
/// `total` indices by `weights`. Equal weights reproduce
/// `fg_comm::collectives::block_range` exactly.
pub fn weighted_block_range(total: usize, weights: &[u64], part: usize) -> Range<usize> {
    let sizes = weighted_block_sizes(total, weights);
    let start: usize = sizes[..part].iter().sum();
    start..start + sizes[part]
}

/// The part owning `idx` under the weighted partition of `total` indices
/// by `weights`.
pub fn weighted_owner(total: usize, weights: &[u64], idx: usize) -> usize {
    debug_assert!(idx < total);
    let sizes = weighted_block_sizes(total, weights);
    let mut end = 0;
    for (k, &s) in sizes.iter().enumerate() {
        end += s;
        if idx < end {
            return k;
        }
    }
    // Unreachable for in-bounds idx; clamp to the last part for release
    // builds where the debug_assert is compiled out.
    sizes.len() - 1
}

/// Per-grid-dimension weight vectors for a weighted blocked
/// distribution. `None` on a dimension means uniform (the closed-form
/// `block_range` fast path); `Some(w)` has exactly `grid.dims()[d]`
/// entries.
///
/// Construction normalizes: a dimension whose weights are all equal is
/// stored as `None`, so an equal-weight `GridWeights` compares equal to
/// — and partitions identically to — the uniform distribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridWeights {
    dims: [Option<Vec<u64>>; NDIMS],
}

impl GridWeights {
    /// Build from explicit per-dimension weight vectors (lengths must
    /// match the grid a distribution will pair this with). All-equal
    /// vectors are normalized to `None`.
    pub fn new(dims: [Option<Vec<u64>>; NDIMS]) -> Self {
        let dims = dims.map(|d| match d {
            Some(w) => {
                assert!(!w.is_empty(), "weight vector must be non-empty");
                assert!(w.iter().any(|&x| x > 0), "weights must not all be zero");
                if w.iter().all(|&x| x == w[0]) {
                    None
                } else {
                    Some(w)
                }
            }
            None => None,
        });
        GridWeights { dims }
    }

    /// Derive per-dimension weights from per-rank weights by
    /// marginalization: the weight of grid coordinate `g` along
    /// dimension `d` is the sum of the weights of all ranks whose
    /// coordinate on `d` is `g`. Exact for 1-D splits; for multi-dim
    /// grids this is the best blocked (axis-aligned) approximation.
    /// Zero marginals are clamped to 1 so every slab keeps a share.
    pub fn from_rank_weights(grid: ProcGrid, rank_weights: &[u64]) -> Self {
        assert_eq!(rank_weights.len(), grid.size(), "one weight per rank");
        let parts = grid.dims();
        let mut dims: [Option<Vec<u64>>; NDIMS] = [None, None, None, None];
        for (d, slot) in dims.iter_mut().enumerate() {
            if parts[d] <= 1 {
                continue;
            }
            let mut marginal = vec![0u64; parts[d]];
            for (rank, &w) in rank_weights.iter().enumerate() {
                marginal[grid.coords(rank)[d]] += w;
            }
            for m in marginal.iter_mut() {
                *m = (*m).max(1);
            }
            *slot = Some(marginal);
        }
        GridWeights::new(dims)
    }

    /// The weight vector for grid dimension `d`, or `None` when that
    /// dimension is uniform.
    pub fn for_dim(&self, d: usize) -> Option<&[u64]> {
        self.dims[d].as_deref()
    }

    /// True when every dimension is uniform (normalization means a
    /// uniform `GridWeights` carries no vectors at all).
    pub fn is_uniform(&self) -> bool {
        self.dims.iter().all(|d| d.is_none())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_comm::collectives::block_range;

    #[test]
    fn equal_weights_reproduce_block_range_exactly() {
        for total in [1usize, 2, 5, 7, 10, 16, 33, 100] {
            for parts in [1usize, 2, 3, 4, 5, 7, 8] {
                for w in [1u64, 3, 17] {
                    let weights = vec![w; parts];
                    for part in 0..parts {
                        assert_eq!(
                            weighted_block_range(total, &weights, part),
                            block_range(total, parts, part),
                            "total={total} parts={parts} w={w} part={part}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn weighted_sizes_cover_and_order() {
        for total in [3usize, 8, 16, 31, 100] {
            for weights in [vec![1u64, 3], vec![1, 1, 6], vec![5, 1, 1, 1], vec![2, 7, 3, 1, 4]] {
                if total < weights.len() {
                    continue;
                }
                let sizes = weighted_block_sizes(total, &weights);
                assert_eq!(sizes.iter().sum::<usize>(), total);
                assert!(sizes.iter().all(|&s| s >= 1), "clamp keeps parts populated");
                // Ranges tile [0, total) in order.
                let mut cursor = 0;
                for part in 0..weights.len() {
                    let r = weighted_block_range(total, &weights, part);
                    assert_eq!(r.start, cursor);
                    cursor = r.end;
                }
                assert_eq!(cursor, total);
            }
        }
    }

    #[test]
    fn weighted_owner_agrees_with_ranges() {
        let weights = [1u64, 5, 5, 5];
        let total = 16;
        for part in 0..weights.len() {
            for idx in weighted_block_range(total, &weights, part) {
                assert_eq!(weighted_owner(total, &weights, idx), part);
            }
        }
    }

    #[test]
    fn slow_rank_gets_the_small_block() {
        // The ISSUE's worked example: H=16 over 4 parts, rank 0 three
        // times slower → weights (1/3, 1, 1, 1) quantized ×3.
        let sizes = weighted_block_sizes(16, &[1, 3, 3, 3]);
        assert_eq!(sizes, vec![1, 5, 5, 5]);
    }

    #[test]
    fn min1_clamp_borrows_from_largest() {
        // Weight 1 vs 1000: quota rounds to zero, clamp hands one back.
        let sizes = weighted_block_sizes(8, &[1, 1000]);
        assert_eq!(sizes, vec![1, 7]);
    }

    #[test]
    fn grid_weights_normalize_uniform() {
        let g = ProcGrid::spatial(4, 1);
        let uniform = GridWeights::from_rank_weights(g, &[5, 5, 5, 5]);
        assert!(uniform.is_uniform());
        let skewed = GridWeights::from_rank_weights(g, &[1, 3, 3, 3]);
        assert!(!skewed.is_uniform());
        assert_eq!(skewed.for_dim(2), Some(&[1u64, 3, 3, 3][..]));
        assert_eq!(skewed.for_dim(3), None);
    }

    #[test]
    fn marginalization_sums_across_other_dims() {
        // 2×2 spatial grid, rank 3 (h=1, w=1) slow with weight 1 vs 4.
        let g = ProcGrid::spatial(2, 2);
        let gw = GridWeights::from_rank_weights(g, &[4, 4, 4, 1]);
        assert_eq!(gw.for_dim(2), Some(&[8u64, 5][..]));
        assert_eq!(gw.for_dim(3), Some(&[8u64, 5][..]));
    }
}
