//! Candidate distribution generation (§V-C, first step).
//!
//! "For convolutional layers, we heuristically select distributions that
//! are load balanced and prefer cheaper partitioning methods (i.e.
//! sample over spatial parallelism) when possible."
//!
//! For a world of `P` ranks, candidates factor `P = pn · ph · pw` such
//! that every rank gets work (`pn ≤ N`, `ph ≤ min(H_in, H_out)`, …),
//! spatial factors are near-square (best surface-to-volume for the
//! halo), and a shard is never thinner than the halo depth. Candidates
//! are ordered sample-first.

use fg_nn::{LayerKind, NetworkSpec};
use fg_tensor::{ProcGrid, Shape4, TensorDist};

/// All divisors of `p`, ascending.
pub fn divisors(p: usize) -> Vec<usize> {
    // Trial-divide to √p: `d` joins the low half, its cofactor the high.
    let (mut low, mut high) = (Vec::new(), Vec::new());
    let mut d = 1;
    while d * d <= p {
        if p.is_multiple_of(d) {
            low.push(d);
            if d * d != p {
                high.push(p / d);
            }
        }
        d += 1;
    }
    low.extend(high.into_iter().rev());
    low
}

/// Candidate grids for a layer with input extent `(h_in, w_in)`, output
/// extent `(h_out, w_out)`, halo depth `o`, batch `n`, world `p`.
fn conv_candidates(
    p: usize,
    n: usize,
    h_in: usize,
    w_in: usize,
    h_out: usize,
    w_out: usize,
    o: usize,
) -> Vec<ProcGrid> {
    let mut out = Vec::new();
    for &pn in divisors(p).iter().rev() {
        if pn > n {
            continue;
        }
        let spatial = p / pn;
        for &ph in &divisors(spatial) {
            let pw = spatial / ph;
            // Load balance: every rank owns rows/cols in input & output.
            if ph > h_in.min(h_out) || pw > w_in.min(w_out) {
                continue;
            }
            // A shard thinner than its halo is the degenerate case the
            // paper flags (§III-A, "spatial partitioning is complicated
            // when a spatial dimension is the same size as the filter
            // kernel"); exclude it.
            if o > 0 && (h_in / ph < o.max(1) * 2 || w_in / pw < o.max(1) * 2) && spatial > 1 {
                continue;
            }
            out.push(ProcGrid::hybrid(pn, ph, pw));
        }
    }
    // Prefer cheaper partitioning: most sample parallelism first, then
    // squarer spatial splits (smaller halo surface).
    out.sort_by_key(|g| {
        let imbalance = (g.h as i64 - g.w as i64).unsigned_abs();
        (g.ranks_per_sample(), imbalance)
    });
    out.dedup();
    out
}

/// Candidate grids for every layer of a network. Layers the executor
/// runs "inherited" (per-sample layers, losses) get exactly their
/// parent's candidates and are fixed up by the optimizer; elementwise
/// layers get the union-compatible full candidate set of their shape.
pub fn layer_candidates(spec: &NetworkSpec, batch: usize, p: usize, id: usize) -> Vec<ProcGrid> {
    let l = spec.layer(id);
    match &l.kind {
        LayerKind::Conv { kernel, .. } | LayerKind::Pool { kernel, .. } => {
            let (_, h_in, w_in) = spec.shape(l.parents[0]);
            let (_, h_out, w_out) = spec.shape(id);
            conv_candidates(p, batch, h_in, w_in, h_out, w_out, kernel / 2)
        }
        LayerKind::Input { .. }
        | LayerKind::BatchNorm
        | LayerKind::Relu
        | LayerKind::Add
        | LayerKind::SoftmaxCrossEntropy => {
            let (c, h, w) = spec.shape(id);
            let mut cands = conv_candidates(p, batch, h, w, h, w, 0);
            // Keep only grids that actually populate this shape.
            cands.retain(|g| {
                TensorDist::new(Shape4::new(batch, c, h, w), *g).is_fully_populated()
                    || (h == 1 && w == 1)
            });
            cands
        }
        // Per-sample layers inherit the parent grid (fixed later).
        LayerKind::GlobalAvgPool | LayerKind::Fc { .. } => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divisors_of_12() {
        assert_eq!(divisors(12), vec![1, 2, 3, 4, 6, 12]);
        assert_eq!(divisors(1), vec![1]);
        assert_eq!(divisors(36), vec![1, 2, 3, 4, 6, 9, 12, 18, 36]);
        assert_eq!(divisors(2048).len(), 12);
    }

    #[test]
    fn sample_parallel_comes_first_when_batch_allows() {
        let c = conv_candidates(8, 16, 64, 64, 64, 64, 1);
        assert_eq!(c[0], ProcGrid::sample(8), "cheapest method first: {c:?}");
        assert!(c.contains(&ProcGrid::hybrid(2, 2, 2)));
        assert!(c.contains(&ProcGrid::hybrid(4, 2, 1)) || c.contains(&ProcGrid::hybrid(4, 1, 2)));
    }

    #[test]
    fn small_batch_forces_spatial() {
        // Batch 1 on 4 ranks: only spatial decompositions are possible.
        let c = conv_candidates(4, 1, 64, 64, 32, 32, 1);
        assert!(!c.is_empty());
        assert!(c.iter().all(|g| g.n == 1), "batch 1 cannot sample-partition: {c:?}");
        // Square split preferred over strip split.
        assert_eq!(c[0], ProcGrid::spatial(2, 2));
    }

    #[test]
    fn degenerate_spatial_shards_excluded() {
        // 8×8 spatial domain with O=3 (K=7): 4-way splits leave 2-row
        // shards thinner than the halo — excluded.
        let c = conv_candidates(4, 1, 8, 8, 4, 4, 3);
        assert!(c.iter().all(|g| g.h <= 2 && g.w <= 2), "thin shards must be filtered: {c:?}");
    }

    #[test]
    fn candidates_cover_tables_configurations() {
        // The paper's 1K mesh runs: 1,2,4,8,16 GPUs/sample on worlds of
        // 4·k ranks. For a world of 16 with batch 4, the 4 GPUs/sample
        // hybrid must appear.
        let c = conv_candidates(16, 4, 512, 512, 256, 256, 2);
        assert!(c.contains(&ProcGrid::hybrid(4, 2, 2)));
        assert!(c.contains(&ProcGrid::hybrid(1, 4, 4)));
        assert!(c.contains(&ProcGrid::hybrid(2, 2, 4)) || c.contains(&ProcGrid::hybrid(2, 4, 2)));
    }
}
