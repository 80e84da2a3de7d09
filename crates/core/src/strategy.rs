//! Parallel execution strategies: a distribution per layer (§V-C).
//!
//! A [`Strategy`] assigns every layer of a network a [`ProcGrid`] —
//! "an assignment of distributions to each layer" in the paper's words —
//! plus optional per-rank speed weights. The executor consumes a
//! validated strategy; the optimizer in `fg-perf` produces one.

use fg_nn::{LayerKind, NetworkSpec};
use fg_tensor::{GridWeights, ProcGrid, Shape4, TensorDist};

/// A parallel execution strategy for a network.
#[derive(Debug, Clone, PartialEq)]
pub struct Strategy {
    /// Process grid per layer (same world size everywhere).
    pub grids: Vec<ProcGrid>,
    /// Per-rank relative speed weights for weighted re-decomposition
    /// (gray-failure mitigation / heterogeneity-aware placement). `None`
    /// or all-equal means the usual uniform blocked partition; otherwise
    /// every layer's distribution gives each rank an extent proportional
    /// to its weight along the split dimensions.
    pub rank_weights: Option<Vec<u64>>,
}

/// Why a strategy cannot execute a given network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StrategyError {
    /// grids.len() != number of layers.
    LengthMismatch {
        /// Layers in the network.
        layers: usize,
        /// Entries in the strategy.
        grids: usize,
    },
    /// A layer's grid has a different total size than the first layer's.
    WorldSizeMismatch {
        /// Offending layer.
        layer: usize,
    },
    /// Channel partitioning (`grid.c > 1`, §III-D) requested; it is not
    /// supported — every layer runs with replicated channels.
    ChannelPartitionUnsupported {
        /// Offending layer.
        layer: usize,
    },
    /// The distribution leaves at least one rank without data.
    Unpopulated {
        /// Offending layer.
        layer: usize,
    },
    /// Per-sample layers (global pool, FC, classification loss) must
    /// keep their parent's grid; insert redistributions upstream instead.
    PerSampleGridMismatch {
        /// Offending layer.
        layer: usize,
    },
    /// The compiled communication schedule failed the static
    /// verification every construction of at most 64 ranks runs: the
    /// plans would deadlock, mis-shape a message, or mis-route a region.
    /// The detail is the first violation's full diagnostic (check kind,
    /// rank, layer, specifics).
    ScheduleUnsound {
        /// Offending layer.
        layer: usize,
        /// The first violation's diagnostic.
        detail: String,
    },
    /// `rank_weights` does not have exactly one weight per rank.
    WeightLengthMismatch {
        /// World size of the strategy.
        world: usize,
        /// Entries in `rank_weights`.
        weights: usize,
    },
    /// The static per-rank peak-memory bound exceeds the configured
    /// budget (`FG_MEM_BUDGET` bytes per rank, or an explicit budget
    /// passed to the optimizer). Raised *before* any execution: the
    /// bound comes from the tensor-liveness analysis over the compiled
    /// plans, so an over-budget strategy is rejected at plan time.
    MemBudgetExceeded {
        /// Static peak bytes per rank the strategy needs.
        needed: usize,
        /// Configured budget in bytes per rank.
        budget: usize,
    },
}

impl std::fmt::Display for StrategyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StrategyError::LengthMismatch { layers, grids } => {
                write!(f, "strategy has {grids} grids for {layers} layers")
            }
            StrategyError::WorldSizeMismatch { layer } => {
                write!(f, "layer {layer}: grid world size differs from the rest of the strategy")
            }
            StrategyError::ChannelPartitionUnsupported { layer } => {
                write!(f, "layer {layer}: channel partitioning (grid.c > 1) is not supported")
            }
            StrategyError::Unpopulated { layer } => {
                write!(f, "layer {layer}: distribution leaves ranks without data")
            }
            StrategyError::PerSampleGridMismatch { layer } => {
                write!(f, "layer {layer}: per-sample layers must inherit their parent's grid")
            }
            StrategyError::ScheduleUnsound { layer, detail } => {
                write!(f, "layer {layer}: schedule verification failed: {detail}")
            }
            StrategyError::WeightLengthMismatch { world, weights } => {
                write!(f, "strategy has {weights} rank weights for {world} ranks")
            }
            StrategyError::MemBudgetExceeded { needed, budget } => {
                write!(f, "strategy needs {needed} B/rank but the memory budget is {budget} B/rank")
            }
        }
    }
}

impl std::error::Error for StrategyError {}

impl Strategy {
    /// Same grid for every layer — the configuration the paper's
    /// end-to-end experiments use ("the same data decomposition for
    /// every layer in a given configuration", §VI-B).
    pub fn uniform(spec: &NetworkSpec, grid: ProcGrid) -> Strategy {
        Strategy { grids: vec![grid; spec.len()], rank_weights: None }
    }

    /// Pure sample parallelism over `p` ranks (the baseline).
    pub fn sample_parallel(spec: &NetworkSpec, p: usize) -> Strategy {
        Strategy::uniform(spec, ProcGrid::sample(p))
    }

    /// A model-free strategy for an arbitrary (including
    /// non-power-of-two) world size `p`: the near-square spatial
    /// factorizations of `p` first, then pure sample parallelism —
    /// returning the first that validates against `spec`/`batch`, or
    /// `None` when no uniform layout fits. This is the degradation
    /// rung's fallback when no performance-model replanner is wired in,
    /// so it must not assume `p` is a power of two: a world shrunk by a
    /// dead rank is usually odd-sized.
    pub fn spatial_fallback(spec: &NetworkSpec, batch: usize, p: usize) -> Option<Strategy> {
        if p == 0 {
            return None;
        }
        // Divisor pairs ph × pw = p, nearest-square first (smaller
        // aspect ratio ⇒ smaller halo surface).
        let mut pairs: Vec<(usize, usize)> =
            (1..=p).filter(|ph| p.is_multiple_of(*ph)).map(|ph| (ph, p / ph)).collect();
        pairs.sort_by_key(|(ph, pw)| (ph.abs_diff(*pw), *ph));
        for (ph, pw) in pairs {
            let s = Strategy::uniform(spec, ProcGrid::spatial(ph, pw));
            if s.validate(spec, batch).is_ok() {
                return Some(s);
            }
        }
        let s = Strategy::sample_parallel(spec, p);
        s.validate(spec, batch).is_ok().then_some(s)
    }

    /// Attach per-rank speed weights: every layer's distribution becomes
    /// the weighted blocked partition derived from them. Equal weights
    /// normalize away, leaving the strategy identical to the unweighted
    /// one (`dist_for` then returns plain uniform distributions).
    pub fn with_rank_weights(mut self, weights: Vec<u64>) -> Strategy {
        self.rank_weights =
            if weights.iter().all(|&w| w == weights[0]) { None } else { Some(weights) };
        self
    }

    /// The distribution this strategy assigns to a tensor of `shape` on
    /// `grid` — uniform, or weighted when rank weights are attached.
    pub fn dist_for(&self, shape: Shape4, grid: ProcGrid) -> TensorDist {
        match &self.rank_weights {
            Some(w) if w.len() == grid.size() => {
                TensorDist::weighted(shape, grid, GridWeights::from_rank_weights(grid, w))
            }
            _ => TensorDist::new(shape, grid),
        }
    }

    /// Activation re-sharding traffic of moving `spec` at `batch` from
    /// this layout to `to`: `(moved, total)` bytes summed over the
    /// layers whose distribution changes ([`TensorDist::regrid_bytes`]).
    pub fn regrid_cost(&self, to: &Strategy, spec: &NetworkSpec, batch: usize) -> (u64, u64) {
        let (mut moved, mut total) = (0u64, 0u64);
        for (id, &(c, h, w)) in spec.shapes().iter().enumerate() {
            let shape = Shape4::new(batch, c, h, w);
            let old = self.dist_for(shape, self.grids[id]);
            let new = to.dist_for(shape, to.grids[id]);
            if old == new {
                continue;
            }
            let (m, t) = old.regrid_bytes(&new);
            moved += m;
            total += t;
        }
        (moved, total)
    }

    /// World size the strategy targets.
    pub fn world_size(&self) -> usize {
        self.grids.first().map_or(0, |g| g.size())
    }

    /// Check the strategy against a network and batch size; returns the
    /// detailed reason on failure.
    pub fn validate(&self, spec: &NetworkSpec, batch: usize) -> Result<(), StrategyError> {
        if self.grids.len() != spec.len() {
            return Err(StrategyError::LengthMismatch {
                layers: spec.len(),
                grids: self.grids.len(),
            });
        }
        let world = self.world_size();
        if let Some(w) = &self.rank_weights {
            if w.len() != world {
                return Err(StrategyError::WeightLengthMismatch { world, weights: w.len() });
            }
        }
        let shapes = spec.shapes();
        for (id, l) in spec.layers().iter().enumerate() {
            let grid = self.grids[id];
            if grid.size() != world {
                return Err(StrategyError::WorldSizeMismatch { layer: id });
            }
            match &l.kind {
                LayerKind::GlobalAvgPool | LayerKind::Fc { .. } => {
                    if grid != self.grids[l.parents[0]] {
                        return Err(StrategyError::PerSampleGridMismatch { layer: id });
                    }
                }
                LayerKind::SoftmaxCrossEntropy => {
                    // Both shard (segmentation) and per-sample losses
                    // inherit the parent's layout.
                    if grid != self.grids[l.parents[0]] {
                        return Err(StrategyError::PerSampleGridMismatch { layer: id });
                    }
                    // A sharded loss (parent is not GAP/FC) must populate
                    // every rank with positions.
                    let parent_kind = &spec.layer(l.parents[0]).kind;
                    if !matches!(parent_kind, LayerKind::GlobalAvgPool | LayerKind::Fc { .. }) {
                        let (c, h, w) = shapes[id];
                        let dist = self.dist_for(Shape4::new(batch, c, h, w), grid);
                        if !dist.is_fully_populated() {
                            return Err(StrategyError::Unpopulated { layer: id });
                        }
                    }
                }
                _ => {
                    if grid.c != 1 {
                        return Err(StrategyError::ChannelPartitionUnsupported { layer: id });
                    }
                    let (c, h, w) = shapes[id];
                    let dist = self.dist_for(Shape4::new(batch, c, h, w), grid);
                    // Per-sample representations (H = W = 1 after GAP) are
                    // replicated, not sharded, so only sharded layers need
                    // the populated check.
                    if !per_sample_shape(shapes[id]) && !dist.is_fully_populated() {
                        return Err(StrategyError::Unpopulated { layer: id });
                    }
                    // Input to conv/pool must also populate.
                    if matches!(l.kind, LayerKind::Conv { .. } | LayerKind::Pool { .. }) {
                        let (pc, ph, pw) = shapes[l.parents[0]];
                        let pdist = self.dist_for(Shape4::new(batch, pc, ph, pw), grid);
                        if !pdist.is_fully_populated() {
                            return Err(StrategyError::Unpopulated { layer: id });
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// The paper's "GPUs per sample" for a layer's grid.
    pub fn ranks_per_sample(&self, layer: usize) -> usize {
        self.grids[layer].ranks_per_sample()
    }
}

/// Is this per-sample data (no spatial extent), handled in replicated
/// per-sample form by the executor?
pub fn per_sample_shape(shape: (usize, usize, usize)) -> bool {
    shape.1 == 1 && shape.2 == 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_net() -> NetworkSpec {
        let mut net = NetworkSpec::new();
        let i = net.input("x", 3, 16, 16);
        let c = net.conv("c1", i, 8, 3, 1, 1);
        let b = net.batchnorm("bn", c);
        let r = net.relu("r", b);
        let g = net.global_avg_pool("gap", r);
        let f = net.fc("fc", g, 4);
        net.loss("loss", f);
        net
    }

    #[test]
    fn uniform_strategy_validates() {
        let net = toy_net();
        let s = Strategy::uniform(&net, ProcGrid::spatial(2, 2));
        assert_eq!(s.validate(&net, 2), Ok(()));
        let s = Strategy::sample_parallel(&net, 4);
        assert_eq!(s.validate(&net, 8), Ok(()));
    }

    #[test]
    fn length_and_world_size_checks() {
        let net = toy_net();
        let mut s = Strategy::uniform(&net, ProcGrid::sample(4));
        s.grids.pop();
        assert!(matches!(s.validate(&net, 8), Err(StrategyError::LengthMismatch { .. })));
        let mut s = Strategy::uniform(&net, ProcGrid::sample(4));
        s.grids[2] = ProcGrid::sample(2);
        assert!(matches!(s.validate(&net, 8), Err(StrategyError::WorldSizeMismatch { layer: 2 })));
    }

    #[test]
    fn unpopulated_detected() {
        let net = toy_net();
        // 8-way sample parallelism on a batch of 4: empty ranks.
        let s = Strategy::sample_parallel(&net, 8);
        assert!(matches!(s.validate(&net, 4), Err(StrategyError::Unpopulated { .. })));
    }

    #[test]
    fn channel_partition_rejected_by_executor_strategy() {
        let net = toy_net();
        let s = Strategy::uniform(&net, ProcGrid::new(1, 4, 1, 1));
        let err = s.validate(&net, 4).expect_err("grid.c = 4 must be rejected");
        let StrategyError::ChannelPartitionUnsupported { layer } = err else {
            panic!("wrong error: {err:?}");
        };
        assert_eq!(
            err.to_string(),
            format!("layer {layer}: channel partitioning (grid.c > 1) is not supported")
        );
    }

    #[test]
    fn per_sample_layers_must_inherit_grid() {
        let net = toy_net();
        let mut s = Strategy::uniform(&net, ProcGrid::spatial(2, 2));
        let fc = net.find("fc").unwrap();
        s.grids[fc] = ProcGrid::sample(4);
        assert!(matches!(s.validate(&net, 2), Err(StrategyError::PerSampleGridMismatch { .. })));
    }

    #[test]
    fn spatial_fallback_handles_non_power_of_two_worlds() {
        let net = toy_net();
        // A world shrunk from 4 to 3 by a dead rank: 1×3 spatial strips.
        let s = Strategy::spatial_fallback(&net, 2, 3).expect("3 ranks must be viable");
        assert_eq!(s.world_size(), 3);
        assert_eq!(s.validate(&net, 2), Ok(()));
        // Composite odd worlds pick the near-square factorization.
        let s = Strategy::spatial_fallback(&net, 2, 15).expect("15 ranks must be viable");
        assert_eq!(s.world_size(), 15);
        assert_eq!(s.grids[0], ProcGrid::spatial(3, 5));
        // Degenerate requests yield None, not a panic.
        assert!(Strategy::spatial_fallback(&net, 2, 0).is_none());
    }

    #[test]
    fn spatial_fallback_validates_what_it_returns() {
        let net = toy_net();
        for p in 1..=9 {
            if let Some(s) = Strategy::spatial_fallback(&net, 4, p) {
                assert_eq!(s.validate(&net, 4), Ok(()), "fallback for p={p} must validate");
                assert_eq!(s.world_size(), p);
            }
        }
    }

    #[test]
    fn mixed_per_layer_strategy_validates() {
        // Spatial for the big early conv, sample for the rest — the
        // §III-C motivating case with a redistribution in between.
        let net = toy_net();
        let mut s = Strategy::uniform(&net, ProcGrid::sample(4));
        s.grids[net.find("c1").unwrap()] = ProcGrid::spatial(2, 2);
        s.grids[net.find("x").unwrap()] = ProcGrid::spatial(2, 2);
        // bn onwards keep sample(4); gap/fc/loss inherit sample(4). Batch
        // must be ≥ 4 for the sample-parallel layers.
        assert_eq!(s.validate(&net, 4), Ok(()));
    }
}
