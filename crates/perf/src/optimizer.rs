//! Parallel execution strategy selection (§V-C).
//!
//! Given a platform, network, batch size and world size, pick a
//! distribution per layer:
//!
//! 1. generate load-balanced candidate grids per layer
//!    ([`crate::candidates`]);
//! 2. for a **line** network, build the layered graph — a vertex per
//!    (layer, candidate), edges weighted
//!    `Cost_D(ℓ_i) + Shuffle(D_i, D_j)` — and take the shortest path
//!    (dynamic programming over the DAG, linear time);
//! 3. for **branching** networks (ResNets), repeatedly extract the
//!    longest (most expensive) unoptimized path, run the line algorithm
//!    over it with already-fixed layers pinned, and fix its choices,
//!    "to guarantee maximum flexibility in distribution choice" for the
//!    heavy chain;
//! 4. per-sample layers (global pool, FC, loss heads) inherit their
//!    parent's distribution, matching the executor's contract.
//!
//! Both edge terms depend on less than the edge: `Cost_D(ℓ)` on (layer,
//! grid), the shuffle on (tensor shape, from, to). A search models each
//! once ([`SearchStats`] counts them) and the DP only adds them up.

use std::collections::HashMap;

use fg_core::{BnMode, Strategy, StrategyError};
use fg_nn::{LayerId, LayerKind, NetworkSpec};
use fg_tensor::{ProcGrid, Shape4};

use crate::candidates::layer_candidates;
use crate::cost::{layer_cost, network_cost, shuffle_cost, CostBreakdown, CostOptions};
use crate::memory::{layer_activation_bytes, layer_param_bytes, strategy_memory_bytes};
use crate::platform::Platform;

/// Strategy optimizer bound to a problem instance.
#[derive(Debug, Clone)]
pub struct StrategyOptimizer<'a> {
    /// Target platform.
    pub platform: &'a Platform,
    /// Network under optimization.
    pub spec: &'a NetworkSpec,
    /// Global mini-batch size.
    pub batch: usize,
    /// World size (number of ranks).
    pub world: usize,
    /// Cost-model options.
    pub opts: CostOptions,
    /// Per-rank device memory limit (§V: strategies are selected
    /// "accounting for memory requirements"). `None` = unconstrained.
    pub memory_limit: Option<usize>,
    /// Extra candidate grids injected per layer (tests, external
    /// tuners). They pass through the same legality pre-filter as the
    /// generated candidates, so an unsound seed is provably rejected.
    pub extra_candidates: Vec<(LayerId, ProcGrid)>,
}

impl<'a> StrategyOptimizer<'a> {
    /// Create an optimizer with default cost options.
    pub fn new(platform: &'a Platform, spec: &'a NetworkSpec, batch: usize, world: usize) -> Self {
        StrategyOptimizer {
            platform,
            spec,
            batch,
            world,
            opts: CostOptions::default(),
            memory_limit: None,
            extra_candidates: Vec::new(),
        }
    }

    /// Constrain strategies to fit `bytes` of device memory per rank.
    pub fn with_memory_limit(mut self, bytes: usize) -> Self {
        self.memory_limit = Some(bytes);
        self
    }

    /// Seed an extra candidate distribution for one layer. The seed is
    /// subject to the same schedule-legality pre-filter as generated
    /// candidates — an illegal grid never reaches the cost search.
    pub fn with_candidate(mut self, layer: LayerId, grid: ProcGrid) -> Self {
        self.extra_candidates.push((layer, grid));
        self
    }

    /// Run the optimization; returns the strategy and its modeled
    /// mini-batch cost.
    pub fn optimize(&self) -> (Strategy, CostBreakdown) {
        let (strategy, cost, _) = self.search();
        (strategy, cost)
    }

    /// [`StrategyOptimizer::optimize`], also reporting how much work the
    /// search did.
    pub fn search(&self) -> (Strategy, CostBreakdown, SearchStats) {
        let n = self.spec.len();
        let (candidates, limit_feasible) = self.candidate_sets();
        let mut costs = SearchCosts::new(self, &candidates);
        // Layer weight for longest-path extraction: cheapest-candidate
        // total cost (heavy layers anchor the first path).
        let min_cost: Vec<f64> = costs
            .layer
            .iter()
            .map(|row| row.iter().map(|&(_, c)| c).fold(f64::INFINITY, f64::min))
            .collect();

        let mut assigned: Vec<Option<ProcGrid>> = vec![None; n];
        // Longest-path loop (§V-C): optimize the most expensive chain
        // first, then the next, until every layer has a distribution.
        for _ in 0..n {
            if assigned.iter().enumerate().all(|(id, a)| a.is_some() || candidates[id].is_empty()) {
                break;
            }
            let avoid: Vec<bool> = assigned.iter().map(|a| a.is_some()).collect();
            let path = self.spec.longest_path(
                |id| if min_cost[id].is_finite() { min_cost[id].max(1e-12) } else { 1e-12 },
                &avoid,
            );
            self.solve_path(&path, &candidates, &mut costs, &mut assigned);
        }
        // Sweep up anything the paths missed and pin per-sample layers
        // to their parents.
        let mut grids = Vec::with_capacity(n);
        for (id, l) in self.spec.layers().iter().enumerate() {
            let g = match &l.kind {
                LayerKind::GlobalAvgPool
                | LayerKind::Fc { .. }
                | LayerKind::SoftmaxCrossEntropy => grids[l.parents[0]],
                _ => assigned[id].unwrap_or_else(|| {
                    // Not on any path (rare side branch): inherit parent,
                    // or sample-parallel for sources.
                    l.parents.first().map(|&p| grids[p]).unwrap_or(ProcGrid::sample(self.world))
                }),
            };
            grids.push(g);
        }
        let strategy = Strategy { grids, bn_mode: BnMode::default(), rank_weights: None };
        if let Some(limit) = self.memory_limit {
            // Only meaningful when the limit was achievable at all.
            debug_assert!(
                !limit_feasible
                    || strategy_memory_bytes(self.spec, self.batch, &strategy) <= limit * 2,
                "memory heuristic produced a grossly oversized strategy"
            );
        }
        let cost = network_cost(self.platform, self.spec, self.batch, &strategy, &self.opts);
        (strategy, cost, costs.stats)
    }

    /// The grids the search ranks per layer — generated, seeded, then
    /// screened for legality and memory — and whether the memory limit
    /// (if any) is achievable at all. Layers that inherit their
    /// parent's grid get no candidates of their own.
    fn candidate_sets(&self) -> (Vec<Vec<ProcGrid>>, bool) {
        let n = self.spec.len();
        let mut candidates: Vec<Vec<ProcGrid>> =
            (0..n).map(|id| layer_candidates(self.spec, self.batch, self.world, id)).collect();
        for &(id, g) in &self.extra_candidates {
            if !candidates[id].contains(&g) {
                candidates[id].push(g);
            }
        }
        // Legality pre-filter (fg-verify front line): a candidate whose
        // compiled schedule could never verify — wrong world size,
        // unpopulated distribution, channel split — is dropped before
        // any cost is modeled, so the DP only ranks sound plans.
        for (id, cands) in candidates.iter_mut().enumerate() {
            cands.retain(|g| {
                fg_core::candidate_grid_legal(self.spec, self.batch, self.world, id, *g)
            });
        }
        // Memory constraint (§V): the footprint is a sum of per-layer
        // terms, so allot each layer a share of the budget proportional
        // to its serial footprint and reject candidates that blow it.
        // A slack factor keeps the heuristic from over-pruning; the final
        // strategy is re-checked against the exact total.
        let mut limit_feasible = true;
        if let Some(limit) = self.memory_limit {
            let param_total: usize = (0..n).map(|id| layer_param_bytes(self.spec, id)).sum();
            let halo_of = |id: usize| match &self.spec.layer(id).kind {
                LayerKind::Conv { kernel, .. } | LayerKind::Pool { kernel, .. } => kernel / 2,
                _ => 0,
            };
            let act_bytes = |id: usize, g: ProcGrid, halo: usize| {
                layer_activation_bytes(self.batch, self.spec.shape(id), g, halo)
            };
            // Feasibility floor: the footprint of the most decomposed
            // candidate at every layer. A limit below the floor cannot be
            // met by any strategy in the search space — pruning against
            // it would only empty the candidate sets — so the search runs
            // unconstrained and the exact post-check in
            // [`StrategyOptimizer::optimize_with_budget`] owns the
            // rejection.
            let floor: usize = param_total
                + (0..n)
                    .map(|id| {
                        candidates[id]
                            .iter()
                            .map(|g| act_bytes(id, *g, halo_of(id)))
                            .min()
                            .unwrap_or(0)
                    })
                    .sum::<usize>();
            limit_feasible = floor <= limit;
            if limit_feasible {
                let act_budget = limit.saturating_sub(param_total) as f64;
                let serial: Vec<usize> =
                    (0..n).map(|id| act_bytes(id, ProcGrid::sample(self.world), 0)).collect();
                let serial_total: f64 = serial.iter().sum::<usize>() as f64;
                const SLACK: f64 = 1.5;
                for id in 0..n {
                    if serial_total == 0.0 {
                        break;
                    }
                    let share = act_budget * serial[id] as f64 / serial_total * SLACK;
                    candidates[id].retain(|g| (act_bytes(id, *g, halo_of(id)) as f64) <= share);
                }
            }
        }
        (candidates, limit_feasible)
    }

    /// [`StrategyOptimizer::optimize`] under a hard per-rank memory
    /// budget in bytes (the `FG_MEM_BUDGET` contract): the search runs
    /// with the budget as its memory limit (tightening any existing
    /// [`StrategyOptimizer::with_memory_limit`]), and the winner is then
    /// checked against the *exact* static bound from fg-core's
    /// tensor-liveness analyzer — not the cost model's heuristic — over
    /// sampled ranks. An over-budget winner is rejected with the typed
    /// [`StrategyError::MemBudgetExceeded`] before any plan compiles for
    /// execution.
    pub fn optimize_with_budget(
        &self,
        budget: usize,
    ) -> Result<(Strategy, CostBreakdown), StrategyError> {
        let mut constrained = self.clone();
        constrained.memory_limit = Some(self.memory_limit.map_or(budget, |m| m.min(budget)));
        let (strategy, cost) = constrained.optimize();
        let ranks = fg_core::sample_ranks(self.world);
        let report = fg_core::analyze_strategy(self.spec, &strategy, self.batch, &ranks)?;
        let needed = report.max_peak();
        if needed > budget {
            return Err(StrategyError::MemBudgetExceeded { needed, budget });
        }
        Ok((strategy, cost))
    }

    /// Shortest-path DP along one path of layers; pinned layers keep
    /// their assignment, per-sample layers inherit the running grid.
    fn solve_path(
        &self,
        path: &[LayerId],
        candidates: &[Vec<ProcGrid>],
        costs: &mut SearchCosts,
        assigned: &mut [Option<ProcGrid>],
    ) {
        // states: per path position, (grid, best cost so far, predecessor state idx)
        // Tie-breaker implementing the paper's "prefer cheaper
        // partitioning methods (i.e. sample over spatial parallelism)
        // when possible": an epsilon far below any modeled time that
        // only decides exact cost ties.
        let tie_bias = |g: ProcGrid| 1e-12 * (g.ranks_per_sample() - 1) as f64;
        let mut states: Vec<Vec<(ProcGrid, f64, usize)>> = Vec::with_capacity(path.len());
        for (pos, &id) in path.iter().enumerate() {
            // This level's grids with their layer costs: the pinned one,
            // or the layer's candidates. None: inherit, resolved per
            // predecessor state below.
            let mut opts: Vec<(ProcGrid, f64)> = match assigned[id] {
                Some(g) => vec![(g, costs.layer_cost(id, g))],
                None => costs.layer[id][..candidates[id].len()].to_vec(),
            };
            let level: Vec<(ProcGrid, f64, usize)> = if pos == 0 {
                if opts.is_empty() {
                    let g = ProcGrid::sample(self.world);
                    opts.push((g, costs.layer_cost(id, g)));
                }
                opts.iter().map(|&(g, lc)| (g, lc + tie_bias(g), usize::MAX)).collect()
            } else {
                let (pc, ph, pw) = self.spec.shape(path[pos - 1]);
                let between = Shape4::new(self.batch, pc, ph, pw);
                let prev = &states[pos - 1];
                costs.stats.dp_edges += prev.len() * opts.len().max(1);
                let mut level: Vec<(ProcGrid, f64, usize)> = if opts.is_empty() {
                    prev.iter()
                        .enumerate()
                        .map(|(pi, &(pg, pcost, _))| {
                            (pg, pcost + costs.layer_cost(id, pg) + tie_bias(pg), pi)
                        })
                        .collect()
                } else {
                    opts.iter()
                        .map(|&(g, lc)| {
                            // First cheapest predecessor, in level order.
                            let mut best: Option<(f64, usize)> = None;
                            for (pi, &(pg, pcost, _)) in prev.iter().enumerate() {
                                let mut c = pcost + lc + tie_bias(g);
                                if g != pg && (ph > 1 || pw > 1) {
                                    // Forward + backward shuffles.
                                    c += 2.0 * costs.shuffle_cost(between, pg, g);
                                }
                                match best {
                                    Some((bc, _)) if bc <= c => {}
                                    _ => best = Some((c, pi)),
                                }
                            }
                            let (c, pi) = best.expect("every level has a state");
                            (g, c, pi)
                        })
                        .collect()
                };
                level.sort_by_key(|a| grid_key(a.0));
                level
            };
            states.push(level);
        }
        // Trace back the cheapest final state.
        let mut pos = path.len() - 1;
        let mut idx = states[pos]
            .iter()
            .enumerate()
            .min_by(|a, b| a.1 .1.total_cmp(&b.1 .1))
            .map(|(i, _)| i)
            .expect("path has at least one state");
        loop {
            let (g, _, pred) = states[pos][idx];
            assigned[path[pos]] = Some(g);
            if pos == 0 {
                break;
            }
            // Predecessor index refers into the previous level.
            idx = if pred == usize::MAX { 0 } else { pred };
            pos -= 1;
        }
    }
}

/// Work one search did, so "same answer, less work" can be pinned
/// without a wall clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// `layer_cost` evaluations.
    pub layer_cost_evals: usize,
    /// `shuffle_cost` evaluations.
    pub shuffle_cost_evals: usize,
    /// (predecessor state, grid) transitions the DP relaxed.
    pub dp_edges: usize,
}

/// The costs one search has asked for; each is modeled once, however
/// many paths and DP edges ask again.
struct SearchCosts<'o, 'a> {
    opt: &'o StrategyOptimizer<'a>,
    /// Per layer, `(grid, Cost_D(ℓ))`: its candidates in order, then
    /// any grid it inherited from a predecessor on a path.
    layer: Vec<Vec<(ProcGrid, f64)>>,
    /// `Shuffle(D_i, D_j)` by (tensor shape, from, to): ResNet-50's 176
    /// layers pass only 10 distinct shapes between them.
    shuffle: HashMap<(Shape4, ProcGrid, ProcGrid), f64>,
    stats: SearchStats,
}

impl<'o, 'a> SearchCosts<'o, 'a> {
    /// Model every (layer, candidate) pair.
    fn new(opt: &'o StrategyOptimizer<'a>, candidates: &[Vec<ProcGrid>]) -> Self {
        let mut costs = SearchCosts {
            opt,
            layer: vec![Vec::new(); candidates.len()],
            shuffle: HashMap::new(),
            stats: SearchStats::default(),
        };
        for (id, cands) in candidates.iter().enumerate() {
            for &g in cands {
                costs.layer_cost(id, g);
            }
        }
        costs
    }

    fn layer_cost(&mut self, id: LayerId, grid: ProcGrid) -> f64 {
        if let Some(&(_, c)) = self.layer[id].iter().find(|(g, _)| *g == grid) {
            return c;
        }
        let o = self.opt;
        let c = layer_cost(o.platform, o.spec, o.batch, id, grid, &o.opts).total();
        self.stats.layer_cost_evals += 1;
        self.layer[id].push((grid, c));
        c
    }

    fn shuffle_cost(&mut self, shape: Shape4, from: ProcGrid, to: ProcGrid) -> f64 {
        let (platform, stats) = (self.opt.platform, &mut self.stats);
        *self.shuffle.entry((shape, from, to)).or_insert_with(|| {
            stats.shuffle_cost_evals += 1;
            shuffle_cost(platform, shape, from, to)
        })
    }
}

fn grid_key(g: ProcGrid) -> u64 {
    ((g.n as u64) << 48) | ((g.c as u64) << 32) | ((g.h as u64) << 16) | g.w as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::network_cost;

    fn platform() -> Platform {
        Platform::lassen_like()
    }

    /// Small mesh-like line network (huge spatial early layers).
    fn mesh_net() -> NetworkSpec {
        let mut net = NetworkSpec::new();
        let i = net.input("data", 18, 512, 512);
        let mut prev = net.conv("conv1_1", i, 64, 5, 2, 2);
        prev = net.batchnorm("bn1", prev);
        prev = net.relu("relu1", prev);
        prev = net.conv("conv2_1", prev, 64, 3, 2, 1);
        prev = net.relu("relu2", prev);
        let pred = net.conv("pred", prev, 2, 1, 1, 0);
        net.loss("loss", pred);
        net
    }

    /// Classification net with a residual branch.
    fn branchy_net() -> NetworkSpec {
        let mut net = NetworkSpec::new();
        let i = net.input("data", 3, 64, 64);
        let c1 = net.conv("conv1", i, 16, 3, 1, 1);
        let r1 = net.relu("relu1", c1);
        let c2 = net.conv("branch2a", r1, 16, 3, 1, 1);
        let c3 = net.conv("branch2b", c2, 16, 3, 1, 1);
        let j = net.add_join("add", &[c3, r1]);
        let r2 = net.relu("relu2", j);
        let g = net.global_avg_pool("gap", r2);
        let f = net.fc("fc", g, 10);
        net.loss("loss", f);
        net
    }

    #[test]
    fn optimized_strategy_is_valid() {
        let p = platform();
        for (spec, batch, world) in
            [(mesh_net(), 1, 4), (mesh_net(), 8, 8), (branchy_net(), 16, 8), (branchy_net(), 4, 4)]
        {
            let opt = StrategyOptimizer::new(&p, &spec, batch, world);
            let (strategy, _cost) = opt.optimize();
            assert_eq!(
                strategy.validate(&spec, batch),
                Ok(()),
                "invalid strategy for batch={batch} world={world}: {:?}",
                strategy.grids
            );
        }
    }

    #[test]
    fn batch_one_forces_spatial_parallelism() {
        // The memory-motivated case: one huge sample, 4 ranks — only
        // spatial decomposition is possible, and the optimizer finds it.
        let p = platform();
        let spec = mesh_net();
        let opt = StrategyOptimizer::new(&p, &spec, 1, 4);
        let (strategy, _) = opt.optimize();
        let conv1 = spec.find("conv1_1").unwrap();
        assert_eq!(strategy.grids[conv1].n, 1);
        assert_eq!(strategy.grids[conv1].ranks_per_sample(), 4);
    }

    #[test]
    fn large_batch_prefers_sample_parallelism_for_small_layers() {
        // Plenty of samples and a small spatial domain: sample
        // parallelism is cheapest (no halos) — the paper's heuristic.
        let p = platform();
        let mut net = NetworkSpec::new();
        let i = net.input("data", 64, 14, 14);
        let c = net.conv("conv", i, 64, 3, 1, 1);
        let pred = net.conv("pred", c, 2, 1, 1, 0);
        net.loss("loss", pred);
        let opt = StrategyOptimizer::new(&p, &net, 32, 8);
        let (strategy, _) = opt.optimize();
        let conv = net.find("conv").unwrap();
        assert_eq!(strategy.grids[conv], ProcGrid::sample(8), "{:?}", strategy.grids);
    }

    #[test]
    fn line_dp_beats_or_matches_every_uniform_strategy() {
        let p = platform();
        let spec = mesh_net();
        let batch = 4;
        let world = 8;
        let opt = StrategyOptimizer::new(&p, &spec, batch, world);
        let (strategy, cost) = opt.optimize();
        let opts = CostOptions::default();
        for grid in [
            ProcGrid::sample(8),
            ProcGrid::hybrid(4, 2, 1),
            ProcGrid::hybrid(2, 2, 2),
            ProcGrid::hybrid(1, 2, 4),
        ] {
            let uniform = Strategy::uniform(&spec, grid);
            if uniform.validate(&spec, batch).is_err() {
                continue;
            }
            let uc = network_cost(&p, &spec, batch, &uniform, &opts).total();
            assert!(
                cost.total() <= uc * 1.0001,
                "optimizer ({}) worse than uniform {grid} ({uc}); strategy {:?}",
                cost.total(),
                strategy.grids
            );
        }
    }

    #[test]
    fn per_sample_layers_inherit_parent_grid() {
        let p = platform();
        let spec = branchy_net();
        let opt = StrategyOptimizer::new(&p, &spec, 8, 8);
        let (strategy, _) = opt.optimize();
        let gap = spec.find("gap").unwrap();
        let fc = spec.find("fc").unwrap();
        let loss = spec.find("loss").unwrap();
        let parent_of_gap = spec.layer(gap).parents[0];
        assert_eq!(strategy.grids[gap], strategy.grids[parent_of_gap]);
        assert_eq!(strategy.grids[fc], strategy.grids[gap]);
        assert_eq!(strategy.grids[loss], strategy.grids[fc]);
    }

    #[test]
    fn memory_limit_forces_spatial_decomposition() {
        // The paper's defining scenario: the 2K mesh model cannot fit one
        // sample per GPU; with a V100 memory limit the optimizer must
        // choose spatial decomposition for the huge layers, and the
        // resulting strategy must actually fit.
        use crate::memory::{strategy_fits, V100_BYTES};
        let p = platform();
        let spec = fg_models::mesh_model(fg_models::MeshSize::TwoK);
        let (unconstrained, _) = StrategyOptimizer::new(&p, &spec, 4, 16).optimize();
        // Unconstrained, the model may happily pick sample parallelism…
        let (constrained, _) =
            StrategyOptimizer::new(&p, &spec, 4, 16).with_memory_limit(V100_BYTES).optimize();
        assert_eq!(constrained.validate(&spec, 4), Ok(()));
        assert!(
            strategy_fits(&spec, 4, &constrained, V100_BYTES),
            "constrained strategy must fit a V100"
        );
        // The early (huge) conv layers must be spatially decomposed.
        let conv1_1 = spec.find("conv1_1").unwrap();
        assert!(
            constrained.grids[conv1_1].ranks_per_sample() >= 4,
            "conv1_1 needs ≥4-way spatial under the memory limit, got {}",
            constrained.grids[conv1_1]
        );
        // And the constraint is the binding difference from the
        // unconstrained plan (which keeps more sample parallelism early).
        assert!(
            constrained.grids[conv1_1].ranks_per_sample()
                >= unconstrained.grids[conv1_1].ranks_per_sample()
        );
    }

    #[test]
    fn seeded_illegal_candidate_is_rejected_by_the_legality_filter() {
        // batch 2 on an 8-way sample grid leaves 6 ranks without a
        // sample: the distribution is unpopulated and the compiled
        // schedule could never verify. Seed it as an extra candidate on
        // every conv layer; the pre-filter must drop it before the DP.
        let p = platform();
        let spec = mesh_net();
        let conv1 = spec.find("conv1_1").unwrap();
        let illegal = ProcGrid::sample(8);
        assert!(
            !fg_core::candidate_grid_legal(&spec, 2, 8, conv1, illegal),
            "the seeded grid must actually be illegal for this batch"
        );
        let mut opt = StrategyOptimizer::new(&p, &spec, 2, 8);
        for id in 0..spec.len() {
            opt = opt.with_candidate(id, illegal);
        }
        let (strategy, _) = opt.optimize();
        assert!(
            strategy.grids.iter().all(|g| *g != illegal),
            "illegal seed leaked into the chosen strategy: {:?}",
            strategy.grids
        );
        assert_eq!(strategy.validate(&spec, 2), Ok(()));
        // A legal seed, by contrast, survives the filter and is usable.
        assert!(fg_core::candidate_grid_legal(&spec, 2, 8, conv1, ProcGrid::hybrid(2, 2, 2)));
    }

    #[test]
    fn budget_rejects_over_budget_candidates_typed() {
        // A budget far below any feasible strategy's static bound must
        // come back as the typed error carrying the analyzer's exact
        // need, not a panic or a silently over-budget strategy.
        let p = platform();
        let spec = mesh_net();
        let opt = StrategyOptimizer::new(&p, &spec, 4, 8);
        match opt.optimize_with_budget(1 << 20) {
            Err(StrategyError::MemBudgetExceeded { needed, budget }) => {
                assert_eq!(budget, 1 << 20);
                assert!(needed > budget, "reported need must exceed the budget");
            }
            other => panic!("expected MemBudgetExceeded, got {other:?}"),
        }
        // A generous budget passes, and the winner's exact bound fits it.
        let (strategy, _) = opt.optimize_with_budget(64 << 30).expect("64 GiB fits");
        assert_eq!(strategy.validate(&spec, 4), Ok(()));
        let report =
            fg_core::analyze_strategy(&spec, &strategy, 4, &fg_core::sample_ranks(8)).unwrap();
        assert!(report.is_clean());
        assert!(report.max_peak() <= 64 << 30);
    }

    #[test]
    fn resnet50_at_2048_ranks_models_each_cost_once() {
        // The search's work, counted: every (layer, grid) cost is
        // modeled once however many paths and DP edges ask for it, and
        // shuffles are modeled per distinct tensor shape, not per layer.
        let p = platform();
        let spec = fg_models::resnet50();
        let opt = StrategyOptimizer::new(&p, &spec, 32768, 2048);
        let (candidates, _) = opt.candidate_sets();
        let (_, _, stats) = opt.search();
        // A layer without candidates of its own (GAP, FC) is costed on
        // the grids of the layer it inherits from.
        let mut grids_of: Vec<usize> = Vec::new();
        for (id, c) in candidates.iter().enumerate() {
            let inherited = || grids_of[spec.layer(id).parents[0]];
            grids_of.push(if c.is_empty() { inherited() } else { c.len() });
        }
        assert_eq!(stats.layer_cost_evals, grids_of.iter().sum::<usize>());
        let widest = candidates.iter().map(Vec::len).max().unwrap();
        let edge_shapes: std::collections::HashSet<_> = spec
            .layers()
            .iter()
            .flat_map(|l| l.parents.iter().map(|&p| spec.shape(p)))
            .filter(|&(_, h, w)| h > 1 || w > 1)
            .collect();
        assert!(
            stats.shuffle_cost_evals <= edge_shapes.len() * widest * widest,
            "{stats:?} with {} edge shapes, {widest} candidates at most",
            edge_shapes.len()
        );
        // The DP itself still relaxes every edge.
        assert!(stats.dp_edges > 10 * stats.layer_cost_evals, "{stats:?}");
    }

    #[test]
    fn predicted_cost_is_positive_and_decomposed() {
        let p = platform();
        let spec = mesh_net();
        let opt = StrategyOptimizer::new(&p, &spec, 4, 8);
        let (_s, cost) = opt.optimize();
        assert!(cost.fp > 0.0);
        assert!(cost.bp_compute > 0.0);
        assert!(cost.total() >= cost.fp + cost.bp_compute);
    }
}
