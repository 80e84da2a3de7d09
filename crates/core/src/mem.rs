//! Static tensor-liveness analysis: verified per-rank memory bounds.
//!
//! `DistExecutor::new` compiles every rank's per-layer plans before a
//! single step runs — so, exactly as the communication schedule is known
//! statically (see [`crate::verify`]), the *memory* schedule is too.
//! This module walks a rank's compiled plans along the executor's own
//! step schedule (`layers::schedule`) and records every buffer the step
//! touches as a [`LiveInterval`] on the step's tick line (layer `L` of
//! an `n`-layer network runs forward at tick `L` and backward at tick
//! `2n - 1 - L`):
//!
//! * **persistent state** — parameters, gradients, optimizer momentum
//!   (3× the parameter bytes), live for the whole step;
//! * **activations** — each layer's output from its forward tick until
//!   its backward tick, plus privately-saved redistributed inputs;
//! * **error signals** — a layer's dL/dy accumulator from the first
//!   child that contributes until the layer's own backward tick;
//! * **haloed windows** — the kept forward input window and the
//!   transient backward dy window, sized by the layer's
//!   `window_elems`, which the passes that build them assert against;
//! * **staging** — halo pack/unpack payloads, §III-C shuffle payloads
//!   (forward and adjoint), flattened gradient-allreduce staging, and
//!   the integrity layer's replay-window budget, which a live
//!   executor's world holds when `FG_COMM_INTEGRITY` is on and which
//!   [`analyze_strategy`]'s planning bounds leave out.
//!
//! From the interval list come (a) an exact per-rank peak
//! ([`fg_tensor::peak_bytes`]) — the static bound the `FG_MEM_BUDGET`
//! gate compares with its budget; and (b) the soundness check: no
//! staging interval understates its plan's payload (that the plans
//! conserve bytes across ranks is the verifier's halo-symmetry and
//! shuffle-conservation checks). Mutation tests (`mem_mutations.rs`)
//! prove each corruption class produces a named violation. The buffers
//! live across the forward/backward turnaround are also priced per
//! layer ([`turnaround_bytes`]): that is the term the strategy search's
//! memory limit prunes with, so the search and the bound are one model.
//!
//! Because the analysis is pure plan geometry — no tensors, no threads —
//! it runs at discrete-event scale: [`analyze_strategy`] compiles plans
//! only for sampled ranks, so per-rank bounds at 2048–32768 ranks cost
//! seconds, giving the memory strong-scaling curves next to the paper's
//! Tables I–III (`repro -- memscale`).

use std::fmt;
use std::time::{Duration, Instant};

use fg_comm::collectives::block_range;
use fg_nn::{LayerKind, NetworkSpec};
use fg_tensor::{peak_bytes, BufClass, LiveInterval, ProcGrid, ELT_BYTES};

use crate::layers::schedule::{EdgeIn, StepSchedule};
use crate::layers::{build_layer, build_layers, DistLayer, LayerBase, LayerPlan};
use crate::strategy::{Strategy, StrategyError};

/// The static memory bound for one rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankMemBound {
    /// The rank analyzed.
    pub rank: usize,
    /// Exact peak of all live bytes over the step's tick line.
    pub peak_bytes: usize,
    /// The whole-step persistent term (params + grads + momentum).
    pub persistent_bytes: usize,
}

/// Which memory-soundness check a violation came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemCheckKind {
    /// A staging interval (halo or shuffle) understates the bytes its
    /// plan actually moves.
    StagingUnderstated,
}

impl MemCheckKind {
    /// Short label for diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            MemCheckKind::StagingUnderstated => "staging-understated",
        }
    }
}

/// One memory-soundness violation, named by rank and layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemViolation {
    /// Which check failed.
    pub kind: MemCheckKind,
    /// Rank whose plan is unsound.
    pub rank: usize,
    /// Offending layer.
    pub layer: usize,
    /// Offending layer's name.
    pub layer_name: String,
    /// Full diagnostic.
    pub detail: String,
}

impl fmt::Display for MemViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] rank {} layer {} ({}): {}",
            self.kind.label(),
            self.rank,
            self.layer,
            self.layer_name,
            self.detail
        )
    }
}

/// Outcome of one memory analysis over a set of ranks.
#[derive(Debug, Clone)]
pub struct MemReport {
    /// Per-rank bounds, in the order the ranks were analyzed.
    pub bounds: Vec<RankMemBound>,
    /// Every violation found; empty for a sound memory schedule.
    pub violations: Vec<MemViolation>,
    /// Wall time the analysis took.
    pub wall: Duration,
}

impl MemReport {
    /// No violations?
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The worst per-rank peak — what a memory budget is compared to.
    pub fn max_peak(&self) -> usize {
        self.bounds.iter().map(|b| b.peak_bytes).max().unwrap_or(0)
    }
}

impl fmt::Display for MemReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} rank(s), max peak {} B: ", self.bounds.len(), self.max_peak())?;
        if self.is_clean() {
            write!(f, "clean")
        } else {
            writeln!(f, "{} violation(s)", self.violations.len())?;
            for v in &self.violations {
                writeln!(f, "  {v}")?;
            }
            Ok(())
        }
    }
}

/// What a liveness walk reads besides a rank's plans: the network, its
/// layer objects, the step schedule compiled from them, and the
/// integrity replay window the world holds for the whole step.
#[derive(Clone, Copy)]
pub(crate) struct Net<'a> {
    pub spec: &'a NetworkSpec,
    pub layers: &'a [Box<dyn DistLayer>],
    pub schedule: &'a StepSchedule,
    pub batch: usize,
    /// Bytes of the replay window: [`replay_budget_bytes`] for a live
    /// world, 0 in [`analyze_strategy`].
    pub replay_bytes: usize,
}

/// The per-rank memory budget from `FG_MEM_BUDGET` (bytes per rank), if
/// set and parseable.
pub fn mem_budget_from_env() -> Option<usize> {
    std::env::var("FG_MEM_BUDGET").ok().and_then(|v| v.trim().parse::<usize>().ok())
}

/// The integrity replay-window budget a live world holds when
/// `FG_COMM_INTEGRITY` is on: the per-stream bound its replay windows
/// are sized with, so the bound covers exactly what it holds.
pub(crate) fn replay_budget_bytes() -> usize {
    if fg_comm::env_flag("FG_COMM_INTEGRITY") {
        fg_comm::DEFAULT_REPLAY_BYTES
    } else {
        0
    }
}

/// Bytes of layer `base`'s output activation on `rank`: the local box
/// of its sharded distribution, or the `(n_loc, C, H, W)` per-sample
/// replicated block after global average pooling.
fn act_bytes(spec: &NetworkSpec, base: &LayerBase, batch: usize, rank: usize) -> usize {
    match &base.out_dist {
        Some(od) => od.local_box(rank).len() * ELT_BYTES,
        None => {
            let n_loc = block_range(batch, base.grid.n, base.grid.coords(rank)[0]).len();
            let (c, h, w) = spec.shape(base.id);
            n_loc * c * h * w * ELT_BYTES
        }
    }
}

/// What one layer keeps on one rank across the step's forward/backward
/// turnaround (tick `n - 1`), by class. The liveness walk pushes these
/// buffers and [`turnaround_bytes`] sums them, so the strategy search
/// and the exact bound read one geometry.
#[derive(Clone, Copy)]
struct Kept {
    /// Parameters + gradients + momentum.
    params: usize,
    /// The haloed input window kept for backward.
    window: usize,
    /// Saved batch-norm statistics.
    bn_stats: usize,
    /// A loss layer's saved gradient, sized like the activation it seeds.
    seed: usize,
    /// The layer's output activation.
    act: usize,
}

impl Kept {
    /// `layer` on `rank`; `parent` is its first parent's object.
    fn of(
        spec: &NetworkSpec,
        batch: usize,
        layer: &dyn DistLayer,
        parent: Option<&dyn DistLayer>,
        rank: usize,
    ) -> Kept {
        let base = layer.base();
        let bn = matches!(base.kind, LayerKind::BatchNorm);
        Kept {
            params: 3 * spec.layer_param_elems(base.id) * ELT_BYTES,
            window: layer.memory_model(rank).window_elems * ELT_BYTES,
            bn_stats: if bn { 2 * spec.shape(base.id).0 * ELT_BYTES } else { 0 },
            seed: match parent {
                Some(p) if layer.seeds_backward() => act_bytes(spec, p.base(), batch, rank),
                _ => 0,
            },
            act: act_bytes(spec, base, batch, rank),
        }
    }

    fn total(self) -> usize {
        self.params + self.window + self.bn_stats + self.seed + self.act
    }
}

/// The bytes layer `id` keeps across the forward/backward turnaround
/// when it runs on `grid` (its parent, for a loss layer, on the same
/// grid), on the worst of [`sample_ranks`]: output activation, kept
/// window, batch-norm statistics, 3× parameters and a loss layer's seed
/// gradient. Their sum over a strategy's layers, plus the replay budget,
/// is the rank's live bytes at tick `n - 1`; the exact peak adds one
/// backward transient (grad staging, a dy window or halo staging) on
/// top. `StrategyOptimizer::with_memory_limit` prunes with it.
pub fn turnaround_bytes(spec: &NetworkSpec, batch: usize, id: usize, grid: ProcGrid) -> usize {
    // Plan compilation is never asked of these objects, so their
    // parents' distributions do not matter.
    let uniform = Strategy::uniform(spec, grid);
    let build = |id: usize| {
        let parents = vec![None; spec.layer(id).parents.len()];
        build_layer(spec, &uniform, batch, id, parents)
    };
    let layer = build(id);
    let parent = layer.seeds_backward().then(|| build(spec.layer(id).parents[0]));
    sample_ranks(grid.size())
        .into_iter()
        .map(|rank| Kept::of(spec, batch, &*layer, parent.as_deref(), rank).total())
        .max()
        .unwrap_or(0)
}

/// Record one rank's complete tensor-liveness interval list by walking
/// its compiled plans along the step schedule, as `verify::record_rank`
/// does for the wire ops. `plans` is this rank's plan per layer.
fn rank_intervals(net: Net<'_>, plans: &[&LayerPlan], rank: usize) -> Vec<LiveInterval> {
    let Net { spec, layers, schedule, batch, replay_bytes } = net;
    let n = layers.len();
    let last_tick = 2 * n - 1;
    let fwd = |id: usize| id;
    let bwd = |id: usize| 2 * n - 1 - id;
    let kept: Vec<Kept> = layers
        .iter()
        .map(|l| {
            let parent = l.base().parents.first().map(|&p| &*layers[p]);
            Kept::of(spec, batch, &**l, parent, rank)
        })
        .collect();
    let mut ivs: Vec<LiveInterval> = Vec::new();
    let mut push = |layer: usize, class: BufClass, bytes: usize, start: usize, end: usize| {
        if bytes > 0 {
            ivs.push(LiveInterval { layer, class, bytes, start, end });
        }
    };

    // Whole-step state: parameters + gradients + momentum per parameter
    // layer, and the integrity replay budget when that layer is on.
    for (id, k) in kept.iter().enumerate() {
        push(id, BufClass::Persistent, k.params, 0, last_tick);
    }
    push(0, BufClass::ReplayWindow, replay_bytes, 0, last_tick);

    // Forward: per layer, input shuffles (staging transient at the
    // forward tick; the redistributed copy where the schedule keeps it
    // for backward), then the layer's own window, halo staging, BN
    // statistics, and output activation.
    for (id, layer) in layers.iter().enumerate() {
        let base = layer.base();
        let plan = &plans[id];
        for (shuffle, edge) in plan.in_shuffles.iter().zip(&schedule.edges[id]) {
            let Some(sp) = shuffle.as_ref() else { continue };
            let stage = sp.send_elements() + sp.recvs().iter().map(|(_, b)| b.len()).sum::<usize>();
            push(id, BufClass::ShuffleStage, stage * ELT_BYTES, fwd(id), fwd(id));
            if let (EdgeIn::Shuffled { saved: true }, Some(d)) = (edge, base.in_dist.as_ref()) {
                // Sized by the layer's input distribution.
                push(id, BufClass::Act, d.local_box(rank).len() * ELT_BYTES, fwd(id), bwd(id));
            }
        }
        // Kept windows stay in the pass until the step drops it
        // (backward reads them at `bwd(id)` but the pass owns them to the
        // last tick).
        push(id, BufClass::Window, kept[id].window, fwd(id), last_tick);
        if let Some(h) = plan.x_halo.as_ref() {
            let stage = h.send_elements() + h.recv_elements();
            push(id, BufClass::HaloStage, stage * ELT_BYTES, fwd(id), fwd(id));
        }
        push(id, BufClass::BnStats, kept[id].bn_stats, fwd(id), bwd(id));
        // The saved loss gradient stays in the pass for the whole
        // backward.
        push(id, BufClass::Err, kept[id].seed, fwd(id), last_tick);
        push(id, BufClass::Act, kept[id].act, fwd(id), bwd(id));
    }

    // Backward: a scheduled layer's error accumulator is live from the
    // step that first filled it until its own, where `dout[id].take()`
    // consumes it (a loss layer's seed is the gradient booked above).
    for step in schedule.backward.iter().filter(|s| !s.seeds) {
        let id = step.layer;
        push(id, BufClass::Err, kept[id].act, bwd(step.err_from), bwd(id));
        let plan = &plans[id];
        let bufs = layers[id].memory_model(rank);
        push(id, BufClass::DyWindow, bufs.dy_window_elems * ELT_BYTES, bwd(id), bwd(id));
        if let Some(h) = plan.dy_halo.as_ref() {
            let stage = h.send_elements() + h.recv_elements();
            push(id, BufClass::HaloStage, stage * ELT_BYTES, bwd(id), bwd(id));
        }
        // Gradient + flattened allreduce staging for parameter layers.
        let grad = 2 * spec.layer_param_elems(id) * ELT_BYTES;
        push(id, BufClass::GradStage, grad, bwd(id), bwd(id));
        for (shuffle, _) in plan.back_shuffles.iter().zip(&step.feeds).filter(|(_, &fed)| fed) {
            let Some(sp) = shuffle.as_ref() else { continue };
            let stage = sp.send_elements() + sp.recvs().iter().map(|(_, b)| b.len()).sum::<usize>();
            push(id, BufClass::ShuffleStage, stage * ELT_BYTES, bwd(id), bwd(id));
        }
    }
    ivs
}

/// Flag staging intervals whose recorded bytes understate what the
/// rank's plans actually move: every halo/shuffle staging interval is
/// compared against a freshly recorded walk of the same plans. (On an
/// unmutated analysis the two lists are identical, so this never fires
/// in production; mutation tests corrupt `ivs` to prove the check
/// catches understatement.)
fn staging_violations(
    rank: usize,
    layers: &[Box<dyn DistLayer>],
    ivs: &[LiveInterval],
    fresh: &[LiveInterval],
    out: &mut Vec<MemViolation>,
) {
    use std::collections::BTreeMap;
    let staged = |list: &[LiveInterval]| {
        let mut m: BTreeMap<(usize, BufClass, usize, usize), usize> = BTreeMap::new();
        for iv in list {
            if matches!(iv.class, BufClass::HaloStage | BufClass::ShuffleStage) {
                *m.entry((iv.layer, iv.class, iv.start, iv.end)).or_insert(0) += iv.bytes;
            }
        }
        m
    };
    let got = staged(ivs);
    for (key @ (layer, class, start, end), &want) in &staged(fresh) {
        let have = got.get(key).copied().unwrap_or(0);
        if have < want {
            out.push(MemViolation {
                kind: MemCheckKind::StagingUnderstated,
                rank,
                layer: *layer,
                layer_name: layers[*layer].base().name.clone(),
                detail: format!(
                    "{} staging at ticks [{start}, {end}] records {have} B but the plan moves \
                     {want} B",
                    class.label()
                ),
            });
        }
    }
}

/// Analyze the given ranks of a compiled plan set: record each rank's
/// intervals (through `mutate_intervals`), take their exact peak, and
/// run every soundness check. `rows` yields each analyzed rank with its
/// plan per layer, borrowed. The hook exists for mutation tests;
/// production passes `|_, _| {}`.
pub(crate) fn analyze_ranks<'p>(
    net: Net<'_>,
    rows: impl ExactSizeIterator<Item = (usize, Vec<&'p LayerPlan>)>,
    mutate_intervals: &dyn Fn(usize, &mut Vec<LiveInterval>),
) -> MemReport {
    let start = Instant::now();
    let layers = net.layers;
    let mut bounds = Vec::with_capacity(rows.len());
    let mut violations = Vec::new();
    for (rank, plans) in rows {
        let fresh = rank_intervals(net, &plans, rank);
        let mut ivs = fresh.clone();
        mutate_intervals(rank, &mut ivs);
        staging_violations(rank, layers, &ivs, &fresh, &mut violations);
        let persistent = ivs
            .iter()
            .filter(|iv| iv.class == BufClass::Persistent)
            .map(|iv| iv.bytes)
            .sum::<usize>();
        bounds.push(RankMemBound {
            rank,
            peak_bytes: peak_bytes(&ivs),
            persistent_bytes: persistent,
        });
    }
    MemReport { bounds, violations, wall: start.elapsed() }
}

/// Which ranks to analyze for a world of `world` ranks: all of them for
/// small worlds, a corner/quartile sample at discrete-event scale
/// (per-rank bounds vary only with grid position, so the sample brackets
/// the extremes).
pub fn sample_ranks(world: usize) -> Vec<usize> {
    if world <= 64 {
        (0..world).collect()
    } else {
        let mut r = vec![0, world / 4, world / 2, 3 * world / 4, world - 1];
        r.dedup();
        r
    }
}

/// Static per-rank memory bounds for `strategy` on `spec` at batch
/// `batch`, analyzing only `ranks` — plan compilation and the symbolic
/// walk are per-rank, so bounds at 2048–32768 ranks (the paper's
/// Tables I–III scales) cost seconds without compiling the full world.
/// A planning bound covers only the model's own buffers: no integrity
/// replay window is charged and the environment is not read, so the
/// bounds are the same wherever they are computed.
pub fn analyze_strategy(
    spec: &NetworkSpec,
    strategy: &Strategy,
    batch: usize,
    ranks: &[usize],
) -> Result<MemReport, StrategyError> {
    strategy.validate(spec, batch)?;
    let layers = build_layers(spec, strategy, batch);
    let schedule = StepSchedule::compile(&layers);
    let net = Net { spec, layers: &layers, schedule: &schedule, batch, replay_bytes: 0 };
    let plans: Vec<Vec<LayerPlan>> =
        ranks.iter().map(|&rank| layers.iter().map(|l| l.compile_plan(rank)).collect()).collect();
    let rows = ranks.iter().zip(&plans).map(|(&rank, row)| (rank, row.iter().collect()));
    Ok(analyze_ranks(net, rows, &|_, _| {}))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_models::{mesh_model, mesh_model_custom, resnet50, resnet50_with, MeshSize};

    /// The replay window the turnaround rows charge, as a world running
    /// with integrity holds it.
    const REPLAY: usize = fg_comm::DEFAULT_REPLAY_BYTES;

    /// Per analyzed rank: (Σ per-layer terms + replay budget, live bytes
    /// at tick `n - 1`, exact peak).
    fn turnaround_rows(spec: &NetworkSpec, strategy: &Strategy, batch: usize) -> Vec<[usize; 3]> {
        let layers = build_layers(spec, strategy, batch);
        let schedule = StepSchedule::compile(&layers);
        let net = Net { spec, layers: &layers, schedule: &schedule, batch, replay_bytes: REPLAY };
        let turn = layers.len() - 1;
        let parent = |l: &dyn DistLayer| l.base().parents.first().map(|&p| &*layers[p]);
        sample_ranks(strategy.world_size())
            .into_iter()
            .map(|rank| {
                let plans: Vec<LayerPlan> = layers.iter().map(|l| l.compile_plan(rank)).collect();
                let ivs = rank_intervals(net, &plans.iter().collect::<Vec<_>>(), rank);
                let live = ivs.iter().filter(|iv| iv.start <= turn && turn <= iv.end);
                let terms = layers.iter().map(|l| Kept::of(spec, batch, &**l, parent(&**l), rank));
                let sum = terms.map(Kept::total).sum::<usize>() + REPLAY;
                [sum, live.map(|iv| iv.bytes).sum(), peak_bytes(&ivs)]
            })
            .collect()
    }

    /// The per-layer terms the strategy search prices memory with are
    /// the analyzer's own: on a uniform strategy they sum, on every rank,
    /// to exactly the bytes live at the forward/backward turnaround; the
    /// public worst-rank terms sum to the worst rank's; and at paper
    /// scale the exact peak adds less than 3 % on top (one backward
    /// transient). On the mini nets (the benchmark's live models) grad
    /// staging weighs more against the activations (up to +6.3 %), so
    /// only the sum is pinned there. A mixed strategy also holds saved
    /// shuffled inputs.
    #[test]
    fn per_layer_terms_are_the_live_bytes_at_the_turnaround() {
        let (mesh1k, resnet) = (mesh_model(MeshSize::OneK), resnet50());
        let (mini_mesh, mini_resnet) =
            (mesh_model_custom(MeshSize::OneK, 128, 8), resnet50_with(64, 4));
        let cases = [
            (mini_mesh.clone(), ProcGrid::sample(4), 4, false),
            (mini_mesh.clone(), ProcGrid::spatial(2, 2), 2, false),
            (mini_resnet.clone(), ProcGrid::hybrid(2, 2, 1), 4, false),
            (mini_resnet, ProcGrid::sample(1), 3, false),
            (mesh1k.clone(), ProcGrid::sample(1), 1, true),
            (mesh1k, ProcGrid::hybrid(2, 2, 1), 4, true),
            (resnet.clone(), ProcGrid::sample(4), 32, true),
            (resnet, ProcGrid::hybrid(2, 2, 1), 8, true),
        ];
        for (spec, grid, batch, paper_scale) in &cases {
            let case = format!("{} layers on {grid}, batch {batch}", spec.len());
            let rows = turnaround_rows(spec, &Strategy::uniform(spec, *grid), *batch);
            for (rank, [sum, live, peak]) in rows.iter().copied().enumerate() {
                assert_eq!(sum, live, "{case}, rank {rank}");
                assert!(peak >= sum, "{case}, rank {rank}");
                if *paper_scale {
                    assert!((peak - sum) * 100 < 3 * sum, "{case}, rank {rank}: {peak} vs {sum}");
                }
            }
            let terms = (0..spec.len()).map(|id| turnaround_bytes(spec, *batch, id, *grid));
            let worst = rows.iter().map(|r| r[1]).max().unwrap();
            assert_eq!(terms.sum::<usize>() + REPLAY, worst, "{case}");
        }

        let mut mixed = Strategy::uniform(&mini_mesh, ProcGrid::sample(4));
        mixed.grids[..3].fill(ProcGrid::spatial(2, 2));
        for (rank, [sum, live, _]) in turnaround_rows(&mini_mesh, &mixed, 4).into_iter().enumerate()
        {
            assert!(sum < live, "rank {rank}: saved shuffled inputs are live too");
        }
    }
}
