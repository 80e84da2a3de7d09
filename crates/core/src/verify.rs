//! Static communication-schedule verification.
//!
//! `DistExecutor::new` compiles every rank's per-layer plans before a
//! single training step runs — which means the complete communication
//! schedule of a step is known statically. This module symbolically
//! executes those plans: each rank's plan walk emits the wire operations
//! its `forward`/`backward` would issue (shapes, element counts, and
//! tags only — no tensor math, no threads, no real communicator) into an
//! [`fg_comm::RankTrace`], and the traces plus the plan geometry are
//! checked for five properties:
//!
//! 1. **p2p matching** — every send has exactly one matching recv with
//!    equal count and scalar type (deadlock-freedom at the message
//!    level); checked in [`fg_comm::check_traces`].
//! 2. **collective consistency** — all members of each group issue the
//!    same collective sequence; also in `check_traces`.
//! 3. **halo symmetry** — what rank A sends rank B for a layer's halo is
//!    exactly the global region B's `HaloPlan` expects, forward and
//!    adjoint; checked here on the plan geometry (the trace only sees
//!    element counts — two same-sized but different regions would slip
//!    through it).
//! 4. **shuffle conservation** — every `ShufflePlan`'s receives
//!    partition the destination shard (no gaps, no overlaps), and send
//!    and receive geometry agree across ranks.
//! 5. **tag/stream discipline** — no two concurrent exchanges share a
//!    `(src, dst, tag)` stream; in `check_traces`.
//!
//! What is *not* checked: numerics (the equivalence tests do that),
//! timing/overlap efficiency, and memory capacity (the optimizer's
//! memory model does that). A clean report means the schedule cannot
//! deadlock or mis-shape a message — it says nothing about whether the
//! answer is right or fast.
//!
//! The walker reads the executor's own step schedule
//! (`layers::schedule`), so which layers run and which edges carry
//! traffic is not decided here; what is this module's own is the order
//! of wire ops within a layer: input shuffles before the layer's
//! exchanges in forward, the layer's exchanges before the adjoint
//! shuffles in backward.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use fg_comm::{check_traces, CheckKind, Phase, RankTrace, TraceRecorder, VerifyStats, Violation};
use fg_nn::{LayerKind, NetworkSpec};
use fg_tensor::{Box4, ProcGrid, Shape4, TensorDist};

use crate::executor::DistExecutor;
use crate::layers::{DistLayer, LayerPlan, TraceCx};
use crate::strategy::per_sample_shape;

/// Outcome of one verification pass over a compiled executor.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// Aggregate counters (ops traced, links checked, bytes accounted).
    pub stats: VerifyStats,
    /// Every violation found; empty for a sound schedule.
    pub violations: Vec<Violation>,
    /// Wall time the verification took.
    pub wall: Duration,
}

impl VerifyReport {
    /// No violations?
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Supplies modeled local-compute times for trace recording, so the
/// symbolic traces carry `Advance` ops and can drive the discrete-event
/// engine (`fg_comm::simulate_traces`) as *executed* virtual-time runs.
/// `fg-perf` provides the production implementation from its device
/// model; the verifier itself records without one (compute does not
/// affect schedule soundness).
pub trait ComputeOracle {
    /// Modeled seconds of local compute rank `rank` spends in `layer`
    /// during `phase` (forward: the layer kernel; backward: both data
    /// and filter passes). Return 0.0 for communication-only layers.
    fn secs(&self, layer: usize, phase: Phase, rank: usize) -> f64;
}

impl std::fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ops, {} links, {} collectives, {} bytes: ",
            self.stats.ops_traced,
            self.stats.links_checked,
            self.stats.collectives_checked,
            self.stats.bytes_accounted
        )?;
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

/// Verify a compiled plan set: symbolically execute every rank's plans,
/// run the trace-level checks, and check the plan geometry. The
/// `mutate_traces` hook lets mutation tests corrupt the recorded traces
/// (tag flips, dropped collectives) between recording and checking;
/// production callers pass `|_| {}`.
pub(crate) fn verify_plans(
    exec: &DistExecutor,
    plans: &[Vec<LayerPlan>],
    mutate_traces: impl FnOnce(&mut Vec<RankTrace>),
) -> VerifyReport {
    let start = Instant::now();
    let names: Vec<String> = exec.layers.iter().map(|l| l.base().name.clone()).collect();

    let mut traces = record_traces(exec, plans, None);
    mutate_traces(&mut traces);

    let (stats, mut violations) = check_traces(&traces, &names);
    check_plan_geometry(&exec.layers, plans, exec.strategy.world_size(), &mut violations);
    VerifyReport { stats, violations, wall: start.elapsed() }
}

/// Record every rank's symbolic trace, optionally costing local compute
/// through `oracle` — the input format of the discrete-event engine.
pub(crate) fn record_traces(
    exec: &DistExecutor,
    plans: &[Vec<LayerPlan>],
    oracle: Option<&dyn ComputeOracle>,
) -> Vec<RankTrace> {
    // Parameter payload sizes of the traced gradient allreduces.
    let param_elems = exec.spec.param_elems();
    let record = |rank| record_rank(exec, plans, &param_elems, rank, oracle);
    (0..exec.strategy.world_size()).map(record).collect()
}

/// Symbolically execute one rank's plans along the step schedule.
fn record_rank(
    exec: &DistExecutor,
    plans: &[Vec<LayerPlan>],
    param_elems: &[usize],
    rank: usize,
    oracle: Option<&dyn ComputeOracle>,
) -> RankTrace {
    let world = exec.strategy.world_size();
    let cx =
        |id: usize| TraceCx { plan: &plans[id][rank], world, rank, param_elems: param_elems[id] };
    let mut rec = TraceRecorder::new(rank, world);

    // Forward: per layer, input shuffles in parent-edge order, then the
    // layer's own exchanges, then the modeled kernel time (the layer
    // computes on its exchanged inputs).
    for (id, layer) in exec.layers.iter().enumerate() {
        rec.scope(id, Phase::Forward);
        for shuffle in plans[id][rank].in_shuffles.iter().flatten() {
            shuffle.record(&mut rec);
        }
        layer.record_forward(&cx(id), &mut rec);
        if let Some(o) = oracle {
            rec.advance(o.secs(id, Phase::Forward, rank));
        }
    }

    // Backward: a loss layer's seed is communication-free; every other
    // scheduled layer runs its gradient kernels, then its own exchanges
    // (dparams, adjoint halos), then the adjoint shuffle of each edge
    // somebody reads.
    for step in exec.schedule.backward.iter().filter(|s| !s.seeds) {
        let id = step.layer;
        rec.scope(id, Phase::Backward);
        if let Some(o) = oracle {
            rec.advance(o.secs(id, Phase::Backward, rank));
        }
        exec.layers[id].record_backward(&cx(id), &mut rec);
        let shuffles = &plans[id][rank].back_shuffles;
        for (shuffle, _) in shuffles.iter().zip(&step.feeds).filter(|(_, &fed)| fed) {
            if let Some(shuffle) = shuffle {
                shuffle.record(&mut rec);
            }
        }
    }
    rec.finish()
}

/// Checks 3 and 4: plan-geometry properties the count-level traces
/// cannot see — region identity of halos and partition-exactness of
/// shuffles.
fn check_plan_geometry(
    layers: &[Box<dyn DistLayer>],
    plans: &[Vec<LayerPlan>],
    world: usize,
    violations: &mut Vec<Violation>,
) {
    for (id, layer) in layers.iter().enumerate() {
        let name = &layer.base().name;
        let per_rank = &plans[id];

        // Halo symmetry, forward and adjoint windows.
        for kind in ["x_halo", "dy_halo"] {
            let mut sent: BTreeMap<(usize, usize), Vec<Box4>> = BTreeMap::new();
            let mut expected: BTreeMap<(usize, usize), Vec<Box4>> = BTreeMap::new();
            for (rank, plan) in per_rank.iter().enumerate().take(world) {
                let h = if kind == "x_halo" { &plan.x_halo } else { &plan.dy_halo };
                if let Some(h) = h {
                    for (peer, b) in &h.sends {
                        sent.entry((rank, *peer)).or_default().push(*b);
                    }
                    for (peer, b) in &h.recvs {
                        expected.entry((*peer, rank)).or_default().push(*b);
                    }
                }
            }
            compare_box_maps(&sent, &expected, id, name, kind, CheckKind::HaloSymmetry, violations);
        }

        // Shuffle conservation and cross-rank symmetry, per parent edge.
        let n_edges = layers[id].base().parents.len();
        for edge in 0..n_edges {
            for dir in ["in_shuffle", "back_shuffle"] {
                let mut sent: BTreeMap<(usize, usize), Vec<Box4>> = BTreeMap::new();
                let mut expected: BTreeMap<(usize, usize), Vec<Box4>> = BTreeMap::new();
                let mut any = false;
                for (rank, plan) in per_rank.iter().enumerate().take(world) {
                    let slot = if dir == "in_shuffle" {
                        plan.in_shuffle(edge)
                    } else {
                        plan.back_shuffle(edge)
                    };
                    let Some(sp) = slot else { continue };
                    any = true;
                    if let Err(e) = sp.check_conservation() {
                        violations.push(Violation {
                            check: CheckKind::Conservation,
                            rank,
                            layer: id,
                            layer_name: name.clone(),
                            detail: format!("{dir} edge {edge}: {e}"),
                        });
                    }
                    for (peer, b) in sp.sends() {
                        sent.entry((rank, *peer)).or_default().push(*b);
                    }
                    for (peer, b) in sp.recvs() {
                        expected.entry((*peer, rank)).or_default().push(*b);
                    }
                }
                if any {
                    let label = format!("{dir} edge {edge}");
                    compare_box_maps(
                        &sent,
                        &expected,
                        id,
                        name,
                        &label,
                        CheckKind::Conservation,
                        violations,
                    );
                }
            }
        }
    }
}

/// Compare per-link sent vs expected global boxes; a mismatch means the
/// sender packs a different region than the receiver unpacks — same
/// element counts or not, the data lands in the wrong place (or a
/// message goes missing entirely).
fn compare_box_maps(
    sent: &BTreeMap<(usize, usize), Vec<Box4>>,
    expected: &BTreeMap<(usize, usize), Vec<Box4>>,
    layer: usize,
    name: &str,
    what: &str,
    check: CheckKind,
    violations: &mut Vec<Violation>,
) {
    let mut links: Vec<(usize, usize)> = sent.keys().chain(expected.keys()).copied().collect();
    links.sort_unstable();
    links.dedup();
    for (src, dst) in links {
        let mut s = sent.get(&(src, dst)).cloned().unwrap_or_default();
        let mut e = expected.get(&(src, dst)).cloned().unwrap_or_default();
        s.sort_unstable_by_key(|b| (b.lo, b.hi));
        e.sort_unstable_by_key(|b| (b.lo, b.hi));
        if s != e {
            violations.push(Violation {
                check,
                rank: src,
                layer,
                layer_name: name.to_string(),
                detail: format!(
                    "{what}: rank {src} sends {s:?} to rank {dst}, which expects {e:?}"
                ),
            });
        }
    }
}

/// Is `grid` a legal distribution for layer `id` of `spec`? The
/// per-layer subset of `Strategy::validate` — the legality pre-filter
/// `StrategyOptimizer` applies to each candidate grid before the cost
/// model ever scores it, so no provably unsound distribution can win.
/// (Cross-layer rules — per-sample layers inheriting the parent grid —
/// are enforced by the optimizer's candidate construction itself.)
pub fn candidate_grid_legal(
    spec: &NetworkSpec,
    batch: usize,
    world: usize,
    id: usize,
    grid: ProcGrid,
) -> bool {
    if grid.size() != world {
        return false;
    }
    let l = spec.layer(id);
    match &l.kind {
        // Per-sample layers replicate within sample groups; their grids
        // are pinned to the parent's, which is checked when the parent's
        // own candidate is screened.
        LayerKind::GlobalAvgPool | LayerKind::Fc { .. } => true,
        LayerKind::SoftmaxCrossEntropy => {
            let parent_kind = &spec.layer(l.parents[0]).kind;
            if matches!(parent_kind, LayerKind::GlobalAvgPool | LayerKind::Fc { .. }) {
                return true;
            }
            let (c, h, w) = spec.shape(id);
            TensorDist::new(Shape4::new(batch, c, h, w), grid).is_fully_populated()
        }
        _ => {
            if grid.c != 1 {
                return false;
            }
            let (c, h, w) = spec.shape(id);
            if !per_sample_shape((c, h, w))
                && !TensorDist::new(Shape4::new(batch, c, h, w), grid).is_fully_populated()
            {
                return false;
            }
            if matches!(l.kind, LayerKind::Conv { .. } | LayerKind::Pool { .. }) {
                let (pc, ph, pw) = spec.shape(l.parents[0]);
                if !TensorDist::new(Shape4::new(batch, pc, ph, pw), grid).is_fully_populated() {
                    return false;
                }
            }
            true
        }
    }
}
