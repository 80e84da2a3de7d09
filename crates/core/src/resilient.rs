//! Checkpointed, fault-tolerant training on top of the executor.
//!
//! [`resilient_train`] drives [`crate::DistExecutor`] training steps
//! under the fault-injecting runtime with a **four-level escalation
//! ladder**, each level strictly cheaper than the next:
//!
//! 1. **In-band repair** (free): when [`ResilientConfig::integrity`] is
//!    set, the world runs the end-to-end integrity protocol
//!    ([`fg_comm::RunOptions::integrity`], enveloping above the fault
//!    stage), so corrupted payloads are repaired by replay-window
//!    retransmission and dropped messages by link-layer resend —
//!    training never notices. Repair counts surface in the report via
//!    [`fg_comm::WorldComm::stats`].
//! 2. **Rollback-and-replay** (cheap): when [`ResilientConfig::guard`]
//!    is on, every step is screened by a [`crate::guard::StepGuard`]
//!    (NaN/Inf and loss-spike detection with all-rank agreement) before
//!    the optimizer commits it. A flagged step is rejected on *every*
//!    rank; all ranks restore the last snapshot **in place** — same
//!    world, same threads, no teardown — and replay. Because restores
//!    overwrite the full replicated state, this also heals a single
//!    rank's diverged replica.
//! 3. **World rebuild** (expensive): a dead rank (injected kill,
//!    watchdog abort) or a rollback budget exhausted (the anomaly
//!    persists — level 2 escalates by raising
//!    [`fg_comm::CommError::RankFailed`] on every rank) tears the world
//!    down, rebuilds it from scratch, restores the last snapshot on
//!    every rank, and replays — the checkpoint/restart discipline of
//!    the paper's target systems, where a multi-day ImageNet run must
//!    survive node failures.
//! 4. **Elastic degradation** (last resort): when rebuilds at world
//!    size `P` keep dying — a rank is *permanently* gone
//!    ([`FaultPlan::kill_rank_permanently`]), not transiently flaky —
//!    the run gives up on `P` instead of giving up on training. The
//!    driver attributes the dead ranks from the failure reports
//!    ([`fg_comm::attribute_dead_ranks`]), shrinks to the largest
//!    viable `P' < P` around them ([`fg_comm::shrink_survivors`]; one
//!    failure-driven shrink per run), re-plans the parallel strategy
//!    for the new world size (via an injected [`Replanner`] — `fg-perf`
//!    provides one that re-runs the full performance model — or the
//!    model-free [`Strategy::spatial_fallback`]), recompiles the layer
//!    plans by rebuilding the executor, and resumes on the survivors
//!    from the last snapshot as stored (it holds whole tensors, so any
//!    world loads it).
//!
//! Orthogonal to the crash ladder, a **gray-failure ladder** (enabled
//! by [`ResilientConfig::straggler`]) handles the node that is alive
//! but slow — a throttled accelerator, a degraded link — which in
//! bulk-synchronous training taxes every rank at every collective. Per-step busy-time telemetry
//! ([`fg_comm::WorldComm::busy_nanos`]) feeds a
//! [`crate::straggler::StragglerGuard`] (median-relative EMA criterion
//! with all-rank agreement); a confirmed persistent straggler triggers,
//! in order: *tolerate and log* (below threshold), **weighted
//! re-decomposition** — the world unwinds at an agreed step behind a
//! fresh snapshot, the partition is rebuilt with per-rank speed
//! weights ([`Strategy::with_rank_weights`]) so the slow rank carries
//! proportionally less of every layer, and training resumes with no
//! lost steps (a weighted layout that does not compile or verify is
//! not applied; the world resumes as it was) — and finally **soft
//! eviction** through the degradation rung when the rank is slower than
//! [`crate::straggler::StragglerConfig::evict_ratio`] or still flagged
//! once its one weighted re-decomposition is spent.
//!
//! The driver keeps the run's whole record in one ledger: what the
//! report will say, the step of the newest snapshot, the furthest step
//! reached, and the mitigation a straggler unwind hands over. Rank 0
//! writes it during an attempt and the driver between attempts. Each
//! attempt ends as one typed outcome — done, mitigate (a rebalance or
//! an eviction, read from the ledger), or failed — and the driver picks
//! the next rung with one `match` on it, never from an error's text.
//!
//! Every `ckpt_every` steps, rank 0 serializes a full
//! [`fg_nn::TrainState`] (step counter, parameters, optimizer velocity,
//! loss history, guard EMA baseline) into the snapshot
//! keeper — by default an in-memory slot (the stand-in for a parallel
//! file system), or, when [`ResilientConfig::ckpt_store`] is set, the
//! durable, replicated, versioned [`fg_nn::CkptStore`]: atomic
//! publishes, per-shard checksums, replica/parity reconstruction of
//! lost shards, and fallback past unverifiable versions, so every
//! rung's restore survives process death and storage damage. Every
//! rung — in-place rollback, rebuild, shrink — restores through the
//! same call under the same contract on either backend: the newest
//! snapshot the loader accepts, whatever world wrote it, or a restart
//! from the initial state when there is none; never a panic. Because
//! training is deterministic (fixed reduction orders in the collectives,
//! replicated SGD) and the checkpoint round-trips state bitwise, a
//! recovered run's loss trajectory is **bitwise identical** to an
//! uninterrupted one at levels 1–3 of the ladder; after a level-4
//! shrink the *post-shrink* trajectory is bitwise identical to a fresh
//! `P'`-rank run restored from the same snapshot (a different world
//! size reduces in a different order, so the pre-/post-shrink
//! trajectories are two deterministic runs stitched at the snapshot).
//! Both contracts are asserted by the property tests in
//! `tests/resilience.rs`.

use std::panic::panic_any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use fg_comm::{
    attribute_dead_ranks, run_ranks_opts, shrink_survivors, CommError, Communicator, FaultPlan,
    RunOptions, TrafficStats, WorldComm,
};
use fg_kernels::loss::Labels;
use fg_nn::{
    load_train_state, save_train_state, CkptStore, GuardState, LayerParams, Sgd, StoreConfig,
    StoreCounters, TrainState,
};
use fg_tensor::Tensor;

use crate::executor::DistExecutor;
use crate::guard::StepGuard;
use crate::straggler::{
    rebalance_for_stragglers, StragglerAction, StragglerConfig, StragglerGuard,
};
use crate::strategy::Strategy;

/// Hyperparameters of the replicated SGD optimizer, threaded through
/// checkpoint restore (hyperparameters are config, not state, so they
/// are not serialized).
#[derive(Debug, Clone, Copy)]
pub struct SgdHyper {
    /// Learning rate η.
    pub lr: f32,
    /// Momentum μ.
    pub momentum: f32,
    /// Weight decay λ.
    pub weight_decay: f32,
}

impl SgdHyper {
    fn fresh(&self, params: &[LayerParams]) -> Sgd {
        Sgd::new(self.lr, self.momentum, self.weight_decay, params)
    }

    fn restored(&self, velocity: Vec<LayerParams>) -> Sgd {
        Sgd::with_state(self.lr, self.momentum, self.weight_decay, velocity)
    }
}

/// A deterministic injected compute error: at the start of global step
/// `step` (first attempt only, never on replay), rank `rank` scales its
/// parameter replica by `scale` — modeling a silent numerical fault (a
/// flipped bit in an FMA, a misbehaving kernel) that corrupts one
/// replica without touching the network. `scale = f32::NAN` poisons the
/// replica outright; a large finite scale produces a loss spike.
#[derive(Debug, Clone, Copy)]
pub struct ComputeFault {
    /// The rank whose replica is perturbed.
    pub rank: usize,
    /// The global step at whose start the perturbation fires.
    pub step: u64,
    /// Multiplier applied to every parameter element.
    pub scale: f32,
}

/// A strategy re-planner for shrunken worlds: given a new (smaller)
/// world size, produce a validated [`Strategy`] for it, or `None` when
/// the size is not viable. `fg-perf` provides the canonical
/// implementation (`degrade_replanner`), which re-runs the full
/// performance-model search against the measured platform; without one,
/// the degradation rung falls back to [`Strategy::spatial_fallback`].
pub type Replanner = Arc<dyn Fn(usize) -> Option<Strategy> + Send + Sync>;

/// Configuration for the elastic-degradation rung (level 4).
#[derive(Clone, Default)]
pub struct DegradeConfig {
    /// Strategy re-planner for candidate shrunken world sizes; `None`
    /// uses the model-free [`Strategy::spatial_fallback`].
    pub replan: Option<Replanner>,
}

impl std::fmt::Debug for DegradeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DegradeConfig")
            .field("replan", &self.replan.as_ref().map(|_| "<fn>"))
            .finish()
    }
}

/// How many shrinks a run may perform before giving up (each shrink
/// resets the rebuild budget).
const MAX_SHRINKS: usize = 1;

/// Configuration for [`resilient_train`].
#[derive(Debug, Clone)]
pub struct ResilientConfig {
    /// Snapshot the training state every this many steps.
    pub ckpt_every: u64,
    /// Give up after this many world rebuilds (per world size when
    /// degradation is enabled: a shrink resets the budget).
    pub max_restarts: usize,
    /// In-place rollbacks tolerated per attempt before escalating to a
    /// world rebuild (only reachable when `guard` is on).
    pub max_rollbacks: u64,
    /// Numerical-anomaly screening; off disables level 2 of the
    /// ladder (steps commit unconditionally).
    pub guard: bool,
    /// End-to-end message integrity; off disables level 1 (faults
    /// hit the training loop directly, as under plain
    /// [`fg_comm::RunOptions::with_faults`]).
    pub integrity: bool,
    /// Injected compute error, for exercising the rollback path.
    pub compute_fault: Option<ComputeFault>,
    /// Elastic degradation on permanent rank loss; `None` disables
    /// level 4 (exhausted rebuilds are fatal, the pre-existing
    /// behavior).
    pub degrade: Option<DegradeConfig>,
    /// Gray-failure detection and mitigation (straggler flags, weighted
    /// re-decomposition, soft eviction); `None` disables the ladder.
    pub straggler: Option<StragglerConfig>,
    /// Durable checkpoint store config — the one way to choose a
    /// store; `None` keeps the in-memory single-slot snapshot store.
    pub ckpt_store: Option<StoreConfig>,
}

impl Default for ResilientConfig {
    fn default() -> Self {
        ResilientConfig {
            ckpt_every: 5,
            max_restarts: 3,
            max_rollbacks: 2,
            guard: false,
            integrity: false,
            compute_fault: None,
            degrade: None,
            straggler: None,
            ckpt_store: None,
        }
    }
}

/// One elastic shrink: what died, what the world became, and what the
/// transition cost.
#[derive(Debug, Clone)]
pub struct Degradation {
    /// World size before the shrink.
    pub from_world: usize,
    /// World size after the shrink.
    pub to_world: usize,
    /// Step of the snapshot the shrunken world resumed from (0 = no
    /// snapshot existed; the new world restarted from scratch).
    pub at_step: u64,
    /// Ranks attributed as permanently dead (old-world numbering).
    pub dead_ranks: Vec<usize>,
    /// The re-planned strategy the shrunken world runs.
    pub strategy: Strategy,
    /// Wall time spent in the re-planner (all candidate sizes probed).
    pub replan_s: f64,
}

/// Wall time spent in the rungs that stop the world, for
/// recovery-cost breakdowns in the faults bench.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RungTimes {
    /// Level 3: failure bookkeeping between teardown and redispatch.
    pub rebuild_s: f64,
    /// Level 4: re-plan + executor recompilation.
    pub degrade_s: f64,
    /// Gray-failure rung: weighted re-decomposition (strategy rebuild,
    /// regrid accounting, executor recompilation).
    pub rebalance_s: f64,
}

/// One weighted re-decomposition: a confirmed straggler kept its rank
/// but lost part of its share of every layer's extent.
#[derive(Debug, Clone)]
pub struct Rebalance {
    /// Step at which the world unwound (a fresh snapshot was written
    /// here, so the rebalance replays nothing).
    pub at_step: u64,
    /// The flagged rank.
    pub slow_rank: usize,
    /// Its busy-time EMA as a multiple of the world median when
    /// flagged.
    pub ratio: f64,
    /// The re-decomposed strategy the world resumed on; its
    /// `rank_weights` are inversely proportional to the measured EMAs
    /// ([`rebalance_for_stragglers`]).
    pub strategy: Strategy,
    /// Activation bytes whose owner changed between the uniform and
    /// weighted layouts (summed over layers).
    pub regrid_moved_bytes: u64,
    /// Total activation bytes covered by the regrid accounting.
    pub regrid_total_bytes: u64,
}

/// What a resilient run did, beyond its result.
#[derive(Debug, Clone, Default)]
pub struct ResilientReport {
    /// Per-step global mean losses, `losses.len() == steps`. Bitwise
    /// identical to an uninterrupted run's trajectory.
    pub losses: Vec<f64>,
    /// Final parameters (rank 0's replica).
    pub params: Vec<LayerParams>,
    /// Number of world rebuilds that were needed (ladder level 3).
    pub restarts: usize,
    /// In-place rollback-and-replays performed (ladder level 2).
    pub rollbacks: u64,
    /// Steps re-executed because they postdated the last snapshot
    /// (rollbacks and rebuilds both replay).
    pub replayed_steps: u64,
    /// Snapshots rank 0 wrote.
    pub snapshots: u64,
    /// Corrupted messages repaired in-band by the integrity layer
    /// (ladder level 1), summed over the final attempt's ranks.
    pub corrupt_repaired: u64,
    /// Messages retransmitted (drop resends + replay-window pulls),
    /// summed over the final attempt's ranks.
    pub retransmits: u64,
    /// The first error of every attempt that did not finish: each
    /// restart's cause, and each straggler mitigation's unwind.
    pub failures: Vec<CommError>,
    /// World size the run finished on (smaller than it started when
    /// level 4 fired).
    pub final_world: usize,
    /// Elastic shrinks performed (ladder level 4), in order.
    pub degradations: Vec<Degradation>,
    /// Straggler flags confirmed by all-rank agreement (one count per
    /// world-wide event, not per rank).
    pub straggler_flags: u64,
    /// Weighted re-decompositions performed, in order.
    pub rebalances: Vec<Rebalance>,
    /// Ranks softly evicted through the degradation rung because they
    /// were irredeemably slow (subset of `degradations`).
    pub evictions: usize,
    /// The detector's final per-rank busy-time EMA (old-world rank
    /// numbering of the last observation; empty when detection is off).
    pub rank_time_ema: Vec<f64>,
    /// Per-rung recovery wall-time breakdown.
    pub rung_times: RungTimes,
    /// The durable store's counters (bytes, durations, reconstructions,
    /// version fallbacks); `None` on the in-memory slot, which has no
    /// shards, versions or verification to count.
    pub snapshot: Option<StoreCounters>,
    /// Durable store calls that failed with a genuine I/O error
    /// (counted, never fatal: losing a snapshot must not kill the run
    /// it protects).
    pub store_errors: u64,
}

/// The run's one record: what the report will say, the driver's two
/// cursors, and the mitigation a straggler unwind hands the driver.
/// Rank 0 writes it during an attempt and the driver between attempts;
/// nothing else does.
#[derive(Default)]
struct Ledger {
    report: ResilientReport,
    /// Step of the snapshot currently in the keeper (0 = none yet).
    snap_step: u64,
    /// Furthest step rank 0 completed in the current attempt.
    furthest: u64,
    /// Written by rank 0 just before every rank unwinds to mitigate.
    pending: Option<Mitigation>,
}

/// A confirmed straggler and the rung the world agreed on for it.
struct Mitigation {
    action: StragglerAction,
    rank: usize,
    /// Its busy-time EMA as a multiple of the world median.
    ratio: f64,
    /// Every rank's busy-time EMA at the flag.
    ema: Vec<f64>,
    /// The flagged step, snapshotted before the unwind.
    at_step: u64,
}

/// How an attempt ended — all the driver picks its rung by.
enum Outcome {
    /// Every rank finished; results in rank order.
    Done(Vec<RankResult>),
    /// The world unwound at an agreed step to apply a mitigation.
    Mitigate(Mitigation),
    /// Some rank failed; the failed ranks' errors, in rank order.
    Failed(Vec<CommError>),
}

impl Ledger {
    /// Classify an attempt's per-rank results. The attempt's first
    /// error joins the failure history whichever rung it leads to.
    fn outcome(&mut self, ranks: Vec<Result<RankResult, CommError>>) -> Outcome {
        let errors: Vec<CommError> =
            ranks.iter().filter_map(|r| r.as_ref().err().cloned()).collect();
        self.report.failures.extend(errors.first().cloned());
        match self.pending.take() {
            Some(mitigation) => Outcome::Mitigate(mitigation),
            None if errors.is_empty() => Outcome::Done(ranks.into_iter().flatten().collect()),
            None => Outcome::Failed(errors),
        }
    }
}

/// Where a resilient run's snapshots live: the in-memory single slot
/// (the stand-in for a parallel file system; it holds the *serialized*
/// snapshot, so every reload runs the loader's checks, the
/// poisoned-loss refusal included), or the durable, replicated,
/// versioned [`CkptStore`].
enum SnapBackend {
    Memory(Mutex<Option<Vec<u8>>>),
    Durable(Box<Mutex<CkptStore>>),
}

/// The snapshot keeper every rung of the ladder stores and restores
/// through. The backends differ only in the two primitives
/// [`SnapKeeper::put`] and [`SnapKeeper::get`]; everything a rung calls
/// is shared code on top of them, so one contract holds on both: a
/// restore **never panics**, hands back the newest snapshot the loader
/// accepts (damage verified, repaired from redundancy or fallen back
/// past on the durable store), and is `None` when nothing usable exists
/// (restart from the initial state).
struct SnapKeeper {
    backend: SnapBackend,
    store_errors: AtomicU64,
}

impl SnapKeeper {
    /// The durable store when [`ResilientConfig::ckpt_store`] names
    /// one, the in-memory slot otherwise. An unusable store directory
    /// is a config error and fails fast, before any work exists to
    /// lose.
    fn for_config(cfg: &ResilientConfig) -> SnapKeeper {
        let backend = match cfg.ckpt_store.clone() {
            Some(sc) => SnapBackend::Durable(Box::new(Mutex::new(
                CkptStore::create(sc)
                    .unwrap_or_else(|e| panic!("durable checkpoint store unusable: {e}")),
            ))),
            None => SnapBackend::Memory(Mutex::new(None)),
        };
        SnapKeeper { backend, store_errors: AtomicU64::new(0) }
    }

    /// Persist a snapshot written by a world of `ranks` ranks (the
    /// durable store cuts it into one shard per rank). A durable-store
    /// I/O failure is counted, not fatal: losing one snapshot must not
    /// kill the run it protects.
    fn put(&self, state: &TrainState, ranks: usize) {
        match &self.backend {
            SnapBackend::Memory(slot) => {
                let mut bytes = Vec::new();
                save_train_state(&mut bytes, state).expect("writing to a Vec cannot fail");
                *slot.lock().expect("snapshot store") = Some(bytes);
            }
            SnapBackend::Durable(store) => {
                if store.lock().expect("ckpt store").store(state, ranks).is_err() {
                    self.store_errors.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
    }

    /// The newest snapshot the loader accepts, as stored: the one every
    /// rung restores.
    fn get(&self) -> Option<TrainState> {
        match &self.backend {
            SnapBackend::Memory(slot) => {
                let slot = slot.lock().expect("snapshot store");
                load_train_state(&mut slot.as_deref()?).ok()
            }
            SnapBackend::Durable(store) => {
                store.lock().expect("ckpt store").load_latest().ok().map(|l| l.state)
            }
        }
    }

    /// The durable store's counters; `None` on the in-memory slot.
    fn counters(&self) -> Option<StoreCounters> {
        match &self.backend {
            SnapBackend::Memory(_) => None,
            SnapBackend::Durable(store) => Some(store.lock().expect("ckpt store").counters()),
        }
    }
}

/// Everything one attempt's rank bodies share, bundled so the per-rank
/// training loop can be generic over the communicator stack (plain
/// faulty, or integrity-over-faulty).
struct Attempt<'a> {
    exec: &'a DistExecutor,
    init_params: &'a [LayerParams],
    hyper: SgdHyper,
    x: &'a Tensor,
    labels: &'a Labels,
    steps: u64,
    cfg: &'a ResilientConfig,
    attempt: usize,
    resume: &'a Option<TrainState>,
    keeper: &'a SnapKeeper,
    /// The run's record; rank 0 is its only writer during an attempt.
    ledger: &'a Mutex<Ledger>,
    /// Per-rank injected slowdown factors of this attempt's fault plan.
    slow: &'a [f64],
    /// Weighted re-decompositions already tried (applied or found not
    /// viable), for the rebalance-vs-evict escalation decision.
    rebalances_done: usize,
}

impl Attempt<'_> {
    fn ledger(&self) -> MutexGuard<'_, Ledger> {
        self.ledger.lock().expect("ledger")
    }
}

/// Serialize the current training state into the snapshot store
/// (rank 0 only — callers gate on rank).
fn store_snapshot(
    a: &Attempt<'_>,
    step: u64,
    params: &[LayerParams],
    opt: &Sgd,
    losses: &[f64],
    guard: Option<&StepGuard>,
) {
    let state = TrainState {
        step,
        params: params.to_vec(),
        velocity: opt.velocity().to_vec(),
        losses: losses.to_vec(),
        guard: guard.map(|g| g.state()).unwrap_or_default(),
    };
    a.keeper.put(&state, a.exec.strategy.world_size());
    let mut ledger = a.ledger();
    ledger.snap_step = step;
    ledger.report.snapshots += 1;
}

type RankResult = (Vec<f64>, Vec<LayerParams>, TrafficStats);

/// What a rank trains from after a restore — parameters, optimizer,
/// loss history, guard and step of `snap`, or the initial state when no
/// usable snapshot exists. Attempt entry and in-place rollback both
/// install exactly this.
fn resume_point(
    a: &Attempt<'_>,
    snap: Option<TrainState>,
) -> (Vec<LayerParams>, Sgd, Vec<f64>, Option<StepGuard>, u64) {
    let (params, opt, losses, guard_state, step) = match snap {
        Some(s) => (s.params, a.hyper.restored(s.velocity), s.losses, s.guard, s.step),
        None => (
            a.init_params.to_vec(),
            a.hyper.fresh(a.init_params),
            Vec::new(),
            GuardState::default(),
            0,
        ),
    };
    let guard = a.cfg.guard.then(|| StepGuard::with_state(guard_state));
    (params, opt, losses, guard, step)
}

/// One rank's training loop for one attempt: screened steps, in-place
/// rollback on guard trips, escalation past the rollback budget.
fn run_rank(a: &Attempt<'_>, comm: &WorldComm) -> RankResult {
    let (mut params, mut opt, mut losses, mut guard, mut step) = resume_point(a, a.resume.clone());
    // Gray-failure machinery: the injected slowdown of this rank (a
    // property of the node, persisting across rebuilds) and the
    // world-replicated detector.
    let slow_factor = a.slow.get(comm.rank()).copied().unwrap_or(1.0);
    let mut straggler = a.cfg.straggler.clone().map(|c| StragglerGuard::new(c, comm.size()));
    let mut last_busy = comm.busy_nanos();
    // The compute fault fires once per world lifetime: a transient
    // error, not a deterministic re-poisoning of every replay.
    let mut injected = false;
    let mut rollbacks_here: u64 = 0;
    while step < a.steps {
        if let Some(cf) = a.cfg.compute_fault {
            if a.attempt == 0 && !injected && step == cf.step {
                injected = true;
                if comm.rank() == cf.rank {
                    for p in params.iter_mut() {
                        let replica = p.clone();
                        p.add_scaled(&replica, cf.scale - 1.0);
                    }
                }
            }
        }
        let (loss, committed) = match guard.as_ref() {
            None => (a.exec.train_step(comm, &mut params, &mut opt, a.x, a.labels), true),
            Some(g) => a.exec.screened_train_step(
                comm,
                &mut params,
                &mut opt,
                a.x,
                a.labels,
                |loss, grads| !g.agree_any(comm, g.screen_local(loss, grads).is_some()),
            ),
        };
        if committed {
            if let Some(g) = guard.as_mut() {
                g.record(loss);
            }
            losses.push(loss);
            step += 1;
            if comm.rank() == 0 {
                let mut ledger = a.ledger();
                ledger.furthest = ledger.furthest.max(step);
                drop(ledger);
                if step.is_multiple_of(a.cfg.ckpt_every) && step < a.steps {
                    store_snapshot(a, step, &params, &opt, &losses, guard.as_ref());
                }
            }
            // Gray-failure rung: stretch this rank's measured compute
            // by the injected factor (a gray node does the same work,
            // just slower), then feed the detector.
            if slow_factor > 1.0 {
                let raw = comm.busy_nanos().saturating_sub(last_busy);
                std::thread::sleep(Duration::from_nanos(
                    ((raw as f64) * (slow_factor - 1.0)).round() as u64,
                ));
            }
            if let Some(sg) = straggler.as_mut() {
                let now = comm.busy_nanos();
                let delta = now.saturating_sub(last_busy);
                last_busy = now;
                if let Some(flag) = sg.observe(comm, delta) {
                    let scfg = a.cfg.straggler.as_ref().expect("a guard implies a config");
                    let action = scfg.action_for(flag.ratio, a.rebalances_done);
                    if comm.rank() == 0 {
                        // Snapshot the flagged step first: the
                        // coordinated unwind costs a world rebuild but
                        // replays nothing.
                        store_snapshot(a, step, &params, &opt, &losses, guard.as_ref());
                        let mut ledger = a.ledger();
                        ledger.report.straggler_flags += 1;
                        ledger.report.rank_time_ema = flag.ema.clone();
                        ledger.pending = Some(Mitigation {
                            action,
                            rank: flag.rank,
                            ratio: flag.ratio,
                            ema: flag.ema,
                            at_step: step,
                        });
                    }
                    let marker = match action {
                        StragglerAction::Rebalance => "straggler-rebalance",
                        StragglerAction::Evict => "straggler-eviction",
                    };
                    panic_any(CommError::RankFailed {
                        rank: flag.rank,
                        observer: comm.rank(),
                        detail: format!(
                            "{marker}: rank {} is {:.1}x slower than the world median \
                             at step {step}",
                            flag.rank, flag.ratio
                        ),
                    });
                } else if comm.rank() == 0 {
                    a.ledger().report.rank_time_ema = sg.ema().to_vec();
                }
            } else if slow_factor > 1.0 {
                last_busy = comm.busy_nanos();
            }
            continue;
        }
        // Level 2: every rank agreed the step is anomalous. Roll back
        // in place — unless the budget says the anomaly persists, in
        // which case escalate to a world rebuild (level 3).
        rollbacks_here += 1;
        if rollbacks_here > a.cfg.max_rollbacks {
            panic_any(CommError::RankFailed {
                rank: comm.rank(),
                observer: comm.rank(),
                detail: format!(
                    "numerical anomaly at step {step} persisted past {} in-place rollback(s); \
                     escalating to a world rebuild",
                    a.cfg.max_rollbacks
                ),
            });
        }
        let snap: Option<TrainState> = a.keeper.get();
        if comm.rank() == 0 {
            let mut ledger = a.ledger();
            ledger.report.rollbacks += 1;
            ledger.report.replayed_steps += step - snap.as_ref().map_or(0, |s| s.step);
        }
        (params, opt, losses, guard, step) = resume_point(a, snap);
    }
    (losses, params, comm.stats())
}

/// Train for `steps` steps under fault injection with the four-level
/// recovery ladder (see the module docs).
///
/// `plan` applies in full to the **first** attempt only: an injected
/// transient fault models a flaky node, and the replacement world
/// replays cleanly (a plan that re-killed the same op every attempt
/// would make recovery impossible by construction). *Permanent* kills
/// ([`FaultPlan::kill_rank_permanently`]) are different — they model a
/// dead node, so their [`FaultPlan::persistent`] projection re-applies
/// on every rebuild, and only the degradation rung (if configured) can
/// get past them. Passing a transparent plan (e.g.
/// `FaultPlan::default()`) makes this an ordinary training loop with
/// periodic snapshots.
///
/// # Panics
/// Panics if the run still fails after `max_restarts` rebuilds (per
/// world size) and degradation is disabled, exhausted, or finds no
/// viable smaller world — or if the surviving ranks disagree on the
/// loss trajectory (which would falsify the substrate's determinism
/// guarantee).
#[allow(clippy::too_many_arguments)] // already grouped: hyper + cfg hold the knobs
pub fn resilient_train(
    exec: &DistExecutor,
    init_params: &[LayerParams],
    hyper: SgdHyper,
    x: &Tensor,
    labels: &Labels,
    steps: u64,
    cfg: &ResilientConfig,
    plan: FaultPlan,
) -> ResilientReport {
    assert!(cfg.ckpt_every > 0, "checkpoint interval must be positive");
    let mut world = exec.strategy.world_size();
    let keeper = SnapKeeper::for_config(cfg);
    let mut ledger = Mutex::new(Ledger::default());
    // The executor after a shrink or a rebalance (the caller's borrowed
    // one serves until then).
    let mut owned_exec: Option<DistExecutor> = None;
    // The fault plan governing the *next* dispatch: the caller's plan
    // for attempt 0, its persistent projection (permanent kills only)
    // for rebuilds, survivor-restricted after a shrink.
    let mut active_plan = plan;
    let mut attempt: usize = 0;
    // Rebuild budget *at the current world size* — an elastic shrink
    // resets it.
    let mut rebuilds_here: usize = 0;
    // Rebalance rung entries, including those whose weighted layout was
    // not viable.
    let mut rebalance_tries: usize = 0;

    loop {
        let cur_exec: &DistExecutor = owned_exec.as_ref().unwrap_or(exec);
        let attempt_plan =
            if attempt == 0 { active_plan.clone() } else { active_plan.persistent() };
        // Injected per-rank slowdowns, for the compute-proportional
        // stretch in `run_rank` (gray failures persist across rebuilds
        // by construction — see `FaultPlan::persistent`).
        let slow: Vec<f64> = attempt_plan.slowdown_vector(world);
        // Resume point: every rank restores the same snapshot (or the
        // initial state when no usable snapshot exists).
        let resume: Option<TrainState> = keeper.get();
        ledger.get_mut().expect("ledger").furthest = resume.as_ref().map_or(0, |s| s.step);
        let a = Attempt {
            exec: cur_exec,
            init_params,
            hyper,
            x,
            labels,
            steps,
            cfg,
            attempt,
            resume: &resume,
            keeper: &keeper,
            ledger: &ledger,
            slow: &slow,
            rebalances_done: rebalance_tries,
        };
        let opts = RunOptions { integrity: cfg.integrity, ..RunOptions::with_faults(attempt_plan) };
        let ranks = run_ranks_opts(world, opts, |comm| run_rank(&a, comm));
        attempt += 1;

        let l = ledger.get_mut().expect("ledger");
        let (dead_ranks, evict) = match l.outcome(ranks) {
            Outcome::Done(mut results) => {
                let corrupt_repaired = results.iter().map(|(_, _, s)| s.corrupt_repaired()).sum();
                let retransmits = results.iter().map(|(_, _, s)| s.retransmits()).sum();
                let (losses, params, _) = results.remove(0);
                for (rank, (other, _, _)) in results.iter().enumerate() {
                    assert!(
                        losses.iter().map(|l| l.to_bits()).eq(other.iter().map(|l| l.to_bits())),
                        "rank {} disagrees with rank 0 on the loss trajectory",
                        rank + 1
                    );
                }
                assert_eq!(losses.len() as u64, steps, "one loss per step");
                return ResilientReport {
                    losses,
                    params,
                    corrupt_repaired,
                    retransmits,
                    final_world: world,
                    snapshot: keeper.counters(),
                    store_errors: keeper.store_errors.load(Ordering::SeqCst),
                    ..std::mem::take(&mut l.report)
                };
            }
            Outcome::Mitigate(Mitigation {
                action: StragglerAction::Rebalance,
                rank,
                ratio,
                ema,
                at_step,
            }) => {
                let t_rebalance = Instant::now();
                rebalance_tries += 1;
                // A weighted layout that does not compile or verify
                // (over `FG_MEM_BUDGET`, say) is not applied: the world
                // resumes as it was, tolerating the straggler, and the
                // spent try makes its next flag an eviction.
                let (spec, batch) = (&cur_exec.spec, cur_exec.batch);
                if let Some(new_exec) =
                    rebalance_for_stragglers(&cur_exec.strategy, spec, batch, &ema)
                {
                    // The activation regrid the new partition implies
                    // (the state itself moves through the snapshot).
                    let (moved, total) =
                        cur_exec.strategy.regrid_cost(&new_exec.strategy, spec, batch);
                    l.report.rebalances.push(Rebalance {
                        at_step,
                        slow_rank: rank,
                        ratio,
                        strategy: new_exec.strategy.clone(),
                        regrid_moved_bytes: moved,
                        regrid_total_bytes: total,
                    });
                    owned_exec = Some(new_exec);
                }
                l.report.rung_times.rebalance_s += t_rebalance.elapsed().as_secs_f64();
                // Same world, same grid: the snapshot written at the
                // flagged step loads unchanged, the straggler keeps its
                // injected slowdown (a gray failure is a property of
                // the node), and no rebuild budget is consumed — this
                // rung is a mitigation, not a recovery.
                continue;
            }
            // A soft eviction goes straight to the degradation rung,
            // retiring exactly the flagged rank.
            Outcome::Mitigate(Mitigation { action: StragglerAction::Evict, rank, .. }) => {
                (vec![rank], true)
            }
            Outcome::Failed(errors) => {
                let t_fail = Instant::now();
                // Everything completed in this attempt past the
                // snapshot the next attempt will resume from is lost
                // work that must be replayed.
                l.report.replayed_steps += l.furthest.saturating_sub(l.snap_step);
                l.report.restarts += 1;
                rebuilds_here += 1;
                l.report.rung_times.rebuild_s += t_fail.elapsed().as_secs_f64();
                if rebuilds_here <= cfg.max_restarts {
                    continue; // Level 3: rebuild at the same size.
                }
                (attribute_dead_ranks(&errors), false)
            }
        };
        // Level 4: the rebuild budget at this size is spent, or a rank
        // is evicted (with no degrade config, eviction uses the
        // defaults).
        let t_degrade = Instant::now();
        let dc =
            if evict { Some(cfg.degrade.clone().unwrap_or_default()) } else { cfg.degrade.clone() };
        let shrink = dc
            .filter(|_| evict || l.report.degradations.len() < MAX_SHRINKS)
            .and_then(|dc| plan_shrink(&dc, cur_exec, world, dead_ranks));
        let Some(shrink) = shrink else {
            panic!(
                "training did not survive {} restarts at world size {world}{}; failures: {:?}",
                cfg.max_restarts,
                if cfg.degrade.is_some() { " and no viable smaller world remains" } else { "" },
                l.report.failures.iter().map(|e| e.to_string()).collect::<Vec<_>>()
            );
        };
        active_plan = active_plan.persistent().restrict_to_survivors(&shrink.keep);
        l.report.degradations.push(Degradation {
            from_world: world,
            to_world: shrink.exec.strategy.world_size(),
            at_step: l.snap_step,
            dead_ranks: shrink.dead_ranks,
            strategy: shrink.exec.strategy.clone(),
            replan_s: shrink.replan_s,
        });
        world = shrink.exec.strategy.world_size();
        owned_exec = Some(shrink.exec);
        rebuilds_here = 0;
        l.report.evictions += usize::from(evict);
        l.report.rung_times.degrade_s += t_degrade.elapsed().as_secs_f64();
    }
}

/// A planned elastic shrink, ready to apply.
struct Shrink {
    dead_ranks: Vec<usize>,
    /// Old-world ranks that carry on (lowest ids first, one per rank of
    /// the new world) — the survivor mapping for
    /// [`FaultPlan::restrict_to_survivors`].
    keep: Vec<usize>,
    exec: DistExecutor,
    replan_s: f64,
}

/// Find the largest viable world size `P' < world` around `dead_ranks`
/// for the degradation rung: walk candidate sizes downward until the
/// re-planner produces a strategy that builds ([`DistExecutor::new`],
/// which verifies the schedule).
fn plan_shrink(
    dc: &DegradeConfig,
    cur_exec: &DistExecutor,
    world: usize,
    dead_ranks: Vec<usize>,
) -> Option<Shrink> {
    // With no attributable death (e.g. a persistent anomaly escalated
    // past every rebuild) one rank is shed.
    let (survivors, max_p) = shrink_survivors(world, &dead_ranks);
    let (spec, batch) = (&cur_exec.spec, cur_exec.batch);
    let mut replan_s = 0.0;
    for p_new in (1..=max_p).rev() {
        let t = Instant::now();
        let candidate = match &dc.replan {
            Some(f) => f(p_new),
            None => Strategy::spatial_fallback(spec, batch, p_new),
        };
        replan_s += t.elapsed().as_secs_f64();
        let Some(strategy) = candidate.filter(|s| s.world_size() == p_new) else { continue };
        let Ok(exec) = DistExecutor::new(spec.clone(), strategy, batch) else { continue };
        let keep = survivors.iter().copied().take(p_new).collect();
        return Some(Shrink { dead_ranks, keep, exec, replan_s });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_comm::run_ranks;
    use fg_nn::{Network, NetworkSpec};
    use fg_tensor::{ProcGrid, Shape4};

    fn tiny_net() -> NetworkSpec {
        let mut spec = NetworkSpec::new();
        let i = spec.input("x", 2, 8, 8);
        let c1 = spec.conv("c1", i, 3, 3, 1, 1);
        let r1 = spec.relu("r1", c1);
        let c2 = spec.conv("c2", r1, 2, 1, 1, 0);
        spec.loss("l", c2);
        spec
    }

    fn fixture() -> (DistExecutor, Vec<LayerParams>, Tensor, Labels) {
        let spec = tiny_net();
        let net = Network::init(spec.clone(), 7);
        let grid = ProcGrid::spatial(1, 2);
        let strategy = crate::Strategy::uniform(&spec, grid);
        let exec = DistExecutor::new(spec, strategy, 2).expect("valid strategy");
        let x = Tensor::from_fn(Shape4::new(2, 2, 8, 8), |n, c, h, w| {
            ((n + 1) * (c + 2)) as f32 * 0.05 + (h as f32 - w as f32) * 0.01
        });
        let labels = Labels::per_pixel(2, 8, 8, (0..2 * 8 * 8).map(|i| (i % 2) as u32).collect());
        (exec, net.params, x, labels)
    }

    const HYPER: SgdHyper = SgdHyper { lr: 0.05, momentum: 0.9, weight_decay: 1e-4 };

    fn uninterrupted(
        exec: &DistExecutor,
        params: &[LayerParams],
        x: &Tensor,
        labels: &Labels,
        steps: u64,
    ) -> Vec<f64> {
        let losses = run_ranks(exec.strategy.world_size(), |comm| {
            let mut p = params.to_vec();
            let mut opt = HYPER.fresh(&p);
            (0..steps)
                .map(|_| exec.train_step(comm, &mut p, &mut opt, x, labels))
                .collect::<Vec<_>>()
        });
        losses.into_iter().next().unwrap()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|l| l.to_bits()).collect()
    }

    #[test]
    fn transparent_plan_is_an_ordinary_training_loop() {
        let (exec, params, x, labels) = fixture();
        let baseline = uninterrupted(&exec, &params, &x, &labels, 6);
        let report = resilient_train(
            &exec,
            &params,
            HYPER,
            &x,
            &labels,
            6,
            &ResilientConfig { ckpt_every: 2, max_restarts: 0, ..Default::default() },
            FaultPlan::default(),
        );
        assert_eq!(report.restarts, 0);
        assert_eq!(report.rollbacks, 0);
        assert_eq!(report.replayed_steps, 0);
        assert!(report.failures.is_empty());
        // Snapshots at steps 2 and 4 (not 6: the run is about to end).
        assert_eq!(report.snapshots, 2);
        assert_eq!(bits(&report.losses), bits(&baseline));
    }

    #[test]
    fn guarded_clean_run_never_rolls_back_and_matches_bitwise() {
        let (exec, params, x, labels) = fixture();
        let baseline = uninterrupted(&exec, &params, &x, &labels, 6);
        let report = resilient_train(
            &exec,
            &params,
            HYPER,
            &x,
            &labels,
            6,
            &ResilientConfig { ckpt_every: 2, max_restarts: 0, guard: true, ..Default::default() },
            FaultPlan::default(),
        );
        assert_eq!(report.rollbacks, 0, "healthy training must never trip the guard");
        assert_eq!(report.restarts, 0);
        // The screen observes but never alters the math.
        assert_eq!(bits(&report.losses), bits(&baseline));
    }

    #[test]
    fn killed_rank_recovers_bitwise_from_snapshot() {
        let (exec, params, x, labels) = fixture();
        let baseline = uninterrupted(&exec, &params, &x, &labels, 6);
        // Probe how many comm ops six steps take, then kill rank 1
        // halfway through — deterministically past the step-2 snapshot
        // and before the end, forcing a real restore-and-replay.
        let probe = run_ranks_opts(2, RunOptions::with_faults(FaultPlan::default()), |comm| {
            let mut p = params.to_vec();
            let mut opt = HYPER.fresh(&p);
            for _ in 0..6 {
                exec.train_step(comm, &mut p, &mut opt, &x, &labels);
            }
            comm.ops()
        });
        let kill_op = probe[1].as_ref().unwrap() / 2;
        let report = resilient_train(
            &exec,
            &params,
            HYPER,
            &x,
            &labels,
            6,
            &ResilientConfig { ckpt_every: 2, max_restarts: 2, ..Default::default() },
            FaultPlan::new(3).kill_rank(1, kill_op),
        );
        assert_eq!(report.restarts, 1, "failures: {:?}", report.failures);
        assert!(!report.failures.is_empty());
        assert!(report.replayed_steps >= 1, "report: {report:?}");
        assert_eq!(bits(&report.losses), bits(&baseline));
    }

    #[test]
    fn compute_fault_rolls_back_in_place_and_recovers_bitwise() {
        let (exec, params, x, labels) = fixture();
        let baseline = uninterrupted(&exec, &params, &x, &labels, 6);
        // Rank 1's replica is poisoned at step 3: the guard flags the
        // NaN loss on every rank (the loss reduction propagates it),
        // and the world rolls back to the step-2 snapshot in place —
        // no restart, and the restore heals rank 1's divergence.
        let report = resilient_train(
            &exec,
            &params,
            HYPER,
            &x,
            &labels,
            6,
            &ResilientConfig {
                ckpt_every: 2,
                max_restarts: 0,
                max_rollbacks: 2,
                guard: true,
                compute_fault: Some(ComputeFault { rank: 1, step: 3, scale: f32::NAN }),
                ..Default::default()
            },
            FaultPlan::default(),
        );
        assert_eq!(report.restarts, 0, "rollback must not escalate: {:?}", report.failures);
        assert_eq!(report.rollbacks, 1, "report: {report:?}");
        assert_eq!(report.replayed_steps, 1, "step 3 replays from the step-2 snapshot");
        assert!(report.failures.is_empty());
        assert_eq!(bits(&report.losses), bits(&baseline));
    }

    #[test]
    fn loss_spike_from_a_finite_perturbation_also_trips_the_guard() {
        let (exec, params, x, labels) = fixture();
        let baseline = uninterrupted(&exec, &params, &x, &labels, 6);
        // A large finite scale: no NaN anywhere, the spike criterion
        // alone must catch it (step 4 is past the default warmup of 3).
        let report = resilient_train(
            &exec,
            &params,
            HYPER,
            &x,
            &labels,
            6,
            &ResilientConfig {
                ckpt_every: 2,
                max_restarts: 0,
                guard: true,
                compute_fault: Some(ComputeFault { rank: 0, step: 4, scale: 1e4 }),
                ..Default::default()
            },
            FaultPlan::default(),
        );
        assert_eq!(report.rollbacks, 1, "report: {report:?}");
        assert_eq!(bits(&report.losses), bits(&baseline));
    }

    #[test]
    fn exhausted_rollback_budget_escalates_to_a_world_rebuild() {
        let (exec, params, x, labels) = fixture();
        let baseline = uninterrupted(&exec, &params, &x, &labels, 4);
        // Budget 0: the first guard trip escalates straight to level 3.
        // The rebuilt world replays without the injection and succeeds.
        let report = resilient_train(
            &exec,
            &params,
            HYPER,
            &x,
            &labels,
            4,
            &ResilientConfig {
                ckpt_every: 2,
                max_restarts: 2,
                max_rollbacks: 0,
                guard: true,
                compute_fault: Some(ComputeFault { rank: 0, step: 1, scale: f32::NAN }),
                ..Default::default()
            },
            FaultPlan::default(),
        );
        assert_eq!(report.restarts, 1, "failures: {:?}", report.failures);
        assert_eq!(report.rollbacks, 0, "budget 0 leaves no room for in-place rollback");
        match &report.failures[0] {
            CommError::RankFailed { detail, .. } => {
                assert!(detail.contains("escalating to a world rebuild"), "detail: {detail}");
            }
            other => panic!("expected RankFailed escalation, got {other:?}"),
        }
        assert_eq!(bits(&report.losses), bits(&baseline));
    }

    #[test]
    fn integrity_layer_repairs_corruption_and_reports_telemetry() {
        let (exec, params, x, labels) = fixture();
        let baseline = uninterrupted(&exec, &params, &x, &labels, 6);
        // Corrupt one mid-run message on the 0→1 link: level 1 repairs
        // it in-band, so neither the guard nor the restart path fires.
        let report = resilient_train(
            &exec,
            &params,
            HYPER,
            &x,
            &labels,
            6,
            &ResilientConfig {
                ckpt_every: 2,
                max_restarts: 0,
                guard: true,
                integrity: true,
                ..Default::default()
            },
            FaultPlan::new(11).corrupt_nth(0, 1, 5),
        );
        assert_eq!(report.restarts, 0, "failures: {:?}", report.failures);
        assert_eq!(report.rollbacks, 0);
        assert_eq!(report.corrupt_repaired, 1, "report: {report:?}");
        assert!(report.retransmits >= 1, "report: {report:?}");
        assert_eq!(bits(&report.losses), bits(&baseline));
    }

    #[test]
    #[should_panic(expected = "did not survive")]
    fn exhausted_restarts_panic_with_the_failure_history() {
        let (exec, params, x, labels) = fixture();
        // max_restarts = 0 with a first-op kill: no recovery possible.
        resilient_train(
            &exec,
            &params,
            HYPER,
            &x,
            &labels,
            4,
            &ResilientConfig { ckpt_every: 2, max_restarts: 0, ..Default::default() },
            FaultPlan::new(1).kill_rank(0, 0),
        );
    }

    /// Comm ops rank 1 executes in a clean `steps`-step run — the probe
    /// that places kills deterministically mid-run.
    fn ops_horizon(
        exec: &DistExecutor,
        params: &[LayerParams],
        x: &Tensor,
        labels: &Labels,
    ) -> u64 {
        let opts = RunOptions::with_faults(FaultPlan::default());
        let probe = run_ranks_opts(exec.strategy.world_size(), opts, |comm| {
            let mut p = params.to_vec();
            let mut opt = HYPER.fresh(&p);
            for _ in 0..6 {
                exec.train_step(comm, &mut p, &mut opt, x, labels);
            }
            comm.ops()
        });
        *probe[1].as_ref().unwrap()
    }

    #[test]
    fn permanent_rank_loss_degrades_to_a_smaller_world_and_completes() {
        let (exec, params, x, labels) = fixture();
        let baseline = uninterrupted(&exec, &params, &x, &labels, 6);
        let kill_op = ops_horizon(&exec, &params, &x, &labels) / 2;
        // Rank 1 is permanently dead: every rebuild at world 2 re-kills
        // it, so after the rebuild budget (1) is spent the run must
        // shrink to world 1 and finish there.
        let report = resilient_train(
            &exec,
            &params,
            HYPER,
            &x,
            &labels,
            6,
            &ResilientConfig {
                ckpt_every: 2,
                max_restarts: 1,
                degrade: Some(DegradeConfig::default()),
                ..Default::default()
            },
            FaultPlan::new(5).kill_rank_permanently(1, kill_op),
        );
        assert_eq!(report.degradations.len(), 1, "failures: {:?}", report.failures);
        let d = &report.degradations[0];
        assert_eq!((d.from_world, d.to_world), (2, 1));
        assert_eq!(d.dead_ranks, vec![1]);
        assert!(d.at_step >= 2, "the shrink resumes from a real snapshot: {d:?}");
        assert_eq!(report.final_world, 1);
        assert_eq!(report.losses.len(), 6);
        assert!(report.restarts >= 2, "budget spent at world 2 first: {report:?}");
        // Pre-shrink history is the old world's bitwise trajectory.
        let at = d.at_step as usize;
        assert_eq!(bits(&report.losses[..at]), bits(&baseline[..at]));
        // The degrade rung's costs are accounted.
        assert!(report.rung_times.degrade_s > 0.0, "rung_times: {:?}", report.rung_times);
    }

    #[test]
    fn post_shrink_trajectory_matches_a_fresh_small_world_resume_bitwise() {
        let (exec, params, x, labels) = fixture();
        let kill_op = ops_horizon(&exec, &params, &x, &labels) / 2;
        let report = resilient_train(
            &exec,
            &params,
            HYPER,
            &x,
            &labels,
            6,
            &ResilientConfig {
                ckpt_every: 2,
                max_restarts: 0,
                degrade: Some(DegradeConfig::default()),
                ..Default::default()
            },
            FaultPlan::new(9).kill_rank_permanently(1, kill_op),
        );
        let d = report.degradations[0].clone();
        // Replay the old world cleanly to the shrink point to recover
        // the snapshot state, and train the remaining steps from it on a
        // fresh world built from the degradation's own strategy: the
        // suffix must match bitwise.
        let at = d.at_step;
        let small = DistExecutor::new(exec.spec.clone(), d.strategy.clone(), exec.batch).unwrap();
        let old_losses = run_ranks(2, |comm| {
            let mut p = params.to_vec();
            let mut opt = HYPER.fresh(&p);
            for _ in 0..at {
                exec.train_step(comm, &mut p, &mut opt, &x, &labels);
            }
            (p, opt.velocity().to_vec())
        });
        let (snap_params, snap_vel) = old_losses.into_iter().next().unwrap();
        let suffix = run_ranks(d.to_world, |comm| {
            let mut p = snap_params.clone();
            let mut opt = HYPER.restored(snap_vel.clone());
            (at..6)
                .map(|_| small.train_step(comm, &mut p, &mut opt, &x, &labels))
                .collect::<Vec<_>>()
        });
        assert_eq!(bits(&report.losses[at as usize..]), bits(&suffix[0]));
    }

    #[test]
    fn straggler_detection_is_inert_on_a_uniform_world() {
        let (exec, params, x, labels) = fixture();
        let baseline = uninterrupted(&exec, &params, &x, &labels, 6);
        // Detection watches but never touches the math: a healthy world
        // must train bitwise-identically with the detector on.
        let report = resilient_train(
            &exec,
            &params,
            HYPER,
            &x,
            &labels,
            6,
            &ResilientConfig {
                ckpt_every: 2,
                max_restarts: 0,
                straggler: Some(StragglerConfig::default()),
                ..Default::default()
            },
            FaultPlan::default(),
        );
        assert_eq!(report.straggler_flags, 0, "uniform world flagged: {report:?}");
        assert!(report.rebalances.is_empty());
        assert_eq!(report.evictions, 0);
        assert_eq!(report.rank_time_ema.len(), 2, "the detector reported its measurement");
        assert_eq!(bits(&report.losses), bits(&baseline));
    }

    /// Detection tuned for a 2-rank world: with `P = 2` the median
    /// averages both ranks, capping any ratio below 2, so the default
    /// threshold can never fire and a lower one is used.
    fn two_rank_straggler(evict_ratio: f64) -> StragglerConfig {
        StragglerConfig { threshold: 1.4, evict_ratio, warmup: 1, patience: 2 }
    }

    #[test]
    fn injected_slow_rank_triggers_a_weighted_rebalance_and_completes() {
        let (exec, params, x, labels) = fixture();
        let baseline = uninterrupted(&exec, &params, &x, &labels, 5);
        // Rank 1 computes 6x slow. max_restarts = 0 proves the
        // rebalance consumes no rebuild budget; steps = 5 leaves too
        // few post-rebalance observations for a second flag.
        let report = resilient_train(
            &exec,
            &params,
            HYPER,
            &x,
            &labels,
            5,
            &ResilientConfig {
                ckpt_every: 4,
                max_restarts: 0,
                straggler: Some(two_rank_straggler(10.0)),
                ..Default::default()
            },
            FaultPlan::new(21).slow_rank(1, 6.0),
        );
        assert_eq!(report.rebalances.len(), 1, "report: {report:?}");
        assert!(report.straggler_flags >= 1);
        assert_eq!(report.evictions, 0);
        assert_eq!(report.restarts, 0, "a rebalance is a mitigation, not a rebuild");
        assert_eq!(report.replayed_steps, 0, "the fresh snapshot loses no work");
        assert_eq!(report.final_world, 2);
        assert_eq!(report.losses.len(), 5);
        let r = &report.rebalances[0];
        assert_eq!(r.slow_rank, 1);
        assert!(r.ratio > 1.4, "flagged ratio: {}", r.ratio);
        let weights = r.strategy.rank_weights.as_ref().expect("a weighted layout");
        assert_eq!(weights[0], 24, "the fast rank anchors the weight scale");
        assert!(weights[1] < weights[0], "weights: {weights:?}");
        assert!(r.regrid_total_bytes > 0 && r.regrid_moved_bytes <= r.regrid_total_bytes);
        assert!(report.rung_times.rebalance_s > 0.0);
        // Detection and the injected slowdown never touch the math:
        // the pre-rebalance prefix is the uniform world's bitwise
        // trajectory.
        let at = r.at_step as usize;
        assert!(at >= 3, "warmup + patience observations precede the flag: {at}");
        assert_eq!(bits(&report.losses[..at]), bits(&baseline[..at]));
    }

    #[test]
    fn post_rebalance_trajectory_matches_a_fresh_weighted_run_bitwise() {
        let (exec, params, x, labels) = fixture();
        let report = resilient_train(
            &exec,
            &params,
            HYPER,
            &x,
            &labels,
            5,
            &ResilientConfig {
                ckpt_every: 4,
                max_restarts: 0,
                straggler: Some(two_rank_straggler(10.0)),
                ..Default::default()
            },
            FaultPlan::new(23).slow_rank(1, 6.0),
        );
        let r = report.rebalances[0].clone();
        let at = r.at_step;
        // Replay the uniform world cleanly to the rebalance point to
        // recover the snapshot state, then train the remaining steps
        // on a fresh world compiled from the rebalance's own weighted
        // strategy: the suffix must match bitwise (the stitched
        // contract — a weighted layout reduces boundary sums in a
        // different order, so the full trajectory is two deterministic
        // runs stitched at the snapshot).
        let weighted =
            DistExecutor::new(exec.spec.clone(), r.strategy.clone(), exec.batch).unwrap();
        let snap = run_ranks(2, |comm| {
            let mut p = params.to_vec();
            let mut opt = HYPER.fresh(&p);
            for _ in 0..at {
                exec.train_step(comm, &mut p, &mut opt, &x, &labels);
            }
            (p, opt.velocity().to_vec())
        });
        let (snap_params, snap_vel) = snap.into_iter().next().unwrap();
        let suffix = run_ranks(2, |comm| {
            let mut p = snap_params.clone();
            let mut opt = HYPER.restored(snap_vel.clone());
            (at..5)
                .map(|_| weighted.train_step(comm, &mut p, &mut opt, &x, &labels))
                .collect::<Vec<_>>()
        });
        assert_eq!(bits(&report.losses[at as usize..]), bits(&suffix[0]));
    }

    #[test]
    fn an_irredeemably_slow_rank_is_softly_evicted() {
        let (exec, params, x, labels) = fixture();
        // Rank 1 computes 12x slow — past the eviction ratio, so the
        // ladder skips the rebalance rung and retires the rank through
        // elastic degradation (using default degrade tuning, since no
        // degrade config is set).
        let report = resilient_train(
            &exec,
            &params,
            HYPER,
            &x,
            &labels,
            6,
            &ResilientConfig {
                ckpt_every: 2,
                max_restarts: 0,
                straggler: Some(two_rank_straggler(1.5)),
                ..Default::default()
            },
            FaultPlan::new(25).slow_rank(1, 12.0),
        );
        assert_eq!(report.evictions, 1, "report: {report:?}");
        assert!(report.rebalances.is_empty(), "eviction must skip the rebalance rung");
        assert_eq!(report.restarts, 0, "an eviction is a mitigation, not a rebuild");
        assert_eq!(report.degradations.len(), 1);
        let d = &report.degradations[0];
        assert_eq!((d.from_world, d.to_world), (2, 1));
        assert_eq!(d.dead_ranks, vec![1], "attribution must retire exactly the straggler");
        assert!(d.at_step >= 3, "the eviction resumes from the flagged step's snapshot: {d:?}");
        assert_eq!(report.final_world, 1);
        assert_eq!(report.losses.len(), 6);
    }

    /// A snapshot of the fixture's parameters at `step`, with every
    /// block non-trivial so a mix-up between them shows.
    fn snapshot(step: u64) -> TrainState {
        let (_, params, _, _) = fixture();
        TrainState {
            step,
            velocity: params.iter().rev().cloned().collect(),
            params,
            losses: (0..step).map(|s| 1.0 - s as f64 * 0.125).collect(),
            guard: GuardState { ema: 0.75, steps: step },
        }
    }

    /// The serialized form: equal bytes are bitwise-equal states.
    fn wire(state: &TrainState) -> Vec<u8> {
        let mut bytes = Vec::new();
        save_train_state(&mut bytes, state).unwrap();
        bytes
    }

    /// A keeper on the durable backend, over a fresh scratch directory.
    fn durable_keeper(tag: &str) -> (SnapKeeper, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("fg-keeper-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ResilientConfig { ckpt_store: Some(StoreConfig::at(&dir)), ..Default::default() };
        (SnapKeeper::for_config(&cfg), dir)
    }

    #[test]
    fn keeper_contract_holds_on_both_backends() {
        let (durable, dir) = durable_keeper("contract");
        let memory = SnapKeeper::for_config(&ResilientConfig::default());
        for (name, keeper) in [("memory", &memory), ("durable", &durable)] {
            // Nothing stored: nothing to restore.
            assert!(keeper.get().is_none(), "{name}");
            // The newest snapshot restores as stored, whatever the size
            // of the world that wrote it.
            for (step, ranks) in [(2, 4), (4, 3)] {
                let stored = snapshot(step);
                keeper.put(&stored, ranks);
                let restored = keeper.get().expect("a snapshot was put");
                assert_eq!(wire(&restored), wire(&stored), "{name}: step {step}");
            }
        }
        let t = durable.counters().expect("a durable keeper has counters");
        assert_eq!((t.versions_written, t.version_fallbacks), (2, 0), "{t:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn poisoned_newest_version_falls_back_on_every_restore() {
        let mut poisoned = snapshot(4);
        poisoned.losses[3] = f64::NAN;
        // Durable: version 2 verifies byte for byte but records a
        // diverged run. Every restore must pass it for version 1.
        let (keeper, dir) = durable_keeper("poisoned");
        keeper.put(&snapshot(2), 4);
        keeper.put(&poisoned, 4);
        for _ in 0..2 {
            assert_eq!(keeper.get().map(|s| s.step), Some(2));
        }
        let t = keeper.counters().expect("a durable keeper has counters");
        assert_eq!((t.versions_written, t.version_fallbacks), (2, 2), "{t:?}");
        let _ = std::fs::remove_dir_all(&dir);
        // Memory: the single slot holds only the poisoned snapshot, so
        // there is nothing usable — a restart from the initial state,
        // not a panic and not a resume into the divergence.
        let keeper = SnapKeeper::for_config(&ResilientConfig::default());
        keeper.put(&poisoned, 4);
        assert!(keeper.get().is_none());
    }

    #[test]
    #[should_panic(expected = "did not survive")]
    fn degradation_dies_when_no_smaller_world_is_viable() {
        let (exec, params, x, labels) = fixture();
        // Permanent death at world 2 with a replanner that declines every
        // size: no viable smaller world exists, so the run must die
        // rather than shrink.
        resilient_train(
            &exec,
            &params,
            HYPER,
            &x,
            &labels,
            4,
            &ResilientConfig {
                ckpt_every: 2,
                max_restarts: 0,
                degrade: Some(DegradeConfig { replan: Some(Arc::new(|_| None)) }),
                ..Default::default()
            },
            FaultPlan::new(3).kill_rank_permanently(1, 4),
        );
    }
}
