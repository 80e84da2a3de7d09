//! Gray-failure (straggler) detection with distributed agreement.
//!
//! A *gray failure* is a node that still answers — no dead link, no
//! corrupted payload, no NaN in sight — but answers slowly: a thermally
//! throttled GPU, a flaky NIC negotiating down, a neighbor VM stealing
//! cycles. In bulk-synchronous training every collective runs at the
//! pace of the slowest rank, so one gray node silently taxes the whole
//! world; at the paper's scales (hundreds to thousands of ranks) the
//! expected number of such nodes per run is not small. [`StragglerGuard`]
//! is the detection half of the mitigation ladder in
//! [`crate::resilient::resilient_train`]:
//!
//! 1. **Measurement.** Each rank measures its own *busy time* per step —
//!    [`fg_comm::WorldComm::busy_nanos`], the time spent computing
//!    between communication calls, which by construction excludes time
//!    blocked waiting for other ranks (a rank stalled on a straggler's
//!    sends would otherwise look slow itself, and the world would
//!    accuse the victim).
//! 2. **Exchange.** The per-step busy deltas are shared with a single
//!    `Sum`-allreduce of a world-sized one-hot vector: element `r` is
//!    nonzero only in rank `r`'s contribution, so every element of the
//!    reduced vector has exactly one nonzero operand and the result is
//!    **bitwise identical on every rank** regardless of reduction
//!    order. Identical inputs drive identical EMAs drive identical
//!    verdicts — the same replicated-decision discipline as
//!    [`crate::guard::StepGuard`].
//! 3. **Criterion.** Each rank's busy-time EMA is compared to the world
//!    *median* EMA (robust: up to half the world can slow down without
//!    dragging the baseline). A rank whose ratio exceeds
//!    [`StragglerConfig::threshold`] for [`StragglerConfig::patience`]
//!    consecutive observations, after [`StragglerConfig::warmup`]
//!    observations, is flagged.
//! 4. **Agreement.** Verdicts are already replicated by construction,
//!    but the flag is still confirmed with a `Max`-allreduce (the
//!    [`crate::guard::StepGuard::agree_any`] pattern) so a divergent
//!    rank cannot unilaterally unwind the world — the collective is the
//!    synchronization point at which every rank commits to the same
//!    mitigation at the same step.
//!
//! What happens to a flagged rank is the driver's decision
//! ([`StragglerConfig::action_for`]): re-decompose the spatial
//! partition with weights inversely proportional to the measured EMAs
//! ([`rebalance_for_stragglers`]), or — past
//! [`StragglerConfig::evict_ratio`], or once the `MAX_REBALANCES`
//! budget is spent — softly evict the rank through the
//! elastic-degradation rung.

use fg_comm::{Collectives, Communicator, ReduceOp, WorldComm};
use fg_nn::NetworkSpec;

use crate::executor::DistExecutor;
use crate::strategy::Strategy;

/// Tuning knobs for straggler detection and the mitigation ladder.
#[derive(Debug, Clone)]
pub struct StragglerConfig {
    /// Flag a rank whose busy-time EMA exceeds this multiple of the
    /// world median EMA.
    pub threshold: f64,
    /// Escalate straight to eviction when the flagged ratio is at or
    /// above this multiple — a node this slow would dominate the
    /// weighted partition's critical path even after rebalancing.
    pub evict_ratio: f64,
    /// Observations before verdicts activate (the first steps measure
    /// cold caches and lazy allocation, not the node).
    pub warmup: u64,
    /// Consecutive over-threshold observations required to flag — a
    /// one-step hiccup (page fault, GC pause) is not a gray failure.
    pub patience: u64,
}

/// EMA decay: `ema ← decay·ema + (1 − decay)·busy`.
const EMA_DECAY: f64 = 0.5;

/// Weighted re-decompositions tolerated before a still-slow rank is
/// evicted instead.
const MAX_REBALANCES: usize = 1;

impl Default for StragglerConfig {
    fn default() -> Self {
        StragglerConfig { threshold: 2.0, evict_ratio: 6.0, warmup: 2, patience: 2 }
    }
}

/// The mitigation rung [`StragglerConfig::action_for`] selects for a
/// confirmed straggler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StragglerAction {
    /// Re-decompose the partition with speed weights; the slow rank
    /// keeps less work and the world stops waiting on it.
    Rebalance,
    /// Retire the rank through the elastic-degradation rung: it is too
    /// slow to carry any useful share (or rebalancing was already
    /// tried).
    Evict,
}

/// A confirmed straggler verdict — identical on every rank of the world
/// at the same step.
#[derive(Debug, Clone)]
pub struct StragglerFlag {
    /// The flagged rank.
    pub rank: usize,
    /// Its busy-time EMA as a multiple of the world median.
    pub ratio: f64,
    /// The full per-rank EMA vector at the flagging observation — the
    /// measurement the weighted re-decomposition is derived from.
    pub ema: Vec<f64>,
}

impl StragglerConfig {
    /// The mitigation rung for a confirmed flag: rebalance while the
    /// budget lasts and the slowdown is moderate, evict otherwise.
    pub fn action_for(&self, ratio: f64, rebalances_done: usize) -> StragglerAction {
        if ratio >= self.evict_ratio || rebalances_done >= MAX_REBALANCES {
            StragglerAction::Evict
        } else {
            StragglerAction::Rebalance
        }
    }
}

/// Per-step straggler detector with replicated state (see module docs).
#[derive(Debug, Clone)]
pub struct StragglerGuard {
    cfg: StragglerConfig,
    /// Per-rank busy-time EMA, identical on every rank.
    ema: Vec<f64>,
    /// Consecutive over-threshold observations per rank.
    over: Vec<u64>,
    /// Observations folded in so far.
    steps: u64,
}

impl StragglerGuard {
    /// A fresh detector for a `world`-rank run.
    pub fn new(cfg: StragglerConfig, world: usize) -> StragglerGuard {
        assert!(world > 0, "empty world has no stragglers");
        assert!(cfg.threshold > 1.0, "a threshold ≤ 1 would flag the median itself");
        StragglerGuard { cfg, ema: vec![0.0; world], over: vec![0; world], steps: 0 }
    }

    /// The per-rank busy-time EMA vector (identical on every rank).
    pub fn ema(&self) -> &[f64] {
        &self.ema
    }

    /// Per-rank EMA as a multiple of the world median EMA. All 1.0
    /// before the first observation.
    fn ratios(&self) -> Vec<f64> {
        let med = median(&self.ema);
        if med <= 0.0 {
            return vec![1.0; self.ema.len()];
        }
        self.ema.iter().map(|&e| e / med).collect()
    }

    /// Fold in this rank's busy-time delta for the step just committed
    /// and return the world's agreed verdict: `Some` iff some rank has
    /// persistently exceeded the threshold. Collective — every rank
    /// must call it at the same point with its own measurement, and
    /// every rank receives the identical verdict.
    pub fn observe(&mut self, comm: &WorldComm, busy_delta_nanos: u64) -> Option<StragglerFlag> {
        let world = comm.size();
        assert_eq!(world, self.ema.len(), "guard sized for a different world");
        // One-hot exchange: element r has exactly one nonzero
        // contributor, so the Sum-allreduce is bitwise identical on
        // every rank — replicated inputs for a replicated decision.
        let mut onehot = vec![0.0f64; world];
        onehot[comm.rank()] = busy_delta_nanos as f64;
        let times = comm.allreduce(&onehot, ReduceOp::Sum);
        for (e, &t) in self.ema.iter_mut().zip(&times) {
            *e = if self.steps == 0 { t } else { EMA_DECAY * *e + (1.0 - EMA_DECAY) * t };
        }
        self.steps += 1;
        let ratios = self.ratios();
        // Mirror the slowness picture into the comm layer so a watchdog
        // trip can say "waiting on rank 3, which is 4× slow" instead of
        // reporting a bare deadlock.
        comm.note_rank_slowness(&ratios);
        if self.steps <= self.cfg.warmup {
            return None;
        }
        for (r, &ratio) in ratios.iter().enumerate() {
            if ratio > self.cfg.threshold {
                self.over[r] += 1;
            } else {
                self.over[r] = 0;
            }
        }
        // The worst offender among ranks past their patience, if any.
        let local: Option<usize> = (0..world)
            .filter(|&r| self.over[r] >= self.cfg.patience)
            .max_by(|&a, &b| ratios[a].total_cmp(&ratios[b]));
        // Agreement confirm (StepGuard pattern): Max over `rank + 1`
        // (0 = no flag) commits every rank to the same verdict at the
        // same collective. The verdicts are already identical by
        // construction; the collective is the synchronization barrier
        // that makes acting on them safe.
        let word = local.map_or(0u32, |r| r as u32 + 1);
        let agreed = comm.allreduce(&[word], ReduceOp::Max)[0];
        if agreed == 0 {
            return None;
        }
        let rank = (agreed - 1) as usize;
        debug_assert_eq!(local, Some(rank), "one-hot exchange must replicate verdicts");
        Some(StragglerFlag { rank, ratio: ratios[rank], ema: self.ema.clone() })
    }
}

/// Per-rank partition weights from measured busy-time EMAs: a rank's
/// share of work should be proportional to its speed, i.e. inversely
/// proportional to its per-step busy time. Quantized so the fastest
/// rank gets weight `24` (≈4 % resolution — fine enough to express any
/// plausible slowdown, coarse enough that measurement jitter does not
/// churn the partition) and no rank drops below 1.
pub(crate) fn weights_from_ema(ema: &[f64]) -> Vec<u64> {
    const SCALE: f64 = 24.0;
    // Guard against degenerate measurements (an idle rank's busy time
    // can round to zero nanoseconds).
    let min = ema.iter().copied().fold(f64::INFINITY, f64::min).max(1.0);
    ema.iter()
        .map(|&e| (((SCALE * min / e.max(1.0)).round() as u64).max(1)).min(SCALE as u64))
        .collect()
}

/// The gray-failure rebalance rung's re-decomposition: per-rank speed
/// weights from measured busy-time EMAs (`weights_from_ema`), `base`
/// re-blocked with them and built as a shrink replan is
/// ([`DistExecutor::new`], which verifies the schedule and applies any
/// `FG_MEM_BUDGET`). `None` means the weighted layout is not viable: the
/// rung then tolerates the straggler on the current layout, and its next
/// flag escalates to eviction.
pub fn rebalance_for_stragglers(
    base: &Strategy,
    spec: &NetworkSpec,
    batch: usize,
    measured_ema: &[f64],
) -> Option<DistExecutor> {
    if measured_ema.len() != base.world_size() {
        return None;
    }
    let strategy = base.clone().with_rank_weights(weights_from_ema(measured_ema));
    DistExecutor::new(spec.clone(), strategy, batch).ok()
}

/// Median of `v` (mean of the middle pair for even lengths).
fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_comm::run_ranks;

    fn cfg() -> StragglerConfig {
        StragglerConfig { warmup: 2, patience: 2, ..StragglerConfig::default() }
    }

    #[test]
    fn uniform_world_never_flags_and_ratios_are_unity() {
        let verdicts = run_ranks(4, |comm| {
            let mut g = StragglerGuard::new(cfg(), 4);
            let mut flags = 0;
            for _ in 0..10 {
                if g.observe(comm, 1_000_000).is_some() {
                    flags += 1;
                }
            }
            (flags, g.ratios())
        });
        for (flags, ratios) in verdicts {
            assert_eq!(flags, 0, "uniform busy times flagged a straggler");
            assert!(ratios.iter().all(|&r| (r - 1.0).abs() < 1e-12), "ratios: {ratios:?}");
        }
    }

    #[test]
    fn persistent_straggler_flags_after_warmup_plus_patience_on_every_rank() {
        let verdicts = run_ranks(4, |comm| {
            let mut g = StragglerGuard::new(cfg(), 4);
            // Rank 2 runs 3x slow from the start.
            let mine = if comm.rank() == 2 { 3_000_000 } else { 1_000_000 };
            let mut flagged_at = None;
            for step in 1..=10u64 {
                if let Some(f) = g.observe(comm, mine) {
                    flagged_at = Some((step, f));
                    break;
                }
            }
            flagged_at
        });
        for v in verdicts {
            // warmup 2 observations, then patience 2: flag on observation 4.
            let (step, flag) = v.expect("a persistent 3x straggler must be flagged");
            assert_eq!(step, 4);
            assert_eq!(flag.rank, 2);
            assert!((flag.ratio - 3.0).abs() < 1e-9, "ratio: {}", flag.ratio);
            assert_eq!(flag.ema.len(), 4);
        }
    }

    #[test]
    fn transient_hiccups_reset_patience_and_never_flag() {
        let verdicts = run_ranks(4, |comm| {
            let mut g = StragglerGuard::new(StragglerConfig { warmup: 1, patience: 2, ..cfg() }, 4);
            let (mut flags, mut crossings) = (0, 0);
            for step in 0..12u64 {
                // Rank 1 spikes 3.5x on odd steps only: its EMA crosses
                // the 2x threshold on every spike and falls back under it
                // on the next step, so over-threshold observations never
                // run `patience` deep.
                let mine = if comm.rank() == 1 && step % 2 == 1 { 3_500_000 } else { 1_000_000 };
                if g.observe(comm, mine).is_some() {
                    flags += 1;
                }
                if g.ratios()[1] > g.cfg.threshold {
                    crossings += 1;
                }
            }
            (flags, crossings)
        });
        for (flags, crossings) in verdicts {
            assert_eq!(flags, 0, "a transient hiccup is not a gray failure");
            assert_eq!(crossings, 6, "every spike must cross the threshold");
        }
    }

    #[test]
    fn seeded_noise_below_threshold_never_triggers() {
        // The false-positive bound: busy times jittered up to 1.4x by a
        // deterministic per-(rank, step) hash stay below the 2x
        // threshold, so no mitigation may ever fire. Pinned inputs make
        // this a regression test, not a flake.
        let verdicts = run_ranks(4, |comm| {
            let mut g = StragglerGuard::new(cfg(), 4);
            let mut flags = 0;
            for step in 0..50u64 {
                let h = (comm.rank() as u64 + 1)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(step.wrapping_mul(0x2545_f491_4f6c_dd1d));
                let noise = h % 400_000; // ≤ 0.4x on a 1ms base
                if g.observe(comm, 1_000_000 + noise).is_some() {
                    flags += 1;
                }
            }
            flags
        });
        assert!(verdicts.iter().all(|&f| f == 0), "noise within bounds must never trigger");
    }

    #[test]
    fn weights_invert_the_measured_slowdown() {
        // A 3x straggler on rank 0 gets a third of the fast ranks' share.
        assert_eq!(weights_from_ema(&[3e6, 1e6, 1e6, 1e6]), vec![8, 24, 24, 24]);
        // Equal speeds normalize to equal weights (which
        // `Strategy::with_rank_weights` then drops entirely).
        assert_eq!(weights_from_ema(&[2e6; 4]), vec![24; 4]);
        // No rank's weight collapses to zero, however slow.
        assert_eq!(weights_from_ema(&[1e9, 1e6]), vec![1, 24]);
    }

    #[test]
    fn straggler_rebalance_produces_a_verified_weighted_strategy() {
        let mut net = NetworkSpec::new();
        let i = net.input("x", 3, 16, 16);
        let c = net.conv("c1", i, 8, 3, 1, 1);
        let r = net.relu("r", c);
        let g = net.global_avg_pool("gap", r);
        let f = net.fc("fc", g, 4);
        net.loss("loss", f);
        let base = Strategy::uniform(&net, fg_tensor::ProcGrid::spatial(4, 1));
        // A 3x straggler on rank 0: the weighted layout must compile,
        // verify (construction does), and carry the inverted weights.
        let exec = rebalance_for_stragglers(&base, &net, 4, &[3e6, 1e6, 1e6, 1e6])
            .expect("weighted layout viable");
        assert_eq!(exec.strategy.rank_weights, Some(vec![8, 24, 24, 24]));
        // Uniform measurements normalize back to the uniform strategy.
        let uniform = rebalance_for_stragglers(&base, &net, 4, &[1e6; 4]).unwrap();
        assert_eq!(uniform.strategy, base);
        // A measurement vector for the wrong world is rejected.
        assert!(rebalance_for_stragglers(&base, &net, 4, &[1e6; 3]).is_none());
    }

    #[test]
    fn action_escalates_past_the_budget_and_the_evict_ratio() {
        let c = StragglerConfig::default();
        assert_eq!(c.action_for(3.0, 0), StragglerAction::Rebalance);
        assert_eq!(c.action_for(3.0, MAX_REBALANCES), StragglerAction::Evict);
        assert_eq!(c.action_for(c.evict_ratio, 0), StragglerAction::Evict);
    }

    #[test]
    fn median_handles_even_and_odd_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
