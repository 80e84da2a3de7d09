//! Seeded, deterministic fault injection for the communicator.
//!
//! A [`FaultPlan`] is a pure description of what goes wrong and when:
//! per-link message drops and payload corruptions (by send ordinal),
//! per-rank delay spikes, and rank kills at a given communication
//! operation. A world launched with [`crate::RunOptions::faults`] set
//! applies the plan as a fixed stage of [`crate::WorldComm`]'s
//! `send`/`recv` — below the integrity envelope, above the channel.
//! Everything is keyed off message/operation ordinals and the plan's
//! seed — never wall-clock time or OS scheduling — so a given
//! `(plan, program)` pair produces the *same* faults on every run. Chaos
//! tests can therefore pin seeds and assert exact outcomes, and a
//! failure found by a randomized sweep is replayable from its seed
//! alone.
//!
//! Injected kills unwind with a [`CommError::RankFailed`] panic payload;
//! [`crate::runtime::run_ranks_opts`] catches that at the rank boundary
//! and returns it as the rank's `Result`, while peers observe the death
//! either as a channel disconnect (→ `RankFailed` naming the victim) or
//! via the deadlock watchdog (→ [`CommError::Timeout`] with a wait
//! graph).

use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::time::Duration;

use crate::error::CommError;
use crate::p2p::{CommScalar, Tag, WireHeader};
use crate::runtime::WorldComm;

/// splitmix64: a well-distributed 64-bit mixer, used to derive per-event
/// corruption masks and chaos-plan choices from `(seed, link, ordinal)`.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// How many times a link-layer (sender-side) retransmission of a dropped
/// enveloped message is retried before the sender gives up with
/// [`CommError::Corrupt`]. With a drop *rate* `r` the chance of
/// exhaustion is `r^budget` — negligible for any plausible rate.
const LINK_RETRY_BUDGET: u32 = 16;

/// Salt separating rate-based drop draws from corruption draws.
const DROP_SALT: u64 = 0xD20B_5A17;
/// Salt separating rate-based corruption draws from drop draws.
const CORRUPT_SALT: u64 = 0x0C0B_B1E5;
/// Salt separating retransmission corruption draws from first-
/// transmission draws (retransmissions ride the same physical link and
/// deserve the same hazard, but must not mirror the original's fate).
const RETX_SALT: u64 = 0x2E7A_A9D1;

/// A seeded Bernoulli draw for event `n` on link `src → dst`.
fn rate_draw(seed: u64, salt: u64, src: usize, dst: usize, n: u64, rate: f64) -> bool {
    if rate <= 0.0 {
        return false;
    }
    let z = mix64(seed ^ salt ^ ((src as u64) << 40) ^ ((dst as u64) << 20) ^ n);
    // 53 high bits → a uniform in [0, 1).
    ((z >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < rate
}

/// A deterministic schedule of injected faults.
///
/// Built with the chainable `kill_rank` / `drop_nth` / `corrupt_nth` /
/// `delay_every` methods; the default plan is empty (fully transparent).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    /// `(rank, op)`: kill `rank` when its comm-op counter reaches `op`.
    kills: Vec<(usize, u64)>,
    /// `(rank, op)`: like `kills`, but *permanent* — the fault persists
    /// across world rebuilds (a dead node, not a transient crash), so a
    /// resilient driver that replays the plan's persistent faults on
    /// every attempt sees this rank die in each incarnation.
    perma_kills: Vec<(usize, u64)>,
    /// `(src, dst, n)`: drop the `n`-th (0-based) message on link
    /// `src → dst`.
    drops: Vec<(usize, usize, u64)>,
    /// `(src, dst, n)`: corrupt the `n`-th message on link `src → dst`.
    corrupts: Vec<(usize, usize, u64)>,
    /// `(rank, every, pause)`: on `rank`, sleep `pause` before every
    /// `every`-th comm op — a deterministic stand-in for a slow NIC or a
    /// congested link.
    delays: Vec<(usize, u64, Duration)>,
    /// `(rank, factor)`: a *persistent* gray failure — `rank` runs
    /// `factor`× slower than its peers (thermal throttling, a failing
    /// DIMM, a congested ToR port). Unlike `delays`, the slowdown
    /// survives world rebuilds via [`FaultPlan::persistent`]: the node
    /// is sick, not momentarily unlucky. Applied to comm-op service
    /// time by the world's fault stage and to modeled compute through
    /// [`FaultPlan::slowdown_vector`].
    slow: Vec<(usize, f64)>,
    /// `(src, dst, k)`: corrupt the `k`-th retransmission served on link
    /// `src → dst` (the replay-window pull path, which bypasses the
    /// send-side fault stage).
    corrupt_retransmits: Vec<(usize, usize, u64)>,
    /// Bernoulli drop probability applied to every message on every
    /// link, on top of the explicit `drops` list.
    drop_rate: f64,
    /// Bernoulli corruption probability applied to every message on
    /// every link (first transmissions *and* retransmissions), on top of
    /// the explicit lists.
    corrupt_rate: f64,
}

impl FaultPlan {
    /// An empty (transparent) plan with the given seed. The seed only
    /// matters once corruptions are scheduled: it picks the masks.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan { seed, ..FaultPlan::default() }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Kill `rank` when its communication-operation counter (sends +
    /// receives, as counted by [`WorldComm::ops`]) reaches `op`.
    pub fn kill_rank(mut self, rank: usize, op: u64) -> FaultPlan {
        self.kills.push((rank, op));
        self
    }

    /// Kill `rank` **permanently** at comm op `op`: unlike
    /// [`FaultPlan::kill_rank`], the fault is part of
    /// [`FaultPlan::persistent`], so a resilient driver that carries the
    /// plan's persistent faults into rebuild attempts re-kills the rank
    /// in every incarnation — the model of a dead node that no amount of
    /// same-size restarting can route around.
    pub fn kill_rank_permanently(mut self, rank: usize, op: u64) -> FaultPlan {
        self.perma_kills.push((rank, op));
        self
    }

    /// Drop the `n`-th (0-based) message sent on link `src → dst`.
    pub fn drop_nth(mut self, src: usize, dst: usize, n: u64) -> FaultPlan {
        self.drops.push((src, dst, n));
        self
    }

    /// Corrupt the payload of the `n`-th message on link `src → dst`
    /// (first element bit-flipped under a seed-derived mask).
    pub fn corrupt_nth(mut self, src: usize, dst: usize, n: u64) -> FaultPlan {
        self.corrupts.push((src, dst, n));
        self
    }

    /// On `rank`, sleep `pause` before every `every`-th comm op.
    pub fn delay_every(mut self, rank: usize, every: u64, pause: Duration) -> FaultPlan {
        assert!(every > 0, "delay period must be positive");
        self.delays.push((rank, every, pause));
        self
    }

    /// Make `rank` a **persistent straggler**: everything it does —
    /// comm-op service (the fault stage stretches each op) and compute
    /// (consumers scale modeled or measured compute by
    /// [`FaultPlan::slowdown_vector`]) — takes `factor`× as long. The fault
    /// survives [`FaultPlan::persistent`], so rebuilding the world does
    /// not cure it; only weighted re-decomposition or eviction can.
    pub fn slow_rank(mut self, rank: usize, factor: f64) -> FaultPlan {
        assert!(factor >= 1.0 && factor.is_finite(), "slowdown factor must be ≥ 1");
        self.slow.push((rank, factor));
        self
    }

    /// Corrupt the `k`-th (0-based) *retransmission* served on link
    /// `src → dst` — the payload a receiver pulls from the sender's
    /// replay window after a checksum mismatch. Lets tests exercise the
    /// "retransmission itself corrupted" retry loop and budget
    /// exhaustion.
    pub fn corrupt_retransmit_nth(mut self, src: usize, dst: usize, k: u64) -> FaultPlan {
        self.corrupt_retransmits.push((src, dst, k));
        self
    }

    /// Drop every message with probability `rate` (seeded Bernoulli per
    /// link and send ordinal), in addition to any explicit drops.
    pub fn drop_rate(mut self, rate: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&rate), "drop rate must be a probability");
        self.drop_rate = rate;
        self
    }

    /// Corrupt every message with probability `rate` (seeded Bernoulli
    /// per link and ordinal; retransmissions draw independently), in
    /// addition to any explicit corruptions.
    pub fn corrupt_rate(mut self, rate: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&rate), "corrupt rate must be a probability");
        self.corrupt_rate = rate;
        self
    }

    /// A pseudo-random chaos plan for a world of `size` ranks: one
    /// victim killed at a seed-chosen op below `horizon`, plus a
    /// seed-chosen link drop and corruption. Fully determined by
    /// `(seed, size, horizon)`.
    pub fn chaos(seed: u64, size: usize, horizon: u64) -> FaultPlan {
        assert!(size > 1, "chaos needs at least two ranks");
        assert!(horizon > 0, "horizon must be positive");
        let victim = (mix64(seed) as usize) % size;
        let kill_op = mix64(seed ^ 1) % horizon;
        let src = (mix64(seed ^ 2) as usize) % size;
        let dst = (src + 1 + (mix64(seed ^ 3) as usize) % (size - 1)) % size;
        FaultPlan::new(seed)
            .kill_rank(victim, kill_op)
            .drop_nth(src, dst, mix64(seed ^ 4) % horizon)
            .corrupt_nth(dst, src, mix64(seed ^ 5) % horizon)
    }

    /// The op at which `rank` dies, if the plan kills it (earliest wins,
    /// transient and permanent kills alike).
    fn kill_at(&self, rank: usize) -> Option<u64> {
        self.kills
            .iter()
            .chain(self.perma_kills.iter())
            .filter(|(r, _)| *r == rank)
            .map(|(_, op)| *op)
            .min()
    }

    /// Whether `rank` is scheduled for a *permanent* kill.
    fn kill_is_permanent(&self, rank: usize) -> bool {
        self.perma_kills.iter().any(|(r, _)| *r == rank)
    }

    /// The slowdown factor for `rank`: `1.0` for a healthy rank, the
    /// largest scheduled factor for a straggler (stacked gray failures
    /// do not multiply — the worst one dominates).
    fn slowdown(&self, rank: usize) -> f64 {
        self.slow.iter().filter(|&&(r, _)| r == rank).map(|&(_, f)| f).fold(1.0, f64::max)
    }

    /// Per-rank slowdown factors for a world of `world` ranks —
    /// `vec![1.0; world]` with stragglers raised to their factor. The
    /// form modeled-compute oracles (`fg_perf::SlowedCompute`, which is
    /// how a straggler reaches the DES engine) and the resilient
    /// trainer's compute stretch consume.
    pub fn slowdown_vector(&self, world: usize) -> Vec<f64> {
        (0..world).map(|r| self.slowdown(r)).collect()
    }

    /// Ranks with a scheduled slowdown (sorted, deduplicated).
    pub fn slow_ranks(&self) -> Vec<usize> {
        let mut ranks: Vec<usize> = self.slow.iter().map(|&(r, _)| r).collect();
        ranks.sort_unstable();
        ranks.dedup();
        ranks
    }

    /// The plan's *persistent* faults only: permanent kills and rank
    /// slowdowns (and the seed, which keys their identity). Transient
    /// faults — one-shot kills, drops, corruptions, delays, rate
    /// hazards — model events that already happened and must not
    /// replay, so a resilient driver runs rebuild attempts under this
    /// projection rather than the full plan. Slowdowns persist because
    /// a gray failure is a property of the node, not of the attempt.
    pub fn persistent(&self) -> FaultPlan {
        FaultPlan {
            seed: self.seed,
            perma_kills: self.perma_kills.clone(),
            slow: self.slow.clone(),
            ..FaultPlan::default()
        }
    }

    /// Project the plan onto a shrunken world: `survivors[new_rank]` is
    /// the old rank that becomes `new_rank`. Faults addressing ranks
    /// outside the survivor set are dropped (their targets no longer
    /// exist); the rest are renumbered into the new world's rank space.
    /// Rates and the seed carry over unchanged.
    pub fn restrict_to_survivors(&self, survivors: &[usize]) -> FaultPlan {
        let remap = |old: usize| survivors.iter().position(|&s| s == old);
        let remap_rank_list = |list: &[(usize, u64)]| {
            list.iter().filter_map(|&(r, op)| remap(r).map(|nr| (nr, op))).collect()
        };
        let remap_link_list = |list: &[(usize, usize, u64)]| {
            list.iter().filter_map(|&(s, d, n)| Some((remap(s)?, remap(d)?, n))).collect::<Vec<_>>()
        };
        FaultPlan {
            seed: self.seed,
            kills: remap_rank_list(&self.kills),
            perma_kills: remap_rank_list(&self.perma_kills),
            drops: remap_link_list(&self.drops),
            corrupts: remap_link_list(&self.corrupts),
            delays: self
                .delays
                .iter()
                .filter_map(|&(r, every, pause)| remap(r).map(|nr| (nr, every, pause)))
                .collect(),
            slow: self.slow.iter().filter_map(|&(r, f)| remap(r).map(|nr| (nr, f))).collect(),
            corrupt_retransmits: remap_link_list(&self.corrupt_retransmits),
            drop_rate: self.drop_rate,
            corrupt_rate: self.corrupt_rate,
        }
    }

    /// Whether the `n`-th message on `src → dst` is dropped.
    fn drops(&self, src: usize, dst: usize, n: u64) -> bool {
        self.drops.iter().any(|&(s, d, m)| s == src && d == dst && m == n)
            || rate_draw(self.seed, DROP_SALT, src, dst, n, self.drop_rate)
    }

    /// The corruption mask for the `n`-th message on `src → dst`, if
    /// that message is scheduled for corruption. Seed-derived, so the
    /// same plan corrupts the same message the same way on every run.
    fn corrupt_mask(&self, src: usize, dst: usize, n: u64) -> Option<u64> {
        if self.corrupts.iter().any(|&(s, d, m)| s == src && d == dst && m == n)
            || rate_draw(self.seed, CORRUPT_SALT, src, dst, n, self.corrupt_rate)
        {
            Some(mix64(self.seed ^ ((src as u64) << 40) ^ ((dst as u64) << 20) ^ n))
        } else {
            None
        }
    }

    /// The corruption mask for the `k`-th retransmission served on
    /// `src → dst`, if scheduled (explicitly or by `corrupt_rate`).
    pub fn retransmit_corrupt_mask(&self, src: usize, dst: usize, k: u64) -> Option<u64> {
        if self.corrupt_retransmits.iter().any(|&(s, d, m)| s == src && d == dst && m == k)
            || rate_draw(self.seed, RETX_SALT, src, dst, k, self.corrupt_rate)
        {
            Some(mix64(self.seed ^ RETX_SALT ^ ((src as u64) << 40) ^ ((dst as u64) << 20) ^ k))
        } else {
            None
        }
    }

    /// The pause (if any) `rank` takes before comm op `n`.
    fn delay(&self, rank: usize, n: u64) -> Option<Duration> {
        self.delays
            .iter()
            .filter(|&&(r, every, _)| r == rank && n % every == every - 1)
            .map(|&(_, _, pause)| pause)
            .max()
    }

    /// True when the plan injects nothing at all.
    pub fn is_transparent(&self) -> bool {
        self.kills.is_empty()
            && self.perma_kills.is_empty()
            && self.drops.is_empty()
            && self.corrupts.is_empty()
            && self.delays.is_empty()
            && self.slow.is_empty()
            && self.corrupt_retransmits.is_empty()
            && self.drop_rate == 0.0
            && self.corrupt_rate == 0.0
    }
}

/// One rank's fault-injection stage: the plan plus the ordinal clocks it
/// is keyed on. Owned by the rank's [`WorldComm`], which runs it between
/// the integrity envelope and the channel. Collectives and
/// sub-communicators bottom out in the world's `send`/`recv`, so faults
/// injected into their constituent point-to-point messages propagate
/// into their results — exactly how a corrupted allreduce behaves on a
/// real machine.
pub(crate) struct WorldFaults {
    plan: Arc<FaultPlan>,
    rank: usize,
    /// This rank's comm-op counter (sends + receives), the clock that
    /// kill and delay faults are keyed on.
    ops: Cell<u64>,
    /// Per-destination send ordinals, the clock for drop/corrupt faults.
    sent: RefCell<Vec<u64>>,
    /// This rank's slowdown factor, cached from the plan (1.0 = healthy).
    slow_factor: f64,
}

/// Baseline per-op service time a straggling rank's comm ops are
/// stretched against: a `factor`× slow rank sleeps
/// `(factor − 1) × SLOW_OP_SERVICE` around every operation. Small enough
/// that tests stay fast, large enough that a persistent straggler is
/// measurably slow over a step's worth of operations.
const SLOW_OP_SERVICE: Duration = Duration::from_micros(2);

impl WorldFaults {
    /// The stage for `rank` in a world of `size` ranks under `plan`.
    pub(crate) fn new(plan: Arc<FaultPlan>, rank: usize, size: usize) -> WorldFaults {
        let slow_factor = plan.slowdown(rank);
        WorldFaults {
            plan,
            rank,
            ops: Cell::new(0),
            sent: RefCell::new(vec![0; size]),
            slow_factor,
        }
    }

    /// Comm ops performed so far by this rank (sends + receives).
    pub(crate) fn ops(&self) -> u64 {
        self.ops.get()
    }

    /// Does the plan kill `rank` at some point of this run?
    pub(crate) fn kills(&self, rank: usize) -> bool {
        self.plan.kill_at(rank).is_some()
    }

    /// Advance the op clock; fire a scheduled kill or delay. Runs once
    /// per logical send and once per receive.
    pub(crate) fn tick(&self) {
        let rank = self.rank;
        let n = self.ops.get();
        self.ops.set(n + 1);
        if let Some(at) = self.plan.kill_at(rank) {
            if n >= at {
                // Name permanence in the diagnostic: a resilient driver
                // (and a human reading the failure history) can tell a
                // transient crash from a dead node.
                let permanence = if self.plan.kill_is_permanent(rank) {
                    " (permanent: this rank dies on every rebuild)"
                } else {
                    ""
                };
                std::panic::panic_any(CommError::RankFailed {
                    rank,
                    observer: rank,
                    detail: format!("killed by fault injection at comm op {at}{permanence}"),
                });
            }
        }
        if let Some(pause) = self.plan.delay(rank, n) {
            std::thread::sleep(pause);
        }
        if self.slow_factor > 1.0 {
            // A gray-failed rank services every operation slower, not
            // just every k-th: stretch each op by the excess factor.
            std::thread::sleep(SLOW_OP_SERVICE.mul_f64(self.slow_factor - 1.0));
        }
    }

    /// The link hazard for one logical send from this rank to `dst`:
    /// tick the op clock, then draw drop and corruption for the link's
    /// next send ordinal. Returns `false` when the message is lost (the
    /// caller must not put it on the wire); otherwise `data` is what the
    /// wire carries, possibly with its first element corrupted.
    ///
    /// An enveloped message (`header` is `Some`) makes a drop
    /// *detectable* at the sender — an unacknowledged sequence number —
    /// so the link-layer retransmit is modeled right here: resend
    /// immediately under a fresh fault ordinal, up to
    /// [`LINK_RETRY_BUDGET`] times, so the receiver never observes a
    /// sequence gap and never has to time out. Retries do not advance
    /// the kill/delay clock (they model NIC-level behavior, not
    /// application activity). An un-enveloped drop is simply lost.
    pub(crate) fn on_send<T: CommScalar>(
        &self,
        comm: &WorldComm,
        dst: usize,
        tag: Tag,
        data: &mut [T],
        header: Option<&WireHeader>,
    ) -> bool {
        let src = self.rank;
        self.tick();
        let mut retries = 0u32;
        loop {
            let n = {
                let mut sent = self.sent.borrow_mut();
                let n = sent[dst];
                sent[dst] += 1;
                n
            };
            if self.plan.drops(src, dst, n) {
                comm.note_dropped_send();
                let Some(header) = header else { return false };
                retries += 1;
                if retries > LINK_RETRY_BUDGET {
                    std::panic::panic_any(CommError::Corrupt {
                        link: (src, dst),
                        seq: header.seq,
                        detail: format!(
                            "tag {tag}: message dropped on all {LINK_RETRY_BUDGET} link-layer \
                             retransmissions",
                        ),
                    });
                }
                comm.note_retransmit();
                continue;
            }
            if let Some(mask) = self.plan.corrupt_mask(src, dst, n) {
                if let Some(first) = data.first_mut() {
                    *first = first.corrupt(mask);
                }
            }
            return true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_transparent() {
        let plan = FaultPlan::default();
        assert!(plan.is_transparent());
        assert_eq!(plan.kill_at(0), None);
        assert!(!plan.drops(0, 1, 0));
        assert_eq!(plan.corrupt_mask(0, 1, 0), None);
        assert_eq!(plan.delay(0, 0), None);
    }

    #[test]
    fn builders_register_their_faults() {
        let plan = FaultPlan::new(7)
            .kill_rank(2, 11)
            .kill_rank(2, 5)
            .drop_nth(0, 1, 3)
            .corrupt_nth(1, 0, 4)
            .delay_every(3, 10, Duration::from_micros(50));
        assert!(!plan.is_transparent());
        // Earliest kill wins.
        assert_eq!(plan.kill_at(2), Some(5));
        assert_eq!(plan.kill_at(0), None);
        assert!(plan.drops(0, 1, 3));
        assert!(!plan.drops(0, 1, 2));
        assert!(!plan.drops(1, 0, 3));
        assert!(plan.corrupt_mask(1, 0, 4).is_some());
        assert!(plan.corrupt_mask(1, 0, 5).is_none());
        // delay_every(rank, 10, ..) pauses ops 9, 19, 29, ...
        assert!(plan.delay(3, 9).is_some());
        assert!(plan.delay(3, 10).is_none());
        assert!(plan.delay(0, 9).is_none());
    }

    #[test]
    fn corruption_masks_depend_on_seed_and_link() {
        let a = FaultPlan::new(1).corrupt_nth(0, 1, 0);
        let b = FaultPlan::new(1).corrupt_nth(0, 1, 0);
        let c = FaultPlan::new(2).corrupt_nth(0, 1, 0);
        assert_eq!(a.corrupt_mask(0, 1, 0), b.corrupt_mask(0, 1, 0));
        assert_ne!(a.corrupt_mask(0, 1, 0), c.corrupt_mask(0, 1, 0));
        let d = FaultPlan::new(1).corrupt_nth(1, 0, 0);
        assert_ne!(a.corrupt_mask(0, 1, 0), d.corrupt_mask(1, 0, 0));
    }

    #[test]
    fn retransmit_corruption_is_scheduled_independently() {
        let plan = FaultPlan::new(9).corrupt_retransmit_nth(0, 1, 0);
        assert!(!plan.is_transparent());
        assert!(plan.retransmit_corrupt_mask(0, 1, 0).is_some());
        assert!(plan.retransmit_corrupt_mask(0, 1, 1).is_none());
        assert!(plan.retransmit_corrupt_mask(1, 0, 0).is_none());
        // First-transmission corruption is untouched.
        assert!(plan.corrupt_mask(0, 1, 0).is_none());
        // Retransmission masks are salted away from first-transmission
        // masks so the retry does not deterministically mirror the
        // original corruption.
        let both = FaultPlan::new(9).corrupt_nth(0, 1, 0).corrupt_retransmit_nth(0, 1, 0);
        assert_ne!(both.corrupt_mask(0, 1, 0), both.retransmit_corrupt_mask(0, 1, 0));
    }

    #[test]
    fn rate_based_faults_are_seeded_and_roughly_calibrated() {
        let plan = FaultPlan::new(1234).drop_rate(0.25).corrupt_rate(0.25);
        assert!(!plan.is_transparent());
        let drops = (0..4000).filter(|&n| plan.drops(0, 1, n)).count();
        let corrupts = (0..4000).filter(|&n| plan.corrupt_mask(0, 1, n).is_some()).count();
        let retx = (0..4000).filter(|&n| plan.retransmit_corrupt_mask(0, 1, n).is_some()).count();
        for hits in [drops, corrupts, retx] {
            assert!((800..1200).contains(&hits), "expected ~1000 of 4000, got {hits}");
        }
        // Same seed → same draws; the three salts decorrelate the streams.
        let again = FaultPlan::new(1234).drop_rate(0.25).corrupt_rate(0.25);
        assert_eq!(
            (0..100).map(|n| plan.drops(0, 1, n)).collect::<Vec<_>>(),
            (0..100).map(|n| again.drops(0, 1, n)).collect::<Vec<_>>(),
        );
        assert_ne!(
            (0..100).map(|n| plan.drops(0, 1, n)).collect::<Vec<_>>(),
            (0..100).map(|n| plan.corrupt_mask(0, 1, n).is_some()).collect::<Vec<_>>(),
        );
        // Zero rates never fire.
        let quiet = FaultPlan::new(1234);
        assert!((0..100).all(|n| !quiet.drops(0, 1, n)));
        assert!(quiet.is_transparent());
    }

    #[test]
    fn permanent_kills_register_and_survive_the_persistent_projection() {
        let plan = FaultPlan::new(5)
            .kill_rank(0, 3)
            .kill_rank_permanently(2, 7)
            .drop_nth(0, 1, 4)
            .corrupt_rate(0.1);
        assert!(!plan.is_transparent());
        assert_eq!(plan.kill_at(2), Some(7));
        assert!(plan.kill_is_permanent(2));
        assert!(!plan.kill_is_permanent(0));
        // persistent() keeps only the permanent kills (and the seed).
        let p = plan.persistent();
        assert_eq!(p.seed(), 5);
        assert_eq!(p.kill_at(0), None, "transient kill must not replay");
        assert_eq!(p.kill_at(2), Some(7));
        assert!(!p.drops(0, 1, 4));
        assert_eq!(p.corrupt_mask(0, 1, 0), None, "rates are transient hazards");
        // A plan without permanent kills projects to transparency.
        assert!(FaultPlan::new(5).kill_rank(1, 2).persistent().is_transparent());
        // Earliest kill still wins across both lists.
        let both = FaultPlan::new(0).kill_rank(1, 9).kill_rank_permanently(1, 4);
        assert_eq!(both.kill_at(1), Some(4));
    }

    #[test]
    fn slow_rank_is_persistent_and_survives_renumbering() {
        let plan = FaultPlan::new(3).slow_rank(2, 4.0).slow_rank(2, 3.0).slow_rank(0, 1.5);
        assert!(!plan.is_transparent());
        // Worst factor dominates; healthy ranks read 1.0.
        assert_eq!(plan.slowdown(2), 4.0);
        assert_eq!(plan.slowdown(0), 1.5);
        assert_eq!(plan.slowdown(1), 1.0);
        assert_eq!(plan.slowdown_vector(4), vec![1.5, 1.0, 4.0, 1.0]);
        assert_eq!(plan.slow_ranks(), vec![0, 2]);
        // A gray failure is a property of the node: it survives the
        // persistent projection (a rebuild does not cure it)...
        let p = plan.persistent();
        assert_eq!(p.slowdown(2), 4.0);
        assert!(!p.is_transparent());
        // ...and renumbers with the world when other ranks are evicted.
        let small = plan.restrict_to_survivors(&[0, 2, 3]);
        assert_eq!(small.slowdown_vector(3), vec![1.5, 4.0, 1.0]);
        // Evicting the straggler itself removes the fault.
        let cured = plan.restrict_to_survivors(&[1, 3]);
        assert_eq!(cured.slowdown_vector(2), vec![1.0, 1.0]);
        assert_eq!(cured.slow_ranks(), Vec::<usize>::new());
    }

    #[test]
    fn restrict_to_survivors_renumbers_and_drops_dead_targets() {
        // World of 4 shrinking to [0, 1, 3] (rank 2 died).
        let plan = FaultPlan::new(11)
            .kill_rank_permanently(2, 5)
            .kill_rank(3, 8)
            .drop_nth(0, 3, 2)
            .drop_nth(2, 1, 0)
            .corrupt_nth(3, 0, 1)
            .delay_every(3, 4, Duration::from_micros(10))
            .delay_every(2, 4, Duration::from_micros(10))
            .drop_rate(0.05);
        let small = plan.restrict_to_survivors(&[0, 1, 3]);
        assert_eq!(small.seed(), 11);
        // The dead rank's faults vanish entirely.
        assert!((0..3).all(|r| !small.kill_is_permanent(r)));
        assert!(!small.drops(2, 1, 0), "link faults touching the dead rank are dropped");
        // Old rank 3 is new rank 2.
        assert_eq!(small.kill_at(2), Some(8));
        assert!(small.drops(0, 2, 2));
        assert!(small.corrupt_mask(2, 0, 1).is_some());
        assert!(small.delay(2, 3).is_some());
        assert!(small.delay(1, 3).is_none());
        // Rates carry over (seeded draws stay deterministic).
        let hits: Vec<bool> = (0..50).map(|n| small.drops(0, 1, n)).collect();
        let again: Vec<bool> = (0..50).map(|n| plan.drops(0, 1, n)).collect();
        assert_eq!(hits, again, "same seed, same link ids → same draws");
    }

    #[test]
    fn chaos_plans_are_reproducible_and_in_range() {
        let p1 = FaultPlan::chaos(42, 4, 100);
        let p2 = FaultPlan::chaos(42, 4, 100);
        assert_eq!(format!("{p1:?}"), format!("{p2:?}"));
        assert!(!p1.is_transparent());
        let p3 = FaultPlan::chaos(43, 4, 100);
        assert_ne!(format!("{p1:?}"), format!("{p3:?}"));
        // The victim and ops are within bounds.
        let victim = (0..4).find(|r| p1.kill_at(*r).is_some()).expect("one victim");
        assert!(p1.kill_at(victim).unwrap() < 100);
    }
}
