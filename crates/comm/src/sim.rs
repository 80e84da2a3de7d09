//! Event-driven virtual-time engine: executed runs at paper scale.
//!
//! [`crate::runtime::run_ranks_timed`] spawns one OS thread per rank, so
//! executed virtual-time runs top out at a few dozen ranks. This module
//! replaces the thread-per-rank execution with a discrete-event
//! scheduler over [`crate::trace::RankTrace`]s: every rank becomes a
//! resumable state machine stepping through its compiled communication
//! schedule (sends, receives, collectives, and modeled-compute
//! [`crate::trace::TraceOp::Advance`] ops), and one run-to-block loop
//! on the calling thread drives all ranks: pop a ready rank, step it
//! until it parks on an unsent message or an incomplete collective, and
//! let whoever unblocks it push it back on the ready queue. Messages are
//! matched before the run, as collectives are: the k-th send and the
//! k-th recv of a `(src, dst, tag)` stream share one slot, the live
//! runtime's FIFO pairing. Worlds of 2048–32768 ranks execute in seconds.
//!
//! ## Timing semantics (identical to the threaded runtime)
//!
//! * a send never advances the sender's clock; it stamps the message's
//!   arrival as `sender_now + link(src, dst, bytes)`;
//! * a receive completes no earlier than the arrival:
//!   `clock = max(clock, arrival)`, FIFO per `(src, dst, tag)` stream;
//! * `Advance` adds modeled local work to the clock.
//!
//! Under these rules the trace network is a Kahn process network: every
//! rank's final clock is independent of scheduling order — which is why
//! the loop's FIFO order is as good as any, and a recv may read its
//! pre-matched slot instead of a queue — so the engine is
//! deterministic by construction and its clocks are *provably* the
//! thread-per-rank clocks for the same [`LinkModel`].
//! `tests/sim_equivalence.rs` pins this end-to-end on ≤ 8-rank worlds,
//! `tests/sim_golden.rs` pins the reports at 128–512 ranks.
//!
//! ## Collectives
//!
//! A traced collective executes *fused*: members deposit their entry
//! clocks; the last arriver computes every member's finish time with
//! per-round recurrences that mirror the executed algorithms in
//! [`crate::collectives`] message-for-message (see
//! `collective_finish_times`), then readies the parked members. Because
//! a `sendrecv` is a send (clock unchanged) followed by a receive, each
//! round's arrivals depend only on the previous round's clocks — the
//! fused recurrence is exactly the fixed point the threaded execution
//! reaches, at a tiny fraction of the event count (a 2048-rank ring
//! allreduce is 2·2047 rounds of arithmetic instead of ~8M scheduled
//! messages).

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::collectives::{prev_pow2, segment_at_level, AllreduceAlgorithm};
use crate::p2p::{sub_collective_salt, Communicator, ScalarType, Tag};
use crate::trace::{CollectiveKind, MemberLists, P2pStreams, RankTrace, TraceOp};
use crate::LinkModel;

/// What the discrete-event run produced: per-rank final clocks and a
/// breakdown of where virtual time went.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Per-rank final virtual clocks, seconds (rank order).
    pub clocks: Vec<f64>,
    /// Per-rank modeled compute (total `Advance`), seconds.
    pub compute: Vec<f64>,
    /// Per-rank exposed p2p wait: `max(0, arrival − now)` summed over
    /// receives, seconds.
    pub p2p_wait: Vec<f64>,
    /// Per-rank time inside collectives (`finish − entry` summed),
    /// seconds — the allreduce exposure of the schedule.
    pub allreduce: Vec<f64>,
    /// Trace ops executed (events), summed over ranks.
    pub ops_executed: u64,
    /// Modeled wire messages: every p2p send plus every per-round
    /// message of the fused collectives.
    pub messages: u64,
    /// Real elapsed time of the simulation.
    pub wall: Duration,
}

impl SimReport {
    /// The virtual makespan: the maximum final clock.
    pub fn makespan(&self) -> f64 {
        self.clocks.iter().copied().fold(0.0, f64::max)
    }

    /// Events (trace ops) executed per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.ops_executed as f64 / self.wall.as_secs_f64().max(1e-12)
    }
}

/// One rank stuck at an op when the world deadlocked.
#[derive(Debug, Clone)]
pub struct BlockedRank {
    /// The stuck rank.
    pub rank: usize,
    /// Index of the op it cannot complete.
    pub op_index: usize,
    /// What it is waiting for.
    pub detail: String,
}

/// Why a simulation failed.
#[derive(Debug, Clone)]
pub enum SimError {
    /// Every rank is blocked with ops remaining: the schedule deadlocks.
    Deadlock {
        /// The blocked ranks and what each waits on (capped at 16).
        blocked: Vec<BlockedRank>,
        /// Total ranks blocked (the cap may hide some).
        total_blocked: usize,
    },
    /// The traces disagree structurally (e.g. collective members
    /// disagree on payload size) — run the static verifier for a full
    /// diagnosis.
    Inconsistent {
        /// What disagreed.
        detail: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { blocked, total_blocked } => {
                write!(f, "simulated schedule deadlocked: {total_blocked} rank(s) blocked")?;
                for b in blocked {
                    write!(f, "\n  rank {} at op {}: {}", b.rank, b.op_index, b.detail)?;
                }
                Ok(())
            }
            SimError::Inconsistent { detail } => {
                write!(f, "traces are structurally inconsistent: {detail}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// A compiled per-rank schedule op, matched at compile time: the k-th
/// send and recv of a `(src, dst, tag)` stream share a message slot, and
/// each rank's n-th collective on a `(members, tag)` key joins instance n.
enum SimOp {
    Send { to: usize, bytes: usize, slot: usize },
    Recv { from: usize, tag: Tag, slot: usize },
    Advance { secs: f64 },
    Collective { id: usize, member_index: usize },
}

/// One pre-matched collective instance.
struct Instance {
    members: Arc<[usize]>,
    count: usize,
    ty: ScalarType,
    /// Entry clocks, member order; NaN = not arrived yet. Every member
    /// that has arrived is parked here until the last one does.
    entry: Vec<f64>,
    arrived: usize,
    /// Finish clocks, member order; empty until the last member arrives.
    finish: Vec<f64>,
}

struct Compiled {
    ops: Vec<Vec<SimOp>>,
    instances: Vec<Instance>,
    /// Message slots, one per matched send/recv pair (or unmatched op).
    slots: usize,
}

fn compile(traces: &[RankTrace]) -> Result<Compiled, SimError> {
    let mut instances: Vec<Instance> = Vec::new();
    // Collectives match on the *ordered* member list: a rank's n-th
    // collective on an (interned list, tag) key joins the key's n-th instance.
    let mut lists = MemberLists::default();
    let mut by_key: HashMap<(usize, Tag, usize), usize> = HashMap::new();
    // One rank's occurrence counter per key.
    let mut seen: HashMap<(usize, Tag), usize> = HashMap::new();
    let mut ops: Vec<Vec<SimOp>> = Vec::with_capacity(traces.len());
    for (rank, t) in traces.iter().enumerate() {
        if t.rank != rank {
            return Err(SimError::Inconsistent {
                detail: format!("trace at index {rank} belongs to rank {}", t.rank),
            });
        }
        let mut my_ops = Vec::with_capacity(t.entries.len());
        seen.clear();
        for e in &t.entries {
            let op = match &e.op {
                TraceOp::Send { to, count, ty, .. } => {
                    SimOp::Send { to: *to, bytes: count * ty.width(), slot: 0 }
                }
                TraceOp::Recv { from, tag, .. } => SimOp::Recv { from: *from, tag: *tag, slot: 0 },
                TraceOp::Advance { secs } => SimOp::Advance { secs: secs.0 },
                TraceOp::Collective {
                    kind: CollectiveKind::AllreduceSum,
                    members,
                    count,
                    ty,
                    tag,
                } => {
                    let list = lists.intern(members);
                    let occurrence = *seen.entry((list, *tag)).and_modify(|c| *c += 1).or_insert(0);
                    let id = *by_key.entry((list, *tag, occurrence)).or_insert_with(|| {
                        instances.push(Instance {
                            members: Arc::clone(members),
                            count: *count,
                            ty: *ty,
                            entry: vec![f64::NAN; members.len()],
                            arrived: 0,
                            finish: Vec::new(),
                        });
                        instances.len() - 1
                    });
                    let inst = &instances[id];
                    if inst.count != *count || inst.ty != *ty {
                        return Err(SimError::Inconsistent {
                            detail: format!(
                                "rank {rank} joins collective tag {tag:#x} with {count} {ty:?}, \
                                 another member recorded {} {:?}",
                                inst.count, inst.ty
                            ),
                        });
                    }
                    let member_index =
                        lists.get(list).position(rank).ok_or_else(|| SimError::Inconsistent {
                            detail: format!(
                                "rank {rank} records a collective (tag {tag:#x}) whose member \
                                 list {:?} does not contain it",
                                &inst.members[..inst.members.len().min(16)]
                            ),
                        })?;
                    SimOp::Collective { id, member_index }
                }
            };
            my_ops.push(op);
        }
        ops.push(my_ops);
    }
    // P2p matching: the k-th send and the k-th recv of each stream share
    // slot `slots + k`. An unmatched send gets a slot nobody reads, an
    // unmatched recv one nobody writes.
    let mut slots = 0;
    for (_, sends, recvs) in P2pStreams::new(traces).iter() {
        for (k, at) in sends.iter().enumerate().chain(recvs.iter().enumerate()) {
            if let SimOp::Send { slot, .. } | SimOp::Recv { slot, .. } =
                &mut ops[at.trace][at.entry]
            {
                *slot = slots + k;
            }
        }
        slots += sends.len().max(recvs.len());
    }
    Ok(Compiled { ops, instances, slots })
}

#[derive(Default)]
struct RankState {
    ops: Vec<SimOp>,
    pc: usize,
    clock: f64,
    compute: f64,
    p2p_wait: f64,
    allreduce: f64,
}

struct Engine<'a> {
    ranks: Vec<RankState>,
    instances: Vec<Instance>,
    /// Per message slot: the arrival clock (NaN until the send runs),
    /// and whether the receiver is parked on it.
    arrival: Vec<f64>,
    parked: Vec<bool>,
    /// Ranks that can make progress, FIFO.
    ready: VecDeque<usize>,
    link: &'a LinkModel,
    messages: u64,
    ops_executed: u64,
}

impl Engine<'_> {
    /// Step `rank` until it parks on an unsent message / incomplete
    /// collective, or runs out of ops.
    fn run_rank(&mut self, rank: usize) {
        let st = &mut self.ranks[rank];
        while st.pc < st.ops.len() {
            match st.ops[st.pc] {
                SimOp::Advance { secs } => {
                    st.clock += secs;
                    st.compute += secs;
                }
                SimOp::Send { to, bytes, slot } => {
                    self.arrival[slot] = st.clock + self.link.time(rank, to, bytes);
                    self.messages += 1;
                    if std::mem::take(&mut self.parked[slot]) {
                        self.ready.push_back(to);
                    }
                }
                SimOp::Recv { slot, .. } => {
                    let arrival = self.arrival[slot];
                    if arrival.is_nan() {
                        // Parked; the matching send reschedules us.
                        self.parked[slot] = true;
                        return;
                    }
                    if arrival > st.clock {
                        st.p2p_wait += arrival - st.clock;
                        st.clock = arrival;
                    }
                }
                SimOp::Collective { id, member_index } => {
                    let inst = &mut self.instances[id];
                    if inst.entry[member_index].is_nan() {
                        inst.entry[member_index] = st.clock;
                        inst.arrived += 1;
                        if inst.arrived < inst.members.len() {
                            // Parked; the last arriver reschedules us.
                            return;
                        }
                        // Last arriver: fuse the whole collective and
                        // ready every other member, all parked above.
                        let (finish, msgs) = collective_finish_times(
                            AllreduceAlgorithm::Auto,
                            &inst.entry,
                            &inst.members,
                            inst.count,
                            inst.ty.width(),
                            self.link,
                        );
                        inst.finish = finish;
                        self.messages += msgs;
                        self.ready.extend(inst.members.iter().filter(|&&m| m != rank));
                    }
                    // The last arriver, or a member resumed by it.
                    let f = inst.finish[member_index];
                    st.allreduce += f - inst.entry[member_index];
                    st.clock = f;
                }
            }
            st.pc += 1;
            self.ops_executed += 1;
        }
    }

    fn describe_blocked(&self, st: &RankState) -> String {
        match st.ops[st.pc] {
            SimOp::Recv { from, tag, .. } => {
                format!("recv from rank {from} tag {tag:#x}: no message on the stream")
            }
            SimOp::Collective { id, .. } => {
                let inst = &self.instances[id];
                format!(
                    "collective of {} members: only {} arrived",
                    inst.members.len(),
                    inst.arrived
                )
            }
            SimOp::Send { .. } | SimOp::Advance { .. } => {
                unreachable!("sends and advances never park a rank")
            }
        }
    }
}

/// Execute `traces` as a discrete-event run under `link`. Traces must
/// be in rank order (index i = rank i), as produced by the trace
/// recorders.
pub fn simulate_traces(traces: &[RankTrace], link: &LinkModel) -> Result<SimReport, SimError> {
    let start = Instant::now();
    let n = traces.len();
    let compiled = compile(traces)?;
    let mut engine = Engine {
        ranks: compiled
            .ops
            .into_iter()
            .map(|ops| RankState { ops, ..RankState::default() })
            .collect(),
        instances: compiled.instances,
        arrival: vec![f64::NAN; compiled.slots],
        parked: vec![false; compiled.slots],
        ready: (0..n).collect(),
        link,
        messages: 0,
        ops_executed: 0,
    };
    while let Some(rank) = engine.ready.pop_front() {
        engine.run_rank(rank);
    }
    // Nothing ready, nothing running: a rank with ops remaining is
    // parked on an event no one is left to produce. Deadlock.
    let stuck = || engine.ranks.iter().enumerate().filter(|(_, st)| st.pc < st.ops.len());
    let total_blocked = stuck().count();
    if total_blocked > 0 {
        let blocked = stuck()
            .take(16)
            .map(|(rank, st)| BlockedRank {
                rank,
                op_index: st.pc,
                detail: engine.describe_blocked(st),
            })
            .collect();
        return Err(SimError::Deadlock { blocked, total_blocked });
    }
    let per_rank = |f: fn(&RankState) -> f64| engine.ranks.iter().map(f).collect();
    Ok(SimReport {
        clocks: per_rank(|st| st.clock),
        compute: per_rank(|st| st.compute),
        p2p_wait: per_rank(|st| st.p2p_wait),
        allreduce: per_rank(|st| st.allreduce),
        ops_executed: engine.ops_executed,
        messages: engine.messages,
        wall: start.elapsed(),
    })
}

/// Per-member finish clocks of one fused allreduce, plus the modeled
/// wire-message count.
///
/// `entries[i]` is member i's clock when it enters the collective;
/// `members[i]` its world rank (link costs use world ranks, exactly as
/// a bound `SubComm` translates before sending). The recurrences step
/// the same rounds, chunk sizes, and partners as the executed
/// algorithms in [`crate::collectives`], under the timed-runtime rule
/// `new = max(own, partner_before_round + link)` — a `sendrecv` sends
/// first (clock unchanged), so round r's arrivals depend only on
/// round r−1 clocks. `Auto` resolves by payload and group size exactly
/// like `allreduce_with`.
///
/// The tests pin it against `run_ranks_timed` + `allreduce_with` for
/// every algorithm directly.
fn collective_finish_times(
    alg: AllreduceAlgorithm,
    entries: &[f64],
    members: &[usize],
    count: usize,
    width: usize,
    link: &LinkModel,
) -> (Vec<f64>, u64) {
    let p = members.len();
    assert_eq!(entries.len(), p, "one entry clock per member");
    if p <= 1 || count == 0 {
        return (entries.to_vec(), 0);
    }
    match alg.resolve(count * width, p) {
        AllreduceAlgorithm::Ring => ring_times(entries, members, count, width, link),
        AllreduceAlgorithm::RecursiveDoubling => {
            halving_times(entries, members, count, width, link, false)
        }
        AllreduceAlgorithm::Rabenseifner => {
            halving_times(entries, members, count, width, link, true)
        }
        AllreduceAlgorithm::Auto => unreachable!("Auto resolved above"),
    }
}

/// Ring allreduce: 2(P−1) lockstep rounds. In round r, member i
/// receives from its left neighbor the chunk that neighbor rotates out;
/// zero-length chunks (P > n) still cost a latency-only message, like
/// the executed algorithm's empty `sendrecv`.
fn ring_times(
    entries: &[f64],
    members: &[usize],
    n: usize,
    w: usize,
    link: &LinkModel,
) -> (Vec<f64>, u64) {
    let p = members.len();
    let mut t = entries.to_vec();
    let mut nt = vec![0.0f64; p];
    let left_of = |i: usize| if i == 0 { p - 1 } else { i - 1 };
    // Chunks come in exactly two sizes (`block_range`: ⌈n/p⌉ for the
    // first n%p blocks, ⌊n/p⌋ after), and every round's message rides
    // the same left→i link — so the 2(p−1)·p `link.time` evaluations
    // collapse to 2p, precomputed here with the identical operands the
    // naive loop would pass (bit-exactness is load-bearing: these times
    // are what the threaded runtime charges).
    let base = n / p;
    let rem = n % p;
    let time_hi: Vec<f64> =
        (0..p).map(|i| link.time(members[left_of(i)], members[i], (base + 1) * w)).collect();
    let time_lo: Vec<f64> =
        (0..p).map(|i| link.time(members[left_of(i)], members[i], base * w)).collect();
    for phase in 0..2usize {
        for step in 0..p - 1 {
            // The chunk member i's left neighbor sends this round is
            // (i − 1 − step + phase) mod p: this for member 0, then one
            // more per member, wrapping at p.
            let mut chunk = match (phase, step) {
                (0, _) => p - 1 - step,
                (_, 0) => 0,
                _ => p - step,
            };
            for (i, nti) in nt.iter_mut().enumerate() {
                let hop = if chunk < rem { time_hi[i] } else { time_lo[i] };
                *nti = t[i].max(t[left_of(i)] + hop);
                chunk += 1;
                if chunk == p {
                    chunk = 0;
                }
            }
            std::mem::swap(&mut t, &mut nt);
        }
    }
    (t, (2 * (p - 1) * p) as u64)
}

/// Recursive doubling and Rabenseifner share their non-power-of-two
/// pre/post steps (odd ranks of the first `2·rem` fold into their even
/// neighbor and sit out); `halve` selects Rabenseifner's
/// halving/doubling payload schedule over recursive doubling's
/// full-vector exchanges.
fn halving_times(
    entries: &[f64],
    members: &[usize],
    n: usize,
    w: usize,
    link: &LinkModel,
    halve: bool,
) -> (Vec<f64>, u64) {
    let p = members.len();
    let pof2 = prev_pow2(p);
    let rem = p - pof2;
    let full = n * w;
    let mut t = entries.to_vec();
    let mut msgs = 0u64;
    if halve && pof2 == 1 {
        // Degenerate: the executed Rabenseifner returns the data as-is.
        return (t, 0);
    }

    // Pre-step: odd ranks < 2·rem send the full vector to rank−1 (their
    // clock unchanged — sends don't advance it); even ranks receive.
    // `newrank[i]`: i's rank among the pof2 that take part, `None` if
    // it sits out.
    let newrank: Vec<Option<usize>> = (0..p)
        .map(|i| if i >= 2 * rem { Some(i - rem) } else { (i % 2 == 0).then_some(i / 2) })
        .collect();
    for i in (0..2 * rem).step_by(2) {
        let arrival = t[i + 1] + link.time(members[i + 1], members[i], full);
        t[i] = t[i].max(arrival);
        msgs += 1;
    }

    let to_real = |nr: usize| if nr < rem { nr * 2 } else { nr + rem };
    let mut nt = t.clone();
    if halve {
        // Reduce-scatter by recursive halving: partners share a segment,
        // exchange complementary halves; i receives its keep-half.
        let mut seg = vec![(0usize, n); p];
        let mut mask = pof2 >> 1;
        let mut merge_masks = Vec::new();
        while mask > 0 {
            for i in 0..p {
                let Some(nr) = newrank[i] else {
                    nt[i] = t[i];
                    continue;
                };
                let partner = to_real(nr ^ mask);
                let (lo, hi) = seg[i];
                let mid = lo + (hi - lo) / 2;
                let keep = if nr & mask == 0 { (lo, mid) } else { (mid, hi) };
                let bytes = (keep.1 - keep.0) * w;
                let arrival = t[partner] + link.time(members[partner], members[i], bytes);
                nt[i] = t[i].max(arrival);
                msgs += 1;
                seg[i] = keep;
            }
            std::mem::swap(&mut t, &mut nt);
            merge_masks.push(mask);
            mask >>= 1;
        }
        // Allgather by recursive doubling, reversing the halving;
        // i receives its partner's half of the level's segment.
        for mask in merge_masks.into_iter().rev() {
            for i in 0..p {
                let Some(nr) = newrank[i] else {
                    nt[i] = t[i];
                    continue;
                };
                let partner = to_real(nr ^ mask);
                let (plo, phi) = segment_at_level(n, nr, pof2, mask);
                let mid = plo + (phi - plo) / 2;
                let theirs = if nr & mask == 0 { (mid, phi) } else { (plo, mid) };
                let bytes = (theirs.1 - theirs.0) * w;
                let arrival = t[partner] + link.time(members[partner], members[i], bytes);
                nt[i] = t[i].max(arrival);
                msgs += 1;
            }
            std::mem::swap(&mut t, &mut nt);
        }
    } else {
        // Recursive doubling: log₂(pof2) full-vector pairwise rounds.
        let mut mask = 1usize;
        while mask < pof2 {
            for i in 0..p {
                let Some(nr) = newrank[i] else {
                    nt[i] = t[i];
                    continue;
                };
                let partner = to_real(nr ^ mask);
                let arrival = t[partner] + link.time(members[partner], members[i], full);
                nt[i] = t[i].max(arrival);
                msgs += 1;
            }
            std::mem::swap(&mut t, &mut nt);
            mask <<= 1;
        }
    }

    // Post-step: even ranks < 2·rem forward the result to their odd
    // neighbor, whose clock is still its entry value (it only sent).
    for i in (0..2 * rem).step_by(2) {
        let arrival = t[i] + link.time(members[i], members[i + 1], full);
        t[i + 1] = t[i + 1].max(arrival);
        msgs += 1;
    }
    (t, msgs)
}

/// Replay `traces` through the *threaded* timed runtime
/// ([`crate::runtime::run_ranks_timed`]) with zero-filled payloads and
/// return the per-rank final clocks — the reference execution the DES
/// engine must reproduce exactly. Only usable at thread-per-rank scale
/// (≤ a few dozen ranks); that is the point: it exists so tests can pin
/// [`simulate_traces`] against the live runtime on small worlds.
///
/// Collectives on a strict subset of the world re-bind a [`crate::SubComm`]
/// with the group id recovered from the recorded tag (the salt field of
/// `sub_collective_tag`), so the replay draws the very tags the recorder
/// simulated.
pub fn replay_traces_timed(traces: &[RankTrace], link: &LinkModel) -> Vec<f64> {
    use crate::runtime::{run_ranks_timed, WorldComm};

    run_ranks_timed(traces.len(), link.clone(), |comm: &WorldComm| {
        let trace = &traces[comm.rank()];
        let world = comm.size();
        for e in &trace.entries {
            match &e.op {
                TraceOp::Send { to, tag, count, ty } => send_zeroed(comm, *to, *tag, *count, *ty),
                TraceOp::Recv { from, tag, ty, .. } => recv_discard(comm, *from, *tag, *ty),
                TraceOp::Advance { secs } => comm.advance(secs.0),
                TraceOp::Collective { members, count, ty, tag, .. } => {
                    if members.len() == world {
                        allreduce_zeroed(comm, *count, *ty);
                    } else {
                        // Rebind with the recorded salt so the group
                        // draws the recorded tags (counter restarts at 0
                        // per bind, matching the recorder).
                        let salt = sub_collective_salt(*tag);
                        let sub = crate::subcomm::SubComm::new(comm, members.to_vec(), salt)
                            .expect("recorded member list binds");
                        allreduce_zeroed(&sub, *count, *ty);
                    }
                }
            }
        }
    })
    .into_iter()
    .map(|((), clock)| clock)
    .collect()
}

fn send_zeroed<C: Communicator>(comm: &C, to: usize, tag: Tag, count: usize, ty: ScalarType) {
    match ty {
        ScalarType::F32 => comm.send(to, tag, vec![0f32; count]),
        ScalarType::F64 => comm.send(to, tag, vec![0f64; count]),
        ScalarType::U8 => comm.send(to, tag, vec![0u8; count]),
        ScalarType::U32 => comm.send(to, tag, vec![0u32; count]),
        ScalarType::U64 => comm.send(to, tag, vec![0u64; count]),
        ScalarType::I32 => comm.send(to, tag, vec![0i32; count]),
        ScalarType::I64 => comm.send(to, tag, vec![0i64; count]),
        ScalarType::Usize => comm.send(to, tag, vec![0usize; count]),
        ScalarType::UsizePair => comm.send(to, tag, vec![(0usize, 0usize); count]),
    }
}

fn recv_discard<C: Communicator>(comm: &C, from: usize, tag: Tag, ty: ScalarType) {
    match ty {
        ScalarType::F32 => drop(comm.recv::<f32>(from, tag)),
        ScalarType::F64 => drop(comm.recv::<f64>(from, tag)),
        ScalarType::U8 => drop(comm.recv::<u8>(from, tag)),
        ScalarType::U32 => drop(comm.recv::<u32>(from, tag)),
        ScalarType::U64 => drop(comm.recv::<u64>(from, tag)),
        ScalarType::I32 => drop(comm.recv::<i32>(from, tag)),
        ScalarType::I64 => drop(comm.recv::<i64>(from, tag)),
        ScalarType::Usize => drop(comm.recv::<usize>(from, tag)),
        ScalarType::UsizePair => drop(comm.recv::<(usize, usize)>(from, tag)),
    }
}

fn allreduce_zeroed<C: Communicator>(comm: &C, count: usize, ty: ScalarType) {
    use crate::collectives::{Collectives, ReduceOp};
    match ty {
        ScalarType::F32 => drop(comm.allreduce(&vec![0f32; count], ReduceOp::Sum)),
        ScalarType::F64 => drop(comm.allreduce(&vec![0f64; count], ReduceOp::Sum)),
        ScalarType::U8 => drop(comm.allreduce(&vec![0u8; count], ReduceOp::Sum)),
        ScalarType::U32 => drop(comm.allreduce(&vec![0u32; count], ReduceOp::Sum)),
        ScalarType::U64 => drop(comm.allreduce(&vec![0u64; count], ReduceOp::Sum)),
        ScalarType::I32 => drop(comm.allreduce(&vec![0i32; count], ReduceOp::Sum)),
        ScalarType::I64 => drop(comm.allreduce(&vec![0i64; count], ReduceOp::Sum)),
        ScalarType::Usize => drop(comm.allreduce(&vec![0usize; count], ReduceOp::Sum)),
        ScalarType::UsizePair => {
            panic!("no plan allreduces (usize, usize) — it has no reduction")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::{Collectives, ReduceOp};
    use crate::runtime::run_ranks_timed;
    use crate::trace::{Phase, TraceRecorder};

    fn link() -> LinkModel {
        LinkModel::alpha_beta(5e-6, 1e-9)
    }

    /// A small pipeline: rank i advances i·1ms, sends to i+1, then the
    /// world allreduces.
    fn pipeline_traces(world: usize) -> Vec<RankTrace> {
        pipeline_traces_slowed(world, &vec![1.0; world])
    }

    /// The same pipeline with rank i's compute stretched `factors[i]`×.
    fn pipeline_traces_slowed(world: usize, factors: &[f64]) -> Vec<RankTrace> {
        (0..world)
            .map(|rank| {
                let mut rec = TraceRecorder::new(rank, world);
                rec.scope(0, Phase::Forward);
                rec.advance(factors[rank] * (rank as f64 * 1e-3));
                rec.begin_exchange();
                let tag = rec.next_world_tag();
                if rank + 1 < world {
                    rec.send(rank + 1, tag, 1024, ScalarType::F32);
                }
                if rank > 0 {
                    rec.recv(rank - 1, tag, 1024, ScalarType::F32);
                }
                rec.scope(1, Phase::Backward);
                rec.world_allreduce(4096, ScalarType::F32);
                rec.finish()
            })
            .collect()
    }

    #[test]
    fn pipeline_matches_threaded_exactly() {
        let traces = pipeline_traces(6);
        let want = replay_traces_timed(&traces, &link());
        let got = simulate_traces(&traces, &link()).expect("simulates");
        assert_eq!(got.clocks, want);
    }

    #[test]
    fn slowed_simulation_stretches_the_straggler_and_its_waiters() {
        let healthy = simulate_traces(&pipeline_traces(6), &link()).expect("simulates");
        // Rank 3 at 4×: its compute quadruples exactly, everyone behind
        // it in the pipeline and the closing allreduce finishes later.
        let mut f = vec![1.0; 6];
        f[3] = 4.0;
        let slow = simulate_traces(&pipeline_traces_slowed(6, &f), &link()).expect("simulates");
        assert_eq!(slow.compute[3], 4.0 * healthy.compute[3]);
        assert_eq!(slow.compute[2], healthy.compute[2]);
        assert!(slow.makespan() > healthy.makespan());
        assert!(slow.clocks[5] > healthy.clocks[5], "downstream rank must finish later");
    }

    #[test]
    fn advance_and_wait_accounting() {
        let traces = pipeline_traces(3);
        let r = simulate_traces(&traces, &link()).expect("simulates");
        assert_eq!(r.compute, vec![0.0, 1e-3, 2e-3]);
        // Rank 1 receives rank 0's send after its own 1ms advance: the
        // message arrived long before, so no exposed wait.
        assert_eq!(r.p2p_wait[1], 0.0);
        assert!(r.allreduce.iter().all(|&a| a > 0.0));
        assert!(r.ops_executed > 0 && r.messages > 0);
    }

    #[test]
    fn unmatched_recv_deadlocks_with_diagnosis() {
        let mut rec = TraceRecorder::new(0, 2);
        rec.recv(1, 7, 4, ScalarType::F32);
        let t0 = rec.finish();
        let t1 = TraceRecorder::new(1, 2).finish();
        match simulate_traces(&[t0, t1], &link()) {
            Err(SimError::Deadlock { blocked, total_blocked }) => {
                assert_eq!(total_blocked, 1);
                assert_eq!(blocked[0].rank, 0);
                assert_eq!(blocked[0].op_index, 0);
                assert!(blocked[0].detail.contains("recv from rank 1"));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }

        // A collective one member never joins: ranks 0 and 1 park on it
        // after their first op, rank 2 finishes without it.
        let traces: Vec<RankTrace> = (0..3)
            .map(|rank| {
                let mut rec = TraceRecorder::new(rank, 3);
                rec.advance(1e-3);
                if rank < 2 {
                    rec.world_allreduce(64, ScalarType::F32);
                }
                rec.finish()
            })
            .collect();
        match simulate_traces(&traces, &link()) {
            Err(SimError::Deadlock { blocked, total_blocked }) => {
                assert_eq!(total_blocked, 2);
                assert_eq!((blocked[1].rank, blocked[1].op_index), (1, 1));
                assert!(blocked[1].detail.contains("collective of 3 members: only 2 arrived"));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }

        // Every rank of a 20-rank ring receives first: all are counted,
        // the report is capped.
        let traces: Vec<RankTrace> = (0..20)
            .map(|rank| {
                let mut rec = TraceRecorder::new(rank, 20);
                rec.recv((rank + 19) % 20, 7, 4, ScalarType::F32);
                rec.send((rank + 1) % 20, 7, 4, ScalarType::F32);
                rec.finish()
            })
            .collect();
        match simulate_traces(&traces, &link()) {
            Err(SimError::Deadlock { blocked, total_blocked }) => {
                assert_eq!((total_blocked, blocked.len()), (20, 16));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    /// One `(src, dst, tag)` stream carrying three messages of different
    /// sizes, compute between them: the k-th recv takes the k-th send, as
    /// on the threaded runtime. A fourth, unmatched send parks nobody: it
    /// counts as a message and moves no clock.
    #[test]
    fn multi_message_streams_match_fifo() {
        let traces = |extra_send: bool| -> Vec<RankTrace> {
            let mut a = TraceRecorder::new(0, 2);
            a.advance(1e-4);
            a.send(1, 7, 1024, ScalarType::F32);
            a.advance(2e-4);
            a.send(1, 7, 16, ScalarType::F32);
            a.advance(1e-5);
            a.send(1, 7, 65536, ScalarType::F32);
            if extra_send {
                a.send(1, 7, 8, ScalarType::F32);
            }
            let mut b = TraceRecorder::new(1, 2);
            b.recv(0, 7, 1024, ScalarType::F32);
            b.advance(5e-5);
            b.recv(0, 7, 16, ScalarType::F32);
            b.recv(0, 7, 65536, ScalarType::F32);
            vec![a.finish(), b.finish()]
        };
        let matched = simulate_traces(&traces(false), &link()).expect("simulates");
        assert_eq!(matched.clocks, replay_traces_timed(&traces(false), &link()));
        assert_eq!(matched.messages, 3);
        assert!(matched.p2p_wait[1] > 0.0, "the last, largest message is waited for");

        let unmatched = simulate_traces(&traces(true), &link()).expect("no deadlock");
        assert_eq!(unmatched.clocks, matched.clocks);
        assert_eq!(unmatched.messages, 4);
        assert_eq!(unmatched.ops_executed, matched.ops_executed + 1);
    }

    #[test]
    fn inconsistent_collective_counts_are_rejected() {
        let mut a = TraceRecorder::new(0, 2);
        a.world_allreduce(100, ScalarType::F32);
        let mut b = TraceRecorder::new(1, 2);
        b.world_allreduce(200, ScalarType::F32);
        match simulate_traces(&[a.finish(), b.finish()], &link()) {
            Err(SimError::Inconsistent { detail }) => assert!(detail.contains("100")),
            other => panic!("expected inconsistency, got {other:?}"),
        }
    }

    /// The fused recurrences must reproduce the threaded runtime's
    /// clocks for every algorithm, world size, and payload shape —
    /// including non-powers-of-two and payloads smaller than the world.
    #[test]
    fn fused_collectives_match_threaded_all_algorithms() {
        let algs = [
            AllreduceAlgorithm::Ring,
            AllreduceAlgorithm::RecursiveDoubling,
            AllreduceAlgorithm::Rabenseifner,
        ];
        for p in 2..=8 {
            for n in [1usize, 3, 64, 1000] {
                for alg in algs {
                    let entries: Vec<f64> = (0..p).map(|i| (i % 3) as f64 * 1e-4).collect();
                    let members: Vec<usize> = (0..p).collect();
                    let (fused, msgs) =
                        collective_finish_times(alg, &entries, &members, n, 4, &link());
                    let want: Vec<f64> = run_ranks_timed(p, link(), |comm| {
                        comm.advance((comm.rank() % 3) as f64 * 1e-4);
                        comm.allreduce_with(&vec![0f32; n], ReduceOp::Sum, alg);
                    })
                    .into_iter()
                    .map(|((), c)| c)
                    .collect();
                    assert_eq!(fused, want, "alg {alg:?} p {p} n {n}");
                    assert!(msgs > 0);
                }
            }
        }
    }

    /// Fused timing with non-contiguous world ranks must charge links
    /// between the *world* ranks, as a bound subgroup does.
    #[test]
    fn fused_subgroup_uses_world_ranks_for_links() {
        let hetero = LinkModel::custom(|src, dst, bytes| {
            if src >= 4 || dst >= 4 {
                1e-3 + 1e-9 * bytes as f64
            } else {
                1e-6 + 1e-9 * bytes as f64
            }
        });
        let members = [1usize, 3, 5, 7];
        let entries = [0.0; 4];
        let (with_slow, _) =
            collective_finish_times(AllreduceAlgorithm::Ring, &entries, &members, 256, 4, &hetero);
        let (all_fast, _) = collective_finish_times(
            AllreduceAlgorithm::Ring,
            &entries,
            &[0, 1, 2, 3],
            256,
            4,
            &hetero,
        );
        assert!(with_slow.iter().sum::<f64>() > all_fast.iter().sum::<f64>());
    }

    #[test]
    fn empty_and_singleton_collectives_are_no_ops() {
        let (f, m) =
            collective_finish_times(AllreduceAlgorithm::Ring, &[1.0], &[0], 100, 4, &link());
        assert_eq!((f, m), (vec![1.0], 0));
        let (f, m) = collective_finish_times(
            AllreduceAlgorithm::Rabenseifner,
            &[1.0, 2.0],
            &[0, 1],
            0,
            4,
            &link(),
        );
        assert_eq!((f, m), (vec![1.0, 2.0], 0));
    }

    /// The ring recurrence as first written, three `%` per element: the
    /// reference the division-free walk in [`ring_times`] must equal bit
    /// for bit.
    fn ring_times_reference(
        entries: &[f64],
        members: &[usize],
        n: usize,
        w: usize,
        link: &LinkModel,
    ) -> (Vec<f64>, u64) {
        let p = members.len();
        let mut t = entries.to_vec();
        let mut nt = vec![0.0f64; p];
        let mut msgs = 0u64;
        let base = n / p;
        let rem = n % p;
        let time_hi: Vec<f64> = (0..p)
            .map(|i| link.time(members[(i + p - 1) % p], members[i], (base + 1) * w))
            .collect();
        let time_lo: Vec<f64> =
            (0..p).map(|i| link.time(members[(i + p - 1) % p], members[i], base * w)).collect();
        for phase in 0..2usize {
            for step in 0..p - 1 {
                for (i, nti) in nt.iter_mut().enumerate() {
                    let left = (i + p - 1) % p;
                    let send_idx =
                        if phase == 0 { (left + p - step) % p } else { (left + 1 + p - step) % p };
                    let hop = if send_idx < rem { time_hi[i] } else { time_lo[i] };
                    *nti = t[i].max(t[left] + hop);
                    msgs += 1;
                }
                std::mem::swap(&mut t, &mut nt);
            }
        }
        (t, msgs)
    }

    #[test]
    fn ring_recurrence_equals_the_modulo_reference_bitwise() {
        let links = [
            ("alpha_beta", LinkModel::alpha_beta(5e-6, 1e-9)),
            ("two_level", LinkModel::two_level(4, 1e-6, 2e-10, 8e-6, 1e-9)),
            (
                "asymmetric custom",
                LinkModel::custom(|src, dst, bytes| {
                    let per_byte = if src < dst { 1e-10 } else { 3e-10 };
                    (1 + (src * 7 + dst) % 5) as f64 * 1e-6 + per_byte * bytes as f64
                }),
            ),
        ];
        let bits = |(t, msgs): &(Vec<f64>, u64)| {
            (t.iter().map(|x| x.to_bits()).collect::<Vec<u64>>(), *msgs)
        };
        for p in (2..=40).chain([64, 127, 128, 129, 512]) {
            let members: Vec<usize> = (0..p).collect();
            // Staggered entries, with ties, so `max` takes either side.
            let entries: Vec<f64> = (0..p).map(|i| (i * 7 % 5) as f64 * 3e-6).collect();
            for n in [1, p - 1, p, p + 1, 2 * p + 3, 8193] {
                for (name, link) in &links {
                    let want = bits(&ring_times_reference(&entries, &members, n, 4, link));
                    let direct = ring_times(&entries, &members, n, 4, link);
                    assert_eq!(bits(&direct), want, "{name}: p {p} n {n}");
                    let public = collective_finish_times(
                        AllreduceAlgorithm::Ring,
                        &entries,
                        &members,
                        n,
                        4,
                        link,
                    );
                    assert_eq!(bits(&public), want, "{name}: p {p} n {n}, public entry");
                }
            }
        }
    }

    /// Equal member lists in distinct allocations — one world list per
    /// recorder, a fresh list per subgroup call — on every rank join one
    /// instance, exactly as the threaded runtime joins them.
    #[test]
    fn interned_lists_join_equal_lists_from_distinct_allocations() {
        let traces: Vec<RankTrace> = (0..4)
            .map(|rank| {
                let mut rec = TraceRecorder::new(rank, 4);
                rec.advance((rank + 1) as f64 * 1e-4);
                rec.world_allreduce(64, ScalarType::F32);
                let group: Vec<usize> = if rank < 2 { vec![0, 1] } else { vec![2, 3] };
                rec.sub_allreduce(&group, (rank / 2) as u64, 512, ScalarType::F32);
                rec.finish()
            })
            .collect();
        let lists = |i: usize| -> Vec<&Arc<[usize]>> {
            traces
                .iter()
                .map(|t| match &t.entries[i].op {
                    TraceOp::Collective { members, .. } => members,
                    other => panic!("expected a collective, got {other:?}"),
                })
                .collect()
        };
        for same in [lists(1), lists(2)] {
            assert!(!Arc::ptr_eq(same[0], same[1]), "the premise: distinct allocations");
        }
        let got = simulate_traces(&traces, &link()).expect("one instance per list");
        assert_eq!(got.clocks, replay_traces_timed(&traces, &link()));
        let (stats, violations) = crate::trace::check_traces(&traces, &[]);
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(stats.collectives_checked, 3);
    }

    /// Two different lists under one tag are two instances, not one.
    #[test]
    fn interned_lists_keep_different_lists_under_one_tag_apart() {
        let traces: Vec<RankTrace> = (0..5)
            .map(|rank| {
                let mut rec = TraceRecorder::new(rank, 5);
                rec.advance(rank as f64 * 1e-4);
                let group: Vec<usize> = if rank < 2 { vec![0, 1] } else { vec![2, 3, 4] };
                rec.sub_allreduce(&group, 9, 256, ScalarType::F32);
                rec.finish()
            })
            .collect();
        let got = simulate_traces(&traces, &link()).expect("two instances");
        assert_eq!(got.clocks, replay_traces_timed(&traces, &link()));
        let (stats, violations) = crate::trace::check_traces(&traces, &[]);
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(stats.collectives_checked, 2);
    }

    /// `[1, 0]` on one rank and `[0, 1]` on the other: one group to the
    /// verifier, which matches member *sets*; two keys to the simulator,
    /// which matches *ordered* lists — so it reports a deadlock, not a
    /// match.
    #[test]
    fn interned_lists_are_sets_to_the_verifier_and_ordered_to_the_simulator() {
        let traces: Vec<RankTrace> = (0..2)
            .map(|rank| {
                let mut rec = TraceRecorder::new(rank, 2);
                let group = if rank == 0 { [0, 1] } else { [1, 0] };
                rec.sub_allreduce(&group, 3, 128, ScalarType::F32);
                rec.finish()
            })
            .collect();
        let (stats, violations) = crate::trace::check_traces(&traces, &[]);
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(stats.collectives_checked, 1);
        match simulate_traces(&traces, &link()) {
            Err(SimError::Deadlock { blocked, total_blocked }) => {
                assert_eq!(total_blocked, 2);
                for b in &blocked {
                    assert_eq!(b.detail, "collective of 2 members: only 1 arrived");
                }
            }
            other => panic!("expected a deadlock, got {other:?}"),
        }
    }

    /// A rank outside the list it records, and a member disagreeing on
    /// the count, are still rejected with the same words.
    #[test]
    fn interned_lists_keep_the_inconsistency_reports() {
        let traces: Vec<RankTrace> = (0..3)
            .map(|rank| {
                let mut rec = TraceRecorder::new(rank, 3);
                rec.sub_allreduce(&[0, 1], 4, 32, ScalarType::F32);
                rec.finish()
            })
            .collect();
        let tag = crate::p2p::sub_collective_tag(4, 0);
        match simulate_traces(&traces, &link()) {
            Err(SimError::Inconsistent { detail }) => assert_eq!(
                detail,
                format!(
                    "rank 2 records a collective (tag {tag:#x}) whose member list [0, 1] \
                     does not contain it"
                )
            ),
            other => panic!("expected an inconsistency, got {other:?}"),
        }

        let mut a = TraceRecorder::new(0, 2);
        a.world_allreduce(100, ScalarType::F32);
        let mut b = TraceRecorder::new(1, 2);
        b.world_allreduce(200, ScalarType::F32);
        let tag = crate::p2p::world_collective_tag(0);
        match simulate_traces(&[a.finish(), b.finish()], &link()) {
            Err(SimError::Inconsistent { detail }) => assert_eq!(
                detail,
                format!(
                    "rank 1 joins collective tag {tag:#x} with 200 F32, another member \
                     recorded 100 F32"
                )
            ),
            other => panic!("expected an inconsistency, got {other:?}"),
        }
    }

    #[test]
    fn subgroup_replay_matches_des() {
        // Two disjoint subgroups allreduce concurrently, then a world
        // allreduce joins everyone.
        let world = 4;
        let traces: Vec<RankTrace> = (0..world)
            .map(|rank| {
                let mut rec = TraceRecorder::new(rank, world);
                rec.scope(0, Phase::Forward);
                rec.advance((rank + 1) as f64 * 1e-4);
                let group: Vec<usize> = if rank < 2 { vec![0, 1] } else { vec![2, 3] };
                rec.sub_allreduce(&group, (rank as u64) / 2, 512, ScalarType::F32);
                rec.world_allreduce(64, ScalarType::F64);
                rec.finish()
            })
            .collect();
        let want = replay_traces_timed(&traces, &link());
        let got = simulate_traces(&traces, &link()).expect("simulates");
        assert_eq!(got.clocks, want);
    }
}
