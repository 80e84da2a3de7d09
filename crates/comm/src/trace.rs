//! Symbolic communication traces for static schedule verification.
//!
//! The schedule verifier (`fg-core::verify`) walks every rank's compiled
//! plans and records what each rank *would* put on the wire — shapes,
//! element counts, and tags only, never tensor data — into a
//! [`RankTrace`]. This module owns the trace model and the trace-level
//! checks:
//!
//! * **p2p matching** ([`CheckKind::P2pMatching`]): on every
//!   `(src, dst, tag)` stream, sends and receives pair off FIFO with
//!   equal element counts and scalar types. An unmatched op is a message
//!   that would never be consumed (or a recv that would block forever) —
//!   the static shadow of a deadlock.
//! * **collective consistency** ([`CheckKind::CollectiveConsistency`]):
//!   all members of a collective's group issue the same collective
//!   sequence — same kind, count, scalar type, and simulated tag, in the
//!   same order. A rank that skips a collective (or disagrees on the
//!   payload size) would hang or corrupt the reduction at runtime.
//! * **tag discipline** ([`CheckKind::TagDiscipline`]): a `(src, dst,
//!   tag)` stream carries at most one send and one recv. A second op on
//!   a side, from the same exchange or a concurrent one, would let
//!   receives match the wrong message and desync the integrity layer's
//!   per-stream sequence numbers.
//!
//! Checks 1 and 5 are one walk over the p2p ops grouped by stream, the
//! grouping the simulator (`sim`) pre-matches its messages on.
//!
//! Tag simulation uses the exact formulas the live communicators use
//! ([`crate::p2p::world_collective_tag`] /
//! [`crate::p2p::sub_collective_tag`]), with one per-rank world counter.
//! Because every halo exchange, shuffle, and world collective draws a
//! world tag, a rank whose plan drops one such op desyncs its simulated
//! counter and every later tag mismatches — so omissions surface even
//! when the op itself left no unmatched partner.
//!
//! The geometric checks that need plan internals — halo symmetry and
//! shuffle conservation — live with the plan types
//! (`fg-tensor`) and the walker (`fg-core::verify`); their findings are
//! reported through the same [`Violation`] type.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

use crate::p2p::{sub_collective_tag, world_collective_tag, ScalarType, Tag};

/// Which verifier check produced a [`Violation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckKind {
    /// An unpaired or mismatched point-to-point op (check 1).
    P2pMatching,
    /// Group members disagree on the collective sequence (check 2).
    CollectiveConsistency,
    /// A halo send is not the region the peer expects (check 3).
    HaloSymmetry,
    /// A shuffle does not partition its target (check 4).
    Conservation,
    /// A `(src, dst, tag)` stream shared by two exchanges (check 5).
    TagDiscipline,
}

impl fmt::Display for CheckKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CheckKind::P2pMatching => "p2p-matching",
            CheckKind::CollectiveConsistency => "collective-consistency",
            CheckKind::HaloSymmetry => "halo-symmetry",
            CheckKind::Conservation => "conservation",
            CheckKind::TagDiscipline => "tag-discipline",
        };
        f.write_str(s)
    }
}

/// One verifier finding: which check failed, where, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The check that failed.
    pub check: CheckKind,
    /// The offending rank.
    pub rank: usize,
    /// The offending layer (index into the network spec).
    pub layer: usize,
    /// The offending layer's name.
    pub layer_name: String,
    /// Human-readable specifics (tags, counts, peers).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] rank {} layer {} ({}): {}",
            self.check, self.rank, self.layer, self.layer_name, self.detail
        )
    }
}

/// Aggregate counters from a verification pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyStats {
    /// Total trace ops recorded across all ranks.
    pub ops_traced: usize,
    /// Distinct `(src, dst, tag)` p2p streams checked.
    pub links_checked: usize,
    /// Collective instances checked (per group, not per member).
    pub collectives_checked: usize,
    /// Payload bytes accounted: every send plus every member's
    /// collective contribution.
    pub bytes_accounted: usize,
}

/// Whether an op was recorded during the forward or backward walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Forward pass.
    Forward,
    /// Backward pass.
    Backward,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Phase::Forward => "forward",
            Phase::Backward => "backward",
        })
    }
}

/// The collective operations the executor's plans issue. All layer
/// collectives are sum-allreduces (world or subgroup); the enum leaves
/// room for rooted collectives should a layer ever plan one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CollectiveKind {
    /// `allreduce(_, ReduceOp::Sum)`.
    AllreduceSum,
}

impl fmt::Display for CollectiveKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Modeled local compute time, seconds. A newtype so [`TraceOp`] can
/// stay `Eq`: comparison is on the `f64` bit pattern, which is the right
/// notion here because recorded costs come from deterministic models.
#[derive(Debug, Clone, Copy, PartialOrd)]
pub struct SimSeconds(pub f64);

impl PartialEq for SimSeconds {
    fn eq(&self, other: &SimSeconds) -> bool {
        self.0.to_bits() == other.0.to_bits()
    }
}

impl Eq for SimSeconds {}

/// One symbolic wire operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceOp {
    /// A point-to-point send of `count` elements of `ty` to `to`.
    Send {
        /// Destination rank.
        to: usize,
        /// Message tag.
        tag: Tag,
        /// Element count.
        count: usize,
        /// Element type.
        ty: ScalarType,
    },
    /// A point-to-point receive from `from`.
    Recv {
        /// Source rank.
        from: usize,
        /// Message tag.
        tag: Tag,
        /// Element count the plan expects.
        count: usize,
        /// Element type.
        ty: ScalarType,
    },
    /// A collective, recorded atomically on each member (one collective
    /// = one tag draw, so member agreement on the tuple is exactly what
    /// the runtime needs to pair the underlying messages).
    Collective {
        /// Operation kind.
        kind: CollectiveKind,
        /// Ordered member ranks (world ranks). Shared, not owned: a
        /// 2048-rank world records ~2048 references to *one* member
        /// list per group, not 2048² rank copies.
        members: Arc<[usize]>,
        /// Per-member payload element count.
        count: usize,
        /// Element type.
        ty: ScalarType,
        /// Simulated collective tag.
        tag: Tag,
    },
    /// Modeled local compute: the rank's virtual clock advances by
    /// `secs` without touching the wire (mirrors `WorldComm::advance`).
    Advance {
        /// Modeled duration, seconds.
        secs: SimSeconds,
    },
}

/// A [`TraceOp`] plus where it came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Layer the op belongs to.
    pub layer: usize,
    /// Forward or backward walk.
    pub phase: Phase,
    /// Exchange context: one logical exchange (one halo exchange, one
    /// shuffle, one collective) per id. Streams may not span contexts.
    pub ctx: u64,
    /// The op itself.
    pub op: TraceOp,
}

/// Everything one rank would put on the wire in one training step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankTrace {
    /// The rank the trace belongs to.
    pub rank: usize,
    /// Ops in program order.
    pub entries: Vec<TraceEntry>,
}

/// Records one rank's symbolic trace while the verifier walks its plans,
/// simulating the rank's world-collective tag counter along the way.
#[derive(Debug)]
pub struct TraceRecorder {
    rank: usize,
    world: usize,
    /// The full-world member list, built once and shared by every
    /// world-collective entry this recorder emits.
    world_members: Arc<[usize]>,
    world_counter: u64,
    ctx: u64,
    layer: usize,
    phase: Phase,
    entries: Vec<TraceEntry>,
}

impl TraceRecorder {
    /// A fresh recorder for `rank` of `world` ranks; counters at zero,
    /// exactly like a freshly constructed communicator.
    pub fn new(rank: usize, world: usize) -> TraceRecorder {
        TraceRecorder {
            rank,
            world,
            world_members: (0..world).collect(),
            world_counter: 0,
            ctx: 0,
            layer: 0,
            phase: Phase::Forward,
            entries: Vec::new(),
        }
    }

    /// Attribute subsequent ops to `layer` in `phase`.
    pub fn scope(&mut self, layer: usize, phase: Phase) {
        self.layer = layer;
        self.phase = phase;
    }

    /// Open a new exchange context (one halo exchange, one shuffle).
    pub fn begin_exchange(&mut self) {
        self.ctx += 1;
    }

    /// Draw the next world-collective tag, advancing this rank's
    /// simulated counter — mirrors `WorldComm::next_collective_tag`.
    pub fn next_world_tag(&mut self) -> Tag {
        let tag = world_collective_tag(self.world_counter);
        self.world_counter += 1;
        tag
    }

    /// Record a point-to-point send in the current context.
    pub fn send(&mut self, to: usize, tag: Tag, count: usize, ty: ScalarType) {
        self.push(TraceOp::Send { to, tag, count, ty });
    }

    /// Record a point-to-point receive in the current context.
    pub fn recv(&mut self, from: usize, tag: Tag, count: usize, ty: ScalarType) {
        self.push(TraceOp::Recv { from, tag, count, ty });
    }

    /// Record `secs` of modeled local compute (a kernel time from a
    /// device model). Zero-cost advances are skipped — they cannot move
    /// any clock.
    pub fn advance(&mut self, secs: f64) {
        debug_assert!(secs >= 0.0, "time moves forward");
        if secs > 0.0 {
            self.push(TraceOp::Advance { secs: SimSeconds(secs) });
        }
    }

    /// Record a world-scope sum-allreduce. Mirrors the runtime exactly:
    /// a singleton world or an empty payload returns locally without
    /// drawing a tag, so neither advances the simulated counter.
    pub fn world_allreduce(&mut self, count: usize, ty: ScalarType) {
        if self.world <= 1 || count == 0 {
            return;
        }
        self.begin_exchange();
        let tag = self.next_world_tag();
        let members = Arc::clone(&self.world_members);
        self.push(TraceOp::Collective {
            kind: CollectiveKind::AllreduceSum,
            members,
            count,
            ty,
            tag,
        });
    }

    /// Record a subgroup sum-allreduce on a bound layout. Every plan
    /// bind starts the subgroup counter at zero, so the first (and only)
    /// collective of a bind always draws counter value 0 — and, like the
    /// runtime, singleton groups and empty payloads are local no-ops.
    pub fn sub_allreduce(
        &mut self,
        members: &[usize],
        group_id: u64,
        count: usize,
        ty: ScalarType,
    ) {
        if members.len() <= 1 || count == 0 {
            return;
        }
        self.begin_exchange();
        let tag = sub_collective_tag(group_id, 0);
        self.push(TraceOp::Collective {
            kind: CollectiveKind::AllreduceSum,
            members: members.into(),
            count,
            ty,
            tag,
        });
    }

    /// Finish recording.
    pub fn finish(self) -> RankTrace {
        RankTrace { rank: self.rank, entries: self.entries }
    }

    fn push(&mut self, op: TraceOp) {
        self.entries.push(TraceEntry { layer: self.layer, phase: self.phase, ctx: self.ctx, op });
    }
}

/// Collective member lists interned to dense ids: how the two consumers
/// that match collectives across ranks — `sim::compile` and check 2 of
/// [`check_traces`] — tell lists apart. Equal lists arrive in many
/// allocations (one world list per [`TraceRecorder`], a fresh list per
/// subgroup collective), so allocation identity alone would split one
/// group into many: an allocation seen before is answered by its
/// address, a new one is hashed by content exactly once. The table
/// borrows every list it has seen for `'a`, so no address it holds can
/// be reused by another list.
#[derive(Default)]
pub(crate) struct MemberLists<'a> {
    by_addr: HashMap<*const [usize], usize>,
    by_content: HashMap<&'a [usize], usize>,
    lists: Vec<MemberList>,
}

/// One interned member list, as `(member, position)` pairs sorted: the
/// members in ascending order, each repeat of a member after its first
/// position.
pub(crate) struct MemberList {
    by_member: Vec<(usize, usize)>,
}

impl<'a> MemberLists<'a> {
    /// The id of `members`' content; equal lists get equal ids.
    pub(crate) fn intern(&mut self, members: &'a Arc<[usize]>) -> usize {
        let addr = Arc::as_ptr(members);
        if let Some(&id) = self.by_addr.get(&addr) {
            return id;
        }
        let next = self.lists.len();
        let id = *self.by_content.entry(&members[..]).or_insert(next);
        if id == next {
            let mut by_member: Vec<(usize, usize)> =
                members.iter().enumerate().map(|(at, &m)| (m, at)).collect();
            by_member.sort_unstable();
            self.lists.push(MemberList { by_member });
        }
        self.by_addr.insert(addr, id);
        id
    }

    /// The list interned as `id`.
    pub(crate) fn get(&self, id: usize) -> &MemberList {
        &self.lists[id]
    }
}

impl MemberList {
    /// Where `rank` first appears in the list, if it is a member.
    pub(crate) fn position(&self, rank: usize) -> Option<usize> {
        let at = self.by_member.partition_point(|&(m, _)| m < rank);
        self.by_member.get(at).filter(|&&(m, _)| m == rank).map(|&(_, pos)| pos)
    }

    /// The members in ascending order (a repeated member repeats).
    fn sorted(&self) -> Vec<usize> {
        self.by_member.iter().map(|&(m, _)| m).collect()
    }
}

/// Where one p2p op sits: its `(src, dst, tag)` stream, its direction,
/// then its trace and entry index. Sorted, each stream's sends come
/// before its recvs, and each side is in FIFO order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct P2pOp {
    stream: (usize, usize, Tag),
    recv: bool,
    pub(crate) trace: usize,
    pub(crate) entry: usize,
}

/// Every send and every recv of a set of traces, grouped by stream: the
/// one place sends meet receives. Checks 1 and 5 of [`check_traces`]
/// walk it, and `sim::compile` gives the k-th send and the k-th recv of
/// each stream one slot.
pub(crate) struct P2pStreams {
    ops: Vec<P2pOp>,
}

impl P2pStreams {
    /// Group `traces`' sends and recvs by stream: count them per source
    /// rank (a source past the last trace counts as the last), place
    /// each in its rank's bucket, and sort only the short buckets.
    pub(crate) fn new(traces: &[RankTrace]) -> P2pStreams {
        let p2p_ops = || {
            traces.iter().enumerate().flat_map(|(trace, t)| {
                t.entries.iter().enumerate().filter_map(move |(entry, e)| {
                    let (stream, recv) = match e.op {
                        TraceOp::Send { to, tag, .. } => ((t.rank, to, tag), false),
                        TraceOp::Recv { from, tag, .. } => ((from, t.rank, tag), true),
                        TraceOp::Collective { .. } | TraceOp::Advance { .. } => return None,
                    };
                    Some(P2pOp { stream, recv, trace, entry })
                })
            })
        };
        let bucket = |op: &P2pOp| op.stream.0.min(traces.len());
        let mut next = vec![0; traces.len() + 2];
        p2p_ops().for_each(|op| next[bucket(&op) + 1] += 1);
        for b in 1..next.len() {
            next[b] += next[b - 1];
        }
        let start = next.clone();
        let mut ops = vec![P2pOp::default(); start[traces.len() + 1]];
        p2p_ops().for_each(|op| {
            let at = &mut next[bucket(&op)];
            ops[*at] = op;
            *at += 1;
        });
        for w in start.windows(2) {
            ops[w[0]..w[1]].sort_unstable();
        }
        P2pStreams { ops }
    }

    /// Every stream in key order, with its sends and its recvs.
    pub(crate) fn iter(&self) -> impl Iterator<Item = ((usize, usize, Tag), &[P2pOp], &[P2pOp])> {
        self.ops.chunk_by(|a, b| a.stream == b.stream).map(|ops| {
            let (sends, recvs) = ops.split_at(ops.partition_point(|op| !op.recv));
            (ops[0].stream, sends, recvs)
        })
    }
}

/// Run the trace-level checks (p2p matching, collective consistency,
/// tag discipline) over all ranks' traces. `layer_names` maps layer
/// indices to names for diagnostics. Returns the aggregate stats and
/// every violation found — an empty violation list means the traced
/// schedule cannot deadlock or mismatch at the message level.
pub fn check_traces(traces: &[RankTrace], layer_names: &[String]) -> (VerifyStats, Vec<Violation>) {
    let mut stats = VerifyStats::default();
    let mut violations = Vec::new();
    let name = |layer: usize| layer_names.get(layer).cloned().unwrap_or_else(|| "?".into());

    // ---- Checks 1 and 5: one walk over the p2p streams. ----
    // Check 1 pairs each stream's sends and recvs off FIFO. Check 5 finds
    // each op after a stream side's first; its findings keep their
    // `(trace, entry)` place and follow check 2's in program order.
    let p2p = |op: &P2pOp| {
        let e = &traces[op.trace].entries[op.entry];
        let (TraceOp::Send { count, ty, .. } | TraceOp::Recv { count, ty, .. }) = e.op else {
            unreachable!("a stream holds sends and recvs only")
        };
        (e, count, ty)
    };
    let mut discipline: Vec<((usize, usize), Violation)> = Vec::new();
    for ((src, dst, tag), s, r) in P2pStreams::new(traces).iter() {
        stats.links_checked += 1;
        for i in 0..s.len().max(r.len()) {
            let (send, recv) = (s.get(i).map(p2p), r.get(i).map(p2p));
            if let Some((_, count, ty)) = send {
                stats.bytes_accounted += count * ty.width();
            }
            let (rank, entry, detail) = match (send, recv) {
                (Some((se, sn, st)), Some((re, rn, rt))) if sn != rn || st != rt => (
                    src,
                    se,
                    format!(
                        "{} send of {sn} {st:?} to rank {dst} (tag {tag:#x}) meets a recv \
                         expecting {rn} {rt:?} (recv at layer {} {})",
                        se.phase, re.layer, re.phase
                    ),
                ),
                (Some(_), Some(_)) => continue,
                (Some((se, sn, st)), None) => (
                    src,
                    se,
                    format!(
                        "{} send of {sn} {st:?} to rank {dst} (tag {tag:#x}) has no matching \
                         recv — the message would never be consumed",
                        se.phase
                    ),
                ),
                (None, Some((re, rn, rt))) => (
                    dst,
                    re,
                    format!(
                        "{} recv of {rn} {rt:?} from rank {src} (tag {tag:#x}) has no matching \
                         send — the rank would block forever",
                        re.phase
                    ),
                ),
                (None, None) => unreachable!("i indexes the longer side"),
            };
            violations.push(Violation {
                check: CheckKind::P2pMatching,
                rank,
                layer: entry.layer,
                layer_name: name(entry.layer),
                detail,
            });
        }
        for (ops, dir, rank, peer) in [(s, "send", src, dst), (r, "recv", dst, src)] {
            let Some((first, reuses)) = ops.split_first() else { continue };
            let first = p2p(first).0;
            for op in reuses {
                let e = p2p(op).0;
                let how = if e.ctx == first.ctx {
                    "twice within one exchange (FIFO matching is ambiguous)"
                } else {
                    "from two concurrent exchanges (streams would interleave)"
                };
                let finding = Violation {
                    check: CheckKind::TagDiscipline,
                    rank,
                    layer: e.layer,
                    layer_name: name(e.layer),
                    detail: format!(
                        "{dir} stream to/from rank {peer} (tag {tag:#x}) is used {how}; \
                         first use at layer {}",
                        first.layer
                    ),
                };
                discipline.push(((op.trace, op.entry), finding));
            }
        }
    }

    // ---- Check 2: collective consistency per member set. ----
    // For each distinct (sorted) member set, every member's subsequence
    // of collectives on that set must be identical — kind, count, type,
    // and simulated tag, in the same order. Records are `(group, rank,
    // op)`; the group starts as the interned list id and becomes the
    // set's ordinal below.
    type CollOp = (CollectiveKind, usize, ScalarType, Tag, usize, Phase);
    let mut lists = MemberLists::default();
    let mut records: Vec<(usize, usize, CollOp)> = Vec::new();
    for t in traces {
        stats.ops_traced += t.entries.len();
        for e in &t.entries {
            if let TraceOp::Collective { kind, members, count, ty, tag } = &e.op {
                stats.bytes_accounted += count * ty.width();
                let op = (*kind, *count, *ty, *tag, e.layer, e.phase);
                records.push((lists.intern(members), t.rank, op));
            }
        }
    }
    // Lists holding the same members in another order are one set; sets
    // are visited in lexicographic order of their sorted members.
    let mut sets: BTreeMap<Vec<usize>, Vec<usize>> = BTreeMap::new();
    for (id, list) in lists.lists.iter().enumerate() {
        sets.entry(list.sorted()).or_default().push(id);
    }
    let mut set_of = vec![0; lists.lists.len()];
    for (ordinal, ids) in sets.values().enumerate() {
        for &id in ids {
            set_of[id] = ordinal;
        }
    }
    for r in &mut records {
        r.0 = set_of[r.0];
    }
    // Stable: each rank's records stay in program order.
    records.sort_by_key(|r| (r.0, r.1));
    let mut rest = &records[..];
    for (ordinal, members) in sets.keys().enumerate() {
        let (group, tail) = rest.split_at(rest.partition_point(|r| r.0 == ordinal));
        rest = tail;
        let seq_of = |rank: usize| {
            let lo = group.partition_point(|r| r.1 < rank);
            &group[lo..lo + group[lo..].partition_point(|r| r.1 == rank)]
        };
        // Reference: the longest member sequence (so a rank that drops a
        // collective is reported as missing it, not as the reference).
        let reference = members
            .iter()
            .map(|&r| seq_of(r))
            .filter(|seq| !seq.is_empty())
            .max_by_key(|seq| seq.len())
            .unwrap_or_default();
        stats.collectives_checked += reference.len();
        for &rank in members {
            let seq = seq_of(rank);
            let first_diff = reference
                .iter()
                .zip(seq)
                .position(|(a, b)| a.2 != b.2)
                .unwrap_or(reference.len().min(seq.len()));
            if first_diff == reference.len() && seq.len() == reference.len() {
                continue;
            }
            let want = reference.get(first_diff).map(|r| r.2);
            let (layer, detail) = match (want, seq.get(first_diff).map(|r| r.2)) {
                (Some(want), Some(have)) => (
                    have.4,
                    format!(
                        "collective #{first_diff} of group {members:?} diverges: this rank \
                         issues {:?} of {} {:?} (tag {:#x}), the group issues {:?} of {} {:?} \
                         (tag {:#x}, layer {})",
                        have.0, have.1, have.2, have.3, want.0, want.1, want.2, want.3, want.4
                    ),
                ),
                (Some(want), None) => (
                    want.4,
                    format!(
                        "rank never issues collective #{first_diff} of group {members:?} \
                         ({:?} of {} {:?}, tag {:#x}) — the group would hang waiting for it",
                        want.0, want.1, want.2, want.3
                    ),
                ),
                (None, Some(extra)) => (
                    extra.4,
                    format!(
                        "rank issues a surplus collective #{first_diff} on group {members:?} \
                         ({:?} of {} {:?}, tag {:#x}) that no other member joins",
                        extra.0, extra.1, extra.2, extra.3
                    ),
                ),
                (None, None) => unreachable!("lengths equal and no diff was handled above"),
            };
            violations.push(Violation {
                check: CheckKind::CollectiveConsistency,
                rank,
                layer,
                layer_name: name(layer),
                detail,
            });
        }
    }

    // Check 5's findings, in (rank, program) order.
    discipline.sort_unstable_by_key(|&(at, _)| at);
    violations.extend(discipline.into_iter().map(|(_, v)| v));

    (stats, violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_rank_traces() -> Vec<RankTrace> {
        let mut a = TraceRecorder::new(0, 2);
        let mut b = TraceRecorder::new(1, 2);
        for (peer, rec) in [(1, &mut a), (0, &mut b)] {
            rec.scope(1, Phase::Forward);
            rec.begin_exchange();
            let tag = rec.next_world_tag();
            rec.send(peer, tag, 8, ScalarType::F32);
            rec.recv(peer, tag, 8, ScalarType::F32);
            rec.scope(2, Phase::Forward);
            rec.world_allreduce(5, ScalarType::F64);
        }
        vec![a.finish(), b.finish()]
    }

    fn names() -> Vec<String> {
        (0..4).map(|i| format!("l{i}")).collect()
    }

    #[test]
    fn clean_traces_verify_clean() {
        let (stats, violations) = check_traces(&two_rank_traces(), &names());
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(stats.ops_traced, 6);
        assert_eq!(stats.links_checked, 2);
        assert_eq!(stats.collectives_checked, 1);
        // 2 sends × 8 f32 + 2 members × 5 f64.
        assert_eq!(stats.bytes_accounted, 2 * 8 * 4 + 2 * 5 * 8);
    }

    #[test]
    fn unmatched_send_is_reported_with_rank_and_layer() {
        let mut traces = two_rank_traces();
        // Drop rank 1's halo recv: rank 0's send goes unconsumed.
        traces[1].entries.retain(|e| !matches!(e.op, TraceOp::Recv { .. }));
        let (_, violations) = check_traces(&traces, &names());
        assert!(violations
            .iter()
            .any(|v| v.check == CheckKind::P2pMatching && v.rank == 0 && v.layer == 1));
    }

    #[test]
    fn count_mismatch_is_reported() {
        let mut traces = two_rank_traces();
        for e in &mut traces[0].entries {
            if let TraceOp::Send { count, .. } = &mut e.op {
                *count = 7;
            }
        }
        let (_, violations) = check_traces(&traces, &names());
        assert!(violations.iter().any(|v| v.check == CheckKind::P2pMatching && v.rank == 0));
    }

    #[test]
    fn dropped_collective_is_reported_against_the_skipping_rank() {
        let mut traces = two_rank_traces();
        traces[1].entries.retain(|e| !matches!(e.op, TraceOp::Collective { .. }));
        let (_, violations) = check_traces(&traces, &names());
        assert!(violations
            .iter()
            .any(|v| v.check == CheckKind::CollectiveConsistency && v.rank == 1 && v.layer == 2));
    }

    #[test]
    fn tag_collision_across_exchanges_is_reported() {
        let mut rec = TraceRecorder::new(0, 2);
        rec.scope(1, Phase::Forward);
        rec.begin_exchange();
        rec.send(1, world_collective_tag(0), 4, ScalarType::F32);
        rec.begin_exchange();
        rec.send(1, world_collective_tag(0), 4, ScalarType::F32);
        let mut peer = TraceRecorder::new(1, 2);
        peer.scope(1, Phase::Forward);
        peer.begin_exchange();
        peer.recv(0, world_collective_tag(0), 4, ScalarType::F32);
        peer.begin_exchange();
        peer.recv(0, world_collective_tag(0), 4, ScalarType::F32);
        let (_, violations) = check_traces(&[rec.finish(), peer.finish()], &names());
        assert!(violations.iter().any(|v| v.check == CheckKind::TagDiscipline && v.rank == 0));
        assert!(violations.iter().any(|v| v.check == CheckKind::TagDiscipline && v.rank == 1));
    }

    /// Several tag-discipline findings at once, on streams whose key order
    /// is not program order: rank 0 reuses `(0, 2, A)` before `(0, 1, A)`
    /// and interleaves its sends with a reused recv stream. Findings come
    /// in (rank, program) order, each against its stream's first use.
    #[test]
    fn discipline_findings_keep_program_order() {
        const A: Tag = 5;
        const B: Tag = 9;
        const F32: ScalarType = ScalarType::F32;
        let mut r0 = TraceRecorder::new(0, 3);
        r0.scope(1, Phase::Forward);
        r0.begin_exchange();
        r0.send(2, A, 4, F32);
        r0.recv(1, B, 4, F32);
        r0.send(2, A, 4, F32);
        r0.scope(2, Phase::Forward);
        r0.begin_exchange();
        r0.send(1, A, 4, F32);
        r0.recv(1, B, 4, F32);
        r0.send(2, A, 4, F32);
        r0.scope(3, Phase::Backward);
        r0.begin_exchange();
        r0.send(1, A, 4, F32);
        let mut r1 = TraceRecorder::new(1, 3);
        r1.scope(1, Phase::Forward);
        r1.begin_exchange();
        r1.send(0, B, 4, F32);
        r1.send(0, B, 4, F32);
        r1.scope(2, Phase::Forward);
        r1.begin_exchange();
        r1.recv(0, A, 4, F32);
        r1.scope(3, Phase::Backward);
        r1.begin_exchange();
        r1.recv(0, A, 4, F32);
        let mut r2 = TraceRecorder::new(2, 3);
        r2.scope(1, Phase::Forward);
        r2.begin_exchange();
        for _ in 0..3 {
            r2.recv(0, A, 4, F32);
        }
        let traces = [r0.finish(), r1.finish(), r2.finish()];
        let (stats, violations) = check_traces(&traces, &names());
        assert_eq!(stats.links_checked, 3);
        let got: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
        let want = [
            "[tag-discipline] rank 0 layer 1 (l1): send stream to/from rank 2 (tag 0x5) is used \
             twice within one exchange (FIFO matching is ambiguous); first use at layer 1",
            "[tag-discipline] rank 0 layer 2 (l2): recv stream to/from rank 1 (tag 0x9) is used \
             from two concurrent exchanges (streams would interleave); first use at layer 1",
            "[tag-discipline] rank 0 layer 2 (l2): send stream to/from rank 2 (tag 0x5) is used \
             from two concurrent exchanges (streams would interleave); first use at layer 1",
            "[tag-discipline] rank 0 layer 3 (l3): send stream to/from rank 1 (tag 0x5) is used \
             from two concurrent exchanges (streams would interleave); first use at layer 2",
            "[tag-discipline] rank 1 layer 1 (l1): send stream to/from rank 0 (tag 0x9) is used \
             twice within one exchange (FIFO matching is ambiguous); first use at layer 1",
            "[tag-discipline] rank 1 layer 3 (l3): recv stream to/from rank 0 (tag 0x5) is used \
             from two concurrent exchanges (streams would interleave); first use at layer 2",
            "[tag-discipline] rank 2 layer 1 (l1): recv stream to/from rank 0 (tag 0x5) is used \
             twice within one exchange (FIFO matching is ambiguous); first use at layer 1",
            "[tag-discipline] rank 2 layer 1 (l1): recv stream to/from rank 0 (tag 0x5) is used \
             twice within one exchange (FIFO matching is ambiguous); first use at layer 1",
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn singleton_world_records_no_collectives() {
        let mut rec = TraceRecorder::new(0, 1);
        rec.world_allreduce(100, ScalarType::F32);
        rec.sub_allreduce(&[0], 7, 100, ScalarType::F32);
        assert!(rec.finish().entries.is_empty());
    }
}
