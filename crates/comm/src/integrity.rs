//! End-to-end message integrity: checksummed, sequence-numbered
//! envelopes with a bounded NACK/retransmit protocol.
//!
//! At scale, transient link faults and silent payload corruption are
//! statistically certain over a long training run, and a single flipped
//! bit in a halo exchange or allreduce fragment poisons every downstream
//! gradient. This module gives the substrate TCP-like delivery semantics
//! at the p2p boundary, so every collective inherits detection and
//! repair for free — exactly as they inherit injected faults from the
//! fault stage ([`crate::fault`]):
//!
//! * **Envelope.** Before a payload can be touched by anything below the
//!   integrity layer (fault injection here; a real NIC in the system
//!   being modeled), the sender assigns it a `WireHeader`: its
//!   position `seq` in the `(src, dst, tag)` stream and a 64-bit
//!   FNV-1a checksum over `(tag, seq, len, element bits)`. The elements
//!   are striped over `CHECKSUM_LANES` independent FNV-1a chains
//!   (element `i` into lane `i mod CHECKSUM_LANES`), and the header
//!   words and the lane values are then folded, in order, into one more
//!   chain. Each step `h ← (h ^ word) · odd` is a bijection in `h` and
//!   in `word`, so changing any one element changes its lane's value,
//!   and changing one lane's value (or `tag`, `seq`, `len`) changes the
//!   result: a single-element corruption is always detected, never just
//!   probably. Every element is read, at every size, on the send, verify
//!   and retransmit sides alike.
//! * **Replay window.** The sender stages a pristine copy of every
//!   enveloped payload in a world-shared window, keyed by stream. Successful delivery of `seq` acts as a cumulative ACK:
//!   the receiver prunes every staged entry of that stream up to and
//!   including `seq`, so the window holds only in-flight messages.
//! * **NACK/retransmit.** A receiver whose checksum test fails issues a
//!   NACK — modeled as a direct pull of the staged copy from the
//!   sender's window (the in-process analogue of a NACK packet plus the
//!   sender's resend). Pulls retry with backoff up to
//!   `MAX_RETRIES` (8); retransmissions ride the same
//!   hazardous link, so a [`crate::fault::FaultPlan`] can corrupt them
//!   too ([`crate::fault::FaultPlan::corrupt_retransmit_nth`]). When the
//!   budget is exhausted, the receive unwinds with a typed
//!   [`CommError::Corrupt`] caught at the rank boundary.
//! * **Drops** are repaired on the *sender* side: with an envelope
//!   attached, a dropped message is a detectable unacknowledged
//!   sequence number, and the fault stage models the link-layer
//!   retransmit by immediately resending under a fresh fault ordinal. The receiver therefore never observes a sequence gap, and
//!   drop repair never interacts with the deadlock watchdog.
//!
//! Every repair is counted: retransmissions and corrupted-and-repaired
//! messages land in [`crate::TrafficStats`] and in the watchdog's
//! wait-graph diagnostics, so a flaky link is visible long before it
//! becomes fatal.
//!
//! There is one wiring. [`crate::RunOptions::integrity`] (or
//! `FG_COMM_INTEGRITY=1`) turns the protocol on inside
//! [`crate::WorldComm`], whose `send` runs the envelope stage *before*
//! the fault stage and whose `recv` verifies *after* it: checksums are
//! always computed on pristine payloads, so integrity can never certify
//! data a fault already touched.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::error::CommError;
use crate::fault::FaultPlan;
use crate::p2p::{world_collective_tag, CommScalar, Communicator, Tag, WireHeader};
use crate::runtime::WorldComm;

/// How many replay-window pulls a receiver attempts for one corrupted
/// message before surfacing [`CommError::Corrupt`]. With a per-link
/// corruption rate `r`, repair fails with probability `r^(budget+1)`.
const MAX_RETRIES: u32 = 8;

/// Base backoff between pulls; pull `k` sleeps `k * BACKOFF`, modeling
/// NACK round-trips without hammering the shared window.
const BACKOFF: Duration = Duration::from_micros(20);

/// FNV-1a over one more 64-bit word.
fn fnv(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Independent FNV-1a chains the payload is striped over. One chain is a
/// xor→multiply dependency of about four cycles per element; this many
/// keep the multiplier busy every cycle instead.
const CHECKSUM_LANES: usize = 8;

/// The end-to-end payload checksum (see the module header): element `i`
/// is folded into lane `i mod CHECKSUM_LANES`, then `(tag, seq, len)`
/// and the lanes, in lane order, are folded into one FNV-1a chain.
/// Binding the header fields means a payload spliced onto the wrong
/// stream position fails verification even if its bytes are intact.
pub(crate) fn checksum_payload<T: CommScalar>(tag: Tag, seq: u64, data: &[T]) -> u64 {
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    let mut lanes = [BASIS; CHECKSUM_LANES];
    let mut stripes = data.chunks_exact(CHECKSUM_LANES);
    for stripe in &mut stripes {
        for (lane, x) in lanes.iter_mut().zip(stripe) {
            *lane = fnv(*lane, x.checksum_bits());
        }
    }
    for (lane, x) in lanes.iter_mut().zip(stripes.remainder()) {
        *lane = fnv(*lane, x.checksum_bits());
    }
    let header = [tag, seq, data.len() as u64];
    header.into_iter().chain(lanes).fold(BASIS, fnv)
}

/// A staged pristine copy awaiting acknowledgement.
struct Entry {
    seq: u64,
    /// Payload wire size, so the window can be byte-bounded.
    bytes: usize,
    payload: Box<dyn Any + Send>,
}

/// Per-stream byte bound of the replay window (16 MiB). Also the
/// comm-staging term the static memory analyzer charges per rank when
/// the integrity layer is on.
pub const DEFAULT_REPLAY_BYTES: usize = 16 << 20;

/// The replay windows plus their byte accounting, under one lock so the
/// gauge can never drift from the staged entries.
#[derive(Default)]
struct ReplayWindows {
    /// `streams[(src, dst, tag)]` → staged entries in seq order.
    streams: HashMap<(usize, usize, Tag), VecDeque<Entry>>,
    /// Bytes currently staged across all streams.
    held_bytes: usize,
    /// High-water mark of `held_bytes`.
    peak_held: usize,
}

/// The world-shared sender-side state: per-stream replay windows plus
/// the per-link retransmission ordinals that drive plan-scheduled
/// retransmit corruption. One instance is shared (via `Arc`) by all
/// ranks of a world, the in-process stand-in for each sender's NIC
/// buffer being reachable by its peer's NACKs.
pub(crate) struct IntegrityState {
    size: usize,
    windows: Mutex<ReplayWindows>,
    /// Per-stream byte bound: staging a message evicts the oldest
    /// entries of its stream until the backlog fits, so a slow ACK
    /// stream cannot grow the window without limit.
    stream_bound: usize,
    /// Retransmissions served per link (`src * size + dst`), the ordinal
    /// stream for [`FaultPlan::retransmit_corrupt_mask`].
    retx_served: Vec<AtomicU64>,
    /// Fault plan corrupting retransmissions; `None` outside chaos runs.
    plan: Option<FaultPlan>,
}

impl IntegrityState {
    /// Fresh state for a world of `size` ranks, with no fault plan. The
    /// per-stream byte bound is [`DEFAULT_REPLAY_BYTES`].
    pub(crate) fn new(size: usize) -> IntegrityState {
        IntegrityState {
            size,
            windows: Mutex::new(ReplayWindows::default()),
            stream_bound: DEFAULT_REPLAY_BYTES,
            retx_served: (0..size * size).map(|_| AtomicU64::new(0)).collect(),
            plan: None,
        }
    }

    /// Attach a fault plan so retransmissions suffer the same link
    /// hazard as first transmissions.
    pub(crate) fn with_plan(mut self, plan: FaultPlan) -> IntegrityState {
        self.plan = Some(plan);
        self
    }

    /// Override the per-stream byte bound.
    #[cfg(test)]
    fn with_stream_bound(mut self, bytes: usize) -> IntegrityState {
        self.stream_bound = bytes;
        self
    }

    /// Stage a pristine copy of message `seq` on stream
    /// `(src, dst, tag)`. Called by the sender before the send itself,
    /// so a concurrent NACK can never miss the entry. Enforces the
    /// per-stream byte bound by evicting the stream's oldest entries —
    /// a later NACK for an evicted seq surfaces as the typed
    /// window-miss [`CommError::Corrupt`] in [`protocol_recv`]. The
    /// just-staged entry itself is never evicted (one oversized message
    /// must stay repairable). Returns the bytes held across all streams
    /// after staging.
    fn stage<T: CommScalar>(
        &self,
        src: usize,
        dst: usize,
        tag: Tag,
        seq: u64,
        payload: Vec<T>,
    ) -> usize {
        let bytes = payload.len() * std::mem::size_of::<T>();
        let mut w = self.windows.lock().expect("integrity window poisoned");
        let bound = self.stream_bound;
        let stream = w.streams.entry((src, dst, tag)).or_default();
        stream.push_back(Entry { seq, bytes, payload: Box::new(payload) });
        let mut total: usize = stream.iter().map(|e| e.bytes).sum();
        let mut evicted = 0usize;
        while total > bound && stream.len() > 1 {
            let e = stream.pop_front().expect("stream holds more than one entry");
            total -= e.bytes;
            evicted += e.bytes;
        }
        w.held_bytes = w.held_bytes + bytes - evicted;
        w.peak_held = w.peak_held.max(w.held_bytes);
        w.held_bytes
    }

    /// Serve a NACK: clone the staged copy of `seq` on
    /// `(src, dst, tag)`, subjecting it to the link's retransmission
    /// hazard. `None` when the window no longer holds the entry.
    fn retransmit<T: CommScalar>(
        &self,
        src: usize,
        dst: usize,
        tag: Tag,
        seq: u64,
    ) -> Option<Vec<T>> {
        let mut copy: Vec<T> = {
            let windows = self.windows.lock().expect("integrity window poisoned");
            let stream = windows.streams.get(&(src, dst, tag))?;
            let entry = stream.iter().find(|e| e.seq == seq)?;
            entry.payload.downcast_ref::<Vec<T>>()?.clone()
        };
        // The ordinal advances once per retransmission actually served
        // on the link; the receiver is single-threaded, so the stream of
        // ordinals on each link is deterministic.
        let k = self.retx_served[src * self.size + dst].fetch_add(1, Ordering::Relaxed);
        if let Some(plan) = &self.plan {
            if let Some(mask) = plan.retransmit_corrupt_mask(src, dst, k) {
                if let Some(first) = copy.first_mut() {
                    *first = first.corrupt(mask);
                }
            }
        }
        Some(copy)
    }

    /// Cumulative ACK: delivery of `seq` on `(src, dst, tag)` proves
    /// every earlier message of the stream was delivered too (per-pair
    /// FIFO); prune them all.
    fn ack(&self, src: usize, dst: usize, tag: Tag, seq: u64) {
        let mut w = self.windows.lock().expect("integrity window poisoned");
        let mut freed = 0usize;
        let mut empty = false;
        if let Some(stream) = w.streams.get_mut(&(src, dst, tag)) {
            stream.retain(|e| {
                if e.seq > seq {
                    true
                } else {
                    freed += e.bytes;
                    false
                }
            });
            empty = stream.is_empty();
        }
        if empty {
            w.streams.remove(&(src, dst, tag));
        }
        w.held_bytes -= freed;
    }

    /// Total messages currently staged across all streams.
    #[cfg(test)]
    fn staged(&self) -> usize {
        let w = self.windows.lock().expect("integrity window poisoned");
        w.streams.values().map(|s| s.len()).sum()
    }

    /// Bytes currently staged across all streams.
    #[cfg(test)]
    fn held_bytes(&self) -> usize {
        self.windows.lock().expect("integrity window poisoned").held_bytes
    }

    /// High-water mark of [`IntegrityState::held_bytes`] since
    /// construction.
    #[cfg(test)]
    fn peak_held_bytes(&self) -> usize {
        self.windows.lock().expect("integrity window poisoned").peak_held
    }
}

/// A rank's private protocol cursors: the next sequence number per
/// outgoing stream and the expected sequence number per incoming stream.
///
/// Every world collective draws a fresh tag, so its streams are spent
/// the moment it returns; [`RankCursor::retire_world_collectives`] drops
/// them, and the maps hold the streams of the collective in flight plus
/// the bounded sets of user and sub-communicator tags.
#[derive(Default)]
pub(crate) struct RankCursor {
    next_seq: std::cell::RefCell<HashMap<(usize, Tag), u64>>,
    expected: std::cell::RefCell<HashMap<(usize, Tag), u64>>,
}

impl RankCursor {
    fn next_send_seq(&self, dst: usize, tag: Tag) -> u64 {
        let mut map = self.next_seq.borrow_mut();
        let c = map.entry((dst, tag)).or_insert(0);
        let seq = *c;
        *c += 1;
        seq
    }

    fn expected_recv_seq(&self, src: usize, tag: Tag) -> u64 {
        *self.expected.borrow_mut().entry((src, tag)).or_insert(0)
    }

    fn advance_recv(&self, src: usize, tag: Tag) {
        *self.expected.borrow_mut().entry((src, tag)).or_insert(0) += 1;
    }

    /// Forget the streams of every world collective before the one that
    /// is drawing `current` ([`world_collective_tag`] of its counter). A
    /// rank has finished all its sends and receives of collective `k`
    /// when it draws tag `k + 1` and no later message carries tag `k`, so
    /// no sequence number on the wire changes.
    pub(crate) fn retire_world_collectives(&self, current: Tag) {
        let spent = |&(_, tag): &(usize, Tag)| (world_collective_tag(0)..current).contains(&tag);
        self.next_seq.borrow_mut().retain(|key, _| !spent(key));
        self.expected.borrow_mut().retain(|key, _| !spent(key));
    }

    /// Streams currently tracked, both directions.
    #[cfg(test)]
    pub(crate) fn streams(&self) -> usize {
        self.next_seq.borrow().len() + self.expected.borrow().len()
    }
}

/// One rank's attachment to the protocol: the world-shared replay
/// windows and this rank's private stream cursors.
/// Owned by the rank's [`WorldComm`].
pub(crate) struct WorldIntegrity {
    pub(crate) state: Arc<IntegrityState>,
    pub(crate) cursor: RankCursor,
}

/// Sender half of the protocol, the first stage of a world send: assign
/// `data` its envelope and stage the pristine copy, before the fault
/// stage (or a real NIC) can touch the payload.
pub(crate) fn protocol_send<T: CommScalar>(
    comm: &WorldComm,
    ig: &WorldIntegrity,
    dst: usize,
    tag: Tag,
    data: &[T],
) -> WireHeader {
    let seq = ig.cursor.next_send_seq(dst, tag);
    let checksum = checksum_payload(tag, seq, data);
    ig.state.stage(comm.rank(), dst, tag, seq, data.to_vec());
    WireHeader { seq, checksum }
}

/// Receiver half of the protocol, the last stage of a world receive:
/// verify the envelope `header` that arrived with `data`, repair by
/// pulling retransmissions on mismatch, acknowledge on acceptance.
///
/// # Panics
/// Unwinds with [`CommError::Corrupt`] when the retry budget is
/// exhausted or the replay window no longer holds the message; the rank
/// boundary ([`crate::runtime::run_ranks_opts`]) catches it.
pub(crate) fn protocol_recv<T: CommScalar>(
    comm: &WorldComm,
    ig: &WorldIntegrity,
    src: usize,
    tag: Tag,
    mut data: Vec<T>,
    header: WireHeader,
) -> Vec<T> {
    let (state, cursor) = (&ig.state, &ig.cursor);
    let me = comm.rank();
    let expected = cursor.expected_recv_seq(src, tag);
    // Link-layer drop repair (the fault stage's retry loop) guarantees
    // gap-free streams; a mismatch here is a protocol bug, not a fault.
    assert_eq!(
        header.seq, expected,
        "integrity stream {src} -> {me} tag {tag}: got seq {}, expected {expected}",
        header.seq
    );
    let mut pulls = 0u32;
    loop {
        if checksum_payload(tag, header.seq, &data) == header.checksum {
            if pulls > 0 {
                comm.note_corrupt_repaired();
            }
            cursor.advance_recv(src, tag);
            state.ack(src, me, tag, header.seq);
            return data;
        }
        if pulls >= MAX_RETRIES {
            std::panic::panic_any(CommError::Corrupt {
                link: (src, me),
                seq: header.seq,
                detail: format!(
                    "tag {tag}: checksum mismatch persisted through {pulls} retransmissions \
                     (budget {MAX_RETRIES})"
                ),
            });
        }
        pulls += 1;
        comm.note_retransmit();
        if pulls > 1 {
            // NACK round-trips back off linearly; the first pull is
            // immediate.
            std::thread::sleep(BACKOFF * (pulls - 1));
        }
        data = state.retransmit::<T>(src, me, tag, header.seq).unwrap_or_else(|| {
            std::panic::panic_any(CommError::Corrupt {
                link: (src, me),
                seq: header.seq,
                detail: format!(
                    "tag {tag}: replay window no longer holds the message after {pulls} pulls"
                ),
            })
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_binds_payload_tag_seq_and_length() {
        let data = vec![1.0f32, 2.0, 3.0];
        let base = checksum_payload(7, 0, &data);
        assert_eq!(base, checksum_payload(7, 0, &data));
        assert_ne!(base, checksum_payload(8, 0, &data));
        assert_ne!(base, checksum_payload(7, 1, &data));
        assert_ne!(base, checksum_payload(7, 0, &data[..2]));
        let mut corrupted = data.clone();
        corrupted[1] = corrupted[1].corrupt(0xdead);
        assert_ne!(base, checksum_payload(7, 0, &corrupted));
        // Trailing-element corruption is visible too (not just the first).
        let mut tail = data.clone();
        tail[2] = tail[2].corrupt(1);
        assert_ne!(base, checksum_payload(7, 0, &tail));
    }

    /// Everything the checksum must notice, at every length around the
    /// lane count: `len < LANES` (remainder only), whole stripes, and
    /// stripes plus a remainder.
    fn check_lane_edges<T: CommScalar + PartialEq + std::fmt::Debug>(zero: T) {
        const L: usize = CHECKSUM_LANES;
        for len in 0..=2 * L + 3 {
            // Distinct elements: `corrupt` xors `mask | 1` into the value.
            let data: Vec<T> = (0..len).map(|i| zero.corrupt(2 * i as u64)).collect();
            let base = checksum_payload(7, 3, &data);
            let at = |what: &str| format!("{} len {len}: {what}", std::any::type_name::<T>());
            assert_ne!(base, checksum_payload(8, 3, &data), "{}", at("tag"));
            assert_ne!(base, checksum_payload(7, 4, &data), "{}", at("seq"));
            for i in 0..len {
                for mask in [0u64, 1, 0x80, 0xdead_beef, u64::MAX] {
                    let mut hit = data.clone();
                    hit[i] = hit[i].corrupt(mask);
                    assert_ne!(base, checksum_payload(7, 3, &hit), "{}", at("one element"));
                }
                // Same lane (`j − i = L`) and neighbouring lanes.
                for j in [i + 1, i + L] {
                    if j < len {
                        let mut swapped = data.clone();
                        swapped.swap(i, j);
                        assert_ne!(data[i], data[j]);
                        assert_ne!(base, checksum_payload(7, 3, &swapped), "{}", at("a swap"));
                    }
                }
            }
            let mut longer = data.clone();
            longer.push(zero);
            assert_ne!(base, checksum_payload(7, 3, &longer), "{}", at("an appended tail"));
            if len > 0 {
                assert_ne!(base, checksum_payload(7, 3, &data[..len - 1]), "{}", at("a lost tail"));
            }
        }
    }

    #[test]
    fn checksum_sees_every_change_at_its_lane_edges() {
        macro_rules! check {
            ($t:ty, $v:ident, $corrupt:expr, $bits:expr) => {
                check_lane_edges::<$t>(<$t>::default());
            };
        }
        crate::p2p::for_each_comm_scalar!(check);
    }

    #[test]
    fn window_stages_retransmits_and_prunes_on_ack() {
        let state = IntegrityState::new(2);
        state.stage(0, 1, 5, 0, vec![1.0f32]);
        state.stage(0, 1, 5, 1, vec![2.0f32]);
        state.stage(0, 1, 9, 0, vec![3.0f32]);
        assert_eq!(state.staged(), 3);
        assert_eq!(state.retransmit::<f32>(0, 1, 5, 0), Some(vec![1.0]));
        assert_eq!(state.retransmit::<f32>(0, 1, 5, 1), Some(vec![2.0]));
        // Unknown seq / stream → None.
        assert_eq!(state.retransmit::<f32>(0, 1, 5, 7), None);
        assert_eq!(state.retransmit::<f32>(1, 0, 5, 0), None);
        // Cumulative ACK of seq 1 prunes seqs 0 and 1 of that stream only.
        state.ack(0, 1, 5, 1);
        assert_eq!(state.staged(), 1);
        assert_eq!(state.retransmit::<f32>(0, 1, 5, 0), None);
        assert_eq!(state.retransmit::<f32>(0, 1, 9, 0), Some(vec![3.0]));
    }

    #[test]
    fn byte_bound_evicts_only_the_offending_streams_oldest() {
        // 12-byte bound; each 3-element f32 payload is exactly 12 bytes.
        let state = IntegrityState::new(2).with_stream_bound(12);
        assert_eq!(state.stage(0, 1, 5, 0, vec![1.0f32, 1.0, 1.0]), 12);
        // Staging seq 1 would hold 24 bytes on the stream: seq 0 is
        // evicted, and a later NACK for it finds nothing (the typed
        // window-miss path in protocol_recv).
        assert_eq!(state.stage(0, 1, 5, 1, vec![2.0f32, 2.0, 2.0]), 12);
        assert_eq!(state.retransmit::<f32>(0, 1, 5, 0), None);
        assert_eq!(state.retransmit::<f32>(0, 1, 5, 1), Some(vec![2.0, 2.0, 2.0]));
        // Other streams are untouched by the eviction.
        assert_eq!(state.stage(0, 1, 9, 0, vec![3.0f32]), 16);
        assert_eq!(state.retransmit::<f32>(0, 1, 9, 0), Some(vec![3.0]));

        // A single message larger than the bound stays repairable: only
        // the backlog is evicted, never the just-staged entry.
        let tight = IntegrityState::new(2).with_stream_bound(4);
        assert_eq!(tight.stage(0, 1, 5, 0, vec![0.5f32; 8]), 32);
        assert_eq!(tight.retransmit::<f32>(0, 1, 5, 0), Some(vec![0.5; 8]));
    }

    #[test]
    fn held_bytes_gauge_tracks_stage_and_ack() {
        let state = IntegrityState::new(2).with_stream_bound(1024);
        assert_eq!(state.held_bytes(), 0);
        state.stage(0, 1, 5, 0, vec![1.0f32; 4]); // 16 B
        state.stage(0, 1, 5, 1, vec![1.0f32; 2]); // 8 B
        assert_eq!(state.held_bytes(), 24);
        assert_eq!(state.peak_held_bytes(), 24);
        state.ack(0, 1, 5, 0);
        assert_eq!(state.held_bytes(), 8);
        // The peak is a high-water mark; it does not fall with the ACK.
        assert_eq!(state.peak_held_bytes(), 24);
        state.ack(0, 1, 5, 1);
        assert_eq!(state.held_bytes(), 0);
        assert_eq!(state.staged(), 0);
    }

    #[test]
    fn planned_retransmit_corruption_fires_by_served_ordinal() {
        let state =
            IntegrityState::new(2).with_plan(FaultPlan::new(3).corrupt_retransmit_nth(0, 1, 1));
        state.stage(0, 1, 5, 0, vec![4.0f32]);
        // Ordinal 0: clean. Ordinal 1: corrupted. Ordinal 2: clean again.
        assert_eq!(state.retransmit::<f32>(0, 1, 5, 0), Some(vec![4.0]));
        let corrupted = state.retransmit::<f32>(0, 1, 5, 0).unwrap();
        assert_ne!(corrupted, vec![4.0]);
        assert_eq!(state.retransmit::<f32>(0, 1, 5, 0), Some(vec![4.0]));
    }

    #[test]
    fn cursor_tracks_streams_independently() {
        let c = RankCursor::default();
        assert_eq!(c.next_send_seq(1, 5), 0);
        assert_eq!(c.next_send_seq(1, 5), 1);
        assert_eq!(c.next_send_seq(1, 9), 0);
        assert_eq!(c.next_send_seq(0, 5), 0);
        assert_eq!(c.expected_recv_seq(1, 5), 0);
        c.advance_recv(1, 5);
        assert_eq!(c.expected_recv_seq(1, 5), 1);
        assert_eq!(c.expected_recv_seq(0, 5), 0);
    }
}
