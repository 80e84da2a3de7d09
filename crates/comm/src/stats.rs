//! Per-rank traffic accounting.
//!
//! Every send records one message and its modeled wire size under the
//! *operation class* that is currently active on the sending rank.
//! Collectives activate their own class for the duration of the call, so
//! after a run you can ask "how many bytes did rank 3 move for halo
//! exchanges vs. allreduces?" — the numbers an α–β model needs.

/// Classification of traffic by the logical operation that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Direct user point-to-point traffic.
    P2p,
    /// Halo exchange for spatial partitioning.
    Halo,
    /// Gradient / statistics allreduce.
    Allreduce,
    /// Reduce-scatter phase traffic.
    ReduceScatter,
    /// Allgather phase traffic.
    Allgather,
    /// Barrier (zero-byte messages).
    Barrier,
    /// All-to-all(v) exchange.
    AllToAll,
    /// Gather/scatter to/from a root.
    GatherScatter,
    /// Inter-layer data redistribution (Section III-C shuffles).
    Shuffle,
}

impl OpClass {
    /// All classes, in index order.
    pub const ALL: [OpClass; 9] = [
        OpClass::P2p,
        OpClass::Halo,
        OpClass::Allreduce,
        OpClass::ReduceScatter,
        OpClass::Allgather,
        OpClass::Barrier,
        OpClass::AllToAll,
        OpClass::GatherScatter,
        OpClass::Shuffle,
    ];

    fn index(self) -> usize {
        Self::ALL.iter().position(|c| *c == self).expect("class listed in ALL")
    }
}

/// Message and byte counters for one rank, broken down by [`OpClass`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrafficStats {
    messages: [u64; OpClass::ALL.len()],
    bytes: [u64; OpClass::ALL.len()],
    /// Sends that never reached the peer's channel: the receiver was
    /// already gone (its channel disconnected), or fault injection
    /// dropped the message. Nonzero dropped sends make a later hung
    /// receive attributable to a dead or lossy link instead of looking
    /// like a protocol bug.
    dropped_sends: u64,
    /// Messages whose checksum failed verification on this rank and
    /// were repaired by a retransmission (integrity layer on).
    corrupt_repaired: u64,
    /// Retransmissions this rank initiated: link-layer resends of
    /// dropped messages (sender side) plus replay-window pulls after a
    /// checksum mismatch (receiver side).
    retransmits: u64,
}

impl TrafficStats {
    /// Record `messages` sends totalling `bytes` under `class`.
    pub fn record(&mut self, class: OpClass, messages: u64, bytes: u64) {
        let i = class.index();
        self.messages[i] += messages;
        self.bytes[i] += bytes;
    }

    /// Record one send that was dropped (dead receiver or injected
    /// fault) instead of delivered.
    pub fn record_dropped_send(&mut self) {
        self.dropped_sends += 1;
    }

    /// Sends that were dropped rather than delivered.
    pub fn dropped_sends(&self) -> u64 {
        self.dropped_sends
    }

    /// Record one corrupted message detected and repaired on this rank.
    pub fn record_corrupt_repaired(&mut self) {
        self.corrupt_repaired += 1;
    }

    /// Corrupted messages detected and repaired on this rank.
    pub fn corrupt_repaired(&self) -> u64 {
        self.corrupt_repaired
    }

    /// Record one retransmission initiated by this rank.
    pub fn record_retransmit(&mut self) {
        self.retransmits += 1;
    }

    /// Retransmissions this rank initiated.
    pub fn retransmits(&self) -> u64 {
        self.retransmits
    }

    /// Messages sent under `class`.
    pub fn messages(&self, class: OpClass) -> u64 {
        self.messages[class.index()]
    }

    /// Bytes sent under `class`.
    pub fn bytes(&self, class: OpClass) -> u64 {
        self.bytes[class.index()]
    }

    /// Total messages sent across all classes.
    pub fn total_messages(&self) -> u64 {
        self.messages.iter().sum()
    }

    /// Total bytes sent across all classes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Merge another rank's counters into this one (for world aggregates).
    pub fn merge(&mut self, other: &TrafficStats) {
        for i in 0..self.messages.len() {
            self.messages[i] += other.messages[i];
            self.bytes[i] += other.bytes[i];
        }
        self.dropped_sends += other.dropped_sends;
        self.corrupt_repaired += other.corrupt_repaired;
        self.retransmits += other.retransmits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query_by_class() {
        let mut s = TrafficStats::default();
        s.record(OpClass::Halo, 2, 100);
        s.record(OpClass::Allreduce, 1, 64);
        s.record(OpClass::Halo, 1, 28);
        assert_eq!(s.messages(OpClass::Halo), 3);
        assert_eq!(s.bytes(OpClass::Halo), 128);
        assert_eq!(s.messages(OpClass::Allreduce), 1);
        assert_eq!(s.total_messages(), 4);
        assert_eq!(s.total_bytes(), 192);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = TrafficStats::default();
        a.record(OpClass::P2p, 1, 10);
        let mut b = TrafficStats::default();
        b.record(OpClass::P2p, 2, 20);
        b.record(OpClass::Barrier, 1, 5);
        a.merge(&b);
        assert_eq!(a.messages(OpClass::P2p), 3);
        assert_eq!(a.bytes(OpClass::P2p), 30);
        assert_eq!(a.bytes(OpClass::Barrier), 5);
    }

    #[test]
    fn dropped_sends_are_counted_and_merged() {
        let mut a = TrafficStats::default();
        assert_eq!(a.dropped_sends(), 0);
        a.record_dropped_send();
        a.record_dropped_send();
        assert_eq!(a.dropped_sends(), 2);
        let mut b = TrafficStats::default();
        b.record_dropped_send();
        a.merge(&b);
        assert_eq!(a.dropped_sends(), 3);
        // Dropped sends are not delivered traffic.
        assert_eq!(a.total_messages(), 0);
        assert_eq!(a.total_bytes(), 0);
    }

    #[test]
    fn integrity_counters_accumulate_and_merge() {
        let mut a = TrafficStats::default();
        assert_eq!(a.corrupt_repaired(), 0);
        assert_eq!(a.retransmits(), 0);
        a.record_corrupt_repaired();
        a.record_retransmit();
        a.record_retransmit();
        let mut b = TrafficStats::default();
        b.record_corrupt_repaired();
        b.record_retransmit();
        a.merge(&b);
        assert_eq!(a.corrupt_repaired(), 2);
        assert_eq!(a.retransmits(), 3);
        // Repairs and retransmissions are not delivered traffic either.
        assert_eq!(a.total_messages(), 0);
    }
}
