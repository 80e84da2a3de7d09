//! Deadlock watchdog: a progress monitor over a running world.
//!
//! The halo-exchange and allreduce schedules this substrate exists to
//! run are tightly coupled: one lost or mistagged message leaves some
//! rank blocked in `recv` forever, which on real clusters stalls the
//! whole allocation and in CI times out the job with no diagnostic. The
//! watchdog turns that failure mode into a fast, structured abort.
//!
//! ## Detection condition
//!
//! A world is deadlocked exactly when
//!
//! 1. every *live* rank (not yet returned, not dead) is blocked in
//!    `recv`, and
//! 2. every channel a blocked rank is waiting on is empty, and
//! 3. no progress (sends or dequeues) happened across consecutive polls.
//!
//! Under these conditions no receive can ever complete: nobody is
//! running to produce a message, and nothing already sent can wake a
//! waiter. Condition 3 closes the race where a send lands between the
//! status snapshot and the channel-occupancy check. Rank status is
//! published under a per-rank mutex and counters use `SeqCst`, so a
//! rank observed as `Blocked` has made all of its prior sends visible —
//! the check cannot fire on a world that is merely slow.
//!
//! On detection the watchdog stores a **wait-graph diagnostic** (who
//! waits on whom, on which tag, plus each rank's dropped-send count so a
//! dead receiver is attributable) and raises the abort flag; blocked
//! ranks notice on their next poll and unwind with
//! [`CommError::Timeout`] carrying the diagnostic.
//!
//! ## Who sweeps
//!
//! Every world runs the watchdog, and it has no thread of its own: a
//! rank whose receive waits out a whole `POLL` runs the sweep
//! (`Monitor::sweep`), at most one per `POLL` across the world. A
//! deadlocked world is all blocked ranks, so it is swept as often as a
//! dedicated thread would sweep it; a world whose receives never wait
//! that long never sweeps, and its launch and teardown start and stop
//! nothing beyond the rank threads.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::error::CommError;
use crate::p2p::Tag;

/// Interval between watchdog sweeps (and the granularity at which
/// blocked receives re-check the abort flag and sweep). With [`QUIET_POLLS`] this
/// gives ~15–25 ms to detection: fast enough for tests, coarse enough
/// that a descheduled rank on a loaded machine cannot be mistaken for a
/// deadlock (the condition is stability-based, not purely time-based,
/// so this only bounds latency, not correctness).
pub(crate) const POLL: Duration = Duration::from_millis(5);

/// Number of consecutive quiet sweeps (all live ranks blocked, all
/// awaited channels empty, zero progress) before declaring deadlock.
const QUIET_POLLS: u32 = 3;

/// What one rank is doing right now, as published to the monitor.
#[derive(Debug, Clone)]
pub(crate) enum RankStatus {
    /// Executing user code (or inside a send).
    Running,
    /// Blocked in `recv`, waiting for `(src, tag)`.
    Blocked { src: usize, tag: Tag },
    /// The rank closure returned normally.
    Done,
    /// The rank unwound — injected kill, observed peer failure, or a
    /// genuine panic. The reason is kept for peers' diagnostics.
    Dead { reason: String },
}

/// Shared state between the ranks of one world, swept by its blocked
/// receives.
pub(crate) struct Monitor {
    size: usize,
    /// Bumped on every send and every channel dequeue.
    progress: AtomicU64,
    /// In-flight (sent, not yet dequeued) message count per ordered
    /// rank pair, indexed `src * size + dst`.
    pending: Vec<AtomicUsize>,
    /// Per-rank status, published by the rank itself.
    status: Vec<Mutex<RankStatus>>,
    /// Per-rank dropped-send count (dead receiver or injected drop),
    /// mirrored from `TrafficStats` for the diagnostic.
    dropped: Vec<AtomicU64>,
    /// Per-rank corrupted-and-repaired message count, mirrored from
    /// `TrafficStats` for the diagnostic.
    repaired: Vec<AtomicU64>,
    /// Per-rank retransmission count, mirrored from `TrafficStats`.
    retransmits: Vec<AtomicU64>,
    /// Per-rank slowness ratio (this rank's step-time EMA over the world
    /// median, as `f64` bits; 1.0 = healthy), mirrored from the
    /// straggler detector. Lets the wait-graph diagnostic distinguish
    /// "deadlocked" from "waiting on a rank that is 4× slow".
    slowness: Vec<AtomicU64>,
    /// Set by the sweep that detects a deadlock; blocked receives unwind.
    abort: AtomicBool,
    diagnostic: Mutex<Option<String>>,
    /// What the last sweep saw, held by the rank running the next.
    sweep: Mutex<Sweep>,
}

/// What consecutive sweeps compare: when the last one ran, the progress
/// count it saw, and how many stuck sweeps in a row saw no progress.
struct Sweep {
    at: Instant,
    last_progress: u64,
    quiet: u32,
}

impl Monitor {
    pub(crate) fn new(size: usize) -> Monitor {
        Monitor {
            size,
            progress: AtomicU64::new(0),
            pending: (0..size * size).map(|_| AtomicUsize::new(0)).collect(),
            status: (0..size).map(|_| Mutex::new(RankStatus::Running)).collect(),
            dropped: (0..size).map(|_| AtomicU64::new(0)).collect(),
            repaired: (0..size).map(|_| AtomicU64::new(0)).collect(),
            retransmits: (0..size).map(|_| AtomicU64::new(0)).collect(),
            slowness: (0..size).map(|_| AtomicU64::new(1.0f64.to_bits())).collect(),
            abort: AtomicBool::new(false),
            diagnostic: Mutex::new(None),
            sweep: Mutex::new(Sweep { at: Instant::now(), last_progress: u64::MAX, quiet: 0 }),
        }
    }

    pub(crate) fn note_send(&self, src: usize, dst: usize) {
        self.pending[src * self.size + dst].fetch_add(1, Ordering::SeqCst);
        self.progress.fetch_add(1, Ordering::SeqCst);
    }

    /// Roll back a [`Monitor::note_send`] whose channel push failed
    /// (receiver gone): the message never became in-flight.
    pub(crate) fn note_send_failed(&self, src: usize, dst: usize) {
        self.pending[src * self.size + dst].fetch_sub(1, Ordering::SeqCst);
    }

    pub(crate) fn note_dequeue(&self, src: usize, dst: usize) {
        self.pending[src * self.size + dst].fetch_sub(1, Ordering::SeqCst);
        self.progress.fetch_add(1, Ordering::SeqCst);
    }

    pub(crate) fn note_dropped_send(&self, src: usize) {
        self.dropped[src].fetch_add(1, Ordering::SeqCst);
    }

    pub(crate) fn note_corrupt_repaired(&self, rank: usize) {
        self.repaired[rank].fetch_add(1, Ordering::SeqCst);
    }

    pub(crate) fn note_retransmit(&self, rank: usize) {
        self.retransmits[rank].fetch_add(1, Ordering::SeqCst);
    }

    /// Publish the straggler detector's latest per-rank slowness ratios
    /// (step-time EMA over world median). Any rank may publish — the
    /// detector computes identical vectors on all ranks, so last-write
    /// wins is harmless.
    pub(crate) fn note_rank_slowness(&self, ratios: &[f64]) {
        for (slot, &r) in self.slowness.iter().zip(ratios) {
            slot.store(r.to_bits(), Ordering::SeqCst);
        }
    }

    /// The published slowness ratio of `rank` (1.0 when never published).
    fn slowness_of(&self, rank: usize) -> f64 {
        f64::from_bits(self.slowness[rank].load(Ordering::SeqCst))
    }

    pub(crate) fn enter_recv(&self, rank: usize, src: usize, tag: Tag) {
        *self.status[rank].lock() = RankStatus::Blocked { src, tag };
    }

    pub(crate) fn exit_recv(&self, rank: usize) {
        *self.status[rank].lock() = RankStatus::Running;
    }

    pub(crate) fn mark_done(&self, rank: usize) {
        *self.status[rank].lock() = RankStatus::Done;
    }

    pub(crate) fn mark_dead(&self, rank: usize, reason: String) {
        *self.status[rank].lock() = RankStatus::Dead { reason };
    }

    /// The recorded death reason of `rank`, if it already unwound.
    pub(crate) fn death_reason(&self, rank: usize) -> Option<String> {
        match &*self.status[rank].lock() {
            RankStatus::Dead { reason } => Some(reason.clone()),
            _ => None,
        }
    }

    pub(crate) fn aborted(&self) -> bool {
        self.abort.load(Ordering::SeqCst)
    }

    /// The wait-graph diagnostic, once the watchdog tripped.
    pub(crate) fn diagnostic(&self) -> String {
        self.diagnostic.lock().clone().unwrap_or_else(|| "watchdog aborted the world".into())
    }

    /// The abort error a blocked rank raises after the watchdog trips.
    pub(crate) fn abort_error(&self, rank: usize) -> CommError {
        CommError::Timeout { rank, detail: self.diagnostic() }
    }

    /// One watchdog sweep, run by a rank whose receive just waited a
    /// whole [`POLL`]; a call within `POLL` of the last sweep returns at
    /// once. Trips after [`QUIET_POLLS`] consecutive stuck sweeps with
    /// no progress between them.
    pub(crate) fn sweep(&self) {
        let mut s = self.sweep.lock();
        if s.at.elapsed() < POLL || self.aborted() {
            return;
        }
        let progress = self.progress.load(Ordering::SeqCst);
        let snapshot: Vec<RankStatus> = self.status.iter().map(|st| st.lock().clone()).collect();
        if self.is_stuck(&snapshot) && progress == s.last_progress {
            s.quiet += 1;
            if s.quiet >= QUIET_POLLS {
                self.trip(&snapshot);
            }
        } else {
            s.quiet = 0;
        }
        s.last_progress = progress;
        s.at = Instant::now();
    }

    /// Conditions 1 and 2: at least one live rank, every live rank
    /// blocked, every awaited channel empty.
    fn is_stuck(&self, snapshot: &[RankStatus]) -> bool {
        let mut live = 0usize;
        for (rank, st) in snapshot.iter().enumerate() {
            match st {
                RankStatus::Running => return false,
                RankStatus::Blocked { src, .. } => {
                    live += 1;
                    if self.pending[src * self.size + rank].load(Ordering::SeqCst) > 0 {
                        return false;
                    }
                }
                RankStatus::Done | RankStatus::Dead { .. } => {}
            }
        }
        live > 0
    }

    /// Record the wait-graph diagnostic and raise the abort flag.
    fn trip(&self, snapshot: &[RankStatus]) {
        let mut s = String::from(
            "deadlock: all live ranks blocked in recv with no in-flight messages\nwait graph:\n",
        );
        for (rank, st) in snapshot.iter().enumerate() {
            let line = match st {
                RankStatus::Blocked { src, tag } => {
                    // A known-slow awaited rank reframes the diagnosis:
                    // likely a straggler still working, not a lost
                    // message.
                    let slow = self.slowness_of(*src);
                    if slow >= 1.5 {
                        format!(
                            "  rank {rank}: waits on rank {src} (tag {tag}), link empty — rank \
                             {src} is {slow:.1}× slower than the world median (straggler)\n"
                        )
                    } else {
                        format!("  rank {rank}: waits on rank {src} (tag {tag}), link empty\n")
                    }
                }
                RankStatus::Done => format!("  rank {rank}: done\n"),
                RankStatus::Dead { reason } => format!("  rank {rank}: dead — {reason}\n"),
                RankStatus::Running => format!("  rank {rank}: running\n"),
            };
            s.push_str(&line);
        }
        let render = |counters: &[AtomicU64]| -> String {
            let nonzero: Vec<String> = counters
                .iter()
                .enumerate()
                .filter(|(_, d)| d.load(Ordering::SeqCst) > 0)
                .map(|(r, d)| format!("rank {r}: {}", d.load(Ordering::SeqCst)))
                .collect();
            if nonzero.is_empty() {
                "none".into()
            } else {
                nonzero.join(", ")
            }
        };
        s.push_str(&format!("dropped sends: {}\n", render(&self.dropped)));
        s.push_str(&format!("corruption repaired: {}\n", render(&self.repaired)));
        s.push_str(&format!("retransmits: {}\n", render(&self.retransmits)));
        let slow: Vec<String> = (0..self.size)
            .filter(|&r| self.slowness_of(r) >= 1.5)
            .map(|r| format!("rank {r}: {:.1}× median", self.slowness_of(r)))
            .collect();
        s.push_str(&format!(
            "slow ranks: {}\n",
            if slow.is_empty() { "none".into() } else { slow.join(", ") }
        ));
        *self.diagnostic.lock() = Some(s);
        self.abort.store(true, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stuck_requires_all_live_blocked_and_empty_links() {
        let m = Monitor::new(2);
        // Both running: not stuck.
        assert!(!m.is_stuck(&[RankStatus::Running, RankStatus::Running]));
        // One blocked, one running: not stuck.
        let blocked = RankStatus::Blocked { src: 1, tag: 3 };
        assert!(!m.is_stuck(&[blocked.clone(), RankStatus::Running]));
        // Both blocked on each other, links empty: stuck.
        let b0 = RankStatus::Blocked { src: 1, tag: 3 };
        let b1 = RankStatus::Blocked { src: 0, tag: 3 };
        assert!(m.is_stuck(&[b0.clone(), b1.clone()]));
        // A pending message on an awaited link unsticks the world.
        m.note_send(1, 0);
        assert!(!m.is_stuck(&[b0, b1]));
    }

    #[test]
    fn all_done_or_dead_is_not_a_deadlock() {
        let m = Monitor::new(2);
        assert!(!m.is_stuck(&[RankStatus::Done, RankStatus::Dead { reason: "kill".into() }]));
    }

    #[test]
    fn trip_renders_the_wait_graph_with_dropped_sends() {
        let m = Monitor::new(3);
        m.note_dropped_send(1);
        m.note_corrupt_repaired(0);
        m.note_retransmit(2);
        m.note_retransmit(2);
        m.trip(&[
            RankStatus::Blocked { src: 1, tag: 42 },
            RankStatus::Blocked { src: 0, tag: 42 },
            RankStatus::Dead { reason: "killed by fault injection at comm op 5".into() },
        ]);
        assert!(m.aborted());
        let d = m.diagnostic();
        assert!(d.contains("rank 0: waits on rank 1 (tag 42)"), "{d}");
        assert!(d.contains("rank 1: waits on rank 0 (tag 42)"), "{d}");
        assert!(d.contains("rank 2: dead — killed by fault injection"), "{d}");
        assert!(d.contains("dropped sends: rank 1: 1"), "{d}");
        assert!(d.contains("corruption repaired: rank 0: 1"), "{d}");
        assert!(d.contains("retransmits: rank 2: 2"), "{d}");
    }

    #[test]
    fn pending_counter_stays_balanced_under_concurrent_traffic() {
        // The sanitizer smoke target (scripts/ci.sh runs this test under
        // tsan when a nightly with rust-src is available): hammer
        // note_send / note_send_failed / note_dequeue from racing
        // threads and check every pair-wise counter balances back to
        // zero. An ordering bug that let a decrement land before its
        // increment would wrap the counter to usize::MAX and permanently
        // convince is_stuck() the link is busy, masking real deadlocks.
        use std::sync::Arc;
        const WORLD: usize = 4;
        const ROUNDS: usize = 1000;
        let m = Arc::new(Monitor::new(WORLD));
        let mut handles = Vec::new();
        for src in 0..WORLD {
            for dst in 0..WORLD {
                let m = Arc::clone(&m);
                handles.push(std::thread::spawn(move || {
                    for i in 0..ROUNDS {
                        m.note_send(src, dst);
                        if i % 3 == 0 {
                            // A push that failed rolls its count back.
                            m.note_send_failed(src, dst);
                            m.note_send(src, dst);
                        }
                        m.note_dequeue(src, dst);
                    }
                }));
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        for (i, p) in m.pending.iter().enumerate() {
            assert_eq!(
                p.load(Ordering::SeqCst),
                0,
                "link {}→{} left unbalanced",
                i / WORLD,
                i % WORLD
            );
        }
        // is_stuck must still see the all-blocked world as stuck — no
        // counter wrapped into "forever busy".
        let blocked: Vec<RankStatus> =
            (0..WORLD).map(|r| RankStatus::Blocked { src: (r + 1) % WORLD, tag: 1 }).collect();
        assert!(m.is_stuck(&blocked));
    }

    #[test]
    fn trip_reports_no_integrity_activity_as_none() {
        let m = Monitor::new(1);
        m.trip(&[RankStatus::Blocked { src: 0, tag: 1 }]);
        let d = m.diagnostic();
        assert!(d.contains("corruption repaired: none"), "{d}");
        assert!(d.contains("retransmits: none"), "{d}");
        assert!(d.contains("slow ranks: none"), "{d}");
    }

    #[test]
    fn trip_names_a_known_straggler_instead_of_a_bare_deadlock() {
        let m = Monitor::new(3);
        m.note_rank_slowness(&[1.0, 1.0, 4.0]);
        m.trip(&[
            RankStatus::Blocked { src: 2, tag: 7 },
            RankStatus::Blocked { src: 2, tag: 7 },
            RankStatus::Blocked { src: 0, tag: 7 },
        ]);
        let d = m.diagnostic();
        // The wait edge onto the straggler carries the slowness; the
        // edge onto a healthy rank stays a plain deadlock line.
        assert!(
            d.contains("rank 0: waits on rank 2 (tag 7), link empty — rank 2 is 4.0× slower"),
            "{d}"
        );
        assert!(d.contains("rank 2: waits on rank 0 (tag 7), link empty\n"), "{d}");
        assert!(d.contains("slow ranks: rank 2: 4.0× median"), "{d}");
    }
}
