//! The world runtime: spawns one thread per rank and wires up channels.
//!
//! [`run_ranks`] is the entry point used throughout the workspace: it
//! builds a fully-connected mesh of unbounded channels (one per ordered
//! rank pair, preserving per-pair FIFO order exactly like MPI), runs the
//! given closure on every rank concurrently, and returns the per-rank
//! results in rank order.
//!
//! There is one world communicator, [`WorldComm`], and one way to launch
//! it; everything else is a [`RunOptions`] value:
//!
//! * [`run_ranks_opts`] returns per-rank `Result`s under explicit
//!   options: the integrity protocol, a seeded
//!   [`crate::fault::FaultPlan`], a virtual-time [`LinkModel`]. Rank
//!   deaths (injected kills, observed peer failures, watchdog aborts)
//!   come back as [`CommError`] values instead of crashing the process.
//! * [`run_ranks`] and [`run_ranks_timed`] take their options from the
//!   environment ([`RunOptions::from_env`], the workspace's only reader
//!   of it: `FG_COMM_INTEGRITY`) and panic on any rank's [`CommError`].
//!
//! Every world runs under the deadlock watchdog ([`crate::watchdog`]):
//! every receive polls, so an accidental deadlock aborts in tens of
//! milliseconds with a wait-graph diagnostic instead of hanging, and a
//! peer's death is observed with its reason. Integrity and fault
//! injection are fixed stages of [`WorldComm`]'s `send` and `recv`, in
//! the one order that is correct: envelope, then faults, then the
//! channel, and the mirror on receive.

use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use crate::error::CommError;
use crate::fault::{FaultPlan, WorldFaults};
use crate::integrity::{self, IntegrityState, RankCursor, WorldIntegrity};
use crate::p2p::{
    world_collective_tag, CommScalar, Communicator, Envelope, Stash, Tag, WireHeader,
};
use crate::stats::{OpClass, TrafficStats};
use crate::watchdog::{Monitor, POLL};

/// Virtual-time link model: seconds for `bytes` to travel from rank
/// `src` to rank `dst`. Injected by [`RunOptions::link`]
/// ([`run_ranks_timed`]) and the discrete-event engine ([`crate::sim`]).
///
/// The closed forms cover the usual cases — a uniform α–β link
/// ([`LinkModel::alpha_beta`]) and a two-level machine with fast links
/// inside a node and slower links between ([`LinkModel::two_level`]).
/// Arbitrary topologies plug in through [`LinkModel::custom`].
#[derive(Clone)]
pub struct LinkModel {
    kind: LinkKind,
}

#[derive(Clone)]
enum LinkKind {
    /// `α + β·bytes` for every rank pair.
    AlphaBeta { alpha: f64, beta: f64 },
    /// Node-aware: ranks `r` and `s` share a node iff
    /// `r / ranks_per_node == s / ranks_per_node`.
    TwoLevel { ranks_per_node: usize, intra: (f64, f64), inter: (f64, f64) },
    /// Arbitrary `(src, dst, bytes) → seconds` closure.
    Custom(Arc<dyn Fn(usize, usize, usize) -> f64 + Send + Sync>),
}

impl LinkModel {
    /// Uniform `α + β·bytes` link between every rank pair.
    pub fn alpha_beta(alpha: f64, beta: f64) -> LinkModel {
        LinkModel { kind: LinkKind::AlphaBeta { alpha, beta } }
    }

    /// Two-level machine: `(intra_alpha, intra_beta)` within a node of
    /// `ranks_per_node` consecutive ranks, `(inter_alpha, inter_beta)`
    /// between nodes — the shape of `fg_perf::Platform::link_between`.
    pub fn two_level(
        ranks_per_node: usize,
        intra_alpha: f64,
        intra_beta: f64,
        inter_alpha: f64,
        inter_beta: f64,
    ) -> LinkModel {
        assert!(ranks_per_node > 0, "a node holds at least one rank");
        LinkModel {
            kind: LinkKind::TwoLevel {
                ranks_per_node,
                intra: (intra_alpha, intra_beta),
                inter: (inter_alpha, inter_beta),
            },
        }
    }

    /// Arbitrary link-time function `(src, dst, bytes) → seconds`.
    pub fn custom(f: impl Fn(usize, usize, usize) -> f64 + Send + Sync + 'static) -> LinkModel {
        LinkModel { kind: LinkKind::Custom(Arc::new(f)) }
    }

    /// Seconds for `bytes` to travel from rank `src` to rank `dst`.
    #[inline]
    pub fn time(&self, src: usize, dst: usize, bytes: usize) -> f64 {
        match &self.kind {
            LinkKind::AlphaBeta { alpha, beta } => alpha + beta * bytes as f64,
            LinkKind::TwoLevel { ranks_per_node, intra, inter } => {
                let (alpha, beta) =
                    if src / ranks_per_node == dst / ranks_per_node { *intra } else { *inter };
                alpha + beta * bytes as f64
            }
            LinkKind::Custom(f) => f(src, dst, bytes),
        }
    }
}

impl std::fmt::Debug for LinkModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            LinkKind::AlphaBeta { alpha, beta } => f
                .debug_struct("LinkModel::AlphaBeta")
                .field("alpha", alpha)
                .field("beta", beta)
                .finish(),
            LinkKind::TwoLevel { ranks_per_node, intra, inter } => f
                .debug_struct("LinkModel::TwoLevel")
                .field("ranks_per_node", ranks_per_node)
                .field("intra", intra)
                .field("inter", inter)
                .finish(),
            LinkKind::Custom(_) => f.write_str("LinkModel::Custom(..)"),
        }
    }
}

/// A rank's handle onto the world communicator — the only world-level
/// [`Communicator`].
///
/// One `WorldComm` exists per rank and lives on that rank's thread. It is
/// `Send` (it is moved into the thread at spawn) but deliberately not
/// `Sync`: a rank is single-threaded, like an MPI process.
///
/// `send` and `recv` run the optional layers as fixed stages. A send is
/// enveloped (sequence number + checksum of the *pristine* payload,
/// staged for replay), then exposed to the fault plan (op tick → kill /
/// delay / slow, per-link drop with link-layer retry when enveloped,
/// corruption), then pushed into the channel; a receive ticks the fault
/// clock, dequeues, then verifies and repairs. The order is not
/// configurable because only this one is right: an envelope computed
/// below the fault stage would certify already-corrupted payloads.
pub struct WorldComm {
    rank: usize,
    size: usize,
    /// `receivers[s]` is the receiving end of the (s → self) channel.
    /// Declared (hence dropped) before `senders`: a peer learns of this
    /// rank's exit from its senders hanging up, and by then every send
    /// to this rank must already fail and be counted as dropped.
    receivers: Vec<Receiver<Envelope>>,
    /// `senders[d]` is the sending end of the (self → d) channel.
    senders: Vec<Sender<Envelope>>,
    /// Out-of-order stash, one per source rank.
    stashes: RefCell<Vec<Stash>>,
    stats: RefCell<TrafficStats>,
    /// Operation class attributed to subsequent sends.
    class: Cell<OpClass>,
    collective_counter: Cell<u64>,
    /// Virtual clock (seconds); advances on [`WorldComm::advance`] and on
    /// receives under a timed run.
    clock: Cell<f64>,
    /// Link model for virtual time; `None` in untimed runs.
    link: Option<LinkModel>,
    /// The world's progress monitor, which blocked receives sweep.
    monitor: Arc<Monitor>,
    /// End-to-end integrity stage ([`RunOptions::integrity`]).
    integrity: Option<WorldIntegrity>,
    /// Fault-injection stage ([`RunOptions::faults`]).
    faults: Option<WorldFaults>,
    /// Accumulated wall time spent *outside* the communicator (compute
    /// between ops); see [`WorldComm::busy_nanos`].
    busy: Cell<u64>,
    /// Instant the previous communication operation returned — the start
    /// of the current compute gap.
    last_return: Cell<Instant>,
}

impl Communicator for WorldComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send<T: CommScalar>(&self, dst: usize, tag: Tag, mut data: Vec<T>) {
        let header =
            self.integrity.as_ref().map(|ig| integrity::protocol_send(self, ig, dst, tag, &data));
        if let Some(faults) = &self.faults {
            if !faults.on_send(self, dst, tag, &mut data, header.as_ref()) {
                return;
            }
        }
        self.send_impl(dst, tag, data, header);
    }

    fn recv<T: CommScalar>(&self, src: usize, tag: Tag) -> Vec<T> {
        if let Some(faults) = &self.faults {
            faults.tick();
        }
        let (data, header) = self.recv_impl(src, tag);
        match &self.integrity {
            Some(ig) => {
                let header = header.expect("every rank of an integrity world envelopes its sends");
                integrity::protocol_recv(self, ig, src, tag, data, header)
            }
            None => data,
        }
    }

    fn next_collective_tag(&self) -> Tag {
        let c = self.collective_counter.get();
        self.collective_counter.set(c + 1);
        let tag = world_collective_tag(c);
        if let Some(ig) = &self.integrity {
            ig.cursor.retire_world_collectives(tag);
        }
        tag
    }

    /// Attribute sends issued inside `f` to `class`. Used by
    /// collectives, halo exchange and shuffles. The outermost scope
    /// names the operation: a scope opened inside another (the
    /// all-to-all a shuffle runs on) books under the outer class.
    fn with_class<R>(&self, class: OpClass, f: impl FnOnce() -> R) -> R {
        if self.class.get() != OpClass::P2p {
            return f();
        }
        self.class.set(class);
        let r = f();
        self.class.set(OpClass::P2p);
        r
    }
}

/// Telemetry: what this rank's traffic cost and how it is doing.
impl WorldComm {
    /// Snapshot of this rank's traffic counters.
    pub fn stats(&self) -> TrafficStats {
        self.stats.borrow().clone()
    }

    /// Comm ops (sends + receives) this rank has performed under a fault
    /// plan — the clock [`FaultPlan::kill_rank`] and
    /// [`FaultPlan::delay_every`] are keyed on, so a probe run can read
    /// it to schedule a kill at an exact operation. 0 in a world
    /// launched without [`RunOptions::faults`].
    pub fn ops(&self) -> u64 {
        self.faults.as_ref().map_or(0, WorldFaults::ops)
    }

    /// Nanoseconds this rank has spent *outside* the communicator —
    /// compute time between communication operations, excluding time
    /// blocked in receives (each op entry accrues the gap since the
    /// previous op returned). This is the per-rank step-time signal the
    /// straggler detector feeds on: a gray-failed rank's compute gaps
    /// stretch while healthy peers' stay flat.
    pub fn busy_nanos(&self) -> u64 {
        // Accrue the gap in flight, so a read between ops (end of a
        // training step) includes the trailing compute.
        self.accrue_busy();
        self.busy.get()
    }

    /// Publish the straggler detector's per-rank slowness ratios
    /// (step-time EMA over world median, 1.0 = healthy) so the deadlock
    /// watchdog can annotate its wait graph — "waiting on rank 3, which
    /// is 4× slow" reads very differently from "deadlocked".
    pub fn note_rank_slowness(&self, ratios: &[f64]) {
        self.monitor.note_rank_slowness(ratios);
    }

    /// One send was dropped instead of delivered (the receiver is gone,
    /// or fault injection ate the message): counted in the stats and
    /// surfaced in watchdog diagnostics.
    pub(crate) fn note_dropped_send(&self) {
        self.stats.borrow_mut().record_dropped_send();
        self.monitor.note_dropped_send(self.rank);
    }

    /// One retransmission on this rank: a dropped message resent at the
    /// link layer, or a replay-window pull after a checksum mismatch.
    pub(crate) fn note_retransmit(&self) {
        self.stats.borrow_mut().record_retransmit();
        self.monitor.note_retransmit(self.rank);
    }

    /// One corrupted message detected and repaired on this rank.
    pub(crate) fn note_corrupt_repaired(&self) {
        self.stats.borrow_mut().record_corrupt_repaired();
        self.monitor.note_corrupt_repaired(self.rank);
    }
}

impl WorldComm {
    /// This rank's virtual time, seconds (always 0 in untimed runs
    /// unless [`WorldComm::advance`] was called).
    pub fn now(&self) -> f64 {
        self.clock.get()
    }

    /// Advance this rank's virtual clock by `dt` seconds of modeled
    /// local work (e.g. a kernel time from a device model).
    pub fn advance(&self, dt: f64) {
        debug_assert!(dt >= 0.0, "time moves forward");
        self.clock.set(self.clock.get() + dt);
    }
}

impl WorldComm {
    /// Close the current compute gap: add `now − last_return` to the
    /// busy total. Called on entry to every comm op (and on
    /// [`WorldComm::busy_nanos`] reads), so time blocked *inside* an
    /// op never counts as compute.
    fn accrue_busy(&self) {
        let now = Instant::now();
        let gap = now.duration_since(self.last_return.get()).as_nanos() as u64;
        self.busy.set(self.busy.get() + gap);
        self.last_return.set(now);
    }

    /// Open a new compute gap: the op is done, the rank is computing.
    fn mark_return(&self) {
        self.last_return.set(Instant::now());
    }

    /// A blocking receive completes no earlier than the message's
    /// arrival: the virtual clock jumps to `max(now, arrival)`.
    fn observe_arrival(&self, env: &Envelope) {
        if self.link.is_some() {
            self.clock.set(self.clock.get().max(env.arrival));
        }
    }

    /// The channel stage of a send: record stats, stamp the arrival,
    /// push into the channel. `header` rides along when the integrity
    /// stage enveloped the payload, so message and byte counts are
    /// identical with integrity on or off.
    fn send_impl<T: CommScalar>(
        &self,
        dst: usize,
        tag: Tag,
        data: Vec<T>,
        header: Option<WireHeader>,
    ) {
        assert!(dst < self.size, "send to rank {dst} in world of {}", self.size);
        self.accrue_busy();
        let bytes = data.len() * T::WIDTH;
        self.stats.borrow_mut().record(self.class.get(), 1, bytes as u64);
        // Under a virtual clock, stamp the arrival time: departure now,
        // plus the modeled link time (α + β·n in the usual models).
        let arrival = match &self.link {
            Some(link) => self.clock.get() + link.time(self.rank, dst, bytes),
            None => 0.0,
        };
        let env = Envelope { tag, payload: Box::new(data), bytes, arrival, header };
        // Count the message as in-flight *before* it enters the channel:
        // a fast receiver may dequeue it immediately, and its decrement
        // must never observe a counter that has not been incremented yet.
        self.monitor.note_send(self.rank, dst);
        match self.senders[dst].send(env) {
            Ok(()) => {}
            // The receiver is gone. Under the plain runtime that means a
            // rank panicked and the scope will propagate; under the fault
            // model it is an expected outcome. Either way the message is
            // lost — count it so a later hung receive is attributable.
            // Except when the fault plan kills `dst`: that message is
            // lost whether it was queued just before the victim unwound
            // or refused just after, and only the second would be
            // counted — a race with another thread's teardown, so
            // neither is.
            Err(_) => {
                self.monitor.note_send_failed(self.rank, dst);
                if !self.faults.as_ref().is_some_and(|f| f.kills(dst)) {
                    self.note_dropped_send();
                }
            }
        }
        self.mark_return();
    }

    /// The channel stage of a receive: stash-aware dequeue, returning the
    /// integrity envelope if the sender attached one.
    fn recv_impl<T: CommScalar>(&self, src: usize, tag: Tag) -> (Vec<T>, Option<WireHeader>) {
        self.accrue_busy();
        let out = self.recv_inner(src, tag);
        self.mark_return();
        out
    }

    /// The stash first, then an interruptible wait: [`POLL`] slices,
    /// between which it checks the watchdog's abort flag and runs its
    /// sweep. Failures unwind with a [`CommError`] payload, caught at
    /// the rank boundary by the launcher.
    fn recv_inner<T: CommScalar>(&self, src: usize, tag: Tag) -> (Vec<T>, Option<WireHeader>) {
        assert!(src < self.size, "recv from rank {src} in world of {}", self.size);
        if let Some(env) = self.stashes.borrow_mut()[src].take(tag) {
            self.observe_arrival(&env);
            return downcast_payload(env, src, tag);
        }
        let m = &self.monitor;
        m.enter_recv(self.rank, src, tag);
        let result = loop {
            // Abort wins over everything else, including a peer's
            // disconnect: once the watchdog trips, every blocked rank
            // reports the same wait-graph Timeout, not whichever
            // teardown artifact it happens to observe first.
            if m.aborted() {
                break Err(m.abort_error(self.rank));
            }
            match self.receivers[src].recv_timeout(POLL) {
                Ok(env) => {
                    m.note_dequeue(src, self.rank);
                    if env.tag == tag {
                        self.observe_arrival(&env);
                        break Ok(downcast_payload(env, src, tag));
                    }
                    self.stashes.borrow_mut()[src].put(env);
                }
                Err(RecvTimeoutError::Timeout) => m.sweep(),
                Err(RecvTimeoutError::Disconnected) => {
                    // A peer tearing down after a watchdog abort wakes
                    // us with Disconnected; report the abort, not the
                    // secondary disconnect.
                    if m.aborted() {
                        break Err(m.abort_error(self.rank));
                    }
                    let detail = m.death_reason(src).unwrap_or_else(|| {
                        format!("hung up while rank {} waited on tag {tag}", self.rank)
                    });
                    break Err(CommError::RankFailed { rank: src, observer: self.rank, detail });
                }
            }
        };
        m.exit_recv(self.rank);
        match result {
            Ok(v) => v,
            Err(e) => std::panic::panic_any(e),
        }
    }
}

fn downcast_payload<T: CommScalar>(
    env: Envelope,
    src: usize,
    tag: Tag,
) -> (Vec<T>, Option<WireHeader>) {
    let header = env.header;
    let payload = *env.payload.downcast::<Vec<T>>().unwrap_or_else(|_| {
        panic!("message from rank {src} tag {tag} has unexpected element type")
    });
    (payload, header)
}

/// Build the channel mesh for a world of `size` ranks, with every
/// attachment `opts` asks for and the launcher's `monitor`.
fn build_world(size: usize, opts: &RunOptions, monitor: &Arc<Monitor>) -> Vec<WorldComm> {
    assert!(size > 0, "world must have at least one rank");
    // channels[s][d] = channel carrying s → d traffic.
    let mut senders: Vec<Vec<Sender<Envelope>>> = Vec::with_capacity(size);
    let mut receivers: Vec<Vec<Option<Receiver<Envelope>>>> =
        (0..size).map(|_| (0..size).map(|_| None).collect()).collect();
    for s in 0..size {
        let mut row = Vec::with_capacity(size);
        for dst_rows in receivers.iter_mut() {
            let (tx, rx) = unbounded();
            row.push(tx);
            dst_rows[s] = Some(rx);
        }
        senders.push(row);
    }
    // One replay-window state per world, shared by all ranks' integrity
    // stages (a receiver pulls retransmissions straight from its
    // sender's window). It carries the fault plan when both are on, so
    // retransmissions suffer the same link hazard as first transmissions.
    let integrity = opts.integrity.then(|| {
        let state = IntegrityState::new(size);
        let state = match &opts.faults {
            Some(plan) => state.with_plan(plan.clone()),
            None => state,
        };
        Arc::new(state)
    });
    let plan = opts.faults.clone().map(Arc::new);
    senders
        .into_iter()
        .zip(receivers)
        .enumerate()
        .map(|(rank, (tx_row, rx_row))| WorldComm {
            rank,
            size,
            senders: tx_row,
            receivers: rx_row.into_iter().map(|r| r.expect("receiver wired")).collect(),
            stashes: RefCell::new((0..size).map(|_| Stash::default()).collect()),
            stats: RefCell::new(TrafficStats::default()),
            class: Cell::new(OpClass::P2p),
            collective_counter: Cell::new(0),
            clock: Cell::new(0.0),
            link: opts.link.clone(),
            monitor: Arc::clone(monitor),
            integrity: integrity
                .clone()
                .map(|state| WorldIntegrity { state, cursor: RankCursor::default() }),
            faults: plan.as_ref().map(|plan| WorldFaults::new(Arc::clone(plan), rank, size)),
            busy: Cell::new(0),
            last_return: Cell::new(Instant::now()),
        })
        .collect()
}

/// What a world runs with ([`run_ranks_opts`]). The default is the
/// watchdog alone: no integrity, no faults, wall-clock time.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Run the end-to-end integrity protocol: every p2p payload travels
    /// checksummed and sequence-numbered, with receiver-driven repair.
    /// Counts and payloads are identical to a run without it (the
    /// envelope rides on the message; repairs never fire on a healthy
    /// world), so it is safe to enable globally via
    /// `FG_COMM_INTEGRITY=1`.
    pub integrity: bool,
    /// Inject delays, drops, corruptions and kills from this seeded
    /// plan, deterministically per its seed. Faults strike below the
    /// integrity envelope: with `integrity` on, injected corruption is
    /// detected at the receiver and repaired from the replay window and
    /// injected drops are repaired by link-layer retransmission, so the
    /// run converges bitwise-identically to the fault-free one.
    pub faults: Option<FaultPlan>,
    /// Run under a **virtual clock**: sends stamp their arrival as
    /// `sender_now + link(src, dst, bytes)`, receives advance the
    /// receiver's clock to the arrival, and [`WorldComm::advance`]
    /// accounts modeled local work.
    pub link: Option<LinkModel>,
}

impl RunOptions {
    /// Fault injection from `plan` (injected drops and kills routinely
    /// strand peers; the watchdog converts those hangs into
    /// [`CommError::Timeout`] wait-graph reports). No integrity: faults
    /// reach the program.
    pub fn with_faults(plan: FaultPlan) -> RunOptions {
        RunOptions { faults: Some(plan), ..RunOptions::default() }
    }

    /// [`RunOptions::with_faults`] plus the integrity protocol: drops
    /// and corruptions are repaired before the program sees them.
    pub fn with_faults_integrity(plan: FaultPlan) -> RunOptions {
        RunOptions { integrity: true, ..RunOptions::with_faults(plan) }
    }

    /// Options from the environment, the one place the process
    /// environment is read: `FG_COMM_INTEGRITY` (per `flag_is_on`)
    /// envelopes all world traffic in the end-to-end integrity protocol.
    pub fn from_env() -> RunOptions {
        let integrity =
            std::env::var_os("FG_COMM_INTEGRITY").is_some_and(|v| flag_is_on(&v.to_string_lossy()));
        RunOptions { integrity, ..RunOptions::default() }
    }
}

/// The truthiness rule of a boolean `FG_*` knob: a value turns the knob
/// on unless it is empty or exactly `0`.
fn flag_is_on(value: &str) -> bool {
    !value.is_empty() && value != "0"
}

thread_local! {
    /// True only on rank threads spawned by [`launch`], whose
    /// [`CommError`] unwinds are caught at the rank boundary. The panic
    /// hook consults this so suppression never leaks to other threads.
    static COMM_PANIC_CAUGHT_HERE: Cell<bool> = const { Cell::new(false) };
}

/// Suppress the default "thread panicked" printout for unwinds whose
/// payload is a [`CommError`] *and* that occur on a rank thread whose
/// boundary will catch them: those are structured fault-model outcomes,
/// not bugs. A `CommError` panic on any other thread (where nothing
/// catches it) and all non-`CommError` panics go to the previously
/// installed hook unchanged.
fn install_comm_panic_hook() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().is::<CommError>() && COMM_PANIC_CAUGHT_HERE.with(|f| f.get()) {
                return;
            }
            prev(info);
        }));
    });
}

/// Best-effort text of a non-[`CommError`] panic payload, recorded as
/// the rank's death reason before the payload is re-raised.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked".into()
    }
}

/// The one spawn/join routine behind every launcher: build the world
/// `opts` describes, run `f` on one thread per rank, and return the
/// per-rank outcomes in rank order. A rank that unwinds with a
/// [`CommError`] payload comes back as that `Err`; any other panic is a
/// genuine bug and is re-raised with its original payload (first in
/// rank order) once every thread is joined.
///
/// Every world carries a progress [`Monitor`], swept by its blocked
/// receives: they poll, so peer deaths and watchdog aborts surface as
/// typed errors.
fn launch<R, F>(size: usize, opts: RunOptions, f: F) -> Vec<Result<R, CommError>>
where
    R: Send,
    F: Fn(&WorldComm) -> R + Send + Sync,
{
    install_comm_panic_hook();
    let monitor = Arc::new(Monitor::new(size));
    let comms = build_world(size, &opts, &monitor);
    std::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|comm| {
                let f = &f;
                let monitor = &monitor;
                scope.spawn(move || {
                    COMM_PANIC_CAUGHT_HERE.with(|flag| flag.set(true));
                    let result =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&comm)));
                    COMM_PANIC_CAUGHT_HERE.with(|flag| flag.set(false));
                    // Publish this rank's fate *before* dropping the comm:
                    // dropping disconnects our channels, and peers that
                    // observe the disconnect look up the death reason.
                    match &result {
                        Ok(_) => monitor.mark_done(comm.rank),
                        Err(payload) => {
                            let reason = match payload.downcast_ref::<CommError>() {
                                Some(e) => e.to_string(),
                                None => panic_message(payload.as_ref()),
                            };
                            monitor.mark_dead(comm.rank, reason);
                        }
                    }
                    drop(comm);
                    result
                })
            })
            .collect();
        // A genuine panic is re-raised as soon as its rank is joined;
        // the scope joins the later ranks before it unwinds.
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(Ok(r)) => Ok(r),
                Ok(Err(payload)) | Err(payload) => match payload.downcast::<CommError>() {
                    Ok(e) => Err(*e),
                    Err(payload) => std::panic::resume_unwind(payload),
                },
            })
            .collect()
    })
}

/// [`launch`] for the launchers that promise plain results and take
/// their guards from the environment: a [`CommError`] on any rank
/// panics with its diagnostic.
fn launch_unwrapped<R, F>(size: usize, opts: RunOptions, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&WorldComm) -> R + Send + Sync,
{
    launch(size, opts, f).into_iter().map(|r| r.unwrap_or_else(|e| panic!("{e}"))).collect()
}

/// Run `f` on `size` ranks concurrently; returns per-rank results in rank
/// order. Panics in any rank propagate with their original payload (fail
/// the test / abort the run).
///
/// The closure receives a reference to the rank's [`WorldComm`]; anything
/// the caller wants back out (results, traffic stats) is returned from
/// the closure.
///
/// `FG_COMM_INTEGRITY` in the environment envelopes the world's traffic;
/// a detected deadlock panics with the wait-graph diagnostic.
pub fn run_ranks<R, F>(size: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&WorldComm) -> R + Send + Sync,
{
    launch_unwrapped(size, RunOptions::from_env(), f)
}

/// Run `f` on `size` ranks under explicit [`RunOptions`]: per-rank
/// results come back as `Result`s, with rank deaths (injected kills,
/// observed peer failures, watchdog aborts, unrepairable corruption)
/// as structured [`CommError`]s instead of process-crashing panics.
///
/// Genuine bugs — panics whose payload is not a [`CommError`] — still
/// propagate and abort the run, exactly like [`run_ranks`].
pub fn run_ranks_opts<R, F>(size: usize, opts: RunOptions, f: F) -> Vec<Result<R, CommError>>
where
    R: Send,
    F: Fn(&WorldComm) -> R + Send + Sync,
{
    launch(size, opts, f)
}

/// [`run_ranks`] under a **virtual clock** ([`RunOptions::link`]): the
/// per-rank results and final clocks come back in rank order — a
/// discrete-event simulation whose event order is the real execution's
/// message order. Guards come from the environment exactly as for
/// [`run_ranks`] and never move a clock.
pub fn run_ranks_timed<R, F>(size: usize, link: LinkModel, f: F) -> Vec<(R, f64)>
where
    R: Send,
    F: Fn(&WorldComm) -> R + Send + Sync,
{
    let opts = RunOptions { link: Some(link), ..RunOptions::from_env() };
    launch_unwrapped(size, opts, |comm| (f(comm), comm.now()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pure string rule, not the process environment (mutating env
    /// vars races under the parallel test runner). `true` is the value
    /// the two old parsers disagreed on.
    #[test]
    fn boolean_knobs_share_one_truthiness_rule() {
        for off in ["", "0"] {
            assert!(!flag_is_on(off), "{off:?} must leave a knob off");
        }
        // Only empty and `0` are off: the rule does not read words.
        for on in ["1", "true", "TRUE", "yes", "2", "00", " ", "false"] {
            assert!(flag_is_on(on), "{on:?} must turn a knob on");
        }
    }

    #[test]
    fn single_rank_world_runs() {
        let out = run_ranks(1, |comm| {
            assert_eq!(comm.rank(), 0);
            assert_eq!(comm.size(), 1);
            42usize
        });
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn ring_pass_delivers_in_rank_order() {
        let out = run_ranks(5, |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(next, 1, vec![comm.rank() as u32]);
            comm.recv::<u32>(prev, 1)[0]
        });
        assert_eq!(out, vec![4, 0, 1, 2, 3]);
    }

    #[test]
    fn per_pair_fifo_is_preserved() {
        let out = run_ranks(2, |comm| {
            if comm.rank() == 0 {
                for i in 0..10u32 {
                    comm.send(1, 3, vec![i]);
                }
                Vec::new()
            } else {
                (0..10).map(|_| comm.recv::<u32>(0, 3)[0]).collect::<Vec<_>>()
            }
        });
        assert_eq!(out[1], (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn out_of_order_tags_are_stashed() {
        let out = run_ranks(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 10, vec![1.0f32]);
                comm.send(1, 20, vec![2.0f32]);
                comm.send(1, 30, vec![3.0f32]);
                0.0
            } else {
                // Consume in reverse tag order.
                let c = comm.recv::<f32>(0, 30)[0];
                let b = comm.recv::<f32>(0, 20)[0];
                let a = comm.recv::<f32>(0, 10)[0];
                a * 100.0 + b * 10.0 + c
            }
        });
        assert_eq!(out[1], 123.0);
    }

    #[test]
    fn sendrecv_cycle_does_not_deadlock() {
        let out = run_ranks(4, |comm| {
            let next = (comm.rank() + 1) % 4;
            let prev = (comm.rank() + 3) % 4;
            comm.sendrecv(next, prev, 9, vec![comm.rank() as u64])[0]
        });
        assert_eq!(out, vec![3, 0, 1, 2]);
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let stats = run_ranks(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, vec![0f32; 16]);
            } else {
                let _ = comm.recv::<f32>(0, 1);
            }
            comm.stats()
        });
        assert_eq!(stats[0].messages(OpClass::P2p), 1);
        assert_eq!(stats[0].bytes(OpClass::P2p), 64);
        assert_eq!(stats[1].total_messages(), 0);
    }

    #[test]
    fn with_class_attributes_and_restores() {
        let stats = run_ranks(2, |comm| {
            if comm.rank() == 0 {
                comm.with_class(OpClass::Halo, || comm.send(1, 1, vec![0u8; 7]));
                comm.send(1, 2, vec![0u8; 3]);
            } else {
                let _ = comm.recv::<u8>(0, 1);
                let _ = comm.recv::<u8>(0, 2);
            }
            comm.stats()
        });
        assert_eq!(stats[0].bytes(OpClass::Halo), 7);
        assert_eq!(stats[0].bytes(OpClass::P2p), 3);
    }

    #[test]
    fn outermost_class_scope_wins() {
        let stats = run_ranks(2, |comm| {
            comm.with_class(OpClass::Shuffle, || {
                comm.with_class(OpClass::AllToAll, || {
                    if comm.rank() == 0 {
                        comm.send(1, 1, vec![0u8; 5]);
                    } else {
                        let _ = comm.recv::<u8>(0, 1);
                    }
                });
            });
            if comm.rank() == 0 {
                comm.send(1, 2, vec![0u8; 2]);
            } else {
                let _ = comm.recv::<u8>(0, 2);
            }
            comm.stats()
        });
        assert_eq!(stats[0].bytes(OpClass::Shuffle), 5);
        assert_eq!(stats[0].bytes(OpClass::AllToAll), 0);
        assert_eq!(stats[0].bytes(OpClass::P2p), 2, "class is restored after the outer scope");
    }

    #[test]
    fn mixed_payload_types_coexist() {
        let out = run_ranks(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, vec![1u32, 2, 3]);
                comm.send(1, 2, vec![1.5f64]);
                0.0
            } else {
                let ints = comm.recv::<u32>(0, 1);
                let floats = comm.recv::<f64>(0, 2);
                ints.iter().sum::<u32>() as f64 + floats[0]
            }
        });
        assert_eq!(out[1], 7.5);
    }

    #[test]
    fn opts_happy_path_returns_ok_per_rank() {
        let out = run_ranks_opts(3, RunOptions::default(), |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.sendrecv(next, prev, 5, vec![comm.rank() as u32])[0]
        });
        let vals: Vec<u32> = out.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(vals, vec![2, 0, 1]);
    }

    #[test]
    fn watchdog_aborts_a_real_deadlock_with_a_wait_graph() {
        // Rank 0 and 1 both wait for a message that is never sent: a
        // textbook deadlock. The watchdog must convert the hang into
        // per-rank Timeout errors carrying the wait graph.
        let out = run_ranks_opts(2, RunOptions::default(), |comm| {
            let peer = 1 - comm.rank();
            comm.recv::<u32>(peer, 77)
        });
        for (rank, r) in out.iter().enumerate() {
            match r {
                Err(CommError::Timeout { rank: tr, detail }) => {
                    assert_eq!(*tr, rank);
                    assert!(detail.contains("wait graph"), "diagnostic: {detail}");
                    assert!(detail.contains("tag 77"), "diagnostic: {detail}");
                }
                other => panic!("expected Timeout, got {other:?}"),
            }
        }
    }

    #[test]
    fn peer_death_is_observed_as_rank_failed() {
        // Rank 0 dies (CommError unwind); rank 1's receive observes the
        // disconnect and reports RankFailed with rank 0's death reason.
        let out = run_ranks_opts(2, RunOptions::default(), |comm| {
            if comm.rank() == 0 {
                std::panic::panic_any(CommError::RankFailed {
                    rank: 0,
                    observer: 0,
                    detail: "killed by fault injection at comm op 0".into(),
                });
            }
            comm.recv::<u32>(0, 4)
        });
        match &out[0] {
            Err(CommError::RankFailed { rank: 0, observer: 0, .. }) => {}
            other => panic!("expected rank 0 self-report, got {other:?}"),
        }
        match &out[1] {
            Err(CommError::RankFailed { rank: 0, observer: 1, detail }) => {
                assert!(detail.contains("fault injection"), "detail: {detail}");
            }
            other => panic!("expected RankFailed, got {other:?}"),
        }
    }

    #[test]
    fn genuine_panic_propagates_and_does_not_hang() {
        // A non-CommError panic (an ordinary test assert) must abort the
        // run with the original payload: without hanging the launch, not
        // as `rank panicked: Any { .. }`, and not as the lower-ranked
        // peer's secondary hang-up.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_ranks_opts(2, RunOptions::default(), |comm| {
                if comm.rank() == 1 {
                    panic!("genuine test bug");
                }
                comm.recv::<u32>(1, 1)
            })
        }));
        let payload = caught.expect_err("the rank's panic must propagate");
        let msg = panic_message(payload.as_ref());
        assert!(msg.contains("genuine test bug"), "{msg}");
    }

    #[test]
    fn plain_world_deadlock_panics_with_the_wait_graph() {
        // `run_ranks` asks the environment for nothing the watchdog
        // needs: both ranks receive first, nobody sends, and the run
        // panics with the diagnostic instead of hanging.
        let caught = std::panic::catch_unwind(|| {
            run_ranks(2, |comm| comm.recv::<u32>(1 - comm.rank(), 77));
        });
        let payload = caught.expect_err("a deadlocked world must panic");
        let msg = panic_message(payload.as_ref());
        assert!(msg.contains("wait graph"), "{msg}");
        assert!(msg.contains("tag 77"), "{msg}");
    }

    #[test]
    fn timed_world_deadlock_times_out_with_the_wait_graph() {
        // A virtual-clock world is launched like any other, so the
        // watchdog guards it: both ranks receive first, nobody sends.
        let opts =
            RunOptions { link: Some(LinkModel::alpha_beta(1e-6, 1e-9)), ..RunOptions::default() };
        let out = run_ranks_opts(2, opts, |comm| comm.recv::<u32>(1 - comm.rank(), 77));
        for (rank, r) in out.iter().enumerate() {
            match r {
                Err(CommError::Timeout { rank: tr, detail }) => {
                    assert_eq!(*tr, rank);
                    assert!(detail.contains("wait graph"), "diagnostic: {detail}");
                }
                other => panic!("expected Timeout, got {other:?}"),
            }
        }
    }

    #[test]
    fn internal_integrity_envelopes_world_traffic_transparently() {
        // The envelope rides on the message, so counts and payloads are
        // identical to a plain run, and a healthy world performs zero
        // repairs.
        let opts = RunOptions { integrity: true, ..RunOptions::default() };
        let out = run_ranks_opts(2, opts, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 3, vec![1.5f32, 2.5]);
                (comm.stats().messages(OpClass::P2p), comm.stats().bytes(OpClass::P2p))
            } else {
                let v = comm.recv::<f32>(0, 3);
                assert_eq!(v, vec![1.5, 2.5]);
                let s = comm.stats();
                (s.retransmits(), s.corrupt_repaired())
            }
        });
        assert_eq!(*out[0].as_ref().unwrap(), (1, 8));
        assert_eq!(*out[1].as_ref().unwrap(), (0, 0));
    }

    #[test]
    fn cursor_stays_bounded_over_hundreds_of_world_collectives() {
        use crate::collectives::{AllreduceAlgorithm, Collectives, ReduceOp};
        // Every world collective draws a fresh tag; the streams of a
        // finished one must not stay in the rank's cursor. A user-tag
        // stream runs alongside and keeps counting — retiring collective
        // streams must not reset it (the receiver asserts every seq).
        let p = 4;
        let opts = RunOptions { integrity: true, ..RunOptions::default() };
        let out = run_ranks_opts(p, opts, |comm| {
            let (right, left) = ((comm.rank() + 1) % p, (comm.rank() + p - 1) % p);
            for i in 0..300usize {
                let alg = [
                    AllreduceAlgorithm::Ring,
                    AllreduceAlgorithm::RecursiveDoubling,
                    AllreduceAlgorithm::Rabenseifner,
                ][i % 3];
                let sum = comm.allreduce_with(&[1u64; 9], ReduceOp::Sum, alg);
                assert_eq!(sum, [p as u64; 9]);
                assert_eq!(comm.sendrecv(right, left, 5, vec![i]), [i]);
            }
            comm.integrity.as_ref().expect("integrity is on").cursor.streams()
        });
        for (rank, streams) in out.into_iter().enumerate() {
            // Both directions of: the last collective's streams (at most
            // one per peer) and the one user-tag stream.
            let streams = streams.unwrap();
            assert!(streams <= 2 * p, "rank {rank}: cursor tracks {streams} streams");
        }
    }

    #[test]
    fn dropped_sends_to_a_dead_peer_are_counted() {
        let out = run_ranks_opts(2, RunOptions::default(), |comm| {
            if comm.rank() == 0 {
                // Wait until rank 1 is gone, then send into the void.
                while std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    comm.recv::<u32>(1, 1)
                }))
                .is_ok()
                {}
                comm.send(1, 2, vec![1u8, 2, 3]);
                comm.stats().dropped_sends()
            } else {
                comm.send(0, 1, vec![9u32]);
                0
            }
        });
        assert_eq!(*out[0].as_ref().unwrap(), 1);
    }
}
