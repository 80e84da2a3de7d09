//! Replica worlds: independent thread-per-rank inference executors with
//! the elastic-degradation lifecycle.
//!
//! Each replica is one *driver thread* owning a sequence of **epochs**.
//! An epoch is a full world under faults + integrity
//! ([`fg_comm::RunOptions::with_faults_integrity`]): every rank loops on
//! its private job channel, executes
//! [`fg_core::DistExecutor::infer_logits`] for each batch job, and rank
//! 0 (the assembly root) sends the reply. Jobs are fanned out to *all*
//! rank channels under a submission lock, so every rank observes the
//! identical job sequence — the property that keeps collectives from
//! interleaving across concurrent dispatchers.
//!
//! Degradation contract (DESIGN.md "Serving tier"): when a rank dies
//! mid-traffic, the fault unwinds out of the victim as a
//! [`fg_comm::CommError`]; peers blocked on it observe the broken links
//! and unwind too; idle ranks see the session's `failed` flag and leave
//! cleanly. The driver then
//!
//! 1. **trips the breaker** (requests route around the replica),
//! 2. **drains** the in-flight jobs left in the dead epoch's channels,
//!    replying "replica failed" so dispatchers retry immediately
//!    instead of waiting out their timeouts,
//! 3. **rebuilds** on the surviving ranks — re-attribute the dead
//!    ([`fg_comm::attribute_dead_ranks`]), shrink by the trainer's rule
//!    ([`fg_comm::shrink_survivors`]), restrict the fault plan to
//!    survivors, re-plan the strategy at the shrunken world size
//!    (spatial fallback, as the trainer's elastic rung does), recompile
//!    the per-batch-size executor ladder — and
//! 4. **re-admits** through a half-open breaker probe.
//!
//! Inference parameters are replicated on every rank, so a rebuilt
//! replica serves bitwise-identical logits at any world size.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use fg_comm::{
    attribute_dead_ranks, run_ranks_opts, shrink_survivors, CommError, Communicator, FaultPlan,
    RunOptions, TrafficStats, WorldComm,
};
use fg_core::{DistExecutor, ServableModel, Strategy};
use fg_tensor::{ProcGrid, Tensor};

use crate::breaker::CircuitBreaker;

/// Static description of one replica's world.
#[derive(Debug, Clone)]
pub struct ReplicaSpec {
    /// Initial process grid; the world has `grid.size()` ranks.
    pub grid: ProcGrid,
    /// Fault plan injected under this replica (chaos experiments).
    pub faults: FaultPlan,
}

impl ReplicaSpec {
    /// A healthy replica: `grid.size()` ranks, no injected faults.
    pub fn healthy(grid: ProcGrid) -> ReplicaSpec {
        ReplicaSpec { grid, faults: FaultPlan::new(0) }
    }

    /// The same world with a fault plan injected.
    pub fn with_faults(mut self, faults: FaultPlan) -> ReplicaSpec {
        self.faults = faults;
        self
    }
}

/// One batch job, shared (via `Arc`) by every rank of an epoch.
pub(crate) struct BatchJob {
    /// Real (unpadded) request count; rows beyond it are padding.
    pub n_real: usize,
    /// The padded global batch, `(padded, C, H, W)`.
    pub x: Tensor,
    /// Reply channel back to the dispatcher, which awaits this job
    /// alone on it.
    pub reply: Sender<JobReply>,
}

/// The one reply to a batch job: per-request logits rows (`n_real` of
/// them), or `None` when the replica failed and the job should be
/// retried elsewhere.
pub(crate) type JobReply = Option<Vec<Vec<f32>>>;

/// Messages on a rank's job channel.
pub(crate) enum RankMsg {
    Job(Arc<BatchJob>),
    Stop,
}

/// One epoch's shared state: channels, executors, failure flag.
pub(crate) struct Session {
    rank_tx: Vec<Sender<RankMsg>>,
    rank_rx: Vec<Receiver<RankMsg>>,
    /// Set by the first rank that observes a comm failure; idle ranks
    /// poll it and leave, which collapses the world deterministically.
    failed: AtomicBool,
    /// Per-batch-size executor ladder, ascending.
    execs: Vec<(usize, Arc<DistExecutor>)>,
    /// Jobs completed this epoch (health denominator).
    jobs_done: AtomicU64,
}

impl Session {
    /// Smallest planned batch size that fits `n` requests.
    pub(crate) fn padded_size(&self, n: usize) -> Option<usize> {
        self.execs.iter().map(|(b, _)| *b).find(|b| *b >= n)
    }

    fn exec_for(&self, padded: usize) -> &DistExecutor {
        let (_, exec) =
            self.execs.iter().find(|(b, _)| *b == padded).expect("padded size was planned");
        exec
    }
}

/// A serving replica: breaker + current session + driver thread.
pub struct Replica {
    /// Replica index (stable across epochs).
    pub id: usize,
    pub(crate) breaker: CircuitBreaker,
    session: Mutex<Option<Arc<Session>>>,
    /// Serializes job fan-out so all ranks see one job order.
    submit_lock: Mutex<()>,
    /// Dispatches currently in flight (least-loaded routing).
    pub(crate) outstanding: AtomicUsize,
    /// Completed world epochs that ended in failure (i.e. recycles).
    recycles: AtomicU64,
    /// Set when the driver exits for good: no session will ever come.
    dark: AtomicBool,
    stop: Arc<AtomicBool>,
    driver: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Replica {
    /// Spawn the replica's driver thread. `stop` is the server-wide
    /// shutdown flag.
    pub(crate) fn spawn(
        id: usize,
        spec: ReplicaSpec,
        model: Arc<ServableModel>,
        max_batch: usize,
        stop: Arc<AtomicBool>,
    ) -> Arc<Replica> {
        let replica = Arc::new(Replica {
            id,
            breaker: CircuitBreaker::default(),
            session: Mutex::new(None),
            submit_lock: Mutex::new(()),
            outstanding: AtomicUsize::new(0),
            recycles: AtomicU64::new(0),
            dark: AtomicBool::new(false),
            stop,
            driver: Mutex::new(None),
        });
        let r = Arc::clone(&replica);
        let handle = std::thread::Builder::new()
            .name(format!("fg-serve-replica-{id}"))
            .spawn(move || run_driver(&r, &model, spec, max_batch))
            .expect("spawn replica driver");
        *replica.driver.lock().unwrap() = Some(handle);
        replica
    }

    /// The live session, if the replica is admitted.
    pub(crate) fn current_session(&self) -> Option<Arc<Session>> {
        self.session.lock().unwrap().clone()
    }

    /// Fan `job` out to every rank of the current session. Returns
    /// false (job untouched by this replica) when no session is live or
    /// the session already failed.
    pub(crate) fn submit_job(&self, job: &Arc<BatchJob>) -> bool {
        let Some(session) = self.current_session() else { return false };
        if session.failed.load(Ordering::Acquire) {
            return false;
        }
        let _guard = self.submit_lock.lock().unwrap();
        // Receivers live in the session (which we hold), so fan-out is
        // all-or-nothing: no rank can miss a job its peers execute.
        for tx in &session.rank_tx {
            assert!(tx.send(RankMsg::Job(Arc::clone(job))).is_ok(), "session holds the receivers");
        }
        true
    }

    /// Times the replica's world died and was rebuilt.
    pub fn recycles(&self) -> u64 {
        self.recycles.load(Ordering::Acquire)
    }

    /// Whether the driver has exited for good (unservable configuration
    /// or no survivors): no session will ever be published again.
    pub fn is_dark(&self) -> bool {
        self.dark.load(Ordering::Acquire)
    }

    /// Shutdown: nudge the current epoch's ranks and join the driver.
    pub(crate) fn join(&self) {
        debug_assert!(self.stop.load(Ordering::Acquire), "join only after stop is set");
        if let Some(session) = self.current_session() {
            for tx in &session.rank_tx {
                let _ = tx.send(RankMsg::Stop);
            }
        }
        if let Some(handle) = self.driver.lock().unwrap().take() {
            let _ = handle.join();
        }
    }
}

/// The executor ladder: doubling batch sizes from one sample group's
/// worth up to `max_batch` (plus `max_batch` itself), so closed batches
/// pad to the next planned size. Padding is harmless: inference is
/// batch-composition independent, and padded rows are dropped.
fn batch_ladder(group_count: usize, max_batch: usize) -> Vec<usize> {
    let base = group_count.max(1);
    let mut sizes = Vec::new();
    let mut b = base;
    while b < max_batch {
        sizes.push(b);
        b *= 2;
    }
    sizes.push(max_batch.max(base));
    sizes.dedup();
    sizes
}

/// The largest batch the ladder will plan: `max_batch`, or one sample
/// group's worth when the cap sits below the group count. Validation
/// happens at this size — a sample-parallel grid can never populate a
/// batch smaller than its group count, and the ladder never dispatches
/// one.
fn ladder_cap(groups: usize, max_batch: usize) -> usize {
    groups.max(1).max(max_batch)
}

/// Re-plan a strategy for a shrunken world, mirroring the trainer's
/// elastic-degradation rung: spatial fallback at the largest viable
/// size, stepping down until one validates. `spatial_fallback`
/// validates at the ladder cap: sample-parallel candidates serve padded
/// batches of at least one group's worth.
fn replan(model: &ServableModel, max_batch: usize, p: usize) -> Option<(Strategy, usize)> {
    (1..=p).rev().find_map(|p_new| {
        let batch = ladder_cap(p_new, max_batch);
        Strategy::spatial_fallback(&model.spec, batch, p_new).map(|s| (s, p_new))
    })
}

/// Build the per-batch-size executor ladder for a strategy.
fn build_execs(
    model: &ServableModel,
    strategy: &Strategy,
    max_batch: usize,
) -> Vec<(usize, Arc<DistExecutor>)> {
    let groups = strategy.grids.first().map_or(1, |g| g.n);
    batch_ladder(groups, max_batch)
        .into_iter()
        .filter_map(|b| {
            DistExecutor::new(model.spec.clone(), strategy.clone(), b)
                .ok()
                .map(|e| (b, Arc::new(e)))
        })
        .collect()
}

/// The driver: one epoch per loop iteration, rebuild-on-failure.
fn run_driver(
    replica: &Arc<Replica>,
    model: &Arc<ServableModel>,
    spec: ReplicaSpec,
    max_batch: usize,
) {
    let mut world = spec.grid.size();
    let mut plan = spec.faults.clone();
    let mut strategy = Strategy::uniform(&model.spec, spec.grid);
    let mut epoch: u64 = 0;
    loop {
        if replica.stop.load(Ordering::Acquire) {
            break;
        }
        let groups = strategy.grids.first().map_or(1, |g| g.n);
        if strategy.validate(&model.spec, ladder_cap(groups, max_batch)).is_err() {
            break; // unservable configuration: replica stays dark
        }
        let execs = build_execs(model, &strategy, max_batch);
        if execs.is_empty() {
            break;
        }
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..world).map(|_| unbounded()).unzip();
        let session = Arc::new(Session {
            rank_tx: txs,
            rank_rx: rxs,
            failed: AtomicBool::new(false),
            execs,
            jobs_done: AtomicU64::new(0),
        });

        // Publish + (re-)admit: first epoch opens closed, rebuilds get
        // a half-open probe.
        *replica.session.lock().unwrap() = Some(Arc::clone(&session));
        if epoch == 0 {
            replica.breaker.record_success();
        } else {
            replica.breaker.probe();
        }

        let opts = RunOptions::with_faults_integrity(plan.clone());
        let results =
            run_ranks_opts(world, opts, |comm| serve_rank(comm, replica, &session, model));

        // The epoch ended: unpublish and route traffic around us.
        *replica.session.lock().unwrap() = None;
        replica.breaker.trip();
        drain_session(&session);

        // Health: aggregate the epoch's repair traffic.
        let mut stats = TrafficStats::default();
        for s in results.iter().filter_map(|r| r.as_ref().ok()) {
            stats.merge(s);
        }
        replica.breaker.note_health(&stats, session.jobs_done.load(Ordering::Acquire).max(1));

        if replica.stop.load(Ordering::Acquire) {
            break;
        }

        // Failure epoch: attribute the dead, shrink, re-plan, go again.
        replica.recycles.fetch_add(1, Ordering::AcqRel);
        let errors: Vec<CommError> =
            results.iter().filter_map(|r| r.as_ref().err().cloned()).collect();
        let (survivors, live) = shrink_survivors(world, &attribute_dead_ranks(&errors));
        if live == 0 {
            break; // no survivors: the replica is gone for good
        }
        let Some((next_strategy, p_new)) = replan(model, max_batch, live) else {
            break;
        };
        let keep: Vec<usize> = survivors.iter().copied().take(p_new).collect();
        plan = plan.persistent().restrict_to_survivors(&keep);
        strategy = next_strategy;
        world = p_new;
        epoch += 1;
    }
    // Dark forever (or shutting down): leave the breaker open.
    *replica.session.lock().unwrap() = None;
    replica.breaker.trip();
    replica.dark.store(true, Ordering::Release);
}

/// Fail every job still queued in a dead epoch's channels, so
/// dispatchers retry immediately instead of waiting out timeouts. All
/// ranks hold the same job sequence; draining rank 0's channel (plus
/// the others, for Arcs' sake) covers every queued job exactly once.
fn drain_session(session: &Session) {
    for (rank, rx) in session.rank_rx.iter().enumerate() {
        while let Ok(msg) = rx.try_recv() {
            if rank == 0 {
                if let RankMsg::Job(job) = msg {
                    let _ = job.reply.send(None);
                }
            }
        }
    }
}

/// One rank's serving loop: poll the job channel, execute, reply from
/// rank 0. Comm failures mark the session failed and re-panic so the
/// runtime's rank boundary classifies them; idle peers see the flag and
/// leave, collapsing the world without a hang.
fn serve_rank(
    comm: &WorldComm,
    replica: &Replica,
    session: &Session,
    model: &ServableModel,
) -> TrafficStats {
    let rank = comm.rank();
    let rx = session.rank_rx[rank].clone();
    loop {
        if session.failed.load(Ordering::Acquire) || replica.stop.load(Ordering::Acquire) {
            break;
        }
        match rx.recv_timeout(Duration::from_millis(1)) {
            Ok(RankMsg::Job(job)) => {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    let exec = session.exec_for(job.x.shape().n);
                    exec.infer_logits(comm, &model.params, &job.x, model.stats.stats(), 0)
                }));
                match outcome {
                    Ok(assembled) => {
                        session.jobs_done.fetch_add(1, Ordering::AcqRel);
                        if rank == 0 {
                            let full = assembled.expect("root rank receives the assembly");
                            let rows = slice_rows(&full, job.n_real);
                            let _ = job.reply.send(Some(rows));
                        }
                    }
                    Err(payload) => {
                        session.failed.store(true, Ordering::Release);
                        resume_unwind(payload);
                    }
                }
            }
            Ok(RankMsg::Stop) => break,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    comm.stats()
}

/// Split an assembled `(padded, …)` activation into per-request rows,
/// dropping padding.
fn slice_rows(full: &Tensor, n_real: usize) -> Vec<Vec<f32>> {
    let shape = full.shape();
    let row = shape.c * shape.h * shape.w;
    (0..n_real).map(|i| full.as_slice()[i * row..(i + 1) * row].to_vec()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_doubles_from_group_count_and_includes_the_cap() {
        assert_eq!(batch_ladder(1, 8), vec![1, 2, 4, 8]);
        assert_eq!(batch_ladder(2, 8), vec![2, 4, 8]);
        assert_eq!(batch_ladder(1, 6), vec![1, 2, 4, 6]);
        assert_eq!(batch_ladder(4, 2), vec![4], "cap below one group still serves a group");
        assert_eq!(batch_ladder(3, 12), vec![3, 6, 12]);
    }

    #[test]
    fn rows_slice_drops_padding() {
        let t =
            Tensor::from_fn(fg_tensor::Shape4::new(4, 3, 1, 1), |n, c, _, _| (n * 10 + c) as f32);
        let rows = slice_rows(&t, 2);
        assert_eq!(rows, vec![vec![0.0, 1.0, 2.0], vec![10.0, 11.0, 12.0]]);
    }
}
