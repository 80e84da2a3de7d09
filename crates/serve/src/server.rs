//! The serving front-end: admission → batcher → dispatchers → replicas.
//!
//! Dispatchers implement the routing policy: breaker-aware least-loaded
//! replica selection, a per-dispatch timeout bounded by the batch's
//! nearest deadline, and retry with exponential backoff on a different
//! replica. Retrying elsewhere is safe by construction: a replica's
//! reply is a deterministic function of the dispatched batch (the
//! crate-level contract pins it to the serial reference), so *which*
//! replica answers is unobservable to the client.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use fg_core::ServableModel;
use fg_nn::LayerKind;
use fg_tensor::{Shape4, Tensor};

use crate::batcher::{run_batcher, ClosedBatch};
use crate::error::ServeError;
use crate::queue::{AdmissionQueue, Admitted};
use crate::replica::{BatchJob, JobReply, Replica, ReplicaSpec};
use crate::{CostEstimator, ServerConfig};

/// Dispatcher threads pulling closed batches to replicas.
pub(crate) const DISPATCHERS: usize = 2;

/// Initial dispatch-cost estimate (one batch, submit → reply); the
/// batcher and router refine it with an EMA of observed latencies.
const COST_PRIOR: Duration = Duration::from_millis(2);

/// Cap on one dispatch attempt's wait (also bounded by the batch's
/// nearest deadline).
const ATTEMPT_TIMEOUT: Duration = Duration::from_millis(250);

/// Dispatch attempts per batch beyond the first.
const MAX_RETRIES: u32 = 6;

/// Base of the exponential retry backoff (doubles per attempt).
const RETRY_BACKOFF: Duration = Duration::from_micros(500);

/// A completed request's payload.
#[derive(Debug, Clone, PartialEq)]
pub struct InferReply {
    /// The final layer's activation for this sample, flattened — equal
    /// to [`ServableModel::infer`] on the same input (bitwise for
    /// sharded heads; see the crate-level contract).
    pub logits: Vec<f32>,
    /// Admission → completion latency.
    pub latency: Duration,
    /// Real requests in the dispatched batch.
    pub batch: usize,
}

/// Terminal outcome of one request.
pub type InferResult = Result<InferReply, ServeError>;

/// Client handle for one accepted request.
pub struct Response {
    rx: Receiver<InferResult>,
}

impl Response {
    /// Block until the terminal outcome. The serving tier guarantees a
    /// terminal reply for every accepted request (the chaos tests pin
    /// "zero hangs"), so this returns; a disconnected channel maps to
    /// the typed [`ServeError::Shutdown`].
    pub fn wait(&self) -> InferResult {
        self.rx.recv().unwrap_or(Err(ServeError::Shutdown))
    }

    /// Like [`Response::wait`] with a wall-clock bound; `None` means
    /// the request is still in flight.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<InferResult> {
        match self.rx.recv_timeout(timeout) {
            Ok(r) => Some(r),
            Err(RecvTimeoutError::Disconnected) => Some(Err(ServeError::Shutdown)),
            Err(RecvTimeoutError::Timeout) => None,
        }
    }
}

/// Monotonic serving counters.
#[derive(Debug, Default)]
pub(crate) struct Metrics {
    pub accepted: AtomicU64,
    pub shed: AtomicU64,
    pub completed_ok: AtomicU64,
    pub deadline_exceeded: AtomicU64,
    pub retries_exhausted: AtomicU64,
    pub shutdown_errors: AtomicU64,
    pub batches: AtomicU64,
    pub batched_requests: AtomicU64,
    pub dispatch_retries: AtomicU64,
}

/// A point-in-time copy of the serving counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Requests past admission.
    pub accepted: u64,
    /// Requests shed at the full admission queue.
    pub shed: u64,
    /// Requests completed with logits.
    pub completed_ok: u64,
    /// Requests failed `DeadlineExceeded`.
    pub deadline_exceeded: u64,
    /// Requests failed `RetriesExhausted`.
    pub retries_exhausted: u64,
    /// Requests failed `Shutdown`.
    pub shutdown_errors: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Requests across all dispatched batches (mean batch size =
    /// `batched_requests / batches`).
    pub batched_requests: u64,
    /// Dispatch attempts beyond each batch's first.
    pub dispatch_retries: u64,
    /// World rebuilds across all replicas (rank deaths absorbed).
    pub replica_recycles: u64,
}

/// State shared by the batcher, dispatchers, and the front-end.
pub(crate) struct ServerShared {
    pub(crate) cfg: ServerConfig,
    pub(crate) stop: Arc<AtomicBool>,
    pub(crate) metrics: Metrics,
    pub(crate) cost: CostEstimator,
    pub(crate) replicas: Vec<Arc<Replica>>,
    /// Closed batches handed to the dispatcher pool but not yet served
    /// to completion. The batcher bounds this (see [`run_batcher`]) so
    /// overload backs up into the admission queue — where it sheds
    /// typed — instead of into an invisible dispatch backlog that blows
    /// every deadline.
    pub(crate) inflight_batches: AtomicUsize,
    input_chw: (usize, usize, usize),
}

/// The serving tier. Construct with [`Server::start`], submit with
/// [`Server::submit`], tear down with [`Server::shutdown`].
pub struct Server {
    shared: Arc<ServerShared>,
    queue: Arc<AdmissionQueue>,
    dispatch_rx: Receiver<ClosedBatch>,
    batcher: Option<std::thread::JoinHandle<()>>,
    dispatchers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Boot the tier: spawn every replica's driver, the batcher, and
    /// the dispatcher pool. Blocks (bounded) until each replica has
    /// published its first session, so early traffic is not spuriously
    /// shed onto cold replicas.
    pub fn start(
        model: Arc<ServableModel>,
        replicas: Vec<ReplicaSpec>,
        cfg: ServerConfig,
    ) -> Server {
        assert!(!replicas.is_empty(), "serving needs at least one replica");
        let input = model
            .spec
            .layers()
            .iter()
            .position(|l| matches!(l.kind, LayerKind::Input { .. }))
            .expect("network has an input layer");
        let input_chw = model.spec.shapes()[input];

        let stop = Arc::new(AtomicBool::new(false));
        let replicas: Vec<Arc<Replica>> = replicas
            .into_iter()
            .enumerate()
            .map(|(i, spec)| {
                Replica::spawn(i, spec, Arc::clone(&model), cfg.max_batch, Arc::clone(&stop))
            })
            .collect();
        // Bounded warmup: wait for first sessions (plan compilation). A
        // replica whose driver already exited (unservable grid for this
        // model) will never publish — skip it instead of burning the
        // deadline.
        let warm_deadline = Instant::now() + Duration::from_secs(30);
        for r in &replicas {
            while r.current_session().is_none() && !r.is_dark() && Instant::now() < warm_deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        if replicas.iter().all(|r| r.is_dark()) {
            eprintln!(
                "fg-serve: every replica is dark (no grid validates for this \
                 model/batch); all requests will fail typed"
            );
        }

        let shared = Arc::new(ServerShared {
            cost: CostEstimator::new(COST_PRIOR),
            cfg,
            stop,
            metrics: Metrics::default(),
            replicas,
            inflight_batches: AtomicUsize::new(0),
            input_chw,
        });
        let queue = Arc::new(AdmissionQueue::new(shared.cfg.queue_capacity));
        let (dispatch_tx, dispatch_rx) = unbounded();

        let batcher = {
            let shared = Arc::clone(&shared);
            let queue = Arc::clone(&queue);
            let tx: Sender<ClosedBatch> = dispatch_tx;
            std::thread::Builder::new()
                .name("fg-serve-batcher".into())
                .spawn(move || run_batcher(&shared, &queue, &tx))
                .expect("spawn batcher")
        };
        let dispatchers = (0..DISPATCHERS)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let rx = dispatch_rx.clone();
                std::thread::Builder::new()
                    .name(format!("fg-serve-dispatch-{i}"))
                    .spawn(move || run_dispatcher(&shared, &rx))
                    .expect("spawn dispatcher")
            })
            .collect();

        Server { shared, queue, dispatch_rx, batcher: Some(batcher), dispatchers }
    }

    /// Submit one `(1, C, H, W)` sample with an absolute deadline.
    /// Sheds typed ([`ServeError::QueueFull`]) when the admission queue
    /// is at capacity; otherwise the returned [`Response`] resolves to
    /// the request's terminal outcome.
    pub fn submit(&self, x: Tensor, deadline: Instant) -> Result<Response, ServeError> {
        let (c, h, w) = self.shared.input_chw;
        assert_eq!(x.shape(), Shape4::new(1, c, h, w), "submit takes one sample in input shape");
        let (tx, rx) = unbounded();
        let admitted = Admitted { x, deadline, admitted_at: Instant::now(), reply: tx };
        match self.queue.try_push(admitted) {
            Ok(()) => {
                self.shared.metrics.accepted.fetch_add(1, Ordering::AcqRel);
                Ok(Response { rx })
            }
            Err(e) => {
                self.shared.metrics.shed.fetch_add(1, Ordering::AcqRel);
                Err(e)
            }
        }
    }

    /// Counters so far.
    pub fn metrics(&self) -> MetricsSnapshot {
        let m = &self.shared.metrics;
        MetricsSnapshot {
            accepted: m.accepted.load(Ordering::Acquire),
            shed: m.shed.load(Ordering::Acquire),
            completed_ok: m.completed_ok.load(Ordering::Acquire),
            deadline_exceeded: m.deadline_exceeded.load(Ordering::Acquire),
            retries_exhausted: m.retries_exhausted.load(Ordering::Acquire),
            shutdown_errors: m.shutdown_errors.load(Ordering::Acquire),
            batches: m.batches.load(Ordering::Acquire),
            batched_requests: m.batched_requests.load(Ordering::Acquire),
            dispatch_retries: m.dispatch_retries.load(Ordering::Acquire),
            replica_recycles: self.shared.replicas.iter().map(|r| r.recycles()).sum(),
        }
    }

    /// Tear the tier down: every queued or in-flight request terminates
    /// typed, every thread joins. Returns the final counters.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(b) = self.batcher.take() {
            let _ = b.join();
        }
        // The batcher is gone; fail any batch it closed but no
        // dispatcher will pick up (they may already be draining).
        while let Ok(batch) = self.dispatch_rx.try_recv() {
            for r in batch.reqs {
                self.shared.metrics.shutdown_errors.fetch_add(1, Ordering::AcqRel);
                let _ = r.reply.send(Err(ServeError::Shutdown));
            }
        }
        for d in self.dispatchers.drain(..) {
            let _ = d.join();
        }
        for r in &self.shared.replicas {
            r.join();
        }
        self.metrics()
    }
}

/// Dispatcher loop: pull closed batches, serve them end to end.
fn run_dispatcher(shared: &Arc<ServerShared>, rx: &Receiver<ClosedBatch>) {
    loop {
        match rx.recv_timeout(Duration::from_millis(2)) {
            Ok(batch) => {
                serve_batch(shared, batch.reqs);
                shared.inflight_batches.fetch_sub(1, Ordering::AcqRel);
            }
            Err(RecvTimeoutError::Timeout) => {
                if shared.stop.load(Ordering::Acquire) {
                    break;
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    while let Ok(batch) = rx.try_recv() {
        fail_all(shared, &batch.reqs, &ServeError::Shutdown);
    }
}

fn fail_all(shared: &ServerShared, reqs: &[Admitted], err: &ServeError) {
    let counter = match err {
        ServeError::DeadlineExceeded { .. } => &shared.metrics.deadline_exceeded,
        ServeError::RetriesExhausted { .. } => &shared.metrics.retries_exhausted,
        ServeError::Shutdown => &shared.metrics.shutdown_errors,
        ServeError::QueueFull { .. } => &shared.metrics.shed,
    };
    for r in reqs {
        counter.fetch_add(1, Ordering::AcqRel);
        let _ = r.reply.send(Err(err.clone()));
    }
}

/// Breaker-aware least-loaded replica choice; acquires the breaker
/// (probe slot included) for the returned replica.
fn pick_replica(shared: &ServerShared, exclude: &[usize]) -> Option<Arc<Replica>> {
    let mut candidates: Vec<&Arc<Replica>> = shared
        .replicas
        .iter()
        .filter(|r| {
            !exclude.contains(&r.id) && r.breaker.available() && r.current_session().is_some()
        })
        .collect();
    candidates.sort_by_key(|r| r.outstanding.load(Ordering::Acquire));
    candidates.into_iter().find(|r| r.breaker.try_acquire()).map(Arc::clone)
}

/// Serve one closed batch to completion: pick → dispatch → retry with
/// backoff → typed failure. Every request gets exactly one terminal
/// reply.
fn serve_batch(shared: &Arc<ServerShared>, reqs: Vec<Admitted>) {
    if shared.stop.load(Ordering::Acquire) {
        fail_all(shared, &reqs, &ServeError::Shutdown);
        return;
    }
    let mut live = reqs;
    let mut attempts: u32 = 0;
    let mut exclude: Vec<usize> = Vec::new();
    loop {
        let now = Instant::now();
        if shared.stop.load(Ordering::Acquire) {
            fail_all(shared, &live, &ServeError::Shutdown);
            return;
        }
        // Cull expired *and doomed* members before burning a replica on
        // them: a request whose remaining slack is below the service
        // estimate cannot win — the replica would compute the full
        // forward only for the dispatcher to discard it, which is how
        // overload turns into wasted-work collapse. (A batch can go
        // stale between closing and reaching a dispatcher, and between
        // retry attempts.)
        let horizon = now + shared.cost.estimate();
        let (viable, doomed): (Vec<_>, Vec<_>) = live.drain(..).partition(|r| r.deadline > horizon);
        if !doomed.is_empty() {
            fail_all(shared, &doomed, &ServeError::DeadlineExceeded { retries: attempts });
        }
        live = viable;
        if live.is_empty() {
            return;
        }
        let min_deadline = live.iter().map(|r| r.deadline).min().expect("non-empty");
        if attempts > MAX_RETRIES {
            fail_all(shared, &live, &ServeError::RetriesExhausted { attempts });
            return;
        }
        let picked = pick_replica(shared, &exclude).or_else(|| pick_replica(shared, &[]));
        let Some(replica) = picked else {
            // Every breaker open or every session down (rebuilds in
            // progress): wait a beat, bounded by the deadline.
            std::thread::sleep(
                Duration::from_millis(1).min(min_deadline.saturating_duration_since(now)),
            );
            continue;
        };
        let budget = min_deadline.saturating_duration_since(now).min(ATTEMPT_TIMEOUT);
        match try_once(shared, &live, &replica, budget) {
            Some((rows, latency)) => {
                let done = Instant::now();
                for (i, r) in live.iter().enumerate() {
                    shared.metrics.completed_ok.fetch_add(1, Ordering::AcqRel);
                    let _ = r.reply.send(Ok(InferReply {
                        logits: rows[i].clone(),
                        latency: done.saturating_duration_since(r.admitted_at),
                        batch: live.len(),
                    }));
                }
                shared.cost.observe(latency);
                return;
            }
            None => {
                attempts += 1;
                shared.metrics.dispatch_retries.fetch_add(1, Ordering::AcqRel);
                exclude = vec![replica.id];
                let backoff = RETRY_BACKOFF
                    .saturating_mul(1 << (attempts - 1).min(6))
                    .min(Duration::from_millis(20))
                    .min(min_deadline.saturating_duration_since(Instant::now()) / 4);
                std::thread::sleep(backoff);
            }
        }
    }
}

/// One dispatch attempt on `replica`, waiting at most `budget`. `Some`
/// carries the reply rows and the attempt's latency; `None` means the
/// attempt failed, for the retry to exclude this replica. A dispatched
/// job's outcome is recorded on the replica's breaker; a job the
/// replica could not take (no live session) records nothing.
fn try_once(
    shared: &ServerShared,
    reqs: &[Admitted],
    replica: &Replica,
    budget: Duration,
) -> Option<(Vec<Vec<f32>>, Duration)> {
    let start = Instant::now();
    let session = replica.current_session()?;
    let padded = session.padded_size(reqs.len())?;
    let (c, h, w) = shared.input_chw;
    let mut x = Tensor::zeros(Shape4::new(padded, c, h, w));
    let row = c * h * w;
    for (i, r) in reqs.iter().enumerate() {
        x.as_mut_slice()[i * row..(i + 1) * row].copy_from_slice(r.x.as_slice());
    }
    let (reply, replies) = unbounded::<JobReply>();
    // `job` holds the reply sender until we return, so the wait below
    // ends on the job's one reply or at the deadline, never on a
    // disconnect.
    let job = Arc::new(BatchJob { n_real: reqs.len(), x, reply });
    if !replica.submit_job(&job) {
        return None;
    }
    replica.outstanding.fetch_add(1, Ordering::AcqRel);
    let won = replies
        .recv_timeout(budget.saturating_sub(start.elapsed()))
        .ok()
        .flatten()
        .map(|rows| (rows, start.elapsed()));
    replica.outstanding.fetch_sub(1, Ordering::AcqRel);
    match won {
        Some(_) => replica.breaker.record_success(),
        None => replica.breaker.record_failure(),
    }
    won
}
