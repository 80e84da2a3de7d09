//! Deadline-aware dynamic batching.
//!
//! The batcher is one thread between the admission queue and the
//! dispatch channel. It accumulates requests into an open batch and
//! closes it when the first of three conditions hits:
//!
//! 1. **size** — the batch reached `max_batch`;
//! 2. **slack** — the oldest deadline's remaining slack fell to the
//!    dispatch-cost estimate (EMA of observed batch latencies) plus a
//!    safety margin: waiting longer would spend the time the dispatch
//!    itself needs;
//! 3. **linger** — the oldest request has waited `BATCH_LINGER`, the
//!    cap that keeps lone requests with generous deadlines from
//!    queueing indefinitely for company.
//!
//! Requests whose deadline has already passed are failed typed
//! (`DeadlineExceeded`) instead of being dispatched — their slot in the
//! batch would be wasted work.
//!
//! Handoff is gated by a **bounded dispatch window** (active
//! dispatchers + 1 closed batches in flight). A full window means the
//! tier is at capacity: the batcher keeps accumulating toward
//! `max_batch` instead of queueing more small batches, and sustained
//! overload backs up into the bounded admission queue where new
//! arrivals shed typed (`QueueFull`) at submit time — fast failure at
//! the edge, not deadline storms in the middle.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::Sender;

use crate::error::ServeError;
use crate::queue::{AdmissionQueue, Admitted};
use crate::server::{ServerShared, DISPATCHERS};

/// Safety margin added to the cost estimate in the batch-close rule.
const BATCH_SLACK_MARGIN: Duration = Duration::from_micros(500);

/// Maximum time the oldest request may linger in an open batch,
/// regardless of remaining deadline slack.
const BATCH_LINGER: Duration = Duration::from_millis(2);

/// A closed batch on its way to a dispatcher.
pub(crate) struct ClosedBatch {
    pub reqs: Vec<Admitted>,
}

/// The batcher loop. Exits once the server's stop flag is set, failing
/// everything still queued with the typed `Shutdown` error.
pub(crate) fn run_batcher(
    shared: &Arc<ServerShared>,
    queue: &AdmissionQueue,
    out: &Sender<ClosedBatch>,
) {
    let cfg = &shared.cfg;
    let mut open: Vec<Admitted> = Vec::new();
    loop {
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        if open.is_empty() {
            if let Some(a) = queue.pop(Duration::from_millis(2)) {
                open.push(a);
            }
            continue;
        }

        let now = Instant::now();
        let raw_est = shared.cost.estimate();
        let est = raw_est + BATCH_SLACK_MARGIN;
        // Expired — and *doomed* — requests exit the batch typed, not
        // dispatched: a request whose remaining slack is already below
        // the dispatch-cost estimate cannot make its deadline, and
        // serving it anyway burns replica time that fresh requests
        // need. Under overload this is what keeps goodput at capacity
        // instead of collapsing into 100%-wasted work. (The cull
        // threshold sits `BATCH_SLACK_MARGIN` below the slack-close
        // threshold, so a batch still closes and dispatches in the
        // window between them.)
        open.retain(|r| {
            if r.deadline.saturating_duration_since(now) <= raw_est {
                shared.metrics.deadline_exceeded.fetch_add(1, Ordering::AcqRel);
                let _ = r.reply.send(Err(ServeError::DeadlineExceeded { retries: 0 }));
                false
            } else {
                true
            }
        });
        if open.is_empty() {
            continue;
        }
        let nearest_deadline = open.iter().map(|r| r.deadline).min().expect("non-empty");
        let oldest_admitted = open.iter().map(|r| r.admitted_at).min().expect("non-empty");
        let close_by_slack = nearest_deadline.saturating_duration_since(now) <= est;
        let close_by_linger = now.duration_since(oldest_admitted) >= BATCH_LINGER;
        if open.len() >= cfg.max_batch || close_by_slack || close_by_linger {
            // Bounded dispatch window: at most one queued batch beyond
            // the active dispatchers. When the window is full, keep
            // accumulating toward `max_batch` — larger batches are the
            // efficient response to pressure — and let overload back up
            // into the bounded admission queue, where it sheds typed at
            // submit instead of silently aging here.
            let window = DISPATCHERS + 1;
            if shared.inflight_batches.load(Ordering::Acquire) < window {
                shared.metrics.batches.fetch_add(1, Ordering::AcqRel);
                shared.metrics.batched_requests.fetch_add(open.len() as u64, Ordering::AcqRel);
                shared.inflight_batches.fetch_add(1, Ordering::AcqRel);
                let _ = out.send(ClosedBatch { reqs: std::mem::take(&mut open) });
                continue;
            }
            if open.len() >= cfg.max_batch {
                // Nothing more to accumulate: wait for a dispatch slot.
                // The retain() above keeps pruning expired requests
                // typed while we wait.
                std::thread::sleep(Duration::from_micros(100));
                continue;
            }
        }

        // Wait for company, but never past the earliest close condition.
        let until_slack = nearest_deadline.saturating_duration_since(now).saturating_sub(est);
        let until_linger = (oldest_admitted + BATCH_LINGER).saturating_duration_since(now);
        let wait = until_slack
            .min(until_linger)
            .clamp(Duration::from_micros(50), Duration::from_millis(1));
        if let Some(a) = queue.pop(wait) {
            open.push(a);
        }
    }
    // Shutdown: everything still open or queued terminates typed.
    for r in open.into_iter().chain(queue.drain()) {
        shared.metrics.shutdown_errors.fetch_add(1, Ordering::AcqRel);
        let _ = r.reply.send(Err(ServeError::Shutdown));
    }
}
