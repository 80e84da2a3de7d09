//! Bounded admission queue: accept-or-shed, never block the client.
//!
//! The vendored channel stand-in offers only unbounded channels, so the
//! bound is enforced with an atomic depth counter *reserved before the
//! send*: a successful reservation guarantees the enqueue, and a full
//! queue rejects with the typed [`ServeError::QueueFull`] instead of
//! applying backpressure — overload turns into fast, measurable load
//! shedding rather than unbounded queueing delay (the queue would
//! otherwise absorb arbitrary latency and every deadline would pass in
//! line).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use fg_tensor::Tensor;

use crate::error::ServeError;
use crate::server::InferResult;

/// An admitted request, as the batcher sees it.
pub(crate) struct Admitted {
    /// The single-sample input, `(1, C, H, W)`.
    pub x: Tensor,
    /// Absolute completion deadline.
    pub deadline: Instant,
    /// When admission accepted the request (latency baseline).
    pub admitted_at: Instant,
    /// Terminal-reply channel back to the client.
    pub reply: Sender<InferResult>,
}

/// The bounded admission queue.
pub(crate) struct AdmissionQueue {
    tx: Sender<Admitted>,
    rx: Receiver<Admitted>,
    depth: AtomicUsize,
    capacity: usize,
}

impl AdmissionQueue {
    pub(crate) fn new(capacity: usize) -> AdmissionQueue {
        assert!(capacity > 0, "admission queue needs a positive capacity");
        let (tx, rx) = unbounded();
        AdmissionQueue { tx, rx, depth: AtomicUsize::new(0), capacity }
    }

    /// Admit or shed. A `Full` result is the typed load-shedding path;
    /// the request was *not* enqueued and the client owns it again.
    pub(crate) fn try_push(&self, item: Admitted) -> Result<(), ServeError> {
        let mut cur = self.depth.load(Ordering::Acquire);
        loop {
            if cur >= self.capacity {
                return Err(ServeError::QueueFull { capacity: self.capacity });
            }
            match self.depth.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        assert!(self.tx.send(item).is_ok(), "queue receiver outlives the server");
        Ok(())
    }

    /// Pop the oldest admitted request, waiting at most `timeout`.
    pub(crate) fn pop(&self, timeout: Duration) -> Option<Admitted> {
        match self.rx.recv_timeout(timeout) {
            Ok(item) => {
                self.depth.fetch_sub(1, Ordering::AcqRel);
                Some(item)
            }
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
        }
    }

    /// Drain everything currently queued (shutdown path).
    pub(crate) fn drain(&self) -> Vec<Admitted> {
        let mut out = Vec::new();
        while let Some(item) = self.pop(Duration::ZERO) {
            out.push(item);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_tensor::Shape4;

    fn req(tag: u64) -> (Admitted, Receiver<InferResult>) {
        let (tx, rx) = unbounded();
        let now = Instant::now();
        let a = Admitted {
            x: Tensor::zeros(Shape4::new(1, 1, 2, 2)),
            // Tag requests by deadline offset so pop order is checkable.
            deadline: now + Duration::from_secs(tag),
            admitted_at: now,
            reply: tx,
        };
        (a, rx)
    }

    fn tag_of(a: &Admitted) -> u64 {
        a.deadline.duration_since(a.admitted_at).as_secs()
    }

    #[test]
    fn sheds_typed_when_full_and_frees_capacity_on_pop() {
        let q = AdmissionQueue::new(2);
        let (a, _r1) = req(1);
        let (b, _r2) = req(2);
        let (c, _r3) = req(3);
        q.try_push(a).unwrap();
        q.try_push(b).unwrap();
        assert_eq!(q.try_push(c).unwrap_err(), ServeError::QueueFull { capacity: 2 });
        assert_eq!(q.depth.load(Ordering::Acquire), 2);
        assert_eq!(tag_of(&q.pop(Duration::ZERO).unwrap()), 1);
        let (c2, _r4) = req(3);
        q.try_push(c2).unwrap();
        let drained = q.drain();
        assert_eq!(drained.iter().map(tag_of).collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(q.depth.load(Ordering::Acquire), 0);
    }
}
