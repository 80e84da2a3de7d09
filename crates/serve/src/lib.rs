//! # fg-serve — the inference serving tier
//!
//! Turns the paper's strong-scaling substrate into a latency-bound
//! system: requests with deadlines flow through a **bounded admission
//! queue** (typed load shedding when full), a **deadline-aware dynamic
//! batcher** (close a batch at size B, or when the oldest request's
//! deadline slack hits the dispatch-cost estimate), and a router over
//! independent **replica worlds**, each a thread-per-rank
//! [`fg_core::DistExecutor`] running `forward_inference` under the
//! integrity-over-faults communicator stack.
//!
//! Robustness is request-shaped, not step-shaped:
//!
//! * per-dispatch **timeout** and **retry with exponential backoff** on
//!   a different replica (replicas are deterministic functions of the
//!   request batch, so which one answers is unobservable);
//! * a per-replica **circuit breaker** fed by dispatch outcomes,
//!   world-death (watchdog / rank-failure) signals, and
//!   [`fg_comm::TrafficStats`] repair-traffic health;
//! * a replica that loses a rank mid-traffic fails its in-flight
//!   batches *typed* (the dispatcher routes around it), rebuilds on the
//!   surviving ranks via the elastic-degradation path, and re-admits
//!   through a half-open probe — offered load sees elevated p99, not
//!   silent wrong answers.
//!
//! The correctness contract, pinned by the chaos tests: **every
//! accepted request terminates with either logits equal to the
//! single-process reference ([`fg_core::ServableModel::infer`]) or a
//! typed error** ([`ServeError`]). For models with *sharded* heads
//! (segmentation — the paper's family) the equality is **bitwise on
//! every grid** a replica may rebuild onto; for per-sample (GAP → FC)
//! heads it is bitwise under sample parallelism and ULP-close under
//! spatial partitioning, where GAP's spatial allreduce reorders the
//! summation (quantified in `tests/proptests.rs`). Drops and corruption
//! are repaired below us by the integrity layer; kills surface as typed
//! retries.

pub mod batcher;
pub mod breaker;
pub mod error;
pub mod loadgen;
pub mod queue;
pub mod replica;
pub mod server;

pub use breaker::{BreakerState, CircuitBreaker};
pub use error::ServeError;
pub use loadgen::{run_load, LoadConfig, LoadMode, LoadReport};
pub use replica::ReplicaSpec;
pub use server::{InferReply, InferResult, MetricsSnapshot, Response, Server};

use std::time::Duration;

/// Tuning for the serving front-end. Defaults suit the small CNNs the
/// test and bench harnesses serve; every knob is exercised by
/// `repro -- serve`.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bounded admission queue depth; submissions beyond it are shed
    /// with [`ServeError::QueueFull`].
    pub queue_capacity: usize,
    /// Close a batch at this many requests.
    pub max_batch: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig { queue_capacity: 256, max_batch: 8 }
    }
}

/// Shared, EMA-smoothed estimate of one batch's dispatch cost.
#[derive(Debug)]
pub(crate) struct CostEstimator {
    nanos: std::sync::Mutex<f64>,
}

impl CostEstimator {
    pub(crate) fn new(prior: Duration) -> CostEstimator {
        CostEstimator { nanos: std::sync::Mutex::new(prior.as_nanos() as f64) }
    }

    pub(crate) fn estimate(&self) -> Duration {
        Duration::from_nanos(*self.nanos.lock().unwrap() as u64)
    }

    /// Fold an observed batch latency in (EMA, α = 0.2).
    pub(crate) fn observe(&self, latency: Duration) {
        let mut e = self.nanos.lock().unwrap();
        *e = 0.8 * *e + 0.2 * latency.as_nanos() as f64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_estimator_tracks_observations() {
        let c = CostEstimator::new(Duration::from_millis(1));
        assert_eq!(c.estimate(), Duration::from_millis(1));
        for _ in 0..60 {
            c.observe(Duration::from_millis(3));
        }
        let e = c.estimate();
        assert!(e > Duration::from_micros(2900) && e < Duration::from_micros(3100), "{e:?}");
    }
}
