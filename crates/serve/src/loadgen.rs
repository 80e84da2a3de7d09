//! Open-loop load generation with latency accounting.
//!
//! Arrivals follow a seeded Poisson process at the offered rate,
//! submitted on schedule regardless of completions — the honest way to
//! measure an overloaded server, since waiting for responses (a closed
//! loop of clients) throttles the offered load to whatever the server
//! sustains and hides queueing collapse.
//!
//! The report holds client-observed percentiles over *successful*
//! requests and goodput: completions within their deadline per
//! wall-clock second. Typed failures (shed, deadline, retries, shutdown)
//! are counted, never averaged into latency.

use std::time::{Duration, Instant};

use fg_tensor::Tensor;

use crate::error::ServeError;
use crate::server::Server;

/// One load run's shape.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Offered Poisson arrival rate, requests per second (seeded).
    pub rps: f64,
    /// Total requests to offer.
    pub requests: usize,
    /// Relative deadline attached to every request.
    pub deadline: Duration,
    /// Seed for the arrival process and request inputs.
    pub seed: u64,
}

/// Client-side outcome counts and latency percentiles.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Requests offered (submitted or attempted).
    pub offered: usize,
    /// Shed at admission (typed `QueueFull`).
    pub shed: usize,
    /// Completed with logits.
    pub ok: usize,
    /// Completed with logits within their deadline.
    pub ok_in_deadline: usize,
    /// Typed `DeadlineExceeded` failures.
    pub deadline_exceeded: usize,
    /// Typed `RetriesExhausted` failures.
    pub retries_exhausted: usize,
    /// Typed `Shutdown` failures.
    pub shutdown: usize,
    /// Median successful latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile successful latency, milliseconds.
    pub p99_ms: f64,
    /// In-deadline completions per second of wall time.
    pub goodput_rps: f64,
    /// Wall time from first submission to last resolution.
    pub wall: Duration,
}

/// splitmix64 — the repo's standard seeded pseudo-noise.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform (0, 1].
fn uniform01(state: &mut u64) -> f64 {
    ((splitmix64(state) >> 11) as f64 + 1.0) / (1u64 << 53) as f64
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

#[derive(Default)]
struct Tally {
    shed: usize,
    ok: usize,
    ok_in_deadline: usize,
    deadline_exceeded: usize,
    retries_exhausted: usize,
    shutdown: usize,
    latencies_ms: Vec<f64>,
}

impl Tally {
    fn absorb(&mut self, outcome: &crate::server::InferResult, deadline: Duration) {
        match outcome {
            Ok(reply) => {
                self.ok += 1;
                if reply.latency <= deadline {
                    self.ok_in_deadline += 1;
                }
                self.latencies_ms.push(reply.latency.as_secs_f64() * 1e3);
            }
            Err(ServeError::QueueFull { .. }) => self.shed += 1,
            Err(ServeError::DeadlineExceeded { .. }) => self.deadline_exceeded += 1,
            Err(ServeError::RetriesExhausted { .. }) => self.retries_exhausted += 1,
            Err(ServeError::Shutdown) => self.shutdown += 1,
        }
    }
}

/// Drive `cfg.requests` requests at the server; `make_input(i)` builds
/// the `i`-th request's `(1, C, H, W)` sample. Returns the client-side
/// report (pair with [`Server::metrics`] for the server-side view).
pub fn run_load<F>(server: &Server, make_input: F, cfg: &LoadConfig) -> LoadReport
where
    F: Fn(u64) -> Tensor,
{
    // Terminal replies are guaranteed; this bound only converts a
    // protocol bug into a visible test failure instead of a hang.
    let hang_guard = cfg.deadline + Duration::from_secs(30);
    let start = Instant::now();
    assert!(cfg.rps > 0.0, "open-loop rate must be positive");
    let mut t = Tally::default();
    let mut rng = cfg.seed | 1;
    let mut pending = Vec::with_capacity(cfg.requests);
    let mut next_arrival = Instant::now();
    for i in 0..cfg.requests {
        let now = Instant::now();
        if next_arrival > now {
            std::thread::sleep(next_arrival - now);
        }
        // Exponential inter-arrival at rate `rps`.
        let gap = -uniform01(&mut rng).ln() / cfg.rps;
        next_arrival += Duration::from_secs_f64(gap);
        match server.submit(make_input(i as u64), Instant::now() + cfg.deadline) {
            Ok(resp) => pending.push(resp),
            Err(e) => t.absorb(&Err(e), cfg.deadline),
        }
    }
    for resp in pending {
        let outcome = resp
            .wait_timeout(hang_guard)
            .expect("serving contract: every accepted request terminates");
        t.absorb(&outcome, cfg.deadline);
    }
    let wall = start.elapsed();
    t.latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    LoadReport {
        offered: cfg.requests,
        shed: t.shed,
        ok: t.ok,
        ok_in_deadline: t.ok_in_deadline,
        deadline_exceeded: t.deadline_exceeded,
        retries_exhausted: t.retries_exhausted,
        shutdown: t.shutdown,
        p50_ms: percentile(&t.latencies_ms, 0.50),
        p99_ms: percentile(&t.latencies_ms, 0.99),
        goodput_rps: t.ok_in_deadline as f64 / wall.as_secs_f64().max(1e-9),
        wall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_arrival_stream_are_deterministic() {
        let ms = [1.0, 2.0, 3.0, 4.0, 100.0];
        assert_eq!(percentile(&ms, 0.50), 3.0);
        assert_eq!(percentile(&ms, 0.99), 100.0);
        assert!(percentile(&[], 0.5).is_nan());
        let mut a = 7u64;
        let mut b = 7u64;
        let xs: Vec<u64> = (0..4).map(|_| splitmix64(&mut a)).collect();
        let ys: Vec<u64> = (0..4).map(|_| splitmix64(&mut b)).collect();
        assert_eq!(xs, ys);
        let mut r = 3u64;
        for _ in 0..100 {
            let u = uniform01(&mut r);
            assert!(u > 0.0 && u <= 1.0);
        }
    }
}
