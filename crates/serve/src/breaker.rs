//! Per-replica circuit breaker.
//!
//! State machine (see DESIGN.md "Serving tier"):
//!
//! ```text
//!            consecutive failures ≥ threshold, or trip()
//!   Closed ────────────────────────────────────────────▶ Open
//!     ▲                                                   │ cooldown
//!     │ probe succeeds                                    ▼ elapsed
//!     └──────────────────────────────────────────────  HalfOpen
//!                       probe fails ▶ Open                (one probe)
//! ```
//!
//! Inputs: dispatch outcomes (`record_success` / `record_failure`),
//! hard world-death signals from the watchdog / rank-failure path
//! (`trip`, immediate open), the replica driver's rebuild completion
//! (`probe`, skip the cooldown and offer one probe), and
//! [`fg_comm::TrafficStats`] repair-traffic health (`note_health`, a
//! soft failure when integrity repairs per job exceed the alert level —
//! a link can be lossy enough to hurt latency without ever failing a
//! dispatch outright).

use std::sync::Mutex;
use std::time::{Duration, Instant};

use fg_comm::TrafficStats;

/// Consecutive dispatch failures that open the breaker.
const FAILURE_THRESHOLD: u32 = 3;

/// Time an open breaker waits before offering a half-open probe.
const COOLDOWN: Duration = Duration::from_millis(25);

/// Integrity repairs (drops retransmitted + corruptions repaired) per
/// job above which an epoch's traffic counts as a soft failure.
const REPAIR_ALERT: f64 = 32.0;

/// Observable breaker state (for metrics and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: dispatches flow.
    Closed,
    /// Failing: dispatches are refused until the cooldown elapses.
    Open,
    /// One probe dispatch is allowed; its outcome decides.
    HalfOpen,
}

#[derive(Debug)]
enum State {
    Closed { consecutive: u32 },
    Open { since: Instant },
    HalfOpen { probing: bool },
}

/// A per-replica circuit breaker.
#[derive(Debug)]
pub struct CircuitBreaker {
    state: Mutex<State>,
}

impl Default for CircuitBreaker {
    /// A closed breaker with no failures recorded.
    fn default() -> CircuitBreaker {
        CircuitBreaker { state: Mutex::new(State::Closed { consecutive: 0 }) }
    }
}

impl CircuitBreaker {
    /// Read-only view.
    pub fn state(&self) -> BreakerState {
        match *self.state.lock().unwrap() {
            State::Closed { .. } => BreakerState::Closed,
            State::Open { .. } => BreakerState::Open,
            State::HalfOpen { .. } => BreakerState::HalfOpen,
        }
    }

    /// Whether a dispatch may proceed *right now*, acquiring the
    /// half-open probe slot if that is what permits it. Callers must
    /// follow up with [`CircuitBreaker::record_success`] or
    /// [`CircuitBreaker::record_failure`].
    pub fn try_acquire(&self) -> bool {
        let mut s = self.state.lock().unwrap();
        match &mut *s {
            State::Closed { .. } => true,
            State::Open { since } => {
                if since.elapsed() >= COOLDOWN {
                    *s = State::HalfOpen { probing: true };
                    true
                } else {
                    false
                }
            }
            State::HalfOpen { probing } => {
                if *probing {
                    false
                } else {
                    *probing = true;
                    true
                }
            }
        }
    }

    /// Whether a dispatch *could* proceed, without taking the probe.
    pub fn available(&self) -> bool {
        let s = self.state.lock().unwrap();
        match &*s {
            State::Closed { .. } => true,
            State::Open { since } => since.elapsed() >= COOLDOWN,
            State::HalfOpen { probing } => !*probing,
        }
    }

    /// A dispatch completed: close.
    pub fn record_success(&self) {
        *self.state.lock().unwrap() = State::Closed { consecutive: 0 };
    }

    /// A dispatch failed or timed out.
    pub fn record_failure(&self) {
        let mut s = self.state.lock().unwrap();
        match &mut *s {
            State::Closed { consecutive } => {
                *consecutive += 1;
                if *consecutive >= FAILURE_THRESHOLD {
                    *s = State::Open { since: Instant::now() };
                }
            }
            State::HalfOpen { .. } => *s = State::Open { since: Instant::now() },
            State::Open { .. } => {}
        }
    }

    /// Hard health signal (world death: watchdog timeout or rank
    /// failure) — open immediately, no threshold.
    pub fn trip(&self) {
        *self.state.lock().unwrap() = State::Open { since: Instant::now() };
    }

    /// The replica rebuilt and wants back in: skip the cooldown and
    /// offer one probe (re-admission).
    pub fn probe(&self) {
        *self.state.lock().unwrap() = State::HalfOpen { probing: false };
    }

    /// Soft health signal from an epoch's traffic: if the integrity
    /// layer repaired more than `REPAIR_ALERT` incidents per job, the
    /// replica's links are degraded — count one failure so sustained
    /// gray traffic opens the breaker.
    pub fn note_health(&self, stats: &TrafficStats, jobs: u64) {
        if jobs == 0 {
            return;
        }
        let repairs = (stats.retransmits() + stats.corrupt_repaired()) as f64;
        if repairs / jobs as f64 > REPAIR_ALERT {
            self.record_failure();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opens_after_threshold_then_recloses_via_probe() {
        let b = CircuitBreaker::default();
        assert!(b.try_acquire());
        for _ in 1..FAILURE_THRESHOLD {
            b.record_failure();
            assert_eq!(b.state(), BreakerState::Closed);
        }
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.try_acquire(), "open breaker refuses inside cooldown");
        std::thread::sleep(COOLDOWN + Duration::from_millis(1));
        assert!(b.try_acquire(), "cooldown elapsed: half-open probe");
        assert!(!b.try_acquire(), "only one probe at a time");
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn failed_probe_reopens_and_trip_is_immediate() {
        let b = CircuitBreaker::default();
        b.trip();
        assert_eq!(b.state(), BreakerState::Open);
        b.probe();
        assert!(b.try_acquire());
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn repair_traffic_counts_as_soft_failures() {
        let b = CircuitBreaker::default();
        let mut stats = TrafficStats::default();
        for _ in 0..100 {
            stats.record_retransmit();
            stats.record_corrupt_repaired();
        }
        for _ in 0..FAILURE_THRESHOLD {
            b.note_health(&stats, 5); // 40 repairs/job > 32.0
        }
        assert_eq!(b.state(), BreakerState::Open);
        b.record_success();
        let healthy = TrafficStats::default();
        b.note_health(&healthy, 5);
        assert_eq!(b.state(), BreakerState::Closed);
    }
}
