//! Per-step numerical health checks with distributed agreement.
//!
//! Message integrity (the `fg-comm` envelope layer) protects the wires;
//! this module protects the *math*. A silent compute error — a bit flip
//! in an FMA, a diverging optimizer, an overflowing activation — shows
//! up as a non-finite or wildly spiking loss/gradient long before it
//! shows up as a crash, and by then every replica has applied the
//! poisoned update. [`StepGuard`] screens each step **before** the
//! optimizer commits it:
//!
//! 1. **Local screen** ([`StepGuard::screen_local`]): the step's global
//!    mean loss must be finite; every layer's gradient ℓ₂² (computed in
//!    f64 by [`fg_nn::LayerParams::l2_sq`], which propagates any NaN/Inf
//!    in any element) must be finite; and, after `WARMUP` accepted
//!    steps, the loss must not exceed `SPIKE_FACTOR` × its exponential
//!    moving average.
//! 2. **Distributed agreement** ([`StepGuard::agree_any`]): the per-rank
//!    verdicts are OR-reduced with a `Max` allreduce over `u32` flags,
//!    so either *every* rank commits the step or *every* rank rejects
//!    it. Without this, a fault visible on one rank only (e.g. an
//!    injected replica perturbation) would desynchronize the replicated
//!    optimizer state — some ranks stepping, some rolling back — which
//!    is unrecoverable without a world rebuild.
//!
//! The EMA baseline lives in [`fg_nn::GuardState`] so checkpoints carry
//! it: a run restored from a snapshot resumes spike detection with the
//! same baseline it would have had uninterrupted, keeping recovered
//! trajectories bitwise identical to undisturbed ones.

use fg_comm::{Collectives, Communicator, ReduceOp};
use fg_nn::{GuardState, LayerParams};

/// Reject a step whose loss exceeds this multiple of the EMA baseline
/// (only after `WARMUP` accepted steps).
const SPIKE_FACTOR: f64 = 10.0;

/// EMA decay: `ema ← decay·ema + (1 − decay)·loss`.
const EMA_DECAY: f64 = 0.9;

/// Number of accepted steps before spike screening activates (the first
/// steps of training legitimately move the loss fast).
const WARMUP: u64 = 3;

/// Why a step was rejected by the local screen.
#[derive(Debug, Clone, PartialEq)]
pub enum Anomaly {
    /// The global mean loss is NaN or ±Inf.
    NonFiniteLoss {
        /// The offending loss value.
        value: f64,
    },
    /// A layer's gradient contains a NaN or ±Inf element.
    NonFiniteGradient {
        /// Index of the first offending layer.
        layer: usize,
    },
    /// The loss is finite but exceeds `SPIKE_FACTOR` × the EMA baseline.
    LossSpike {
        /// The offending loss value.
        value: f64,
        /// The EMA baseline it was compared against.
        ema: f64,
    },
}

impl std::fmt::Display for Anomaly {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Anomaly::NonFiniteLoss { value } => write!(f, "non-finite loss {value}"),
            Anomaly::NonFiniteGradient { layer } => {
                write!(f, "non-finite gradient in layer {layer}")
            }
            Anomaly::LossSpike { value, ema } => {
                write!(f, "loss {value} spiked past the EMA baseline {ema}")
            }
        }
    }
}

/// The per-step numerical health check: local screening plus
/// distributed agreement, with a checkpointable EMA baseline.
///
/// A fresh guard ([`StepGuard::default`]) has no baseline yet.
#[derive(Debug, Clone, Default)]
pub struct StepGuard {
    state: GuardState,
}

impl StepGuard {
    /// Resume a guard from checkpointed state (EMA baseline + accepted
    /// step count), so spike detection after a restore behaves exactly
    /// as it would have uninterrupted.
    pub fn with_state(state: GuardState) -> StepGuard {
        StepGuard { state }
    }

    /// The serializable baseline, for embedding in a checkpoint.
    pub fn state(&self) -> GuardState {
        self.state
    }

    /// Screen one step's outputs locally. `None` means the step looks
    /// healthy on this rank; the verdict still needs
    /// [`StepGuard::agree_any`] before it is safe to act on.
    pub fn screen_local(&self, loss: f64, grads: &[LayerParams]) -> Option<Anomaly> {
        if !loss.is_finite() {
            return Some(Anomaly::NonFiniteLoss { value: loss });
        }
        for (layer, g) in grads.iter().enumerate() {
            if !g.l2_sq().is_finite() {
                return Some(Anomaly::NonFiniteGradient { layer });
            }
        }
        if self.state.steps >= WARMUP && loss > SPIKE_FACTOR * self.state.ema {
            return Some(Anomaly::LossSpike { value: loss, ema: self.state.ema });
        }
        None
    }

    /// Fold this step's accepted loss into the EMA baseline. Call only
    /// for steps that passed the screen on every rank — rejected steps
    /// must not move the baseline, or a rolled-back spike would raise
    /// the bar for detecting its own replay.
    pub fn record(&mut self, loss: f64) {
        self.state.ema = if self.state.steps == 0 {
            loss
        } else {
            EMA_DECAY * self.state.ema + (1.0 - EMA_DECAY) * loss
        };
        self.state.steps += 1;
    }

    /// Distributed agreement: `true` iff **any** rank flagged an
    /// anomaly this step. A `Max` allreduce over `0/1` flags is a
    /// logical OR with a deterministic reduction order, so every rank
    /// reaches the same verdict at the same collective — the precondition
    /// for collectively rolling back instead of desynchronizing.
    pub fn agree_any<C: Communicator>(&self, comm: &C, local_anomaly: bool) -> bool {
        comm.allreduce(&[local_anomaly as u32], ReduceOp::Max)[0] != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_comm::run_ranks;

    fn healthy_grads() -> Vec<LayerParams> {
        vec![LayerParams::None, LayerParams::Bn { gamma: vec![0.5, -0.25], beta: vec![0.125] }]
    }

    #[test]
    fn ema_baseline_seeds_then_decays() {
        let mut g = StepGuard::default();
        g.record(4.0);
        assert_eq!(g.state(), GuardState { ema: 4.0, steps: 1 });
        g.record(2.0);
        assert_eq!(g.state(), GuardState { ema: 3.8, steps: 2 });
    }

    #[test]
    fn screen_flags_non_finite_loss_and_gradients() {
        let g = StepGuard::default();
        assert_eq!(g.screen_local(2.0, &healthy_grads()), None);
        // NaN never compares equal, so match structurally.
        assert!(matches!(
            g.screen_local(f64::NAN, &healthy_grads()),
            Some(Anomaly::NonFiniteLoss { value }) if value.is_nan()
        ));
        assert!(matches!(
            g.screen_local(f64::NEG_INFINITY, &healthy_grads()),
            Some(Anomaly::NonFiniteLoss { .. })
        ));
        let mut grads = healthy_grads();
        grads[1] = LayerParams::Bn { gamma: vec![f32::INFINITY], beta: vec![0.0] };
        assert_eq!(g.screen_local(2.0, &grads), Some(Anomaly::NonFiniteGradient { layer: 1 }));
    }

    #[test]
    fn spike_screen_respects_warmup_and_factor() {
        let mut g = StepGuard::default();
        // During the three warm-up steps: a 100x jump passes.
        for _ in 0..3 {
            assert_eq!(g.screen_local(100.0, &healthy_grads()), None);
            g.record(1.0);
        }
        // After warmup: 10x (the factor itself) passes, 11x trips.
        assert_eq!(g.state().ema, 1.0);
        assert_eq!(g.screen_local(10.0, &healthy_grads()), None);
        assert_eq!(
            g.screen_local(11.0, &healthy_grads()),
            Some(Anomaly::LossSpike { value: 11.0, ema: 1.0 })
        );
    }

    #[test]
    fn rejected_steps_do_not_move_the_baseline() {
        let mut g = StepGuard::default();
        for _ in 0..3 {
            g.record(1.0);
        }
        let before = g.state();
        assert!(g.screen_local(1e6, &healthy_grads()).is_some());
        // The caller never records a rejected loss; state is untouched.
        assert_eq!(g.state(), before);
    }

    #[test]
    fn agreement_is_a_logical_or_across_ranks() {
        let verdicts = run_ranks(3, |comm| {
            let g = StepGuard::default();
            let quiet = g.agree_any(comm, false);
            let one_flagged = g.agree_any(comm, comm.rank() == 1);
            (quiet, one_flagged)
        });
        for (quiet, one_flagged) in verdicts {
            assert!(!quiet, "no rank flagged, yet the world rolled back");
            assert!(one_flagged, "rank 1 flagged, yet some rank committed the step");
        }
    }

    #[test]
    fn guard_state_round_trips_through_with_state() {
        let mut g = StepGuard::default();
        g.record(2.0);
        g.record(3.0);
        let resumed = StepGuard::with_state(g.state());
        assert_eq!(resumed.state(), g.state());
    }
}
