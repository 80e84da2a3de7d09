//! Checkpoint → servable model: boot a serving replica from any
//! snapshot the resilience ladder produces.
//!
//! Training checkpoints ([`fg_nn::TrainState`], format FGCKPT05)
//! carry parameters and optimizer state but *not* batch-norm running
//! statistics — the trainer normalizes with per-batch statistics and
//! never materializes the exponential averages inference needs. A
//! [`ServableModel`] closes that gap honestly: it loads the snapshot
//! (whole tensors, whatever world wrote it) and derives
//! [`fg_nn::RunningStats`] by replaying calibration batches through the
//! frozen network, exactly the recalibration pass deployed systems run
//! before promoting a checkpoint. With the statistics fixed, inference
//! is independent of batch composition, and the distributed executor's
//! [`crate::DistExecutor::forward_inference`] matches the serial
//! [`fg_nn::Network::forward_inference`] — bitwise for sharded
//! (segmentation) heads on every grid, and for per-sample (GAP → FC)
//! heads under sample parallelism; spatially-partitioned GAP reorders
//! its reduction and is ULP-close instead. This is the property the
//! serving tier's correct-or-typed-error contract rests on.

use fg_nn::{CheckpointError, Network, NetworkSpec, RunningStats, TrainState};
use fg_tensor::Tensor;

/// A frozen, inference-ready model: parameters from a training
/// snapshot plus calibrated batch-norm running statistics.
#[derive(Debug, Clone)]
pub struct ServableModel {
    /// The architecture (shared by every replica).
    pub spec: NetworkSpec,
    /// Parameters at the snapshot's step.
    pub params: Vec<fg_nn::LayerParams>,
    /// Calibrated batch-norm running statistics.
    pub stats: RunningStats,
    /// Optimizer step the snapshot was taken at (provenance).
    pub step: u64,
}

impl ServableModel {
    /// Freeze a [`TrainState`] for serving, deriving BN running
    /// statistics from `calibration` batches (training-mode forward
    /// passes through the frozen parameters, folded with `momentum`).
    /// Networks without batch norm need no calibration; with BN and an
    /// empty calibration set the statistics stay at their identity
    /// initialization (zero mean, unit variance).
    pub fn from_train_state(
        spec: &NetworkSpec,
        state: &TrainState,
        calibration: &[Tensor],
        momentum: f32,
    ) -> ServableModel {
        let net = Network { spec: spec.clone(), params: state.params.clone() };
        let mut stats = RunningStats::new(spec, momentum);
        for x in calibration {
            let pass = net.forward(x, None);
            stats.update(&pass);
        }
        ServableModel { spec: spec.clone(), params: net.params, stats, step: state.step }
    }

    /// Load a serialized checkpoint (FGCKPT05) and freeze it for
    /// serving. It holds the full parameter set — serving replicates
    /// parameters on every rank.
    pub fn from_checkpoint<R: std::io::Read>(
        spec: &NetworkSpec,
        r: &mut R,
        calibration: &[Tensor],
        momentum: f32,
    ) -> Result<ServableModel, CheckpointError> {
        let state = fg_nn::load_train_state(r)?;
        Ok(ServableModel::from_train_state(spec, &state, calibration, momentum))
    }

    /// Single-process reference inference: the final layer's activation
    /// under the calibrated running statistics. The distributed serving
    /// path must reproduce this for every sample (bitwise for sharded
    /// heads and sample-parallel plans; see the module docs).
    pub fn infer(&self, x: &Tensor) -> Tensor {
        let net = Network { spec: self.spec.clone(), params: self.params.clone() };
        self.stats.infer(&net, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_nn::{init_params, GuardState};
    use fg_tensor::{Shape4, Tensor};

    fn bn_spec() -> NetworkSpec {
        let mut spec = NetworkSpec::new();
        let i = spec.input("x", 2, 8, 8);
        let c1 = spec.conv("c1", i, 4, 3, 1, 1);
        let b1 = spec.batchnorm("b1", c1);
        let r1 = spec.relu("r1", b1);
        let g = spec.global_avg_pool("g", r1);
        let f = spec.fc("f", g, 3);
        spec.loss("l", f);
        spec
    }

    fn state_for(spec: &NetworkSpec, seed: u64) -> TrainState {
        let params = init_params(spec, seed);
        let velocity = params.iter().map(|p| p.zeros_like()).collect();
        TrainState { step: 7, params, velocity, losses: vec![0.5; 7], guard: GuardState::default() }
    }

    fn calib(n: usize, seed: usize) -> Tensor {
        Tensor::from_fn(Shape4::new(n, 2, 8, 8), |k, c, h, w| {
            ((k * 19 + c * 11 + h * 5 + w + seed) % 17) as f32 * 0.2 - 1.6
        })
    }

    #[test]
    fn calibration_changes_bn_statistics_and_roundtrips_through_bytes() {
        let spec = bn_spec();
        let state = state_for(&spec, 3);
        let cal: Vec<Tensor> = (0..4).map(|s| calib(6, s)).collect();
        let fresh = ServableModel::from_train_state(&spec, &state, &[], 0.1);
        let tuned = ServableModel::from_train_state(&spec, &state, &cal, 0.1);
        let b1 = spec.find("b1").unwrap();
        let fresh_bn = fresh.stats.stats()[b1].as_ref().unwrap();
        let tuned_bn = tuned.stats.stats()[b1].as_ref().unwrap();
        assert!(fresh_bn.mean.iter().all(|&m| m == 0.0), "fresh stats are identity");
        assert!(
            tuned_bn.mean.iter().zip(&fresh_bn.mean).any(|(t, f)| t != f),
            "calibration moved the running mean"
        );

        // The serialized path (the bytes a resilience-ladder snapshot
        // actually produces) yields the same servable model.
        let mut bytes = Vec::new();
        fg_nn::save_train_state(&mut bytes, &state).unwrap();
        let loaded =
            ServableModel::from_checkpoint(&spec, &mut bytes.as_slice(), &cal, 0.1).unwrap();
        assert_eq!(loaded.step, tuned.step);
        let x = calib(1, 99);
        assert_eq!(loaded.infer(&x), tuned.infer(&x), "bitwise-equal inference after reload");
    }

    #[test]
    fn inference_is_batch_composition_independent_for_servable_models() {
        let spec = bn_spec();
        let state = state_for(&spec, 5);
        let cal: Vec<Tensor> = (0..3).map(|s| calib(5, s)).collect();
        let model = ServableModel::from_train_state(&spec, &state, &cal, 0.2);
        let x4 = calib(4, 42);
        let full = model.infer(&x4);
        let solo = model.infer(&x4.slice_box(&fg_tensor::Box4::new([0, 0, 0, 0], [1, 2, 8, 8])));
        for c in 0..3 {
            assert_eq!(solo.at(0, c, 0, 0), full.at(0, c, 0, 0));
        }
    }
}
