//! Distributed batch normalization (paper §III-B): two variants, as
//! discussed in the paper — [`BnMode::Local`] (statistics over the local
//! shard only; no communication, different numerics from a single
//! device) and [`BnMode::Aggregated`] (partial moments allreduced,
//! exactly replicating single-device training).

use fg_comm::{Collectives, Communicator, ReduceOp, WorldComm};
use fg_kernels::batchnorm::{
    bn_backward_apply, bn_backward_partials, bn_forward_with_stats, bn_partial_moments, BnPartials,
    BnStats,
};
use fg_nn::{LayerParams, BN_EPS};
use fg_tensor::DistTensor;

use crate::executor::Act;
use crate::layers::plan::{BwdCx, BwdOut, DistLayer, FwdCx, LayerBase, TraceCx};
use fg_comm::{ScalarType, TraceRecorder};

/// Batch-norm statistics scope under data decomposition (§III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BnMode {
    /// Statistics over the whole mini-batch (allreduced); bit-comparable
    /// to single-device training.
    #[default]
    Aggregated,
    /// Purely local statistics; no communication (the "typically
    /// computed locally" variant).
    Local,
}

/// Distributed batch-norm forward on an unpadded shard. Returns
/// `(y, stats)`; in aggregated mode the stats equal single-device batch
/// statistics.
fn dist_bn_forward<C: Communicator>(
    comm: &C,
    x: &DistTensor,
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    mode: BnMode,
) -> (DistTensor, BnStats) {
    let owned = x.owned_tensor();
    let partials = bn_partial_moments(&owned);
    let stats = match mode {
        BnMode::Local => partials.finalize(),
        BnMode::Aggregated => {
            let summed = comm.allreduce(&partials.to_flat(), ReduceOp::Sum);
            BnPartials::from_flat(&summed, owned.shape().c).finalize()
        }
    };
    let y_local = bn_forward_with_stats(&owned, &stats, gamma, beta, eps);
    let mut y = DistTensor::new_unpadded(x.dist().clone(), x.rank());
    y.set_owned(&y_local);
    (y, stats)
}

/// Distributed batch-norm backward. Returns `(dx, dgamma, dbeta)` with
/// parameter gradients already globally summed (identical on all ranks).
fn dist_bn_backward<C: Communicator>(
    comm: &C,
    x: &DistTensor,
    dy: &DistTensor,
    stats: &BnStats,
    gamma: &[f32],
    eps: f32,
    mode: BnMode,
) -> (DistTensor, Vec<f32>, Vec<f32>) {
    let x_owned = x.owned_tensor();
    let dy_owned = dy.owned_tensor();
    let (sum_dy, sum_dy_xhat) = bn_backward_partials(&x_owned, &dy_owned, stats, eps);
    let c = x_owned.shape().c;
    match mode {
        BnMode::Aggregated => {
            // One allreduce carries both partials plus the local count.
            let mut flat = sum_dy.clone();
            flat.extend_from_slice(&sum_dy_xhat);
            flat.push((x_owned.shape().n * x_owned.shape().h * x_owned.shape().w) as f64);
            let summed = comm.allreduce(&flat, ReduceOp::Sum);
            let g_sum_dy = &summed[..c];
            let g_sum_dy_xhat = &summed[c..2 * c];
            let total = summed[2 * c];
            let dx_local = bn_backward_apply(
                &x_owned,
                &dy_owned,
                stats,
                gamma,
                g_sum_dy,
                g_sum_dy_xhat,
                total,
                eps,
            );
            let mut dx = DistTensor::new_unpadded(x.dist().clone(), x.rank());
            dx.set_owned(&dx_local);
            let dgamma: Vec<f32> = g_sum_dy_xhat.iter().map(|&v| v as f32).collect();
            let dbeta: Vec<f32> = g_sum_dy.iter().map(|&v| v as f32).collect();
            (dx, dgamma, dbeta)
        }
        BnMode::Local => {
            let total = (x_owned.shape().n * x_owned.shape().h * x_owned.shape().w) as f64;
            let dx_local = bn_backward_apply(
                &x_owned,
                &dy_owned,
                stats,
                gamma,
                &sum_dy,
                &sum_dy_xhat,
                total,
                eps,
            );
            let mut dx = DistTensor::new_unpadded(x.dist().clone(), x.rank());
            dx.set_owned(&dx_local);
            // Parameters are replicated, so their gradients still sum
            // over all shards even when statistics were local.
            let mut flat = sum_dy_xhat;
            flat.extend_from_slice(&sum_dy);
            let summed = comm.allreduce(&flat, ReduceOp::Sum);
            let dgamma: Vec<f32> = summed[..c].iter().map(|&v| v as f32).collect();
            let dbeta: Vec<f32> = summed[c..].iter().map(|&v| v as f32).collect();
            (dx, dgamma, dbeta)
        }
    }
}

fn bn_params(p: &LayerParams) -> (&[f32], &[f32]) {
    match p {
        LayerParams::Bn { gamma, beta } => (gamma, beta),
        other => panic!("expected bn params, found {other:?}"),
    }
}

/// [`DistLayer`] driver for distributed batch normalization.
#[derive(Debug)]
pub struct BatchNormLayer {
    base: LayerBase,
}

impl BatchNormLayer {
    /// Wrap a batch-norm layer for uniform scheduling.
    pub fn new(base: LayerBase) -> Self {
        BatchNormLayer { base }
    }
}

impl DistLayer for BatchNormLayer {
    fn base(&self) -> &LayerBase {
        &self.base
    }

    fn forward(&self, comm: &WorldComm, cx: &mut FwdCx<'_>) -> Act {
        let x = cx.input(0).shard_of(self.base.id, &self.base.kind);
        let (gamma, beta) = bn_params(cx.params);
        let (y, stats) = match cx.bn_override {
            // Inference: fixed statistics, purely local.
            Some(st) => {
                let y_local = bn_forward_with_stats(&x.owned_tensor(), st, gamma, beta, BN_EPS);
                let mut y = DistTensor::new_unpadded(x.dist().clone(), x.rank());
                y.set_owned(&y_local);
                (y, st.clone())
            }
            None => dist_bn_forward(comm, x, gamma, beta, BN_EPS, cx.bn_mode),
        };
        *cx.bn_stats = Some(stats);
        Act::Shard(y)
    }

    fn backward(&self, comm: &WorldComm, cx: &BwdCx<'_>, dy: Act) -> BwdOut {
        let dy = dy.into_shard_of(self.base.id, &self.base.kind);
        let x = cx.input(&self.base, 0).shard_of(self.base.id, &self.base.kind);
        let stats = cx.bn_stats(&self.base);
        let (gamma, _beta) = bn_params(cx.params);
        let (dx, dgamma, dbeta) = dist_bn_backward(comm, x, &dy, stats, gamma, BN_EPS, cx.bn_mode);
        BwdOut {
            dparents: vec![(0, Act::Shard(dx))],
            grads: Some(LayerParams::Bn { gamma: dgamma, beta: dbeta }),
        }
    }

    fn needs_input_for_backward(&self) -> bool {
        true
    }

    // Gamma and beta are each one value per channel, so the channel
    // count is half the layer's parameter elements; the traced payloads
    // mirror `dist_bn_forward` / `dist_bn_backward` (training mode —
    // inference with overridden statistics is communication-free).
    fn record_forward(&self, cx: &TraceCx<'_>, rec: &mut TraceRecorder) {
        let c = cx.param_elems / 2;
        if let BnMode::Aggregated = cx.bn_mode {
            rec.world_allreduce(2 * c + 1, ScalarType::F64);
        }
    }

    fn record_backward(&self, cx: &TraceCx<'_>, rec: &mut TraceRecorder) {
        let c = cx.param_elems / 2;
        match cx.bn_mode {
            BnMode::Aggregated => rec.world_allreduce(2 * c + 1, ScalarType::F64),
            BnMode::Local => rec.world_allreduce(2 * c, ScalarType::F64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_comm::run_ranks;
    use fg_kernels::batchnorm::{bn_backward, bn_forward};
    use fg_tensor::gather::gather_to_root;
    use fg_tensor::{ProcGrid, Shape4, Tensor, TensorDist};

    fn pattern(shape: Shape4, seed: usize) -> Tensor {
        Tensor::from_fn(shape, |n, c, h, w| {
            (((n * 29 + c * 13 + h * 7 + w * 3 + seed) % 17) as f32) * 0.4 - 3.0
        })
    }

    #[test]
    fn aggregated_bn_matches_serial() {
        let shape = Shape4::new(4, 3, 8, 8);
        let x = pattern(shape, 3);
        let gamma = vec![1.5, 0.5, 1.0];
        let beta = vec![0.1, -0.2, 0.0];
        let (y_serial, stats_serial) = bn_forward(&x, &gamma, &beta, 1e-5);
        let dy = pattern(shape, 4);
        let (dx_serial, dg_serial, db_serial) = bn_backward(&x, &dy, &stats_serial, &gamma, 1e-5);

        let grid = ProcGrid::hybrid(2, 2, 1);
        let dist = TensorDist::new(shape, grid);
        let outs = run_ranks(4, |comm| {
            let xs = DistTensor::from_global(dist.clone(), comm.rank(), &x, [0; 4], [0; 4]);
            let (y, stats) = dist_bn_forward(comm, &xs, &gamma, &beta, 1e-5, BnMode::Aggregated);
            let dys = DistTensor::from_global(dist.clone(), comm.rank(), &dy, [0; 4], [0; 4]);
            let (dx, dg, db) =
                dist_bn_backward(comm, &xs, &dys, &stats, &gamma, 1e-5, BnMode::Aggregated);
            (gather_to_root(comm, &y, 0), gather_to_root(comm, &dx, 0), dg, db, stats)
        });
        outs[0].0.as_ref().unwrap().assert_close(&y_serial, 1e-4);
        outs[0].1.as_ref().unwrap().assert_close(&dx_serial, 1e-3);
        for (dg, db) in outs.iter().map(|o| (&o.2, &o.3)) {
            for (a, b) in dg.iter().zip(&dg_serial) {
                assert!((a - b).abs() < 1e-3 * a.abs().max(1.0), "dgamma {a} vs {b}");
            }
            for (a, b) in db.iter().zip(&db_serial) {
                assert!((a - b).abs() < 1e-3 * a.abs().max(1.0), "dbeta {a} vs {b}");
            }
        }
        // Aggregated statistics equal serial batch statistics.
        for c in 0..3 {
            assert!((outs[0].4.mean[c] - stats_serial.mean[c]).abs() < 1e-5);
            assert!((outs[0].4.var[c] - stats_serial.var[c]).abs() < 1e-4);
        }
    }

    #[test]
    fn local_bn_differs_from_serial_but_is_consistent() {
        let shape = Shape4::new(4, 2, 4, 4);
        let x = pattern(shape, 5);
        let gamma = vec![1.0, 1.0];
        let beta = vec![0.0, 0.0];
        let (y_serial, _stats) = bn_forward(&x, &gamma, &beta, 1e-5);
        let grid = ProcGrid::sample(4);
        let dist = TensorDist::new(shape, grid);
        let ys = run_ranks(4, |comm| {
            let xs = DistTensor::from_global(dist.clone(), comm.rank(), &x, [0; 4], [0; 4]);
            let (y, _stats) = dist_bn_forward(comm, &xs, &gamma, &beta, 1e-5, BnMode::Local);
            gather_to_root(comm, &y, 0)
        });
        let y_local = ys[0].as_ref().unwrap();
        // Local statistics genuinely differ from batch statistics here.
        assert!(y_local.max_abs_diff(&y_serial) > 1e-3, "local BN should differ from serial");
        // But each local shard is itself normalized (mean ~ 0 per shard).
        let p = fg_kernels::batchnorm::bn_partial_moments(
            &y_local.slice_box(&fg_tensor::Box4::new([0, 0, 0, 0], [1, 2, 4, 4])),
        )
        .finalize();
        assert!(p.mean.iter().all(|m| m.abs() < 1e-4));
    }
}
