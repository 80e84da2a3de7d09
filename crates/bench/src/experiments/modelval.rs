//! Performance-model validation (paper §VI-B3).
//!
//! The paper validates its model by overlaying predictions on measured
//! GPU timings. Without the paper's hardware, we validate the same model
//! *structure* in two ways the simulated testbed supports honestly:
//!
//! 1. **Compute model fit.** Calibrate the saturating-throughput device
//!    model against measured timings of our own CPU convolution kernels
//!    on a few shapes, then check it predicts *held-out* shapes — the
//!    exact procedure the paper applies to cuDNN ("a simple benchmark
//!    that times the appropriate cuDNN function").
//! 2. **Communication-volume validation.** The α–β terms are driven by
//!    message counts and byte volumes; the thread-simulated communicator
//!    counts both exactly. Run a distributed training step and compare
//!    the measured per-rank halo and allreduce traffic against the cost
//!    model's predicted volumes.

use std::time::Instant;

use fg_comm::{run_ranks, OpClass};
use fg_core::{DistExecutor, Strategy};
use fg_kernels::conv::{conv2d_forward, ConvGeometry};
use fg_nn::{LayerKind, Network, NetworkSpec};
use fg_perf::{ConvPass, ConvWork, DeviceModel, Platform};
use fg_tensor::{ProcGrid, Shape4, Tensor};

use crate::experiments::hybrid_grid;
use crate::table::Table;

/// Measure our CPU forward convolution on a workload (seconds).
pub fn measure_conv(work: &ConvWork) -> f64 {
    let x = Tensor::full(Shape4::new(work.n, work.c, work.h, work.w), 0.5);
    let w = Tensor::full(Shape4::new(work.f, work.c, work.k, work.k), 0.01);
    let geom = ConvGeometry::square(work.h, work.w, work.k, work.s, work.k / 2);
    // Warmup (the paper does warmup runs before averaging). We take the
    // *minimum* of several runs rather than the mean: on a shared core,
    // preemption inflates individual runs, and the minimum is the
    // standard robust estimator of intrinsic kernel time.
    let _ = conv2d_forward(&x, &w, &geom);
    (0..5)
        .map(|_| {
            let start = Instant::now();
            let _ = std::hint::black_box(conv2d_forward(&x, &w, &geom));
            start.elapsed().as_secs_f64()
        })
        .fold(f64::MAX, f64::min)
}

/// Calibrate a [`DeviceModel`] for this machine's CPU kernels from three
/// measurements (small → launch overhead, large → peak, mid → knee).
pub fn calibrate_cpu_device() -> DeviceModel {
    let tiny = ConvWork { n: 1, c: 1, h: 8, w: 8, f: 1, k: 1, s: 1 };
    let mid = ConvWork { n: 1, c: 16, h: 32, w: 32, f: 16, k: 3, s: 1 };
    let big = ConvWork { n: 1, c: 32, h: 96, w: 96, f: 32, k: 3, s: 1 };
    let t_tiny = measure_conv(&tiny);
    let t_mid = measure_conv(&mid);
    let t_big = measure_conv(&big);
    let launch = t_tiny.min(t_mid).min(t_big) * 0.5;
    // Peak from the largest measurement (least overhead-contaminated).
    let peak = big.flops() / (t_big - launch).max(1e-9);
    // Solve the knee from the mid point: t = launch + f/(peak·f/(f+h)).
    let f_mid = mid.flops();
    let denom = (t_mid - launch).max(1e-9);
    let half = (denom * peak - f_mid).max(0.0);
    DeviceModel {
        peak_flops: peak,
        half_work: half.max(1.0),
        launch,
        bwd_data_factor: 1.25,
        bwd_filter_factor: 1.35,
    }
}

/// Validation table: model vs measurement on held-out conv shapes.
fn compute_model_fit() -> Table {
    let model = calibrate_cpu_device();
    let holdout = [
        ConvWork { n: 2, c: 8, h: 48, w: 48, f: 16, k: 3, s: 1 },
        ConvWork { n: 1, c: 24, h: 64, w: 64, f: 24, k: 3, s: 2 },
        ConvWork { n: 1, c: 8, h: 56, w: 56, f: 16, k: 5, s: 1 },
        ConvWork { n: 4, c: 16, h: 24, w: 24, f: 32, k: 1, s: 1 },
    ];
    let mut t = Table::new(
        "Model validation A: calibrated device model vs measured CPU kernels (held-out shapes)",
        &["shape (n,c,h,w,f,k,s)", "measured (ms)", "modeled (ms)", "ratio"],
    );
    for w in &holdout {
        let measured = measure_conv(w);
        let modeled = model.conv_time(w, ConvPass::Forward);
        t.push_row(vec![
            format!("({},{},{},{},{},{},{})", w.n, w.c, w.h, w.w, w.f, w.k, w.s),
            format!("{:.3}", measured * 1e3),
            format!("{:.3}", modeled * 1e3),
            format!("{:.2}", modeled / measured),
        ]);
    }
    t
}

/// A thin mesh-style network for traffic validation: same structure
/// (strided conv–BN–ReLU blocks, per-pixel loss), narrow channels so the
/// thread-sim run stays fast.
pub fn mini_mesh(input_hw: usize) -> NetworkSpec {
    let mut net = NetworkSpec::new();
    let i = net.input("data", 6, input_hw, input_hw);
    let c1 = net.conv("conv1_1", i, 16, 5, 2, 2);
    let b1 = net.batchnorm("bn1_1", c1);
    let r1 = net.relu("relu1_1", b1);
    let c2 = net.conv("conv1_2", r1, 16, 3, 1, 1);
    let r2 = net.relu("relu1_2", c2);
    let c3 = net.conv("conv2_1", r2, 24, 3, 2, 1);
    let r3 = net.relu("relu2_1", c3);
    let pred = net.conv("pred", r3, 2, 1, 1, 0);
    net.loss("loss", pred);
    net
}

/// Measured per-rank traffic of one distributed training step.
pub fn measured_traffic(
    grid: ProcGrid,
    batch: usize,
    input_hw: usize,
) -> Vec<(u64, u64, u64, u64)> {
    let spec = mini_mesh(input_hw);
    let net = Network::init(spec.clone(), 5);
    let exec =
        DistExecutor::new(spec, Strategy::uniform(&net.spec, grid), batch).expect("valid strategy");
    let ds = fg_data::MeshDataset::new(input_hw, input_hw / 4, 6, 3);
    let (x, labels) = ds.batch(0, batch);
    run_ranks(grid.size(), |comm| {
        let _ = exec.loss_and_grads(comm, &net.params, &x, &labels);
        let s = comm.stats();
        (
            s.messages(OpClass::Halo),
            s.bytes(OpClass::Halo),
            s.messages(OpClass::Allreduce),
            s.bytes(OpClass::Allreduce),
        )
    })
}

/// The cost model's predicted per-rank traffic volumes for the same run.
///
/// Halo: forward x-halo + backward dy-halo per §V-A (2·O·rows + corner
/// terms per partitioned dimension). Allreduce: ring/RD send volumes for
/// each conv and BN parameter reduction.
pub fn predicted_traffic(grid: ProcGrid, batch: usize, input_hw: usize) -> (f64, f64) {
    let spec = mini_mesh(input_hw);
    let shapes = spec.shapes();
    let p = grid.size() as f64;
    let mut halo_bytes = 0.0f64;
    let mut ar_bytes = 0.0f64;
    for (id, l) in spec.layers().iter().enumerate() {
        if let LayerKind::Conv { filters, kernel, .. } = l.kind {
            let (c, h, w) = shapes[spec.layer(id).parents[0]];
            let o = (kernel / 2) as f64;
            let n_loc = batch.div_ceil(grid.n) as f64;
            let h_loc = h.div_ceil(grid.h) as f64;
            let w_loc = w.div_ceil(grid.w) as f64;
            // Forward x halo, sent from each side the rank has a neighbor
            // on. Interior ranks send 2 sides; use the per-rank average of
            // (parts-1)/parts · 2 sides to match aggregate counting, and
            // the same for the output-gradient halo (approximated with the
            // same O).
            let passes = 2.0; // x halo (forward) + dy halo (backward-data)
            if grid.h > 1 && o > 0.0 {
                halo_bytes += passes
                    * 2.0
                    * ((grid.h - 1) as f64 / grid.h as f64)
                    * o
                    * n_loc
                    * c as f64
                    * w_loc
                    * 4.0;
            }
            if grid.w > 1 && o > 0.0 {
                halo_bytes += passes
                    * 2.0
                    * ((grid.w - 1) as f64 / grid.w as f64)
                    * o
                    * n_loc
                    * c as f64
                    * h_loc
                    * 4.0;
            }
            // Weight-gradient allreduce: ring sends
            // 2(P−1)/P · n bytes per rank for large vectors, RD sends
            // log2(P)·n for small; mirror the Auto switch.
            let grad_bytes = (filters * c * kernel * kernel) as f64 * 4.0;
            ar_bytes += allreduce_send_bytes(p, grad_bytes);
        }
        if matches!(l.kind, LayerKind::BatchNorm) {
            let c = shapes[id].0 as f64;
            // Forward moments (2c+1 f64) + backward partials (2c+1 f64)
            // + parameter gradients are folded into the backward
            // allreduce in aggregated mode.
            ar_bytes += 2.0 * allreduce_send_bytes(p, (2.0 * c + 1.0) * 8.0);
        }
    }
    (halo_bytes, ar_bytes)
}

fn allreduce_send_bytes(p: f64, n: f64) -> f64 {
    if p <= 1.0 {
        return 0.0;
    }
    if n <= 8192.0 {
        p.log2().ceil() * n // recursive doubling
    } else {
        2.0 * (p - 1.0) / p * n // ring
    }
}

/// Validation table: predicted vs measured traffic volumes.
fn traffic_validation() -> Table {
    let mut t = Table::new(
        "Model validation B: predicted vs measured per-rank traffic (32x32 mini mesh model, thread-sim)",
        &["grid", "class", "predicted (KiB)", "measured max (KiB)", "ratio"],
    );
    for grid in [ProcGrid::spatial(2, 2), hybrid_grid(2, 2), ProcGrid::sample(4)] {
        let batch = 4;
        let hw = 32;
        let measured = measured_traffic(grid, batch, hw);
        let (halo_pred, ar_pred) = predicted_traffic(grid, batch, hw);
        let halo_meas = measured.iter().map(|m| m.1).max().unwrap() as f64;
        let ar_meas = measured.iter().map(|m| m.3).max().unwrap() as f64;
        for (class, pred, meas) in [("halo", halo_pred, halo_meas), ("allreduce", ar_pred, ar_meas)]
        {
            let ratio = if meas > 0.0 { pred / meas } else { f64::NAN };
            t.push_row(vec![
                format!("{grid}"),
                class.into(),
                format!("{:.1}", pred / 1024.0),
                format!("{:.1}", meas / 1024.0),
                if ratio.is_nan() { "-".into() } else { format!("{ratio:.2}") },
            ]);
        }
    }
    t
}

/// Both validation tables.
pub fn modelval(_platform: &Platform) -> Vec<Table> {
    vec![compute_model_fit(), traffic_validation()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_model_predicts_holdout_within_3x() {
        let model = calibrate_cpu_device();
        let w = ConvWork { n: 1, c: 12, h: 40, w: 40, f: 12, k: 3, s: 1 };
        let measured = measure_conv(&w);
        let modeled = model.conv_time(&w, ConvPass::Forward);
        let ratio = modeled / measured;
        assert!(
            (0.33..3.0).contains(&ratio),
            "calibrated model off by {ratio:.2}x ({modeled} vs {measured})"
        );
    }

    #[test]
    fn sample_parallelism_has_zero_halo_traffic() {
        let m = measured_traffic(ProcGrid::sample(4), 4, 32);
        for (hm, hb, _, _) in &m {
            assert_eq!(*hm, 0, "sample parallelism must not exchange halos");
            assert_eq!(*hb, 0);
        }
    }

    #[test]
    fn predicted_halo_volume_tracks_measured() {
        let grid = ProcGrid::spatial(2, 2);
        let measured = measured_traffic(grid, 1, 32);
        let (halo_pred, _) = predicted_traffic(grid, 1, 32);
        let halo_meas = measured.iter().map(|m| m.1).max().unwrap() as f64;
        assert!(halo_meas > 0.0);
        let ratio = halo_pred / halo_meas;
        // The model omits corners and stride-dependent margin asymmetry;
        // volumes must still agree within 2x.
        assert!((0.5..2.0).contains(&ratio), "halo volume ratio {ratio:.2}");
    }

    #[test]
    fn predicted_allreduce_volume_tracks_measured() {
        let grid = ProcGrid::sample(4);
        let measured = measured_traffic(grid, 4, 32);
        let (_, ar_pred) = predicted_traffic(grid, 4, 32);
        let ar_meas = measured.iter().map(|m| m.3).max().unwrap() as f64;
        assert!(ar_meas > 0.0);
        let ratio = ar_pred / ar_meas;
        assert!((0.5..2.0).contains(&ratio), "allreduce volume ratio {ratio:.2}");
    }
}
