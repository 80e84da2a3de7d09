//! Integration: the §VI-B3 model-validation experiment as assertions —
//! the performance model's communication volumes must track the traffic
//! the thread-simulated communicator actually moves, and the calibrated
//! compute model must predict held-out kernel shapes.

use fg_bench::experiments::modelval::{
    calibrate_cpu_device, measure_conv, measured_traffic, predicted_traffic,
};
use finegrain::perf::{ConvPass, ConvWork};
use finegrain::tensor::ProcGrid;

#[test]
fn traffic_model_tracks_execution_across_schemes() {
    for grid in [ProcGrid::spatial(2, 2), ProcGrid::hybrid(2, 2, 1)] {
        let measured = measured_traffic(grid, 2, 32);
        let (halo_pred, ar_pred) = predicted_traffic(grid, 2, 32);
        let halo_meas = measured.iter().map(|m| m.1).max().unwrap() as f64;
        let ar_meas = measured.iter().map(|m| m.3).max().unwrap() as f64;
        assert!(halo_meas > 0.0, "spatial schemes must exchange halos");
        let halo_ratio = halo_pred / halo_meas;
        assert!(
            (0.4..2.5).contains(&halo_ratio),
            "grid {grid}: halo volume ratio {halo_ratio:.2} (pred {halo_pred}, meas {halo_meas})"
        );
        let ar_ratio = ar_pred / ar_meas;
        assert!(
            (0.4..2.5).contains(&ar_ratio),
            "grid {grid}: allreduce volume ratio {ar_ratio:.2}"
        );
    }
}

#[test]
fn sample_parallelism_moves_no_halo_bytes() {
    let measured = measured_traffic(ProcGrid::sample(4), 4, 32);
    for (halo_msgs, halo_bytes, ar_msgs, _ar_bytes) in &measured {
        assert_eq!(*halo_msgs, 0);
        assert_eq!(*halo_bytes, 0);
        assert!(*ar_msgs > 0, "gradients must still be allreduced");
    }
}

#[test]
fn calibrated_compute_model_generalizes() {
    let model = calibrate_cpu_device();
    // Held-out shapes, different from the calibration set. One band for
    // all of them: the kernel's inner loop is the same contiguous run at
    // every stride, so the flops-based model fits the strided shape as
    // it fits the unit-stride ones.
    for work in [
        ConvWork { n: 2, c: 8, h: 40, w: 40, f: 8, k: 3, s: 1 },
        ConvWork { n: 1, c: 16, h: 30, w: 30, f: 24, k: 5, s: 1 },
        ConvWork { n: 1, c: 16, h: 28, w: 28, f: 24, k: 5, s: 2 },
    ] {
        let measured = measure_conv(&work);
        let modeled = model.conv_time(&work, ConvPass::Forward);
        let ratio = modeled / measured;
        assert!((0.25..4.0).contains(&ratio), "model does not generalize: {ratio:.2} on {work:?}");
    }
}
