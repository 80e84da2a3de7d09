//! ResNet-50 strong scaling — Table III.
//!
//! Baseline: pure sample parallelism at 32 samples/GPU (the typical
//! GPU-saturating choice). Hybrid columns keep the 32-sample groups but
//! spread each over 2 or 4 GPUs spatially, using 2× / 4× as many GPUs
//! for the same mini-batch — the paper's recipe for continuing to
//! accelerate once the mini-batch size cannot grow.

use fg_core::Strategy;
use fg_models::resnet50;
use fg_nn::NetworkSpec;
use fg_perf::{network_cost, CostOptions, Platform};

use super::{hybrid_grid, MAX_WORLD};
use crate::table::{fmt_speedup, fmt_time, Table};

/// Samples per group in the paper's baseline.
const SAMPLES_PER_GROUP: usize = 32;

/// Modeled ResNet-50 mini-batch time with `N/32` sample groups of
/// `k` GPUs each; `None` when the machine runs out of GPUs.
fn resnet_minibatch_time(
    platform: &Platform,
    spec: &NetworkSpec,
    batch: usize,
    gpus_per_group: usize,
) -> Option<f64> {
    if !batch.is_multiple_of(SAMPLES_PER_GROUP) {
        return None;
    }
    let groups = batch / SAMPLES_PER_GROUP;
    let world = groups * gpus_per_group;
    if world == 0 || world > MAX_WORLD {
        return None;
    }
    let strategy = Strategy::uniform(spec, hybrid_grid(groups, gpus_per_group));
    Some(network_cost(platform, spec, batch, &strategy, &CostOptions::default()).total())
}

/// Table III.
pub fn table3(platform: &Platform) -> Table {
    let spec = resnet50();
    let mut t = Table::new(
        "Table III: ResNet-50 strong scaling (mini-batch time, speedup vs sample parallelism)",
        &["N", "Sample (32/GPU)", "Hybrid (32/2 GPUs)", "Hybrid (32/4 GPUs)"],
    );
    for n in [128usize, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768] {
        let base = resnet_minibatch_time(platform, &spec, n, 1);
        let mut row = vec![n.to_string()];
        row.push(base.map(fmt_time).unwrap_or_else(|| "n/a".into()));
        for k in [2usize, 4] {
            match (resnet_minibatch_time(platform, &spec, n, k), base) {
                (Some(time), Some(b)) => {
                    row.push(format!("{} ({})", fmt_time(time), fmt_speedup(b / time)));
                }
                _ => row.push("n/a".into()),
            }
        }
        t.push_row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn platform() -> Platform {
        Platform::lassen_like()
    }

    #[test]
    fn hybrid_speedups_are_modest_but_real() {
        // The paper: 1.3–1.5x with 2x GPUs, 1.4–1.8x with 4x GPUs —
        // useful but far from linear, because most ResNet layers have
        // small spatial domains.
        let p = platform();
        let spec = resnet50();
        let base = resnet_minibatch_time(&p, &spec, 256, 1).unwrap();
        let h2 = resnet_minibatch_time(&p, &spec, 256, 2).unwrap();
        let h4 = resnet_minibatch_time(&p, &spec, 256, 4).unwrap();
        let s2 = base / h2;
        let s4 = base / h4;
        assert!((1.15..1.95).contains(&s2), "2-GPU hybrid speedup {s2:.2}");
        assert!((1.25..2.6).contains(&s4), "4-GPU hybrid speedup {s4:.2}");
        assert!(s4 > s2, "4 GPUs/group must beat 2");
        assert!(s4 < 3.0, "must be clearly sublinear (small spatial domains)");
    }

    #[test]
    fn feasibility_boundaries_match_table3() {
        let p = platform();
        let spec = resnet50();
        // Paper's n/a: 4-way at N=32768 (needs 4096 GPUs).
        assert!(resnet_minibatch_time(&p, &spec, 32768, 4).is_none());
        assert!(resnet_minibatch_time(&p, &spec, 32768, 2).is_some());
        assert!(resnet_minibatch_time(&p, &spec, 16384, 4).is_some());
    }

    #[test]
    fn baseline_column_is_flat_in_n() {
        // Fixed samples/GPU: the sample column barely moves with N
        // (≈0.105–0.109 s in the paper).
        let p = platform();
        let spec = resnet50();
        let a = resnet_minibatch_time(&p, &spec, 128, 1).unwrap();
        let b = resnet_minibatch_time(&p, &spec, 8192, 1).unwrap();
        assert!((b / a) < 1.25, "sample column should be ~flat: {a} vs {b}");
    }

    #[test]
    fn speedups_shrink_slightly_at_scale() {
        // "Speedups decrease slightly at larger scale … due to the
        // implementation being unable to fully overlap the cost of
        // allreduces."
        let p = platform();
        let spec = resnet50();
        let s_small = {
            let b = resnet_minibatch_time(&p, &spec, 256, 2).unwrap();
            resnet_minibatch_time(&p, &spec, 256, 1).unwrap() / b
        };
        let s_large = {
            let b = resnet_minibatch_time(&p, &spec, 16384, 2).unwrap();
            resnet_minibatch_time(&p, &spec, 16384, 1).unwrap() / b
        };
        assert!(
            s_large <= s_small * 1.05,
            "speedup should not grow with scale: {s_small:.2} → {s_large:.2}"
        );
    }

    #[test]
    fn table_renders_nine_rows() {
        let t = table3(&platform());
        assert_eq!(t.rows.len(), 9);
        assert!(t.to_text().contains("32768"));
    }
}
