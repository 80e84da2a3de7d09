//! Mesh-model scaling — Table I (1K strong scaling), Table II (2K
//! strong scaling), Fig. 4 (weak scaling), all regenerated from the
//! performance model at full Lassen scale.
//!
//! Strong scaling fixes the mini-batch and adds GPUs per sample; weak
//! scaling fixes samples/GPU and grows the batch with the machine. Both
//! run the full mesh model (19 or 31 convolutions) under uniform hybrid
//! strategies, "the same data decomposition for every layer in a given
//! configuration" (§VI-B).

use fg_core::Strategy;
use fg_models::{mesh_model, MeshSize};
use fg_nn::NetworkSpec;
use fg_perf::{network_cost, CostOptions, Platform};

use super::{hybrid_grid, MAX_WORLD};
use crate::table::{fmt_speedup, fmt_time, Table};

/// Modeled mini-batch time for the mesh model under a uniform hybrid
/// strategy; `None` if the configuration doesn't fit the machine.
fn mesh_minibatch_time(
    platform: &Platform,
    spec: &NetworkSpec,
    batch: usize,
    scheme: usize,
) -> Option<f64> {
    let world = batch.checked_mul(scheme)?;
    if world > MAX_WORLD || world == 0 {
        return None;
    }
    let strategy = Strategy::uniform(spec, hybrid_grid(batch, scheme));
    Some(network_cost(platform, spec, batch, &strategy, &CostOptions::default()).total())
}

/// Strong-scaling table (Table I for 1K, Table II for 2K): rows are
/// mini-batch sizes, columns are GPUs/sample, cells show time and
/// speedup over the baseline scheme.
fn strong_scaling_table(
    platform: &Platform,
    size: MeshSize,
    batches: &[usize],
    schemes: &[usize],
    title: &str,
) -> Table {
    let spec = mesh_model(size);
    let mut headers = vec!["N".to_string()];
    for &s in schemes {
        headers.push(format!("{s} GPU/sample"));
    }
    let mut t = Table::new(title, &headers.iter().map(|s| s.as_str()).collect::<Vec<_>>());
    for &n in batches {
        let mut row = vec![n.to_string()];
        let baseline = mesh_minibatch_time(platform, &spec, n, schemes[0]);
        for (i, &s) in schemes.iter().enumerate() {
            match (mesh_minibatch_time(platform, &spec, n, s), baseline) {
                (Some(time), Some(base)) if i > 0 => {
                    row.push(format!("{} ({})", fmt_time(time), fmt_speedup(base / time)));
                }
                (Some(time), _) => row.push(fmt_time(time)),
                _ => row.push("n/a".into()),
            }
        }
        t.push_row(row);
    }
    t
}

/// Table I: 1K mesh strong scaling, baseline 1 GPU/sample.
pub fn table1(platform: &Platform) -> Table {
    strong_scaling_table(
        platform,
        MeshSize::OneK,
        &[4, 8, 16, 32, 64, 128, 256, 512, 1024],
        &[1, 2, 4, 8, 16],
        "Table I: 1K mesh strong scaling (mini-batch time, speedup vs 1 GPU/sample)",
    )
}

/// Table II: 2K mesh strong scaling, baseline 2 GPUs/sample (one sample
/// does not fit one GPU).
pub fn table2(platform: &Platform) -> Table {
    strong_scaling_table(
        platform,
        MeshSize::TwoK,
        &[2, 4, 8, 16, 32, 64, 128, 256, 512],
        &[2, 4, 8, 16],
        "Table II: 2K mesh strong scaling (mini-batch time, speedup vs 2 GPUs/sample)",
    )
}

/// Fig. 4: weak scaling. Rows are total GPUs (4…2048), one column per
/// scheme; the batch grows with the machine (`N = GPUs / scheme`).
pub fn fig4(platform: &Platform, size: MeshSize) -> Table {
    let spec = mesh_model(size);
    let (schemes, max_batch): (&[usize], usize) = match size {
        MeshSize::OneK => (&[1, 2, 4, 8, 16], 2048),
        MeshSize::TwoK => (&[2, 4, 8, 16], 1024),
    };
    let mut headers = vec!["GPUs".to_string()];
    for &s in schemes {
        headers.push(format!("{s} GPU/sample"));
    }
    let name = match size {
        MeshSize::OneK => "Fig. 4 (left): 1024x1024 mesh model weak scaling",
        MeshSize::TwoK => "Fig. 4 (right): 2048x2048 mesh model weak scaling",
    };
    let mut t = Table::new(name, &headers.iter().map(|s| s.as_str()).collect::<Vec<_>>());
    let mut gpus = 4usize;
    while gpus <= MAX_WORLD {
        let mut row = vec![gpus.to_string()];
        for &s in schemes {
            if gpus.is_multiple_of(s) && gpus / s >= 1 && gpus / s <= max_batch {
                match mesh_minibatch_time(platform, &spec, gpus / s, s) {
                    Some(time) => row.push(fmt_time(time)),
                    None => row.push("n/a".into()),
                }
            } else {
                row.push("n/a".into());
            }
        }
        t.push_row(row);
        gpus *= 2;
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
    fn table1_strong_scaling_shape() {
        // The paper's Table I pattern: ~2.0x at 2 GPUs/sample, further
        // but sublinear gains at 4/8/16.
        let p = platform();
        let spec = mesh_model(MeshSize::OneK);
        let t1 = mesh_minibatch_time(&p, &spec, 4, 1).unwrap();
        let t2 = mesh_minibatch_time(&p, &spec, 4, 2).unwrap();
        let t4 = mesh_minibatch_time(&p, &spec, 4, 4).unwrap();
        let t8 = mesh_minibatch_time(&p, &spec, 4, 8).unwrap();
        let t16 = mesh_minibatch_time(&p, &spec, 4, 16).unwrap();
        let s = |t: f64| t1 / t;
        assert!((1.7..=2.05).contains(&s(t2)), "2-way speedup {}", s(t2));
        assert!(s(t4) > 2.5 && s(t4) < 4.05, "4-way speedup {}", s(t4));
        assert!(s(t8) > s(t4), "8-way must beat 4-way");
        assert!(s(t16) > s(t8), "16-way must beat 8-way");
        assert!(s(t16) < 12.0, "16-way must be clearly sublinear, got {}", s(t16));
    }

    #[test]
    fn table2_2k_model_needs_spatial_parallelism() {
        // Speedups over the 2-GPU baseline: paper reports ~2.0x (4),
        // ~2.9x (8), ~3.6x (16).
        let p = platform();
        let spec = mesh_model(MeshSize::TwoK);
        let t2 = mesh_minibatch_time(&p, &spec, 4, 2).unwrap();
        let t4 = mesh_minibatch_time(&p, &spec, 4, 4).unwrap();
        let t16 = mesh_minibatch_time(&p, &spec, 4, 16).unwrap();
        assert!((1.6..=2.1).contains(&(t2 / t4)), "4 vs 2 speedup {}", t2 / t4);
        assert!((2.4..=8.0).contains(&(t2 / t16)), "16 vs 2 speedup {}", t2 / t16);
    }

    #[test]
    fn strong_scaling_flat_across_batch_sizes() {
        // Each column of Table I is nearly constant in N (per-GPU work
        // is fixed): check the 2-GPU column at N=4 vs N=512.
        let p = platform();
        let spec = mesh_model(MeshSize::OneK);
        let small = mesh_minibatch_time(&p, &spec, 4, 2).unwrap();
        let large = mesh_minibatch_time(&p, &spec, 512, 2).unwrap();
        assert!((large / small) < 1.25, "column should be ~flat in N: {small} vs {large}");
    }

    #[test]
    fn weak_scaling_flat_with_slight_degradation_at_extreme_decomposition() {
        let p = platform();
        let spec = mesh_model(MeshSize::OneK);
        // 1 GPU/sample: flat from 4 to 2048 GPUs.
        let t4 = mesh_minibatch_time(&p, &spec, 4, 1).unwrap();
        let t2048 = mesh_minibatch_time(&p, &spec, 2048, 1).unwrap();
        assert!(t2048 / t4 < 1.2, "1 GPU/sample weak scaling degraded: {t4} → {t2048}");
        // 16 GPUs/sample: the paper observes a slight upward trend at
        // scale (allreduce exposure); must stay modest.
        let t16a = mesh_minibatch_time(&p, &spec, 4, 16).unwrap();
        let t16b = mesh_minibatch_time(&p, &spec, 128, 16).unwrap();
        assert!(t16b >= t16a * 0.99, "16-way should not get faster with scale");
        assert!(t16b / t16a < 1.6, "16-way degradation too large: {t16a} → {t16b}");
    }

    #[test]
    fn infeasible_configurations_are_none() {
        let p = platform();
        let spec = mesh_model(MeshSize::OneK);
        // N=256 at 16 GPUs/sample needs 4096 GPUs > 2048 (the paper's
        // n/a cells).
        assert!(mesh_minibatch_time(&p, &spec, 256, 16).is_none());
        assert!(mesh_minibatch_time(&p, &spec, 512, 8).is_none());
    }

    #[test]
    fn tables_render_with_na_cells() {
        let p = platform();
        let t = table1(&p);
        assert_eq!(t.rows.len(), 9);
        let text = t.to_text();
        assert!(text.contains("n/a"));
        let t = table2(&p);
        assert_eq!(t.rows.len(), 9);
        let f = fig4(&p, MeshSize::OneK);
        assert_eq!(f.rows.len(), 10); // 4..2048 in powers of two
    }
}
