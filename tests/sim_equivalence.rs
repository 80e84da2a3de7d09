//! DES ≡ threaded execution: the correctness anchor of the event-driven
//! virtual-time engine, quantified over the input space.
//!
//! The discrete-event scheduler (`fg_comm::simulate_traces`) claims to
//! compute *exactly* the per-rank clocks the thread-per-rank timed
//! runtime (`run_ranks_timed`) produces — not approximately, bit for
//! bit. Here that claim is pinned by property test on validation-scale
//! worlds (≤ 8 ranks, where the threaded runtime is still cheap): real
//! recorded model schedules — shipped mesh models plus a hand-built
//! net, across sample / spatial / hybrid strategies, with and without
//! modeled compute — executed under *random* link models drawn from
//! every shipped constructor (`alpha_beta`, `two_level`, `custom`).
//! (`sim_golden.rs` pins the reports themselves, at 128–512 ranks.)

use fg_bench::experiments::hybrid_grid;
use finegrain::comm::RankTrace;
use finegrain::comm::{replay_traces_timed, simulate_traces, LinkModel};
use finegrain::core::{DistExecutor, Strategy as ParallelStrategy};
use finegrain::models::{mesh_model, MeshSize};
use finegrain::nn::NetworkSpec;
use finegrain::perf::{ModeledCompute, Platform, SlowedCompute};
use finegrain::tensor::ProcGrid;
use proptest::prelude::*;
use std::sync::OnceLock;

/// A small segmentation net that is not one of the shipped models —
/// exercises a spec the mesh/ResNet recording paths never produce.
fn tiny_spec() -> NetworkSpec {
    let mut spec = NetworkSpec::new();
    let i = spec.input("x", 3, 16, 16);
    let c = spec.conv("conv", i, 8, 3, 1, 1);
    let r = spec.relu("relu", c);
    let p = spec.conv("pred", r, 2, 1, 1, 0);
    spec.loss("loss", p);
    spec
}

fn record(spec: NetworkSpec, grid: ProcGrid, batch: usize, modeled: bool) -> Vec<RankTrace> {
    let strategy = ParallelStrategy::uniform(&spec, grid);
    let exec = DistExecutor::new(spec.clone(), strategy.clone(), batch)
        .expect("validation configuration must compile");
    if modeled {
        let platform = Platform::lassen_like();
        let oracle = ModeledCompute::new(&platform, &spec, &strategy, batch);
        exec.record_traces(Some(&oracle))
    } else {
        exec.record_traces(None)
    }
}

/// Validation-scale schedules, recorded once: the link model does not
/// affect *what* is traced, only how long it takes, so every proptest
/// case reuses these and varies only the network.
fn schedules() -> &'static Vec<(&'static str, Vec<RankTrace>)> {
    static SCHEDULES: OnceLock<Vec<(&'static str, Vec<RankTrace>)>> = OnceLock::new();
    SCHEDULES.get_or_init(|| {
        vec![
            ("mesh-1K sample(4)", record(mesh_model(MeshSize::OneK), ProcGrid::sample(4), 4, true)),
            ("mesh-1K hybrid(2,4)", record(mesh_model(MeshSize::OneK), hybrid_grid(2, 4), 2, true)),
            ("mesh-2K hybrid(1,4)", record(mesh_model(MeshSize::TwoK), hybrid_grid(1, 4), 1, true)),
            ("mesh-2K hybrid(2,2)", record(mesh_model(MeshSize::TwoK), hybrid_grid(2, 2), 2, true)),
            ("tiny spatial(2,2) comm-only", record(tiny_spec(), ProcGrid::spatial(2, 2), 2, false)),
        ]
    })
}

/// A random link model from every shipped constructor. The `custom`
/// arm builds an arbitrary deterministic pair-dependent topology from
/// the seed — latencies the α–β forms cannot express.
fn link_model() -> impl Strategy<Value = LinkModel> {
    prop_oneof![
        (1e-7..1e-4f64, 1e-11..1e-8f64).prop_map(|(a, b)| LinkModel::alpha_beta(a, b)),
        (1usize..=4, 1e-7..1e-5f64, 1e-11..1e-9f64, 1.0..50.0f64)
            .prop_map(|(rpn, a, b, far)| LinkModel::two_level(rpn, a, b, a * far, b * far)),
        (1e-7..1e-5f64, 1e-11..1e-9f64, any::<u64>()).prop_map(|(a, b, seed)| {
            LinkModel::custom(move |src, dst, bytes| {
                let h = (src as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add((dst as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
                    .wrapping_add(seed);
                a * (1.0 + (h % 7) as f64) + b * bytes as f64
            })
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For every recorded schedule under a random link model: the DES
    /// clocks equal the thread-per-rank clocks *exactly* (f64 `==`, no
    /// tolerance), and a second run reproduces the report.
    #[test]
    fn des_equals_threaded_and_is_deterministic(
        which in 0usize..5,
        link in link_model(),
    ) {
        let (name, traces) = &schedules()[which];
        let des = simulate_traces(traces, &link)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let threaded = replay_traces_timed(traces, &link);
        prop_assert_eq!(&des.clocks, &threaded, "schedule {}", name);

        let mut rerun = simulate_traces(traces, &link)
            .unwrap_or_else(|e| panic!("{name}, second run: {e}"));
        rerun.wall = des.wall;
        prop_assert_eq!(des, rerun, "schedule {}", name);
    }
}

/// Record a schedule whose modeled compute is stretched per rank by
/// gray-failure `factors` ([`SlowedCompute`]).
fn record_slowed(
    spec: NetworkSpec,
    grid: ProcGrid,
    batch: usize,
    factors: &[f64],
) -> Vec<RankTrace> {
    let strategy = ParallelStrategy::uniform(&spec, grid);
    let exec = DistExecutor::new(spec.clone(), strategy.clone(), batch)
        .expect("validation configuration must compile");
    let platform = Platform::lassen_like();
    let oracle = SlowedCompute::new(
        ModeledCompute::new(&platform, &spec, &strategy, batch),
        factors.to_vec(),
    );
    exec.record_traces(Some(&oracle))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Slow-rank equivalence: a schedule recorded with a gray-failed
    /// rank ([`SlowedCompute`], how paper-scale straggler sweeps run)
    /// simulates to the thread-per-rank timed replay's clocks, bit for
    /// bit, for any victim, factor, and link model.
    #[test]
    fn slow_rank_des_equals_threaded_replay(
        which in 0usize..2,
        victim in 0usize..8,
        factor in 1.0..32.0f64,
        link in link_model(),
    ) {
        let (spec, grid, batch) = match which {
            0 => (mesh_model(MeshSize::OneK), ProcGrid::sample(4), 4),
            _ => (mesh_model(MeshSize::OneK), hybrid_grid(2, 4), 2),
        };
        let world = grid.size();
        let mut factors = vec![1.0f64; world];
        factors[victim % world] = factor;

        let recorded = record_slowed(spec, grid, batch, &factors);
        let des = simulate_traces(&recorded, &link).expect("recorded DES runs");
        // Ground truth: the threaded timed replay of the slowed world.
        let threaded = replay_traces_timed(&recorded, &link);
        prop_assert_eq!(&des.clocks, &threaded, "DES must equal the threaded replay");
    }
}
