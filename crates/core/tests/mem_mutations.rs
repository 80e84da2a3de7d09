//! Mutation tests for the static memory analyzer: corrupt a rank's
//! recorded liveness intervals and assert the analyzer reports each
//! corruption class with the right check kind, rank, and layer — and
//! that uncorrupted plans analyze clean on every model × strategy ×
//! grid combination the unit suite trains with.

use fg_core::{DistExecutor, MemCheckKind, Strategy};
use fg_nn::NetworkSpec;
use fg_tensor::{BufClass, ProcGrid};

/// Miniature segmentation net (conv/bn/relu chain, per-pixel loss).
fn mesh_net() -> NetworkSpec {
    let mut net = NetworkSpec::new();
    let i = net.input("data", 3, 16, 16);
    let c1 = net.conv("conv1_1", i, 4, 3, 1, 1);
    let b1 = net.batchnorm("bn1_1", c1);
    let r1 = net.relu("relu1_1", b1);
    let c2 = net.conv("conv1_2", r1, 4, 3, 2, 1);
    let r2 = net.relu("relu1_2", c2);
    let pred = net.conv("pred", r2, 2, 1, 1, 0);
    net.loss("loss", pred);
    net
}

/// Miniature classification net with a residual join, GAP and FC.
fn resnet() -> NetworkSpec {
    let mut net = NetworkSpec::new();
    let i = net.input("data", 3, 16, 16);
    let c1 = net.conv("conv1", i, 4, 3, 1, 1);
    let b1 = net.batchnorm("bn1", c1);
    let r1 = net.relu("relu1", b1);
    let p1 = net.maxpool("pool1", r1, 3, 2, 1);
    let c2a = net.conv("res_branch2a", p1, 4, 3, 1, 1);
    let r2a = net.relu("res_relu", c2a);
    let c2b = net.conv("res_branch2b", r2a, 4, 3, 1, 1);
    let j = net.add_join("res_add", &[c2b, p1]);
    let r2 = net.relu("relu2", j);
    let g = net.global_avg_pool("gap", r2);
    let f = net.fc("fc", g, 5);
    net.loss("loss", f);
    net
}

fn spatial_executor() -> DistExecutor {
    let spec = mesh_net();
    let strategy = Strategy::uniform(&spec, ProcGrid::spatial(2, 2));
    DistExecutor::new(spec, strategy, 2).expect("strategy valid")
}

#[test]
fn clean_plans_analyze_clean_across_models_and_grids() {
    let cases: Vec<(NetworkSpec, ProcGrid, usize)> = vec![
        (mesh_net(), ProcGrid::sample(1), 2),
        (mesh_net(), ProcGrid::spatial(2, 2), 2),
        (mesh_net(), ProcGrid::sample(4), 4),
        (mesh_net(), ProcGrid::hybrid(2, 2, 1), 4),
        (resnet(), ProcGrid::spatial(2, 2), 2),
        (resnet(), ProcGrid::hybrid(2, 1, 2), 4),
    ];
    for (spec, grid, batch) in cases {
        let strategy = Strategy::uniform(&spec, grid);
        let exec = DistExecutor::new(spec, strategy, batch).expect("strategy valid");
        let report = exec.analyze_memory();
        assert!(report.is_clean(), "grid {grid:?} must analyze clean: {report}");
        assert!(report.max_peak() > 0, "bounds must be non-trivial");
    }

    // Mixed grids (§III-C shuffles in both directions) are the
    // interesting staging case.
    let spec = mesh_net();
    let mut strategy = Strategy::uniform(&spec, ProcGrid::sample(4));
    for name in ["data", "conv1_1", "bn1_1", "relu1_1"] {
        strategy.grids[spec.find(name).unwrap()] = ProcGrid::spatial(2, 2);
    }
    let exec = DistExecutor::new(spec, strategy, 4).expect("strategy valid");
    let report = exec.analyze_memory();
    assert!(report.is_clean(), "mixed grids must analyze clean: {report}");
}

/// A halo-staging interval understating the bytes
/// its plan actually moves must produce a `StagingUnderstated` violation
/// naming the rank and the conv layer that owns the halo.
#[test]
fn understated_halo_staging_is_caught() {
    let exec = spatial_executor();
    let victim = 3usize;
    let report = exec.analyze_memory_with(|rank, ivs| {
        if rank != victim {
            return;
        }
        let iv = ivs
            .iter_mut()
            .find(|iv| iv.class == BufClass::HaloStage && iv.bytes > 0)
            .expect("spatial conv must have halo staging");
        iv.bytes /= 2;
    });
    let v = report
        .violations
        .iter()
        .find(|v| v.kind == MemCheckKind::StagingUnderstated)
        .expect("understated halo staging must be reported");
    assert_eq!(v.rank, victim, "violation names the corrupted rank");
    assert!(!v.layer_name.is_empty(), "violation names the halo's layer");
    assert!(v.detail.contains("but the plan moves"), "{v}");
}

/// Shuffle staging is held to the same standard on a mixed-grid
/// strategy (redistribution in both directions).
#[test]
fn understated_shuffle_staging_is_caught() {
    let spec = mesh_net();
    let mut strategy = Strategy::uniform(&spec, ProcGrid::sample(4));
    for name in ["data", "conv1_1", "bn1_1", "relu1_1"] {
        strategy.grids[spec.find(name).unwrap()] = ProcGrid::spatial(2, 2);
    }
    let exec = DistExecutor::new(spec, strategy, 4).expect("strategy valid");
    let report = exec.analyze_memory_with(|rank, ivs| {
        if rank != 0 {
            return;
        }
        let iv = ivs
            .iter_mut()
            .find(|iv| iv.class == BufClass::ShuffleStage && iv.bytes > 0)
            .expect("mixed grids must have shuffle staging");
        iv.bytes = 0;
    });
    assert!(
        report.violations.iter().any(|v| v.kind == MemCheckKind::StagingUnderstated && v.rank == 0),
        "zeroed shuffle staging must be reported: {report}"
    );
}
