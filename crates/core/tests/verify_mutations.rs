//! Mutation tests for the static schedule verifier: corrupt compiled
//! plans (geometry) or recorded traces (wire level) and assert fg-verify
//! reports each corruption with the right check kind, rank, and layer —
//! and that uncorrupted plans verify clean on every model × strategy ×
//! grid combination the unit suite trains with.

use fg_comm::{CheckKind, TraceOp};
use fg_core::{DistExecutor, Strategy, StrategyError};
use fg_nn::NetworkSpec;
use fg_tensor::{check_box_partition, ProcGrid, Shape4};

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

/// A mixed-grid strategy exercising the §III-C shuffles: early layers
/// spatial, the rest sample-parallel.
fn mixed_executor() -> DistExecutor {
    let spec = mesh_net();
    let mut strategy = Strategy::uniform(&spec, ProcGrid::sample(4));
    for name in ["data", "conv1_1", "bn1_1", "relu1_1"] {
        strategy.grids[spec.find(name).unwrap()] = ProcGrid::spatial(2, 2);
    }
    DistExecutor::new(spec, strategy, 4).expect("strategy valid")
}

#[test]
fn clean_plans_verify_clean_across_models_and_grids() {
    let cases: Vec<(NetworkSpec, ProcGrid, usize)> = vec![
        (mesh_net(), ProcGrid::sample(1), 2),
        (mesh_net(), ProcGrid::spatial(2, 2), 2),
        (mesh_net(), ProcGrid::sample(4), 4),
        (mesh_net(), ProcGrid::hybrid(2, 2, 1), 4),
        (mesh_net(), ProcGrid::spatial(4, 2), 2),
        (resnet(), ProcGrid::spatial(2, 2), 2),
        (resnet(), ProcGrid::hybrid(2, 1, 2), 4),
        (resnet(), ProcGrid::hybrid(2, 2, 2), 4),
    ];
    for (spec, grid, batch) in cases {
        let strategy = Strategy::uniform(&spec, grid);
        let exec = DistExecutor::new(spec, strategy, batch).expect("strategy valid");
        let report = exec.verify();
        assert!(report.is_clean(), "grid {grid:?}: {report}");
        if grid.size() > 1 {
            assert!(report.stats.ops_traced > 0, "grid {grid:?} traced nothing");
            assert!(report.stats.collectives_checked > 0, "grid {grid:?}: no collectives");
            assert!(report.stats.bytes_accounted > 0, "grid {grid:?}: no bytes");
        }
    }
}

#[test]
fn weighted_partitions_verify_clean_across_models_and_grids() {
    // The layouts a gray-failure rebalance emits: the uniform grids
    // above with non-uniform rank weights. Clean plans must stay clean
    // under weighting on both shipped model shapes.
    let cases: Vec<(NetworkSpec, ProcGrid, Vec<u64>, usize)> = vec![
        (mesh_net(), ProcGrid::spatial(4, 1), vec![1, 3, 3, 3], 2),
        (mesh_net(), ProcGrid::spatial(2, 2), vec![1, 2, 2, 2], 2),
        (resnet(), ProcGrid::spatial(2, 2), vec![2, 3, 3, 3], 2),
        (resnet(), ProcGrid::hybrid(2, 2, 1), vec![1, 1, 3, 3], 4),
    ];
    for (spec, grid, weights, batch) in cases {
        let strategy = Strategy::uniform(&spec, grid).with_rank_weights(weights.clone());
        let exec = DistExecutor::new(spec, strategy, batch).expect("weighted strategy valid");
        let report = exec.verify();
        assert!(report.is_clean(), "grid {grid:?} weights {weights:?}: {report}");
        assert!(report.stats.ops_traced > 0, "grid {grid:?} weights {weights:?} traced nothing");
    }
}

#[test]
fn gap_or_overlap_in_a_weighted_partition_is_caught() {
    // The partition soundness check under shuffle conservation, on a
    // weighted layout:
    // the exact weighted boxes tile the tensor, and any single-row gap
    // or overlap introduced into them is rejected.
    let shape = Shape4::new(2, 4, 16, 16);
    let grid = ProcGrid::spatial(4, 1);
    let spec = mesh_net();
    let strategy = Strategy::uniform(&spec, grid).with_rank_weights(vec![1, 3, 3, 3]);
    let dist = strategy.dist_for(shape, grid);
    let boxes: Vec<_> = (0..grid.size()).map(|r| dist.local_box(r)).collect();
    // The 1:3:3:3 weighting splits 16 rows as 1/5/5/5 — non-uniform by
    // construction, and still an exact tiling.
    assert_eq!(boxes[0].hi[2] - boxes[0].lo[2], 1);
    assert_eq!(boxes[1].hi[2] - boxes[1].lo[2], 5);
    check_box_partition(&shape.full_box(), &boxes).expect("weighted partition is exact");
    // A gap: shrink one interior box by a row.
    let mut gapped = boxes.clone();
    gapped[2].hi[2] -= 1;
    assert!(check_box_partition(&shape.full_box(), &gapped).is_err(), "gap must be caught");
    // An overlap: grow the same box into its neighbour.
    let mut overlapping = boxes.clone();
    overlapping[2].hi[2] += 1;
    assert!(
        check_box_partition(&shape.full_box(), &overlapping).is_err(),
        "overlap must be caught"
    );
}

#[test]
fn shrunken_halo_on_a_weighted_layout_is_reported_as_halo_asymmetry() {
    // The mutation bar holds on rebalanced layouts too: corrupt a halo
    // send in a weighted executor's plans and the verifier must name
    // the rank and layer.
    let spec = mesh_net();
    let conv = spec.find("conv1_1").unwrap();
    let strategy =
        Strategy::uniform(&spec, ProcGrid::spatial(4, 1)).with_rank_weights(vec![1, 3, 3, 3]);
    let exec = DistExecutor::new(spec, strategy, 2).unwrap();
    let report = exec.verify_with(
        |plans| {
            // Rank 1 owns 5 rows under the 1:3:3:3 weighting; shrink its
            // first halo send by one row.
            let halo = plans[conv][1].x_halo.as_mut().expect("conv has an x halo");
            halo.sends[0].1.hi[2] -= 1;
        },
        |_| {},
    );
    assert!(!report.is_clean());
    assert!(
        report.violations.iter().any(|v| v.check == CheckKind::HaloSymmetry
            && v.rank == 1
            && v.layer == conv
            && v.layer_name == "conv1_1"),
        "{report}"
    );
}

#[test]
fn mixed_grid_strategy_with_shuffles_verifies_clean() {
    let report = mixed_executor().verify();
    assert!(report.is_clean(), "{report}");
    // The grid switch compiles real shuffles, so the trace must carry
    // p2p links beyond the halo exchanges.
    assert!(report.stats.links_checked > 0);
}

#[test]
fn shrunken_halo_is_reported_as_halo_asymmetry() {
    let spec = mesh_net();
    let conv = spec.find("conv1_1").unwrap();
    let exec = DistExecutor::new(spec, Strategy::uniform(&mesh_net(), ProcGrid::spatial(2, 2)), 2)
        .unwrap();
    let report = exec.verify_with(
        |plans| {
            // Shrink rank 0's first halo send by one row: the peer still
            // expects the full region.
            let halo = plans[conv][0].x_halo.as_mut().expect("conv has an x halo");
            halo.sends[0].1.hi[2] -= 1;
        },
        |_| {},
    );
    assert!(!report.is_clean());
    assert!(
        report.violations.iter().any(|v| v.check == CheckKind::HaloSymmetry
            && v.rank == 0
            && v.layer == conv
            && v.layer_name == "conv1_1"),
        "{report}"
    );
}

#[test]
fn flipped_tag_is_reported_as_unmatched_p2p() {
    let spec = mesh_net();
    let conv = spec.find("conv1_1").unwrap();
    let exec = DistExecutor::new(spec, Strategy::uniform(&mesh_net(), ProcGrid::spatial(2, 2)), 2)
        .unwrap();
    let report = exec.verify_with(
        |_| {},
        |traces| {
            // Flip the tag of rank 0's first send onto a tag nobody uses:
            // its message is never consumed and the peer blocks.
            let e = traces[0]
                .entries
                .iter_mut()
                .find(|e| matches!(e.op, TraceOp::Send { .. }))
                .expect("rank 0 sends");
            if let TraceOp::Send { tag, .. } = &mut e.op {
                *tag ^= 0xdead_beef;
            }
        },
    );
    assert!(!report.is_clean());
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.check == CheckKind::P2pMatching && v.rank == 0 && v.layer == conv),
        "{report}"
    );
}

#[test]
fn tag_reuse_across_exchanges_is_reported_as_tag_indiscipline() {
    let exec =
        DistExecutor::new(mesh_net(), Strategy::uniform(&mesh_net(), ProcGrid::spatial(2, 2)), 2)
            .unwrap();
    let report = exec.verify_with(
        |_| {},
        |traces| {
            // Re-tag every one of rank 0's sends with its first send's
            // tag: distinct exchanges now share (peer, tag) streams.
            let first = traces[0]
                .entries
                .iter()
                .find_map(|e| match e.op {
                    TraceOp::Send { tag, .. } => Some(tag),
                    _ => None,
                })
                .expect("rank 0 sends");
            for e in &mut traces[0].entries {
                if let TraceOp::Send { tag, .. } = &mut e.op {
                    *tag = first;
                }
            }
        },
    );
    assert!(!report.is_clean());
    assert!(
        report.violations.iter().any(|v| v.check == CheckKind::TagDiscipline && v.rank == 0),
        "{report}"
    );
}

#[test]
fn dropped_allreduce_is_reported_against_the_skipping_rank() {
    let spec = mesh_net();
    let exec = DistExecutor::new(spec, Strategy::uniform(&mesh_net(), ProcGrid::spatial(2, 2)), 2)
        .unwrap();
    let report = exec.verify_with(
        |_| {},
        |traces| {
            // Rank 3 skips its first collective (a BN statistics
            // allreduce): the group would hang waiting for it.
            let pos = traces[3]
                .entries
                .iter()
                .position(|e| matches!(e.op, TraceOp::Collective { .. }))
                .expect("rank 3 joins collectives");
            traces[3].entries.remove(pos);
        },
    );
    assert!(!report.is_clean());
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.check == CheckKind::CollectiveConsistency && v.rank == 3),
        "{report}"
    );
}

#[test]
fn skewed_shuffle_destination_is_reported_as_conservation_failure() {
    let exec = mixed_executor();
    let spec = mesh_net();
    let c2 = spec.find("conv1_2").unwrap();
    let report = exec.verify_with(
        |plans| {
            // conv1_2 consumes the spatial→sample shuffle; re-point rank
            // 0's first send at the wrong destination rank.
            let shuffle = plans[c2][0].in_shuffles[0].as_mut().expect("grid switch shuffles");
            let sends = shuffle.sends_mut();
            let (peer, _) = sends[0];
            sends[0].0 = (peer + 1) % 4;
        },
        |_| {},
    );
    assert!(!report.is_clean());
    assert!(
        report.violations.iter().any(|v| v.check == CheckKind::Conservation
            && v.layer == c2
            && v.layer_name == "conv1_2"),
        "{report}"
    );
}

#[test]
fn construction_verifies_and_accepts_sound_plans() {
    // Every construction of at most 64 ranks verifies its schedule, and
    // sound plans build.
    let built =
        DistExecutor::new(resnet(), Strategy::uniform(&resnet(), ProcGrid::spatial(2, 2)), 2);
    assert!(built.is_ok(), "{:?}", built.err());
}

#[test]
fn schedule_unsound_error_carries_the_diagnostic() {
    // Surface shape of the construction failure path: a violation folded
    // into StrategyError::ScheduleUnsound keeps rank/layer/check info.
    let spec = mesh_net();
    let conv = spec.find("conv1_1").unwrap();
    let exec = DistExecutor::new(spec, Strategy::uniform(&mesh_net(), ProcGrid::spatial(2, 2)), 2)
        .unwrap();
    let report = exec.verify_with(
        |plans| {
            let halo = plans[conv][0].x_halo.as_mut().unwrap();
            halo.sends[0].1.hi[2] -= 1;
        },
        |_| {},
    );
    let v = report.violations.first().expect("corruption detected");
    let err = StrategyError::ScheduleUnsound { layer: v.layer, detail: v.to_string() };
    let msg = err.to_string();
    assert!(msg.contains("conv1_1"), "{msg}");
    assert!(msg.contains("rank"), "{msg}");
}
