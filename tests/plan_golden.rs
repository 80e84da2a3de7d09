//! Every rank's compiled layer plan, seen from outside: one FNV-64 per
//! (config, layer) over the plans of all ranks, recorded before plan
//! compilation stopped allocating shuffle slots for edges that do not
//! shuffle and stopped collecting per-dimension coordinate lists.
//!
//! The digest reads a plan the way its consumers do — a shuffle slot by
//! `get(edge)`, so an empty slot list and a list of `None`s hash alike —
//! and covers what they read: the forward and adjoint halo send and
//! receive lists in order, the interior split, the forward and adjoint
//! shuffle per parent edge, both group layouts, and the label range.
//!
//! The configs are the three paper-scale pipelines the planner benchmark
//! compiles (512, 128 and 512 ranks), a weighted layout on a
//! non-power-of-two grid, and a mixed strategy whose grid changes on the
//! edges into a residual join (shuffle slots filled on one edge of two).

use finegrain::core::layers::LayerPlan;
use finegrain::core::{DistExecutor, Strategy};
use finegrain::models::{mesh_model, resnet50, MeshSize};
use finegrain::nn::NetworkSpec;
use finegrain::tensor::halo::HaloPlan;
use finegrain::tensor::shuffle::ShufflePlan;
use finegrain::tensor::ProcGrid;

/// Classification net with a residual join, GAP, FC and per-sample loss.
fn mini_resnet() -> NetworkSpec {
    let mut net = NetworkSpec::new();
    let i = net.input("data", 3, 18, 18);
    let c1 = net.conv("conv1", i, 4, 3, 1, 1);
    let b1 = net.batchnorm("bn1", c1);
    let r1 = net.relu("relu1", b1);
    let p1 = net.maxpool("pool1", r1, 3, 2, 1);
    let c2a = net.conv("res_branch2a", p1, 4, 3, 1, 1);
    let r2a = net.relu("res_relu", c2a);
    let c2b = net.conv("res_branch2b", r2a, 4, 5, 1, 2);
    let j = net.add_join("res_add", &[c2b, p1]);
    let r2 = net.relu("relu2", j);
    let g = net.global_avg_pool("gap", r2);
    let f = net.fc("fc", g, 5);
    net.loss("loss", f);
    net
}

fn configs() -> Vec<(&'static str, NetworkSpec, Strategy, usize)> {
    let uniform = |name, spec: NetworkSpec, grid, batch| {
        let strategy = Strategy::uniform(&spec, grid);
        (name, spec, strategy, batch)
    };
    let mut out = vec![
        uniform("mesh1k_512", mesh_model(MeshSize::OneK), ProcGrid::hybrid(32, 4, 4), 32),
        uniform("mesh2k_128", mesh_model(MeshSize::TwoK), ProcGrid::hybrid(8, 4, 4), 8),
        uniform("resnet_512", resnet50(), ProcGrid::hybrid(256, 2, 1), 8192),
    ];

    // Weighted, non-power-of-two: a 2 × 3 × 2 grid whose H and W splits
    // are uneven, so boxes, halos and the interior split all move.
    let spec = mini_resnet();
    let weights = vec![1, 2, 2, 3, 3, 4, 1, 2, 2, 3, 3, 4];
    let strategy = Strategy::uniform(&spec, ProcGrid::new(2, 1, 3, 2)).with_rank_weights(weights);
    out.push(("weighted_2x3x2", spec, strategy, 4));

    // Mixed: the residual branch sample-parallel, everything else
    // spatial, so `res_add` shuffles its edge from `res_branch2b` and
    // borrows the one from `pool1`.
    let spec = mini_resnet();
    let mut strategy = Strategy::uniform(&spec, ProcGrid::spatial(2, 2));
    for name in ["res_branch2a", "res_relu", "res_branch2b"] {
        strategy.grids[spec.find(name).expect("layer exists")] = ProcGrid::sample(4);
    }
    out.push(("mixed_4", spec, strategy, 4));
    out
}

fn fnv(h: &mut u64, text: &str) {
    for b in text.bytes() {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Slot `edge` of a per-edge shuffle list; a missing slot is no shuffle.
fn slot(shuffles: &[Option<ShufflePlan>], edge: usize) -> Option<&ShufflePlan> {
    shuffles.get(edge).and_then(Option::as_ref)
}

/// What one rank's plan for a layer with `edges` parent edges holds.
fn plan_text(plan: &LayerPlan, edges: usize) -> String {
    let halo = |h: &Option<HaloPlan>| {
        h.as_ref().map(|h| format!("sends {:?} recvs {:?}", h.sends, h.recvs))
    };
    let shuffle = |s: Option<&ShufflePlan>| s.map(|s| format!("{:?} {:?}", s.sends(), s.recvs()));
    let mut text = format!(
        "x {:?} dy {:?} interior {:?}",
        halo(&plan.x_halo),
        halo(&plan.dy_halo),
        plan.interior
    );
    for e in 0..edges {
        text += &format!(
            " edge {e} in {:?} back {:?}",
            shuffle(slot(&plan.in_shuffles, e)),
            shuffle(slot(&plan.back_shuffles, e))
        );
    }
    text += &format!(
        " spatial {:?} cross {:?} labels {:?}",
        plan.spatial_group, plan.cross_group, plan.label_range
    );
    text
}

/// Per config, in `configs()` order: one digest per layer over every
/// rank's plan, ranks in order.
fn digests() -> Vec<(&'static str, Vec<u64>)> {
    let mut out = Vec::new();
    for (name, spec, strategy, batch) in configs() {
        let edges: Vec<usize> = spec.layers().iter().map(|l| l.parents.len()).collect();
        let exec = DistExecutor::new(spec, strategy, batch)
            .unwrap_or_else(|e| panic!("{name} batch {batch}: {e}"));
        let mut per_layer = Vec::new();
        // The plans are reachable from outside only through the
        // verifier's mutation hook, which hands over a copy.
        exec.verify_with(
            |plans| {
                for (id, per_rank) in plans.iter().enumerate() {
                    let mut h = 0xcbf2_9ce4_8422_2325u64;
                    for (rank, plan) in per_rank.iter().enumerate() {
                        fnv(&mut h, &format!("rank {rank} {}\n", plan_text(plan, edges[id])));
                    }
                    per_layer.push(h);
                }
            },
            |_| {},
        );
        out.push((name, per_layer));
    }
    out
}

#[rustfmt::skip]
const GOLDEN: [(&str, &[u64]); 5] = [
    ("mesh1k_512", &[
        0xc19fd35d6b2c2d4f, 0xd7163e8543113dab, 0x4e537531880244d5, 0x4e537531880244d5,
        0x7b21973caf89927d, 0x4e537531880244d5, 0x4e537531880244d5, 0x7b21973caf89927d,
        0x4e537531880244d5, 0x4e537531880244d5, 0xc73d6f170a01462d, 0x4e537531880244d5,
        0x4e537531880244d5, 0x22d911014f5d16ab, 0x4e537531880244d5, 0x4e537531880244d5,
        0x22d911014f5d16ab, 0x4e537531880244d5, 0x4e537531880244d5, 0xee1338514934559f,
        0x4e537531880244d5, 0x4e537531880244d5, 0x711453a078d86e21, 0x4e537531880244d5,
        0x4e537531880244d5, 0x711453a078d86e21, 0x4e537531880244d5, 0x4e537531880244d5,
        0x748e91646cfcacb3, 0x4e537531880244d5, 0x4e537531880244d5, 0x2806f1178c492e4f,
        0x4e537531880244d5, 0x4e537531880244d5, 0x2806f1178c492e4f, 0x4e537531880244d5,
        0x4e537531880244d5, 0xc528edc7b98811bd, 0x4e537531880244d5, 0x4e537531880244d5,
        0xcaf0329b88b161f1, 0x4e537531880244d5, 0x4e537531880244d5, 0xcaf0329b88b161f1,
        0x4e537531880244d5, 0x4e537531880244d5, 0x71f81ba03e03076d, 0x4e537531880244d5,
        0x4e537531880244d5, 0x985fa6b9290bb805, 0x4e537531880244d5, 0x4e537531880244d5,
        0x985fa6b9290bb805, 0x4e537531880244d5, 0x4e537531880244d5, 0x53e601879bfffaf5,
        0x4e537531880244d5,
    ]),
    ("mesh2k_128", &[
        0x262ca6bb486adca7, 0x5f8ca0bbbb396fe7, 0xe956a811e49fff45, 0xe956a811e49fff45,
        0x4d2ccd920eabb23d, 0xe956a811e49fff45, 0xe956a811e49fff45, 0x4d2ccd920eabb23d,
        0xe956a811e49fff45, 0xe956a811e49fff45, 0x4d2ccd920eabb23d, 0xe956a811e49fff45,
        0xe956a811e49fff45, 0x4d2ccd920eabb23d, 0xe956a811e49fff45, 0xe956a811e49fff45,
        0x6bc35a4102fcafd3, 0xe956a811e49fff45, 0xe956a811e49fff45, 0x4c631df79ced57bd,
        0xe956a811e49fff45, 0xe956a811e49fff45, 0x4c631df79ced57bd, 0xe956a811e49fff45,
        0xe956a811e49fff45, 0x4c631df79ced57bd, 0xe956a811e49fff45, 0xe956a811e49fff45,
        0x4c631df79ced57bd, 0xe956a811e49fff45, 0xe956a811e49fff45, 0xa6cea5688d00d183,
        0xe956a811e49fff45, 0xe956a811e49fff45, 0xb8a30044150150b3, 0xe956a811e49fff45,
        0xe956a811e49fff45, 0xb8a30044150150b3, 0xe956a811e49fff45, 0xe956a811e49fff45,
        0xb8a30044150150b3, 0xe956a811e49fff45, 0xe956a811e49fff45, 0xb8a30044150150b3,
        0xe956a811e49fff45, 0xe956a811e49fff45, 0x7a9a0bef1ad3933b, 0xe956a811e49fff45,
        0xe956a811e49fff45, 0x0aae6a8e18c57375, 0xe956a811e49fff45, 0xe956a811e49fff45,
        0x0aae6a8e18c57375, 0xe956a811e49fff45, 0xe956a811e49fff45, 0x0aae6a8e18c57375,
        0xe956a811e49fff45, 0xe956a811e49fff45, 0x0aae6a8e18c57375, 0xe956a811e49fff45,
        0xe956a811e49fff45, 0x8c6aa7d749bb4c71, 0xe956a811e49fff45, 0xe956a811e49fff45,
        0xb389545405634a79, 0xe956a811e49fff45, 0xe956a811e49fff45, 0xb389545405634a79,
        0xe956a811e49fff45, 0xe956a811e49fff45, 0xb389545405634a79, 0xe956a811e49fff45,
        0xe956a811e49fff45, 0xb389545405634a79, 0xe956a811e49fff45, 0xe956a811e49fff45,
        0x842c72f5a01d026d, 0xe956a811e49fff45, 0xe956a811e49fff45, 0x6d60855d433fd5d3,
        0xe956a811e49fff45, 0xe956a811e49fff45, 0x6d60855d433fd5d3, 0xe956a811e49fff45,
        0xe956a811e49fff45, 0x6d60855d433fd5d3, 0xe956a811e49fff45, 0xe956a811e49fff45,
        0x6d60855d433fd5d3, 0xe956a811e49fff45, 0xe956a811e49fff45, 0x277d86717a783ed7,
        0xe956a811e49fff45,
    ]),
    ("resnet_512", &[
        0xc19fd35d6b2c2d4f, 0x879630f55dde77b5, 0x4e537531880244d5, 0x4e537531880244d5,
        0x2722e1c191ac2659, 0xcfa74b85b3de1f97, 0x4e537531880244d5, 0x4e537531880244d5,
        0xcea9899f42a3975b, 0x4e537531880244d5, 0x4e537531880244d5, 0xcfa74b85b3de1f97,
        0x4e537531880244d5, 0xcfa74b85b3de1f97, 0x4e537531880244d5, 0x7f3c09332d871d7d,
        0x4e537531880244d5, 0xcfa74b85b3de1f97, 0x4e537531880244d5, 0x4e537531880244d5,
        0xcea9899f42a3975b, 0x4e537531880244d5, 0x4e537531880244d5, 0xcfa74b85b3de1f97,
        0x4e537531880244d5, 0x7f3c09332d871d7d, 0x4e537531880244d5, 0xcfa74b85b3de1f97,
        0x4e537531880244d5, 0x4e537531880244d5, 0xcea9899f42a3975b, 0x4e537531880244d5,
        0x4e537531880244d5, 0xcfa74b85b3de1f97, 0x4e537531880244d5, 0x7f3c09332d871d7d,
        0x4e537531880244d5, 0xd206bdd84e26d313, 0x4e537531880244d5, 0x4e537531880244d5,
        0x5dc963a2d2ab0bef, 0x4e537531880244d5, 0x4e537531880244d5, 0xd206bdd84e26d313,
        0x4e537531880244d5, 0xd206bdd84e26d313, 0x4e537531880244d5, 0x7f3c09332d871d7d,
        0x4e537531880244d5, 0xd206bdd84e26d313, 0x4e537531880244d5, 0x4e537531880244d5,
        0x5dc963a2d2ab0bef, 0x4e537531880244d5, 0x4e537531880244d5, 0xd206bdd84e26d313,
        0x4e537531880244d5, 0x7f3c09332d871d7d, 0x4e537531880244d5, 0xd206bdd84e26d313,
        0x4e537531880244d5, 0x4e537531880244d5, 0x5dc963a2d2ab0bef, 0x4e537531880244d5,
        0x4e537531880244d5, 0xd206bdd84e26d313, 0x4e537531880244d5, 0x7f3c09332d871d7d,
        0x4e537531880244d5, 0xd206bdd84e26d313, 0x4e537531880244d5, 0x4e537531880244d5,
        0x5dc963a2d2ab0bef, 0x4e537531880244d5, 0x4e537531880244d5, 0xd206bdd84e26d313,
        0x4e537531880244d5, 0x7f3c09332d871d7d, 0x4e537531880244d5, 0xd0e0fb920f5e05a1,
        0x4e537531880244d5, 0x4e537531880244d5, 0xbbb1d38cb4412201, 0x4e537531880244d5,
        0x4e537531880244d5, 0xd0e0fb920f5e05a1, 0x4e537531880244d5, 0xd0e0fb920f5e05a1,
        0x4e537531880244d5, 0x7f3c09332d871d7d, 0x4e537531880244d5, 0xd0e0fb920f5e05a1,
        0x4e537531880244d5, 0x4e537531880244d5, 0xbbb1d38cb4412201, 0x4e537531880244d5,
        0x4e537531880244d5, 0xd0e0fb920f5e05a1, 0x4e537531880244d5, 0x7f3c09332d871d7d,
        0x4e537531880244d5, 0xd0e0fb920f5e05a1, 0x4e537531880244d5, 0x4e537531880244d5,
        0xbbb1d38cb4412201, 0x4e537531880244d5, 0x4e537531880244d5, 0xd0e0fb920f5e05a1,
        0x4e537531880244d5, 0x7f3c09332d871d7d, 0x4e537531880244d5, 0xd0e0fb920f5e05a1,
        0x4e537531880244d5, 0x4e537531880244d5, 0xbbb1d38cb4412201, 0x4e537531880244d5,
        0x4e537531880244d5, 0xd0e0fb920f5e05a1, 0x4e537531880244d5, 0x7f3c09332d871d7d,
        0x4e537531880244d5, 0xd0e0fb920f5e05a1, 0x4e537531880244d5, 0x4e537531880244d5,
        0xbbb1d38cb4412201, 0x4e537531880244d5, 0x4e537531880244d5, 0xd0e0fb920f5e05a1,
        0x4e537531880244d5, 0x7f3c09332d871d7d, 0x4e537531880244d5, 0xd0e0fb920f5e05a1,
        0x4e537531880244d5, 0x4e537531880244d5, 0xbbb1d38cb4412201, 0x4e537531880244d5,
        0x4e537531880244d5, 0xd0e0fb920f5e05a1, 0x4e537531880244d5, 0x7f3c09332d871d7d,
        0x4e537531880244d5, 0xbb53dbfe22c7d337, 0x4e537531880244d5, 0x4e537531880244d5,
        0x7278ed7cb86cae3b, 0x4e537531880244d5, 0x4e537531880244d5, 0xbb53dbfe22c7d337,
        0x4e537531880244d5, 0xbb53dbfe22c7d337, 0x4e537531880244d5, 0x7f3c09332d871d7d,
        0x4e537531880244d5, 0xbb53dbfe22c7d337, 0x4e537531880244d5, 0x4e537531880244d5,
        0x7278ed7cb86cae3b, 0x4e537531880244d5, 0x4e537531880244d5, 0xbb53dbfe22c7d337,
        0x4e537531880244d5, 0x7f3c09332d871d7d, 0x4e537531880244d5, 0xbb53dbfe22c7d337,
        0x4e537531880244d5, 0x4e537531880244d5, 0x7278ed7cb86cae3b, 0x4e537531880244d5,
        0x4e537531880244d5, 0xbb53dbfe22c7d337, 0x4e537531880244d5, 0x7f3c09332d871d7d,
        0x4e537531880244d5, 0x5c483ca470545613, 0x3d206e395f8e75c9, 0x8b59b06b6166c727,
    ]),
    ("weighted_2x3x2", &[
        0x6800982e05544127, 0xc85748d7112a55db, 0xc1eac929524f809f, 0xc1eac929524f809f,
        0xf88275ec76fdb5e8, 0x77a73c5876fc8835, 0xc1eac929524f809f, 0xc62ec99a8291adfb,
        0xa39c4b09a8f5399d, 0xc1eac929524f809f, 0x7f24e1e998f5b04f, 0x9823c39651dac7c5,
        0xb798e743e812b9cf,
    ]),
    ("mixed_4", &[
        0xe7becefa694bf9c5, 0x02a7ef5a3401b84b, 0xecc9a7b9567b2a4d, 0xecc9a7b9567b2a4d,
        0x6107ff325f1a73c8, 0x152eb68315a24065, 0xecc9a7b9567b2a4d, 0x33bccbabc091baf5,
        0x3d5348d86927b9dd, 0xecc9a7b9567b2a4d, 0x72ca15d05234c481, 0xc28bf1f50eba40a5,
        0xffc7e8d714787815,
    ]),
];

#[test]
fn compiled_plans_match_the_recorded_ones() {
    let got = digests();
    let want: Vec<(&str, Vec<u64>)> = GOLDEN.iter().map(|(n, d)| (*n, d.to_vec())).collect();
    if got != want {
        let mut table = String::new();
        for (name, d) in &got {
            table += &format!("    (\"{name}\", &[\n");
            for row in d.chunks(4) {
                let row: Vec<String> = row.iter().map(|h| format!("0x{h:016x}")).collect();
                table += &format!("        {},\n", row.join(", "));
            }
            table += "    ]),\n";
        }
        panic!("plan digests differ from the recorded ones; got:\n{table}");
    }
}

/// The mixed config fills shuffle slots on exactly one edge of the join
/// and leaves uniform layers without any, so the digests above see both
/// an edge that shuffles and one that does not.
#[test]
fn the_mixed_config_shuffles_one_edge_of_the_join() {
    let (_, spec, strategy, batch) = configs().pop().expect("mixed config last");
    let join = spec.find("res_add").expect("join exists");
    let exec = DistExecutor::new(spec, strategy, batch).expect("strategy valid");
    exec.verify_with(
        |plans| {
            for plan in &plans[join] {
                assert!(slot(&plan.in_shuffles, 0).is_some(), "edge from res_branch2b shuffles");
                assert!(slot(&plan.back_shuffles, 0).is_some());
                assert!(slot(&plan.in_shuffles, 1).is_none(), "edge from pool1 does not");
                assert!(slot(&plan.back_shuffles, 1).is_none());
            }
        },
        |_| {},
    );
}
