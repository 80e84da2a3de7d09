//! The strategy search's answers, recorded from the commit before the
//! search was made to model each cost once (per-search cost table,
//! shuffle memo, closed-form shuffle volume): every per-layer grid and
//! every bit of the modeled cost must still be what the per-edge search
//! chose. Covers the benchmark's three search configs, the `repro --
//! strategy` scenarios up to 2048 ranks, a memory limit and a seeded
//! candidate.

use fg_models::{mesh_model, resnet50, MeshSize};
use fg_nn::NetworkSpec;
use fg_perf::{Platform, StrategyOptimizer, V100_BYTES};
use fg_tensor::ProcGrid;

#[derive(Clone, Copy)]
enum Model {
    Mesh1k,
    Mesh2k,
    Resnet50,
}

/// `(model, batch, world, memory limit, seed a conv6_2 strip split,
/// per-layer grids as "n.c.h.w*run" runs, cost.total() bits)`.
type Golden = (Model, usize, usize, Option<usize>, bool, &'static str, u64);

#[rustfmt::skip]
const GOLDEN: [Golden; 15] = [
    // plan_paper_scale's search configs.
    (Model::Resnet50, 2048, 128, None, false, "128.1.1.1*176", 0x3faec46905598d7c),
    (Model::Mesh1k, 16, 64, None, false, "16.1.1.4*57", 0x3fa1a0b1b3526ba3),
    (Model::Mesh2k, 2, 32, None, false, "2.1.1.16*93", 0x3fae83a203961ecc),
    // repro -- strategy.
    (Model::Mesh1k, 1, 4, None, false, "1.1.1.4*57", 0x3fa098c80e4575a2),
    (Model::Mesh1k, 4, 16, None, false, "4.1.1.4*57", 0x3fa13e2e257ccc3d),
    (Model::Mesh1k, 16, 16, None, false, "16.1.1.1*57", 0x3fbb390ab4626605),
    (Model::Resnet50, 64, 16, None, false, "16.1.1.1*168 4.1.1.4*1 1.1.4.4*7", 0x3fa3086f8e6880d7),
    (Model::Resnet50, 16, 16, None, false, "16.1.1.1*168 4.1.1.4*1 1.1.4.4*7", 0x3fa097e5b8803262),
    (Model::Resnet50, 8192, 512, None, false, "512.1.1.1*176", 0x3faf2554a8799f0b),
    (Model::Resnet50, 32768, 2048, None, false, "2048.1.1.1*176", 0x3faf7f96f15502f5),
    // Mixed strategies at sizes in between.
    (Model::Resnet50, 512, 32, None, false, "32.1.1.1*169 8.1.1.4*3 4.1.2.4*4", 0x3fade9beec2236bb),
    (Model::Resnet50, 1024, 64, None, false, "64.1.1.1*168 16.1.1.4*1 4.1.4.4*7", 0x3faeb7de30f4927b),
    // with_memory_limit, with_candidate.
    (Model::Mesh2k, 4, 16, Some(V100_BYTES), false, "4.1.1.4*93", 0x3fc8288d261f2d61),
    (Model::Resnet50, 16, 16, Some(600 << 20), false, "16.1.1.1*168 4.1.1.4*1 1.1.4.4*7", 0x3fa097e5b8803262),
    (Model::Mesh1k, 4, 16, None, true, "4.1.1.4*57", 0x3fa13e2e257ccc3d),
];

fn runs(grids: &[ProcGrid]) -> String {
    let mut runs: Vec<(ProcGrid, usize)> = Vec::new();
    for &g in grids {
        match runs.last_mut() {
            Some((last, count)) if *last == g => *count += 1,
            _ => runs.push((g, 1)),
        }
    }
    let run = |(g, count): &(ProcGrid, usize)| format!("{}.{}.{}.{}*{count}", g.n, g.c, g.h, g.w);
    runs.iter().map(run).collect::<Vec<_>>().join(" ")
}

#[test]
fn search_answers_match_the_recorded_ones_to_the_bit() {
    let platform = Platform::lassen_like();
    let (mesh1k, mesh2k, resnet) =
        (mesh_model(MeshSize::OneK), mesh_model(MeshSize::TwoK), resnet50());
    for (model, batch, world, limit, seeded, grids, cost_bits) in GOLDEN {
        let spec: &NetworkSpec = match model {
            Model::Mesh1k => &mesh1k,
            Model::Mesh2k => &mesh2k,
            Model::Resnet50 => &resnet,
        };
        let mut opt = StrategyOptimizer::new(&platform, spec, batch, world);
        if let Some(bytes) = limit {
            opt = opt.with_memory_limit(bytes);
        }
        if seeded {
            // Legal, but thinner than the generator allows.
            let conv6_2 = spec.find("conv6_2").expect("mesh model layer");
            opt = opt.with_candidate(conv6_2, ProcGrid::hybrid(1, 16, 1));
        }
        let (strategy, cost) = opt.optimize();
        let case = format!("{} layers, batch {batch}, world {world}", spec.len());
        assert_eq!(runs(&strategy.grids), grids, "{case}");
        assert_eq!(cost.total().to_bits(), cost_bits, "{case}: modeled {:e} s", cost.total());
        if let Some(bytes) = limit {
            // The winner fits the limit by the exact bound, not only by
            // the search's per-layer shares.
            let ranks = fg_core::sample_ranks(world);
            let report = fg_core::analyze_strategy(spec, &strategy, batch, &ranks).unwrap();
            assert!(report.max_peak() <= bytes, "{case}: {report} over a {bytes} B limit");
        }
    }
}
