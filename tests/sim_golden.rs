//! DES outcomes, recorded from the commit before the engine became one
//! run-to-block loop (there: a worker pool at its default size): the
//! report must be a function of the traces and the link model alone,
//! here checked at the rank counts the ≤ 8-rank threaded reference of
//! `sim_equivalence.rs` cannot reach. Covers `plan_paper_scale`'s three
//! pipeline configs, ResNet-50 on 128 ranks, and a hand-built 8-rank
//! schedule with two disjoint sub-communicator groups.
//!
//! Makespans, messages and digests were re-recorded once, when
//! `AllreduceAlgorithm::Auto` began resolving on the group size: every
//! allreduce above 8 KiB on a power-of-two group of more than two ranks
//! runs Rabenseifner instead of ring. The ops executed did not move.

use finegrain::comm::{simulate_traces, Phase, RankTrace, ScalarType, SimReport, TraceRecorder};
use finegrain::core::{DistExecutor, Strategy};
use finegrain::models::{mesh_model, resnet50, MeshSize};
use finegrain::nn::NetworkSpec;
use finegrain::perf::{platform_link_model, ModeledCompute, Platform};
use finegrain::tensor::ProcGrid;

/// `(makespan bits, ops executed, messages, FNV-64 of the per-rank
/// vectors)`.
type Golden = (u64, u64, u64, u64);

#[rustfmt::skip]
const GOLDEN: [(&str, Golden); 5] = [
    ("mesh-1K b32 hybrid(32,4,4)", (0x3f9b37349048acca, 209_024, 421_440, 0xd3789852c8d89ce5)),
    ("mesh-2K b8 hybrid(8,4,4)", (0x3fb356b7969baa7e, 92_192, 145_552, 0x03d2a2f193024f05)),
    ("ResNet-50 b8192 hybrid(256,2,1)", (0x3fb77e56fc0bb509, 174_592, 1_211_136, 0x673bb76380aec03e)),
    ("ResNet-50 b2048 hybrid(64,2,1)", (0x3fb6352c4393a813, 43_648, 236_480, 0xf68bd0b629311403)),
    ("8 ranks, two sub-communicator groups", (0x3f5060b9c0e3dae5, 64, 100, 0xe1fb7ae345084099)),
];

/// FNV-1a over the bit patterns of `clocks`, `compute`, `p2p_wait` and
/// `allreduce`, in that order.
fn digest(r: &SimReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in [&r.clocks, &r.compute, &r.p2p_wait, &r.allreduce] {
        for byte in v.iter().flat_map(|x| x.to_bits().to_le_bytes()) {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn record(platform: &Platform, spec: &NetworkSpec, batch: usize, grid: ProcGrid) -> Vec<RankTrace> {
    let strategy = Strategy::uniform(spec, grid);
    let exec = DistExecutor::new(spec.clone(), strategy.clone(), batch)
        .expect("pinned paper-scale configuration compiles");
    exec.record_traces(Some(&ModeledCompute::new(platform, spec, &strategy, batch)))
}

/// Ranks 0–3 and 4–7 each run a p2p pipeline and a group allreduce,
/// twice, then the world allreduces; the odd ranks carry extra compute
/// so neither group nor any stream runs in lockstep.
fn two_group_traces() -> Vec<RankTrace> {
    let world = 8;
    (0..world)
        .map(|rank| {
            let mut rec = TraceRecorder::new(rank, world);
            let base = rank / 4 * 4;
            let group: Vec<usize> = (base..base + 4).collect();
            for layer in 0..2 {
                rec.scope(layer, Phase::Forward);
                rec.advance((1 + rank % 2 * 3 + layer) as f64 * 1e-4);
                rec.begin_exchange();
                let tag = rec.next_world_tag();
                if rank + 1 < base + 4 {
                    rec.send(rank + 1, tag, 2048 << layer, ScalarType::F32);
                }
                if rank > base {
                    rec.recv(rank - 1, tag, 2048 << layer, ScalarType::F32);
                }
                rec.sub_allreduce(&group, (rank / 4) as u64, 100_000, ScalarType::F32);
            }
            rec.scope(2, Phase::Backward);
            rec.world_allreduce(300, ScalarType::F64);
            rec.finish()
        })
        .collect()
}

#[test]
fn des_reports_match_the_recorded_ones_to_the_bit() {
    let platform = Platform::lassen_like();
    let link = platform_link_model(&platform);
    let (mesh1k, mesh2k, resnet) =
        (mesh_model(MeshSize::OneK), mesh_model(MeshSize::TwoK), resnet50());
    let schedules = [
        record(&platform, &mesh1k, 32, ProcGrid::hybrid(32, 4, 4)),
        record(&platform, &mesh2k, 8, ProcGrid::hybrid(8, 4, 4)),
        record(&platform, &resnet, 8192, ProcGrid::hybrid(256, 2, 1)),
        record(&platform, &resnet, 2048, ProcGrid::hybrid(64, 2, 1)),
        two_group_traces(),
    ];
    for ((name, want), traces) in GOLDEN.iter().zip(&schedules) {
        let r = simulate_traces(traces, &link).unwrap_or_else(|e| panic!("{name}: {e}"));
        let got = (r.makespan().to_bits(), r.ops_executed, r.messages, digest(&r));
        assert_eq!(got, *want, "{name} ({} ranks): got {got:#x?}", traces.len());
    }
}
