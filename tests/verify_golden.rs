//! The static verifier's full output, recorded from the commit before
//! `check_traces` matched p2p streams by one sort and keyed collective
//! groups on interned member lists: the stats and every violation's
//! text, in order, must be a function of the traces alone. Covers two
//! miniature nets at 4–16 ranks, clean and under eleven trace mutations,
//! and `plan_paper_scale`'s three pipeline configs, clean.

use std::sync::Arc;

use finegrain::comm::{check_traces, RankTrace, TraceOp, VerifyStats, Violation};
use finegrain::core::{DistExecutor, Strategy};
use finegrain::models::{mesh_model, resnet50, MeshSize};
use finegrain::nn::NetworkSpec;
use finegrain::perf::{ModeledCompute, Platform};
use finegrain::tensor::ProcGrid;

/// `(violations, FNV-64 of the stats and every violation's Display)`.
type Golden = (usize, u64);

#[rustfmt::skip]
const MINI_GOLDEN: [(&str, Golden); 60] = [
    ("mini-mesh spatial(2,2) b2 / clean", (0, 0xbf9ad54fe17bc9c0)),
    ("mini-mesh spatial(2,2) b2 / drop one recv", (1, 0x8697a8351ee26595)),
    ("mini-mesh spatial(2,2) b2 / change one send's count", (1, 0xaa99dc1cf23fa2eb)),
    ("mini-mesh spatial(2,2) b2 / duplicate a send into a second exchange", (2, 0xeb655f8a05b37814)),
    ("mini-mesh spatial(2,2) b2 / flip a tag", (2, 0x89c6a097586cf42a)),
    ("mini-mesh spatial(2,2) b2 / drop one rank's collective", (1, 0x5a6b7bd5229f3263)),
    ("mini-mesh spatial(2,2) b2 / add a surplus collective", (3, 0xe4d6266ec67115d1)),
    ("mini-mesh spatial(2,2) b2 / change one member's collective count", (1, 0x1e48f7edb897641d)),
    ("mini-mesh spatial(2,2) b2 / drop every recv of one rank", (8, 0x660b5bce5d209d94)),
    ("mini-mesh spatial(2,2) b2 / drop the first recv of every rank", (4, 0x8cd9edb296075721)),
    ("mini-mesh spatial(2,2) b2 / drop every collective of one rank", (1, 0x8ce16c6c620a1636)),
    ("mini-mesh spatial(2,2) b2 / record one member list unsorted on one rank", (0, 0xbf9ad54fe17bc9c0)),
    ("mini-mesh hybrid(4,2,2) b4 / clean", (0, 0x6ad586a2a88c05d8)),
    ("mini-mesh hybrid(4,2,2) b4 / drop one recv", (1, 0x62d6d227312929fb)),
    ("mini-mesh hybrid(4,2,2) b4 / change one send's count", (1, 0x218987817482fcb7)),
    ("mini-mesh hybrid(4,2,2) b4 / duplicate a send into a second exchange", (2, 0x8beeea7c9e507fc8)),
    ("mini-mesh hybrid(4,2,2) b4 / flip a tag", (2, 0x9248710f11773d6a)),
    ("mini-mesh hybrid(4,2,2) b4 / drop one rank's collective", (1, 0x47e1747f96722aaa)),
    ("mini-mesh hybrid(4,2,2) b4 / add a surplus collective", (15, 0x17c9e057181a7002)),
    ("mini-mesh hybrid(4,2,2) b4 / change one member's collective count", (1, 0x1be34e382d351ab1)),
    ("mini-mesh hybrid(4,2,2) b4 / drop every recv of one rank", (8, 0x8a5bdac4a15fdf54)),
    ("mini-mesh hybrid(4,2,2) b4 / drop the first recv of every rank", (16, 0x9d72615f661966ea)),
    ("mini-mesh hybrid(4,2,2) b4 / drop every collective of one rank", (1, 0x3ab252d7e5e86eee)),
    ("mini-mesh hybrid(4,2,2) b4 / record one member list unsorted on one rank", (0, 0x6ad586a2a88c05d8)),
    ("mini-mesh mixed spatial(2,2)->sample(4) b4 / clean", (0, 0x7cbeed38e4530fdb)),
    ("mini-mesh mixed spatial(2,2)->sample(4) b4 / drop one recv", (1, 0xe8e70ccfe9da311b)),
    ("mini-mesh mixed spatial(2,2)->sample(4) b4 / change one send's count", (1, 0xb83b10caa2a65368)),
    ("mini-mesh mixed spatial(2,2)->sample(4) b4 / duplicate a send into a second exchange", (2, 0x147297deeaa56994)),
    ("mini-mesh mixed spatial(2,2)->sample(4) b4 / flip a tag", (2, 0xd752fdb5bea68e15)),
    ("mini-mesh mixed spatial(2,2)->sample(4) b4 / drop one rank's collective", (1, 0x28f72faa5714bc53)),
    ("mini-mesh mixed spatial(2,2)->sample(4) b4 / add a surplus collective", (3, 0xc2240d74e934ee52)),
    ("mini-mesh mixed spatial(2,2)->sample(4) b4 / change one member's collective count", (1, 0x28574195747fb742)),
    ("mini-mesh mixed spatial(2,2)->sample(4) b4 / drop every recv of one rank", (12, 0xf7a5998e8a9cb4c1)),
    ("mini-mesh mixed spatial(2,2)->sample(4) b4 / drop the first recv of every rank", (4, 0x2ad2b275242e6f8e)),
    ("mini-mesh mixed spatial(2,2)->sample(4) b4 / drop every collective of one rank", (1, 0x2136258b19ca1fa0)),
    ("mini-mesh mixed spatial(2,2)->sample(4) b4 / record one member list unsorted on one rank", (0, 0x7cbeed38e4530fdb)),
    ("mini-ResNet hybrid(2,2,2) b4 / clean", (0, 0x0a9accbd6c3470d9)),
    ("mini-ResNet hybrid(2,2,2) b4 / drop one recv", (1, 0x36e45d90ff4eedf8)),
    ("mini-ResNet hybrid(2,2,2) b4 / change one send's count", (1, 0xb21c451c6eb70a78)),
    ("mini-ResNet hybrid(2,2,2) b4 / duplicate a send into a second exchange", (2, 0xdcb43a37da292907)),
    ("mini-ResNet hybrid(2,2,2) b4 / flip a tag", (2, 0x222224ebfb1775ad)),
    ("mini-ResNet hybrid(2,2,2) b4 / drop one rank's collective", (1, 0xa7868c0c997057cb)),
    ("mini-ResNet hybrid(2,2,2) b4 / add a surplus collective", (7, 0x8ac459b198cd5424)),
    ("mini-ResNet hybrid(2,2,2) b4 / change one member's collective count", (1, 0xea1a694a76085be8)),
    ("mini-ResNet hybrid(2,2,2) b4 / drop every recv of one rank", (22, 0xfc5192ea49877d16)),
    ("mini-ResNet hybrid(2,2,2) b4 / drop the first recv of every rank", (8, 0x1b13db9a1b474c13)),
    ("mini-ResNet hybrid(2,2,2) b4 / drop every collective of one rank", (3, 0x595a0e7384d4b790)),
    ("mini-ResNet hybrid(2,2,2) b4 / record one member list unsorted on one rank", (0, 0x0a9accbd6c3470d9)),
    ("mini-ResNet hybrid(4,2,2) b4 / clean", (0, 0xa3616785729c71e6)),
    ("mini-ResNet hybrid(4,2,2) b4 / drop one recv", (1, 0x136b0bdca57546bd)),
    ("mini-ResNet hybrid(4,2,2) b4 / change one send's count", (1, 0x9ba0613bcc151401)),
    ("mini-ResNet hybrid(4,2,2) b4 / duplicate a send into a second exchange", (2, 0x132f14ee9537d881)),
    ("mini-ResNet hybrid(4,2,2) b4 / flip a tag", (2, 0x66610b756592c880)),
    ("mini-ResNet hybrid(4,2,2) b4 / drop one rank's collective", (1, 0x22bb02dd68d0cedd)),
    ("mini-ResNet hybrid(4,2,2) b4 / add a surplus collective", (15, 0xa3c2d084f4b2aaee)),
    ("mini-ResNet hybrid(4,2,2) b4 / change one member's collective count", (1, 0x4a4ef470025dece3)),
    ("mini-ResNet hybrid(4,2,2) b4 / drop every recv of one rank", (22, 0xa388e458b22f36ff)),
    ("mini-ResNet hybrid(4,2,2) b4 / drop the first recv of every rank", (16, 0x60708c29b172a6e8)),
    ("mini-ResNet hybrid(4,2,2) b4 / drop every collective of one rank", (3, 0x5d2b925efc164b80)),
    ("mini-ResNet hybrid(4,2,2) b4 / record one member list unsorted on one rank", (0, 0xa3616785729c71e6)),
];

#[rustfmt::skip]
const PIPELINE_GOLDEN: [(&str, Golden); 3] = [
    ("mesh-1K b32 hybrid(32,4,4)", (0, 0x920e27cbd9141a85)),
    ("mesh-2K b8 hybrid(8,4,4)", (0, 0x4c41ca785500f057)),
    ("ResNet-50 b8192 hybrid(256,2,1)", (0, 0x6d7e5b35819cf2e6)),
];

/// FNV-1a over the four stats counters (little-endian), then each
/// violation's `Display` text followed by a newline.
fn digest(stats: &VerifyStats, violations: &[Violation]) -> u64 {
    let counters =
        [stats.ops_traced, stats.links_checked, stats.collectives_checked, stats.bytes_accounted];
    let text: String = violations.iter().map(|v| format!("{v}\n")).collect();
    let bytes = counters.iter().flat_map(|c| (*c as u64).to_le_bytes()).chain(text.bytes());
    bytes.fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Miniature segmentation net (conv/bn/relu chain, per-pixel loss).
fn mini_mesh() -> NetworkSpec {
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
fn mini_resnet() -> NetworkSpec {
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

/// The mini mesh with its first four layers spatial and the rest
/// sample-parallel: the grid switch compiles real shuffles.
fn mixed_mesh_executor() -> DistExecutor {
    let spec = mini_mesh();
    let mut strategy = Strategy::uniform(&spec, ProcGrid::sample(4));
    for name in ["data", "conv1_1", "bn1_1", "relu1_1"] {
        strategy.grids[spec.find(name).expect("layer exists")] = ProcGrid::spatial(2, 2);
    }
    DistExecutor::new(spec, strategy, 4).expect("strategy valid")
}

fn uniform(spec: NetworkSpec, grid: ProcGrid, batch: usize) -> DistExecutor {
    let strategy = Strategy::uniform(&spec, grid);
    DistExecutor::new(spec, strategy, batch).expect("strategy valid")
}

fn first(trace: &RankTrace, pick: impl Fn(&TraceOp) -> bool) -> usize {
    trace.entries.iter().position(|e| pick(&e.op)).expect("the trace has such an op")
}

fn is_send(op: &TraceOp) -> bool {
    matches!(op, TraceOp::Send { .. })
}

fn is_collective(op: &TraceOp) -> bool {
    matches!(op, TraceOp::Collective { .. })
}

type Mutation = fn(&mut Vec<RankTrace>);

/// The trace corruptions, each applied alone to a freshly recorded set.
const MUTATIONS: [(&str, Mutation); 12] = [
    ("clean", |_| {}),
    ("drop one recv", |t| {
        let at = first(&t[1], |op| matches!(op, TraceOp::Recv { .. }));
        t[1].entries.remove(at);
    }),
    ("change one send's count", |t| {
        let at = first(&t[0], is_send);
        if let TraceOp::Send { count, .. } = &mut t[0].entries[at].op {
            *count += 1;
        }
    }),
    ("duplicate a send into a second exchange", |t| {
        let at = first(&t[0], is_send);
        let mut dup = t[0].entries[at].clone();
        dup.ctx = t[0].entries.iter().map(|e| e.ctx).max().unwrap_or(0) + 1;
        t[0].entries.push(dup);
    }),
    ("flip a tag", |t| {
        let at = first(&t[0], is_send);
        if let TraceOp::Send { tag, .. } = &mut t[0].entries[at].op {
            *tag ^= 0xdead_beef;
        }
    }),
    ("drop one rank's collective", |t| {
        let last = t.len() - 1;
        let at = first(&t[last], is_collective);
        t[last].entries.remove(at);
    }),
    ("add a surplus collective", |t| {
        let last = t.len() - 1;
        let at = t[last].entries.iter().rposition(|e| is_collective(&e.op)).expect("collective");
        let extra = t[last].entries[at].clone();
        t[last].entries.push(extra);
    }),
    // Rank 0 leads every group it is in, so which of several equally
    // long sequences is the reference decides who is reported.
    ("change one member's collective count", |t| {
        let at = first(&t[0], is_collective);
        if let TraceOp::Collective { count, .. } = &mut t[0].entries[at].op {
            *count += 1;
        }
    }),
    // Many violations at once, so their order across streams and across
    // collective groups is pinned too.
    ("drop every recv of one rank", |t| {
        t[1].entries.retain(|e| !matches!(e.op, TraceOp::Recv { .. }));
    }),
    ("drop the first recv of every rank", |t| {
        for trace in t.iter_mut() {
            if let Some(at) =
                trace.entries.iter().position(|e| matches!(e.op, TraceOp::Recv { .. }))
            {
                trace.entries.remove(at);
            }
        }
    }),
    ("drop every collective of one rank", |t| {
        t[1].entries.retain(|e| !is_collective(&e.op));
    }),
    ("record one member list unsorted on one rank", |t| {
        // A subgroup list if the rank joins one, else its first world list.
        let world = t.len();
        let sub = t[1].entries.iter().position(
            |e| matches!(&e.op, TraceOp::Collective { members, .. } if members.len() < world),
        );
        let at = sub.unwrap_or_else(|| first(&t[1], is_collective));
        if let TraceOp::Collective { members, .. } = &mut t[1].entries[at].op {
            let reversed: Vec<usize> = members.iter().rev().copied().collect();
            *members = Arc::from(reversed);
        }
    }),
];

#[test]
fn verifier_output_on_mutated_mini_nets_matches_the_recorded_one() {
    type Build = fn() -> DistExecutor;
    let configs: [(&str, Build); 5] = [
        ("mini-mesh spatial(2,2) b2", || uniform(mini_mesh(), ProcGrid::spatial(2, 2), 2)),
        ("mini-mesh hybrid(4,2,2) b4", || uniform(mini_mesh(), ProcGrid::hybrid(4, 2, 2), 4)),
        ("mini-mesh mixed spatial(2,2)->sample(4) b4", mixed_mesh_executor),
        ("mini-ResNet hybrid(2,2,2) b4", || uniform(mini_resnet(), ProcGrid::hybrid(2, 2, 2), 4)),
        ("mini-ResNet hybrid(4,2,2) b4", || uniform(mini_resnet(), ProcGrid::hybrid(4, 2, 2), 4)),
    ];
    let mut got = Vec::new();
    for (config, build) in configs {
        let exec = build();
        for (mutation, mutate) in MUTATIONS {
            let report = exec.verify_with(|_| {}, mutate);
            let name = format!("{config} / {mutation}");
            got.push((name, (report.violations.len(), digest(&report.stats, &report.violations))));
        }
    }
    assert_table(&MINI_GOLDEN, &got);
}

#[test]
fn verifier_output_on_the_paper_scale_pipelines_matches_the_recorded_one() {
    let platform = Platform::lassen_like();
    let (mesh1k, mesh2k, resnet) =
        (mesh_model(MeshSize::OneK), mesh_model(MeshSize::TwoK), resnet50());
    let configs = [
        ("mesh-1K b32 hybrid(32,4,4)", &mesh1k, 32, ProcGrid::hybrid(32, 4, 4)),
        ("mesh-2K b8 hybrid(8,4,4)", &mesh2k, 8, ProcGrid::hybrid(8, 4, 4)),
        ("ResNet-50 b8192 hybrid(256,2,1)", &resnet, 8192, ProcGrid::hybrid(256, 2, 1)),
    ];
    let mut got = Vec::new();
    for (name, spec, batch, grid) in configs {
        let strategy = Strategy::uniform(spec, grid);
        let exec = DistExecutor::new(spec.clone(), strategy.clone(), batch)
            .expect("pinned paper-scale configuration compiles");
        let traces =
            exec.record_traces(Some(&ModeledCompute::new(&platform, spec, &strategy, batch)));
        let names: Vec<String> = spec.layers().iter().map(|l| l.name.clone()).collect();
        let (stats, violations) = check_traces(&traces, &names);
        assert!(violations.is_empty(), "{name}: {violations:?}");
        got.push((name.to_string(), (violations.len(), digest(&stats, &violations))));
    }
    assert_table(&PIPELINE_GOLDEN, &got);
}

/// Compare every row, and on any difference print the whole new table.
fn assert_table(want: &[(&str, Golden)], got: &[(String, Golden)]) {
    let same = want.len() == got.len()
        && want.iter().zip(got).all(|((wn, wg), (gn, gg))| wn == gn && wg == gg);
    if !same {
        let rows: String =
            got.iter().map(|(n, (v, h))| format!("    ({n:?}, ({v}, {h:#018x})),\n")).collect();
        panic!("verifier output differs from the recorded one; now:\n{rows}");
    }
}
