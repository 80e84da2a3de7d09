//! The compiled step schedule, seen from outside: every rank's recorded
//! trace and liveness intervals on three small nets × four strategies,
//! recorded at the commit before the executor, the trace recorder and
//! the memory analyzer began to walk one schedule (there:
//! three hand-mirrored loops). The digests cover everything those loops
//! decided — which edge is shuffled, which shuffled input is kept, which
//! layers run backward and since when their error accumulator is live.
//!
//! One thing was wrong at that commit and is listed instead of hashed:
//! the analyzer booked an input-sized `Err` buffer for `data`, which no
//! step allocates since a convolution fed only by `data` stopped
//! returning an input gradient. `PHANTOM` holds those intervals as they
//! were recorded; the digests are taken without them, and the test
//! asserts they are gone.

use std::cell::RefCell;

use finegrain::comm::{run_ranks, OpClass, TraceOp};
use finegrain::core::{DistExecutor, Strategy};
use finegrain::kernels::Labels;
use finegrain::nn::{Network, NetworkSpec};
use finegrain::tensor::{peak_bytes, BufClass, LiveInterval, ProcGrid, Shape4, Tensor};

fn mini_mesh() -> NetworkSpec {
    let mut net = NetworkSpec::new();
    let i = net.input("data", 3, 16, 16);
    let c1 = net.conv("conv1_1", i, 4, 3, 1, 1);
    let b1 = net.batchnorm("bn1_1", c1);
    let r1 = net.relu("relu1_1", b1);
    let c2 = net.conv("conv1_2", r1, 4, 3, 2, 1);
    let b2 = net.batchnorm("bn1_2", c2);
    let r2 = net.relu("relu1_2", b2);
    let c3 = net.conv("conv2_1", r2, 4, 3, 1, 1);
    let r3 = net.relu("relu2_1", c3);
    let pred = net.conv("pred", r3, 2, 1, 1, 0);
    net.loss("loss", pred);
    net
}

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

fn two_stems() -> NetworkSpec {
    let mut net = NetworkSpec::new();
    let i = net.input("data", 3, 16, 16);
    let a = net.conv("stem_a", i, 4, 3, 2, 1);
    let b = net.conv("stem_b", i, 4, 5, 2, 2);
    let j = net.add_join("join", &[a, b]);
    let pred = net.conv("pred", j, 2, 1, 1, 0);
    net.loss("loss", pred);
    net
}

/// `spatial(2, 2)` on the named head of the net, `sample(4)` on the
/// rest: a §III-C shuffle on every edge that crosses the boundary.
fn mixed(spec: &NetworkSpec, head: &[&str]) -> Strategy {
    let mut s = Strategy::uniform(spec, ProcGrid::sample(4));
    for name in head {
        s.grids[spec.find(name).expect("layer exists")] = ProcGrid::spatial(2, 2);
    }
    s
}

fn configs() -> Vec<(&'static str, NetworkSpec, Strategy, usize)> {
    let mut out = Vec::new();
    for (net, spec, hybrid, head) in [
        (
            "mesh",
            mini_mesh(),
            ProcGrid::hybrid(2, 2, 2),
            &["data", "conv1_1", "bn1_1", "relu1_1"][..],
        ),
        (
            "resnet",
            mini_resnet(),
            ProcGrid::hybrid(2, 1, 2),
            &["data", "conv1", "bn1", "relu1", "pool1"][..],
        ),
        ("stems", two_stems(), ProcGrid::hybrid(2, 2, 1), &["data", "stem_a", "stem_b"][..]),
    ] {
        let uniform = |g| Strategy::uniform(&spec, g);
        out.push((net, spec.clone(), uniform(ProcGrid::sample(4)), 4));
        out.push((net, spec.clone(), uniform(ProcGrid::spatial(2, 2)), 2));
        out.push((net, spec.clone(), uniform(hybrid), 4));
        out.push((net, spec.clone(), mixed(&spec, head), 4));
    }
    out
}

fn fnv(h: &mut u64, text: &str) {
    for b in text.bytes() {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// `data`'s `Err` interval, the same on every rank of a config:
/// `(start tick, end tick, bytes)`.
type Phantom = (usize, usize, usize);

/// Per config, in `configs()` order: FNV-64 of every rank's
/// `record_traces(None)` entries, and of every rank's liveness intervals
/// (and their exact peak) without `PHANTOM`'s and without the
/// environment-dependent replay budget.
#[rustfmt::skip]
const GOLDEN: [(u64, u64); 12] = [
    (0x01b7146d9533cf95, 0xb3d9ce58e24b157d),
    (0x8e356ad7142f3d95, 0xb483a84a9096bf85),
    (0x53373bea5a12a28d, 0xf08f33e3997f8065),
    (0x3334b83b5d8ae2f1, 0xd886490fa4608ca1),
    (0x5434bcbc57715eb5, 0x521262451dff5799),
    (0x880653d6eaa9b8d5, 0xf6fae892a61cb759),
    (0xb2fc31db2cbc6b75, 0x37fd97dc8d2b5325),
    (0x49168f7741eb15cb, 0x05ce24f8c069dec9),
    (0x21c22483a331955d, 0xc4559cb6aa25ea45),
    (0xf470a5a7a16dc3f7, 0x0993c585b085ccdf),
    (0x8f051f1fb9ff4105, 0x0711ebb5bd147f11),
    (0x7f60639ec07d6be9, 0x26c6086ac2872c3d),
];

/// What the parent commit recorded for layer 0 and no step allocates
/// (conv → relu → conv → loss on `spatial(2, 1)`, batch 2, the probe in
/// CHANGES.md: `layer 0 err 3072 B live [8, 9]`).
#[rustfmt::skip]
const PHANTOM: [Phantom; 12] = [
    (20, 21, 3072), (20, 21, 1536), (20, 21, 1536), (20, 21, 3072),
    (24, 25, 3072), (24, 25, 1536), (24, 25, 3072), (24, 25, 3072),
    (9, 11, 3072), (9, 11, 1536), (9, 11, 3072), (9, 11, 3072),
];

#[test]
fn traces_intervals_and_plans_match_the_recorded_ones() {
    let mut got = Vec::new();
    let mut phantoms = Vec::new();
    for (net, spec, strategy, batch) in configs() {
        let world = strategy.world_size();
        assert!(world <= 8);
        let exec = DistExecutor::new(spec, strategy, batch)
            .unwrap_or_else(|e| panic!("{net} batch {batch}: {e}"));

        let mut traces = 0xcbf2_9ce4_8422_2325u64;
        for t in exec.record_traces(None) {
            fnv(&mut traces, &format!("{t:?}"));
        }

        let seen_ivs: RefCell<Vec<Vec<LiveInterval>>> = RefCell::new(vec![Vec::new(); world]);
        let report =
            exec.analyze_memory_with(|rank, ivs| seen_ivs.borrow_mut()[rank] = ivs.clone());
        assert!(report.is_clean(), "{net}: {report}");

        let mut intervals = 0xcbf2_9ce4_8422_2325u64;
        let mut phantom: Vec<(usize, usize, usize)> = Vec::new();
        for ivs in seen_ivs.into_inner() {
            let (ghost, kept): (Vec<_>, Vec<_>) = ivs
                .into_iter()
                .filter(|iv| iv.class != BufClass::ReplayWindow)
                .partition(|iv| iv.layer == 0 && iv.class == BufClass::Err);
            phantom.extend(ghost.iter().map(|iv| (iv.start, iv.end, iv.bytes)));
            fnv(&mut intervals, &format!("{kept:?} peak {}", peak_bytes(&kept)));
        }
        got.push((traces, intervals));
        phantoms.push(phantom);
    }
    assert_eq!(got, GOLDEN, "got {got:#x?}");
    for (i, (ghost, (start, end, bytes))) in phantoms.iter().zip(PHANTOM).enumerate() {
        assert!(
            ghost.is_empty(),
            "config {i}: the analyzer books an Err buffer for `data` ({ghost:?}; the parent \
             recorded {bytes} B live [{start}, {end}] on every rank) that no step fills"
        );
    }
}

/// A second thing the mirrored loops had let drift, off the golden's
/// configs: with `data` on another grid than the convolution it feeds,
/// the adjoint shuffle on that edge would carry a gradient nobody reads.
/// The executor has not run it since that convolution stopped computing
/// the gradient; the recorder still put it on the wire and the analyzer
/// still staged it. One schedule: the recorded sends are the executed
/// ones, and the only shuffle staging left is the forward one.
#[test]
fn the_unread_gradient_of_data_is_neither_recorded_nor_staged() {
    let spec = mini_mesh();
    let mut strategy = Strategy::uniform(&spec, ProcGrid::sample(4));
    strategy.grids[0] = ProcGrid::spatial(2, 2);
    let exec = DistExecutor::new(spec.clone(), strategy, 4).expect("strategy valid");

    let net = Network::init(spec, 1);
    let x = Tensor::from_fn(Shape4::new(4, 3, 16, 16), |k, c, i, j| ((k + c + i + j) % 5) as f32);
    let labels = Labels::per_pixel(4, 8, 8, vec![0; 4 * 64]);
    let executed = run_ranks(4, |comm| {
        exec.loss_and_grads(comm, &net.params, &x, &labels);
        comm.stats().bytes(OpClass::Shuffle)
    });
    // Every other layer is sample-parallel (no halo), so the shuffle's
    // are the only point-to-point sends of the step.
    let recorded: Vec<u64> = exec
        .record_traces(None)
        .iter()
        .map(|t| {
            let sent = t.entries.iter().map(|e| match &e.op {
                TraceOp::Send { count, ty, .. } => (count * ty.width()) as u64,
                _ => 0,
            });
            sent.sum()
        })
        .collect();
    assert!(executed.iter().all(|&b| b > 0), "the forward shuffle runs: {executed:?}");
    assert_eq!(recorded, executed, "recorded vs executed shuffle bytes per rank");

    exec.analyze_memory_with(|rank, ivs| {
        let staged: Vec<_> = ivs.iter().filter(|iv| iv.class == BufClass::ShuffleStage).collect();
        assert!(
            matches!(staged[..], [iv] if iv.layer == 1 && iv.start == 1),
            "rank {rank}: {staged:?}"
        );
    });
}
