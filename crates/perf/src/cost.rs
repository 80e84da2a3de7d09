//! Layer and network cost models (paper §V-A / §V-B).
//!
//! Implements the paper's formulas:
//!
//! ```text
//! FP_ℓ  = C(n,c,h,w,f) + 2·SR(O·n·c·h) + 2·SR(O·n·c·w) + 4·SR(O²·n·c)
//! BPx_ℓ = C_x(…)       + the same halo terms on dL/dy
//! BPw_ℓ = C_w(…)
//! BPa_ℓ = AR(|P(p)(D_C, D_F)|, F·C·K²)
//! ```
//!
//! with the documented refinements: halo terms drop when a spatial
//! dimension is not partitioned; with overlap enabled, forward halo
//! exchanges hide under interior compute and backward-data halo
//! exchanges hide under the filter convolution (§IV-A); and the
//! mini-batch total applies the greedy one-at-a-time allreduce
//! overlapping of §V-B. Layers other than convolution and FC are
//! treated as computationally free, as in the paper.

use std::ops::Range;

use fg_core::Strategy;
use fg_nn::{LayerKind, NetworkSpec};
use fg_tensor::{ProcGrid, Shape4, TensorDist};

use crate::collective_model::{allreduce_time, alltoall_time, sendrecv_time};
use crate::platform::{ConvPass, ConvWork, Platform};

/// Cost-model options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostOptions {
    /// Overlap halo exchanges with compute (§IV-A). On by default, as in
    /// the paper's measurements.
    pub overlap_halo: bool,
    /// Greedily overlap gradient allreduces with backprop compute (§V-B).
    pub overlap_allreduce: bool,
}

impl Default for CostOptions {
    fn default() -> Self {
        CostOptions { overlap_halo: true, overlap_allreduce: true }
    }
}

/// Modeled cost of one layer under one distribution.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LayerCost {
    /// Forward time including (possibly overlapped) halo exchange.
    pub fp: f64,
    /// Backward-data time including halo.
    pub bpx: f64,
    /// Backward-filter local compute time.
    pub bpw: f64,
    /// Gradient allreduce time (before network-level overlapping).
    pub bpa: f64,
}

impl LayerCost {
    /// Total with the allreduce fully exposed (per-layer view,
    /// `Cost_D(ℓ)` in §V-A).
    pub fn total(&self) -> f64 {
        self.fp + self.bpx + self.bpw + self.bpa
    }

    /// Compute-only portion (used by the greedy allreduce overlapper).
    pub fn compute(&self) -> f64 {
        self.fp + self.bpx + self.bpw
    }
}

/// Global description of a conv layer (shape bookkeeping for the model).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvLayerDesc {
    /// Mini-batch size N.
    pub n: usize,
    /// Input channels C.
    pub c: usize,
    /// Input height H.
    pub h: usize,
    /// Input width W.
    pub w: usize,
    /// Filters F.
    pub f: usize,
    /// Kernel size K.
    pub k: usize,
    /// Stride S.
    pub s: usize,
}

impl ConvLayerDesc {
    /// Halo depth `O = ⌊K/2⌋` (§II-A).
    pub fn halo_depth(&self) -> usize {
        self.k / 2
    }
}

/// Cost of a conv layer under `grid` (§V-A formulas).
pub fn conv_layer_cost(
    platform: &Platform,
    desc: &ConvLayerDesc,
    grid: ProcGrid,
    opts: &CostOptions,
) -> LayerCost {
    // Worst-rank local extents (ceil), for load imbalance fidelity.
    let n_loc = desc.n.div_ceil(grid.n);
    let h_loc = desc.h.div_ceil(grid.h);
    let w_loc = desc.w.div_ceil(grid.w);
    let work =
        ConvWork { n: n_loc, c: desc.c, h: h_loc, w: w_loc, f: desc.f, k: desc.k, s: desc.s };
    let c_fwd = platform.device.conv_time(&work, ConvPass::Forward);
    let c_bwd_data = platform.device.conv_time(&work, ConvPass::BackwardData);
    let c_bwd_filter = platform.device.conv_time(&work, ConvPass::BackwardFilter);

    // Halo exchange terms. Spatial neighbors of one sample group sit on
    // consecutive ranks; if the whole sample group fits in a node the
    // exchange rides NVLink, otherwise the bottleneck is inter-node.
    let o = desc.halo_depth() as f64;
    let elt = 4.0; // f32
    let link = platform.group_link(grid.ranks_per_sample());
    let mut halo = 0.0;
    if grid.h > 1 && o > 0.0 {
        halo += 2.0 * sendrecv_time(link, o * n_loc as f64 * desc.c as f64 * w_loc as f64 * elt);
    }
    if grid.w > 1 && o > 0.0 {
        halo += 2.0 * sendrecv_time(link, o * n_loc as f64 * desc.c as f64 * h_loc as f64 * elt);
    }
    if grid.h > 1 && grid.w > 1 && o > 0.0 {
        halo += 4.0 * sendrecv_time(link, o * o * n_loc as f64 * desc.c as f64 * elt);
    }

    // Forward: halo hides under interior compute when overlapped.
    let fp = if opts.overlap_halo { c_fwd.max(halo) } else { c_fwd + halo };
    // Backward-data halo hides inside the filter convolution (§IV-A).
    let bpx = if opts.overlap_halo {
        c_bwd_data + (halo - c_bwd_filter).max(0.0)
    } else {
        c_bwd_data + halo
    };
    // Weight gradient allreduce over all ranks sharing the (replicated)
    // weights: the whole world for sample/spatial/hybrid parallelism.
    let ar_bytes = (desc.f * desc.c * desc.k * desc.k) as f64 * elt;
    let bpa = allreduce_time(platform, grid.size(), ar_bytes);

    LayerCost { fp, bpx, bpw: c_bwd_filter, bpa }
}

/// Cost of an FC layer under `grid` (replicated weights within sample
/// groups, as the executor runs it; gradient summed across sample
/// groups).
fn fc_layer_cost(
    platform: &Platform,
    n: usize,
    in_features: usize,
    out_features: usize,
    grid: ProcGrid,
) -> LayerCost {
    let n_loc = n.div_ceil(grid.n);
    let t = platform.device.gemm_time(n_loc, in_features, out_features);
    let ar_bytes = (in_features * out_features + out_features) as f64 * 4.0;
    let bpa = allreduce_time(platform, grid.n, ar_bytes);
    LayerCost { fp: t, bpx: t, bpw: t, bpa }
}

/// Extract the conv description of a layer (if it is a conv layer).
fn conv_desc(spec: &NetworkSpec, batch: usize, id: usize) -> Option<ConvLayerDesc> {
    match &spec.layer(id).kind {
        LayerKind::Conv { filters, kernel, stride, .. } => {
            let (c, h, w) = spec.shape(spec.layer(id).parents[0]);
            Some(ConvLayerDesc { n: batch, c, h, w, f: *filters, k: *kernel, s: *stride })
        }
        _ => None,
    }
}

/// Cost of one layer of a network under a grid; non-conv/FC layers are
/// free (§V-B: "As most layers other than convolution and FC layers are
/// computationally cheap, we treat them as free").
pub fn layer_cost(
    platform: &Platform,
    spec: &NetworkSpec,
    batch: usize,
    id: usize,
    grid: ProcGrid,
    opts: &CostOptions,
) -> LayerCost {
    match &spec.layer(id).kind {
        LayerKind::Conv { .. } => {
            let desc = conv_desc(spec, batch, id).expect("conv layer");
            conv_layer_cost(platform, &desc, grid, opts)
        }
        LayerKind::Fc { out_features } => {
            let (c, h, w) = spec.shape(spec.layer(id).parents[0]);
            fc_layer_cost(platform, batch, c * h * w, *out_features, grid)
        }
        // BN with learnable parameters needs an allreduce (§V-B); its
        // parameter vector is tiny (2·C), modeled but near-zero.
        LayerKind::BatchNorm => {
            let c = spec.shape(id).0;
            let bpa = allreduce_time(platform, grid.size(), (2 * c) as f64 * 4.0);
            LayerCost { bpa, ..Default::default() }
        }
        _ => LayerCost::default(),
    }
}

/// `Shuffle(D_i, D_j)`: redistribution cost between two grids for a
/// tensor of `shape` (§III-C / §V-B). Exact worst-rank send volume,
/// priced as an all-to-all.
pub fn shuffle_cost(platform: &Platform, shape: Shape4, from: ProcGrid, to: ProcGrid) -> f64 {
    if from == to {
        return 0.0;
    }
    let (worst_elems, worst_peers) = worst_rank_send(shape, from, to);
    if worst_elems == 0 {
        return 0.0;
    }
    let link = platform.group_link(from.size().min(worst_peers + 1));
    alltoall_time(link, worst_peers + 1, worst_elems as f64 * 4.0)
}

/// One tensor dimension of a `from → to` redistribution: the interval
/// each part of either partition owns, and how many `to` parts each
/// `from` part's interval reaches.
struct DimOverlap {
    own: Vec<Range<usize>>,
    dst: Vec<Range<usize>>,
    fanout: Vec<usize>,
}

impl DimOverlap {
    fn new(d_from: &TensorDist, d_to: &TensorDist, d: usize) -> Self {
        let own: Vec<_> = (0..d_from.grid.dims()[d]).map(|i| d_from.dim_range(d, i)).collect();
        let dst: Vec<_> = (0..d_to.grid.dims()[d]).map(|j| d_to.dim_range(d, j)).collect();
        // Both partitions are ordered, so the parts a non-empty interval
        // reaches are contiguous; empty parts sit at `[total, total)`
        // and are reached by nothing.
        let fanout = own
            .iter()
            .map(|o| {
                let first = dst.partition_point(|r| r.end <= o.start);
                let end = dst.partition_point(|r| r.start < o.end);
                end.saturating_sub(first)
            })
            .collect();
        DimOverlap { own, dst, fanout }
    }

    /// Indices of `from` part `i` that `to` part `j` also owns.
    fn kept(&self, i: usize, j: usize) -> usize {
        let (o, t) = (&self.own[i], &self.dst[j]);
        o.end.min(t.end).saturating_sub(o.start.max(t.start))
    }
}

/// `(elements sent, peers sent to)` of the rank that sends the most in
/// a `from → to` redistribution of `shape`; the lowest such rank on a
/// tie. `to` partitions the whole tensor, so the pieces a rank's box is
/// cut into add up to the box: it sends `|own| − |own ∩ box_to(rank)|`
/// elements, to every rank whose `to` box meets `own` — a product of
/// per-dimension counts — but itself. O(P) integer arithmetic; summing
/// `4·|piece|` over destination boxes in `f64` gives the same bits,
/// every partial sum being an integer below 2⁵³.
fn worst_rank_send(shape: Shape4, from: ProcGrid, to: ProcGrid) -> (usize, usize) {
    let (d_from, d_to) = (TensorDist::new(shape, from), TensorDist::new(shape, to));
    let [dn, dc, dh, dw] = [0, 1, 2, 3].map(|d| DimOverlap::new(&d_from, &d_to, d));
    let to_size = to.size();
    let mut worst = (0usize, 0usize);
    let mut rank = 0usize;
    for n in 0..from.n {
        for c in 0..from.c {
            let own_nc = dn.own[n].len() * dc.own[c].len();
            let fan_nc = dn.fanout[n] * dc.fanout[c];
            for h in 0..from.h {
                let own_nch = own_nc * dh.own[h].len();
                let fan_nch = fan_nc * dh.fanout[h];
                for w in 0..from.w {
                    let own = own_nch * dw.own[w].len();
                    let kept = if rank < to_size {
                        let [tn, tc, th, tw] = to.coords(rank);
                        dn.kept(n, tn) * dc.kept(c, tc) * dh.kept(h, th) * dw.kept(w, tw)
                    } else {
                        0
                    };
                    let sent = own - kept;
                    if sent > worst.0 {
                        worst = (sent, fan_nch * dw.fanout[w] - usize::from(kept > 0));
                    }
                    rank += 1;
                }
            }
        }
    }
    worst
}

/// Modeled mini-batch time decomposition for a whole network.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostBreakdown {
    /// Total forward time (compute + exposed halo).
    pub fp: f64,
    /// Total backward compute (BPx + BPw, incl. exposed halo).
    pub bp_compute: f64,
    /// Allreduce time left exposed after greedy overlapping.
    pub bpa_exposed: f64,
    /// Total allreduce time before overlapping (for reporting).
    pub bpa_total: f64,
    /// Redistribution time (forward + backward shuffles).
    pub shuffle: f64,
}

impl CostBreakdown {
    /// Modeled mini-batch time.
    pub fn total(&self) -> f64 {
        self.fp + self.bp_compute + self.bpa_exposed + self.shuffle
    }
}

/// Mini-batch cost of a network under a strategy (§V-B).
pub fn network_cost(
    platform: &Platform,
    spec: &NetworkSpec,
    batch: usize,
    strategy: &Strategy,
    opts: &CostOptions,
) -> CostBreakdown {
    let mut out = CostBreakdown::default();
    let costs: Vec<LayerCost> = (0..spec.len())
        .map(|id| layer_cost(platform, spec, batch, id, strategy.grids[id], opts))
        .collect();

    // Forward pass + forward shuffles.
    for (id, l) in spec.layers().iter().enumerate() {
        out.fp += costs[id].fp;
        for &p in &l.parents {
            let (c, h, w) = spec.shape(p);
            if h == 1 && w == 1 {
                continue; // per-sample data is replicated, not shuffled
            }
            let sh = shuffle_cost(
                platform,
                Shape4::new(batch, c, h, w),
                strategy.grids[p],
                strategy.grids[id],
            );
            out.shuffle += sh; // forward direction
            out.shuffle += sh; // backward shuffle retraces it (§III-C)
        }
    }

    // Backward pass with greedy allreduce overlap: walk layers in
    // reverse; compute accumulates into a budget that drains pending
    // allreduce time ("only one allreduce at a time", §V-B).
    let mut budget = 0.0f64;
    for id in (0..spec.len()).rev() {
        let c = &costs[id];
        out.bp_compute += c.bpx + c.bpw;
        budget += c.bpx + c.bpw;
        if c.bpa > 0.0 {
            out.bpa_total += c.bpa;
            if opts.overlap_allreduce {
                let hidden = budget.min(c.bpa);
                out.bpa_exposed += c.bpa - hidden;
                budget -= hidden;
            } else {
                out.bpa_exposed += c.bpa;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    // `Strategy` is fg-core's here; proptest's goes by another name.
    use proptest::prelude::{prop_assert_eq, prop_oneof, proptest, ProptestConfig};
    use proptest::strategy::Strategy as Arbitrary;

    fn platform() -> Platform {
        Platform::lassen_like()
    }

    /// The definition [`shuffle_cost`] is checked against: walk every
    /// rank's box through the destination boxes it overlaps, summing
    /// bytes in `f64` as the message sizes would be.
    fn shuffle_cost_box_walk(
        platform: &Platform,
        shape: Shape4,
        from: ProcGrid,
        to: ProcGrid,
    ) -> f64 {
        if from == to {
            return 0.0;
        }
        let p = from.size();
        let d_from = TensorDist::new(shape, from);
        let d_to = TensorDist::new(shape, to);
        let mut worst_bytes = 0.0f64;
        let mut worst_peers = 0usize;
        for rank in 0..p {
            let own = d_from.local_box(rank);
            let mut bytes = 0.0;
            let mut peers = 0;
            for (dst, inter) in d_to.ranks_overlapping(&own) {
                if dst != rank {
                    bytes += inter.len() as f64 * 4.0;
                    peers += 1;
                }
            }
            if bytes > worst_bytes {
                worst_bytes = bytes;
                worst_peers = peers;
            }
        }
        if worst_bytes == 0.0 {
            return 0.0;
        }
        let link = platform.group_link(p.min(worst_peers + 1));
        alltoall_time(link, worst_peers + 1, worst_bytes)
    }

    /// Factorizations `n · c · h · w` of one of a few world sizes,
    /// non-powers of two included.
    fn arb_grid_of(world: usize) -> impl Arbitrary<Value = ProcGrid> {
        let divs = crate::candidates::divisors(world);
        let pick = move |i: usize, of: usize| {
            let d: Vec<usize> = divs.iter().copied().filter(|d| of.is_multiple_of(*d)).collect();
            d[i % d.len()]
        };
        (0usize..64, 0usize..64, 0usize..64).prop_map(move |(i, j, k)| {
            let n = pick(i, world);
            let h = pick(j, world / n);
            let w = pick(k, world / n / h);
            ProcGrid::new(n, world / n / h / w, h, w)
        })
    }

    fn arb_shuffle() -> impl Arbitrary<Value = (Shape4, ProcGrid, ProcGrid)> {
        // Extents from 1, so parts outnumber indices on some dimension
        // of most cases and some ranks own nothing.
        let shape = (1usize..40, 1usize..9, 1usize..30, 1usize..30)
            .prop_map(|(n, c, h, w)| Shape4::new(n, c, h, w));
        let grids = prop_oneof![
            (arb_grid_of(12), arb_grid_of(12)),
            (arb_grid_of(16), arb_grid_of(16)),
            (arb_grid_of(30), arb_grid_of(30)),
            (arb_grid_of(7), arb_grid_of(7)),
            (arb_grid_of(64), arb_grid_of(64)),
        ];
        (shape, grids).prop_map(|(s, (from, to))| (s, from, to))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn closed_form_shuffle_volume_equals_the_box_walk(case in arb_shuffle()) {
            let p = platform();
            let (shape, from, to) = case;
            for (a, b) in [(from, to), (to, from), (from, from)] {
                prop_assert_eq!(
                    shuffle_cost(&p, shape, a, b).to_bits(),
                    shuffle_cost_box_walk(&p, shape, a, b).to_bits(),
                    "{} from {} to {}", shape, a, b
                );
            }
        }
    }

    fn conv1_resnet() -> ConvLayerDesc {
        ConvLayerDesc { n: 1, c: 3, h: 224, w: 224, f: 64, k: 7, s: 2 }
    }

    fn mesh_conv1_1() -> ConvLayerDesc {
        ConvLayerDesc { n: 1, c: 18, h: 2048, w: 2048, f: 128, k: 5, s: 2 }
    }

    #[test]
    fn sample_parallelism_has_no_halo_cost() {
        let p = platform();
        let d = ConvLayerDesc { n: 8, ..conv1_resnet() };
        let opts = CostOptions { overlap_halo: false, ..Default::default() };
        let c_sample = conv_layer_cost(&p, &d, ProcGrid::sample(8), &opts);
        // With one sample per rank and no spatial split: pure compute.
        let work = ConvWork { n: 1, c: 3, h: 224, w: 224, f: 64, k: 7, s: 2 };
        assert_eq!(c_sample.fp, p.device.conv_time(&work, ConvPass::Forward));
    }

    #[test]
    fn spatial_parallelism_adds_halo_but_cuts_compute() {
        let p = platform();
        let d = mesh_conv1_1();
        let opts = CostOptions::default();
        let c1 = conv_layer_cost(&p, &d, ProcGrid::spatial(1, 1), &opts);
        let c4 = conv_layer_cost(&p, &d, ProcGrid::spatial(2, 2), &opts);
        // Large spatial domain: 4-way split should be a solid win (the
        // paper reports ~14.8x on 16 GPUs for this layer).
        assert!(c4.fp < c1.fp / 2.5, "4-way spatial fp {} vs serial {}", c4.fp, c1.fp);
        let c16 = conv_layer_cost(&p, &d, ProcGrid::spatial(4, 4), &opts);
        assert!(c16.fp < c4.fp / 2.0, "16-way keeps scaling for huge layers");
    }

    #[test]
    fn one_by_one_conv_has_zero_halo() {
        let p = platform();
        let d = ConvLayerDesc { n: 1, c: 512, h: 28, w: 28, f: 128, k: 1, s: 1 };
        let with = conv_layer_cost(&p, &d, ProcGrid::spatial(2, 2), &CostOptions::default());
        let without = conv_layer_cost(
            &p,
            &d,
            ProcGrid::spatial(2, 2),
            &CostOptions { overlap_halo: false, ..Default::default() },
        );
        assert_eq!(with.fp, without.fp, "K=1 ⇒ O=0 ⇒ no halo terms at all");
    }

    #[test]
    fn overlap_never_increases_cost() {
        let p = platform();
        for d in [conv1_resnet(), mesh_conv1_1()] {
            for grid in
                [ProcGrid::spatial(2, 2), ProcGrid::spatial(4, 4), ProcGrid::hybrid(2, 2, 1)]
            {
                let ov = conv_layer_cost(&p, &d, grid, &CostOptions::default());
                let no = conv_layer_cost(
                    &p,
                    &d,
                    grid,
                    &CostOptions { overlap_halo: false, overlap_allreduce: true },
                );
                assert!(ov.fp <= no.fp);
                assert!(ov.bpx <= no.bpx);
            }
        }
    }

    #[test]
    fn eight_way_spatial_pays_internode_halo() {
        let p = platform();
        let d = mesh_conv1_1();
        let opts = CostOptions { overlap_halo: false, ..Default::default() };
        let c4 = conv_layer_cost(&p, &d, ProcGrid::spatial(2, 2), &opts);
        let c8 = conv_layer_cost(&p, &d, ProcGrid::spatial(4, 2), &opts);
        // Halo portion (fp - compute) grows when crossing nodes.
        let halo4 = c4.fp
            - p.device.conv_time(
                &ConvWork { n: 1, c: 18, h: 1024, w: 1024, f: 128, k: 5, s: 2 },
                ConvPass::Forward,
            );
        let halo8 = c8.fp
            - p.device.conv_time(
                &ConvWork { n: 1, c: 18, h: 512, w: 1024, f: 128, k: 5, s: 2 },
                ConvPass::Forward,
            );
        assert!(halo8 > halo4, "inter-node halo ({halo8}) must exceed intra-node ({halo4})");
    }

    #[test]
    fn shuffle_cost_zero_for_identical_grids_positive_otherwise() {
        let p = platform();
        let shape = Shape4::new(8, 64, 56, 56);
        assert_eq!(shuffle_cost(&p, shape, ProcGrid::sample(8), ProcGrid::sample(8)), 0.0);
        let t = shuffle_cost(&p, shape, ProcGrid::sample(8), ProcGrid::hybrid(2, 2, 2));
        assert!(t > 0.0);
        // Moving more data costs more.
        let t2 = shuffle_cost(
            &p,
            Shape4::new(8, 128, 56, 56),
            ProcGrid::sample(8),
            ProcGrid::hybrid(2, 2, 2),
        );
        assert!(t2 > t);
    }

    fn mesh_like_net() -> NetworkSpec {
        // Paper-scale spatial domains: per-rank work stays far above the
        // launch-bound regime, as in the real 1K mesh model.
        let mut net = NetworkSpec::new();
        let i = net.input("data", 18, 1024, 1024);
        let mut prev = net.conv("conv1_1", i, 128, 5, 2, 2);
        prev = net.batchnorm("bn1_1", prev);
        prev = net.relu("relu1_1", prev);
        prev = net.conv("conv1_2", prev, 128, 3, 1, 1);
        prev = net.conv("conv2_1", prev, 192, 3, 2, 1);
        prev = net.relu("relu2_1", prev);
        let pred = net.conv("pred", prev, 2, 1, 1, 0);
        net.loss("loss", pred);
        net
    }

    #[test]
    fn network_cost_strong_scaling_trend() {
        // Fixed batch, more ranks per sample ⇒ faster mini-batch, with
        // diminishing returns — the Table I shape.
        let p = platform();
        let spec = mesh_like_net();
        let batch = 4;
        let opts = CostOptions::default();
        let t = |grid: ProcGrid| {
            let s = Strategy::uniform(&spec, grid);
            network_cost(&p, &spec, batch, &s, &opts).total()
        };
        let t1 = t(ProcGrid::sample(4));
        let t2 = t(ProcGrid::hybrid(4, 2, 1));
        let t4 = t(ProcGrid::hybrid(4, 2, 2));
        assert!(t2 < t1, "2 GPUs/sample must beat 1: {t2} vs {t1}");
        assert!(t4 < t2, "4 GPUs/sample must beat 2: {t4} vs {t2}");
        let s1 = t1 / t2;
        assert!((1.5..=2.05).contains(&s1), "2-way speedup ≈ 2x, got {s1}");
    }

    #[test]
    fn allreduce_overlap_reduces_exposed_time() {
        let p = platform();
        let spec = mesh_like_net();
        let s = Strategy::uniform(&spec, ProcGrid::hybrid(4, 2, 2));
        let with = network_cost(&p, &spec, 4, &s, &CostOptions::default());
        let without = network_cost(
            &p,
            &spec,
            4,
            &s,
            &CostOptions { overlap_allreduce: false, ..Default::default() },
        );
        assert!(with.bpa_exposed < without.bpa_exposed);
        assert_eq!(with.bpa_total, without.bpa_total);
        assert!(with.total() < without.total());
    }

    #[test]
    fn weak_scaling_is_roughly_flat() {
        // Growing batch with ranks (fixed samples/rank): mini-batch time
        // nearly constant — the Fig. 4 shape.
        let p = platform();
        let spec = mesh_like_net();
        let opts = CostOptions::default();
        let mut times = Vec::new();
        for ranks in [4usize, 16, 64, 256] {
            let s = Strategy::uniform(&spec, ProcGrid::sample(ranks));
            times.push(network_cost(&p, &spec, ranks, &s, &opts).total());
        }
        let min = times.iter().cloned().fold(f64::MAX, f64::min);
        let max = times.iter().cloned().fold(0.0, f64::max);
        assert!(max / min < 1.3, "weak scaling should be near-flat: {times:?}");
    }
}
