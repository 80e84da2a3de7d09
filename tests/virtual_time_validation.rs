//! Executed-schedule timing vs closed-form model (§VI-B3, strengthened).
//!
//! The cost model's forward formula `FP = max(C_interior…, halo) + …` is
//! an *assumption* about how the §IV-A schedule behaves. Here we run the
//! real schedule — post halo sends, compute interior (as modeled device
//! time on the virtual clock), receive, compute boundary — through the
//! discrete-event communicator and check that the resulting virtual time
//! tracks the closed-form `conv_layer_cost` prediction. The event order
//! is the actual implementation's message order, so this validates the
//! model against execution rather than against itself.

use finegrain::comm::{run_ranks_timed, Communicator, LinkModel};
use finegrain::core::distconv::InteriorPlan;
use finegrain::core::DistConv2d;
use finegrain::kernels::conv::ConvGeometry;
use finegrain::perf::{conv_layer_cost, ConvLayerDesc, ConvPass, ConvWork, CostOptions, Platform};
use finegrain::tensor::halo::{finish_halo_exchange, start_halo_exchange, HaloPlan};
use finegrain::tensor::{DistTensor, ProcGrid};

/// Virtual-time execution of the overlapped forward schedule for one
/// conv layer; returns the max rank clock.
fn executed_forward_time(platform: &Platform, desc: &ConvLayerDesc, grid: ProcGrid) -> f64 {
    let geom = ConvGeometry::square(desc.h, desc.w, desc.k, desc.s, desc.k / 2);
    let conv = DistConv2d::new(desc.n, desc.c, desc.f, geom, grid);
    let device = platform.device;
    let plat = *platform;
    let link =
        LinkModel::custom(move |src, dst, bytes| plat.link_between(src, dst).ptp(bytes as f64));
    let out = run_ranks_timed(grid.size(), link, |comm| {
        // Window with zeroed data — we time the schedule, not the values.
        let win =
            DistTensor::new(conv.in_dist.clone(), comm.rank(), conv.x_margins.0, conv.x_margins.1);
        let mut win = win;
        let plan = HaloPlan::build(&win);
        let iplan = InteriorPlan::build(&conv, comm.rank());
        let ob = conv.out_dist.local_box(comm.rank());
        let n_loc = ob.hi[0] - ob.lo[0];

        // (1) Post sends at t = 0.
        let tag = start_halo_exchange(comm, &win, &plan);
        // (2) Interior compute on the virtual clock.
        if let Some((rows, cols)) = iplan.interior {
            let work = ConvWork {
                n: n_loc,
                c: desc.c,
                h: (rows.1 - rows.0) * desc.s,
                w: (cols.1 - cols.0) * desc.s,
                f: desc.f,
                k: desc.k,
                s: desc.s,
            };
            comm.advance(device.conv_time(&work, ConvPass::Forward));
        }
        // (3) Receive halos (clock jumps to arrivals if not yet hidden).
        finish_halo_exchange(comm, &mut win, &plan, tag);
        // (4) Boundary compute.
        for &(rows, cols) in &iplan.boundary {
            let work = ConvWork {
                n: n_loc,
                c: desc.c,
                h: ((rows.1 - rows.0) * desc.s).max(1),
                w: ((cols.1 - cols.0) * desc.s).max(1),
                f: desc.f,
                k: desc.k,
                s: desc.s,
            };
            comm.advance(device.conv_time(&work, ConvPass::Forward));
        }
        comm.now()
    });
    out.into_iter().map(|(_, t)| t).fold(0.0, f64::max)
}

#[test]
fn executed_schedule_tracks_the_closed_form_model() {
    let platform = Platform::lassen_like();
    let opts = CostOptions::default();
    // Representative layers: huge spatial (halo fully hidden) and
    // moderate spatial with a larger kernel.
    // Per-case acceptance bands. The executed schedule is systematically
    // ≥ the closed form: splitting the output into interior + boundary
    // kernels pays per-region launch overhead and reduced small-kernel
    // throughput that `FP = max(C, halo)` ignores — the same lower-order
    // effect the paper's own validation flags at 16 GPUs/sample
    // (§VI-B3). For the huge mesh layer the effect is small; for a small
    // layer the boundary strips are launch-bound and the gap widens —
    // which is precisely why implementations skip the split when the
    // interior is too small to pay for it.
    let cases = [
        (
            ConvLayerDesc { n: 1, c: 18, h: 2048, w: 2048, f: 128, k: 5, s: 2 },
            ProcGrid::spatial(2, 2),
            1.3,
        ),
        (
            ConvLayerDesc { n: 1, c: 18, h: 2048, w: 2048, f: 128, k: 5, s: 2 },
            ProcGrid::spatial(4, 4),
            2.2,
        ),
        (
            ConvLayerDesc { n: 2, c: 64, h: 128, w: 128, f: 64, k: 3, s: 1 },
            ProcGrid::hybrid(2, 2, 1),
            5.0,
        ),
    ];
    for (desc, grid, max_ratio) in cases {
        let executed = executed_forward_time(&platform, &desc, grid);
        let modeled = conv_layer_cost(&platform, &desc, grid, &opts).fp;
        let ratio = executed / modeled;
        assert!(
            (0.6..max_ratio).contains(&ratio),
            "executed schedule {executed} vs closed form {modeled} (ratio {ratio:.2}) for {desc:?} on {grid}"
        );
    }
}

#[test]
fn executed_schedule_shows_the_strong_scaling_ladder() {
    // Virtual-time execution reproduces the Fig. 3 scaling shape for
    // conv1_1 without any closed-form halo assumption.
    let platform = Platform::lassen_like();
    let desc = ConvLayerDesc { n: 1, c: 18, h: 2048, w: 2048, f: 128, k: 5, s: 2 };
    let t1 = executed_forward_time(&platform, &desc, ProcGrid::spatial(1, 1));
    let t4 = executed_forward_time(&platform, &desc, ProcGrid::spatial(2, 2));
    let t16 = executed_forward_time(&platform, &desc, ProcGrid::spatial(4, 4));
    assert!(t4 < t1 / 2.5, "4-way: {t1} → {t4}");
    // 16-way keeps improving, sublinearly: the boundary-kernel
    // efficiency cost grows with decomposition (cf. the paper's
    // degradation remarks at 16 GPUs/sample).
    assert!(t16 < t4 / 2.0, "16-way: {t4} → {t16}");
    assert!(t1 / t16 > 7.0, "overall 16-way speedup only {:.1}x", t1 / t16);
}
