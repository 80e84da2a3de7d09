//! Per-layer measurements taken from outside the program: a replay of
//! one rank's local layer shapes through the public `fg_kernels`
//! functions, and microbenchmarks of the communicator and the
//! distributed-tensor primitives on shapes taken from the workload.
//!
//! Everything here runs on the rank threads of a `run_ranks` world, all
//! ranks at once, so the kernels contend for memory bandwidth the way
//! they do inside a training step.

use std::hint::black_box;
use std::time::Instant;

use fg_comm::{Collectives, Communicator, ReduceOp};
use fg_core::{DistConv2d, DistPool2d, Strategy};
use fg_kernels::batchnorm::{
    bn_backward_apply, bn_backward_partials, bn_forward_with_stats, bn_partial_moments,
};
use fg_kernels::conv::{
    conv2d_backward_data_region, conv2d_backward_filter_region, conv2d_forward_region,
};
use fg_kernels::gemm::{sgemm_acc, sgemm_at_acc, sgemm_bt_acc};
use fg_kernels::pool::{pool2d_backward_region, pool2d_forward_region};
use fg_kernels::{relu_backward, relu_forward, ConvGeometry};
use fg_nn::{LayerKind, NetworkSpec, BN_EPS};
use fg_tensor::halo::exchange_halo_with_plan;
use fg_tensor::shuffle::ShufflePlan;
use fg_tensor::{DistTensor, Shape4, Tensor, TensorDist};

use crate::stats::median;
use crate::trace::Tracer;

/// Times every kernel is replayed; the median per layer is kept. Three
/// were too few: one disturbed call out of three decides the median.
const KERNEL_REPS: usize = 5;

/// One rank's kernel replay, summed over the layers of one step.
#[derive(Debug, Clone, Default)]
pub struct KernelTimes {
    pub conv_fwd_ms: f64,
    pub conv_bwd_data_ms: f64,
    pub conv_bwd_filter_ms: f64,
    /// Dense multiply-add count ×2 of one conv pass over this rank's
    /// shards (the three passes have the same count).
    pub conv_flops_per_pass: f64,
    pub bn_ms: f64,
    pub relu_ms: f64,
    pub pool_ms: f64,
    pub fc_ms: f64,
    pub fc_flops: f64,
}

impl KernelTimes {
    /// Everything the replay covers, per step.
    pub fn total_ms(&self) -> f64 {
        self.conv_fwd_ms
            + self.conv_bwd_data_ms
            + self.conv_bwd_filter_ms
            + self.bn_ms
            + self.relu_ms
            + self.pool_ms
            + self.fc_ms
    }
}

/// Deterministic non-zero filler in (-1, 1) \ {0}. The conv kernels skip
/// zero weights, so replay operands must not contain zeros; values do
/// not otherwise change the instruction stream.
fn filled(shape: Shape4, salt: u32) -> Tensor {
    let mut state = 0x9E37_79B9u32 ^ salt.wrapping_mul(0x85EB_CA6B);
    let data = (0..shape.len())
        .map(|_| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let u = (state >> 8) as f32 / (1u32 << 24) as f32; // [0, 1)
            if state & 1 == 0 {
                0.05 + 0.9 * u
            } else {
                -0.05 - 0.9 * u
            }
        })
        .collect();
    Tensor::from_vec(shape, data)
}

/// A window (shard + margins) of `dist` for `rank`, filled with data.
fn filled_window(
    dist: &TensorDist,
    rank: usize,
    margins: ([usize; 4], [usize; 4]),
    salt: u32,
) -> DistTensor {
    let mut win = DistTensor::new(dist.clone(), rank, margins.0, margins.1);
    let data = filled(win.local().shape(), salt);
    *win.local_mut() = data;
    win
}

/// Median wall time (ms) of `KERNEL_REPS` calls of `f`, each under a
/// span named `name`.
fn timed(tracer: &mut Tracer, name: &str, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..KERNEL_REPS)
        .map(|rep| {
            let open = tracer.begin(name, rep);
            let t = Instant::now();
            f();
            let ms = t.elapsed().as_secs_f64() * 1e3;
            tracer.end(open);
            ms
        })
        .collect();
    median(&samples)
}

/// Layer `id` as the executor distributes it, if it is a convolution.
fn conv_layer(
    spec: &NetworkSpec,
    shapes: &[(usize, usize, usize)],
    strategy: &Strategy,
    batch: usize,
    id: usize,
) -> Option<DistConv2d> {
    let LayerKind::Conv { filters, kernel, stride, pad, .. } = spec.layer(id).kind else {
        return None;
    };
    let (c_in, in_h, in_w) = shapes[spec.layer(id).parents[0]];
    let geom = ConvGeometry::square(in_h, in_w, kernel, stride, pad);
    Some(DistConv2d::new(batch, c_in, filters, geom, strategy.grids[id]))
}

/// Replay `rank`'s local shapes of every conv, batch-norm, ReLU, pool
/// and FC layer through the kernels the executor calls for them.
pub fn replay_kernels(
    spec: &NetworkSpec,
    strategy: &Strategy,
    batch: usize,
    rank: usize,
    tracer: &mut Tracer,
) -> KernelTimes {
    let shapes = spec.shapes();
    let mut out = KernelTimes::default();
    let replay = tracer.begin("kernel_replay", 0);
    for (id, layer) in spec.layers().iter().enumerate() {
        let salt = id as u32 * 8;
        let (c, h, w) = shapes[id];
        let local = |chw: (usize, usize, usize)| {
            TensorDist::new(Shape4::new(batch, chw.0, chw.1, chw.2), strategy.grids[id])
                .local_shape(rank)
        };
        match &layer.kind {
            LayerKind::Conv { filters, kernel, .. } => {
                let conv = conv_layer(spec, &shapes, strategy, batch, id).expect("layer is a conv");
                let xwin = filled_window(&conv.in_dist, rank, conv.x_margins, salt);
                let dywin = filled_window(&conv.out_dist, rank, conv.dy_margins, salt + 1);
                let (ib, ob) = (conv.in_dist.local_box(rank), conv.out_dist.local_box(rank));
                let dy = filled(conv.out_dist.local_shape(rank), salt + 2);
                let c_in = conv.in_dist.shape.c;
                let wts = filled(Shape4::new(*filters, c_in, *kernel, *kernel), salt + 3);
                let x_origin = (xwin.origin()[2], xwin.origin()[3]);
                let dy_origin = (dywin.origin()[2], dywin.origin()[3]);
                let (o_rows, o_cols) = ((ob.lo[2], ob.hi[2]), (ob.lo[3], ob.hi[3]));
                let (i_rows, i_cols) = ((ib.lo[2], ib.hi[2]), (ib.lo[3], ib.hi[3]));
                let name = &layer.name;
                out.conv_fwd_ms += timed(tracer, &format!("conv_fwd:{name}"), || {
                    black_box(conv2d_forward_region(
                        black_box(xwin.local()),
                        x_origin,
                        &wts,
                        None,
                        &conv.geom,
                        o_rows,
                        o_cols,
                    ));
                });
                out.conv_bwd_data_ms += timed(tracer, &format!("conv_bwd_data:{name}"), || {
                    black_box(conv2d_backward_data_region(
                        black_box(dywin.local()),
                        dy_origin,
                        &wts,
                        &conv.geom,
                        i_rows,
                        i_cols,
                    ));
                });
                out.conv_bwd_filter_ms += timed(tracer, &format!("conv_bwd_filter:{name}"), || {
                    black_box(conv2d_backward_filter_region(
                        black_box(xwin.local()),
                        x_origin,
                        &dy,
                        (ob.lo[2] as i64, ob.lo[3] as i64),
                        &conv.geom,
                        o_rows,
                        o_cols,
                    ));
                });
                let os = conv.out_dist.local_shape(rank);
                out.conv_flops_per_pass +=
                    2.0 * (os.n * os.c * os.h * os.w * c_in * kernel * kernel) as f64;
            }
            LayerKind::Pool { kind, kernel, stride, pad } => {
                let (pc, ph, pw) = shapes[layer.parents[0]];
                let geom = ConvGeometry::square(ph, pw, *kernel, *stride, *pad);
                let pool = DistPool2d::new(*kind, batch, pc, geom, strategy.grids[id]);
                let xwin = filled_window(&pool.in_dist, rank, pool.x_margins(), salt);
                let dywin = filled_window(&pool.out_dist, rank, pool.dy_margins(), salt + 1);
                let (ib, ob) = (pool.in_dist.local_box(rank), pool.out_dist.local_box(rank));
                let x_origin = (xwin.origin()[2], xwin.origin()[3]);
                let dy_origin = (dywin.origin()[2], dywin.origin()[3]);
                out.pool_ms += timed(tracer, &format!("pool:{}", layer.name), || {
                    black_box(pool2d_forward_region(
                        *kind,
                        black_box(xwin.local()),
                        x_origin,
                        &geom,
                        (ob.lo[2], ob.hi[2]),
                        (ob.lo[3], ob.hi[3]),
                    ));
                    black_box(pool2d_backward_region(
                        *kind,
                        xwin.local(),
                        x_origin,
                        black_box(dywin.local()),
                        dy_origin,
                        &geom,
                        (ib.lo[2], ib.hi[2]),
                        (ib.lo[3], ib.hi[3]),
                    ));
                });
            }
            LayerKind::BatchNorm => {
                let x = filled(local((c, h, w)), salt);
                let dy = filled(x.shape(), salt + 1);
                let (gamma, beta) = (vec![1.0f32; c], vec![0.0f32; c]);
                out.bn_ms += timed(tracer, &format!("bn:{}", layer.name), || {
                    let partials = bn_partial_moments(black_box(&x));
                    let count = partials.count;
                    let stats = partials.finalize();
                    black_box(bn_forward_with_stats(&x, &stats, &gamma, &beta, BN_EPS));
                    let (sum_dy, sum_dy_xhat) = bn_backward_partials(&x, &dy, &stats, BN_EPS);
                    black_box(bn_backward_apply(
                        &x,
                        &dy,
                        &stats,
                        &gamma,
                        &sum_dy,
                        &sum_dy_xhat,
                        count,
                        BN_EPS,
                    ));
                });
            }
            LayerKind::Relu => {
                let x = filled(local((c, h, w)), salt);
                let dy = filled(x.shape(), salt + 1);
                out.relu_ms += timed(tracer, &format!("relu:{}", layer.name), || {
                    black_box(relu_forward(black_box(&x)));
                    black_box(relu_backward(&x, &dy));
                });
            }
            LayerKind::Fc { out_features } => {
                let (pc, ph, pw) = shapes[layer.parents[0]];
                let (n, k, m) = (local((pc, ph, pw)).n, pc * ph * pw, *out_features);
                let x = filled(Shape4::new(n, k, 1, 1), salt);
                let wts = filled(Shape4::new(m, k, 1, 1), salt + 1);
                let dy = filled(Shape4::new(n, m, 1, 1), salt + 2);
                out.fc_ms += timed(tracer, &format!("fc_gemm:{}", layer.name), || {
                    let mut y = vec![0.0f32; n * m];
                    sgemm_bt_acc(n, k, m, x.as_slice(), wts.as_slice(), &mut y);
                    let mut dx = vec![0.0f32; n * k];
                    sgemm_acc(n, m, k, dy.as_slice(), wts.as_slice(), &mut dx);
                    let mut dw = vec![0.0f32; m * k];
                    sgemm_at_acc(m, n, k, dy.as_slice(), x.as_slice(), &mut dw);
                    black_box((y, dx, dw));
                });
                out.fc_flops += 3.0 * 2.0 * (n * k * m) as f64;
            }
            LayerKind::Input { .. }
            | LayerKind::Add
            | LayerKind::GlobalAvgPool
            | LayerKind::SoftmaxCrossEntropy => {}
        }
    }
    tracer.end(replay);
    out
}

/// Communicator and tensor-primitive microbenchmarks of one rank.
#[derive(Debug, Clone, Default)]
pub struct MicroTimes {
    pub p2p_rtt_us: f64,
    pub p2p_gbps: f64,
    pub allreduce_small_us: f64,
    pub allreduce_gbps: f64,
    pub halo_exchange_us: f64,
    pub halo_gbps: f64,
    pub shuffle_ms: f64,
    pub from_global_ms: f64,
}

/// Median seconds per call of `f` over `reps` calls, all ranks in step.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// The conv layer whose forward halo exchange sends the most elements
/// from `rank`, if any layer of the strategy exchanges halos at all.
fn largest_halo_conv(
    spec: &NetworkSpec,
    strategy: &Strategy,
    batch: usize,
    rank: usize,
) -> Option<DistConv2d> {
    let shapes = spec.shapes();
    (0..spec.len())
        .filter_map(|id| conv_layer(spec, &shapes, strategy, batch, id))
        .max_by_key(|conv| conv.x_halo_plan(rank).send_elements())
        // Padding alone gives a window margins but nothing to exchange.
        .filter(|conv| conv.x_halo_plan(rank).send_elements() > 0)
}

/// The first edge of the network whose two ends are distributed over
/// different grids: `(source dist, destination dist)` of the §III-C
/// shuffle the executor performs there.
fn first_shuffle(
    spec: &NetworkSpec,
    strategy: &Strategy,
    batch: usize,
) -> Option<(TensorDist, TensorDist)> {
    let shapes = spec.shapes();
    spec.layers().iter().enumerate().find_map(|(id, l)| {
        let &p = l.parents.first()?;
        let (c, h, w) = shapes[p];
        let (from, to) = (strategy.grids[p], strategy.grids[id]);
        // Per-sample activations (1×1 maps) are not sharded tensors.
        (from != to && h * w > 1).then(|| {
            let shape = Shape4::new(batch, c, h, w);
            (TensorDist::new(shape, from), TensorDist::new(shape, to))
        })
    })
}

/// Run the microbenchmarks. Collective: every rank of the 2-rank world
/// calls it with the same arguments.
pub fn microbench<C: Communicator + Collectives>(
    comm: &C,
    spec: &NetworkSpec,
    strategy: &Strategy,
    batch: usize,
    input: &Tensor,
) -> MicroTimes {
    assert_eq!(comm.size(), 2, "microbenchmarks are written for the 2-rank world");
    let (rank, peer) = (comm.rank(), 1 - comm.rank());
    let mut out = MicroTimes::default();

    // 8-byte ping-pong: rank 0 sends first, rank 1 echoes.
    let ping = |bytes: usize| {
        if rank == 0 {
            comm.send(peer, 1, vec![1u8; bytes]);
            black_box(comm.recv::<u8>(peer, 1));
        } else {
            let got = comm.recv::<u8>(peer, 1);
            comm.send(peer, 1, got);
        }
    };
    out.p2p_rtt_us = median_secs(2000, || ping(8)) * 1e6;
    const P2P_BYTES: usize = 4 << 20;
    let rtt = median_secs(15, || ping(P2P_BYTES));
    out.p2p_gbps = 2.0 * P2P_BYTES as f64 / rtt / 1e9;

    // BN-statistics-sized and gradient-sized allreduce.
    let small = vec![1.0f32; 256];
    out.allreduce_small_us =
        median_secs(2000, || drop(black_box(comm.allreduce(&small, ReduceOp::Sum)))) * 1e6;
    const AR_ELEMS: usize = (16 << 20) / 4;
    let large = vec![1.0f32; AR_ELEMS];
    let secs = median_secs(7, || drop(black_box(comm.allreduce(&large, ReduceOp::Sum))));
    out.allreduce_gbps = (AR_ELEMS * 4) as f64 / secs / 1e9;

    if let Some(conv) = largest_halo_conv(spec, strategy, batch, rank) {
        let plan = conv.x_halo_plan(rank);
        let mut win = filled_window(&conv.in_dist, rank, conv.x_margins, 7);
        let secs = median_secs(200, || exchange_halo_with_plan(comm, &mut win, &plan));
        out.halo_exchange_us = secs * 1e6;
        out.halo_gbps = (plan.send_elements() * 4) as f64 / secs / 1e9;
    }

    if let Some((src, dst)) = first_shuffle(spec, strategy, batch) {
        let plan = ShufflePlan::build(src.clone(), dst, rank);
        let shard = filled_window(&src, rank, ([0; 4], [0; 4]), 9);
        let secs = median_secs(50, || drop(black_box(plan.execute(comm, &shard, [0; 4], [0; 4]))));
        out.shuffle_ms = secs * 1e3;
    }

    let input_dist = TensorDist::new(input.shape(), strategy.grids[0]);
    let secs = median_secs(50, || {
        black_box(DistTensor::from_global(input_dist.clone(), rank, input, [0; 4], [0; 4]));
    });
    out.from_global_ms = secs * 1e3;
    out
}
