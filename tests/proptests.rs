//! Property-based tests over the distributed substrate: for *random*
//! layer geometries and process-grid factorizations, the distributed
//! algorithms must replicate serial execution; redistribution must be a
//! lossless permutation; collectives must match their sequential
//! reductions. These are the paper's correctness claims quantified over
//! the input space rather than at hand-picked points.

use finegrain::comm::collectives::block_range;
use finegrain::comm::{run_ranks, AllreduceAlgorithm, Collectives, Communicator, ReduceOp};
use finegrain::core::distconv::InteriorPlan;
use finegrain::core::{DistConv2d, DistExecutor};
use finegrain::kernels::conv::{
    conv2d_backward_data, conv2d_backward_filter, conv2d_forward, ConvGeometry,
};
use finegrain::kernels::Labels;
use finegrain::nn::{Network, NetworkSpec, Sgd};
use finegrain::tensor::gather::gather_to_root;
use finegrain::tensor::halo::{exchange_halo_with_plan, HaloPlan};
use finegrain::tensor::shuffle::ShufflePlan;
use finegrain::tensor::weighted_block_range;
use finegrain::tensor::{DistTensor, ProcGrid, Shape4, Tensor, TensorDist};
use proptest::prelude::*;

fn tensor_from_seed(shape: Shape4, seed: u64) -> Tensor {
    let mut state = seed | 1;
    Tensor::from_fn(shape, |_, _, _, _| {
        // xorshift64 — fast deterministic pseudo-noise.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ((state % 1000) as f32) / 250.0 - 2.0
    })
}

/// Random-but-valid conv problem + grid.
fn conv_case() -> impl Strategy<Value = (usize, usize, usize, ConvGeometry, ProcGrid, u64)> {
    (
        1usize..3,                                   // n multiplier
        1usize..4,                                   // c
        1usize..4,                                   // f
        prop_oneof![Just(1usize), Just(3), Just(5)], // k
        1usize..3,                                   // s
        8usize..15,                                  // h
        8usize..15,                                  // w
        prop_oneof![
            Just(ProcGrid::sample(2)),
            Just(ProcGrid::spatial(2, 1)),
            Just(ProcGrid::spatial(1, 2)),
            Just(ProcGrid::spatial(2, 2)),
            Just(ProcGrid::hybrid(2, 2, 1)),
            Just(ProcGrid::spatial(3, 1)),
        ],
        any::<u64>(),
    )
        .prop_map(|(nm, c, f, k, s, h, w, grid, seed)| {
            let n = grid.n * nm;
            let geom = ConvGeometry::square(h, w, k, s, k / 2);
            (n, c, f, geom, grid, seed)
        })
        .prop_filter("grid must populate the problem", |(n, c, f, geom, grid, _)| {
            let in_shape = Shape4::new(*n, *c, geom.in_h, geom.in_w);
            let out_shape = Shape4::new(*n, *f, geom.out_h(), geom.out_w());
            TensorDist::new(in_shape, *grid).is_fully_populated()
                && TensorDist::new(out_shape, *grid).is_fully_populated()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The step's conv path — plans compiled as the executor compiles
    /// them, halo overlapped with the interior — against the serial
    /// kernels: `y` and `dx` bitwise, `dw` / `db` (summed by an
    /// allreduce, in another order) within 1e-4.
    #[test]
    fn distributed_conv_replicates_serial((n, c, f, geom, grid, seed) in conv_case()) {
        let x = tensor_from_seed(Shape4::new(n, c, geom.in_h, geom.in_w), seed);
        let w = tensor_from_seed(Shape4::new(f, c, geom.kh, geom.kw), seed ^ 0xABCD);
        let bias: Vec<f32> = (0..f).map(|i| i as f32 * 0.5 - 0.75).collect();
        let y_serial = conv2d_forward(&x, &w, Some(&bias), &geom);
        let dy = tensor_from_seed(y_serial.shape(), seed ^ 0x1234);
        let dx_serial = conv2d_backward_data(&dy, &w, &geom);
        let (dw_serial, db_serial) = conv2d_backward_filter(&x, &dy, &geom);

        let layer = DistConv2d::new(n, c, f, geom, grid);
        let outs = run_ranks(grid.size(), |comm| {
            let rank = comm.rank();
            let (x_halo, dy_halo) = (layer.x_halo_plan(rank), layer.dy_halo_plan(rank));
            let interior = InteriorPlan::build(&layer, rank);
            let xs = DistTensor::from_global(layer.in_dist.clone(), rank, &x, [0; 4], [0; 4]);
            let (y, win) = layer.forward(comm, &xs, &w, Some(&bias), &x_halo, &interior, None);
            let dys = DistTensor::from_global(layer.out_dist.clone(), rank, &dy, [0; 4], [0; 4]);
            let (dx, dw, db, _) = layer.backward(comm, &win, &dys, &w, true, true, &dy_halo, None);
            let dx = dx.expect("dx was asked for");
            (gather_to_root(comm, &y, 0), gather_to_root(comm, &dx, 0), dw, db)
        });
        // Bitwise identity: same inner loops, same windows.
        prop_assert_eq!(outs[0].0.as_ref().unwrap(), &y_serial);
        prop_assert_eq!(outs[0].1.as_ref().unwrap(), &dx_serial);
        for (_, _, dw, db) in &outs {
            let rel = dw.max_rel_diff(&dw_serial, 1.0);
            prop_assert!(rel <= 1e-4, "dw off by {}", rel);
            for (a, b) in db.as_ref().unwrap().iter().zip(&db_serial) {
                prop_assert!((a - b).abs() <= 1e-4 * a.abs().max(1.0), "db {} vs {}", a, b);
            }
        }
    }

    #[test]
    fn redistribution_is_a_lossless_permutation(
        n in 1usize..5,
        c in 1usize..4,
        h in 4usize..12,
        w in 4usize..12,
        from_idx in 0usize..4,
        to_idx in 0usize..4,
        seed in any::<u64>(),
    ) {
        let grids = [
            ProcGrid::sample(4),
            ProcGrid::spatial(2, 2),
            ProcGrid::spatial(4, 1),
            ProcGrid::hybrid(2, 1, 2),
        ];
        let shape = Shape4::new(n.max(4), c, h, w); // N ≥ 4 so sample(4) populates
        let from = TensorDist::new(shape, grids[from_idx]);
        let to = TensorDist::new(shape, grids[to_idx]);
        prop_assume!(from.is_fully_populated() && to.is_fully_populated());
        let a = tensor_from_seed(shape, seed);
        let b = tensor_from_seed(shape, seed ^ 0x5EED);
        let ok = run_ranks(4, |comm| {
            // One plan per direction, executed on two tensors: a plan
            // carries no state from one execution to the next.
            let there = ShufflePlan::build(from.clone(), to.clone(), comm.rank());
            let back = ShufflePlan::build(to.clone(), from.clone(), comm.rank());
            let mut ok = true;
            for global in [&a, &b] {
                let src = DistTensor::from_global(from.clone(), comm.rank(), global, [0; 4], [0; 4]);
                let mid = there.execute(comm, &src, [0; 4], [0; 4]);
                let round = back.execute(comm, &mid, [0; 4], [0; 4]);
                // Every element still present exactly once, values intact,
                // and the round trip restores the shard bit for bit.
                ok &= mid.own_box().iter().all(|idx| mid.get_global(idx) == Some(global.at_idx(idx)))
                    && round.owned_tensor() == src.owned_tensor();
            }
            ok
        });
        prop_assert!(ok.iter().all(|&v| v));
    }

    #[test]
    fn allreduce_algorithms_agree_with_sequential_sum(
        p in 2usize..7,
        len in 1usize..40,
        seed in any::<u64>(),
    ) {
        let inputs: Vec<Vec<f64>> = (0..p)
            .map(|r| {
                (0..len)
                    .map(|i| {
                        let v = seed
                            .wrapping_mul(r as u64 + 1)
                            .wrapping_add(i as u64 * 7919);
                        ((v % 2000) as f64) / 100.0 - 10.0
                    })
                    .collect()
            })
            .collect();
        let want: Vec<f64> =
            (0..len).map(|i| inputs.iter().map(|v| v[i]).sum()).collect();
        for alg in [
            AllreduceAlgorithm::Ring,
            AllreduceAlgorithm::RecursiveDoubling,
            AllreduceAlgorithm::Rabenseifner,
        ] {
            let outs = run_ranks(p, |comm| {
                comm.allreduce_with(&inputs[comm.rank()], ReduceOp::Sum, alg)
            });
            for out in &outs {
                prop_assert_eq!(out.len(), len);
                for (a, b) in out.iter().zip(&want) {
                    prop_assert!((a - b).abs() < 1e-9 * b.abs().max(1.0),
                        "alg {:?}: {} vs {}", alg, a, b);
                }
                prop_assert_eq!(out, &outs[0]);
            }
        }
    }

    #[test]
    fn halo_exchange_establishes_window_invariant(
        h in 6usize..16,
        w in 6usize..16,
        mh in 0usize..3,
        mw in 0usize..3,
        seed in any::<u64>(),
    ) {
        let shape = Shape4::new(1, 2, h, w);
        let grid = ProcGrid::spatial(2, 2);
        let dist = TensorDist::new(shape, grid);
        prop_assume!(dist.is_fully_populated());
        let global = tensor_from_seed(shape, seed);
        let ok = run_ranks(4, |comm| {
            let mut dt = DistTensor::from_global(
                dist.clone(), comm.rank(), &global, [0, 0, mh, mw], [0, 0, mh, mw],
            );
            let plan = HaloPlan::build(&dt);
            exchange_halo_with_plan(comm, &mut dt, &plan);
            // Every in-bounds window position matches the global tensor.
            for idx in dt.needed_box().iter() {
                if dt.get_global(idx) != Some(global.at_idx(idx)) {
                    return false;
                }
            }
            true
        });
        prop_assert!(ok.iter().all(|&v| v));
    }
}

/// Tiny segmentation net for the weighted-partition property below:
/// just enough structure (halo-carrying conv, pointwise head) to make a
/// layout change observable in the loss bits.
fn tiny_weighted_net() -> NetworkSpec {
    let mut spec = NetworkSpec::new();
    let i = spec.input("x", 2, 8, 8);
    let c1 = spec.conv("c1", i, 3, 3, 1, 1);
    let r1 = spec.relu("r1", c1);
    let c2 = spec.conv("c2", r1, 2, 1, 1, 0);
    spec.loss("l", c2);
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Gray-failure rebalance contract, quantified: a weighted partition
    /// whose per-rank weights are all *equal* IS the uniform partition.
    /// Three layers of the same fact — the weighted range computation
    /// degenerates to `block_range` for any total/parts/weight, equal
    /// rank weights normalize out of the `Strategy` entirely, and the
    /// training trajectory is bitwise the uniform one. Together they
    /// license leaving the weighted machinery permanently enabled: a
    /// rebalance back to health is a no-op, not a new layout.
    #[test]
    fn equal_weight_partition_is_bitwise_uniform(
        total in 1usize..2000,
        parts in 1usize..9,
        w in 1u64..50,
        grid_idx in 0usize..4,
        wv in 1u64..24,
        seed in any::<u64>(),
    ) {
        // Range-level identity: the non-normalized weighted path slices
        // exactly the blocks the uniform path does.
        let weights = vec![w; parts];
        for part in 0..parts {
            prop_assert_eq!(
                weighted_block_range(total, &weights, part),
                block_range(total, parts, part),
            );
        }

        // Strategy-level identity: equal weights normalize away.
        let grids = [
            ProcGrid::spatial(4, 1),
            ProcGrid::spatial(2, 2),
            ProcGrid::spatial(1, 4),
            ProcGrid::hybrid(2, 2, 1),
        ];
        let grid = grids[grid_idx];
        let spec = tiny_weighted_net();
        // (`finegrain::core::Strategy` spelled out: the name collides
        // with proptest's `Strategy` trait used by `conv_case` above.)
        let uniform = finegrain::core::Strategy::uniform(&spec, grid);
        let weighted = uniform.clone().with_rank_weights(vec![wv; grid.size()]);
        prop_assert_eq!(&uniform, &weighted);

        // Trajectory-level identity: two steps, bitwise equal losses.
        let net = Network::init(spec.clone(), seed);
        let x = Tensor::from_fn(Shape4::new(2, 2, 8, 8), |n, c, h, w| {
            ((n * 5 + c * 3 + h + 2 * w) % 13) as f32 * 0.11 - 0.7
        });
        let labels =
            Labels::per_pixel(2, 8, 8, (0..2 * 8 * 8).map(|i| (i % 2) as u32).collect());
        let uexec = DistExecutor::new(spec.clone(), uniform, 2).expect("uniform compiles");
        let wexec = DistExecutor::new(spec, weighted, 2).expect("equal weights compile");
        let run = |exec: &DistExecutor| {
            run_ranks(grid.size(), |comm| {
                let mut p = net.params.clone();
                let mut opt = Sgd::new(0.05, 0.9, 1e-4, &p);
                (0..2)
                    .map(|_| exec.train_step(comm, &mut p, &mut opt, &x, &labels).to_bits())
                    .collect::<Vec<_>>()
            })
        };
        prop_assert_eq!(run(&uexec), run(&wexec));
    }
}

/// Tiny classifier (conv → BN → relu → GAP → FC) — the shape the
/// serving tier hosts. Its final activation is per-sample logits, which
/// exercises the sample-group assembly path of `infer_logits`.
fn tiny_classifier_net() -> NetworkSpec {
    let mut spec = NetworkSpec::new();
    let i = spec.input("x", 2, 8, 8);
    let c1 = spec.conv("c1", i, 4, 3, 1, 1);
    let b1 = spec.batchnorm("b1", c1);
    let r1 = spec.relu("r1", b1);
    let g = spec.global_avg_pool("g", r1);
    let f = spec.fc("f", g, 3);
    spec.loss("l", f);
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The serving tier's correctness contract, quantified: for random
    /// parameters, random calibrated BN statistics, random batch sizes,
    /// and every grid family, the distributed inference path
    /// (`DistExecutor::infer_logits`, which runs
    /// `DistExecutor::forward_inference` and assembles the final
    /// activation at the root) replicates the serial reference
    /// (`RunningStats::infer` over `Network::forward_inference`).
    ///
    /// The equality grade is head-dependent and pinned exactly:
    /// *sharded* heads (segmentation — the paper's model family) are
    /// **bitwise** on every grid, because convolutions compute identical
    /// windows over identical halos; *per-sample* heads (GAP → FC) are
    /// bitwise under pure sample parallelism but only ULP-close under
    /// spatial partitioning, where GAP reduces spatial partial sums with
    /// an allreduce whose summation order differs from the serial loop.
    #[test]
    fn distributed_inference_replicates_serial(
        grid_idx in 0usize..4,
        batch_mult in 1usize..4,
        calib_batches in 1usize..4,
        seed in any::<u64>(),
    ) {
        let grids = [
            ProcGrid::sample(2),
            ProcGrid::spatial(2, 1),
            ProcGrid::spatial(2, 2),
            ProcGrid::hybrid(2, 2, 1),
        ];
        let grid = grids[grid_idx];
        // Mixed batch sizes: every multiple of the sample-group count
        // is a batch the serving batcher can legally dispatch.
        let batch = grid.n * batch_mult;

        for (spec, head_is_sharded) in
            [(tiny_classifier_net(), false), (tiny_weighted_net(), true)]
        {
            let net = Network::init(spec.clone(), seed);
            // Running statistics from real training-mode passes — the
            // same derivation `ServableModel` uses at checkpoint load.
            let mut rs = finegrain::nn::RunningStats::new(&spec, 0.1);
            for s in 0..calib_batches {
                let cal = tensor_from_seed(Shape4::new(4, 2, 8, 8), seed ^ (s as u64 + 1));
                rs.update(&net.forward(&cal, None));
            }
            let x = tensor_from_seed(Shape4::new(batch, 2, 8, 8), seed ^ 0x5EE5);
            let serial = rs.infer(&net, &x);

            let strategy = finegrain::core::Strategy::uniform(&spec, grid);
            let exec = DistExecutor::new(spec, strategy, batch).expect("strategy compiles");
            let outs = run_ranks(grid.size(), |comm| {
                exec.infer_logits(comm, &net.params, &x, rs.stats(), 0)
            });
            let assembled = outs[0].as_ref().expect("root assembles the output");
            let sample_parallel = grid.h == 1 && grid.w == 1;
            if head_is_sharded || sample_parallel {
                prop_assert_eq!(assembled, &serial);
            } else {
                prop_assert_eq!(assembled.shape(), serial.shape());
                for (a, b) in assembled.as_slice().iter().zip(serial.as_slice()) {
                    prop_assert!(
                        (a - b).abs() <= 1e-5 * b.abs().max(1.0),
                        "spatially-reduced GAP stays ULP-close: {} vs {}", a, b
                    );
                }
            }
            for out in &outs[1..] {
                prop_assert!(out.is_none(), "non-root ranks hold no assembled output");
            }
        }
    }
}
