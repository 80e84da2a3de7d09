//! Integration: distributed training must replicate single-device
//! training for the paper's model families, across parallelization
//! schemes — the end-to-end form of the paper's exact-replication claim
//! (§III), exercised through the public facade.

use finegrain::comm::{run_ranks, Communicator};
use finegrain::core::{DistExecutor, Strategy};
use finegrain::data::{ImageDataset, MeshDataset};
use finegrain::models::{mesh_model_custom, resnet50_with, MeshSize, MESH_CHANNELS};
use finegrain::nn::{Network, Sgd};
use finegrain::tensor::ProcGrid;

/// Run `steps` of training both ways and compare losses.
fn check_equivalence(
    spec: finegrain::nn::NetworkSpec,
    grid: ProcGrid,
    x: finegrain::tensor::Tensor,
    labels: finegrain::kernels::Labels,
    steps: usize,
    tol: f64,
) {
    let batch = x.shape().n;
    let reference = Network::init(spec.clone(), 20240704);

    let mut serial = reference.clone();
    let mut opt = Sgd::new(0.02, 0.9, 1e-4, &serial.params);
    let mut serial_losses = Vec::new();
    for _ in 0..steps {
        let (loss, grads) = serial.loss_and_grads(&x, &labels);
        opt.step(&mut serial.params, &grads);
        serial_losses.push(loss);
    }

    let exec = DistExecutor::new(spec, Strategy::uniform(&reference.spec, grid), batch)
        .expect("valid strategy");
    let dist = run_ranks(grid.size(), |comm| {
        let mut params = reference.params.clone();
        let mut opt = Sgd::new(0.02, 0.9, 1e-4, &params);
        (0..steps)
            .map(|_| exec.train_step(comm, &mut params, &mut opt, &x, &labels))
            .collect::<Vec<_>>()
    });

    for ranks in &dist {
        assert_eq!(ranks, &dist[0], "ranks must agree exactly");
    }
    for (s, d) in serial_losses.iter().zip(&dist[0]) {
        assert!(
            (s - d).abs() <= tol * s.abs().max(1.0),
            "grid {grid}: serial {serial_losses:?} vs distributed {:?}",
            dist[0]
        );
    }
}

#[test]
fn mesh_model_equivalence_across_schemes() {
    // The real mesh architecture (narrowed channels) at reduced
    // resolution with real synthetic data, three schemes including 8
    // ranks of hybrid parallelism. Input 128² → 2×2 prediction map, so
    // the per-pixel loss itself is spatially partitioned.
    let ds = MeshDataset::new(128, 2, MESH_CHANNELS, 99);
    let (x, labels) = ds.batch(0, 4);
    for grid in [ProcGrid::sample(4), ProcGrid::spatial(2, 2), ProcGrid::hybrid(2, 2, 2)] {
        check_equivalence(
            mesh_model_custom(MeshSize::OneK, 128, 8),
            grid,
            x.clone(),
            labels.clone(),
            2,
            1e-3,
        );
    }
}

#[test]
fn resnet_equivalence_with_hybrid_parallelism() {
    // Scaled ResNet-50 (full 53-conv graph with residual joins, maxpool,
    // GAP, FC) under hybrid sample/spatial parallelism.
    // 64² input keeps res5's spatial maps at 2×2, so a 2-way height
    // split stays populated through the whole trunk.
    let ds = ImageDataset::new(64, 3, 4, 7);
    let (x, labels) = ds.batch(0, 2);
    check_equivalence(resnet50_with(64, 4), ProcGrid::hybrid(2, 2, 1), x, labels, 1, 3e-3);
}

#[test]
fn mixed_strategy_shuffles_activations_between_layer_groups() {
    // Spatial early layers + sample-parallel late layers, connected by
    // §III-C redistributions, end to end on the mesh model.
    let ds = MeshDataset::new(128, 2, MESH_CHANNELS, 17);
    let (x, labels) = ds.batch(0, 4);
    let spec = mesh_model_custom(MeshSize::OneK, 128, 8);
    let net = Network::init(spec.clone(), 3);
    let (serial_loss, _) = net.loss_and_grads(&x, &labels);

    let mut strategy = Strategy::uniform(&spec, ProcGrid::sample(4));
    // First two blocks spatial, rest sample-parallel.
    for (id, l) in spec.layers().iter().enumerate() {
        let name = &l.name;
        if name == "data" || name.contains("1_") || name.contains("2_") && !name.contains("branch")
        {
            strategy.grids[id] = ProcGrid::spatial(2, 2);
        }
    }
    let exec = DistExecutor::new(spec, strategy, 4).expect("mixed strategy valid");
    let losses = run_ranks(4, |comm| exec.loss_and_grads(comm, &net.params, &x, &labels).0);
    for l in &losses {
        assert!(
            (l - serial_loss).abs() < 1e-6 * serial_loss.abs().max(1.0),
            "mixed strategy loss {l} vs serial {serial_loss}"
        );
    }
}

#[test]
fn sharded_data_loading_matches_replicated_loading() {
    // Distributed data loading: each rank generates only its input
    // shard; results must be identical to the replicated-input path.
    let ds = MeshDataset::new(128, 2, MESH_CHANNELS, 41);
    let spec = mesh_model_custom(MeshSize::OneK, 128, 8);
    let net = Network::init(spec.clone(), 9);
    let grid = ProcGrid::spatial(2, 2);
    let strategy = Strategy::uniform(&spec, grid);
    let exec = DistExecutor::new(spec, strategy, 2).unwrap();
    let (x_full, labels) = ds.batch(0, 2);
    let input_dist = finegrain::tensor::TensorDist::new(x_full.shape(), grid);

    let replicated =
        run_ranks(4, |comm| exec.loss_and_grads(comm, &net.params, &x_full, &labels).0);
    let sharded = run_ranks(4, |comm| {
        let shard = ds.shard_batch(input_dist.clone(), comm.rank(), 0);
        exec.loss_and_grads_sharded(comm, &net.params, shard, &labels).0
    });
    assert_eq!(replicated, sharded, "sharded loading must be bit-identical");
}

#[test]
fn distributed_inference_matches_serial_inference() {
    use finegrain::nn::RunningStats;
    use finegrain::tensor::gather::gather_to_root;

    let spec = mesh_model_custom(MeshSize::OneK, 128, 8);
    let net = Network::init(spec.clone(), 55);
    let ds = MeshDataset::new(128, 2, MESH_CHANNELS, 61);
    let (x, labels) = ds.batch(0, 2);

    // Accumulate running BN statistics from a couple of training passes.
    let mut running = RunningStats::new(&spec, 0.1);
    for _ in 0..2 {
        let pass = net.forward(&x, Some(&labels));
        running.update(&pass);
    }
    let serial_pred = running.infer(&net, &x);

    let grid = ProcGrid::spatial(2, 2);
    let exec = DistExecutor::new(spec, Strategy::uniform(&net.spec, grid), 2).unwrap();
    let outs = run_ranks(4, |comm| {
        let pass = exec.forward_inference(comm, &net.params, &x, running.stats());
        match pass.acts.last().unwrap() {
            finegrain::core::Act::Shard(dt) => gather_to_root(comm, dt, 0),
            finegrain::core::Act::PerSample(_) => unreachable!("mesh loss is sharded"),
        }
    });
    assert_eq!(
        outs[0].as_ref().unwrap(),
        &serial_pred,
        "distributed inference must be bitwise-identical to serial"
    );
}

#[test]
fn non_power_of_two_world_matches_serial() {
    // The collectives carry non-power-of-two paths (fold-in pre/post
    // steps); exercise them end-to-end with 3 ranks of spatial
    // parallelism on the real architecture.
    // 192² input keeps the deepest feature maps at 3×3, so a 3-way
    // height split stays populated end to end.
    let ds = MeshDataset::new(192, 3, MESH_CHANNELS, 71);
    let (x, labels) = ds.batch(0, 2);
    check_equivalence(
        mesh_model_custom(MeshSize::OneK, 192, 8),
        ProcGrid::spatial(3, 1),
        x,
        labels,
        2,
        1e-3,
    );
}

#[test]
fn six_rank_hybrid_with_uneven_blocks() {
    // 3 sample groups × 2-way spatial on a batch of 3: one sample per
    // group, 2 ranks per sample, odd block sizes everywhere.
    let ds = MeshDataset::new(128, 2, MESH_CHANNELS, 73);
    let (x, labels) = ds.batch(0, 3);
    check_equivalence(
        mesh_model_custom(MeshSize::OneK, 128, 8),
        ProcGrid::hybrid(3, 2, 1),
        x,
        labels,
        1,
        1e-3,
    );
}

/// FNV-1a 64 over the bit patterns of a loss and its gradients.
fn fnv64(loss: f64, grads: &[finegrain::nn::LayerParams]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(&loss.to_bits().to_le_bytes());
    for g in grads {
        for v in g.to_flat() {
            eat(&v.to_bits().to_le_bytes());
        }
    }
    h
}

/// `data` feeding two convolutions joined by `Add`: both read a
/// parent-less layer, neither owes anyone an input gradient.
fn two_stem_net() -> finegrain::nn::NetworkSpec {
    let mut net = finegrain::nn::NetworkSpec::new();
    let i = net.input("data", 3, 16, 16);
    let a = net.conv("stem_a", i, 4, 3, 2, 1);
    let b = net.conv("stem_b", i, 4, 5, 2, 2);
    let j = net.add_join("join", &[a, b]);
    let r = net.relu("relu", j);
    let pred = net.conv("pred", r, 2, 1, 1, 0);
    net.loss("loss", pred);
    net
}

/// Recorded before the input gradient of the first convolution stopped
/// being computed: nobody reads it, so losses and parameter gradients —
/// serial and under every scheme — must keep every bit. The mesh model's
/// `spatial(2,2)` entry was re-recorded once, when `Auto` began running
/// Rabenseifner instead of ring above 8 KiB on four ranks: a different
/// summation order for its large gradient allreduces.
#[test]
fn unread_input_gradient_is_not_part_of_any_result() {
    let hash_all = |spec: finegrain::nn::NetworkSpec,
                    x: &finegrain::tensor::Tensor,
                    labels: &finegrain::kernels::Labels| {
        let net = Network::init(spec.clone(), 20240704);
        let (loss, grads) = net.loss_and_grads(x, labels);
        let mut hashes = vec![fnv64(loss, &grads)];
        for grid in [ProcGrid::sample(2), ProcGrid::hybrid(1, 2, 1), ProcGrid::spatial(2, 2)] {
            let exec = DistExecutor::new(spec.clone(), Strategy::uniform(&spec, grid), x.shape().n)
                .expect("valid strategy");
            let outs =
                run_ranks(grid.size(), |comm| exec.loss_and_grads(comm, &net.params, x, labels));
            let per_rank: Vec<u64> = outs.iter().map(|(l, g)| fnv64(*l, g)).collect();
            assert!(per_rank.iter().all(|h| *h == per_rank[0]), "ranks disagree under {grid}");
            hashes.push(per_rank[0]);
        }
        hashes
    };

    // 128², not 64²: six stride-2 stages leave a 2×2 map, the smallest
    // a two-way spatial split still populates.
    let ds = MeshDataset::new(128, 2, MESH_CHANNELS, 31);
    let (x, labels) = ds.batch(0, 2);
    let mesh = hash_all(mesh_model_custom(MeshSize::OneK, 128, 16), &x, &labels);
    assert_eq!(
        mesh,
        [0x41d4878297467ea8, 0xb565efa823beb055, 0x00b3f85b64969dd2, 0x078925f88cf0e50a],
        "mesh model: serial, sample(2), hybrid(1,2,1), spatial(2,2)"
    );

    let x = finegrain::tensor::Tensor::from_fn(
        finegrain::tensor::Shape4::new(2, 3, 16, 16),
        |k, c, i, j| (((k * 13 + c * 7 + i * 3 + j) % 11) as f32) * 0.3 - 1.5,
    );
    let labels = finegrain::kernels::Labels::per_pixel(
        2,
        8,
        8,
        (0..2 * 8 * 8).map(|i| (i % 2) as u32).collect(),
    );
    let stems = hash_all(two_stem_net(), &x, &labels);
    assert_eq!(
        stems,
        [0x34c823e4322fd143, 0x9ae3611738dcc015, 0x20ad974ccd7cecfc, 0xecc565d4560e50e5],
        "two-stem net: serial, sample(2), hybrid(1,2,1), spatial(2,2)"
    );
}
