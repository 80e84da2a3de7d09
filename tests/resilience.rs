//! Property test for checkpointed recovery: for random kill points,
//! checkpoint intervals, and victims, a training run that loses a rank
//! and recovers from its last snapshot must produce a loss trajectory
//! **bitwise identical** to an uninterrupted run. This is the executable
//! form of the recovery contract: determinism of the substrate plus
//! bitwise checkpoint round-trips imply replay is exact — any divergence
//! means either nondeterminism in a collective or a lossy checkpoint.

use finegrain::comm::{run_ranks, run_ranks_opts, FaultPlan, RunOptions};
use finegrain::core::{
    resilient_train, DegradeConfig, DistExecutor, ResilientConfig, SgdHyper, StragglerConfig,
    Strategy,
};
use finegrain::kernels::Labels;
use finegrain::nn::{Network, NetworkSpec, Sgd};
use finegrain::tensor::{ProcGrid, Shape4, Tensor};
use proptest::prelude::*;

const STEPS: u64 = 5;
const WORLD: usize = 2;
const HYPER: SgdHyper = SgdHyper { lr: 0.05, momentum: 0.9, weight_decay: 1e-4 };

fn tiny_seg_net() -> NetworkSpec {
    let mut spec = NetworkSpec::new();
    let i = spec.input("x", 2, 8, 8);
    let c1 = spec.conv("c1", i, 3, 3, 1, 1);
    let r1 = spec.relu("r1", c1);
    let c2 = spec.conv("c2", r1, 2, 1, 1, 0);
    spec.loss("l", c2);
    spec
}

struct Fixture {
    exec: DistExecutor,
    params: Vec<finegrain::nn::LayerParams>,
    x: Tensor,
    labels: Labels,
}

fn fixture() -> Fixture {
    let spec = tiny_seg_net();
    let net = Network::init(spec.clone(), 2024);
    let strategy = Strategy::uniform(&spec, ProcGrid::spatial(1, WORLD));
    let exec = DistExecutor::new(spec, strategy, 2).expect("valid strategy");
    let x = Tensor::from_fn(Shape4::new(2, 2, 8, 8), |n, c, h, w| {
        ((n * 5 + c * 3 + h + 2 * w) % 13) as f32 * 0.11 - 0.7
    });
    let labels = Labels::per_pixel(2, 8, 8, (0..2 * 8 * 8).map(|i| (i % 2) as u32).collect());
    Fixture { exec, params: net.params, x, labels }
}

/// Reference trajectory: the same training run with no faults and no
/// checkpointing, as bits.
fn baseline_bits(f: &Fixture) -> Vec<u64> {
    let losses = run_ranks(WORLD, |comm| {
        let mut p = f.params.clone();
        let mut opt = Sgd::new(HYPER.lr, HYPER.momentum, HYPER.weight_decay, &p);
        (0..STEPS)
            .map(|_| f.exec.train_step(comm, &mut p, &mut opt, &f.x, &f.labels))
            .collect::<Vec<_>>()
    });
    losses[0].iter().map(|l| l.to_bits()).collect()
}

/// Comm ops one rank spends on the full run (the valid kill range).
fn ops_horizon(f: &Fixture) -> u64 {
    let probe_opts = RunOptions::with_faults(FaultPlan::default());
    let probe = run_ranks_opts(WORLD, probe_opts, |comm| {
        let mut p = f.params.clone();
        let mut opt = Sgd::new(HYPER.lr, HYPER.momentum, HYPER.weight_decay, &p);
        for _ in 0..STEPS {
            f.exec.train_step(comm, &mut p, &mut opt, &f.x, &f.labels);
        }
        comm.ops()
    });
    *probe[0].as_ref().expect("probe run is fault-free")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Recovered losses are bitwise identical to an uninterrupted run,
    /// for any victim, kill point, and checkpoint interval.
    #[test]
    fn recovery_is_bitwise_exact(
        victim in 0usize..WORLD,
        kill_frac in 1u64..100,
        ckpt_every in 1u64..4,
    ) {
        let f = fixture();
        let baseline = baseline_bits(&f);
        let horizon = ops_horizon(&f);
        // Anywhere in (0, horizon): before the first step, mid-step,
        // between checkpoints, or close enough to the end that the
        // uninterrupted ranks finish before the victim would die.
        let kill_op = (horizon * kill_frac / 100).max(1);
        let report = resilient_train(
            &f.exec,
            &f.params,
            HYPER,
            &f.x,
            &f.labels,
            STEPS,
            &ResilientConfig { ckpt_every, max_restarts: 2, ..Default::default() },
            FaultPlan::new(kill_frac ^ (victim as u64) << 32).kill_rank(victim, kill_op),
        );
        let got: Vec<u64> = report.losses.iter().map(|l| l.to_bits()).collect();
        prop_assert_eq!(got, baseline);
        // At most one rebuild: the plan only fires on the first attempt.
        prop_assert!(report.restarts <= 1);
    }

    /// Chaos under *rate-based* link faults: for pinned seeds and
    /// nonzero drop/corruption rates, a run protected by the integrity
    /// layer (level 1) and the step guard (level 2) repairs everything
    /// in-band — no restart, no rollback — and its loss trajectory is
    /// bitwise identical to a fault-free run of the same stack. The
    /// fault-free reference uses the same guard + integrity wiring so
    /// only the injected faults differ between the two runs.
    #[test]
    fn chaotic_links_with_integrity_and_guard_are_bitwise_exact(
        seed in 1u64..=u32::MAX as u64,
        drop_pct in 0u32..=15,
        corrupt_pct in 1u32..=15,
    ) {
        let f = fixture();
        let cfg = ResilientConfig {
            ckpt_every: 2,
            max_restarts: 0,
            guard: true,
            integrity: true,
            ..Default::default()
        };
        let clean = resilient_train(
            &f.exec, &f.params, HYPER, &f.x, &f.labels, STEPS, &cfg, FaultPlan::default(),
        );
        let plan = FaultPlan::new(seed)
            .drop_rate(drop_pct as f64 / 100.0)
            .corrupt_rate(corrupt_pct as f64 / 100.0);
        let report = resilient_train(
            &f.exec, &f.params, HYPER, &f.x, &f.labels, STEPS, &cfg, plan,
        );
        prop_assert_eq!(report.restarts, 0, "failures: {:?}", report.failures);
        prop_assert_eq!(report.rollbacks, 0, "in-band repair must not reach the guard");
        let clean_bits: Vec<u64> = clean.losses.iter().map(|l| l.to_bits()).collect();
        let got: Vec<u64> = report.losses.iter().map(|l| l.to_bits()).collect();
        prop_assert_eq!(got, clean_bits);
    }
}

/// End-to-end pinned-seed chaos test for the degradation rung: a
/// 4-rank run whose rank 2 is **permanently** dead (it is re-killed on
/// every rebuild attempt) must shrink to 3 ranks and complete — and its
/// post-shrink trajectory must be bitwise identical, step for step, to
/// a fresh 3-rank run built from the degradation's own re-planned
/// strategy and restored from the same (re-sharded) snapshot. Run under
/// `FG_COMM_INTEGRITY=1` in CI so the shrink interoperates with the
/// integrity layer as well as the watchdog every world runs under.
#[test]
fn permanently_dead_rank_degrades_4_to_3_bitwise() {
    const STEPS4: u64 = 6;
    let spec = tiny_seg_net();
    let net = Network::init(spec.clone(), 77);
    let grid = ProcGrid::spatial(2, 2);
    let strategy = Strategy::uniform(&spec, grid);
    let exec = DistExecutor::new(spec.clone(), strategy, 2).expect("valid strategy");
    let x = Tensor::from_fn(Shape4::new(2, 2, 8, 8), |n, c, h, w| {
        ((n * 5 + c * 3 + h + 2 * w) % 13) as f32 * 0.11 - 0.7
    });
    let labels = Labels::per_pixel(2, 8, 8, (0..2 * 8 * 8).map(|i| (i % 2) as u32).collect());

    // Probe the comm-op horizon to pin the kill mid-run, past the first
    // snapshot (step 2) and before the end.
    let probe_opts = RunOptions::with_faults(FaultPlan::default());
    let probe = run_ranks_opts(4, probe_opts, |comm| {
        let mut p = net.params.clone();
        let mut opt = Sgd::new(HYPER.lr, HYPER.momentum, HYPER.weight_decay, &p);
        for _ in 0..STEPS4 {
            exec.train_step(comm, &mut p, &mut opt, &x, &labels);
        }
        comm.ops()
    });
    let kill_op = probe[2].as_ref().expect("probe is fault-free") / 2;

    let report = resilient_train(
        &exec,
        &net.params,
        HYPER,
        &x,
        &labels,
        STEPS4,
        &ResilientConfig {
            ckpt_every: 2,
            max_restarts: 1,
            degrade: Some(DegradeConfig::default()),
            ..Default::default()
        },
        FaultPlan::new(41).kill_rank_permanently(2, kill_op),
    );
    assert_eq!(report.degradations.len(), 1, "failures: {:?}", report.failures);
    let d = report.degradations[0].clone();
    assert_eq!((d.from_world, d.to_world), (4, 3), "degradation: {d:?}");
    assert_eq!(d.dead_ranks, vec![2]);
    assert_eq!(report.final_world, 3);
    assert_eq!(report.losses.len() as u64, STEPS4);
    assert!(d.at_step >= 2, "the shrink must resume from a real snapshot: {d:?}");
    assert!(d.reshard_total_bytes > 0);

    // Pre-shrink prefix: bitwise the 4-rank trajectory.
    let baseline4 = run_ranks(4, |comm| {
        let mut p = net.params.clone();
        let mut opt = Sgd::new(HYPER.lr, HYPER.momentum, HYPER.weight_decay, &p);
        (0..STEPS4)
            .map(|_| exec.train_step(comm, &mut p, &mut opt, &x, &labels))
            .collect::<Vec<_>>()
    });
    let at = d.at_step as usize;
    let bits = |v: &[f64]| v.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&report.losses[..at]), bits(&baseline4[0][..at]));

    // Post-shrink suffix: recompute the snapshot state by replaying the
    // 4-rank world cleanly to the shrink point, re-shard it onto the
    // degradation's grid, and run a *fresh* 3-rank world from there.
    let replay = run_ranks(4, |comm| {
        let mut p = net.params.clone();
        let mut opt = Sgd::new(HYPER.lr, HYPER.momentum, HYPER.weight_decay, &p);
        for _ in 0..d.at_step {
            exec.train_step(comm, &mut p, &mut opt, &x, &labels);
        }
        (p, opt.velocity().to_vec())
    });
    let (snap_params, snap_vel) = replay.into_iter().next().unwrap();
    let state = finegrain::nn::TrainState {
        step: d.at_step,
        params: snap_params,
        velocity: snap_vel,
        losses: report.losses[..at].to_vec(),
        guard: finegrain::nn::GuardState::default(),
        grid,
    };
    let (restored, _) = finegrain::nn::reshard_train_state(&state, d.strategy.grids[0]);
    let small =
        DistExecutor::new(spec, d.strategy.clone(), 2).expect("replanned strategy compiles");
    let suffix = run_ranks(3, |comm| {
        let mut p = restored.params.clone();
        let mut opt = Sgd::with_state(
            HYPER.lr,
            HYPER.momentum,
            HYPER.weight_decay,
            restored.velocity.clone(),
        );
        (d.at_step..STEPS4)
            .map(|_| small.train_step(comm, &mut p, &mut opt, &x, &labels))
            .collect::<Vec<_>>()
    });
    assert_eq!(
        bits(&report.losses[at..]),
        bits(&suffix[0]),
        "post-shrink trajectory must match a fresh 3-rank resume step for step"
    );
}

/// The 4-rank gray-failure fixture: `tiny_seg_net` split along H so a
/// weighted re-decomposition has rows to shift, plus pinned inputs.
fn straggler_fixture() -> (NetworkSpec, Network, DistExecutor, Tensor, Labels) {
    let spec = tiny_seg_net();
    let net = Network::init(spec.clone(), 55);
    let strategy = Strategy::uniform(&spec, ProcGrid::spatial(4, 1));
    let exec = DistExecutor::new(spec.clone(), strategy, 2).expect("valid strategy");
    let x = Tensor::from_fn(Shape4::new(2, 2, 8, 8), |n, c, h, w| {
        ((n * 5 + c * 3 + h + 2 * w) % 13) as f32 * 0.11 - 0.7
    });
    let labels = Labels::per_pixel(2, 8, 8, (0..2 * 8 * 8).map(|i| (i % 2) as u32).collect());
    (spec, net, exec, x, labels)
}

/// End-to-end pinned-seed gray-failure test for the rebalance rung: a
/// 4-rank run whose rank 2 is persistently 6× slow must be *detected*
/// (all-rank agreement, one flag event) and *rebalanced* (weighted
/// re-decomposition, no restart, no lost steps) — and the trajectory
/// must be the stitched-bitwise contract: the pre-flag prefix equals
/// the uniform baseline, the post-rebalance suffix equals a fresh
/// weighted-layout run resumed from the same snapshot. Run under
/// `FG_COMM_INTEGRITY=1` in CI so detection interoperates with the
/// integrity layer as well as the watchdog every world runs under.
#[test]
fn persistent_straggler_is_detected_and_rebalanced_bitwise() {
    const STEPS6: u64 = 6;
    let (spec, net, exec, x, labels) = straggler_fixture();
    // Default detection thresholds (warmup 2, patience 2, threshold 2x)
    // with eviction pushed out of reach: the injected rank must
    // rebalance, not evict. On this tiny fixture the healthy per-step
    // compute is microseconds, so the live-measured busy-time ratio is
    // far above the injected 6x (the per-op straggler sleeps dominate);
    // only an unreachable evict_ratio keeps the ladder on the rebalance
    // rung. The flag lands at observation warmup+patience = step 4, so
    // the 2 post-rebalance steps cannot re-flag (< warmup+patience) and
    // the run completes under a single mitigation.
    let cfg = ResilientConfig {
        ckpt_every: 5,
        max_restarts: 0,
        straggler: Some(StragglerConfig { evict_ratio: 1e9, ..Default::default() }),
        ..Default::default()
    };
    let report = resilient_train(
        &exec,
        &net.params,
        HYPER,
        &x,
        &labels,
        STEPS6,
        &cfg,
        FaultPlan::new(91).slow_rank(2, 6.0),
    );
    assert_eq!(report.rebalances.len(), 1, "failures: {:?}", report.failures);
    let r = report.rebalances[0].clone();
    assert_eq!(r.slow_rank, 2, "agreement must name the injected rank");
    assert!(r.ratio >= 2.0, "flagged ratio must clear the threshold: {}", r.ratio);
    assert!(report.straggler_flags >= 1);
    assert_eq!(report.evictions, 0);
    assert_eq!(report.restarts, 0, "a rebalance is not a restart");
    assert_eq!(report.replayed_steps, 0, "the fresh snapshot loses no steps");
    assert_eq!(report.final_world, 4, "nobody was evicted");
    assert_eq!(report.losses.len() as u64, STEPS6);
    assert!(r.strategy.rank_weights.is_some(), "the new layout is weighted");
    let weights = r.strategy.rank_weights.as_ref().unwrap();
    assert!(weights[2] < weights[0], "the slow rank's share must shrink: {weights:?}");

    // Pre-flag prefix: detection never touches the math, so the prefix
    // is bitwise the uniform no-fault trajectory.
    let baseline = run_ranks(4, |comm| {
        let mut p = net.params.clone();
        let mut opt = Sgd::new(HYPER.lr, HYPER.momentum, HYPER.weight_decay, &p);
        (0..STEPS6)
            .map(|_| exec.train_step(comm, &mut p, &mut opt, &x, &labels))
            .collect::<Vec<_>>()
    });
    let at = r.at_step as usize;
    assert!(at >= 4, "default warmup+patience lands the flag at step 4: {at}");
    let bits = |v: &[f64]| v.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&report.losses[..at]), bits(&baseline[0][..at]));

    // Post-rebalance suffix: the stitched contract. Replay the uniform
    // world cleanly to the flag step, then run a fresh executor under
    // the rebalance's own weighted strategy from that state — the
    // suffix must match bitwise. (The weighted layout reduces boundary
    // sums in a different order, so the suffix legitimately differs
    // from the uniform baseline; what must hold is equality with a
    // clean weighted run from the same snapshot.)
    let replay = run_ranks(4, |comm| {
        let mut p = net.params.clone();
        let mut opt = Sgd::new(HYPER.lr, HYPER.momentum, HYPER.weight_decay, &p);
        for _ in 0..r.at_step {
            exec.train_step(comm, &mut p, &mut opt, &x, &labels);
        }
        (p, opt.velocity().to_vec())
    });
    let (snap_params, snap_vel) = replay.into_iter().next().unwrap();
    let weighted =
        DistExecutor::new(spec, r.strategy.clone(), 2).expect("weighted strategy compiles");
    let suffix = run_ranks(4, |comm| {
        let mut p = snap_params.clone();
        let mut opt =
            Sgd::with_state(HYPER.lr, HYPER.momentum, HYPER.weight_decay, snap_vel.clone());
        (r.at_step..STEPS6)
            .map(|_| weighted.train_step(comm, &mut p, &mut opt, &x, &labels))
            .collect::<Vec<_>>()
    });
    assert_eq!(
        bits(&report.losses[at..]),
        bits(&suffix[0]),
        "post-rebalance trajectory must match a fresh weighted resume step for step"
    );
}

/// Escalation: a rank so slow that no weighted layout can absorb it
/// (ratio at or beyond `evict_ratio`) is softly evicted on the first
/// flag — the elastic-degradation rung shrinks the world around it and
/// the run completes on the survivors.
#[test]
fn irredeemably_slow_rank_is_softly_evicted_end_to_end() {
    const STEPS6: u64 = 6;
    let (_, net, exec, x, labels) = straggler_fixture();
    let cfg = ResilientConfig {
        ckpt_every: 5,
        max_restarts: 0,
        straggler: Some(StragglerConfig { evict_ratio: 3.0, ..Default::default() }),
        degrade: Some(DegradeConfig::default()),
        ..Default::default()
    };
    let report = resilient_train(
        &exec,
        &net.params,
        HYPER,
        &x,
        &labels,
        STEPS6,
        &cfg,
        FaultPlan::new(92).slow_rank(1, 24.0),
    );
    assert_eq!(report.evictions, 1, "failures: {:?}", report.failures);
    assert!(report.rebalances.is_empty(), "past evict_ratio there is no rebalance attempt");
    assert_eq!(report.restarts, 0);
    assert_eq!(report.degradations.len(), 1);
    let d = &report.degradations[0];
    assert_eq!((d.from_world, d.to_world), (4, 3));
    assert_eq!(d.dead_ranks, vec![1], "the eviction must name the straggler");
    assert_eq!(report.final_world, 3);
    assert_eq!(report.losses.len() as u64, STEPS6, "no steps are lost");
}

/// False-positive bound, end to end: on a healthy world the detector
/// must stay silent for the whole run — no flags, no mitigation, and a
/// loss trajectory bitwise identical to a run without detection. The
/// flag threshold is set well above the default here because this
/// fixture's steps are *microseconds* of busy time, where an OS
/// scheduling blip can legitimately exceed 2x the world median — the
/// tight-threshold false-positive bound is pinned at the unit level
/// (crates/core/src/straggler.rs), where observations are injected
/// rather than measured. What this test pins is that the measurement
/// and agreement machinery itself never perturbs the math.
#[test]
fn healthy_world_with_detection_enabled_is_bitwise_inert() {
    const STEPS6: u64 = 6;
    let (_, net, exec, x, labels) = straggler_fixture();
    let cfg = ResilientConfig {
        ckpt_every: 3,
        max_restarts: 0,
        straggler: Some(StragglerConfig { threshold: 50.0, ..Default::default() }),
        ..Default::default()
    };
    let report =
        resilient_train(&exec, &net.params, HYPER, &x, &labels, STEPS6, &cfg, FaultPlan::default());
    assert_eq!(report.straggler_flags, 0, "healthy world must not flag");
    assert!(report.rebalances.is_empty());
    assert_eq!(report.evictions, 0);
    assert_eq!(report.restarts, 0);
    assert_eq!(report.rank_time_ema.len(), 4, "telemetry still reports per-rank EMAs");
    let baseline = run_ranks(4, |comm| {
        let mut p = net.params.clone();
        let mut opt = Sgd::new(HYPER.lr, HYPER.momentum, HYPER.weight_decay, &p);
        (0..STEPS6)
            .map(|_| exec.train_step(comm, &mut p, &mut opt, &x, &labels))
            .collect::<Vec<_>>()
    });
    let bits = |v: &[f64]| v.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&report.losses), bits(&baseline[0]));
}

// ---------------------------------------------------------------------------
// Durable checkpoint store: the same ladder, but snapshots live on disk
// in the replicated, versioned `CkptStore` — and the storage itself is
// under chaos.
// ---------------------------------------------------------------------------

use finegrain::nn::{CkptStore, Redundancy, StorageFaultPlan, StoreConfig};

/// A fresh scratch directory for one test's store, under the target
/// temp dir (gitignored).
fn scratch_store(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fg-resilience-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A run snapshotting through the durable store is bitwise identical to
/// the in-memory run, and the report carries the store's telemetry.
#[test]
fn durable_store_run_is_bitwise_identical_to_memory_store_run() {
    let f = fixture();
    let dir = scratch_store("parity-mem");
    let mem_cfg = ResilientConfig { ckpt_every: 2, max_restarts: 0, ..Default::default() };
    let dur_cfg = ResilientConfig { ckpt_store: Some(StoreConfig::at(&dir)), ..mem_cfg.clone() };
    let mem = resilient_train(
        &f.exec,
        &f.params,
        HYPER,
        &f.x,
        &f.labels,
        STEPS,
        &mem_cfg,
        FaultPlan::default(),
    );
    let dur = resilient_train(
        &f.exec,
        &f.params,
        HYPER,
        &f.x,
        &f.labels,
        STEPS,
        &dur_cfg,
        FaultPlan::default(),
    );
    let bits = |v: &[f64]| v.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&mem.losses), bits(&dur.losses), "the store backend never touches the math");
    assert!(mem.snapshot.is_none());
    assert!(dur.snapshot.is_some());
    assert_eq!(dur.snapshot.unwrap().versions_written, dur.snapshots);
    assert!(dur.snapshot.unwrap().last_payload_bytes > 0);
    assert!(
        dur.snapshot.unwrap().bytes_written > dur.snapshot.unwrap().last_payload_bytes,
        "default ring replication writes redundancy: {:?}",
        dur.snapshot
    );
    // The store outlives the process: a reopened store serves the last
    // snapshot (the driver-restart path).
    let mut reopened = CkptStore::create(StoreConfig::at(&dir)).expect("reopen");
    let loaded = reopened.load_latest().expect("newest version verifies");
    assert_eq!(loaded.state.step, 4, "snapshots landed at steps 2 and 4");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Acceptance e2e: rank 2 dies **permanently** and every version's
/// primary shard 2 — the dead rank's slab of the checkpoint — is
/// deleted from storage. The degradation rung must reconstruct the
/// shard from its ring replica, shrink 4 → 3, and produce a post-shrink
/// trajectory bitwise identical to a fresh 3-rank resume from the same
/// re-sharded snapshot.
#[test]
fn dead_rank_with_deleted_shard_reconstructs_from_replicas_and_degrades_bitwise() {
    const STEPS4: u64 = 6;
    let spec = tiny_seg_net();
    let net = Network::init(spec.clone(), 77);
    let grid = ProcGrid::spatial(2, 2);
    let strategy = Strategy::uniform(&spec, grid);
    let exec = DistExecutor::new(spec.clone(), strategy, 2).expect("valid strategy");
    let x = Tensor::from_fn(Shape4::new(2, 2, 8, 8), |n, c, h, w| {
        ((n * 5 + c * 3 + h + 2 * w) % 13) as f32 * 0.11 - 0.7
    });
    let labels = Labels::per_pixel(2, 8, 8, (0..2 * 8 * 8).map(|i| (i % 2) as u32).collect());

    let probe_opts = RunOptions::with_faults(FaultPlan::default());
    let probe = run_ranks_opts(4, probe_opts, |comm| {
        let mut p = net.params.clone();
        let mut opt = Sgd::new(HYPER.lr, HYPER.momentum, HYPER.weight_decay, &p);
        for _ in 0..STEPS4 {
            exec.train_step(comm, &mut p, &mut opt, &x, &labels);
        }
        comm.ops()
    });
    let kill_op = probe[2].as_ref().expect("probe is fault-free") / 2;

    // Storage chaos: rank 2's primary shard is deleted right after
    // every publish — its "local disk" is as dead as the rank. The
    // ring replica (on a surviving peer) must carry every restore.
    let dir = scratch_store("dead-shard");
    let mut storage = StorageFaultPlan::new(0xD15C);
    for call in 0..32 {
        storage = storage.delete_shard_at(call, 2);
    }
    let report = resilient_train(
        &exec,
        &net.params,
        HYPER,
        &x,
        &labels,
        STEPS4,
        &ResilientConfig {
            ckpt_every: 2,
            max_restarts: 1,
            degrade: Some(DegradeConfig::default()),
            ckpt_store: Some(
                StoreConfig::at(&dir).redundancy(Redundancy::Replicas(1)).faults(storage),
            ),
            ..Default::default()
        },
        FaultPlan::new(41).kill_rank_permanently(2, kill_op),
    );
    assert_eq!(report.degradations.len(), 1, "failures: {:?}", report.failures);
    let d = report.degradations[0].clone();
    assert_eq!((d.from_world, d.to_world), (4, 3), "degradation: {d:?}");
    assert_eq!(d.dead_ranks, vec![2]);
    assert_eq!(report.final_world, 3);
    assert_eq!(report.losses.len() as u64, STEPS4);
    assert!(d.at_step >= 2, "the shrink must resume from a real snapshot: {d:?}");
    assert!(d.reshard_total_bytes > 0);
    assert!(report.snapshot.is_some());
    assert!(
        report.snapshot.unwrap().shards_reconstructed >= 1,
        "every restore crossed the deleted shard: {:?}",
        report.snapshot
    );
    assert_eq!(report.store_errors, 0);

    // Pre-shrink prefix: bitwise the 4-rank trajectory.
    let baseline4 = run_ranks(4, |comm| {
        let mut p = net.params.clone();
        let mut opt = Sgd::new(HYPER.lr, HYPER.momentum, HYPER.weight_decay, &p);
        (0..STEPS4)
            .map(|_| exec.train_step(comm, &mut p, &mut opt, &x, &labels))
            .collect::<Vec<_>>()
    });
    let at = d.at_step as usize;
    let bits = |v: &[f64]| v.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&report.losses[..at]), bits(&baseline4[0][..at]));

    // Post-shrink suffix: bitwise a fresh 3-rank resume from the same
    // (reconstructed, re-sharded) snapshot.
    let replay = run_ranks(4, |comm| {
        let mut p = net.params.clone();
        let mut opt = Sgd::new(HYPER.lr, HYPER.momentum, HYPER.weight_decay, &p);
        for _ in 0..d.at_step {
            exec.train_step(comm, &mut p, &mut opt, &x, &labels);
        }
        (p, opt.velocity().to_vec())
    });
    let (snap_params, snap_vel) = replay.into_iter().next().unwrap();
    let state = finegrain::nn::TrainState {
        step: d.at_step,
        params: snap_params,
        velocity: snap_vel,
        losses: report.losses[..at].to_vec(),
        guard: finegrain::nn::GuardState::default(),
        grid,
    };
    let (restored, _) = finegrain::nn::reshard_train_state(&state, d.strategy.grids[0]);
    let small =
        DistExecutor::new(spec, d.strategy.clone(), 2).expect("replanned strategy compiles");
    let suffix = run_ranks(3, |comm| {
        let mut p = restored.params.clone();
        let mut opt = Sgd::with_state(
            HYPER.lr,
            HYPER.momentum,
            HYPER.weight_decay,
            restored.velocity.clone(),
        );
        (d.at_step..STEPS4)
            .map(|_| small.train_step(comm, &mut p, &mut opt, &x, &labels))
            .collect::<Vec<_>>()
    });
    assert_eq!(
        bits(&report.losses[at..]),
        bits(&suffix[0]),
        "post-shrink trajectory must match a fresh 3-rank resume step for step"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Acceptance e2e: the newest version's write is torn mid-shard (no
/// redundancy to save it), and the world then loses a rank. The rebuild
/// must fall back to the previous verifiable version — typed, recorded,
/// never a panic and never a silent stale resume — and still finish
/// with the uninterrupted run's bitwise trajectory.
#[test]
fn torn_newest_version_falls_back_to_previous_verifiable_and_recovers_bitwise() {
    const STEPS6: u64 = 6;
    let f = fixture();
    let baseline = {
        let losses = run_ranks(WORLD, |comm| {
            let mut p = f.params.clone();
            let mut opt = Sgd::new(HYPER.lr, HYPER.momentum, HYPER.weight_decay, &p);
            (0..STEPS6)
                .map(|_| f.exec.train_step(comm, &mut p, &mut opt, &f.x, &f.labels))
                .collect::<Vec<_>>()
        });
        losses[0].iter().map(|l| l.to_bits()).collect::<Vec<_>>()
    };
    let probe_opts = RunOptions::with_faults(FaultPlan::default());
    let probe = run_ranks_opts(WORLD, probe_opts, |comm| {
        let mut p = f.params.clone();
        let mut opt = Sgd::new(HYPER.lr, HYPER.momentum, HYPER.weight_decay, &p);
        for _ in 0..STEPS6 {
            f.exec.train_step(comm, &mut p, &mut opt, &f.x, &f.labels);
        }
        comm.ops()
    });
    // Kill rank 1 late — past the step-4 snapshot (store call 1), whose
    // shard 0 the storage chaos tears mid-write.
    let kill_op = probe[1].as_ref().expect("probe is fault-free") * 5 / 6;
    let dir = scratch_store("torn-newest");
    let report = resilient_train(
        &f.exec,
        &f.params,
        HYPER,
        &f.x,
        &f.labels,
        STEPS6,
        &ResilientConfig {
            ckpt_every: 2,
            max_restarts: 2,
            ckpt_store: Some(
                StoreConfig::at(&dir)
                    .redundancy(Redundancy::None)
                    .faults(StorageFaultPlan::new(0x7EA5).torn_write_at(1, 0)),
            ),
            ..Default::default()
        },
        FaultPlan::new(3).kill_rank(1, kill_op),
    );
    assert_eq!(report.restarts, 1, "failures: {:?}", report.failures);
    assert!(report.snapshot.is_some());
    assert!(
        report.snapshot.unwrap().version_fallbacks >= 1,
        "the torn step-4 version must be skipped, typed: {:?}",
        report.snapshot
    );
    let got: Vec<u64> = report.losses.iter().map(|l| l.to_bits()).collect();
    assert_eq!(got, baseline, "fallback replay still lands the uninterrupted trajectory");

    // The damage is still on disk, and still typed: loading the torn
    // version directly names the file, version, and shard.
    let mut store = CkptStore::create(StoreConfig::at(&dir)).expect("reopen");
    assert!(store.versions().contains(&2), "the torn version was published");
    match store.load_version(2) {
        Err(finegrain::nn::CheckpointError::Torn { version: 2, shard: Some(0), .. }) => {}
        other => panic!("expected the typed torn-shard error, got {other:?}"),
    }
    // A later, verifiable version exists (the replay re-stored step 4),
    // so the newest-verifiable walk succeeds without touching v2.
    let loaded = store.load_latest().expect("a verifiable version exists");
    assert!(loaded.version > 2, "recovery republished past the torn version");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Ladder golden: every rung of the crash ladder on a pinned seed, one
// line of the report's deterministic fields each.
// ---------------------------------------------------------------------------

use finegrain::comm::CommError;
use finegrain::core::{ComputeFault, ResilientReport};

/// The report's deterministic fields on one line: a digest of the loss
/// bits, the ladder's counters, each failure's variant and ranks (never
/// its free text), and each degradation's worlds and grids. Timings and
/// EMAs are wall-clock readings and stay out.
fn ladder_line(name: &str, r: &ResilientReport) -> String {
    let losses = r
        .losses
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, l| (h ^ l.to_bits()).wrapping_mul(0x0100_0000_01b3));
    let failures: Vec<String> = r
        .failures
        .iter()
        .map(|e| match e {
            CommError::RankFailed { rank, observer, .. } => format!("RankFailed {rank}/{observer}"),
            CommError::Timeout { rank, .. } => format!("Timeout {rank}"),
            CommError::Corrupt { link, seq, .. } => format!("Corrupt {}>{} #{seq}", link.0, link.1),
            other => format!("{other:?}"),
        })
        .collect();
    let degradations: Vec<String> = r
        .degradations
        .iter()
        .map(|d| {
            let grids: Vec<String> =
                d.strategy.grids.iter().map(|g| format!("{}{}{}{}", g.n, g.c, g.h, g.w)).collect();
            format!(
                "{}>{} @{} dead {:?} grids {}",
                d.from_world,
                d.to_world,
                d.at_step,
                d.dead_ranks,
                grids.join(",")
            )
        })
        .collect();
    format!(
        "{name}: losses {losses:016x} restarts {} rollbacks {} replayed {} snapshots {} \
         repaired {} retransmits {} world {} failures [{}] degradations [{}]",
        r.restarts,
        r.rollbacks,
        r.replayed_steps,
        r.snapshots,
        r.corrupt_repaired,
        r.retransmits,
        r.final_world,
        failures.join(", "),
        degradations.join(", ")
    )
}

/// The crash ladder's lines, recorded before the driver kept its state
/// in one ledger and picked its rung from a typed outcome.
const LADDER_GOLDEN: [&str; 7] = [
    "transient kill: losses 0f50923a49a72293 restarts 1 rollbacks 0 replayed 0 snapshots 2 repaired 0 retransmits 0 world 2 failures [RankFailed 1/0] degradations []",
    "compute-fault rollback: losses 0f50923a49a72293 restarts 0 rollbacks 1 replayed 1 snapshots 2 repaired 0 retransmits 0 world 2 failures [] degradations []",
    "rollback budget to rebuild: losses 0f50923a49a72293 restarts 1 rollbacks 0 replayed 1 snapshots 2 repaired 0 retransmits 0 world 2 failures [RankFailed 0/0] degradations []",
    "integrity repair: losses 0f50923a49a72293 restarts 0 rollbacks 0 replayed 0 snapshots 2 repaired 1 retransmits 1 world 2 failures [] degradations []",
    "permanent-loss shrink: losses 3e7c5f1d309178b1 restarts 2 rollbacks 0 replayed 2 snapshots 2 repaired 0 retransmits 0 world 3 failures [RankFailed 1/0, RankFailed 1/0] degradations [4>3 @4 dead [2] grids 1113,1113,1113,1113,1113]",
    "deleted-shard reconstruction: losses 3e7c5f1d309178b1 restarts 2 rollbacks 0 replayed 2 snapshots 2 repaired 0 retransmits 0 world 3 failures [RankFailed 1/0, RankFailed 1/0] degradations [4>3 @4 dead [2] grids 1113,1113,1113,1113,1113]",
    "torn-newest fallback: losses 0f50923a49a72293 restarts 1 rollbacks 0 replayed 0 snapshots 3 repaired 0 retransmits 0 world 2 failures [RankFailed 1/0] degradations []",
];

#[test]
fn crash_ladder_reports_match_the_recorded_ones() {
    let f = fixture();
    let horizon = ops_horizon(&f);
    let two = |cfg: &ResilientConfig, plan: FaultPlan| {
        resilient_train(&f.exec, &f.params, HYPER, &f.x, &f.labels, STEPS, cfg, plan)
    };
    let (_, net, exec4, x4, labels4) = straggler_fixture();
    let probe = run_ranks_opts(4, RunOptions::with_faults(FaultPlan::default()), |comm| {
        let mut p = net.params.clone();
        let mut opt = Sgd::new(HYPER.lr, HYPER.momentum, HYPER.weight_decay, &p);
        for _ in 0..6 {
            exec4.train_step(comm, &mut p, &mut opt, &x4, &labels4);
        }
        comm.ops()
    });
    let kill4 = probe[2].as_ref().expect("probe is fault-free") / 2;
    let four = |cfg: &ResilientConfig| {
        let plan = FaultPlan::new(41).kill_rank_permanently(2, kill4);
        resilient_train(&exec4, &net.params, HYPER, &x4, &labels4, 6, cfg, plan)
    };
    let base = ResilientConfig { ckpt_every: 2, max_restarts: 0, ..Default::default() };
    let guarded = ResilientConfig { guard: true, ..base.clone() };
    let shrink = ResilientConfig {
        max_restarts: 1,
        degrade: Some(DegradeConfig::default()),
        ..base.clone()
    };
    let (shard_dir, torn_dir) = (scratch_store("golden-shard"), scratch_store("golden-torn"));
    let deleted = (0..32).fold(StorageFaultPlan::new(0xD15C), |s, call| s.delete_shard_at(call, 2));
    let torn = StorageFaultPlan::new(0x7EA5).torn_write_at(1, 0);

    let lines = [
        ladder_line(
            "transient kill",
            &two(
                &ResilientConfig { max_restarts: 2, ..base.clone() },
                FaultPlan::new(3).kill_rank(1, horizon / 2),
            ),
        ),
        ladder_line(
            "compute-fault rollback",
            &two(
                &ResilientConfig {
                    max_rollbacks: 2,
                    compute_fault: Some(ComputeFault { rank: 1, step: 3, scale: f32::NAN }),
                    ..guarded.clone()
                },
                FaultPlan::default(),
            ),
        ),
        ladder_line(
            "rollback budget to rebuild",
            &two(
                &ResilientConfig {
                    max_restarts: 2,
                    max_rollbacks: 0,
                    compute_fault: Some(ComputeFault { rank: 0, step: 1, scale: f32::NAN }),
                    ..guarded.clone()
                },
                FaultPlan::default(),
            ),
        ),
        ladder_line(
            "integrity repair",
            &two(
                &ResilientConfig { integrity: true, ..guarded },
                FaultPlan::new(11).corrupt_nth(0, 1, 5),
            ),
        ),
        ladder_line("permanent-loss shrink", &four(&shrink)),
        ladder_line(
            "deleted-shard reconstruction",
            &four(&ResilientConfig {
                ckpt_store: Some(
                    StoreConfig::at(&shard_dir).redundancy(Redundancy::Replicas(1)).faults(deleted),
                ),
                ..shrink.clone()
            }),
        ),
        ladder_line(
            "torn-newest fallback",
            &two(
                &ResilientConfig {
                    max_restarts: 2,
                    ckpt_store: Some(
                        StoreConfig::at(&torn_dir).redundancy(Redundancy::None).faults(torn),
                    ),
                    ..base
                },
                FaultPlan::new(3).kill_rank(1, horizon * 5 / 6),
            ),
        ),
    ];
    let _ = std::fs::remove_dir_all(&shard_dir);
    let _ = std::fs::remove_dir_all(&torn_dir);
    assert_eq!(lines, LADDER_GOLDEN, "ladder lines now:\n{}", lines.join("\n"));
}
