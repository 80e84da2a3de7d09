//! Fault-model experiments: monitoring overhead and recovery cost.
//!
//! Two questions a resilience layer must answer before it is allowed
//! near a performance study:
//!
//! 1. **What does zero-fault monitoring cost?** Every world runs under
//!    the deadlock watchdog, which polls a few atomics per sweep off the
//!    critical path; the fault stage under an empty plan should cost
//!    within noise of nothing too, since it adds two counter bumps per
//!    comm op. Variants are timed in strict alternation with
//!    best-of-reps.
//! 2. **What does recovery cost as a function of checkpoint interval?**
//!    A mid-run rank kill forces a restore-and-replay; the steps redone
//!    shrink as snapshots get denser while the snapshot count grows —
//!    the classic checkpoint-interval trade-off, here measured in steps
//!    on the real (thread-simulated) training loop.
//! 3. **What does end-to-end integrity cost, and buy?** The checksummed
//!    envelope + replay-window stack is timed fault-free against the
//!    plain runtime (the losses must stay bitwise identical), and a
//!    corruption-rate sweep shows the in-band repair traffic growing
//!    with the injected rate while the loss trajectory never moves —
//!    the whole point of repairing below the training loop.
//! 4. **What does losing a rank for good cost?** A permanent kill
//!    forces the elastic-degradation rung: the world shrinks 4 → 3, the
//!    performance model re-plans the strategy for the odd-sized world,
//!    and the snapshot is retagged for the new grid. The table
//!    reports throughput at `P` vs `P'` and the transition's cost
//!    breakdown (re-plan time, re-shard bytes moved, per-rung wall
//!    time).

use std::time::Instant;

use fg_comm::{run_ranks, run_ranks_opts, FaultPlan, RunOptions, WorldComm};
use fg_core::{resilient_train, DegradeConfig, DistExecutor, ResilientConfig, SgdHyper, Strategy};
use fg_nn::{Network, Sgd};
use fg_perf::{degrade_replanner, Platform};
use fg_tensor::ProcGrid;

use crate::experiments::modelval::mini_mesh;
use crate::table::Table;

const BATCH: usize = 4;
const INPUT_HW: usize = 16;
const WORLD: usize = 4;
const HYPER: SgdHyper = SgdHyper { lr: 0.02, momentum: 0.9, weight_decay: 1e-4 };

struct Fixture {
    net: Network,
    exec: DistExecutor,
    x: fg_tensor::Tensor,
    labels: fg_kernels::loss::Labels,
}

fn fixture() -> Fixture {
    let spec = mini_mesh(INPUT_HW);
    let net = Network::init(spec.clone(), 5);
    let strategy = Strategy::uniform(&spec, ProcGrid::spatial(2, 2));
    let exec = DistExecutor::new(spec, strategy, BATCH).expect("valid strategy");
    let ds = fg_data::MeshDataset::new(INPUT_HW, INPUT_HW / 4, 6, 3);
    let (x, labels) = ds.batch(0, BATCH);
    Fixture { net, exec, x, labels }
}

/// One rank's contribution: a warmup step, then `steps` timed training
/// steps. Returns `(seconds, final loss)`.
fn rank_loop(fx: &Fixture, comm: &WorldComm, steps: usize) -> (f64, f64) {
    let mut p = fx.net.params.clone();
    let mut opt = Sgd::new(HYPER.lr, HYPER.momentum, HYPER.weight_decay, &p);
    let _ = fx.exec.train_step(comm, &mut p, &mut opt, &fx.x, &fx.labels);
    let start = Instant::now();
    let mut loss = 0.0;
    for _ in 0..steps {
        loss = fx.exec.train_step(comm, &mut p, &mut opt, &fx.x, &fx.labels);
    }
    (start.elapsed().as_secs_f64(), loss)
}

/// Slowest-rank seconds and the (rank-agreed) final loss.
fn reduce(outs: Vec<(f64, f64)>) -> (f64, f64) {
    (outs.iter().map(|o| o.0).fold(0.0f64, f64::max), outs[0].1)
}

/// `steps` training steps on one rank-world; returns `(slowest-rank
/// seconds, final loss)` for the given launch flavor.
fn time_variant(fx: &Fixture, steps: usize, variant: &str) -> (f64, f64) {
    let opts = match variant {
        "plain" => return reduce(run_ranks(WORLD, |comm| rank_loop(fx, comm, steps))),
        "faulty-transparent" => RunOptions::with_faults(FaultPlan::default()),
        "integrity" => RunOptions::with_faults_integrity(FaultPlan::default()),
        other => unreachable!("unknown variant {other}"),
    };
    reduce(
        run_ranks_opts(WORLD, opts, |comm| rank_loop(fx, comm, steps))
            .into_iter()
            .map(|r| r.expect("fault-free run"))
            .collect(),
    )
}

/// Best-of-`reps` steps/sec for each launch flavor, measured in strict
/// alternation; asserts all flavors agree on the loss bitwise.
fn measure_overhead(steps: usize, reps: usize) -> (f64, f64, f64) {
    let fx = fixture();
    let variants = ["plain", "faulty-transparent", "integrity"];
    let mut best = [f64::MAX; 3];
    let mut loss = [0.0f64; 3];
    for _ in 0..reps {
        for (i, v) in variants.iter().enumerate() {
            let (t, l) = time_variant(&fx, steps, v);
            best[i] = best[i].min(t);
            loss[i] = l;
        }
    }
    assert_eq!(loss[0].to_bits(), loss[1].to_bits(), "transparent faults must not change results");
    assert_eq!(loss[0].to_bits(), loss[2].to_bits(), "integrity must not change results");
    (steps as f64 / best[0], steps as f64 / best[1], steps as f64 / best[2])
}

/// Zero-fault overhead table.
fn overhead_table() -> Table {
    let (plain, faulty, integrity) = measure_overhead(20, 5);
    let mut t = Table::new(
        "Fault-model zero-fault overhead: mini mesh training step (4 ranks, thread-sim)",
        &["runtime flavor", "steps/sec", "relative to plain"],
    );
    t.push_row(vec!["plain run_ranks".into(), format!("{plain:.2}"), "1.000".into()]);
    t.push_row(vec![
        "empty fault plan".into(),
        format!("{faulty:.2}"),
        format!("{:.3}", faulty / plain),
    ]);
    t.push_row(vec![
        "integrity envelopes (checksum + seq)".into(),
        format!("{integrity:.2}"),
        format!("{:.3}", integrity / plain),
    ]);
    t
}

/// Recovery cost vs checkpoint interval: kill a rank ~90% into the run
/// and measure what each snapshot cadence pays and saves — late kills
/// maximize the replay a sparse cadence must redo.
fn recovery_table() -> Table {
    let fx = fixture();
    const STEPS: u64 = 8;
    // Probe the op horizon so the kill lands at a fixed fraction of the
    // run regardless of model details.
    let probe = run_ranks_opts(WORLD, RunOptions::with_faults(FaultPlan::default()), |comm| {
        let mut p = fx.net.params.clone();
        let mut opt = Sgd::new(HYPER.lr, HYPER.momentum, HYPER.weight_decay, &p);
        for _ in 0..STEPS {
            fx.exec.train_step(comm, &mut p, &mut opt, &fx.x, &fx.labels);
        }
        comm.ops()
    });
    let kill_op = *probe[1].as_ref().expect("probe is fault-free") * 9 / 10;

    let mut t = Table::new(
        "Recovery cost vs checkpoint interval: rank 1 killed at 90% of an 8-step run",
        &["ckpt interval (steps)", "snapshots", "replayed steps", "recovery wall-ms"],
    );
    let mut trajectories: Vec<Vec<u64>> = Vec::new();
    for ckpt_every in [1u64, 2, 4] {
        let start = Instant::now();
        let report = resilient_train(
            &fx.exec,
            &fx.net.params,
            HYPER,
            &fx.x,
            &fx.labels,
            STEPS,
            &ResilientConfig { ckpt_every, max_restarts: 2, ..Default::default() },
            FaultPlan::new(9).kill_rank(1, kill_op),
        );
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(report.restarts, 1, "the kill must force exactly one rebuild");
        trajectories.push(report.losses.iter().map(|l| l.to_bits()).collect());
        t.push_row(vec![
            format!("{ckpt_every}"),
            format!("{}", report.snapshots),
            format!("{}", report.replayed_steps),
            format!("{wall_ms:.1}"),
        ]);
    }
    // Every interval recovers to the identical trajectory.
    for traj in &trajectories[1..] {
        assert_eq!(traj, &trajectories[0], "recovery must be interval-invariant");
    }
    t
}

/// Corruption-rate sweep: train under increasing link corruption (and a
/// fixed drop rate) with the full ladder armed. In-band repair traffic
/// grows with the rate; restarts, rollbacks, and — the headline — the
/// loss trajectory do not move at all.
fn corruption_sweep_table() -> Table {
    let fx = fixture();
    const STEPS: u64 = 6;
    let cfg = ResilientConfig {
        ckpt_every: 2,
        max_restarts: 0,
        guard: true,
        integrity: true,
        ..Default::default()
    };
    let mut t = Table::new(
        "Corruption-rate sweep: 6 training steps, integrity + guard armed (4 ranks)",
        &["corrupt rate", "drop rate", "repaired", "retransmits", "rollbacks", "wall-ms"],
    );
    let mut trajectories: Vec<Vec<u64>> = Vec::new();
    for (corrupt, drop) in [(0.0, 0.0), (0.02, 0.01), (0.05, 0.02), (0.10, 0.05)] {
        let plan = FaultPlan::new(0xC0FF).corrupt_rate(corrupt).drop_rate(drop);
        let start = Instant::now();
        let report =
            resilient_train(&fx.exec, &fx.net.params, HYPER, &fx.x, &fx.labels, STEPS, &cfg, plan);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(report.restarts, 0, "in-band repair must absorb rate faults");
        trajectories.push(report.losses.iter().map(|l| l.to_bits()).collect());
        t.push_row(vec![
            format!("{corrupt:.2}"),
            format!("{drop:.2}"),
            format!("{}", report.corrupt_repaired),
            format!("{}", report.retransmits),
            format!("{}", report.rollbacks),
            format!("{wall_ms:.1}"),
        ]);
    }
    for traj in &trajectories[1..] {
        assert_eq!(traj, &trajectories[0], "repair must be invisible to the trajectory");
    }
    t
}

/// Slowest-rank steps/sec of a plain training loop on `exec`'s world.
fn steps_per_sec(
    exec: &DistExecutor,
    net: &Network,
    x: &fg_tensor::Tensor,
    labels: &fg_kernels::loss::Labels,
    steps: usize,
) -> f64 {
    let secs = run_ranks(exec.strategy.world_size(), |comm| {
        let mut p = net.params.clone();
        let mut opt = Sgd::new(HYPER.lr, HYPER.momentum, HYPER.weight_decay, &p);
        let _ = exec.train_step(comm, &mut p, &mut opt, x, labels);
        let start = Instant::now();
        for _ in 0..steps {
            exec.train_step(comm, &mut p, &mut opt, x, labels);
        }
        start.elapsed().as_secs_f64()
    });
    steps as f64 / secs.into_iter().fold(0.0f64, f64::max)
}

/// Elastic degradation: rank 2 dies permanently mid-run, the rebuild
/// budget at world 4 is spent, and the run shrinks to the largest
/// viable smaller world with a model-driven re-plan. Reports steps/sec
/// before and after the shrink plus the transition's cost breakdown.
fn degradation_table() -> Table {
    let fx = fixture();
    const STEPS: u64 = 6;
    let probe = run_ranks_opts(WORLD, RunOptions::with_faults(FaultPlan::default()), |comm| {
        let mut p = fx.net.params.clone();
        let mut opt = Sgd::new(HYPER.lr, HYPER.momentum, HYPER.weight_decay, &p);
        for _ in 0..STEPS {
            fx.exec.train_step(comm, &mut p, &mut opt, &fx.x, &fx.labels);
        }
        comm.ops()
    });
    let kill_op = *probe[2].as_ref().expect("probe is fault-free") / 2;

    let spec = fx.exec.spec.clone();
    let replan = degrade_replanner(Platform::lassen_like(), spec.clone(), BATCH);
    let report = resilient_train(
        &fx.exec,
        &fx.net.params,
        HYPER,
        &fx.x,
        &fx.labels,
        STEPS,
        &ResilientConfig {
            ckpt_every: 2,
            max_restarts: 1,
            degrade: Some(DegradeConfig { replan: Some(replan) }),
            ..Default::default()
        },
        FaultPlan::new(0xE1A5).kill_rank_permanently(2, kill_op),
    );
    assert_eq!(report.degradations.len(), 1, "the permanent kill must force one shrink");
    assert_eq!(report.losses.len() as u64, STEPS, "the shrunken world must finish the run");
    let d = &report.degradations[0];
    let small =
        DistExecutor::new(spec, d.strategy.clone(), BATCH).expect("replanned strategy compiles");
    let sps_before = steps_per_sec(&fx.exec, &fx.net, &fx.x, &fx.labels, 6);
    let sps_after = steps_per_sec(&small, &fx.net, &fx.x, &fx.labels, 6);

    let mut t = Table::new(
        "Elastic degradation: rank 2 permanently dead, world shrinks under a model re-plan",
        &[
            "world",
            "grid",
            "steps/sec",
            "replan ms",
            "re-shard moved/total KiB",
            "rung ms (rebuild/degrade)",
        ],
    );
    t.push_row(vec![
        format!("P = {}", d.from_world),
        format!("{}", fx.exec.strategy.grids[0]),
        format!("{sps_before:.2}"),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
    t.push_row(vec![
        format!("P' = {}", d.to_world),
        format!("{}", d.strategy.grids[0]),
        format!("{sps_after:.2}"),
        format!("{:.2}", d.replan_s * 1e3),
        format!(
            "{:.1}/{:.1}",
            d.reshard_moved_bytes as f64 / 1024.0,
            d.reshard_total_bytes as f64 / 1024.0
        ),
        format!(
            "{:.1}/{:.1}",
            report.rung_times.rebuild_s * 1e3,
            report.rung_times.degrade_s * 1e3
        ),
    ]);
    t
}

/// The `repro -- faults` experiment: all four tables.
pub fn faults() -> Vec<Table> {
    vec![overhead_table(), recovery_table(), corruption_sweep_table(), degradation_table()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_measurement_is_loss_invariant() {
        // measure_overhead() asserts bitwise-equal losses internally.
        let (plain, faulty, integrity) = measure_overhead(2, 1);
        assert!(plain > 0.0 && faulty > 0.0 && integrity > 0.0);
    }

    #[test]
    fn recovery_table_has_one_row_per_interval() {
        let t = recovery_table();
        assert_eq!(t.rows.len(), 3);
    }

    #[test]
    fn corruption_sweep_has_one_row_per_rate() {
        // corruption_sweep_table() asserts trajectory invariance
        // internally.
        let t = corruption_sweep_table();
        assert_eq!(t.rows.len(), 4);
    }

    #[test]
    fn degradation_table_reports_both_worlds() {
        // degradation_table() asserts the shrink happened and the run
        // completed internally.
        let t = degradation_table();
        assert_eq!(t.rows.len(), 2);
        assert!(t.rows[0][0].starts_with("P = 4"), "row: {:?}", t.rows[0]);
        assert!(t.rows[1][0].starts_with("P' = 3"), "row: {:?}", t.rows[1]);
    }
}
