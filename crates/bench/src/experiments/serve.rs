//! `repro -- serve` — the inference serving tier under load and chaos.
//!
//! Boots the paper's mesh-tangling segmentation model (scaled) from a
//! *serialized training checkpoint* — the `ServableModel` path: load
//! `TrainState` bytes, derive batch-norm running statistics from
//! calibration batches — onto two sample-parallel replica worlds, then
//! sweeps
//!
//! * **batch policy**: `max_batch = 1` (no batching: every request
//!   dispatches alone) vs `max_batch = 8` (deadline-aware dynamic
//!   batching);
//! * **offered load**: open-loop Poisson arrivals at increasing rates,
//!   past the point where admission control must shed;
//! * **health**: a clean tier vs chaos — lossy links (drops +
//!   corruption, repaired bitwise by the integrity layer) on both
//!   replicas plus one mid-traffic rank kill on replica 0, which forces
//!   a drain → rebuild → re-admission cycle while replica 1 carries the
//!   traffic.
//!
//! Each row reports client-observed p50/p99 latency over successes,
//! goodput (in-deadline completions per second), typed-failure counts,
//! the mean dispatched batch size, and how many world rebuilds the
//! chaos forced. `BENCH_serving.json` is written alongside the table so
//! latency trajectories can be tracked across commits.

use std::sync::Arc;
use std::time::Duration;

use fg_comm::FaultPlan;
use fg_core::ServableModel;
use fg_models::MESH_CHANNELS;
use fg_serve::{LoadConfig, ReplicaSpec, Server, ServerConfig};
use fg_tensor::{ProcGrid, Shape4, Tensor};

use super::{scaled_mesh_state, SCALED_MESH_HW};
use crate::bench_file::{BenchFile, Row};
use crate::table::Table;

/// One (scenario × policy × load) measurement.
pub struct ServeRow {
    /// "healthy" or "chaos".
    pub scenario: &'static str,
    /// The batcher's size cap (1 = unbatched).
    pub max_batch: usize,
    /// Offered open-loop arrival rate, requests/second.
    pub offered_rps: f64,
    /// Requests offered.
    pub offered: usize,
    /// Shed at admission.
    pub shed: usize,
    /// Completed with logits.
    pub ok: usize,
    /// Typed deadline failures.
    pub deadline_exceeded: usize,
    /// Typed retries-exhausted failures.
    pub retries_exhausted: usize,
    /// Median success latency, ms.
    pub p50_ms: f64,
    /// 99th-percentile success latency, ms.
    pub p99_ms: f64,
    /// In-deadline completions per wall second.
    pub goodput_rps: f64,
    /// Mean dispatched batch size (`batched_requests / batches`).
    pub mean_batch: f64,
    /// World rebuilds across replicas (chaos only; 0 when healthy).
    pub recycles: u64,
    /// Wall time of the load run, seconds.
    pub wall_s: f64,
}

fn pseudo_sample(seed: u64) -> Tensor {
    let mut state = seed | 1;
    Tensor::from_fn(Shape4::new(1, MESH_CHANNELS, SCALED_MESH_HW, SCALED_MESH_HW), |_, _, _, _| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ((state % 1000) as f32) / 250.0 - 2.0
    })
}

/// Freeze a servable model through the full checkpoint path: build a
/// `TrainState`, serialize it, reload the bytes, calibrate BN running
/// statistics — exactly what a deployment promoting a snapshot does.
fn boot_model() -> Arc<ServableModel> {
    let (spec, state) = scaled_mesh_state();
    let mut bytes = Vec::new();
    fg_nn::save_train_state(&mut bytes, &state).expect("serialize checkpoint");
    let calibration: Vec<Tensor> = (0..2u64)
        .map(|k| {
            let row = MESH_CHANNELS * SCALED_MESH_HW * SCALED_MESH_HW;
            let mut batch =
                Tensor::zeros(Shape4::new(2, MESH_CHANNELS, SCALED_MESH_HW, SCALED_MESH_HW));
            for n in 0..2 {
                batch.as_mut_slice()[n * row..(n + 1) * row]
                    .copy_from_slice(pseudo_sample(k * 31 + n as u64 + 7).as_slice());
            }
            batch
        })
        .collect();
    let model = ServableModel::from_checkpoint(&spec, &mut bytes.as_slice(), &calibration, 0.1)
        .expect("reload checkpoint");
    Arc::new(model)
}

fn replicas_for(scenario: &str) -> Vec<ReplicaSpec> {
    // Sample-parallel two-rank worlds: the scaled mesh's deepest
    // activations are 1×1 at 64×64 input, so no spatial grid validates —
    // and the sharded head keeps served logits bitwise-equal to serial
    // on sample grids just the same. A dead rank degrades to a
    // single-rank world via the same replan rung.
    let grid = ProcGrid::sample(2);
    match scenario {
        "healthy" => vec![ReplicaSpec::healthy(grid), ReplicaSpec::healthy(grid)],
        // Sample-parallel ranks only touch the wire at the result
        // gather (~1–2 counted ops/job), so the kill op is low enough
        // to fire within each cell's traffic even at max_batch = 8.
        "chaos" => vec![
            ReplicaSpec::healthy(grid).with_faults(
                FaultPlan::new(0xC0FFEE).drop_rate(0.03).corrupt_rate(0.03).kill_rank(1, 12),
            ),
            ReplicaSpec::healthy(grid)
                .with_faults(FaultPlan::new(0xBEEF).drop_rate(0.03).corrupt_rate(0.03)),
        ],
        other => panic!("unknown serving scenario {other}"),
    }
}

/// Run one (scenario, policy, load) cell.
fn run_cell(
    model: &Arc<ServableModel>,
    scenario: &'static str,
    max_batch: usize,
    offered_rps: f64,
    requests: usize,
) -> ServeRow {
    let cfg = ServerConfig { max_batch, queue_capacity: 16 };
    let server = Server::start(Arc::clone(model), replicas_for(scenario), cfg);
    let load = LoadConfig {
        rps: offered_rps,
        requests,
        deadline: Duration::from_millis(250),
        seed: 0x5EED ^ max_batch as u64 ^ offered_rps.to_bits(),
    };
    let report = fg_serve::run_load(&server, |i| pseudo_sample(0xFACE ^ i), &load);
    let metrics = server.shutdown();
    ServeRow {
        scenario,
        max_batch,
        offered_rps,
        offered: report.offered,
        shed: report.shed,
        ok: report.ok,
        deadline_exceeded: report.deadline_exceeded,
        retries_exhausted: report.retries_exhausted,
        p50_ms: report.p50_ms,
        p99_ms: report.p99_ms,
        goodput_rps: report.goodput_rps,
        mean_batch: if metrics.batches > 0 {
            metrics.batched_requests as f64 / metrics.batches as f64
        } else {
            0.0
        },
        recycles: metrics.replica_recycles,
        wall_s: report.wall.as_secs_f64(),
    }
}

/// The full sweep: scenario × batch policy × offered load.
pub fn sweep() -> Vec<ServeRow> {
    let model = boot_model();
    let mut rows = Vec::new();
    for scenario in ["healthy", "chaos"] {
        for max_batch in [1usize, 8] {
            // 75 rps: underload for both policies. 300: past the
            // unbatched knee (~100 rps on this host) but sustainable
            // with batching (~190 rps). 1000: past both — admission
            // control must shed.
            for rps in [75.0, 300.0, 1000.0] {
                rows.push(run_cell(&model, scenario, max_batch, rps, 160));
            }
        }
    }
    rows
}

/// `rows` as the `BENCH_serving.json` file; an empty latency sample
/// reads -1.
fn to_bench_file(rows: &[ServeRow]) -> BenchFile {
    let ms = |v: f64| if v.is_nan() { -1.0 } else { v };
    let row = |r: &ServeRow| {
        Row::default()
            .text("scenario", r.scenario)
            .num("max_batch", r.max_batch)
            .fixed("offered_rps", r.offered_rps, 0)
            .num("offered", r.offered)
            .num("shed", r.shed)
            .num("ok", r.ok)
            .num("deadline_exceeded", r.deadline_exceeded)
            .num("retries_exhausted", r.retries_exhausted)
            .fixed("p50_ms", ms(r.p50_ms), 3)
            .fixed("p99_ms", ms(r.p99_ms), 3)
            .fixed("goodput_rps", r.goodput_rps, 1)
            .fixed("mean_batch", r.mean_batch, 2)
            .num("recycles", r.recycles)
            .fixed("wall_s", r.wall_s, 3)
    };
    BenchFile::Array(rows.iter().map(row).collect())
}

/// The `repro -- serve` table; also writes `BENCH_serving.json` to the
/// working directory.
pub fn serve_report() -> Table {
    let rows = sweep();
    to_bench_file(&rows).write("BENCH_serving.json");
    let mut t = Table::new(
        "Serving tier: latency/goodput vs offered load × batch policy (serve)",
        &[
            "scenario",
            "policy",
            "offered rps",
            "ok",
            "shed",
            "deadline",
            "retry-fail",
            "p50",
            "p99",
            "goodput rps",
            "mean batch",
            "rebuilds",
        ],
    );
    for r in &rows {
        t.push_row(vec![
            r.scenario.into(),
            if r.max_batch == 1 { "unbatched".into() } else { format!("B={}", r.max_batch) },
            format!("{:.0}", r.offered_rps),
            format!("{}/{}", r.ok, r.offered),
            r.shed.to_string(),
            r.deadline_exceeded.to_string(),
            r.retries_exhausted.to_string(),
            if r.p50_ms.is_nan() { "-".into() } else { format!("{:.2} ms", r.p50_ms) },
            if r.p99_ms.is_nan() { "-".into() } else { format!("{:.2} ms", r.p99_ms) },
            format!("{:.0}", r.goodput_rps),
            format!("{:.2}", r.mean_batch),
            r.recycles.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One small healthy cell end to end through the checkpoint-boot
    /// path: everything terminates.
    #[test]
    fn healthy_cell_completes() {
        let model = boot_model();
        let row = run_cell(&model, "healthy", 4, 100.0, 24);
        eprintln!(
            "healthy cell: ok {}/{}, p50 {:.2} ms, p99 {:.2} ms, wall {:.2} s",
            row.ok, row.offered, row.p50_ms, row.p99_ms, row.wall_s
        );
        assert_eq!(row.offered, 24);
        assert_eq!(
            row.offered,
            row.ok + row.shed + row.deadline_exceeded + row.retries_exhausted,
            "every request reached a terminal outcome"
        );
        assert!(row.ok > 0, "a healthy tier at modest load completes requests");
        assert_eq!(row.recycles, 0, "healthy worlds never rebuild");
    }
}
