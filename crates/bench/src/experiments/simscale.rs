//! `repro -- simscale` — Tables I–III / Fig. 4 configurations as
//! *executed* discrete-event runs.
//!
//! Everything the paper states beyond ~32 GPUs, the repo previously
//! stated from `fg-perf`'s closed forms alone: the thread-per-rank timed
//! runtime cannot scale past a few dozen OS threads. This experiment
//! executes those configurations instead — each rank's compiled schedule
//! is recorded symbolically (communication plus modeled kernel times via
//! [`fg_perf::ModeledCompute`]) and run through the event-driven engine
//! (`fg_comm::simulate_traces`), producing per-rank virtual timelines
//! for worlds up to the full 2048-GPU Table III configuration in seconds
//! of wall time.
//!
//! Each row also
//! * sweeps the static verifier (`fg_comm::check_traces`) over the
//!   large-world traces — the schedule soundness proof, previously
//!   capped at 8 ranks, now covers the paper-scale worlds; and
//! * compares the executed makespan against the closed-form
//!   `network_cost` with overlap disabled (the recorded schedule
//!   serializes compute and communication per layer, so the no-overlap
//!   model is its analytic twin) — validating the cost model against
//!   execution instead of against itself. Both clocks price each
//!   allreduce as the one algorithm `AllreduceAlgorithm::resolve` picks
//!   for its size and group, so the ratio column measures what the
//!   closed form leaves out (per-rank imbalance, unpriced collectives),
//!   not a disagreement about which algorithm runs.
//!
//! A machine-readable `BENCH_simscale.json` (ranks, virtual makespan,
//! wall time, events/sec per config) is written alongside the table so
//! perf trajectories can be tracked across commits.

use fg_comm::{check_traces, simulate_traces, SimReport};
use fg_core::{DistExecutor, Strategy};
use fg_perf::{network_cost, platform_link_model, CostOptions, ModeledCompute, Platform};

use super::{hybrid_grid, model_spec};
use crate::bench_file::{BenchFile, Row};
use crate::table::{fmt_time, Table};

/// One executed configuration.
pub struct SimScaleRow {
    /// Which paper artifact the configuration comes from.
    pub source: &'static str,
    /// Model display name.
    pub model: &'static str,
    /// Global mini-batch size.
    pub batch: usize,
    /// GPUs per sample group.
    pub gpus_per_sample: usize,
    /// World size.
    pub world: usize,
    /// Trace ops recorded across all ranks.
    pub ops_traced: usize,
    /// Did `check_traces` come back clean at this world size?
    pub verified_clean: bool,
    /// The discrete-event run.
    pub report: SimReport,
    /// Closed-form `network_cost` with overlap off — the analytic twin
    /// of the recorded (serialized) schedule.
    pub modeled: f64,
}

/// The configurations executed: two strong-scaling points each from
/// Tables I–III plus a Fig. 4 weak-scaling point, topping out at the
/// 2048-rank ResNet-50 column (N = 32768, 2 GPUs/sample).
fn configs() -> Vec<(&'static str, &'static str, usize, usize)> {
    vec![
        // (source, model, batch, gpus per sample)
        ("Table I", "mesh-1K", 4, 16),
        ("Table I", "mesh-1K", 32, 16),
        ("Table II", "mesh-2K", 2, 16),
        ("Table II", "mesh-2K", 8, 16),
        ("Fig. 4", "mesh-1K", 16, 4),
        ("Table III", "ResNet-50", 2048, 2),
        ("Table III", "ResNet-50", 32768, 2),
    ]
}

/// Execute one configuration as a discrete-event run.
pub fn run_config(
    platform: &Platform,
    source: &'static str,
    model: &'static str,
    batch: usize,
    gpus_per_sample: usize,
) -> SimScaleRow {
    let spec = model_spec(model);
    let groups = if model == "ResNet-50" { batch / 32 } else { batch };
    let strategy = Strategy::uniform(&spec, hybrid_grid(groups, gpus_per_sample));
    let world = strategy.world_size();
    let exec = DistExecutor::new(spec.clone(), strategy.clone(), batch)
        .expect("shipped simscale configuration must compile");

    let oracle = ModeledCompute::new(platform, &spec, &strategy, batch);
    let traces = exec.record_traces(Some(&oracle));

    let names: Vec<String> = spec.layers().iter().map(|l| l.name.clone()).collect();
    let (stats, violations) = check_traces(&traces, &names);

    let link = platform_link_model(platform);
    let report = simulate_traces(&traces, &link)
        .unwrap_or_else(|e| panic!("{model} b={batch} k={gpus_per_sample}: {e}"));

    let opts = CostOptions { overlap_halo: false, overlap_allreduce: false };
    let modeled = network_cost(platform, &spec, batch, &strategy, &opts).total();

    SimScaleRow {
        source,
        model,
        batch,
        gpus_per_sample,
        world,
        ops_traced: stats.ops_traced,
        verified_clean: violations.is_empty(),
        report,
        modeled,
    }
}

/// Execute the full configuration sweep.
pub fn sweep(platform: &Platform) -> Vec<SimScaleRow> {
    configs()
        .into_iter()
        .map(|(source, model, batch, k)| run_config(platform, source, model, batch, k))
        .collect()
}

/// `rows` as the `BENCH_simscale.json` file.
pub fn to_bench_file(rows: &[SimScaleRow]) -> BenchFile {
    let row = |r: &SimScaleRow| {
        Row::default()
            .text("source", r.source)
            .text("model", r.model)
            .num("batch", r.batch)
            .num("gpus_per_sample", r.gpus_per_sample)
            .num("ranks", r.world)
            .num("ops_traced", r.ops_traced)
            .num("verified_clean", r.verified_clean)
            .fixed("virtual_makespan_s", r.report.makespan(), 9)
            .fixed("modeled_s", r.modeled, 9)
            .num("events", r.report.ops_executed)
            .num("messages", r.report.messages)
            .fixed("wall_s", r.report.wall.as_secs_f64(), 6)
            .fixed("events_per_sec", r.report.events_per_sec(), 0)
    };
    BenchFile::Array(rows.iter().map(row).collect())
}

/// The `repro -- simscale` table; also writes `BENCH_simscale.json` to
/// the working directory.
pub fn simscale_report(platform: &Platform) -> Table {
    let rows = sweep(platform);
    to_bench_file(&rows).write("BENCH_simscale.json");
    let mut t = Table::new(
        "Executed discrete-event runs at paper scale (simscale)",
        &[
            "config",
            "model",
            "batch",
            "ranks",
            "verify",
            "virtual time",
            "model (no-overlap)",
            "ratio",
            "events",
            "wall",
            "events/s",
        ],
    );
    for r in &rows {
        let makespan = r.report.makespan();
        t.push_row(vec![
            format!("{} k={}", r.source, r.gpus_per_sample),
            r.model.into(),
            r.batch.to_string(),
            r.world.to_string(),
            if r.verified_clean { "clean".into() } else { "VIOLATIONS".into() },
            fmt_time(makespan),
            fmt_time(r.modeled),
            format!("{:.2}", makespan / r.modeled),
            r.report.ops_executed.to_string(),
            format!("{:.2} s", r.report.wall.as_secs_f64()),
            format!("{:.1}M", r.report.events_per_sec() / 1e6),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_comm::replay_traces_timed;
    use fg_models::{mesh_model, MeshSize};

    /// An 8-rank mesh configuration, executed both ways: the DES clocks
    /// must equal the thread-per-rank clocks exactly — the correctness
    /// anchor at validation scale, with real model traces and modeled
    /// compute rather than synthetic schedules.
    #[test]
    fn des_matches_threaded_on_a_real_model_schedule() {
        let platform = Platform::lassen_like();
        let spec = mesh_model(MeshSize::OneK);
        let strategy = Strategy::uniform(&spec, hybrid_grid(2, 4));
        let exec = DistExecutor::new(spec.clone(), strategy.clone(), 2).expect("compiles");
        let oracle = ModeledCompute::new(&platform, &spec, &strategy, 2);
        let traces = exec.record_traces(Some(&oracle));
        let link = platform_link_model(&platform);
        let des = simulate_traces(&traces, &link).expect("simulates");
        let threaded = replay_traces_timed(&traces, &link);
        assert_eq!(des.clocks, threaded);
        assert!(des.makespan() > 0.0);
    }

    /// A mid-size configuration executes, verifies clean at a world the
    /// thread-per-rank verifier sweep never reached, and the executed
    /// makespan lands in the same ballpark as its analytic twin.
    #[test]
    fn midscale_config_executes_and_verifies() {
        let platform = Platform::lassen_like();
        let row = run_config(&platform, "Table II", "mesh-2K", 2, 16);
        assert_eq!(row.world, 32);
        assert!(row.verified_clean, "schedule must verify clean at 32 ranks");
        assert!(row.report.ops_executed > 0);
        let ratio = row.report.makespan() / row.modeled;
        assert!(
            (0.3..3.0).contains(&ratio),
            "executed {} vs modeled {} (ratio {ratio:.2})",
            row.report.makespan(),
            row.modeled
        );
    }
}
