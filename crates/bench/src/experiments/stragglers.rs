//! `repro -- stragglers` — gray-failure straggler scenarios at paper
//! scale, executed on the discrete-event engine.
//!
//! The live gray-failure ladder (`fg_core::resilient`) detects a
//! persistently slow rank, re-decomposes the network with measured
//! per-rank weights, and softly evicts ranks too slow to carry any
//! useful share. The thread-per-rank runtime caps those scenarios at a
//! handful of ranks; this experiment executes them at 64–2048 ranks by
//! recording each configuration's schedule with modeled kernel times
//! ([`fg_perf::ModeledCompute`]), stretching the injected ranks' compute
//! with [`fg_perf::SlowedCompute`] (the DES twin of
//! `FaultPlan::slow_rank`), and running the traces through
//! `fg_comm::simulate_traces`.
//!
//! Three artifacts, written together to `BENCH_stragglers.json`:
//!
//! 1. **Weighted rebalance at spatial grids (16–256 ranks).** A slow
//!    node's ranks share a grid row (Lassen schedules 4 GPUs/node; a
//!    spatial grid row is one or more whole nodes), so the separable
//!    weighted partition can shift rows away from it. Rows report the
//!    healthy, slow (3× row), and rebalanced makespans, the recovered
//!    fraction of the lost time, and the re-sharding traffic the layout
//!    change implies (per-layer [`fg_tensor::RegridPlan`]). The weighted
//!    strategy comes from the production entry point,
//!    [`fg_core::rebalance_for_stragglers`], fed the synthetic EMAs the
//!    live detector would have measured. The measured trend: rebalance
//!    recovers ~70% of the lost time at 16 ranks but fades with scale —
//!    per-rank extents shrink until the device model's fixed per-kernel
//!    latency (which a gray-slow rank stretches irreducibly) and the
//!    row-granularity floor dominate.
//! 2. **Soft eviction at hybrid grids (64–2048 ranks).** At the paper's
//!    hybrid configurations (16 GPUs/sample) the weighted marginals
//!    dilute a single slow rank across sample groups, so the ladder's
//!    terminal rung — evict the straggler's sample group and carry on
//!    with `P − 16` ranks — is the effective mitigation. Rows compare
//!    samples/s healthy, gated by a 3× rank, and after eviction. The
//!    survivors of a power-of-two world are not a power of two, so their
//!    gradient allreduces run ring (2(P−1) latency rounds) where the
//!    healthy world runs Rabenseifner (2·log₂P): the evicted step is the
//!    slower one, and the cost grows with scale — 40% at 64 ranks, 95% at
//!    2048 — until, from 256 ranks on, eviction loses to tolerating the
//!    straggler. That is the allreduce chooser's size-and-P rule, not
//!    eviction: a link-aware choice at non-power-of-two P would price it.
//! 3. **Eviction threshold sweep.** At the 16-rank spatial grid — below
//!    the scaling knee, where evicting a node row genuinely costs step
//!    time — sweep the slowdown factor: the weighted layout absorbs
//!    mild stragglers, but the weight floor (1/24 of a healthy share)
//!    bounds the relief, and past roughly 2× the eviction's fixed cost
//!    already wins — the quantitative backing for
//!    `StragglerConfig::evict_ratio` escalation, and the reason the
//!    live ladder keeps eviction cheap to reach.

use fg_comm::{simulate_traces, SimReport};
use fg_core::{rebalance_for_stragglers, DistExecutor, Strategy};
use fg_models::{mesh_model, MeshSize};
use fg_nn::NetworkSpec;
use fg_perf::{platform_link_model, ModeledCompute, Platform, SlowedCompute};
use fg_tensor::ProcGrid;

use super::hybrid_grid;
use crate::table::{fmt_time, Table};

/// The injected slowdown for the scale sweeps (the threshold sweep
/// varies it).
pub const SLOW_FACTOR: f64 = 3.0;

/// One weighted-rebalance configuration (spatial grid, slow row).
pub struct RebalanceRow {
    /// World size.
    pub world: usize,
    /// Spatial grid `ph × pw`.
    pub grid: ProcGrid,
    /// Ranks in the slow row.
    pub slow_ranks: usize,
    /// Healthy makespan, seconds (virtual).
    pub healthy_s: f64,
    /// Makespan with the row slowed and no mitigation.
    pub slow_s: f64,
    /// Makespan with the row slowed under the weighted layout.
    pub rebalanced_s: f64,
    /// Re-sharding traffic the layout change implies, bytes.
    pub regrid_moved_bytes: u64,
    /// Total distributed state, bytes.
    pub regrid_total_bytes: u64,
    /// DES events executed across the three runs.
    pub events: u64,
    /// Wall time of the three runs, seconds.
    pub wall_s: f64,
}

impl RebalanceRow {
    /// Fraction of the makespan lost to the straggler that the
    /// weighted layout recovered.
    fn recovered(&self) -> f64 {
        (self.slow_s - self.rebalanced_s) / (self.slow_s - self.healthy_s)
    }
}

/// One soft-eviction configuration (hybrid grid, one slow rank).
pub struct EvictionRow {
    /// World size before eviction.
    pub world: usize,
    /// Sample groups before eviction.
    pub groups: usize,
    /// Healthy makespan, seconds.
    pub healthy_s: f64,
    /// Makespan gated by the 3× rank.
    pub slow_s: f64,
    /// Makespan of the survivors (one fewer group, one fewer sample).
    pub evicted_s: f64,
    /// DES events executed across the three runs.
    pub events: u64,
    /// Wall time of the three runs, seconds.
    pub wall_s: f64,
}

impl EvictionRow {
    /// Throughput (samples per virtual second) for the three states.
    pub fn throughput(&self) -> (f64, f64, f64) {
        let batch = self.groups as f64;
        (batch / self.healthy_s, batch / self.slow_s, (batch - 1.0) / self.evicted_s)
    }
}

/// One point of the eviction threshold sweep.
pub struct ThresholdRow {
    /// Injected slowdown factor.
    pub factor: f64,
    /// The weight the slow row's ranks end up with (healthy = 24).
    pub slow_weight: u64,
    /// Makespan under the weighted layout with the row at `factor`×.
    pub rebalanced_s: f64,
    /// Makespan of the post-eviction world (factor-independent).
    pub evicted_s: f64,
}

impl ThresholdRow {
    /// Which rung wins at this factor.
    pub fn better(&self) -> &'static str {
        if self.rebalanced_s <= self.evicted_s {
            "rebalance"
        } else {
            "evict"
        }
    }
}

/// Record `strategy`'s schedule with modeled compute (stretched by
/// `factors` where given) and execute it on the event engine.
fn run_sim(
    platform: &Platform,
    spec: &NetworkSpec,
    strategy: &Strategy,
    batch: usize,
    factors: Option<Vec<f64>>,
) -> SimReport {
    let exec = DistExecutor::new(spec.clone(), strategy.clone(), batch)
        .expect("straggler configuration must compile");
    let base = ModeledCompute::new(platform, spec, strategy, batch);
    let traces = match factors {
        Some(f) => exec.record_traces(Some(&SlowedCompute::new(base, f))),
        None => exec.record_traces(Some(&base)),
    };
    simulate_traces(&traces, &platform_link_model(platform))
        .unwrap_or_else(|e| panic!("straggler DES run failed: {e}"))
}

/// Per-rank slowdown factors: every rank whose grid h-coordinate is 0
/// (the slow node row) runs at `factor`×.
fn slow_row_factors(grid: ProcGrid, factor: f64) -> Vec<f64> {
    (0..grid.size()).map(|r| if grid.coords(r)[2] == 0 { factor } else { 1.0 }).collect()
}

/// The busy-time EMAs the live detector would have measured under
/// [`slow_row_factors`]: `factor` for the slow row, 1 elsewhere.
fn slow_row_ema(grid: ProcGrid, factor: f64) -> Vec<f64> {
    slow_row_factors(grid, factor)
}

/// Execute one weighted-rebalance configuration.
fn rebalance_config(
    platform: &Platform,
    spec: &NetworkSpec,
    grid: ProcGrid,
    batch: usize,
    factor: f64,
) -> RebalanceRow {
    let uniform = Strategy::uniform(spec, grid);
    let weighted = rebalance_for_stragglers(&uniform, spec, batch, &slow_row_ema(grid, factor))
        .expect("slow-row rebalance must be viable")
        .strategy;
    let factors = slow_row_factors(grid, factor);
    let healthy = run_sim(platform, spec, &uniform, batch, None);
    let slow = run_sim(platform, spec, &uniform, batch, Some(factors.clone()));
    let rebalanced = run_sim(platform, spec, &weighted, batch, Some(factors.clone()));
    let (regrid_moved_bytes, regrid_total_bytes) = uniform.regrid_cost(&weighted, spec, batch);
    RebalanceRow {
        world: grid.size(),
        grid,
        slow_ranks: factors.iter().filter(|&&f| f > 1.0).count(),
        healthy_s: healthy.makespan(),
        slow_s: slow.makespan(),
        rebalanced_s: rebalanced.makespan(),
        regrid_moved_bytes,
        regrid_total_bytes,
        events: healthy.ops_executed + slow.ops_executed + rebalanced.ops_executed,
        wall_s: (healthy.wall + slow.wall + rebalanced.wall).as_secs_f64(),
    }
}

/// Execute one soft-eviction configuration: `groups` sample groups of
/// 16 GPUs each (the paper's mesh configuration), rank 0 slowed, then
/// the straggler's whole group evicted.
fn eviction_config(platform: &Platform, spec: &NetworkSpec, groups: usize) -> EvictionRow {
    let k = 16;
    let strategy = Strategy::uniform(spec, hybrid_grid(groups, k));
    let world = strategy.world_size();
    let mut factors = vec![1.0; world];
    factors[0] = SLOW_FACTOR;
    let healthy = run_sim(platform, spec, &strategy, groups, None);
    let slow = run_sim(platform, spec, &strategy, groups, Some(factors));
    let survivors = Strategy::uniform(spec, hybrid_grid(groups - 1, k));
    let evicted = run_sim(platform, spec, &survivors, groups - 1, None);
    EvictionRow {
        world,
        groups,
        healthy_s: healthy.makespan(),
        slow_s: slow.makespan(),
        evicted_s: evicted.makespan(),
        events: healthy.ops_executed + slow.ops_executed + evicted.ops_executed,
        wall_s: (healthy.wall + slow.wall + evicted.wall).as_secs_f64(),
    }
}

/// The eviction threshold sweep at one spatial configuration: per
/// factor, the weighted layout's makespan against the (fixed)
/// post-eviction makespan.
fn threshold_sweep(
    platform: &Platform,
    spec: &NetworkSpec,
    grid: ProcGrid,
    batch: usize,
    factors: &[f64],
) -> Vec<ThresholdRow> {
    let (ph, pw) = (grid.dims()[2], grid.dims()[3]);
    let survivors = Strategy::uniform(spec, ProcGrid::spatial(ph - 1, pw));
    let evicted_s = run_sim(platform, spec, &survivors, batch, None).makespan();
    factors
        .iter()
        .map(|&factor| {
            let uniform = Strategy::uniform(spec, grid);
            let weighted =
                rebalance_for_stragglers(&uniform, spec, batch, &slow_row_ema(grid, factor))
                    .expect("slow-row rebalance must be viable")
                    .strategy;
            let slow_weight = *weighted
                .rank_weights
                .as_ref()
                .expect("rebalance yields weights")
                .first()
                .expect("non-empty weights");
            let rebalanced =
                run_sim(platform, spec, &weighted, batch, Some(slow_row_factors(grid, factor)));
            ThresholdRow { factor, slow_weight, rebalanced_s: rebalanced.makespan(), evicted_s }
        })
        .collect()
}

/// The full experiment: rebalance rows at 16–256 ranks, eviction rows
/// at 64–2048 ranks, and the threshold sweep at 64 ranks.
pub fn sweep(platform: &Platform) -> (Vec<RebalanceRow>, Vec<EvictionRow>, Vec<ThresholdRow>) {
    let spec = mesh_model(MeshSize::OneK);
    let rebalance = [(4usize, 4usize), (8, 8), (16, 16)]
        .into_iter()
        .map(|(ph, pw)| {
            rebalance_config(platform, &spec, ProcGrid::spatial(ph, pw), 4, SLOW_FACTOR)
        })
        .collect();
    let eviction =
        [4usize, 16, 64, 128].into_iter().map(|g| eviction_config(platform, &spec, g)).collect();
    let threshold = threshold_sweep(
        platform,
        &spec,
        ProcGrid::spatial(4, 4),
        4,
        &[1.25, 1.5, 2.0, 4.0, 8.0, 16.0, 32.0],
    );
    (rebalance, eviction, threshold)
}

/// Render the three row sets as the `BENCH_stragglers.json` payload.
pub fn to_json(
    rebalance: &[RebalanceRow],
    eviction: &[EvictionRow],
    threshold: &[ThresholdRow],
) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"slow_factor\": {SLOW_FACTOR},\n"));
    out.push_str("  \"rebalance\": [\n");
    for (i, r) in rebalance.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"ranks\": {}, \"slow_ranks\": {}, \"healthy_s\": {:.9}, \
             \"slow_s\": {:.9}, \"rebalanced_s\": {:.9}, \"recovered\": {:.4}, \
             \"regrid_moved_bytes\": {}, \"regrid_total_bytes\": {}, \
             \"events\": {}, \"wall_s\": {:.6}}}{}\n",
            r.world,
            r.slow_ranks,
            r.healthy_s,
            r.slow_s,
            r.rebalanced_s,
            r.recovered(),
            r.regrid_moved_bytes,
            r.regrid_total_bytes,
            r.events,
            r.wall_s,
            if i + 1 < rebalance.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n  \"eviction\": [\n");
    for (i, r) in eviction.iter().enumerate() {
        let (th, ts, te) = r.throughput();
        out.push_str(&format!(
            "    {{\"ranks\": {}, \"groups\": {}, \"healthy_s\": {:.9}, \
             \"slow_s\": {:.9}, \"evicted_s\": {:.9}, \
             \"healthy_samples_per_s\": {:.6}, \"slow_samples_per_s\": {:.6}, \
             \"evicted_samples_per_s\": {:.6}, \"events\": {}, \"wall_s\": {:.6}}}{}\n",
            r.world,
            r.groups,
            r.healthy_s,
            r.slow_s,
            r.evicted_s,
            th,
            ts,
            te,
            r.events,
            r.wall_s,
            if i + 1 < eviction.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n  \"threshold_sweep\": [\n");
    for (i, r) in threshold.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"factor\": {}, \"slow_weight\": {}, \"rebalanced_s\": {:.9}, \
             \"evicted_s\": {:.9}, \"better\": \"{}\"}}{}\n",
            r.factor,
            r.slow_weight,
            r.rebalanced_s,
            r.evicted_s,
            r.better(),
            if i + 1 < threshold.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.2} GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.1} MiB", b as f64 / (1 << 20) as f64)
    } else {
        format!("{:.1} KiB", b as f64 / (1 << 10) as f64)
    }
}

/// The `repro -- stragglers` tables; also writes `BENCH_stragglers.json`
/// to the working directory.
pub fn stragglers_report(platform: &Platform) -> Vec<Table> {
    let (rebalance, eviction, threshold) = sweep(platform);
    if let Err(e) =
        std::fs::write("BENCH_stragglers.json", to_json(&rebalance, &eviction, &threshold))
    {
        eprintln!("warning: could not write BENCH_stragglers.json: {e}");
    }

    let mut t1 = Table::new(
        "Gray failure: weighted rebalance of a 3x-slow node row (mesh-1K, spatial grids, DES)",
        &[
            "ranks",
            "slow ranks",
            "healthy",
            "slow",
            "rebalanced",
            "recovered",
            "regrid moved",
            "events",
            "wall",
        ],
    );
    for r in &rebalance {
        t1.push_row(vec![
            r.world.to_string(),
            r.slow_ranks.to_string(),
            fmt_time(r.healthy_s),
            fmt_time(r.slow_s),
            fmt_time(r.rebalanced_s),
            format!("{:.0}%", r.recovered() * 100.0),
            format!(
                "{} ({:.0}%)",
                fmt_bytes(r.regrid_moved_bytes),
                100.0 * r.regrid_moved_bytes as f64 / r.regrid_total_bytes.max(1) as f64
            ),
            r.events.to_string(),
            format!("{:.2} s", r.wall_s),
        ]);
    }

    let mut t2 = Table::new(
        "Gray failure: soft eviction of a 3x-slow rank's sample group (mesh-1K, hybrid k=16, DES)",
        &["ranks", "groups", "healthy smp/s", "slow smp/s", "evicted smp/s", "evict cost", "wall"],
    );
    for r in &eviction {
        let (th, ts, te) = r.throughput();
        t2.push_row(vec![
            r.world.to_string(),
            r.groups.to_string(),
            format!("{th:.2}"),
            format!("{ts:.2}"),
            format!("{te:.2}"),
            format!("{:.1}%", (1.0 - te / th) * 100.0),
            format!("{:.2} s", r.wall_s),
        ]);
    }

    let mut t3 = Table::new(
        "Eviction threshold: weighted rebalance vs eviction by slowdown factor (16 ranks)",
        &["factor", "slow weight", "rebalanced", "evicted", "better rung"],
    );
    for r in &threshold {
        t3.push_row(vec![
            format!("{}x", r.factor),
            format!("{}/24", r.slow_weight),
            fmt_time(r.rebalanced_s),
            fmt_time(r.evicted_s),
            r.better().to_string(),
        ]);
    }
    vec![t1, t2, t3]
}

#[cfg(test)]
mod tests {
    use super::*;

    // Trace recording and the event engine cost O(ranks × layers), not
    // O(pixels) — the full-resolution mesh is as cheap to *schedule* as
    // a scaled one, and only full resolution gives the per-rank extents
    // where weighting visibly moves modeled compute (a scaled-down mesh
    // is launch-latency-bound and weights cannot relieve that floor).
    fn full_mesh() -> NetworkSpec {
        mesh_model(MeshSize::OneK)
    }

    #[test]
    fn weighted_rebalance_recovers_most_of_a_slow_row() {
        let platform = Platform::lassen_like();
        let spec = full_mesh();
        let row = rebalance_config(&platform, &spec, ProcGrid::spatial(4, 4), 4, SLOW_FACTOR);
        assert_eq!(row.world, 16);
        assert_eq!(row.slow_ranks, 4);
        assert!(row.slow_s > row.healthy_s * 1.5, "a 3x row must gate the step");
        assert!(row.rebalanced_s < row.slow_s, "the weighted layout must help");
        assert!(
            row.recovered() > 0.5,
            "rebalance must recover most of the loss: healthy {} slow {} rebalanced {}",
            row.healthy_s,
            row.slow_s,
            row.rebalanced_s
        );
        assert!(row.regrid_moved_bytes > 0, "the layout change moves state");
        assert!(row.regrid_moved_bytes < row.regrid_total_bytes, "but not all of it");
    }

    #[test]
    fn eviction_beats_tolerating_and_keeps_three_quarters_per_surviving_group() {
        let platform = Platform::lassen_like();
        let spec = full_mesh();
        let row = eviction_config(&platform, &spec, 4);
        assert_eq!(row.world, 64);
        let (th, ts, te) = row.throughput();
        assert!(ts < th, "the slow rank must gate throughput");
        assert!(te > ts, "eviction must beat tolerating the straggler");
        // One of four groups gone, and the survivors' step is slower than
        // the healthy one, so `te > 0.75 * th` no longer holds: 48 ranks
        // is not a power of two, so their gradient allreduces run ring
        // where the healthy 64 run Rabenseifner. No algorithm the chooser
        // has would restore it — Rabenseifner with its fold-in at 48
        // ranks is still 4 % slower than the healthy step. Each surviving
        // group keeps three quarters of its healthy rate.
        let groups = row.groups as f64;
        assert!(te / (groups - 1.0) > 0.75 * th / groups, "healthy {th} slow {ts} evicted {te}");
    }

    #[test]
    fn threshold_sweep_crosses_from_rebalance_to_eviction() {
        let platform = Platform::lassen_like();
        let spec = full_mesh();
        let rows = threshold_sweep(&platform, &spec, ProcGrid::spatial(4, 4), 4, &[1.25, 96.0]);
        assert_eq!(rows.len(), 2);
        // A mild straggler: the weighted layout absorbs it for less
        // than a row eviction costs.
        assert_eq!(rows[0].better(), "rebalance");
        // Far past the weight floor (24/96 < 1): the clamped minimum
        // share still runs 96x slow, and eviction's fixed cost wins.
        assert_eq!(rows[1].slow_weight, 1);
        assert_eq!(rows[1].better(), "evict");
        // The evicted makespan is factor-independent.
        assert_eq!(rows[0].evicted_s, rows[1].evicted_s);
    }

    #[test]
    fn json_payload_is_well_formed() {
        let platform = Platform::lassen_like();
        let spec = full_mesh();
        let rb = vec![rebalance_config(&platform, &spec, ProcGrid::spatial(4, 4), 4, 3.0)];
        let ev = vec![eviction_config(&platform, &spec, 4)];
        let th = threshold_sweep(&platform, &spec, ProcGrid::spatial(4, 4), 4, &[2.0]);
        let json = to_json(&rb, &ev, &th);
        assert!(json.contains("\"rebalance\""));
        assert!(json.contains("\"eviction\""));
        assert!(json.contains("\"threshold_sweep\""));
        assert!(json.contains("\"recovered\""));
        assert!(json.trim_end().ends_with('}'));
    }
}
