//! `repro -- ckptstore` — the durable replicated checkpoint store.
//!
//! Two sweeps over the scaled mesh model's `TrainState`:
//!
//! * **durability cost** — store + restore wall time, payload vs bytes
//!   actually written (the redundancy overhead), across world size
//!   (shard count) × redundancy level. This is the price of surviving a
//!   dead rank's disk.
//! * **chaos recovery** — seeded rate-based storage faults (torn
//!   writes, bit flips, deleted shards) against each redundancy level;
//!   each trial publishes three versions and then restores. Reports how
//!   often recovery lands on the newest version outright, how often it
//!   falls back to an older verifiable version, how many shards were
//!   rebuilt from replicas/parity — and that no trial ever fails
//!   entirely or resumes silently stale.
//!
//! `BENCH_ckpt.json` is written alongside the table so store/restore
//! latency and recovery rates can be tracked across commits.

use fg_nn::{CkptStore, Redundancy, StorageFaultPlan, StoreConfig};

use super::scaled_mesh_state;
use crate::bench_file::{BenchFile, Row};
use crate::table::Table;

fn redundancy_label(r: Redundancy) -> String {
    match r {
        Redundancy::None => "none".into(),
        Redundancy::Replicas(k) => format!("replicas k={k}"),
        Redundancy::Parity { group } => format!("parity g={group}"),
    }
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fg-bench-ckpt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One durability-cost measurement.
pub struct CostRow {
    /// Shard count (the training world size).
    pub world: usize,
    /// Redundancy level.
    pub redundancy: String,
    /// Serialized `TrainState` bytes.
    pub payload_bytes: u64,
    /// Bytes actually written (shards + replicas/parity + manifest).
    pub bytes_written: u64,
    /// Store wall time, milliseconds.
    pub store_ms: f64,
    /// Restore (newest-version load) wall time, milliseconds.
    pub restore_ms: f64,
}

/// One chaos-recovery measurement (aggregated over trials).
pub struct ChaosRow {
    /// Redundancy level.
    pub redundancy: String,
    /// Per-file fault rate for each of torn/flip/delete.
    pub fault_rate: f64,
    /// Trials run.
    pub trials: usize,
    /// Trials whose restore landed on the newest version.
    pub newest: usize,
    /// Trials that fell back to an older verifiable version.
    pub fell_back: usize,
    /// Trials with no verifiable version at all (typed, not a panic).
    pub lost: usize,
    /// Shards rebuilt from replicas/parity across all trials.
    pub reconstructed: u64,
}

/// Durability-cost sweep: world × redundancy. Stores live in temp
/// directories, removed after each cell.
pub fn cost_sweep() -> Vec<CostRow> {
    let (_, state) = scaled_mesh_state();
    let mut rows = Vec::new();
    for world in [4usize, 16, 64] {
        for redundancy in [
            Redundancy::None,
            Redundancy::Replicas(1),
            Redundancy::Replicas(2),
            Redundancy::Parity { group: 4 },
        ] {
            let dir = scratch(&format!("cost-{world}-{:?}", redundancy_label(redundancy)));
            let mut store =
                CkptStore::create(StoreConfig::at(&dir).redundancy(redundancy)).expect("create");
            store.store(&state, world).expect("store");
            let loaded = store.load_latest().expect("restore");
            assert_eq!(loaded.state.step, state.step);
            // One store and one load on a fresh store: its counters are
            // exactly this cell's.
            let c = store.counters();
            rows.push(CostRow {
                world,
                redundancy: redundancy_label(redundancy),
                payload_bytes: c.last_payload_bytes,
                bytes_written: c.bytes_written,
                store_ms: c.store_nanos as f64 * 1e-6,
                restore_ms: c.restore_nanos as f64 * 1e-6,
            });
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    rows
}

/// Seeded trials per chaos cell in `BENCH_ckpt.json`.
pub const CHAOS_TRIALS: usize = 12;

/// Chaos-recovery sweep: redundancy × fault rate, `trials` seeded
/// trials each. Stores live in temp directories, removed after each
/// trial.
pub fn chaos_sweep(trials: usize) -> Vec<ChaosRow> {
    let (_, state) = scaled_mesh_state();
    let mut rows = Vec::new();
    for redundancy in [
        Redundancy::None,
        Redundancy::Replicas(1),
        Redundancy::Replicas(2),
        Redundancy::Parity { group: 4 },
    ] {
        for fault_rate in [0.02f64, 0.08] {
            let (mut newest, mut fell_back, mut lost, mut reconstructed) = (0, 0, 0, 0u64);
            for trial in 0..trials {
                let seed = 0xC4A05 ^ (trial as u64) << 8 ^ fault_rate.to_bits();
                let plan = StorageFaultPlan::new(seed)
                    .torn_write_rate(fault_rate)
                    .bit_flip_rate(fault_rate)
                    .delete_rate(fault_rate);
                let dir = scratch(&format!(
                    "chaos-{}-{fault_rate}-{trial}",
                    redundancy_label(redundancy)
                ));
                let mut store = CkptStore::create(
                    StoreConfig::at(&dir).redundancy(redundancy).retention(3).faults(plan),
                )
                .expect("create");
                let mut last = 0;
                for _ in 0..3 {
                    last = store.store(&state, 8).expect("store is fault-transparent");
                }
                match store.load_latest() {
                    Ok(loaded) if loaded.version == last => newest += 1,
                    Ok(_) => fell_back += 1,
                    Err(_) => lost += 1,
                }
                reconstructed += store.counters().shards_reconstructed;
                let _ = std::fs::remove_dir_all(&dir);
            }
            rows.push(ChaosRow {
                redundancy: redundancy_label(redundancy),
                fault_rate,
                trials,
                newest,
                fell_back,
                lost,
                reconstructed,
            });
        }
    }
    rows
}

/// Both sweeps as the `BENCH_ckpt.json` file.
pub fn to_bench_file(cost: &[CostRow], chaos: &[ChaosRow]) -> BenchFile {
    let cost = cost.iter().map(|r| {
        Row::default()
            .num("world", r.world)
            .text("redundancy", &r.redundancy)
            .num("payload_bytes", r.payload_bytes)
            .num("bytes_written", r.bytes_written)
            .fixed("store_ms", r.store_ms, 3)
            .fixed("restore_ms", r.restore_ms, 3)
    });
    let chaos = chaos.iter().map(|r| {
        Row::default()
            .text("redundancy", &r.redundancy)
            .fixed("fault_rate", r.fault_rate, 2)
            .num("trials", r.trials)
            .num("newest", r.newest)
            .num("fell_back", r.fell_back)
            .num("lost", r.lost)
            .num("reconstructed", r.reconstructed)
    });
    BenchFile::Sections {
        header: Row::default(),
        sections: vec![("cost".into(), cost.collect()), ("chaos".into(), chaos.collect())],
    }
}

/// The `repro -- ckptstore` tables; also writes `BENCH_ckpt.json` to
/// the working directory.
pub fn ckptstore_report() -> Vec<Table> {
    let cost = cost_sweep();
    let chaos = chaos_sweep(CHAOS_TRIALS);
    to_bench_file(&cost, &chaos).write("BENCH_ckpt.json");
    let mut t1 = Table::new(
        "Durable checkpoint store: store/restore cost vs world × redundancy (ckptstore)",
        &["world", "redundancy", "payload", "written", "overhead", "store", "restore"],
    );
    for r in &cost {
        t1.push_row(vec![
            r.world.to_string(),
            r.redundancy.clone(),
            format!("{:.2} MiB", r.payload_bytes as f64 / (1 << 20) as f64),
            format!("{:.2} MiB", r.bytes_written as f64 / (1 << 20) as f64),
            format!("{:.2}x", r.bytes_written as f64 / r.payload_bytes as f64),
            format!("{:.1} ms", r.store_ms),
            format!("{:.1} ms", r.restore_ms),
        ]);
    }
    let mut t2 = Table::new(
        "Durable checkpoint store: recovery under storage chaos (ckptstore)",
        &["redundancy", "fault rate", "trials", "newest", "fell back", "lost", "shards rebuilt"],
    );
    for r in &chaos {
        t2.push_row(vec![
            r.redundancy.clone(),
            format!("{:.0}%", r.fault_rate * 100.0),
            r.trials.to_string(),
            r.newest.to_string(),
            r.fell_back.to_string(),
            r.lost.to_string(),
            r.reconstructed.to_string(),
        ]);
    }
    vec![t1, t2]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One cost cell and a handful of chaos trials end to end: the
    /// sweep terminates and redundancy pays off measurably.
    #[test]
    fn sweeps_terminate_and_redundancy_pays_off() {
        let cost = &cost_sweep()[..2];
        assert!(cost.iter().all(|r| r.bytes_written >= r.payload_bytes));
        let chaos = chaos_sweep(3);
        for r in &chaos {
            assert_eq!(r.newest + r.fell_back + r.lost, r.trials, "every trial is accounted for");
        }
        // Replication must strictly beat no redundancy under the same
        // fault schedule (same seeds): strictly fewer lost trials or at
        // least as many newest-version recoveries.
        let none: usize = chaos.iter().filter(|r| r.redundancy == "none").map(|r| r.newest).sum();
        let k2: usize =
            chaos.iter().filter(|r| r.redundancy == "replicas k=2").map(|r| r.newest).sum();
        assert!(k2 >= none, "redundancy cannot make recovery worse: k2 {k2} vs none {none}");
    }
}
