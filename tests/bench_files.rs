//! The committed `BENCH_*.json` files are checked, not only written:
//! each test regenerates a file's rows with the `fg-bench` experiment
//! functions `repro` runs, maps them to rows as `repro` does, and
//! compares them with the committed file, read through the same
//! `fg_bench::bench_file` module that writes it. Every field is compared
//! as the text the file holds, except the wall-clock ones, which time
//! the machine, not the experiment; they must be present but are not
//! compared:
//!
//! | file | `repro --` | skipped |
//! |---|---|---|
//! | `BENCH_ckpt.json` | `ckptstore` | `store_ms`, `restore_ms` |
//! | `BENCH_memory.json` | `memscale` | `wall_s` |
//! | `BENCH_simscale.json` | `simscale` | `wall_s`, `events_per_sec` |
//! | `BENCH_stragglers.json` | `stragglers` | `wall_s` (every section); `slow_factor` is compared |
//!
//! `BENCH_serving.json` (`repro -- serve`) is written through the same
//! renderer but not checked: its `shed` and `ok` counts depend on how
//! fast the serving tier's threads run, not only on the seeded
//! arrivals, until its `sleep` / `Instant::now` sites move onto an
//! injectable clock (ROADMAP item 10(d)).
//!
//! Each committed file must also render back to its exact text, so it
//! is in the one layout `repro` writes. No row depends on the
//! environment: memscale asks the analyzer for the model's own buffers,
//! without the integrity replay window that `FG_COMM_INTEGRITY` adds to
//! a live world's bound.
//!
//! A change that moves a row re-records the file with `repro -- <exp>`
//! and says why; the comparison does not loosen to let a row pass.

use fg_bench::bench_file::{BenchFile, Row};
use fg_bench::experiments::{ckptstore, memscale, simscale, stragglers};
use fg_perf::Platform;

/// The committed `name`, read through the format's reader.
fn committed(name: &str) -> BenchFile {
    let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let file = BenchFile::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert_eq!(file.render(), text, "{name} is not in the layout repro writes");
    file
}

/// `row` with the value of every `wall` field replaced by `W`.
fn masked(row: &Row, wall: &[&str]) -> Row {
    let mask = |(k, v): &(String, String)| {
        (k.clone(), if wall.contains(&k.as_str()) { "W".into() } else { v.clone() })
    };
    Row(row.0.iter().map(mask).collect())
}

/// The same rows, each with the same keys in the same order and the
/// same value for every key but the `wall` ones.
fn assert_rows_match(what: &str, fresh: &[Row], committed: &[Row], wall: &[&str]) {
    assert!(!committed.is_empty(), "{what}: no committed rows");
    assert_eq!(fresh.len(), committed.len(), "{what}: row count");
    for (i, (new, old)) in fresh.iter().zip(committed).enumerate() {
        assert_eq!(
            masked(new, wall),
            masked(old, wall),
            "{what} row {i}: regenerated (left) vs committed (right)"
        );
    }
}

/// The regenerated `fresh` file matches the committed `name`: the same
/// layout, header and section names, and matching rows.
fn assert_file_matches(name: &str, fresh: &BenchFile, wall: &[&str]) {
    match (fresh, &committed(name)) {
        (BenchFile::Array(new), BenchFile::Array(old)) => assert_rows_match(name, new, old, wall),
        (
            BenchFile::Sections { header: new_header, sections: new },
            BenchFile::Sections { header: old_header, sections: old },
        ) => {
            assert_eq!(new_header, old_header, "{name}: header");
            let names =
                |s: &[(String, Vec<Row>)]| s.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
            assert_eq!(names(new), names(old), "{name}: sections");
            for ((section, new), (_, old)) in new.iter().zip(old) {
                assert_rows_match(&format!("{name} {section}"), new, old, wall);
            }
        }
        _ => panic!("{name}: regenerated and committed layouts differ"),
    }
}

/// The rows of section `name`.
fn section<'a>(file: &'a BenchFile, name: &str) -> &'a [Row] {
    let BenchFile::Sections { sections, .. } = file else { panic!("no section {name}") };
    let found = sections.iter().find(|(n, _)| n == name);
    &found.unwrap_or_else(|| panic!("no section {name}")).1
}

#[test]
fn ckpt_cost_rows_match_the_recorded_ones() {
    let fresh = ckptstore::to_bench_file(&ckptstore::cost_sweep(), &[]);
    let committed = committed("BENCH_ckpt.json");
    let (new, old) = (section(&fresh, "cost"), section(&committed, "cost"));
    assert_rows_match("BENCH_ckpt.json cost", new, old, &["store_ms", "restore_ms"]);
}

#[test]
fn ckpt_chaos_rows_match_the_recorded_ones() {
    let chaos = ckptstore::chaos_sweep(ckptstore::CHAOS_TRIALS);
    let fresh = ckptstore::to_bench_file(&[], &chaos);
    let committed = committed("BENCH_ckpt.json");
    let (new, old) = (section(&fresh, "chaos"), section(&committed, "chaos"));
    assert_rows_match("BENCH_ckpt.json chaos", new, old, &[]);
}

#[test]
fn memory_rows_match_the_recorded_ones() {
    let fresh = memscale::to_bench_file(&memscale::sweep());
    assert_file_matches("BENCH_memory.json", &fresh, &["wall_s"]);
}

#[test]
fn simscale_rows_match_the_recorded_ones() {
    let fresh = simscale::to_bench_file(&simscale::sweep(&Platform::lassen_like()));
    assert_file_matches("BENCH_simscale.json", &fresh, &["wall_s", "events_per_sec"]);
}

#[test]
fn stragglers_rows_match_the_recorded_ones() {
    let (rebalance, eviction, threshold) = stragglers::sweep(&Platform::lassen_like());
    let fresh = stragglers::to_bench_file(&rebalance, &eviction, &threshold);
    assert_file_matches("BENCH_stragglers.json", &fresh, &["wall_s"]);
}
