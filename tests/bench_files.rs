//! The committed `BENCH_*.json` files are checked, not only written:
//! each test regenerates a file's rows with the `fg-bench` experiment
//! functions `repro` runs, renders them as `repro` does, and compares
//! every deterministic field with the committed file exactly.
//!
//! `BENCH_ckpt.json` (`repro -- ckptstore`): the cost rows' `world`,
//! `redundancy`, `payload_bytes` and `bytes_written`, and the chaos
//! rows' `redundancy`, `fault_rate`, `trials`, `newest`, `fell_back`,
//! `lost` and `reconstructed`. The wall-clock fields `store_ms` and
//! `restore_ms` time the machine, not the store, and are skipped.
//!
//! A change that moves a row re-records the file with `repro -- <exp>`
//! and says why; the comparison does not loosen to let a row pass.

use fg_bench::experiments::ckptstore::{chaos_sweep, cost_sweep, to_json, CHAOS_TRIALS};

/// One row: its `(key, value)` pairs in file order, string values
/// unquoted.
type Row = Vec<(String, String)>;

/// The rows of `section` in a `BENCH_*.json` text, which writes one row
/// per line and no `", "` inside a value.
fn rows(text: &str, section: &str) -> Vec<Row> {
    let head = format!("\"{section}\": [");
    text.lines()
        .skip_while(|l| l.trim() != head)
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with(']'))
        .map(|l| {
            let body = l.trim().trim_end_matches(',').trim_start_matches('{').trim_end_matches('}');
            body.split(", ")
                .map(|kv| {
                    let (k, v) = kv.split_once(": ").unwrap_or_else(|| panic!("bad field {kv:?}"));
                    (k.trim_matches('"').to_string(), v.trim_matches('"').to_string())
                })
                .collect()
        })
        .collect()
}

/// Compare `section` of the regenerated text with the committed file:
/// the same rows, each with exactly the `exact` fields equal and the
/// `wall` fields present but not compared.
fn assert_rows_match(fresh: &str, committed: &str, section: &str, exact: &[&str], wall: &[&str]) {
    let (fresh, committed) = (rows(fresh, section), rows(committed, section));
    assert!(!committed.is_empty(), "BENCH_ckpt.json has no {section} rows");
    assert_eq!(fresh.len(), committed.len(), "{section}: row count");
    for (i, (new, old)) in fresh.iter().zip(&committed).enumerate() {
        let keys = |row: &Row| row.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
        let mut want: Vec<String> = exact.iter().chain(wall).map(|k| k.to_string()).collect();
        want.sort();
        for row in [new, old] {
            let mut got = keys(row);
            got.sort();
            assert_eq!(got, want, "{section} row {i}: fields");
        }
        for key in exact {
            let value = |row: &Row| row.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone());
            assert_eq!(
                value(new),
                value(old),
                "{section} row {i} ({key}): regenerated vs committed\n  new: {new:?}\n  old: {old:?}"
            );
        }
    }
}

fn committed_ckpt() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_ckpt.json");
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn ckpt_cost_rows_match_the_recorded_ones() {
    let fresh = to_json(&cost_sweep(), &[]);
    assert_rows_match(
        &fresh,
        &committed_ckpt(),
        "cost",
        &["world", "redundancy", "payload_bytes", "bytes_written"],
        &["store_ms", "restore_ms"],
    );
}

#[test]
fn ckpt_chaos_rows_match_the_recorded_ones() {
    let fresh = to_json(&[], &chaos_sweep(CHAOS_TRIALS));
    assert_rows_match(
        &fresh,
        &committed_ckpt(),
        "chaos",
        &["redundancy", "fault_rate", "trials", "newest", "fell_back", "lost", "reconstructed"],
        &[],
    );
}
