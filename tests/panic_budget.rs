//! A panic budget that only goes down.
//!
//! Library code should return typed errors, not panic. This test counts,
//! per crate, the occurrences of `unwrap()`, `expect(`, `panic!` and
//! `unreachable!` on the non-comment lines of every `.rs` file under
//! `crates/*/src`, above that file's first `#[cfg(test)]` line, and
//! compares them with [`BUDGET`]. The counting method is the contract:
//! it is textual, so a pattern inside a string literal counts too.
//!
//! A count above its budget is a new panic site: return a typed error
//! instead. A count below it is a conversion: lower the budget in the
//! same change, so the site cannot come back unnoticed.
//!
//! Out of scope, and not counted:
//! * `CommError` unwinds raised with `std::panic::panic_any` and caught
//!   at the rank boundary: they are the fault model's control flow (the
//!   panic hook in `fg-comm`'s `runtime.rs`).
//! * `assert!` / `assert_eq!` / `debug_assert!`: invariant checks that
//!   mutation tests rely on, such as the executor's window-size check,
//!   are contracts, not error handling.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// The committed per-crate budget, every crate under `crates/` listed.
const BUDGET: [(&str, usize); 10] = [
    ("bench", 30),
    ("comm", 18),
    ("core", 50),
    ("data", 0),
    ("kernels", 2),
    ("models", 0),
    ("nn", 17),
    ("perf", 4),
    ("serve", 27),
    ("tensor", 0),
];

/// The panicking forms counted.
const PANIC_FORMS: [&str; 4] = ["unwrap()", "expect(", "panic!", "unreachable!"];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Panic forms on the non-comment lines of `text` above its first
/// `#[cfg(test)]`.
fn panic_sites(text: &str) -> usize {
    text.lines()
        .map(str::trim_start)
        .take_while(|l| !l.starts_with("#[cfg(test)]"))
        .filter(|l| !l.starts_with("//"))
        .map(|l| PANIC_FORMS.iter().map(|form| l.matches(form).count()).sum::<usize>())
        .sum()
}

#[test]
fn panic_sites_stay_within_the_committed_budget() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut counts = BTreeMap::new();
    for entry in fs::read_dir(root.join("crates")).expect("readable crates directory") {
        let krate = entry.expect("directory entry").path();
        let mut files = Vec::new();
        rust_files(&krate.join("src"), &mut files);
        let sites: usize = files
            .iter()
            .map(|f| panic_sites(&fs::read_to_string(f).expect("readable source file")))
            .sum();
        let name = krate.file_name().expect("crate directory name").to_string_lossy();
        counts.insert(name.into_owned(), sites);
    }
    let budget: BTreeMap<String, usize> = BUDGET.iter().map(|&(c, n)| (c.to_owned(), n)).collect();
    let table: String = counts.iter().map(|(c, n)| format!("    (\"{c}\", {n}),\n")).collect();
    assert_eq!(
        counts, budget,
        "panic sites per crate differ from the committed budget: remove a new site, or lower \
         the budget to the new counts:\n{table}"
    );
}

#[test]
fn comments_and_test_modules_are_not_counted() {
    let text = "fn f() { x.unwrap(); y.expect(\"e\"); }\n\
                // z.unwrap(); panic!()\n\
                \x20   /// unreachable!()\n\
                fn g() { panic!(\"p\"); unreachable!(); a.unwrap_or(0); }\n\
                #[cfg(test)]\n\
                mod tests { fn h() { q.unwrap(); } }\n";
    assert_eq!(panic_sites(text), 4);
}
