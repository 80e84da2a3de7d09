//! Tripwires for orphaned library code, at two grains.
//!
//! * Modules: for every `pub mod m;` in a `crates/*/src/lib.rs`, some
//!   `.rs` file under `crates/`, `src/` or `tests/` — other than the
//!   module's own file(s) and its crate's `lib.rs` — must name `m::` or
//!   one of the names `lib.rs` re-exports from `m`, outside a comment. A
//!   module that only its own tests or `examples/` reach fails here.
//! * Functions and methods: for every `pub fn f` under `crates/*/src`,
//!   at column 0 or indented, some other `.rs` file under `crates/`,
//!   `src/`, `tests/`, `examples/` or `benchmark/src/` must name `f`
//!   outside a comment and outside a `pub use`. A function only its own
//!   file calls should not be `pub`; one only its own tests call should
//!   not exist. Types and consts are not checked.
//!
//! Both are textual checks, not a dead-code analysis: a name shared with
//! an unrelated item elsewhere counts as reached.

use std::fs;
use std::path::{Path, PathBuf};

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

fn ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// `name` occurs in `code` as a whole identifier directly followed by `then`.
fn mentions(code: &str, name: &str, then: &str) -> bool {
    code.match_indices(name).any(|(i, _)| {
        let rest = &code[i + name.len()..];
        !code[..i].ends_with(ident) && !rest.starts_with(ident) && rest.starts_with(then)
    })
}

/// Every `.rs` file under `dirs`, sorted, with whole-line comments
/// dropped.
fn sources(root: &Path, dirs: &[&str]) -> Vec<(PathBuf, String)> {
    let mut files = Vec::new();
    for dir in dirs {
        rust_files(&root.join(dir), &mut files);
    }
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let text = fs::read_to_string(&p).expect("readable source file");
            let code: Vec<&str> =
                text.lines().filter(|l| !l.trim_start().starts_with("//")).collect();
            (p, code.join("\n"))
        })
        .collect()
}

/// `code` with every `pub use …;` / `pub(crate) use …;` item cut out.
fn without_reexports(code: &str) -> String {
    let mut out = String::with_capacity(code.len());
    let mut rest = code;
    while let Some(i) =
        ["pub use ", "pub(crate) use "].iter().filter_map(|item| rest.find(item)).min()
    {
        out.push_str(&rest[..i]);
        rest = rest[i..].split_once(';').map_or("", |(_, after)| after);
    }
    out.push_str(rest);
    out
}

#[test]
fn every_public_module_is_reached_from_outside_itself() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let sources = sources(root, &["crates", "src", "tests"]);

    let mut orphans = Vec::new();
    for (lib, lib_code) in sources.iter().filter(|(p, _)| p.ends_with("src/lib.rs")) {
        let src = lib.parent().expect("lib.rs has a parent");
        for module in lib_code.lines().filter_map(|l| l.strip_prefix("pub mod ")?.strip_suffix(';'))
        {
            let reexports: Vec<&str> = lib_code
                .split_once(&format!("pub use {module}::"))
                .map_or("", |(_, rest)| rest.split(';').next().unwrap_or(""))
                .split(|c| !ident(c))
                .filter(|name| !name.is_empty())
                .collect();
            let reached = sources.iter().any(|(p, code)| {
                p != lib
                    && *p != src.join(format!("{module}.rs"))
                    && !p.starts_with(src.join(module))
                    && (mentions(code, module, "::")
                        || reexports.iter().any(|name| mentions(code, name, "")))
            });
            if !reached {
                let lib = lib.strip_prefix(root).expect("under the repository root");
                orphans.push(format!("{}: {module}", lib.display()));
            }
        }
    }
    assert!(
        orphans.is_empty(),
        "library modules nothing outside themselves reaches (lift or delete): {orphans:#?}"
    );
}

#[test]
fn every_public_fn_is_named_outside_its_own_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let sources: Vec<(PathBuf, String)> =
        sources(root, &["crates", "src", "tests", "examples", "benchmark/src"])
            .into_iter()
            .map(|(p, code)| (p, without_reexports(&code)))
            .collect();
    let crate_src = root.join("crates");
    let mut unreached = Vec::new();
    for (file, code) in &sources {
        let in_crate_src = file
            .strip_prefix(&crate_src)
            .is_ok_and(|rel| rel.iter().nth(1) == Some("src".as_ref()));
        if !in_crate_src {
            continue;
        }
        for line in code.lines() {
            let Some(name) = line.trim_start().strip_prefix("pub fn ") else {
                continue;
            };
            let name: String = name.chars().take_while(|&c| ident(c)).collect();
            let reached =
                sources.iter().any(|(other, code)| other != file && mentions(code, &name, ""));
            if !reached {
                let file = file.strip_prefix(root).expect("under the repository root");
                unreached.push(format!("{}: {name}", file.display()));
            }
        }
    }
    assert!(
        unreached.is_empty(),
        "public functions nothing outside their own file names (drop `pub`, or delete one \
         only its own tests call): {unreached:#?}"
    );
}
