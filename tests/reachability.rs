//! Tripwire for fully orphaned library modules. For every `pub mod m;`
//! in a `crates/*/src/lib.rs`, some `.rs` file under `crates/`, `src/`
//! or `tests/` — other than the module's own file(s) and its crate's
//! `lib.rs` — must name `m::` or one of the names `lib.rs` re-exports
//! from `m`, outside a comment. A module that only its own tests or
//! `examples/` reach fails here: lift it into a live path or delete it.
//! This is a textual check, not a dead-code analysis; it says nothing
//! about unused items inside a module that something reaches.

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

#[test]
fn every_public_module_is_reached_from_outside_itself() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests"] {
        rust_files(&root.join(dir), &mut files);
    }
    files.sort();
    let sources: Vec<(PathBuf, String)> = files
        .into_iter()
        .map(|p| {
            let text = fs::read_to_string(&p).expect("readable source file");
            let code: Vec<&str> =
                text.lines().filter(|l| !l.trim_start().starts_with("//")).collect();
            (p, code.join("\n"))
        })
        .collect();

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
