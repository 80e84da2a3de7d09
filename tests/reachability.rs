//! Tripwires for orphaned library code, at five grains.
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
//!   not exist.
//! * Consts and statics: the same rule for every `pub const` and
//!   `pub static` under `crates/*/src`. Types are not checked.
//! * Config fields: for every `pub` field of a `pub struct …Config` or
//!   `pub struct …Options` under `crates/*/src`, some other file under
//!   the same five directories must write it as `field:` (not
//!   `field::`) outside a comment. A value no caller outside its file
//!   sets is a named const, not a knob.
//! * Enum variants: every variant `V` of a `pub enum E` under
//!   `crates/*/src` must be built as `E::V` somewhere in non-test code —
//!   a file under the same five directories, outside any `tests/`
//!   directory, up to its first `#[cfg(test)]` line. A mention followed,
//!   after an optional `(..)` / `{..}` payload, by `=>`, `|` or a lone
//!   `=` is a pattern and does not count: a mode only matched on, never
//!   chosen, is a mode nothing runs. A `#[default]` variant is built by
//!   its derived `Default`.
//!
//! All are textual checks, not a dead-code analysis: a name shared with
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

/// `code` writes the field `name`: `name:` as a whole identifier, not `name::`.
fn sets(code: &str, name: &str) -> bool {
    code.match_indices(name).any(|(i, _)| {
        let rest = &code[i + name.len()..];
        !code[..i].ends_with(ident) && rest.starts_with(':') && !rest.starts_with("::")
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

/// The directories whose files may reach an item under `crates/*/src`.
const CALLER_DIRS: [&str; 5] = ["crates", "src", "tests", "examples", "benchmark/src"];

/// Whether `file` lies under some `crates/*/src`.
fn in_crate_src(root: &Path, file: &Path) -> bool {
    file.strip_prefix(root.join("crates"))
        .is_ok_and(|rel| rel.iter().nth(1) == Some("src".as_ref()))
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

/// Every item under `crates/*/src` declared by a line starting with one
/// of `prefixes` that no other file names outside a comment and a
/// `pub use`, as `file: name`.
fn unreached_items(prefixes: &[&str]) -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let sources: Vec<(PathBuf, String)> = sources(root, &CALLER_DIRS)
        .into_iter()
        .map(|(p, code)| (p, without_reexports(&code)))
        .collect();
    let mut unreached = Vec::new();
    for (file, code) in sources.iter().filter(|(file, _)| in_crate_src(root, file)) {
        for line in code.lines() {
            let line = line.trim_start();
            let Some(name) = prefixes.iter().find_map(|p| line.strip_prefix(p)) else {
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
    unreached
}

#[test]
fn every_public_fn_is_named_outside_its_own_file() {
    let unreached = unreached_items(&["pub fn "]);
    assert!(
        unreached.is_empty(),
        "public functions nothing outside their own file names (drop `pub`, or delete one \
         only its own tests call): {unreached:#?}"
    );
}

#[test]
fn every_public_const_is_named_outside_its_own_file() {
    // `pub const fn` is a function, checked by the grain above.
    let unreached: Vec<String> = unreached_items(&["pub const ", "pub static "])
        .into_iter()
        .filter(|item| !item.ends_with(": fn"))
        .collect();
    assert!(
        unreached.is_empty(),
        "public consts and statics nothing outside their own file names (drop `pub`, or \
         delete one nothing reads): {unreached:#?}"
    );
}

#[test]
fn every_public_config_field_is_set_outside_its_own_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let sources = sources(root, &CALLER_DIRS);
    let mut unset = Vec::new();
    for (file, code) in sources.iter().filter(|(file, _)| in_crate_src(root, file)) {
        let mut lines = code.lines().map(str::trim_start);
        while let Some(line) = lines.next() {
            let Some(ty) = line.strip_prefix("pub struct ") else {
                continue;
            };
            let ty: String = ty.chars().take_while(|&c| ident(c)).collect();
            if !(ty.ends_with("Config") || ty.ends_with("Options")) || !line.ends_with('{') {
                continue;
            }
            for field in lines.by_ref().take_while(|l| !l.starts_with('}')) {
                let Some(name) = field.strip_prefix("pub ") else {
                    continue;
                };
                let name: String = name.chars().take_while(|&c| ident(c)).collect();
                let set = sources.iter().any(|(other, code)| other != file && sets(code, &name));
                if !set {
                    let file = file.strip_prefix(root).expect("under the repository root");
                    unset.push(format!("{}: {ty}::{name}", file.display()));
                }
            }
        }
    }
    assert!(
        unset.is_empty(),
        "public config fields no other file sets (make the value a named const): {unset:#?}"
    );
}

/// `(enum, variant)` for every variant of every `pub enum` in `code`:
/// the identifier opening each line of the body at its own depth. A
/// `#[default]` variant is left out: the derived `Default` builds it.
fn enum_variants(code: &str) -> Vec<(String, String)> {
    let mut variants = Vec::new();
    let mut lines = code.lines().map(str::trim);
    while let Some(line) = lines.next() {
        let Some(ty) = line.strip_prefix("pub enum ") else {
            continue;
        };
        let ty: String = ty.chars().take_while(|&c| ident(c)).collect();
        let (mut depth, mut default) = (0i64, false);
        for line in lines.by_ref() {
            if depth == 0 && line.starts_with('}') {
                break;
            }
            if line.starts_with('#') {
                default |= line == "#[default]";
                continue;
            }
            let name: String = line.chars().take_while(|&c| ident(c)).collect();
            if depth == 0 && !name.is_empty() && !std::mem::take(&mut default) {
                variants.push((ty.clone(), name));
            }
            depth += line.chars().filter(|c| matches!(c, '{' | '(')).count() as i64
                - line.chars().filter(|c| matches!(c, '}' | ')')).count() as i64;
        }
    }
    variants
}

/// `rest` past a leading `(..)` or `{..}` payload, if it has one.
fn after_payload(rest: &str) -> &str {
    if !rest.starts_with(['(', '{']) {
        return rest;
    }
    let mut depth = 0;
    for (i, c) in rest.char_indices() {
        match c {
            '(' | '{' | '[' => depth += 1,
            ')' | '}' | ']' => depth -= 1,
            _ => {}
        }
        if depth == 0 {
            return &rest[i + 1..];
        }
    }
    ""
}

/// `code` names `path` (`Enum::Variant`) as a whole identifier somewhere
/// that is not a pattern.
fn builds(code: &str, path: &str) -> bool {
    code.match_indices(path).any(|(i, _)| {
        let rest = &code[i + path.len()..];
        if code[..i].ends_with(ident) || rest.starts_with(ident) {
            return false;
        }
        let rest = after_payload(rest.trim_start()).trim_start();
        !(rest.starts_with("=>")
            || rest.starts_with('|')
            || rest.starts_with('=') && !rest.starts_with("=="))
    })
}

#[test]
fn every_public_enum_variant_is_built_outside_tests() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let non_test: Vec<(PathBuf, String)> = sources(root, &CALLER_DIRS)
        .into_iter()
        .filter(|(p, _)| !p.strip_prefix(root).is_ok_and(|rel| rel.iter().any(|c| c == "tests")))
        .map(|(p, code)| {
            let code: Vec<&str> =
                code.lines().take_while(|l| !l.trim_start().starts_with("#[cfg(test)]")).collect();
            (p, code.join("\n"))
        })
        .collect();
    let mut unbuilt = Vec::new();
    for (file, code) in non_test.iter().filter(|(file, _)| in_crate_src(root, file)) {
        for (ty, variant) in enum_variants(code) {
            let path = format!("{ty}::{variant}");
            if !non_test.iter().any(|(_, code)| builds(code, &path)) {
                let file = file.strip_prefix(root).expect("under the repository root");
                unbuilt.push(format!("{}: {path}", file.display()));
            }
        }
    }
    assert!(
        unbuilt.is_empty(),
        "public enum variants no non-test code builds (delete the mode, or give it a caller): \
         {unbuilt:#?}"
    );
}
