//! Tripwires for orphaned library code, at six grains.
//!
//! * Modules: for every `pub mod m;` in a `crates/*/src/lib.rs`, some
//!   `.rs` file under `crates/`, `src/` or `tests/` — other than the
//!   module's own file(s) and its crate's `lib.rs` — must name `m::` or
//!   one of the names `lib.rs` re-exports from `m`, outside a comment. A
//!   module that only its own tests or `examples/` reach fails here.
//! * Functions and methods: for every `pub fn f` under `crates/*/src`,
//!   at column 0 or indented, some other `.rs` file under `crates/`,
//!   `src/`, `tests/`, `examples/` or `benchmark/src/` must call or
//!   path `f` — `f(`, `f::<`, `.f` or `::f` — outside a comment and
//!   outside a `pub use`; a field, local or word that happens to share
//!   the name does not reach it. A function only its own file calls
//!   should not be `pub`; one only its own tests call should not exist.
//! * Consts and statics: the same rule for every `pub const` and
//!   `pub static` under `crates/*/src`, where any mention counts.
//! * Types: for every `pub struct`, `pub enum`, `pub trait` and
//!   `pub type` under `crates/*/src`, some other file under the same
//!   five directories must name it outside a comment and a `pub use`,
//!   or its own file must carry it in its public surface — a `pub fn`
//!   signature, a `pub` field, a `pub trait`'s or `pub enum`'s body, a
//!   `pub type` — outside the type's own definition and `impl` blocks:
//!   a type a reachable API takes or returns has to stay public.
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
//! an unrelated item elsewhere counts as reached, unless that item is a
//! function of the same name — `fn name` is a definition, not a use.

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

/// Every occurrence of `name` in `code` as a whole identifier, and not as
/// the name a `fn` defines, as `(code before, code after)`.
fn uses<'a>(code: &'a str, name: &'a str) -> impl Iterator<Item = (&'a str, &'a str)> {
    code.match_indices(name).map(|(i, _)| (&code[..i], &code[i + name.len()..])).filter(
        |(before, rest)| {
            let defines = before.strip_suffix("fn ").is_some_and(|b| !b.ends_with(ident));
            !before.ends_with(ident) && !defines && !rest.starts_with(ident)
        },
    )
}

/// `name` is used in `code` directly followed by `then`.
fn mentions(code: &str, name: &str, then: &str) -> bool {
    uses(code, name).any(|(_, rest)| rest.starts_with(then))
}

/// `code` calls `name` or names it as a path: `name(`, `name::<`,
/// `.name` or `::name`.
fn calls(code: &str, name: &str) -> bool {
    uses(code, name).any(|(before, rest)| {
        rest.starts_with('(')
            || rest.starts_with("::<")
            || before.ends_with('.')
            || before.ends_with("::")
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

/// Every item declared, in a file of `sources` that `declares` picks, by
/// a line starting with one of `prefixes` that no other file of `sources`
/// `reaches` (`reaches(code, name)`), as `(file, name)`.
fn unreached_among<'a>(
    sources: &'a [(PathBuf, String)],
    declares: impl Fn(&Path) -> bool,
    prefixes: &[&str],
    reaches: fn(&str, &str) -> bool,
) -> Vec<(&'a Path, String)> {
    let mut unreached = Vec::new();
    for (file, code) in sources.iter().filter(|(file, _)| declares(file)) {
        for line in code.lines() {
            let line = line.trim_start();
            let Some(name) = prefixes.iter().find_map(|p| line.strip_prefix(p)) else {
                continue;
            };
            let name: String = name.chars().take_while(|&c| ident(c)).collect();
            let reached = sources.iter().any(|(other, code)| other != file && reaches(code, &name));
            if !reached {
                unreached.push((file.as_path(), name));
            }
        }
    }
    unreached
}

/// Every item under `crates/*/src` declared by a line starting with one
/// of `prefixes` that no other file `reaches` outside a comment and a
/// `pub use`, as `file: name`.
fn unreached_items(prefixes: &[&str], reaches: fn(&str, &str) -> bool) -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let sources: Vec<(PathBuf, String)> = sources(root, &CALLER_DIRS)
        .into_iter()
        .map(|(p, code)| (p, without_reexports(&code)))
        .collect();
    unreached_among(&sources, |file| in_crate_src(root, file), prefixes, reaches)
        .into_iter()
        .map(|(file, name)| {
            let file = file.strip_prefix(root).expect("under the repository root");
            format!("{}: {name}", file.display())
        })
        .collect()
}

/// The call rule on two files: a private function of the same name in
/// another file defines the name, and a field of the same name only
/// shares it, so both leave a `pub fn` unreached; a call or a path
/// reaches it.
#[test]
fn a_same_named_fn_elsewhere_does_not_reach_a_public_fn() {
    let library = PathBuf::from("crates/table/src/lib.rs");
    let files = |other: &str| {
        vec![
            (library.clone(), "pub fn fmt_bytes(n: u64) -> String {\n    n.to_string()\n}".into()),
            (PathBuf::from("crates/report/src/memscale.rs"), other.to_string()),
        ]
    };
    let in_library = |file: &Path| file == library;
    let reached =
        |other: &str| unreached_among(&files(other), in_library, &["pub fn "], calls).is_empty();
    for shares in [
        "fn fmt_bytes(n: u64) -> String {\n    format!(\"{n} B\")\n}",
        "struct Row {\n    fmt_bytes: u64,\n}",
    ] {
        assert!(!reached(shares), "{shares}");
    }
    for reaches in ["let text = table::fmt_bytes(4096);", "let f = table::fmt_bytes;"] {
        assert!(reached(reaches), "{reaches}");
    }
}

#[test]
fn every_public_fn_is_named_outside_its_own_file() {
    let unreached = unreached_items(&["pub fn "], calls);
    assert!(
        unreached.is_empty(),
        "public functions nothing outside their own file names (drop `pub`, or delete one \
         only its own tests call): {unreached:#?}"
    );
}

#[test]
fn every_public_const_is_named_outside_its_own_file() {
    // `pub const fn` is a function, checked by the grain above.
    let unreached: Vec<String> =
        unreached_items(&["pub const ", "pub static "], |code, name| mentions(code, name, ""))
            .into_iter()
            .filter(|item| !item.ends_with(": fn"))
            .collect();
    assert!(
        unreached.is_empty(),
        "public consts and statics nothing outside their own file names (drop `pub`, or \
         delete one nothing reads): {unreached:#?}"
    );
}

/// The type an item opener names: the `Foo` of `pub struct Foo<T>`,
/// `impl<T> Foo<T>` or `impl fmt::Display for Foo`. `head` is the opener
/// without its keyword(s).
fn named_type(head: &str) -> &str {
    let ty = match head.split_once(" for ") {
        Some((_, ty)) => ty,
        // Skip `impl`'s generic parameters.
        None if head.starts_with('<') => head.split_once("> ").map_or("", |(_, ty)| ty),
        None => head,
    };
    let path = ty.trim_start().split(|c: char| !(ident(c) || c == ':')).next().unwrap_or("");
    path.rsplit("::").next().unwrap_or("")
}

/// What a caller outside `code` sees of it, as `(owner, text)`: every
/// `pub fn` signature, `pub type` definition and `pub` field, up to the
/// `{` or `;` that ends it, and every line of a `pub trait` or `pub enum`
/// body. `owner` is the type whose definition or `impl` block the text
/// lies in (empty outside one): a type's own methods and fields reach
/// only callers that can already name it, so they do not keep it public.
fn public_surface(code: &str) -> Vec<(&str, &str)> {
    const OPENERS: [&str; 5] = ["pub struct ", "pub enum ", "pub trait ", "impl<", "impl "];
    let mut surface = Vec::new();
    // The open item body: (its indent, whether every line is surface, owner).
    let mut open: Option<(usize, bool, &str)> = None;
    let mut at = 0;
    for line in code.lines() {
        let body = line.trim_start();
        let indent = line.len() - body.len();
        let rest = &code[at + indent..];
        let item = &rest[..rest.find(['{', ';']).unwrap_or(rest.len())];
        at += line.len() + 1;
        let field = body.strip_prefix("pub ").is_some_and(|f| {
            let rest = f.trim_start_matches(ident);
            rest.len() < f.len() && rest.starts_with(':') && !rest.starts_with("::")
        });
        if open.is_some_and(|(i, ..)| i == indent) && body.starts_with('}') {
            open = None;
        } else if let Some(opener) = OPENERS.iter().find(|o| body.starts_with(**o)) {
            if body.ends_with('{') {
                let whole = matches!(*opener, "pub trait " | "pub enum ");
                open = Some((indent, whole, named_type(&item[opener.len() - 1..])));
            }
        } else if open.is_some_and(|(_, whole, _)| whole) {
            surface.push((open.map_or("", |(.., owner)| owner), body));
        } else if body.starts_with("pub fn ") || field {
            surface.push((open.map_or("", |(.., owner)| owner), item));
        } else if let Some(alias) = body.strip_prefix("pub type ") {
            surface.push((named_type(alias), item));
        }
    }
    surface
}

/// Every type declared in a file of `sources` that `declares` picks that
/// no other file names and no public surface of its own file carries
/// outside the type's own definition and `impl` blocks.
fn unreached_types(
    sources: &[(PathBuf, String)],
    declares: impl Fn(&Path) -> bool,
) -> Vec<(&Path, String)> {
    let named = |code: &str, name: &str| mentions(code, name, "");
    let prefixes = ["pub struct ", "pub enum ", "pub trait ", "pub type "];
    unreached_among(sources, declares, &prefixes, named)
        .into_iter()
        .filter(|(file, name)| {
            let (_, code) = sources.iter().find(|(p, _)| p == file).expect("a scanned file");
            !public_surface(code).iter().any(|&(owner, text)| owner != name && named(text, name))
        })
        .collect()
}

/// The surface rule on one file: a type a public signature or a public
/// field of another type carries stays public; one that only its own
/// methods, or a private function, mention does not.
#[test]
fn a_type_only_its_own_impl_carries_is_unreached() {
    let library = PathBuf::from("crates/data/src/mesh.rs");
    let unreached = |code: &str| {
        let files = vec![(library.clone(), code.to_string())];
        unreached_types(&files, |_| true).into_iter().map(|(_, name)| name).collect::<Vec<_>>()
    };
    let own_impl = "pub struct Noise {\n    seed: u64,\n}\n\nimpl Noise {\n    \
                    pub fn new(seed: u64) -> Noise {\n        Noise { seed }\n    }\n}\n\n\
                    fn sample(seed: u64) -> f32 {\n    Noise::new(seed).seed as f32\n}";
    assert_eq!(unreached(own_impl), ["Noise"]);
    let carried = [
        "pub fn noise(seed: u64) -> Noise {",
        "pub struct Field {\n    pub noise: Noise,\n}",
        "pub enum Source {\n    Coarse(Noise),\n}",
        "pub type Made = Result<Noise, String>;",
    ];
    for carrier in carried {
        let code = format!("pub struct Noise {{\n    seed: u64,\n}}\n\n{carrier}");
        let left = unreached(&code);
        assert!(!left.contains(&"Noise".to_string()), "{carrier}: {left:?}");
    }
}

#[test]
fn every_public_type_is_named_outside_its_own_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let sources: Vec<(PathBuf, String)> = sources(root, &CALLER_DIRS)
        .into_iter()
        .map(|(p, code)| (p, without_reexports(&code)))
        .collect();
    let unreached: Vec<String> = unreached_types(&sources, |file| in_crate_src(root, file))
        .into_iter()
        .map(|(file, name)| {
            let file = file.strip_prefix(root).expect("under the repository root");
            format!("{}: {name}", file.display())
        })
        .collect();
    assert!(
        unreached.is_empty(),
        "public types nothing outside their own file names and no public signature or field \
         there carries (drop `pub`, or delete one nothing uses): {unreached:#?}"
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
