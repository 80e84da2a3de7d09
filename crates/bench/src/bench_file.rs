//! The `BENCH_*.json` format, written and read in one place.
//!
//! Each experiment maps its row struct to a [`Row`] of
//! `(key, rendered value)` pairs at its own precision; this module owns
//! the rest: the layout (one row per line, in a top-level array or in
//! named sections after header scalars), the write, and the reader
//! `tests/bench_files.rs` compares the committed files with. Values are
//! rendered once and compared as text, so "equal" means "the same
//! digits in the file".

use std::fmt::Display;

/// One row, or a file's header scalars: `(key, rendered JSON value)`
/// pairs in file order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Row(pub Vec<(String, String)>);

impl Row {
    /// Append a string field. The experiments' labels never hold `"`,
    /// `\` or `, `.
    pub fn text(mut self, key: &str, value: &str) -> Row {
        self.0.push((key.to_string(), format!("\"{value}\"")));
        self
    }

    /// Append a field rendered by `Display`: an integer, a boolean, or
    /// a float at its shortest round-trip digits.
    pub fn num(mut self, key: &str, value: impl Display) -> Row {
        self.0.push((key.to_string(), value.to_string()));
        self
    }

    /// Append a float with `digits` decimals.
    pub fn fixed(mut self, key: &str, value: f64, digits: usize) -> Row {
        self.0.push((key.to_string(), format!("{value:.digits$}")));
        self
    }

    fn render(&self) -> String {
        let fields: Vec<String> = self.0.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A whole `BENCH_*.json` file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BenchFile {
    /// A top-level array of rows.
    Array(Vec<Row>),
    /// An object: header scalars, then named row sections.
    Sections {
        /// Scalar fields ahead of the sections.
        header: Row,
        /// `(name, rows)` per section, in file order.
        sections: Vec<(String, Vec<Row>)>,
    },
}

impl BenchFile {
    /// The file's text.
    pub fn render(&self) -> String {
        let rows = |rows: &[Row], indent: &str| {
            let lines: Vec<String> =
                rows.iter().map(|r| format!("{indent}{}", r.render())).collect();
            lines.join(",\n") + if rows.is_empty() { "" } else { "\n" }
        };
        match self {
            BenchFile::Array(r) => format!("[\n{}]\n", rows(r, "  ")),
            BenchFile::Sections { header, sections } => {
                let scalars = header.0.iter().map(|(k, v)| format!("  \"{k}\": {v}"));
                let named =
                    sections.iter().map(|(k, r)| format!("  \"{k}\": [\n{}  ]", rows(r, "    ")));
                format!("{{\n{}\n}}\n", scalars.chain(named).collect::<Vec<_>>().join(",\n"))
            }
        }
    }

    /// Write the file to `path`; a failure is a warning, since the
    /// experiment's table is its primary output.
    pub fn write(&self, path: &str) {
        if let Err(e) = std::fs::write(path, self.render()) {
            eprintln!("warning: could not write {path}: {e}");
        }
    }

    /// Read a file [`BenchFile::render`] wrote. The reader is lenient
    /// about layout; rendering the result back to the same text is the
    /// layout check.
    pub fn parse(text: &str) -> Result<BenchFile, String> {
        let (mut array, mut header) = (vec![], Row::default());
        let mut sections: Vec<(String, Vec<Row>)> = vec![];
        for line in text.lines().map(|l| l.trim().trim_end_matches(',')) {
            if let Some(body) = line.strip_prefix('{').and_then(|b| b.strip_suffix('}')) {
                let row = Row(body.split(", ").map(field).collect::<Result<_, _>>()?);
                match sections.last_mut() {
                    Some((_, rows)) => rows.push(row),
                    None => array.push(row),
                }
            } else if !matches!(line, "[" | "]" | "{" | "}") {
                let (key, value) = field(line)?;
                match value.as_str() {
                    "[" => sections.push((key, vec![])),
                    _ => header.0.push((key, value)),
                }
            }
        }
        if text.starts_with('[') {
            Ok(BenchFile::Array(array))
        } else {
            Ok(BenchFile::Sections { header, sections })
        }
    }
}

/// One `"key": value` pair: the key unquoted, the value as written.
fn field(text: &str) -> Result<(String, String), String> {
    let (k, v) = text.split_once(": ").ok_or_else(|| format!("not a field: {text:?}"))?;
    let k = k.strip_prefix('"').and_then(|k| k.strip_suffix('"'));
    Ok((k.ok_or_else(|| format!("unquoted key: {text:?}"))?.to_string(), v.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both layouts render to the exact text the committed files hold,
    /// and read back to the rows that wrote them.
    #[test]
    fn both_layouts_render_as_committed_and_read_back() {
        let row = |i: usize| Row::default().text("m", "x").num("n", i).fixed("wall_s", 0.25, 3);
        let array = BenchFile::Array(vec![row(1), row(2)]);
        let array_text = "[\n  {\"m\": \"x\", \"n\": 1, \"wall_s\": 0.250},\n  \
                          {\"m\": \"x\", \"n\": 2, \"wall_s\": 0.250}\n]\n";
        assert_eq!(array.render(), array_text);
        let header = Row::default().num("slow_factor", 3.0);
        let sections = vec![("a".into(), vec![row(1)]), ("b".into(), vec![])];
        let object = BenchFile::Sections { header, sections };
        let object_text = "{\n  \"slow_factor\": 3,\n  \"a\": [\n    \
                           {\"m\": \"x\", \"n\": 1, \"wall_s\": 0.250}\n  ],\n  \"b\": [\n  ]\n}\n";
        assert_eq!(object.render(), object_text);
        for file in [array, object, BenchFile::Array(vec![])] {
            assert_eq!(BenchFile::parse(&file.render()), Ok(file));
        }
        assert!(BenchFile::parse("[\n  {\"m\" \"x\"}\n]\n").is_err(), "a field without `: `");
    }
}
