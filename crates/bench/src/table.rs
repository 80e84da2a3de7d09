//! Plain-text result tables for the reproduction harness.
//!
//! Every experiment returns one or more [`Table`]s; the `repro` binary
//! prints them aligned (and in Markdown with `--md`), which is how
//! EXPERIMENTS.md's measured columns are produced.

/// A rectangular result table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Table title (includes the paper artifact id, e.g. "Table I").
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of pre-formatted cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Create an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch in {}", self.title);
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Render as a Markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {}\n\n", self.title));
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!(
            "|{}|\n",
            self.headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }
}

/// Format seconds the way the paper's tables do (3 significant digits).
pub fn fmt_time(seconds: f64) -> String {
    if seconds == 0.0 {
        return "0s".into();
    }
    if seconds < 1e-3 {
        format!("{:.3}ms", seconds * 1e3)
    } else if seconds < 1.0 {
        format!("{:.3}s", seconds).trim_end_matches('0').trim_end_matches('.').to_string()
    } else {
        format!("{seconds:.2}s")
    }
}

/// `bytes` as a human-readable quantity.
pub fn fmt_bytes(bytes: u64) -> String {
    let b = bytes as f64;
    if bytes >= 1 << 30 {
        format!("{:.2} GiB", b / (1u64 << 30) as f64)
    } else if bytes >= 1 << 20 {
        format!("{:.1} MiB", b / (1 << 20) as f64)
    } else if bytes >= 1 << 10 {
        format!("{:.1} KiB", b / (1 << 10) as f64)
    } else {
        format!("{bytes} B")
    }
}

/// Format a speedup like the paper: `(2.0x)`.
pub fn fmt_speedup(s: f64) -> String {
    format!("{s:.1}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_text() {
        let mut t = Table::new("Demo", &["N", "time"]);
        t.push_row(vec!["4".into(), "0.403s".into()]);
        t.push_row(vec!["1024".into(), "0.4s".into()]);
        let s = t.to_text();
        assert!(s.contains("## Demo"));
        assert!(s.contains("   4  0.403s"));
    }

    #[test]
    fn renders_markdown() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.contains("| a | b |"));
        assert!(md.contains("|---|---|"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_checked() {
        let mut t = Table::new("Demo", &["a"]);
        t.push_row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn time_formatting() {
        assert_eq!(fmt_time(0.403), "0.403s");
        assert_eq!(fmt_time(0.0906), "0.091s");
        assert_eq!(fmt_time(0.0000402), "0.040ms");
        assert_eq!(fmt_time(2.5), "2.50s");
    }
}
