//! Result tables: the harness's output format.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A numeric result table for one experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    /// Experiment id, e.g. `"F1"`.
    pub id: String,
    /// Human title, e.g. `"Tour length vs number of sensors"`.
    pub title: String,
    /// Column headers; the first column is the swept parameter.
    pub columns: Vec<String>,
    /// Data rows (numeric; one per parameter value).
    pub rows: Vec<Vec<f64>>,
    /// Free-text notes printed under the table (assumptions, units).
    pub notes: String,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: &str, title: &str, columns: &[&str]) -> Self {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
            notes: String::new(),
        }
    }

    /// Appends a data row.
    ///
    /// # Panics
    /// Panics if the row width differs from the header width.
    pub fn push_row(&mut self, row: Vec<f64>) {
        assert_eq!(row.len(), self.columns.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders as a GitHub-flavored markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {} — {}\n", self.id, self.title);
        let _ = writeln!(out, "| {} |", self.columns.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.columns
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|v| format_cell(*v)).collect();
            let _ = writeln!(out, "| {} |", cells.join(" | "));
        }
        if !self.notes.is_empty() {
            let _ = writeln!(out, "\n*{}*", self.notes);
        }
        out
    }

    /// Renders as CSV (headers + rows, full precision).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.columns.join(","));
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
            let _ = writeln!(out, "{}", cells.join(","));
        }
        out
    }

    /// Writes the CSV next to other results as `<dir>/<id>.csv`.
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<PathBuf> {
        self.write(dir, "csv", self.to_csv())
    }

    /// Writes the whole table (notes included) as pretty JSON to
    /// `<dir>/<id>.json`: the layout of the committed `BENCH_*.json` files.
    pub fn write_json(&self, dir: &Path) -> std::io::Result<PathBuf> {
        let json = serde_json::to_string_pretty(self).map_err(std::io::Error::other)?;
        self.write(dir, "json", json + "\n")
    }

    fn write(&self, dir: &Path, ext: &str, contents: String) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.{ext}", self.id.to_lowercase()));
        std::fs::write(&path, contents)?;
        Ok(path)
    }

    /// Column index by header name.
    pub fn col(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Extracts a column as a vector.
    pub fn column_values(&self, name: &str) -> Option<Vec<f64>> {
        let i = self.col(name)?;
        Some(self.rows.iter().map(|r| r[i]).collect())
    }
}

/// Compact numeric formatting: integers render without decimals, small
/// values keep precision.
fn format_cell(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if (v.round() - v).abs() < 1e-9 && v.abs() < 1e12 {
        format!("{}", v.round() as i64)
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else if v.abs() >= 0.01 {
        format!("{v:.3}")
    } else {
        format!("{v:.3e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("F9", "Fleet sizing", &["deadline", "collectors"]);
        t.push_row(vec![100.0, 4.0]);
        t.push_row(vec![200.0, 2.0]);
        t.notes = "speed 1 m/s".into();
        t
    }

    #[test]
    fn markdown_rendering() {
        let md = sample().to_markdown();
        assert!(md.contains("### F9 — Fleet sizing"));
        assert!(md.contains("| deadline | collectors |"));
        assert!(md.contains("| 100 | 4 |"));
        assert!(md.contains("*speed 1 m/s*"));
    }

    #[test]
    fn csv_rendering() {
        let csv = sample().to_csv();
        assert_eq!(csv.lines().next().unwrap(), "deadline,collectors");
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn csv_file_roundtrip() {
        let dir = std::env::temp_dir().join("mdg_table_test");
        let path = sample().write_csv(&dir).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("deadline,collectors"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("mdg_table_json_{}", std::process::id()));
        let path = sample().write_json(&dir).unwrap();
        assert_eq!(path, dir.join("f9.json"));
        let back: Table = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back, sample());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn column_access() {
        let t = sample();
        assert_eq!(t.col("collectors"), Some(1));
        assert_eq!(t.col("missing"), None);
        assert_eq!(t.column_values("collectors"), Some(vec![4.0, 2.0]));
    }

    #[test]
    fn cell_formats() {
        assert_eq!(format_cell(0.0), "0");
        assert_eq!(format_cell(42.0), "42");
        assert_eq!(format_cell(1234.56), "1234.6");
        assert_eq!(format_cell(0.5), "0.500");
        assert_eq!(format_cell(0.0001234), "1.234e-4");
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn ragged_row_panics() {
        sample().push_row(vec![1.0]);
    }
}
