//! Figure / table containers with CSV, Markdown and JSON output.
//!
//! Every experiment produces a [`FigureReport`]: a set of named series (one
//! per curve of the corresponding paper figure) plus free-form notes. The
//! `reproduce` binary writes these as CSV (one file per figure) and as a
//! combined Markdown summary that EXPERIMENTS.md is built from.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// One curve of a figure: a label plus `(x, y)` points.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Legend label (e.g. `"Diff metric, D=120"`).
    pub label: String,
    /// The curve's points, in plotting order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a series from a label and points.
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Self {
            label: label.into(),
            points,
        }
    }
}

/// A reproduced figure or table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigureReport {
    /// Short identifier, e.g. `"fig4"`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Label of the x axis.
    pub x_label: String,
    /// Label of the y axis.
    pub y_label: String,
    /// The curves of the figure.
    pub series: Vec<Series>,
    /// Free-form notes (parameters, observed headline numbers).
    pub notes: Vec<String>,
}

impl FigureReport {
    /// Creates an empty report.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Adds a series.
    pub fn push_series(&mut self, series: Series) {
        self.series.push(series);
    }

    /// Adds a note.
    pub fn push_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Finds a series by label.
    pub fn series_by_label(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// Renders the figure as CSV: `series,x,y` rows.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("series,x,y\n");
        for s in &self.series {
            for (x, y) in &s.points {
                let _ = writeln!(out, "{},{x},{y}", csv_escape(&s.label));
            }
        }
        out
    }

    /// Renders the figure as a compact Markdown section (title, notes, and a
    /// per-series table of points).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {} — {}\n", self.id, self.title);
        let _ = writeln!(out, "*x*: {} · *y*: {}\n", self.x_label, self.y_label);
        for note in &self.notes {
            let _ = writeln!(out, "- {note}");
        }
        if !self.notes.is_empty() {
            out.push('\n');
        }
        for s in &self.series {
            let _ = writeln!(out, "**{}**\n", s.label);
            let _ = writeln!(out, "| {} | {} |", self.x_label, self.y_label);
            let _ = writeln!(out, "|---|---|");
            for (x, y) in &s.points {
                let _ = writeln!(out, "| {x:.4} | {y:.4} |");
            }
            out.push('\n');
        }
        out
    }

    /// Writes `<id>.csv` and `<id>.json` into `dir` (created if needed).
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        fs::create_dir_all(dir)?;
        fs::write(dir.join(format!("{}.csv", self.id)), self.to_csv())?;
        let json = serde_json::to_string_pretty(self).expect("figure serializes");
        fs::write(dir.join(format!("{}.json", self.id)), json)?;
        Ok(())
    }
}

fn csv_escape(s: &str) -> String {
    if s.contains(',') || s.contains('"') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> FigureReport {
        let mut r = FigureReport::new("fig_test", "A test figure", "D", "DR");
        r.push_series(Series::new("curve-a", vec![(1.0, 0.5), (2.0, 0.9)]));
        r.push_series(Series::new("curve, b", vec![(1.0, 0.1)]));
        r.push_note("x = 10%");
        r
    }

    #[test]
    fn csv_contains_every_point_and_escapes_commas() {
        let csv = sample_report().to_csv();
        assert!(csv.starts_with("series,x,y\n"));
        assert!(csv.contains("curve-a,1,0.5"));
        assert!(csv.contains("\"curve, b\",1,0.1"));
        assert_eq!(csv.lines().count(), 1 + 3);
    }

    #[test]
    fn markdown_mentions_title_notes_and_series() {
        let md = sample_report().to_markdown();
        assert!(md.contains("fig_test"));
        assert!(md.contains("A test figure"));
        assert!(md.contains("x = 10%"));
        assert!(md.contains("curve-a"));
        assert!(md.contains("| 2.0000 | 0.9000 |"));
    }

    #[test]
    fn save_writes_csv_and_json() {
        let dir = std::env::temp_dir().join("lad-eval-report-test");
        let _ = std::fs::remove_dir_all(&dir);
        sample_report().save(&dir).unwrap();
        assert!(dir.join("fig_test.csv").exists());
        let json = std::fs::read_to_string(dir.join("fig_test.json")).unwrap();
        let parsed: FigureReport = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, sample_report());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn series_lookup_helpers() {
        let r = sample_report();
        assert!(r.series_by_label("curve-a").is_some());
        assert!(r.series_by_label("missing").is_none());
    }
}
