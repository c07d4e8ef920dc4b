//! Figure data containers and renderers (ASCII tables, CSV, JSON).
//!
//! Every reproduced figure is a set of labelled series over a common
//! x-axis; the renderers print exactly the rows a plot would be drawn
//! from, so `cargo run --bin fig10` output can be compared with the
//! paper directly.

use serde::Serialize;
use std::fmt::Write as _;

/// One point of a series.
#[derive(Clone, Copy, PartialEq, Debug, Serialize)]
pub struct Point {
    /// X coordinate (injection rate, node count, ...).
    pub x: f64,
    /// Y coordinate (throughput, latency, hops, ...).
    pub y: f64,
    /// Optional spread (sample standard deviation over replications).
    pub std: f64,
}

/// A labelled curve of a figure.
#[derive(Clone, PartialEq, Debug, Serialize)]
pub struct Series {
    /// Curve label, e.g. `"spidergon-24"`.
    pub label: String,
    /// Points in ascending x order.
    pub points: Vec<Point>,
}

impl Series {
    /// Creates a series from `(x, y)` pairs with zero spread.
    pub fn from_xy(label: impl Into<String>, xy: impl IntoIterator<Item = (f64, f64)>) -> Self {
        Series {
            label: label.into(),
            points: xy
                .into_iter()
                .map(|(x, y)| Point { x, y, std: 0.0 })
                .collect(),
        }
    }

    /// The y value at a given x, if present (exact match within 1e-9).
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| (p.x - x).abs() < 1e-9)
            .map(|p| p.y)
    }
}

/// All data of one reproduced figure or table.
///
/// # Examples
///
/// ```
/// use noc_core::report::{FigureData, Series};
///
/// let fig = FigureData::new("fig2", "Network diameter vs N", "N", "ND")
///     .with_series(Series::from_xy("ring", [(8.0, 4.0), (16.0, 8.0)]));
/// let table = fig.to_ascii_table();
/// assert!(table.contains("ring"));
/// assert!(fig.to_csv().starts_with("x,"));
/// ```
#[derive(Clone, PartialEq, Debug, Serialize)]
pub struct FigureData {
    /// Identifier, e.g. `"fig6"`.
    pub id: String,
    /// Title, e.g. `"NoC throughput, one hot-spot destination node"`.
    pub title: String,
    /// X axis label.
    pub x_label: String,
    /// Y axis label.
    pub y_label: String,
    /// The curves.
    pub series: Vec<Series>,
}

impl FigureData {
    /// Creates an empty figure.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        FigureData {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Adds a series (builder style).
    #[must_use]
    pub fn with_series(mut self, series: Series) -> Self {
        self.series.push(series);
        self
    }

    /// Adds a series in place.
    pub fn push_series(&mut self, series: Series) {
        self.series.push(series);
    }

    /// Finds a series by label.
    pub fn series_by_label(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// The sorted union of all x values across series.
    pub fn x_values(&self) -> Vec<f64> {
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.x))
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("x values are not NaN"));
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        xs
    }

    /// Renders an aligned ASCII table: one row per x value, one column
    /// per series (empty cells where a series has no point).
    pub fn to_ascii_table(&self) -> String {
        // Every cell, header row first, is formatted once into `cells`;
        // cell `i` spans `bounds[i]..bounds[i + 1]`.
        let cols = self.series.len() + 1;
        let mut cells = String::new();
        let mut bounds = vec![0];
        cells.push_str(&self.x_label);
        bounds.push(cells.len());
        for s in &self.series {
            cells.push_str(&s.label);
            bounds.push(cells.len());
        }
        for x in self.x_values() {
            write_number(&mut cells, x);
            bounds.push(cells.len());
            for s in &self.series {
                if let Some(y) = s.y_at(x) {
                    write_number(&mut cells, y);
                }
                bounds.push(cells.len());
            }
        }
        let count = bounds.len() - 1;
        let cell = |i: usize| &cells[bounds[i]..bounds[i + 1]];
        let mut widths = vec![0; cols];
        for i in 0..count {
            widths[i % cols] = widths[i % cols].max(cell(i).len());
        }
        let mut out = String::with_capacity(cells.len() + count * 4);
        let _ = writeln!(out, "# {}: {}", self.id, self.title);
        let _ = writeln!(out, "# y = {}", self.y_label);
        for i in 0..count {
            let text = cell(i);
            if i % cols > 0 {
                out.push_str("  ");
            }
            // Right-aligned like `{:>w$}`: the width counts bytes, the
            // padding characters.
            for _ in text.chars().count()..widths[i % cols] {
                out.push(' ');
            }
            out.push_str(text);
            if i % cols == cols - 1 {
                out.push('\n');
            }
        }
        out
    }

    /// Renders CSV with columns `x, <label>, <label>_std, ...`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("x");
        for s in &self.series {
            let _ = write!(out, ",{},{}_std", s.label, s.label);
        }
        out.push('\n');
        for &x in &self.x_values() {
            let _ = write!(out, "{x}");
            for s in &self.series {
                match s.points.iter().find(|p| (p.x - x).abs() < 1e-9) {
                    Some(p) => {
                        let _ = write!(out, ",{},{}", p.y, p.std);
                    }
                    None => out.push_str(",,"),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Serializes to pretty JSON.
    ///
    /// # Panics
    ///
    /// Never panics for the types involved (no non-string keys).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("FigureData serializes")
    }
}

/// Writes a table cell: whole numbers without a fraction, anything
/// else to four decimals.
fn write_number(out: &mut String, v: f64) {
    let _ = if (v - v.round()).abs() < 1e-9 && v.abs() < 1e12 {
        write!(out, "{}", v.round() as i64)
    } else {
        write!(out, "{v:.4}")
    };
}

/// One-line latency summary of a run: mean plus the p50/p95/p99 order
/// statistics from the histogram ("-" where nothing was delivered).
///
/// # Examples
///
/// ```
/// use noc_core::report::latency_summary;
/// use noc_sim::LatencyStats;
///
/// let mut lat = LatencyStats::new();
/// for v in [8, 9, 10, 30] {
///     lat.record(v);
/// }
/// let line = latency_summary(&lat);
/// assert!(line.contains("p95 30"));
/// ```
pub fn latency_summary(latency: &noc_sim::LatencyStats) -> String {
    let pct = |p: f64| {
        latency
            .percentile(p)
            .map_or_else(|| "-".to_owned(), |v| v.to_string())
    };
    format!(
        "latency mean {:.2} cycles, p50 {} / p95 {} / p99 {} / max {}",
        latency.mean().unwrap_or(0.0),
        pct(50.0),
        pct(95.0),
        pct(99.0),
        latency
            .max()
            .map_or_else(|| "-".to_owned(), |v| v.to_string()),
    )
}

/// Aligned text table of a recorded latency decomposition
/// ([`noc_sim::LatencyBreakdown`]): one row per component plus the
/// end-to-end total, with count, mean, percentiles and the share of
/// the total mean each component accounts for.
pub fn breakdown_table(breakdown: &noc_sim::LatencyBreakdown) -> String {
    let total_mean = breakdown.total.mean().unwrap_or(0.0);
    let mut out =
        String::from("component        count     mean    p50    p95    p99    max  share\n");
    for (label, stats) in [
        ("source_queuing", &breakdown.source_queuing),
        ("router_blocking", &breakdown.router_blocking),
        ("transfer", &breakdown.transfer),
        ("total", &breakdown.total),
    ] {
        let mean = stats.mean().unwrap_or(0.0);
        let pct = |p: f64| stats.percentile(p).unwrap_or(0);
        let share = if total_mean > 0.0 {
            format!("{:5.1}%", 100.0 * mean / total_mean)
        } else {
            "     -".to_owned()
        };
        let _ = writeln!(
            out,
            "{label:<15} {count:>6} {mean:>8.2} {p50:>6} {p95:>6} {p99:>6} {max:>6}  {share}",
            count = stats.count(),
            p50 = pct(50.0),
            p95 = pct(95.0),
            p99 = pct(99.0),
            max = stats.max().unwrap_or(0),
        );
    }
    out
}

/// Execution metadata for one run or sweep invocation, printed in the
/// header of `noc-cli run`, `sweep` and `conformance`. Thread count is
/// informational only — output is bit-identical for any worker count
/// (see [`crate::parallel`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RunMetadata {
    /// Worker threads the parallel engine resolved to.
    pub threads: usize,
    /// The parallelism policy the count came from (`"sequential"`,
    /// `"auto"`, `"fixed"`).
    pub policy: String,
    /// Cores available on the host that produced the result.
    pub host_cores: usize,
}

impl RunMetadata {
    /// Captures metadata for the given parallelism policy on this host.
    pub fn for_parallelism(parallelism: crate::Parallelism) -> Self {
        use crate::Parallelism;
        RunMetadata {
            threads: parallelism.worker_count(),
            policy: match parallelism {
                Parallelism::Sequential => "sequential",
                Parallelism::Auto => "auto",
                Parallelism::Fixed(_) => "fixed",
            }
            .to_owned(),
            host_cores: crate::parallel::available_cores(),
        }
    }
}

impl std::fmt::Display for RunMetadata {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "threads {} ({}), host cores {}",
            self.threads, self.policy, self.host_cores
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FigureData {
        FigureData::new("figX", "Sample", "N", "metric")
            .with_series(Series::from_xy("a", [(1.0, 0.5), (2.0, 1.5)]))
            .with_series(Series::from_xy("b", [(1.0, 2.0), (3.0, 4.0)]))
    }

    #[test]
    fn x_values_are_union() {
        assert_eq!(sample().x_values(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn ascii_table_has_all_rows_and_columns() {
        let t = sample().to_ascii_table();
        assert!(t.contains("figX"));
        assert!(t.contains("N"));
        assert!(t.contains('a') && t.contains('b'));
        // 2 header comment lines + 1 header row + 3 data rows.
        assert_eq!(t.lines().count(), 6);
    }

    #[test]
    fn csv_has_std_columns_and_gaps() {
        let csv = sample().to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), "x,a,a_std,b,b_std");
        assert_eq!(lines.next().unwrap(), "1,0.5,0,2,0");
        assert_eq!(lines.next().unwrap(), "2,1.5,0,,");
        assert_eq!(lines.next().unwrap(), "3,,,4,0");
    }

    #[test]
    fn json_round_trips() {
        let fig = sample();
        let back: serde::Value = serde_json::from_str(&fig.to_json()).unwrap();
        assert_eq!(back, fig.to_value());
    }

    #[test]
    fn series_lookup() {
        let fig = sample();
        assert!(fig.series_by_label("a").is_some());
        assert!(fig.series_by_label("zzz").is_none());
        assert_eq!(fig.series_by_label("b").unwrap().y_at(3.0), Some(4.0));
        assert_eq!(fig.series_by_label("b").unwrap().y_at(9.0), None);
    }

    #[test]
    fn number_formatting() {
        let format_number = |v| {
            let mut out = String::new();
            write_number(&mut out, v);
            out
        };
        assert_eq!(format_number(4.0), "4");
        assert_eq!(format_number(0.12345), "0.1235"); // {:.4} rounds
    }

    #[test]
    fn latency_summary_handles_empty_and_filled() {
        let empty = latency_summary(&noc_sim::LatencyStats::new());
        assert!(empty.contains("p50 - / p95 - / p99 -"));
        let mut lat = noc_sim::LatencyStats::new();
        for v in 1..=100 {
            lat.record(v);
        }
        let line = latency_summary(&lat);
        assert!(
            line.contains("p50 50 / p95 95 / p99 99 / max 100"),
            "{line}"
        );
    }

    #[test]
    fn breakdown_table_lists_all_components() {
        let mut b = noc_sim::LatencyBreakdown::default();
        b.source_queuing.record(2);
        b.router_blocking.record(3);
        b.transfer.record(5);
        b.total.record(10);
        let table = breakdown_table(&b);
        for label in ["source_queuing", "router_blocking", "transfer", "total"] {
            assert!(table.contains(label), "{table}");
        }
        // Shares: 20% + 30% + 50% = the total's 100%.
        assert!(table.contains("20.0%") && table.contains("30.0%") && table.contains("50.0%"));
        assert!(table.contains("100.0%"));
    }

    #[test]
    fn run_metadata_reflects_policy() {
        let m = RunMetadata::for_parallelism(crate::Parallelism::Fixed(3));
        assert_eq!(m.threads, 3);
        assert_eq!(m.policy, "fixed");
        assert!(m.host_cores >= 1);
        let header = format!("threads 3 (fixed), host cores {}", m.host_cores);
        assert_eq!(m.to_string(), header);
        let seq = RunMetadata::for_parallelism(crate::Parallelism::Sequential);
        assert_eq!((seq.threads, seq.policy.as_str()), (1, "sequential"));
    }
}
