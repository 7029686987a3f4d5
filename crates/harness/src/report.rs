//! Plain-text rendering of experiment tables (the figures, as text).

use clove_net::fault::{ControlFaultStats, FaultStats};
use std::fmt::Write as _;

/// A table of `series × x-points`, e.g. average FCT per scheme per load.
#[derive(Debug, Clone)]
pub struct FigureTable {
    /// Figure id and caption, e.g. "Fig 4b — symmetric, avg FCT (s)".
    pub title: String,
    /// The x-axis label (e.g. "load %").
    pub x_label: String,
    /// The x values.
    pub xs: Vec<f64>,
    /// One named series per scheme: `(name, y-values)` aligned with `xs`.
    /// Quarantined cells carry `f64::NAN` (rendered `-`, written `NaN` in
    /// CSV) and are itemized in [`FigureTable::quarantined`].
    pub series: Vec<(String, Vec<f64>)>,
    /// One line per quarantined cell (panicked runs the orchestrator
    /// excluded). Rendered as a footer; binaries exit non-zero when
    /// non-empty.
    pub quarantined: Vec<String>,
}

impl FigureTable {
    /// A new empty table.
    pub fn new(title: impl Into<String>, x_label: impl Into<String>, xs: Vec<f64>) -> FigureTable {
        FigureTable { title: title.into(), x_label: x_label.into(), xs, series: Vec::new(), quarantined: Vec::new() }
    }

    /// Append a series; y length must match xs.
    pub fn push_series(&mut self, name: impl Into<String>, ys: Vec<f64>) {
        assert_eq!(ys.len(), self.xs.len(), "series length mismatch");
        self.series.push((name.into(), ys));
    }

    /// The value of `series` at `x`, if present.
    pub fn value(&self, series: &str, x: f64) -> Option<f64> {
        let xi = self.xs.iter().position(|&v| (v - x).abs() < 1e-9)?;
        self.series.iter().find(|(n, _)| n == series).map(|(_, ys)| ys[xi])
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let name_w = self.series.iter().map(|(n, _)| n.len()).max().unwrap_or(6).max(self.x_label.len());
        let _ = write!(out, "{:<name_w$}", self.x_label);
        for x in &self.xs {
            let _ = write!(out, " {:>10}", format_num(*x));
        }
        let _ = writeln!(out);
        for (name, ys) in &self.series {
            let _ = write!(out, "{name:<name_w$}");
            for y in ys {
                let _ = write!(out, " {:>10}", format_num(*y));
            }
            let _ = writeln!(out);
        }
        render_quarantine(&mut out, &self.quarantined);
        out
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{}", self.x_label);
        for (name, _) in &self.series {
            let _ = write!(out, ",{name}");
        }
        let _ = writeln!(out);
        for (xi, x) in self.xs.iter().enumerate() {
            let _ = write!(out, "{x}");
            for (_, ys) in &self.series {
                let _ = write!(out, ",{}", ys[xi]);
            }
            let _ = writeln!(out);
        }
        csv_quarantine(&mut out, &self.quarantined);
        out
    }
}

/// Footer for quarantined cells in text renders (no-op when empty).
fn render_quarantine(out: &mut String, quarantined: &[String]) {
    if quarantined.is_empty() {
        return;
    }
    let _ = writeln!(out, "QUARANTINED cells (excluded from the data above):");
    for line in quarantined {
        let _ = writeln!(out, "  ! {line}");
    }
}

/// Quarantine comment lines for CSV renders (no-op when empty, so clean
/// runs keep their pinned byte-for-byte shape).
fn csv_quarantine(out: &mut String, quarantined: &[String]) {
    for line in quarantined {
        let _ = writeln!(out, "# quarantined: {line}");
    }
}

/// One (case, scheme) row of a fault sweep: FCT level and ratios to the
/// scheme's clean case, recovery, and both damage ledgers. Every sweep
/// fills every field; its column list picks what it prints.
#[derive(Debug, Clone, Default)]
pub struct FaultRow {
    /// Case label, e.g. "single-cut", or the loss rate in percent ("50").
    pub case: String,
    /// Scheme label, e.g. "Clove-ECN".
    pub scheme: String,
    /// Pooled average FCT in seconds (`NaN` when quarantined).
    pub avg_fct_s: f64,
    /// Average FCT relative to the same scheme's clean case (1.0 = no
    /// degradation).
    pub avg_ratio: f64,
    /// Pooled 99th-percentile FCT in seconds (`NaN` when quarantined).
    pub p99_fct_s: f64,
    /// p99 FCT relative to the same scheme's clean case.
    pub p99_ratio: f64,
    /// Mean recovery time in milliseconds over the seeds that recovered;
    /// `None` when no mid-run fault was injected or no seed recovered.
    pub recovery_ms: Option<f64>,
    /// Black-holed paths evicted by discovery (summed over seeds).
    pub path_evictions: u64,
    /// Fabric fault damage (summed over seeds).
    pub stats: FaultStats,
    /// Control-plane damage counters (summed over seeds).
    pub control: ControlFaultStats,
}

/// One cell of a [`FaultRow`], typed by how it prints: the text table
/// rounds for reading, the CSV keeps every digit.
pub(crate) enum Cell<'a> {
    /// A label, verbatim in both renders.
    Name(&'a str),
    /// Seconds: `format_num` in text.
    Secs(f64),
    /// A ratio: two decimals in text.
    Ratio(f64),
    /// Milliseconds: one decimal in text.
    Ms(f64),
    /// Optional milliseconds: `-` in text and empty in CSV when absent.
    OptMs(Option<f64>),
    /// A counter, verbatim in both renders.
    Count(u64),
}

impl Cell<'_> {
    fn text(&self) -> String {
        match *self {
            Cell::Name(s) => s.to_string(),
            Cell::Secs(v) => format_num(v),
            Cell::Ratio(v) => format!("{v:.2}"),
            Cell::Ms(v) => format!("{v:.1}"),
            Cell::OptMs(v) => v.map_or("-".to_string(), |ms| format!("{ms:.1}")),
            Cell::Count(n) => n.to_string(),
        }
    }

    fn csv(&self) -> String {
        match *self {
            Cell::Name(s) => s.to_string(),
            Cell::Secs(v) | Cell::Ratio(v) | Cell::Ms(v) => v.to_string(),
            Cell::OptMs(v) => v.map_or(String::new(), |ms| ms.to_string()),
            Cell::Count(n) => n.to_string(),
        }
    }
}

/// One column of a fault-sweep layout.
pub(crate) struct FaultColumn {
    /// CSV header.
    csv: &'static str,
    /// Text header and right-aligned width; width 0 means left-aligned and
    /// fitted to the longest cell. `None` keeps the column out of the text
    /// table (CSV only).
    text: Option<(&'static str, usize)>,
    /// The row's value in this column.
    cell: fn(&FaultRow) -> Cell<'_>,
}

const fn col(csv: &'static str, text: Option<(&'static str, usize)>, cell: fn(&FaultRow) -> Cell<'_>) -> FaultColumn {
    FaultColumn { csv, text, cell }
}

fn ms(d: clove_sim::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Layout of the data-plane damage sweeps (`resilience`, `recovery`).
pub(crate) const DAMAGE_COLUMNS: &[FaultColumn] = &[
    col("case", Some(("case", 0)), |r| Cell::Name(&r.case)),
    col("scheme", Some(("scheme", 0)), |r| Cell::Name(&r.scheme)),
    col("avg_fct_s", Some(("avgFCT(s)", 10)), |r| Cell::Secs(r.avg_fct_s)),
    col("degradation", Some(("degr(x)", 8)), |r| Cell::Ratio(r.avg_ratio)),
    col("recovery_ms", Some(("recov(ms)", 9)), |r| Cell::OptMs(r.recovery_ms)),
    col("path_evictions", Some(("evict", 6)), |r| Cell::Count(r.path_evictions)),
    col("drops_down", Some(("dDown", 8)), |r| Cell::Count(r.stats.drops_down)),
    col("drops_loss", Some(("dLoss", 8)), |r| Cell::Count(r.stats.drops_loss)),
    col("drops_overflow", None, |r| Cell::Count(r.stats.drops_overflow)),
    col("drops_no_route", None, |r| Cell::Count(r.stats.drops_no_route)),
    col("down_time_ms", Some(("down(ms)", 8)), |r| Cell::Ms(ms(r.stats.down_time))),
    col("degraded_time_ms", Some(("degrd(ms)", 9)), |r| Cell::Ms(ms(r.stats.degraded_time))),
    col("faults_applied", Some(("faults", 6)), |r| Cell::Count(r.stats.faults_applied)),
];

/// Layout of the control-plane sweep (`feedback`).
pub(crate) const FEEDBACK_COLUMNS: &[FaultColumn] = &[
    col("rate_pct", Some(("loss%", 7)), |r| Cell::Name(&r.case)),
    col("scheme", Some(("scheme", 0)), |r| Cell::Name(&r.scheme)),
    col("avg_fct_s", Some(("avgFCT(s)", 10)), |r| Cell::Secs(r.avg_fct_s)),
    col("avg_slowdown", Some(("avg(x)", 8)), |r| Cell::Ratio(r.avg_ratio)),
    col("p99_fct_s", Some(("p99FCT(s)", 10)), |r| Cell::Secs(r.p99_fct_s)),
    col("p99_slowdown", Some(("p99(x)", 8)), |r| Cell::Ratio(r.p99_ratio)),
    col("recovery_ms", Some(("recov(ms)", 9)), |r| Cell::OptMs(r.recovery_ms)),
    col("probes_dropped", Some(("prbDrop", 8)), |r| Cell::Count(r.control.probes_dropped)),
    col("replies_dropped", Some(("rplDrop", 8)), |r| Cell::Count(r.control.replies_dropped)),
    col("feedback_dropped", Some(("fbDrop", 8)), |r| Cell::Count(r.control.feedback_dropped)),
    col("feedback_delayed", None, |r| Cell::Count(r.control.feedback_delayed)),
    col("feedback_corrupted", None, |r| Cell::Count(r.control.feedback_corrupted)),
    col("control_faults_applied", None, |r| Cell::Count(r.control.control_faults_applied)),
];

/// A fault sweep as a flat `case × scheme` table, printed through a static
/// column list.
pub struct FaultTable {
    /// Caption, e.g. "Resilience — S2-L2 faults at 20 ms".
    pub title: String,
    /// What to print of each row, in order.
    columns: &'static [FaultColumn],
    /// One row per (case, scheme) pair.
    pub rows: Vec<FaultRow>,
    /// One line per quarantined cell (see [`FigureTable::quarantined`]).
    pub quarantined: Vec<String>,
}

impl FaultTable {
    /// A new empty table laid out by `columns`.
    pub(crate) fn new(title: impl Into<String>, columns: &'static [FaultColumn]) -> FaultTable {
        FaultTable { title: title.into(), columns, rows: Vec::new(), quarantined: Vec::new() }
    }

    /// The row for `(case, scheme)`, if present.
    pub fn row(&self, case: &str, scheme: &str) -> Option<&FaultRow> {
        self.rows.iter().find(|r| r.case == case && r.scheme == scheme)
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let columns: Vec<(&FaultColumn, &str, usize)> = self.columns.iter().filter_map(|c| c.text.map(|(header, width)| (c, header, width))).collect();
        // The header is line 0, so fitted widths cover it too.
        let mut lines: Vec<Vec<String>> = vec![columns.iter().map(|&(_, header, _)| header.to_string()).collect()];
        lines.extend(self.rows.iter().map(|r| columns.iter().map(|&(c, _, _)| (c.cell)(r).text()).collect()));
        let fitted: Vec<usize> = (0..columns.len()).map(|i| lines.iter().map(|l| l[i].len()).max().unwrap_or(0)).collect();
        for line in &lines {
            let padded: Vec<String> = line
                .iter()
                .enumerate()
                .map(|(i, cell)| match columns[i].2 {
                    0 => format!("{cell:<fit$}", fit = fitted[i]),
                    width => format!("{cell:>width$}"),
                })
                .collect();
            let _ = writeln!(out, "{}", padded.join(" "));
        }
        render_quarantine(&mut out, &self.quarantined);
        out
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = self.columns.iter().map(|c| c.csv).collect::<Vec<_>>().join(",") + "\n";
        for r in &self.rows {
            let _ = writeln!(out, "{}", self.columns.iter().map(|c| (c.cell)(r).csv()).collect::<Vec<_>>().join(","));
        }
        csv_quarantine(&mut out, &self.quarantined);
        out
    }
}

fn format_num(v: f64) -> String {
    if v.is_nan() {
        "-".into()
    } else if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.5}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> FigureTable {
        let mut t = FigureTable::new("Fig X", "load %", vec![30.0, 50.0, 70.0]);
        t.push_series("ECMP", vec![0.1, 0.5, 2.0]);
        t.push_series("Clove-ECN", vec![0.1, 0.2, 0.4]);
        t
    }

    #[test]
    fn lookup_by_x() {
        let t = table();
        assert_eq!(t.value("ECMP", 70.0), Some(2.0));
        assert_eq!(t.value("Clove-ECN", 30.0), Some(0.1));
        assert_eq!(t.value("nope", 30.0), None);
        assert_eq!(t.value("ECMP", 99.0), None);
    }

    #[test]
    fn render_contains_all_parts() {
        let s = table().render();
        assert!(s.contains("Fig X"));
        assert!(s.contains("ECMP"));
        assert!(s.contains("Clove-ECN"));
        assert!(s.contains("70"));
    }

    #[test]
    fn csv_shape() {
        let csv = table().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "load %,ECMP,Clove-ECN");
        assert!(lines[3].starts_with("70,2,"));
    }

    #[test]
    #[should_panic]
    fn mismatched_series_rejected() {
        let mut t = FigureTable::new("t", "x", vec![1.0]);
        t.push_series("s", vec![1.0, 2.0]);
    }

    #[test]
    fn quarantined_cells_render_as_dash_with_footer() {
        let mut t = FigureTable::new("Fig Q", "load %", vec![30.0, 50.0]);
        t.push_series("ECMP", vec![0.1, f64::NAN]);
        t.quarantined.push("ECMP @ 50% load seed 1000: panicked: boom".into());
        let text = t.render();
        assert!(text.contains(" -"), "NaN cells render as '-': {text}");
        assert!(text.contains("QUARANTINED cells"));
        assert!(text.contains("ECMP @ 50% load seed 1000: panicked: boom"));
        let csv = t.to_csv();
        assert!(csv.contains("NaN"), "NaN survives into CSV: {csv}");
        assert_eq!(csv.lines().last().unwrap(), "# quarantined: ECMP @ 50% load seed 1000: panicked: boom");
    }

    #[test]
    fn clean_tables_have_no_quarantine_footer() {
        let t = table();
        assert!(!t.render().contains("QUARANTINED"));
        assert!(!t.to_csv().contains('#'));
    }

    fn row(case: &str, scheme: &str) -> FaultRow {
        FaultRow { case: case.into(), scheme: scheme.into(), avg_fct_s: 0.1, avg_ratio: 1.0, p99_fct_s: 0.4, p99_ratio: 1.0, ..FaultRow::default() }
    }

    fn resilience_table() -> FaultTable {
        let mut t = FaultTable::new("Resilience", DAMAGE_COLUMNS);
        t.rows.push(row("clean", "ECMP"));
        t.rows.push(FaultRow {
            avg_fct_s: 0.3,
            avg_ratio: 3.0,
            recovery_ms: Some(12.5),
            path_evictions: 2,
            stats: FaultStats { drops_down: 9, faults_applied: 2, ..FaultStats::default() },
            ..row("single-cut", "ECMP")
        });
        t
    }

    #[test]
    fn resilience_render_and_lookup() {
        let t = resilience_table();
        let s = t.render();
        assert!(s.contains("Resilience"));
        assert!(s.contains("single-cut"));
        assert!(s.contains("12.5"));
        assert!(s.contains("recov(ms)"));
        assert_eq!(t.row("single-cut", "ECMP").unwrap().path_evictions, 2);
        assert!(t.row("flapping", "ECMP").is_none());
    }

    fn feedback_table() -> FaultTable {
        let mut t = FaultTable::new("Feedback degradation", FEEDBACK_COLUMNS);
        t.rows.push(row("0", "Clove-ECN"));
        t.rows.push(FaultRow {
            avg_fct_s: 0.12,
            avg_ratio: 1.2,
            p99_fct_s: 0.6,
            p99_ratio: 1.5,
            recovery_ms: Some(7.5),
            control: ControlFaultStats { probes_dropped: 11, feedback_dropped: 42, control_faults_applied: 3, ..ControlFaultStats::default() },
            ..row("50", "Clove-ECN")
        });
        t
    }

    #[test]
    fn feedback_render_and_lookup() {
        let t = feedback_table();
        let s = t.render();
        assert!(s.contains("Feedback degradation"));
        assert!(s.contains("recov(ms)"));
        assert!(s.contains("7.5"));
        assert!(s.contains("42"));
        assert_eq!(t.row("50", "Clove-ECN").unwrap().control.probes_dropped, 11);
        assert!(t.row("5", "Clove-ECN").is_none());
        assert!(t.row("50", "ECMP").is_none());
    }

    /// Line 1 of a committed CSV: the header a sweep's layout must emit.
    fn committed_header(csv: &str) -> &str {
        csv.lines().next().expect("committed CSV has a header")
    }

    #[test]
    fn feedback_csv_shape() {
        let csv = feedback_table().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], committed_header(include_str!("../../../results/feedback.csv")));
        // The clean baseline leaves the recovery cell empty.
        assert!(lines[1].contains(",,"));
        assert!(lines[2].starts_with("50,Clove-ECN,0.12,1.2,0.6,1.5,7.5,11,"));
    }

    #[test]
    fn resilience_csv_shape() {
        let csv = resilience_table().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        // `resilience` and `recovery` share one layout.
        assert_eq!(lines[0], committed_header(include_str!("../../../results/resilience.csv")));
        assert_eq!(lines[0], committed_header(include_str!("../../../results/recovery.csv")));
        // A never-recovered row leaves the recovery cell empty.
        assert!(lines[1].contains(",,"));
        assert!(lines[2].starts_with("single-cut,ECMP,0.3,3,12.5,2,9,"));
    }
}
