//! Plain-text and CSV rendering of measured figures.

use crate::figures::FigureResult;
use std::fmt::Write as _;

/// Render a figure as a plain-text table with one row per swept value and
/// per-mode CPU cost, peak memory and result count columns — the "rows the
/// paper reports" for each figure.
pub(crate) fn render_table(result: &FigureResult) -> String {
    let modes: Vec<String> = result
        .rows
        .first()
        .map(|r| r.measurements.iter().map(|(m, _, _)| m.clone()).collect())
        .unwrap_or_default();
    let mut out = String::new();
    let _ = writeln!(out, "{} — {}", result.id, result.caption);
    let mut header = format!("{:>12}", result.x_label);
    for m in &modes {
        header.push_str(&format!(
            " | {:>14} {:>12} {:>10}",
            format!("{m} cost(Mu)"),
            format!("{m} mem(KB)"),
            format!("{m} results")
        ));
    }
    let _ = writeln!(out, "{header}");
    let _ = writeln!(out, "{}", "-".repeat(header.len()));
    for row in &result.rows {
        let mut line = format!("{:>12.2}", row.x);
        for m in &modes {
            if let Some((_, snap, results)) = row.measurements.iter().find(|(name, _, _)| name == m)
            {
                line.push_str(&format!(
                    " | {:>14.3} {:>12.1} {:>10}",
                    snap.steady_cost_units as f64 / 1.0e6,
                    snap.steady_peak_memory_bytes as f64 / 1024.0,
                    results
                ));
            }
        }
        let _ = writeln!(out, "{line}");
    }
    out
}

/// Render a figure as CSV (one line per swept value, per-mode columns).
pub(crate) fn render_csv(result: &FigureResult) -> String {
    let modes: Vec<String> = result
        .rows
        .first()
        .map(|r| r.measurements.iter().map(|(m, _, _)| m.clone()).collect())
        .unwrap_or_default();
    let mut out = String::new();
    let mut header = vec!["x".to_string()];
    for m in &modes {
        header.push(format!("{m}_cost_units"));
        header.push(format!("{m}_wall_seconds"));
        header.push(format!("{m}_peak_memory_kb"));
        header.push(format!("{m}_results"));
        header.push(format!("{m}_intermediate_produced"));
        header.push(format!("{m}_intermediate_suppressed"));
    }
    let _ = writeln!(out, "{}", header.join(","));
    for row in &result.rows {
        let mut fields = vec![format!("{}", row.x)];
        for m in &modes {
            if let Some((_, snap, results)) = row.measurements.iter().find(|(name, _, _)| name == m)
            {
                fields.push(snap.steady_cost_units.to_string());
                fields.push(format!("{:.6}", snap.wall_seconds));
                fields.push(format!(
                    "{:.2}",
                    snap.steady_peak_memory_bytes as f64 / 1024.0
                ));
                fields.push(results.to_string());
                fields.push(snap.stats.intermediate_produced.to_string());
                fields.push(snap.stats.intermediate_suppressed.to_string());
            }
        }
        let _ = writeln!(out, "{}", fields.join(","));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::FigureRow;
    use jit_metrics::{ExecStats, MetricsSnapshot};

    fn snapshot(cost: u64, mem: usize) -> MetricsSnapshot {
        MetricsSnapshot {
            stats: ExecStats {
                intermediate_produced: 10,
                intermediate_suppressed: 5,
                ..ExecStats::default()
            },
            cost_units: cost,
            steady_cost_units: cost,
            wall_seconds: 0.5,
            peak_memory_bytes: mem,
            steady_peak_memory_bytes: mem,
            final_memory_bytes: mem / 2,
            ..MetricsSnapshot::zero()
        }
    }

    fn sample() -> FigureResult {
        FigureResult {
            id: "figX".into(),
            caption: "sample".into(),
            x_label: "w (min)".into(),
            rows: vec![FigureRow {
                x: 10.0,
                measurements: vec![
                    ("JIT".into(), snapshot(1_000_000, 2048), 42),
                    ("REF".into(), snapshot(9_000_000, 8192), 42),
                ],
            }],
        }
    }

    #[test]
    fn table_contains_modes_and_values() {
        let text = render_table(&sample());
        assert!(text.contains("figX"));
        assert!(text.contains("JIT cost(Mu)"));
        assert!(text.contains("REF cost(Mu)"));
        assert!(text.contains("10.00"));
        assert!(text.contains("42"));
    }

    #[test]
    fn csv_has_header_and_one_row() {
        let csv = render_csv(&sample());
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("JIT_cost_units"));
        assert!(lines[0].contains("REF_peak_memory_kb"));
        assert!(lines[1].starts_with("10,"));
        assert!(lines[1].contains("1000000"));
    }

    #[test]
    fn empty_result_renders_without_panicking() {
        let empty = FigureResult {
            id: "empty".into(),
            caption: "".into(),
            x_label: "x".into(),
            rows: vec![],
        };
        assert!(render_table(&empty).contains("empty"));
        assert!(render_csv(&empty).starts_with("x"));
    }
}
