//! Reports: the human-readable table, the driver's JSON line, the
//! machine-readable report file, and the comparison of two report files.

use crate::metrics::{Better, MetricDef, END_TO_END, PER_LAYER};
use crate::protocol::{Mode, Outcome};
use crate::stats;
use crate::workloads::Workload;
use serde::Content;

fn metric_map(family: &[MetricDef], outcome: &Outcome) -> Vec<(String, Content)> {
    outcome
        .values
        .in_order(family)
        .map(|(def, value)| {
            (
                def.name.to_string(),
                Content::Map(vec![
                    ("value".to_string(), Content::F64(value)),
                    ("unit".to_string(), Content::Str(def.unit.to_string())),
                ]),
            )
        })
        .collect()
}

fn families(mode: Mode) -> &'static [MetricDef] {
    match mode {
        Mode::EndToEnd => &END_TO_END,
        Mode::Layers => &PER_LAYER,
    }
}

/// The one-line JSON object the driver reads: exactly `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn driver_line(mode: Mode, outcome: &Outcome) -> String {
    let line = Content::Map(vec![
        ("correct".to_string(), Content::Bool(outcome.correct)),
        ("attempted".to_string(), Content::U64(outcome.attempted)),
        ("failed".to_string(), Content::U64(outcome.failed)),
        (
            "metrics".to_string(),
            Content::Map(metric_map(families(mode), outcome)),
        ),
    ]);
    serde_json::to_string(&line).expect("a content tree serialises")
}

/// Six significant digits, whatever the magnitude.
fn significant(value: f64) -> String {
    if value == 0.0 || !value.is_finite() {
        return format!("{value}");
    }
    let decimals = (5 - value.abs().log10().floor() as i32).clamp(0, 12) as usize;
    format!("{value:.decimals$}")
}

/// Print every metric of one run by name, with its unit.
pub fn print_human(workload: &Workload, mode: Mode, outcome: &Outcome, nproc: usize) {
    let family = match mode {
        Mode::EndToEnd => "end-to-end",
        Mode::Layers => "per-layer",
    };
    println!("== {} ({family}, nproc {nproc}) ==", workload.name);
    println!("  why: {}", workload.why);
    for (def, value) in outcome.values.in_order(families(mode)) {
        println!("  {:<36} {:>18} {}", def.name, significant(value), def.unit);
    }
    println!(
        "  ops_attempted {}  ops_failed {}  correct {}",
        outcome.attempted, outcome.failed, outcome.correct
    );
    for note in &outcome.notes {
        println!("  note: {note}");
    }
}

/// One workload's entry of the report file; `runs` holds its end-to-end
/// and/or per-layer run.
pub fn workload_entry(
    workload: &Workload,
    oversubscribed: bool,
    runs: &[(Mode, Outcome)],
) -> Content {
    let attempted = runs.iter().map(|(_, o)| o.attempted).max().unwrap_or(0);
    let failed = runs.iter().map(|(_, o)| o.failed).max().unwrap_or(0);
    let mut metrics = Vec::new();
    let mut notes = Vec::new();
    for (mode, outcome) in runs {
        metrics.extend(metric_map(families(*mode), outcome));
        notes.extend(outcome.notes.iter().map(|n| Content::Str(n.clone())));
    }
    Content::Map(vec![
        ("name".to_string(), Content::Str(workload.name.to_string())),
        ("why".to_string(), Content::Str(workload.why.to_string())),
        (
            "paced_rate_tps".to_string(),
            Content::F64(workload.paced_rate_tps),
        ),
        ("oversubscribed".to_string(), Content::Bool(oversubscribed)),
        (
            "correct".to_string(),
            Content::Bool(runs.iter().all(|(_, o)| o.correct)),
        ),
        ("ops_attempted".to_string(), Content::U64(attempted)),
        ("ops_failed".to_string(), Content::U64(failed)),
        ("metrics".to_string(), Content::Map(metrics)),
        ("notes".to_string(), Content::Seq(notes)),
    ])
}

/// The whole report file: box facts, then one entry per set of runs.
pub fn report_file(seed: u64, seconds: f64, nproc: usize, sets: Vec<Vec<Content>>) -> String {
    let sets = sets
        .into_iter()
        .map(|workloads| Content::Map(vec![("workloads".to_string(), Content::Seq(workloads))]))
        .collect();
    let report = Content::Map(vec![
        ("bench".to_string(), Content::Str("bench_e2e".to_string())),
        ("seed".to_string(), Content::U64(seed)),
        ("seconds".to_string(), Content::F64(seconds)),
        ("nproc".to_string(), Content::U64(nproc as u64)),
        (
            "os".to_string(),
            Content::Str(std::env::consts::OS.to_string()),
        ),
        (
            "arch".to_string(),
            Content::Str(std::env::consts::ARCH.to_string()),
        ),
        ("sets".to_string(), Content::Seq(sets)),
    ]);
    serde_json::to_string_pretty(&report).expect("a content tree serialises")
}

/// What the comparison says about one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Within,
    /// B is worse than A by more than the bound.
    Regressed,
    /// The run-to-run spread of a side exceeds the bound: no claim either way.
    Unresolved,
}

/// The comparison of one metric between two reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Judgement {
    pub median_a: f64,
    pub median_b: f64,
    /// Signed change of B against A as a share of A; positive is worse.
    pub worse_by: f64,
    /// Largest quartile spread of the two sides (`None` with single values).
    pub spread: Option<f64>,
    pub verdict: Verdict,
}

/// Judge side B against side A for one metric.
pub fn judge(a: &[f64], b: &[f64], def: &MetricDef) -> Judgement {
    let (median_a, median_b) = (stats::median(a), stats::median(b));
    let change = (median_b - median_a) / median_a.abs().max(f64::MIN_POSITIVE);
    let worse_by = match def.better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let spread = match (stats::quartile_spread(a), stats::quartile_spread(b)) {
        (Some(x), Some(y)) => Some(x.max(y)),
        (x, y) => x.or(y),
    };
    let verdict = if spread.is_some_and(|s| s > def.bound) {
        Verdict::Unresolved
    } else if worse_by > def.bound {
        Verdict::Regressed
    } else {
        Verdict::Within
    };
    Judgement {
        median_a,
        median_b,
        worse_by,
        spread,
        verdict,
    }
}

/// Per workload, per metric: every set's value.
type Samples = Vec<(String, Vec<(String, Vec<f64>)>)>;

fn field<'a>(map: &'a [(String, Content)], key: &str) -> Result<&'a Content, String> {
    map.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("report has no `{key}`"))
}

fn samples(report: &Content) -> Result<Samples, String> {
    let top = report.as_map().ok_or("report is not an object")?;
    let mut out: Samples = Vec::new();
    for set in field(top, "sets")?.as_seq().ok_or("`sets` is not a list")? {
        let set = set.as_map().ok_or("a set is not an object")?;
        let workloads = field(set, "workloads")?;
        for workload in workloads.as_seq().ok_or("`workloads` is not a list")? {
            let workload = workload.as_map().ok_or("a workload is not an object")?;
            let name = field(workload, "name")?
                .as_str()
                .ok_or("a workload name is not a string")?
                .to_string();
            if !out.iter().any(|(n, _)| *n == name) {
                out.push((name.clone(), Vec::new()));
            }
            let slot = &mut out
                .iter_mut()
                .find(|(n, _)| *n == name)
                .expect("just added")
                .1;
            let metrics = field(workload, "metrics")?;
            for (metric, body) in metrics.as_map().ok_or("`metrics` is not an object")? {
                let body = body.as_map().ok_or("a metric is not an object")?;
                let value = match *field(body, "value")? {
                    Content::F64(v) => v,
                    Content::U64(v) => v as f64,
                    Content::I64(v) => v as f64,
                    _ => return Err(format!("{name}.{metric} has no numeric value")),
                };
                match slot.iter_mut().find(|(m, _)| m == metric) {
                    Some((_, values)) => values.push(value),
                    None => slot.push((metric.clone(), vec![value])),
                }
            }
        }
    }
    Ok(out)
}

/// The settings every value of a report depends on: the seed makes the
/// inputs, and `--seconds` sets how many repetitions each timed metric is the
/// best of. Reports that differ in either do not measure the same thing.
fn same_settings(a: &Content, b: &Content) -> Result<(), String> {
    let settings = |report: &Content| -> Result<String, String> {
        let top = report.as_map().ok_or("report is not an object")?;
        let text = |key: &str| -> Result<String, String> {
            serde_json::to_string(field(top, key)?).map_err(|e| format!("`{key}`: {e}"))
        };
        Ok(format!(
            "seed {}, seconds {}",
            text("seed")?,
            text("seconds")?
        ))
    };
    let (a, b) = (settings(a)?, settings(b)?);
    if a == b {
        Ok(())
    } else {
        Err(format!(
            "the reports were taken with different settings ({a} against {b}); \
             run both sides with the same"
        ))
    }
}

/// Compare two report files: for each (workload, end-to-end metric) print
/// both medians, the change, the bound and the verdict. Returns how many
/// pairs regressed. Reports taken with different seeds or run lengths are
/// refused.
pub fn compare(path_a: &str, path_b: &str) -> Result<usize, String> {
    let load = |path: &str| -> Result<Content, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (report_a, report_b) = (load(path_a)?, load(path_b)?);
    same_settings(&report_a, &report_b)?;
    let of = |path: &str, e: String| format!("{path}: {e}");
    let (a, b) = (
        samples(&report_a).map_err(|e| of(path_a, e))?,
        samples(&report_b).map_err(|e| of(path_b, e))?,
    );
    println!(
        "{:<22} {:<22} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "median A", "median B", "worse by", "bound", "spread"
    );
    let mut regressed = 0;
    for (workload, metrics_a) in &a {
        let Some((_, metrics_b)) = b.iter().find(|(n, _)| n == workload) else {
            continue;
        };
        for def in &END_TO_END {
            let find = |metrics: &[(String, Vec<f64>)]| {
                metrics
                    .iter()
                    .find(|(m, _)| m == def.name)
                    .map(|(_, v)| v.clone())
            };
            let (Some(va), Some(vb)) = (find(metrics_a), find(metrics_b)) else {
                continue;
            };
            let j = judge(&va, &vb, def);
            if j.verdict == Verdict::Regressed {
                regressed += 1;
            }
            println!(
                "{:<22} {:<22} {:>14} {:>14} {:>8.2}% {:>6.0}% {:>8}  {}",
                workload,
                def.name,
                significant(j.median_a),
                significant(j.median_b),
                j.worse_by * 100.0,
                def.bound * 100.0,
                j.spread
                    .map_or("n/a".to_string(), |s| format!("{:.2}%", s * 100.0)),
                match j.verdict {
                    Verdict::Within => "within bound",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const THROUGHPUT: MetricDef = MetricDef {
        name: "throughput",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.05,
    };
    const LATENCY: MetricDef = MetricDef {
        name: "latency",
        unit: "us",
        better: Better::Lower,
        bound: 0.10,
    };

    #[test]
    fn a_change_inside_the_bound_is_within() {
        let j = judge(&[100.0, 101.0, 99.0], &[97.0, 96.0, 98.0], &THROUGHPUT);
        assert_eq!(j.verdict, Verdict::Within);
        assert!((j.worse_by - 0.03).abs() < 1e-12);
    }

    #[test]
    fn direction_decides_what_worse_means() {
        // Throughput falling 8% is a regression; rising 8% is not.
        assert_eq!(
            judge(&[100.0], &[92.0], &THROUGHPUT).verdict,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&[100.0], &[108.0], &THROUGHPUT).verdict,
            Verdict::Within
        );
        // Latency rising 12% is a regression; falling 12% is not.
        assert_eq!(
            judge(&[50.0], &[56.0], &LATENCY).verdict,
            Verdict::Regressed
        );
        assert_eq!(judge(&[50.0], &[44.0], &LATENCY).verdict, Verdict::Within);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        // Side A's quartiles are 30% of its median apart: a 20% drop in the
        // median proves nothing.
        let j = judge(
            &[80.0, 100.0, 120.0, 90.0, 110.0],
            &[80.0, 80.0],
            &THROUGHPUT,
        );
        assert_eq!(j.verdict, Verdict::Unresolved);
        // Single values have no spread: the medians alone decide.
        assert_eq!(judge(&[100.0], &[100.0], &THROUGHPUT).spread, None);
    }

    #[test]
    fn samples_gather_every_set_per_workload_and_metric() {
        let text = r#"{"sets":[
            {"workloads":[{"name":"w","metrics":{"throughput_tps":{"value":10.0,"unit":"1/s"}}}]},
            {"workloads":[{"name":"w","metrics":{"throughput_tps":{"value":12,"unit":"1/s"}}}]}]}"#;
        let content: Content = serde_json::from_str(text).unwrap();
        let got = samples(&content).unwrap();
        assert_eq!(
            got,
            vec![(
                "w".to_string(),
                vec![("throughput_tps".to_string(), vec![10.0, 12.0])]
            )]
        );
        assert!(samples(&Content::Null).is_err());
    }

    #[test]
    fn reports_with_different_settings_are_not_compared() {
        let report = |seed: u64, seconds: f64| -> Content {
            serde_json::from_str(&report_file(seed, seconds, 2, vec![Vec::new()])).unwrap()
        };
        assert!(same_settings(&report(7, 10.0), &report(7, 10.0)).is_ok());
        assert!(same_settings(&report(7, 10.0), &report(8, 10.0)).is_err());
        assert!(same_settings(&report(7, 10.0), &report(7, 20.0)).is_err());
        assert!(same_settings(&report(7, 10.0), &Content::Null).is_err());
    }
}
