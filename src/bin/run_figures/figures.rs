//! Definitions and runners for Figures 10–17 of the paper.
//!
//! Each figure sweeps one workload parameter (window size `w`, stream rate
//! `λ`, number of sources `N`, or maximum column value `dmax`) on one plan
//! family (bushy or left-deep) and reports, for every swept value, the CPU
//! cost and peak memory of JIT and REF.

use crate::config::ExperimentConfig;
use jit_engine::Engine;
use jit_exec::{ExecutorConfig, StateIndexMode};
use jit_metrics::MetricsSnapshot;
use jit_plan::shapes::PlanShape;
use jit_stream::WorkloadGenerator;
use serde::Serialize;

/// The workload parameter a figure sweeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum SweepParameter {
    /// Window size in minutes (Figures 10 and 14).
    WindowMinutes,
    /// Stream rate in tuples per second (Figures 11 and 15).
    RatePerSec,
    /// Number of sources (Figures 12 and 16).
    NumSources,
    /// Maximum column value (Figures 13 and 17).
    DMax,
}

impl SweepParameter {
    /// Axis label used in tables.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            SweepParameter::WindowMinutes => "w (min)",
            SweepParameter::RatePerSec => "lambda (/s)",
            SweepParameter::NumSources => "N",
            SweepParameter::DMax => "dmax",
        }
    }
}

/// The specification of one figure.
#[derive(Debug, Clone)]
pub(crate) struct FigureSpec {
    /// Identifier, e.g. `"fig10"`.
    pub(crate) id: String,
    /// Caption matching the paper.
    pub(crate) caption: String,
    /// Base experiment configuration (Table III defaults).
    pub(crate) base: ExperimentConfig,
    /// The swept parameter.
    pub(crate) parameter: SweepParameter,
    /// Values of the swept parameter.
    pub(crate) values: Vec<f64>,
}

impl FigureSpec {
    /// All eight figures of Section VI, in paper order.
    pub(crate) fn all() -> Vec<FigureSpec> {
        vec![
            Self::fig10(),
            Self::fig11(),
            Self::fig12(),
            Self::fig13(),
            Self::fig14(),
            Self::fig15(),
            Self::fig16(),
            Self::fig17(),
        ]
    }

    /// Look up a figure by id (`"fig10"` … `"fig17"`).
    pub(crate) fn by_id(id: &str) -> Option<FigureSpec> {
        Self::all().into_iter().find(|f| f.id == id)
    }

    /// Figure 10: overhead vs window size `w` (bushy plan).
    pub(crate) fn fig10() -> FigureSpec {
        FigureSpec {
            id: "fig10".into(),
            caption: "Overhead vs. window size w (bushy plan)".into(),
            base: ExperimentConfig::bushy_default(),
            parameter: SweepParameter::WindowMinutes,
            values: vec![10.0, 15.0, 20.0, 25.0, 30.0],
        }
    }

    /// Figure 11: overhead vs stream rate `λ` (bushy plan).
    fn fig11() -> FigureSpec {
        FigureSpec {
            id: "fig11".into(),
            caption: "Overhead vs. stream rate lambda (bushy plan)".into(),
            base: ExperimentConfig::bushy_default(),
            parameter: SweepParameter::RatePerSec,
            values: vec![0.4, 0.7, 1.0, 1.3, 1.6],
        }
    }

    /// Figure 12: overhead vs number of sources `N` (bushy plan).
    fn fig12() -> FigureSpec {
        FigureSpec {
            id: "fig12".into(),
            caption: "Overhead vs. number of sources N (bushy plan)".into(),
            base: ExperimentConfig::bushy_default(),
            parameter: SweepParameter::NumSources,
            values: vec![4.0, 5.0, 6.0, 7.0, 8.0],
        }
    }

    /// Figure 13: overhead vs maximum data value `dmax` (bushy plan).
    fn fig13() -> FigureSpec {
        FigureSpec {
            id: "fig13".into(),
            caption: "Overhead vs. max data value dmax (bushy plan)".into(),
            base: ExperimentConfig::bushy_default(),
            parameter: SweepParameter::DMax,
            values: vec![100.0, 150.0, 200.0, 250.0, 300.0],
        }
    }

    /// Figure 14: overhead vs window size `w` (left-deep plan).
    fn fig14() -> FigureSpec {
        FigureSpec {
            id: "fig14".into(),
            caption: "Overhead vs. window size w (left-deep plan)".into(),
            base: ExperimentConfig::leftdeep_default(),
            parameter: SweepParameter::WindowMinutes,
            values: vec![5.0, 7.5, 10.0, 12.5, 15.0],
        }
    }

    /// Figure 15: overhead vs stream rate `λ` (left-deep plan).
    fn fig15() -> FigureSpec {
        FigureSpec {
            id: "fig15".into(),
            caption: "Overhead vs. stream rate lambda (left-deep plan)".into(),
            base: ExperimentConfig::leftdeep_default(),
            parameter: SweepParameter::RatePerSec,
            values: vec![0.4, 0.7, 1.0, 1.3, 1.6],
        }
    }

    /// Figure 16: overhead vs number of sources `N` (left-deep plan).
    fn fig16() -> FigureSpec {
        FigureSpec {
            id: "fig16".into(),
            caption: "Overhead vs. number of sources N (left-deep plan)".into(),
            base: ExperimentConfig::leftdeep_default(),
            parameter: SweepParameter::NumSources,
            values: vec![3.0, 4.0, 5.0, 6.0],
        }
    }

    /// Figure 17: overhead vs maximum data value `dmax` (left-deep plan).
    pub(crate) fn fig17() -> FigureSpec {
        FigureSpec {
            id: "fig17".into(),
            caption: "Overhead vs. max data value dmax (left-deep plan)".into(),
            base: ExperimentConfig::leftdeep_default(),
            parameter: SweepParameter::DMax,
            values: vec![30.0, 40.0, 50.0, 60.0, 70.0],
        }
    }

    /// The experiment configuration for one swept value.
    pub(crate) fn config_for(&self, value: f64) -> ExperimentConfig {
        let mut config = self.base.clone();
        match self.parameter {
            SweepParameter::WindowMinutes => {
                config.workload = config.workload.with_window_minutes(value);
            }
            SweepParameter::RatePerSec => {
                config.workload = config.workload.with_rate(value);
            }
            SweepParameter::NumSources => {
                let n = value.round() as usize;
                config.workload = config.workload.with_sources(n);
                config.shape = PlanShape {
                    num_sources: n,
                    ..config.shape
                };
            }
            SweepParameter::DMax => {
                config.workload = config.workload.with_dmax(value.round() as u64);
            }
        }
        config
    }
}

/// One measured point of a figure: the swept value and, per mode, the
/// metrics snapshot.
#[derive(Debug, Clone, Serialize)]
pub(crate) struct FigureRow {
    /// The swept parameter value.
    pub(crate) x: f64,
    /// `(mode label, snapshot, final result count)` per execution mode.
    pub(crate) measurements: Vec<(String, MetricsSnapshot, u64)>,
}

/// A fully measured figure.
#[derive(Debug, Clone, Serialize)]
pub(crate) struct FigureResult {
    /// The figure's identifier.
    pub(crate) id: String,
    /// The figure's caption.
    pub(crate) caption: String,
    /// Axis label of the swept parameter.
    pub(crate) x_label: String,
    /// One row per swept value.
    pub(crate) rows: Vec<FigureRow>,
}

impl FigureResult {
    /// The series of CPU cost units for one mode (row order).
    #[cfg(test)]
    fn cost_series(&self, mode: &str) -> Vec<u64> {
        self.rows
            .iter()
            .filter_map(|row| {
                row.measurements
                    .iter()
                    .find(|(m, _, _)| m == mode)
                    .map(|(_, snap, _)| snap.steady_cost_units)
            })
            .collect()
    }

    /// The series of peak memory (KB) for one mode (row order).
    #[cfg(test)]
    fn memory_series(&self, mode: &str) -> Vec<f64> {
        self.rows
            .iter()
            .filter_map(|row| {
                row.measurements
                    .iter()
                    .find(|(m, _, _)| m == mode)
                    .map(|(_, snap, _)| snap.steady_peak_memory_bytes as f64 / 1024.0)
            })
            .collect()
    }
}

/// Run one figure: every swept value, every mode, on the same seeded trace
/// per value (each mode runs on its own [`Engine`] over the shared trace).
/// `duration_scale` scales application time (1.0 = 60 minutes per point;
/// the paper uses 5 hours = 5.0).
///
/// The figures pin [`StateIndexMode::Scan`]: the paper's cost model (and
/// its JIT-beats-REF CPU claims) assume nested-loop operator states, whose
/// dominant probe term is exactly what suppression saves. Under the
/// hash-indexed states (the engine default) REF itself becomes
/// output-sensitive and the relative CPU gap narrows — that regime is
/// measured by `bench_e2e` and pinned by `tests/indexed_state_equivalence.rs`
/// (indexed probes ≥ 10× cheaper on the 3-source clique, equal results), not
/// by the paper-reproduction figures.
///
/// Figure 16 (left-deep, `N` swept) is the one figure whose shape is not the
/// paper's: JIT costs 1.17 × REF at `N = 5` and 1.29 × at `N = 6` (scale
/// 0.3, seed 7; 1.74 × / 1.95 × while ports still detected MNSs no producer
/// could act on). With five or more sources the enlarged last source no
/// longer starves `{A,B,C}⋈{D}`, so nothing tells `{A,B}⋈{C}` — 71 % of REF's
/// cost — to stop, and JIT pays there for detection that buys nothing: per
/// examined pair it evaluates the predicates of every candidate component
/// (`Identify_MNS` needs each component's outcome; 1.64 `PredicateEval`s
/// per pair) where REF stops at the first one that fails (1.02). At `N = 5`
/// that operator is 8.0 of the 11.9 M excess units (`PredicateEval` + 8.1,
/// `LatticeNode` + 1.8, `ProbePair` − 2.0) and `{A,B,C}⋈{D}` 3.7; at
/// `N = 6` they are 8.8 and 12.1 of 21.1 (`{A,B,C}⋈{D}`: `PredicateEval`
/// + 6.3, `LatticeNode` + 4.0, `MnsBufferProbe` + 2.6, `ProbePair` − 0.9).
pub(crate) fn run_figure(spec: &FigureSpec, duration_scale: f64, seed: u64) -> FigureResult {
    let mut rows = Vec::with_capacity(spec.values.len());
    for &value in &spec.values {
        let config = spec
            .config_for(value)
            .with_duration_scale(duration_scale)
            .with_seed(seed);
        let exec_config = ExecutorConfig {
            collect_results: false,
        };
        let trace = WorkloadGenerator::generate(&config.workload);
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: the built-in figure workloads construct valid plans; a failure here is a bug in this crate's own tables."
        )]
        let outcomes = Engine::builder()
            .workload(&config.workload, &config.shape)
            .executor_config(exec_config)
            .state_index(StateIndexMode::Scan)
            .compare(&trace, &config.modes)
            .expect("figure plans are valid by construction");
        let measurements = outcomes
            .into_iter()
            .map(|o| (o.mode_label.to_string(), o.snapshot, o.results_count))
            .collect();
        rows.push(FigureRow {
            x: value,
            measurements,
        });
    }
    FigureResult {
        id: spec.id.clone(),
        caption: spec.caption.clone(),
        x_label: spec.parameter.label().to_string(),
        rows,
    }
}

/// The duration scale below which the *memory* expectation is not checked.
///
/// Below this scale the run is shorter than (or comparable to) the window,
/// so nothing ever expires: REF's operator states sit at their no-expiry
/// ceiling and JIT's auxiliary structures (MNS buffers, blacklists) stack
/// *on top of* near-identical states, leaving JIT's peak a few percent
/// above REF's until expiry starts reclaiming the storage that suppression
/// avoided. The effect is inherent to the no-expiry regime, not a bug —
/// the paper's own setting (scale 5.0, five hours per point) is deep in
/// the expiring regime, where JIT's memory advantage is the headline
/// result. CPU-cost and result-count expectations hold at every scale and
/// are always checked.
pub(crate) const MEMORY_CHECK_MIN_SCALE: f64 = 0.3;

/// Check the qualitative claims of the paper on a measured figure: JIT's
/// CPU cost (at any `duration_scale`) and peak memory (at scales ≥
/// [`MEMORY_CHECK_MIN_SCALE`], see there) do not exceed REF's at any swept
/// point, and both modes report the same number of final results. A 10%
/// slack is allowed on both metrics because on very short, low-selectivity
/// runs JIT's auxiliary structures (MNS buffers, blacklists) can cost a few
/// percent before the suppression savings kick in. Returns a list of
/// violations (empty = the figure reproduces the paper's shape).
pub(crate) fn check_expectations(result: &FigureResult, duration_scale: f64) -> Vec<String> {
    const SLACK: f64 = 1.10;
    let mut violations = Vec::new();
    for row in &result.rows {
        let find = |mode: &str| row.measurements.iter().find(|(m, _, _)| m == mode);
        let (Some(ref_m), Some(jit_m)) = (find("REF"), find("JIT")) else {
            violations.push(format!("{}: missing REF or JIT at x={}", result.id, row.x));
            continue;
        };
        if jit_m.1.steady_cost_units as f64 > ref_m.1.steady_cost_units as f64 * SLACK {
            violations.push(format!(
                "{}: JIT cost {} exceeds REF cost {} at x={}",
                result.id, jit_m.1.steady_cost_units, ref_m.1.steady_cost_units, row.x
            ));
        }
        // Memory is only comparable once the run actually expires tuples;
        // see MEMORY_CHECK_MIN_SCALE for why short runs inherently favour
        // REF here.
        if duration_scale >= MEMORY_CHECK_MIN_SCALE
            && jit_m.1.steady_peak_memory_bytes as f64
                > ref_m.1.steady_peak_memory_bytes as f64 * SLACK
        {
            violations.push(format!(
                "{}: JIT peak memory {} exceeds REF {} at x={}",
                result.id,
                jit_m.1.steady_peak_memory_bytes,
                ref_m.1.steady_peak_memory_bytes,
                row.x
            ));
        }
        if jit_m.2 != ref_m.2 {
            violations.push(format!(
                "{}: result counts differ (REF {}, JIT {}) at x={}",
                result.id, ref_m.2, jit_m.2, row.x
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_figures_are_defined() {
        let figs = FigureSpec::all();
        assert_eq!(figs.len(), 8);
        assert_eq!(figs[0].id, "fig10");
        assert_eq!(figs[7].id, "fig17");
        assert!(FigureSpec::by_id("fig13").is_some());
        assert!(FigureSpec::by_id("fig99").is_none());
    }

    #[test]
    fn sweep_values_match_table_iii() {
        assert_eq!(
            FigureSpec::fig10().values,
            vec![10.0, 15.0, 20.0, 25.0, 30.0]
        );
        assert_eq!(FigureSpec::fig14().values, vec![5.0, 7.5, 10.0, 12.5, 15.0]);
        assert_eq!(FigureSpec::fig12().values, vec![4.0, 5.0, 6.0, 7.0, 8.0]);
        assert_eq!(FigureSpec::fig16().values, vec![3.0, 4.0, 5.0, 6.0]);
        assert_eq!(
            FigureSpec::fig17().values,
            vec![30.0, 40.0, 50.0, 60.0, 70.0]
        );
    }

    #[test]
    fn config_for_overrides_the_right_parameter() {
        let f = FigureSpec::fig12();
        let c = f.config_for(8.0);
        assert_eq!(c.workload.num_sources, 8);
        assert_eq!(c.shape.num_sources, 8);
        let f = FigureSpec::fig10();
        assert_eq!(f.config_for(25.0).workload.window_minutes, 25.0);
        let f = FigureSpec::fig11();
        assert_eq!(f.config_for(1.6).workload.rate_per_sec, 1.6);
        let f = FigureSpec::fig13();
        assert_eq!(f.config_for(300.0).workload.dmax, 300);
    }

    /// Figure 16's excess at N ≥ 5 was mostly detection nobody could act on:
    /// MNSs of source-fed ports, and MNSs spanning both inputs of their
    /// producer (1.8 × REF's steady cost here before ports stopped looking
    /// for them, 1.19 × since). What is left is named in [`run_figure`]'s
    /// docs.
    #[test]
    fn fig16_jit_cost_at_five_sources_stays_near_ref() {
        let mut spec = FigureSpec::fig16();
        spec.values = vec![5.0];
        let result = run_figure(&spec, 0.2, 7);
        let (reference, jit) = (result.cost_series("REF")[0], result.cost_series("JIT")[0]);
        println!("fig16 N = 5, scale 0.2: JIT {jit} / REF {reference} cost units");
        assert!(
            jit as f64 <= 1.3 * reference as f64,
            "JIT steady cost {jit} is {:.2} x REF's {reference}",
            jit as f64 / reference as f64
        );
    }

    #[test]
    fn tiny_figure_run_produces_rows_and_passes_checks() {
        // A drastically scaled-down figure still exercises the whole path.
        let mut spec = FigureSpec::fig16();
        spec.values = vec![3.0, 4.0];
        spec.base.workload = spec.base.workload.with_rate(0.5).with_dmax(20);
        let result = run_figure(&spec, 0.05, 123);
        assert_eq!(result.rows.len(), 2);
        assert_eq!(result.cost_series("REF").len(), 2);
        assert_eq!(result.memory_series("JIT").len(), 2);
        let violations = check_expectations(&result, 0.05);
        assert!(violations.is_empty(), "violations: {violations:?}");
    }
}
