//! `benchmark compare`: judge a change against its parent from two
//! directories of run files, by the rule of the `choosing-metrics` guide
//! (§8) with the bounds `BENCHMARK.json` fixes.
//!
//! * **improved** — the change wins at least nine tenths of the paired
//!   runs (ties count for neither) and the medians differ by more than the
//!   parent's interquartile range;
//! * **unresolved** — otherwise, when either side's spread (IQR over
//!   median) is wider than the bound, unless every change run beats every
//!   parent run: such runs can show neither a regression nor its absence;
//! * **worse** — otherwise, when the change's median is worse than the
//!   parent's by more than the metric's bound;
//! * **unchanged** — otherwise.
//!
//! Runs pair up in file-name order, which puts the same seed side by side
//! when both directories hold the same seeds. Per-layer metrics counted in
//! `count`, `ASes`, `ratio` or `configs` are deterministic for a seed and
//! must repeat exactly within each pair: any drift is worse or improved by
//! its direction. Per-layer times carry no bound and are skipped.

use crate::metrics::{as_f64, RunResult};
use crate::stats::{median, quartiles, relative_spread};
use serde::{obj_get, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Units of metrics that must repeat exactly for a given seed.
const EXACT_UNITS: &[&str] = &["count", "ASes", "ratio", "configs"];

/// How a metric is judged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// May worsen by this share of the parent's median.
    Bound(f64),
    /// Must repeat exactly.
    Exact,
}

/// One metric of `BENCHMARK.json` that `compare` judges.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Metric name.
    pub name: String,
    /// Whether a smaller value is better.
    pub lower_is_better: bool,
    /// Bounded or exact.
    pub tolerance: Tolerance,
}

/// The judgement on one metric or one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Within the bound and steady enough to say so.
    Unchanged,
    /// A gain by the §8 rule.
    Improved,
    /// Spread wider than the bound: no conclusion.
    Unresolved,
    /// Worse than the parent by more than the bound.
    Worse,
}

impl Verdict {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
            Verdict::Worse => "worse",
        }
    }
}

/// One (workload, metric) comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Metric name.
    pub metric: String,
    /// The judgement.
    pub verdict: Verdict,
    /// Parent quartiles.
    pub parent: [f64; 3],
    /// Change quartiles.
    pub change: [f64; 3],
    /// Share of paired runs the change wins.
    pub win_share: f64,
    /// The metric's tolerance.
    pub tolerance: Tolerance,
}

/// Read the judged metrics from `BENCHMARK.json` text: every end-to-end
/// metric with its bound, and the per-layer metrics whose unit makes them
/// exact.
pub fn load_spec(text: &str) -> Result<Vec<Spec>, String> {
    let v: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let obj = v.as_object().ok_or("BENCHMARK.json is not an object")?;
    let mut specs = Vec::new();
    for (section, bounded) in [("end_to_end", true), ("per_layer", false)] {
        let list = obj_get(obj, section)
            .and_then(Value::as_array)
            .ok_or(format!("BENCHMARK.json lacks `{section}`"))?;
        for m in list {
            let m = m.as_object().ok_or("metric entry is not an object")?;
            let text = |k: &str| {
                obj_get(m, k)
                    .and_then(Value::as_str)
                    .ok_or(format!("metric entry lacks `{k}`"))
            };
            let tolerance = if bounded {
                let bound = obj_get(m, "bound")
                    .and_then(as_f64)
                    .ok_or("end-to-end metric lacks `bound`")?;
                Tolerance::Bound(bound)
            } else if EXACT_UNITS.contains(&text("unit")?) {
                Tolerance::Exact
            } else {
                continue;
            };
            specs.push(Spec {
                name: text("name")?.to_string(),
                lower_is_better: text("better")? == "lower",
                tolerance,
            });
        }
    }
    Ok(specs)
}

/// One saved run: its workload and result line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunFile {
    /// Workload name.
    pub workload: String,
    /// The run's result.
    pub result: RunResult,
}

/// Parse a run file written by `benchmark --out`.
pub fn parse_run_file(text: &str) -> Result<RunFile, String> {
    let v: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let obj = v.as_object().ok_or("run file is not an object")?;
    let workload = obj_get(obj, "workload")
        .and_then(Value::as_str)
        .ok_or("run file lacks `workload`")?
        .to_string();
    let result = RunResult::from_value(obj_get(obj, "result").ok_or("run file lacks `result`")?)?;
    Ok(RunFile { workload, result })
}

/// Every `*.json` run file in `dir`, in file-name order (the pairing
/// order).
pub fn load_runs(dir: &Path) -> Result<Vec<RunFile>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            std::fs::read_to_string(p)
                .map_err(|e| e.to_string())
                .and_then(|t| parse_run_file(&t))
                .map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

/// Judge one metric from the parent's and the change's run values
/// (paired by position).
pub fn classify(spec: &Spec, parent: &[f64], change: &[f64]) -> Comparison {
    // Positive `worse(a, b)` means `b` is worse than `a`.
    let sign = if spec.lower_is_better { 1.0 } else { -1.0 };
    let worse = |a: f64, b: f64| sign * (b - a);
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs)
        .filter(|&i| worse(parent[i], change[i]) < 0.0)
        .count();
    let win_share = if pairs == 0 {
        0.0
    } else {
        wins as f64 / pairs as f64
    };
    let (p, c) = (quartiles(parent), quartiles(change));
    let (pm, cm) = (median(parent), median(change));
    let verdict = if pairs == 0 {
        Verdict::Unresolved
    } else {
        match spec.tolerance {
            // Pairs share a seed, so their exact values must match.
            Tolerance::Exact => {
                if (0..pairs).any(|i| worse(parent[i], change[i]) > 0.0) {
                    Verdict::Worse
                } else if wins > 0 {
                    Verdict::Improved
                } else {
                    Verdict::Unchanged
                }
            }
            Tolerance::Bound(bound) => {
                let scale = if pm == 0.0 { 1.0 } else { pm.abs() };
                let parent_iqr = p[2] - p[0];
                let beats_all = parent
                    .iter()
                    .all(|&a| change.iter().all(|&b| worse(a, b) < 0.0));
                let noisy = relative_spread(parent) > bound || relative_spread(change) > bound;
                if win_share >= 0.9 && worse(pm, cm) < 0.0 && (cm - pm).abs() > parent_iqr {
                    Verdict::Improved
                } else if noisy && !beats_all {
                    Verdict::Unresolved
                } else if worse(pm, cm) / scale > bound {
                    Verdict::Worse
                } else {
                    Verdict::Unchanged
                }
            }
        }
    };
    Comparison {
        metric: spec.name.clone(),
        verdict,
        parent: p,
        change: c,
        win_share,
        tolerance: spec.tolerance,
    }
}

/// Compare every (workload, metric) pair both sides report.
pub fn compare(
    specs: &[Spec],
    parent: &[RunFile],
    change: &[RunFile],
) -> BTreeMap<String, Vec<Comparison>> {
    let values = |runs: &[RunFile], workload: &str, metric: &str| -> Vec<f64> {
        runs.iter()
            .filter(|r| r.workload == workload)
            .filter_map(|r| r.result.metric(metric))
            .collect()
    };
    let mut out: BTreeMap<String, Vec<Comparison>> = BTreeMap::new();
    let workloads: std::collections::BTreeSet<&str> =
        parent.iter().map(|r| r.workload.as_str()).collect();
    for w in workloads {
        for spec in specs {
            let (p, c) = (values(parent, w, &spec.name), values(change, w, &spec.name));
            if p.is_empty() && c.is_empty() {
                continue;
            }
            out.entry(w.to_string())
                .or_default()
                .push(classify(spec, &p, &c));
        }
    }
    out
}

/// The workload's verdict: its worst metric verdict.
pub fn workload_verdict(comparisons: &[Comparison]) -> Verdict {
    comparisons
        .iter()
        .map(|c| c.verdict)
        .max()
        .unwrap_or(Verdict::Unresolved)
}

/// Render one row per workload, each followed by its metrics.
pub fn render(report: &BTreeMap<String, Vec<Comparison>>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:<11} {:<24} {:>30} {:>30} {:>6} {:>7}",
        "workload",
        "verdict",
        "metric",
        "parent median [q1, q3]",
        "change median [q1, q3]",
        "wins",
        "bound"
    );
    for (w, comparisons) in report {
        let _ = writeln!(
            out,
            "{:<16} {:<11}",
            w,
            workload_verdict(comparisons).label()
        );
        for c in comparisons {
            let q = |v: [f64; 3]| format!("{:.4} [{:.4}, {:.4}]", v[1], v[0], v[2]);
            let bound = match c.tolerance {
                Tolerance::Bound(b) => format!("{:.0}%", b * 100.0),
                Tolerance::Exact => "exact".into(),
            };
            let _ = writeln!(
                out,
                "{:<16} {:<11} {:<24} {:>30} {:>30} {:>5.0}% {:>7}",
                "",
                c.verdict.label(),
                c.metric,
                q(c.parent),
                q(c.change),
                c.win_share * 100.0,
                bound
            );
        }
    }
    out
}
