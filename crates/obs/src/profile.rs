//! Self-profile summaries and the bench perf-regression reporter.
//!
//! [`ProfileSummary::from_trace`] folds a drained [`Trace`] into
//! per-phase exclusive/inclusive time and per-worker utilization — the
//! deterministic text table `trackdown profile` prints next to the
//! Chrome export. *Exclusive* time is a span's inclusive time minus the
//! inclusive time of its direct children, so summing exclusive time
//! across all phases partitions recorded wall time without double
//! counting; idle stretches are recorded as `*.idle` spans, so they are
//! accounted (not missing) time.
//!
//! [`diff_bench_snapshots`] implements `trackdown perf-report`: it
//! diffs two `BENCH_pipeline.json` value trees metric-by-metric with a
//! tolerance threshold and renders the markdown table CI posts.

use crate::trace::{Trace, TraceEventKind};
use serde::Value;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Aggregate timing for one span name across a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStat {
    /// Span name (e.g. `worker.epoch`).
    pub name: &'static str,
    /// Number of spans recorded under this name.
    pub count: u64,
    /// Total wall time inside these spans, including children (µs).
    pub inclusive_us: u64,
    /// Total wall time inside these spans, excluding time attributed to
    /// direct child spans (µs).
    pub exclusive_us: u64,
}

/// Per-thread activity summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerStat {
    /// Dense trace thread index.
    pub thread: usize,
    /// OS thread name, if any.
    pub label: Option<String>,
    /// Active window: first span start to last span end on this thread (µs).
    pub window_us: u64,
    /// Time inside root spans (µs) — the accounted share of the window.
    pub accounted_us: u64,
    /// Time inside `*.idle` spans (µs).
    pub idle_us: u64,
}

impl WorkerStat {
    /// Percentage of the active window spent busy (accounted − idle).
    pub fn utilization_pct(&self) -> f64 {
        if self.window_us == 0 {
            return 0.0;
        }
        100.0 * self.accounted_us.saturating_sub(self.idle_us) as f64 / self.window_us as f64
    }
}

/// Deterministic profile summary distilled from one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileSummary {
    /// Per-phase stats, sorted by exclusive time (desc), then name.
    pub phases: Vec<PhaseStat>,
    /// Per-thread stats, sorted by thread index.
    pub workers: Vec<WorkerStat>,
    /// Wall-clock length of the trace window (µs).
    pub trace_duration_us: u64,
}

impl ProfileSummary {
    /// Fold a trace into per-phase and per-worker aggregates.
    pub fn from_trace(trace: &Trace) -> ProfileSummary {
        let spans: Vec<_> = trace
            .events
            .iter()
            .filter(|e| e.kind == TraceEventKind::Span)
            .collect();
        let index_of: HashMap<u64, usize> =
            spans.iter().enumerate().map(|(i, e)| (e.id, i)).collect();
        // Sum each span's direct-children inclusive time onto the parent.
        let mut child_us = vec![0u64; spans.len()];
        for e in &spans {
            if e.parent != 0 {
                if let Some(&p) = index_of.get(&e.parent) {
                    child_us[p] += e.end_us.saturating_sub(e.start_us);
                }
            }
        }
        let mut phases: HashMap<&'static str, PhaseStat> = HashMap::new();
        for (i, e) in spans.iter().enumerate() {
            let inclusive = e.end_us.saturating_sub(e.start_us);
            let stat = phases.entry(e.name).or_insert(PhaseStat {
                name: e.name,
                count: 0,
                inclusive_us: 0,
                exclusive_us: 0,
            });
            stat.count += 1;
            stat.inclusive_us += inclusive;
            stat.exclusive_us += inclusive.saturating_sub(child_us[i]);
        }
        let mut phases: Vec<PhaseStat> = phases.into_values().collect();
        phases.sort_by(|a, b| b.exclusive_us.cmp(&a.exclusive_us).then(a.name.cmp(b.name)));

        let mut workers = Vec::with_capacity(trace.threads.len());
        for t in &trace.threads {
            let mine = spans.iter().filter(|e| e.thread == t.index);
            let mut first = u64::MAX;
            let mut last = 0u64;
            let mut accounted = 0u64;
            let mut idle = 0u64;
            let mut any = false;
            for e in mine {
                any = true;
                first = first.min(e.start_us);
                last = last.max(e.end_us);
                let inclusive = e.end_us.saturating_sub(e.start_us);
                let is_root = e.parent == 0 || !index_of.contains_key(&e.parent);
                if is_root {
                    accounted += inclusive;
                }
                if e.name.ends_with(".idle") {
                    idle += inclusive;
                }
            }
            workers.push(WorkerStat {
                thread: t.index,
                label: t.label.clone(),
                window_us: if any { last - first } else { 0 },
                accounted_us: accounted,
                idle_us: idle,
            });
        }
        ProfileSummary {
            phases,
            workers,
            trace_duration_us: trace.duration_us,
        }
    }

    /// Total exclusive time across all phases (µs). Because exclusive
    /// time partitions each thread's root spans, this approximates the
    /// sum of per-thread accounted time.
    pub fn total_exclusive_us(&self) -> u64 {
        self.phases.iter().map(|p| p.exclusive_us).sum()
    }

    /// Sum of per-thread active windows (µs) — the wall time the profile
    /// is expected to account for.
    pub fn total_window_us(&self) -> u64 {
        self.workers.iter().map(|w| w.window_us).sum()
    }

    /// Percentage of the per-thread active windows covered by per-phase
    /// exclusive time. The acceptance bar for `trackdown profile` is
    /// ≥ 90.
    pub fn coverage_pct(&self) -> f64 {
        let window = self.total_window_us();
        if window == 0 {
            return 0.0;
        }
        100.0 * self.total_exclusive_us() as f64 / window as f64
    }

    /// The phase with the largest exclusive time, if any — the "dominant
    /// cost" a profiling run is after.
    pub fn dominant_phase(&self) -> Option<&PhaseStat> {
        self.phases.first()
    }

    /// Render the deterministic summary table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let total_excl = self.total_exclusive_us().max(1);
        out.push_str("phase                        count    incl_ms    excl_ms  excl%\n");
        for p in &self.phases {
            let _ = writeln!(
                out,
                "{:<28} {:>5} {:>10.3} {:>10.3} {:>6.1}",
                p.name,
                p.count,
                p.inclusive_us as f64 / 1000.0,
                p.exclusive_us as f64 / 1000.0,
                100.0 * p.exclusive_us as f64 / total_excl as f64,
            );
        }
        out.push('\n');
        out.push_str("worker                        window_ms    busy_ms    idle_ms  util%\n");
        for w in &self.workers {
            let label = w
                .label
                .clone()
                .unwrap_or_else(|| format!("thread-{}", w.thread));
            let _ = writeln!(
                out,
                "{:<28} {:>10.3} {:>10.3} {:>10.3} {:>6.1}",
                label,
                w.window_us as f64 / 1000.0,
                w.accounted_us.saturating_sub(w.idle_us) as f64 / 1000.0,
                w.idle_us as f64 / 1000.0,
                w.utilization_pct(),
            );
        }
        let _ = writeln!(
            out,
            "\nexclusive-time coverage: {:.1}% of {:.3} ms active window",
            self.coverage_pct(),
            self.total_window_us() as f64 / 1000.0,
        );
        if let Some(p) = self.dominant_phase() {
            let _ = writeln!(
                out,
                "dominant phase: {} ({:.3} ms exclusive, {:.1}% of accounted time)",
                p.name,
                p.exclusive_us as f64 / 1000.0,
                100.0 * p.exclusive_us as f64 / total_excl as f64,
            );
        }
        out
    }
}

// ---- perf-report -----------------------------------------------------

/// Direction in which a metric is allowed to move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricPolicy {
    /// Smaller is better (latencies, allocation counts): flag increases
    /// beyond tolerance.
    LowerBetter,
    /// Larger is better (speedups, ratios): flag decreases beyond
    /// tolerance.
    HigherBetter,
    /// Environment descriptors (core counts): never flagged.
    Info,
    /// Everything else: any change is reported as drift, never as a
    /// regression.
    Exact,
}

/// Outcome for one metric in a [`PerfReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricStatus {
    /// Within tolerance (or unchanged).
    Ok,
    /// Moved in the good direction beyond tolerance.
    Improved,
    /// Moved in the bad direction beyond tolerance.
    Regressed,
    /// Changed, but the metric has no better/worse direction (schema
    /// bumps, key added/removed). Informational, never failing.
    Drift,
    /// Info-only metric.
    Info,
}

impl MetricStatus {
    fn label(self) -> &'static str {
        match self {
            MetricStatus::Ok => "ok",
            MetricStatus::Improved => "improved ✅",
            MetricStatus::Regressed => "REGRESSED ❌",
            MetricStatus::Drift => "drift",
            MetricStatus::Info => "info",
        }
    }
}

/// One metric row of a perf report.
#[derive(Debug, Clone)]
pub struct MetricDiff {
    /// Metric key from the snapshot JSON.
    pub key: String,
    /// Baseline rendering (`-` if absent).
    pub baseline: String,
    /// Current rendering (`-` if absent).
    pub current: String,
    /// Relative change in percent, when both sides are numeric.
    pub delta_pct: Option<f64>,
    /// Verdict under the policy and tolerance.
    pub status: MetricStatus,
}

/// The diff of two bench snapshots.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Per-metric rows, in baseline key order (new keys appended).
    pub rows: Vec<MetricDiff>,
    /// Tolerance threshold used, in percent.
    pub tolerance_pct: f64,
}

impl PerfReport {
    /// Keys whose status is [`MetricStatus::Regressed`].
    pub fn regressions(&self) -> Vec<&MetricDiff> {
        self.rows
            .iter()
            .filter(|r| r.status == MetricStatus::Regressed)
            .collect()
    }

    /// Render the markdown table CI posts.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "## Bench perf report (tolerance ±{:.0}%)\n",
            self.tolerance_pct
        );
        out.push_str("| metric | baseline | current | Δ% | status |\n");
        out.push_str("|---|---:|---:|---:|---|\n");
        for r in &self.rows {
            let delta = match r.delta_pct {
                Some(d) => format!("{d:+.1}"),
                None => "-".into(),
            };
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} |",
                r.key,
                r.baseline,
                r.current,
                delta,
                r.status.label()
            );
        }
        let regs = self.regressions();
        if regs.is_empty() {
            out.push_str("\nNo regressions beyond tolerance.\n");
        } else {
            let keys: Vec<&str> = regs.iter().map(|r| r.key.as_str()).collect();
            let _ = writeln!(
                out,
                "\n**{} regression(s): {}**",
                regs.len(),
                keys.join(", ")
            );
        }
        out
    }
}

/// Policy for a snapshot key, by naming convention: `*_ms` and
/// allocation counts are lower-better, `*speedup*`/`*ratio*` are
/// higher-better, `cores` is environment info, anything else (schema,
/// labels, counts) is compared exactly and reported as drift on change.
pub fn metric_policy(key: &str) -> MetricPolicy {
    if key.ends_with("_ms") || key.ends_with("_us") || key == "allocs_per_epoch" {
        MetricPolicy::LowerBetter
    } else if key.contains("speedup") || key.contains("ratio") {
        MetricPolicy::HigherBetter
    } else if key == "cores" {
        MetricPolicy::Info
    } else {
        MetricPolicy::Exact
    }
}

fn numeric(v: &Value) -> Option<f64> {
    match v {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(n) => Some(*n),
        _ => None,
    }
}

fn render_value(v: Option<&Value>) -> String {
    match v {
        None => "-".into(),
        Some(Value::Str(s)) => s.clone(),
        Some(other) => serde_json::to_string(other).unwrap_or_else(|_| "?".into()),
    }
}

/// Diff two bench-snapshot object trees. `tolerance_pct` is the relative
/// change (in percent) a directional metric may move before it is
/// flagged.
pub fn diff_bench_snapshots(baseline: &Value, current: &Value, tolerance_pct: f64) -> PerfReport {
    let empty: &[(String, Value)] = &[];
    let base = baseline.as_object().unwrap_or(empty);
    let cur = current.as_object().unwrap_or(empty);
    let mut keys: Vec<&str> = base.iter().map(|(k, _)| k.as_str()).collect();
    for (k, _) in cur {
        if !keys.contains(&k.as_str()) {
            keys.push(k);
        }
    }
    let mut rows = Vec::with_capacity(keys.len());
    for key in keys {
        let b = serde::obj_get(base, key);
        let c = serde::obj_get(cur, key);
        let policy = metric_policy(key);
        let (delta_pct, status) = match (b, c) {
            (Some(bv), Some(cv)) => match (numeric(bv), numeric(cv)) {
                (Some(bn), Some(cn)) => {
                    let delta = if bn == 0.0 {
                        if cn == 0.0 {
                            0.0
                        } else {
                            f64::INFINITY
                        }
                    } else {
                        100.0 * (cn - bn) / bn
                    };
                    let status = match policy {
                        MetricPolicy::Info => MetricStatus::Info,
                        MetricPolicy::Exact => {
                            if bn == cn {
                                MetricStatus::Ok
                            } else {
                                MetricStatus::Drift
                            }
                        }
                        MetricPolicy::LowerBetter => {
                            if delta > tolerance_pct {
                                MetricStatus::Regressed
                            } else if delta < -tolerance_pct {
                                MetricStatus::Improved
                            } else {
                                MetricStatus::Ok
                            }
                        }
                        MetricPolicy::HigherBetter => {
                            if delta < -tolerance_pct {
                                MetricStatus::Regressed
                            } else if delta > tolerance_pct {
                                MetricStatus::Improved
                            } else {
                                MetricStatus::Ok
                            }
                        }
                    };
                    (Some(delta), status)
                }
                _ => {
                    let status = if bv == cv {
                        MetricStatus::Ok
                    } else {
                        MetricStatus::Drift
                    };
                    (None, status)
                }
            },
            // Key added or removed: schema drift, not a perf verdict.
            _ => (None, MetricStatus::Drift),
        };
        rows.push(MetricDiff {
            key: key.to_string(),
            baseline: render_value(b),
            current: render_value(c),
            delta_pct,
            status,
        });
    }
    PerfReport {
        rows,
        tolerance_pct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(entries: &[(&str, Value)]) -> Value {
        Value::Object(
            entries
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        )
    }

    #[test]
    fn perf_report_flags_directional_regressions_only() {
        let base = snap(&[
            ("schema", Value::U64(5)),
            ("warm_ms", Value::F64(1.0)),
            ("large_thread_speedup", Value::F64(0.7)),
            ("cores", Value::U64(1)),
        ]);
        let cur = snap(&[
            ("schema", Value::U64(6)),
            ("warm_ms", Value::F64(1.5)),
            ("large_thread_speedup", Value::F64(1.4)),
            ("cores", Value::U64(8)),
        ]);
        let report = diff_bench_snapshots(&base, &cur, 10.0);
        let by_key = |k: &str| {
            report
                .rows
                .iter()
                .find(|r| r.key == k)
                .unwrap_or_else(|| panic!("missing row {k}"))
        };
        assert_eq!(by_key("warm_ms").status, MetricStatus::Regressed);
        assert_eq!(
            by_key("large_thread_speedup").status,
            MetricStatus::Improved
        );
        assert_eq!(by_key("schema").status, MetricStatus::Drift);
        assert_eq!(by_key("cores").status, MetricStatus::Info);
        assert_eq!(report.regressions().len(), 1);
        let md = report.render_markdown();
        assert!(md.contains("| warm_ms |"));
        assert!(md.contains("REGRESSED"));
    }

    #[test]
    fn perf_report_within_tolerance_is_clean() {
        let base = snap(&[("warm_ms", Value::F64(1.00))]);
        let cur = snap(&[("warm_ms", Value::F64(1.04))]);
        let report = diff_bench_snapshots(&base, &cur, 10.0);
        assert!(report.regressions().is_empty());
        assert!(report.render_markdown().contains("No regressions"));
    }

    #[test]
    fn profile_summary_partitions_time() {
        let _guard = crate::test_lock();
        crate::start_trace(crate::TraceConfig::default());
        {
            let _outer = crate::span("profile.test.outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = crate::span("profile.test.inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let trace = crate::end_trace().unwrap();
        let summary = ProfileSummary::from_trace(&trace);
        let outer = summary
            .phases
            .iter()
            .find(|p| p.name == "profile.test.outer")
            .unwrap();
        let inner = summary
            .phases
            .iter()
            .find(|p| p.name == "profile.test.inner")
            .unwrap();
        // Outer's exclusive time excludes inner's inclusive time.
        assert_eq!(outer.exclusive_us, outer.inclusive_us - inner.inclusive_us);
        // Exclusive totals cover the single root span exactly.
        assert_eq!(summary.total_exclusive_us(), outer.inclusive_us);
        assert_eq!(summary.workers.len(), 1);
        assert!(summary.coverage_pct() > 90.0);
        assert_eq!(
            summary.dominant_phase().map(|p| p.name),
            Some(if outer.exclusive_us >= inner.exclusive_us {
                "profile.test.outer"
            } else {
                "profile.test.inner"
            })
        );
        let rendered = summary.render();
        assert!(rendered.contains("profile.test.outer"));
        assert!(rendered.contains("dominant phase"));
    }
}
