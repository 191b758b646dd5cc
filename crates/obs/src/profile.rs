//! Self-profile summaries.
//!
//! [`ProfileSummary::from_trace`] folds a drained [`Trace`] into
//! per-phase exclusive/inclusive time and per-worker utilization — the
//! deterministic text table `trackdown profile` prints next to the
//! Chrome export. *Exclusive* time is a span's inclusive time minus the
//! inclusive time of its direct children, so summing exclusive time
//! across all phases partitions recorded wall time without double
//! counting; idle stretches are recorded as `*.idle` spans, so they are
//! accounted (not missing) time.

use crate::trace::Trace;
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
        let spans = &trace.events;
        let index_of: HashMap<u64, usize> =
            spans.iter().enumerate().map(|(i, e)| (e.id, i)).collect();
        // Sum each span's direct-children inclusive time onto the parent.
        let mut child_us = vec![0u64; spans.len()];
        for e in spans {
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

#[cfg(test)]
mod tests {
    use super::*;

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
