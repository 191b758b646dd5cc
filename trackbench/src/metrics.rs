//! The metric catalogue, per-layer accumulation, and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] list every metric name with its unit
//! exactly as `BENCHMARK.json` does (a test keeps the two in step). Every
//! workload reports every metric: a layer a workload never enters reads 0.

use serde::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics, reported by untraced runs (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("op_ms", "ms"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics, reported by traced runs (`--trace 1`). Times are
/// totals over the traced phase; `bgp.deploy_p50_ms`/`_p90_ms` are over
/// single deployments.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bgp.deploy_ms", "ms"),
    ("bgp.deploy_p50_ms", "ms"),
    ("bgp.deploy_p90_ms", "ms"),
    ("bgp.events", "count"),
    ("bgp.cold_epochs", "count"),
    ("bgp.routes_disturbed", "count"),
    ("bgp.allocs", "count"),
    ("catchment.extract_ms", "ms"),
    ("catchment.data_plane_ms", "ms"),
    ("measure.plane_ms", "ms"),
    ("measure.measure_ms", "ms"),
    ("measure.impute_ms", "ms"),
    ("measure.allocs", "count"),
    ("schedule.order_ms", "ms"),
    ("schedule.memo_hits", "count"),
    ("cluster.refine_ms", "ms"),
    ("cluster.stats_ms", "ms"),
    ("cluster.splits", "count"),
    ("cluster.mean_size", "ASes"),
    ("cluster.singleton_frac", "ratio"),
    ("traffic.ingest_ms", "ms"),
    ("traffic.ns_per_flow", "ns"),
    ("traffic.allocs", "count"),
    ("traffic.unattributed_frac", "ratio"),
    ("attr.rank_ms", "ms"),
    ("attr.estimate_ms", "ms"),
    ("attr.suspects", "count"),
    ("online.loop_ms", "ms"),
    ("online.deploys", "count"),
    ("online.configs_mean", "configs"),
    ("online.localized_frac", "ratio"),
    ("topology.gen_s", "s"),
    ("trace_gap_pct", "%"),
];

/// The per-layer times that partition a traced operation: their sum is
/// what `trace_gap_pct` holds against the untraced operation time.
pub const LAYER_TIMES_MS: &[&str] = &[
    "bgp.deploy_ms",
    "catchment.extract_ms",
    "catchment.data_plane_ms",
    "measure.plane_ms",
    "measure.measure_ms",
    "measure.impute_ms",
    "schedule.order_ms",
    "cluster.refine_ms",
    "cluster.stats_ms",
    "traffic.ingest_ms",
    "attr.rank_ms",
    "attr.estimate_ms",
    "online.loop_ms",
];

/// Per-layer values accumulated from outside the layers: each call into a
/// crate's public function is timed (or counted) by the benchmark.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Add `v` to metric `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.values.entry(name).or_insert(0.0) += v;
    }

    /// Set metric `name` to `v`.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }

    /// Current value of `name` (0 when never touched).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Run `f`, adding its wall time in milliseconds to `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.add(name, ms_since(t));
        r
    }

    /// Sum of the partitioning layer times ([`LAYER_TIMES_MS`]).
    pub fn accounted_ms(&self) -> f64 {
        LAYER_TIMES_MS.iter().map(|n| self.get(n)).sum()
    }

    /// The per-layer metric set in catalogue order.
    pub fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric::new(name, unit, self.get(name)))
            .collect()
    }
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`^[A-Za-z0-9_.-]+$`).
    pub name: String,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: String,
    /// Value as measured.
    pub value: f64,
}

impl Metric {
    /// A metric with the given name, unit and value.
    pub fn new(name: &str, unit: &str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit: unit.into(),
            value,
        }
    }
}

/// What one benchmark run prints as its last line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Every output check passed and no operation failed.
    pub correct: bool,
    /// Operations attempted (timed campaigns, passes or trials, plus the
    /// traced phase).
    pub attempted: u64,
    /// Operations that panicked or whose output differed from the
    /// reference.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The JSON object the result line holds.
    pub fn to_value(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Value::Object(vec![
                        ("value".into(), Value::F64(m.value)),
                        ("unit".into(), Value::Str(m.unit.clone())),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::U64(self.attempted)),
            ("failed".into(), Value::U64(self.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ])
    }

    /// Parse the object [`RunResult::to_value`] produces.
    pub fn from_value(v: &Value) -> Result<RunResult, String> {
        let obj = v.as_object().ok_or("result is not an object")?;
        let field = |k: &str| serde::obj_get(obj, k).ok_or(format!("result lacks `{k}`"));
        let correct = matches!(field("correct")?, Value::Bool(true));
        let attempted = as_f64(field("attempted")?).ok_or("bad `attempted`")? as u64;
        let failed = as_f64(field("failed")?).ok_or("bad `failed`")? as u64;
        let mut metrics = Vec::new();
        for (name, m) in field("metrics")?.as_object().ok_or("bad `metrics`")? {
            let m = m
                .as_object()
                .ok_or(format!("metric {name} is not an object"))?;
            let value = serde::obj_get(m, "value")
                .and_then(as_f64)
                .ok_or(format!("metric {name} lacks a numeric value"))?;
            let unit = serde::obj_get(m, "unit")
                .and_then(Value::as_str)
                .ok_or(format!("metric {name} lacks a unit"))?;
            metrics.push(Metric::new(name, unit, value));
        }
        Ok(RunResult {
            correct,
            attempted,
            failed,
            metrics,
        })
    }

    /// One-line JSON rendering.
    pub fn json_line(&self) -> String {
        serde_json::to_string(&self.to_value()).expect("metric values are finite")
    }

    /// Value of metric `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// A JSON number as `f64`.
pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let r = RunResult {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![
                Metric::new("op_ms", "ms", 12.345678),
                Metric::new("setup_s", "s", 0.5),
            ],
        };
        let line = r.json_line();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":3,\"failed\":0,"));
        let back = RunResult::from_value(&serde_json::from_str(&line).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn layers_accumulate_and_cover_the_catalogue() {
        let mut l = Layers::default();
        l.add("bgp.deploy_ms", 2.0);
        l.add("bgp.deploy_ms", 3.0);
        l.add("bgp.events", 7.0);
        assert_eq!(l.get("bgp.deploy_ms"), 5.0);
        assert_eq!(l.accounted_ms(), 5.0);
        let m = l.metrics();
        assert_eq!(m.len(), PER_LAYER.len());
        assert!(LAYER_TIMES_MS
            .iter()
            .all(|n| PER_LAYER.iter().any(|(p, u)| p == n && *u == "ms")));
    }
}
