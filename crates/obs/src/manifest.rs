//! JSONL run manifests: one `run` header line, one `epoch` line per
//! deployed configuration, and a final `metrics` snapshot line.
//!
//! The schema is stable by construction: every line is assembled as an
//! explicit key list (no derive-driven field sets), and a checked-in
//! [`validate_manifest`] asserts exact key sets so CI catches schema
//! drift. In *deterministic* mode no wall-clock-derived field is
//! emitted at all — `wall_us` is dropped from epoch lines, and the
//! metrics snapshot holds only work counts (spans feed no metric) — so
//! two runs of the same campaign produce byte-identical manifests. The
//! validator still rejects `time.*` histograms in a deterministic
//! manifest, since manifests are read back from outside.

use crate::metrics::MetricsSnapshot;
use serde::{obj_get, Serialize, Value};
use std::sync::Mutex;
use std::time::Instant;

/// Manifest schema version (`schema` field of the `run` line).
///
/// Version 2 added a `shards` run-header field (non-deterministic
/// manifests only) for the since-removed sharded extraction executor.
///
/// Version 3 added the `delta` epoch mode and the per-epoch
/// `routes_disturbed` field. It then measured net best-route disturbance
/// vs the previous epoch's fixpoint (0 for memo hits); it is now the
/// epoch's reachable count. An epoch's `events`, `rounds` and `changes`
/// describe its transition from the campaign's converged baseline.
///
/// Version 4 added the `trace` run-header field (non-deterministic
/// manifests only): the trace/profile configuration label from
/// [`crate::trace::trace_config_label`] (`"off"` or e.g.
/// `"chrome:cap=4096"`). Tracing observes execution without changing
/// any result, so — like `wall_us` — the field must never appear in
/// byte-identity-checked deterministic manifests.
///
/// Version 5 dropped the `shards` run-header field along with the
/// sharded executor: campaigns run on one chunked executor whose shape
/// the `threads` field already describes.
///
/// Version 6 dropped the vocabulary no campaign emits: the `warm` and
/// `memo` epoch modes (their executor and cache are deleted) and the
/// metrics line's `gauges` key (no gauge is registered).
///
/// Version 7 dropped `mode` from the run header and every epoch line:
/// every deployment then propagated from empty RIBs, so the field had one
/// value. (Epochs now start from the converged full anycast, which
/// changed their counts but not the schema.)
pub const MANIFEST_SCHEMA_VERSION: u64 = 7;

/// Run-level header describing the whole campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunInfo {
    /// Tool or scenario that produced the run (e.g. `campaign`, `fig3`).
    pub name: String,
    /// Topology seed.
    pub seed: u64,
    /// Policy (engine) seed.
    pub policy_seed: u64,
    /// Scale label (`small`/`medium`/`full`).
    pub scale: String,
    /// Worker threads used.
    pub threads: usize,
    /// Trace/profile configuration label (`"off"`, or e.g.
    /// `"chrome:cap=4096"` while a trace is armed — see
    /// [`crate::trace::trace_config_label`]). Rendered only in
    /// non-deterministic manifests: tracing observes execution without
    /// changing any result.
    pub trace: String,
    /// Number of configurations in the schedule.
    pub schedule_len: usize,
    /// Whether wall-clock fields were suppressed.
    pub deterministic: bool,
}

/// One deployed configuration, as recorded by the campaign executors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochRecord {
    /// Schedule index of the configuration.
    pub epoch: usize,
    /// Canonical announcement footprint key.
    pub footprint: String,
    /// Worker thread that deployed it (0 for sequential executors).
    pub thread: usize,
    /// Decision events processed during the epoch.
    pub events: usize,
    /// Convergence depth of the epoch.
    pub rounds: u32,
    /// Best-route changes during the epoch.
    pub changes: usize,
    /// ASes whose best route at this epoch's fixpoint differs from the
    /// empty state the deployment starts from: the reachable count.
    pub routes_disturbed: usize,
    /// Whether the epoch converged within the event cap.
    pub converged: bool,
    /// Wall time of the deployment in microseconds (`None` in
    /// deterministic mode).
    pub wall_us: Option<u64>,
}

/// Thread-safe collector the campaign executors record into. Cheap when
/// absent: the executors take `Option<&CampaignRecorder>` and skip all
/// work (including clock reads) on `None`.
#[derive(Debug, Default)]
pub struct CampaignRecorder {
    deterministic: bool,
    records: Mutex<Vec<EpochRecord>>,
}

impl CampaignRecorder {
    /// A recorder; `deterministic` suppresses every wall-clock field.
    pub fn new(deterministic: bool) -> CampaignRecorder {
        CampaignRecorder {
            deterministic,
            records: Mutex::new(Vec::new()),
        }
    }

    /// Whether wall-clock fields are suppressed.
    pub fn deterministic(&self) -> bool {
        self.deterministic
    }

    /// Start timing a deployment (`None` in deterministic mode, so the
    /// clock is never read and cannot perturb anything downstream).
    pub fn start_timer(&self) -> Option<Instant> {
        if self.deterministic {
            None
        } else {
            Some(Instant::now())
        }
    }

    /// Elapsed microseconds since [`CampaignRecorder::start_timer`].
    pub fn elapsed_us(&self, start: Option<Instant>) -> Option<u64> {
        start.map(|t| t.elapsed().as_micros().min(u64::MAX as u128) as u64)
    }

    /// Record one epoch. Callable from any worker thread.
    pub fn record(&self, record: EpochRecord) {
        self.records.lock().expect("recorder lock").push(record);
    }

    /// Drain the records, sorted by epoch index. Sorting here is what
    /// makes the manifest independent of worker scheduling: parallel
    /// executors push in completion order, which is nondeterministic.
    pub fn take_records(&self) -> Vec<EpochRecord> {
        let mut records = std::mem::take(&mut *self.records.lock().expect("recorder lock"));
        records.sort_by_key(|r| r.epoch);
        records
    }
}

/// Build one JSON object from explicit entries.
fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn json_line(v: &Value) -> String {
    serde_json::to_string(v).expect("Value serialization is infallible")
}

/// Render the full manifest: `run` line, `epoch` lines (sorted), and a
/// `metrics` line. `records` should come from
/// [`CampaignRecorder::take_records`].
pub fn render_manifest(
    run: &RunInfo,
    records: &[EpochRecord],
    metrics: Option<&MetricsSnapshot>,
) -> String {
    let mut out = String::new();
    let mut header = vec![
        ("record", Value::Str("run".into())),
        ("schema", Value::U64(MANIFEST_SCHEMA_VERSION)),
        ("name", Value::Str(run.name.clone())),
        ("seed", Value::U64(run.seed)),
        ("policy_seed", Value::U64(run.policy_seed)),
        ("scale", Value::Str(run.scale.clone())),
        ("threads", Value::U64(run.threads as u64)),
    ];
    if !run.deterministic {
        // Like wall_us on epoch lines: an execution detail that must not
        // appear in byte-identity-checked manifests.
        header.push(("trace", Value::Str(run.trace.clone())));
    }
    header.push(("schedule_len", Value::U64(run.schedule_len as u64)));
    header.push(("deterministic", Value::Bool(run.deterministic)));
    out.push_str(&json_line(&obj(header)));
    out.push('\n');
    for r in records {
        let mut entries = vec![
            ("record", Value::Str("epoch".into())),
            ("epoch", Value::U64(r.epoch as u64)),
            ("footprint", Value::Str(r.footprint.clone())),
            ("thread", Value::U64(r.thread as u64)),
            ("events", Value::U64(r.events as u64)),
            ("rounds", Value::U64(r.rounds as u64)),
            ("changes", Value::U64(r.changes as u64)),
            ("routes_disturbed", Value::U64(r.routes_disturbed as u64)),
            ("converged", Value::Bool(r.converged)),
        ];
        if !run.deterministic {
            if let Some(us) = r.wall_us {
                entries.push(("wall_us", Value::U64(us)));
            }
        }
        out.push_str(&json_line(&obj(entries)));
        out.push('\n');
    }
    if let Some(m) = metrics {
        out.push_str(&json_line(&obj(vec![
            ("record", Value::Str("metrics".into())),
            ("counters", m.counters.to_value()),
            ("histograms", m.histograms.to_value()),
        ])));
        out.push('\n');
    }
    out
}

/// Render and write a manifest to `path`.
pub fn write_manifest(
    path: &str,
    run: &RunInfo,
    records: &[EpochRecord],
    metrics: Option<&MetricsSnapshot>,
) -> std::io::Result<()> {
    std::fs::write(path, render_manifest(run, records, metrics))
}

/// Summary returned by [`validate_manifest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestSummary {
    /// `schedule_len` from the run header.
    pub schedule_len: usize,
    /// Number of epoch lines.
    pub epochs: usize,
    /// Whether the run declared deterministic mode.
    pub deterministic: bool,
}

/// Run-header keys of a *deterministic* manifest. Non-deterministic
/// manifests additionally carry `trace` (schema 4).
const RUN_KEYS: &[&str] = &[
    "record",
    "schema",
    "name",
    "seed",
    "policy_seed",
    "scale",
    "threads",
    "schedule_len",
    "deterministic",
];
const EPOCH_KEYS: &[&str] = &[
    "record",
    "epoch",
    "footprint",
    "thread",
    "events",
    "rounds",
    "changes",
    "routes_disturbed",
    "converged",
];
const METRICS_KEYS: &[&str] = &["record", "counters", "histograms"];

fn key_set(obj: &[(String, Value)]) -> Vec<&str> {
    let mut keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    keys
}

fn expect_keys(line: usize, obj: &[(String, Value)], want: &[&str]) -> Result<(), String> {
    let mut expected: Vec<&str> = want.to_vec();
    expected.sort_unstable();
    let got = key_set(obj);
    if got != expected {
        return Err(format!(
            "line {line}: key set {got:?} does not match schema {expected:?}"
        ));
    }
    Ok(())
}

fn get_u64(line: usize, obj: &[(String, Value)], key: &str) -> Result<u64, String> {
    match obj_get(obj, key) {
        Some(Value::U64(n)) => Ok(*n),
        other => Err(format!("line {line}: {key} is {other:?}, expected u64")),
    }
}

fn get_str<'a>(line: usize, obj: &'a [(String, Value)], key: &str) -> Result<&'a str, String> {
    obj_get(obj, key)
        .and_then(|v| v.as_str())
        .ok_or_else(|| format!("line {line}: {key} missing or not a string"))
}

fn get_bool(line: usize, obj: &[(String, Value)], key: &str) -> Result<bool, String> {
    match obj_get(obj, key) {
        Some(Value::Bool(b)) => Ok(*b),
        other => Err(format!("line {line}: {key} is {other:?}, expected bool")),
    }
}

/// Validate a manifest against the schema: exact key sets per record
/// kind, a `run` header first, exactly one `epoch` line per schedule
/// index (each index exactly once), and — when the run declares
/// deterministic mode — no `wall_us` anywhere and no `time.*`
/// histograms.
pub fn validate_manifest(text: &str) -> Result<ManifestSummary, String> {
    let mut lines = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        if raw.trim().is_empty() {
            continue;
        }
        let v: Value =
            serde_json::from_str(raw).map_err(|e| format!("line {}: bad JSON: {e}", i + 1))?;
        lines.push((i + 1, v));
    }
    let Some(((first_no, first), rest)) = lines.split_first() else {
        return Err("empty manifest".into());
    };
    let header = first
        .as_object()
        .ok_or(format!("line {first_no}: run header is not an object"))?;
    if get_str(*first_no, header, "record")? != "run" {
        return Err(format!("line {first_no}: first record must be \"run\""));
    }
    let deterministic = get_bool(*first_no, header, "deterministic")?;
    if deterministic {
        expect_keys(*first_no, header, RUN_KEYS)?;
    } else {
        let mut with_trace: Vec<&str> = RUN_KEYS.to_vec();
        with_trace.push("trace");
        expect_keys(*first_no, header, &with_trace)?;
        get_str(*first_no, header, "trace")?;
    }
    let schema = get_u64(*first_no, header, "schema")?;
    if schema != MANIFEST_SCHEMA_VERSION {
        return Err(format!(
            "line {first_no}: schema {schema} != {MANIFEST_SCHEMA_VERSION}"
        ));
    }
    let schedule_len = get_u64(*first_no, header, "schedule_len")? as usize;
    // One epoch line per schedule index: a longer schedule cannot
    // validate, and sizing the index table by it would let one corrupt
    // field allocate without bound.
    if schedule_len > rest.len() {
        return Err(format!(
            "line {first_no}: schedule_len {schedule_len} exceeds the {} records that follow",
            rest.len()
        ));
    }
    get_u64(*first_no, header, "seed")?;
    get_u64(*first_no, header, "policy_seed")?;
    get_u64(*first_no, header, "threads")?;
    get_str(*first_no, header, "name")?;
    get_str(*first_no, header, "scale")?;

    let mut seen_epochs = vec![false; schedule_len];
    let mut summary = ManifestSummary {
        schedule_len,
        epochs: 0,
        deterministic,
    };
    let mut saw_metrics = false;
    for (no, v) in rest {
        let record = v
            .as_object()
            .ok_or(format!("line {no}: record is not an object"))?;
        match get_str(*no, record, "record")? {
            "epoch" => {
                if saw_metrics {
                    return Err(format!("line {no}: epoch after metrics record"));
                }
                if deterministic {
                    expect_keys(*no, record, EPOCH_KEYS)?;
                } else {
                    // wall_us is optional (a record taken without a timer omits it).
                    let mut with_wall: Vec<&str> = EPOCH_KEYS.to_vec();
                    with_wall.push("wall_us");
                    expect_keys(*no, record, EPOCH_KEYS)
                        .or_else(|_| expect_keys(*no, record, &with_wall))?;
                }
                let epoch = get_u64(*no, record, "epoch")? as usize;
                if epoch >= schedule_len {
                    return Err(format!("line {no}: epoch {epoch} >= {schedule_len}"));
                }
                if seen_epochs[epoch] {
                    return Err(format!("line {no}: duplicate epoch {epoch}"));
                }
                seen_epochs[epoch] = true;
                summary.epochs += 1;
                get_str(*no, record, "footprint")?;
                get_u64(*no, record, "thread")?;
                get_u64(*no, record, "events")?;
                get_u64(*no, record, "rounds")?;
                get_u64(*no, record, "changes")?;
                get_u64(*no, record, "routes_disturbed")?;
                get_bool(*no, record, "converged")?;
            }
            "metrics" => {
                if saw_metrics {
                    return Err(format!("line {no}: duplicate metrics record"));
                }
                saw_metrics = true;
                expect_keys(*no, record, METRICS_KEYS)?;
                let histograms = obj_get(record, "histograms")
                    .and_then(|v| v.as_object())
                    .ok_or(format!("line {no}: histograms is not an object"))?;
                if deterministic {
                    if let Some((k, _)) = histograms.iter().find(|(k, _)| k.starts_with("time.")) {
                        return Err(format!(
                            "line {no}: wall-clock histogram {k:?} in deterministic manifest"
                        ));
                    }
                }
            }
            other => return Err(format!("line {no}: unknown record kind {other:?}")),
        }
    }
    if summary.epochs != schedule_len {
        return Err(format!(
            "{} epoch records for schedule_len {schedule_len}",
            summary.epochs
        ));
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn run_info(deterministic: bool) -> RunInfo {
        RunInfo {
            name: "test".into(),
            seed: 7,
            policy_seed: 9,
            scale: "small".into(),
            threads: 1,
            trace: "off".into(),
            schedule_len: 2,
            deterministic,
        }
    }

    fn records(wall: Option<u64>) -> Vec<EpochRecord> {
        vec![
            EpochRecord {
                epoch: 0,
                footprint: "⟨{l0}⟩".into(),
                thread: 0,
                events: 10,
                rounds: 3,
                changes: 5,
                routes_disturbed: 5,
                converged: true,
                wall_us: wall,
            },
            EpochRecord {
                epoch: 1,
                footprint: "⟨{l1}⟩".into(),
                thread: 0,
                events: 4,
                rounds: 1,
                changes: 2,
                routes_disturbed: 2,
                converged: true,
                wall_us: wall,
            },
        ]
    }

    #[test]
    fn roundtrip_validates() {
        let reg = Registry::new();
        reg.counter("bgp.events").add(14);
        reg.histogram("bgp.rounds").observe(3);
        let snap = reg.snapshot();

        let text = render_manifest(&run_info(false), &records(Some(33)), Some(&snap));
        let s = validate_manifest(&text).expect("valid manifest");
        assert_eq!(s.epochs, 2);
        assert!(text.contains("wall_us"));
        assert!(text.contains("bgp.rounds"));
        assert!(text.contains("\"trace\":\"off\""));

        let det = render_manifest(&run_info(true), &records(Some(33)), Some(&snap));
        let s = validate_manifest(&det).expect("valid deterministic manifest");
        assert!(s.deterministic);
        assert!(!det.contains("wall_us"), "wall-clock field leaked: {det}");
        assert!(!det.contains("trace"), "trace config leaked");

        // A wall-clock histogram in a deterministic manifest is rejected.
        reg.histogram("time.deploy").observe(120);
        let timed = render_manifest(&run_info(true), &records(None), Some(&reg.snapshot()));
        assert!(validate_manifest(&timed).is_err());
    }

    #[test]
    fn recorder_sorts_by_epoch() {
        let rec = CampaignRecorder::new(true);
        assert!(rec.start_timer().is_none());
        for r in records(None).into_iter().rev() {
            rec.record(r);
        }
        let sorted = rec.take_records();
        assert_eq!(sorted[0].epoch, 0);
        assert_eq!(sorted[1].epoch, 1);
        assert!(rec.take_records().is_empty());
    }

    #[test]
    fn validator_rejects_schema_drift() {
        let good = render_manifest(&run_info(false), &records(None), None);
        // Missing epoch 1.
        let one_epoch: String = good.lines().take(2).collect::<Vec<_>>().join("\n");
        assert!(validate_manifest(&one_epoch).is_err());
        // Unknown field.
        let drifted = good.replace("\"rounds\":", "\"bogus\":");
        assert!(validate_manifest(&drifted).is_err());
        // Duplicate epoch.
        let dup = good.replace("\"epoch\":1", "\"epoch\":0");
        assert!(validate_manifest(&dup).is_err());
        // The schema-6 `mode` field, on the run header or an epoch line.
        let moded_header = good.replace("\"threads\":", "\"mode\":\"delta\",\"threads\":");
        assert!(validate_manifest(&moded_header).is_err());
        let moded_epoch = good.replace("\"thread\":", "\"mode\":\"cold\",\"thread\":");
        assert!(validate_manifest(&moded_epoch).is_err());
        // A schema-6 header, and a metrics line with the schema-5
        // `gauges` key.
        let schema6 = good.replace("\"schema\":7", "\"schema\":6");
        assert_ne!(schema6, good);
        assert!(validate_manifest(&schema6).is_err());
        let with_metrics = render_manifest(
            &run_info(false),
            &records(None),
            Some(&Registry::new().snapshot()),
        );
        assert!(validate_manifest(&with_metrics).is_ok());
        let gauges = with_metrics.replace("\"histograms\":", "\"gauges\":{},\"histograms\":");
        assert!(validate_manifest(&gauges).is_err());
        // wall_us in a deterministic run.
        let det_header = good.replace("\"deterministic\":false", "\"deterministic\":true");
        let leaked = det_header.replace("\"converged\":true}", "\"converged\":true,\"wall_us\":5}");
        assert!(validate_manifest(&leaked).is_err());
        // trace in a deterministic header (it leaks execution detail).
        assert!(
            validate_manifest(&det_header).is_err(),
            "deterministic header must not carry trace"
        );
        // A non-deterministic header without the trace label (schema 4)
        // is schema drift too, and so is the schema-4 shards field.
        let traceless = good.replace("\"trace\":\"off\",", "");
        assert!(validate_manifest(&traceless).is_err());
        let sharded = good.replace("\"trace\":", "\"shards\":1,\"trace\":");
        assert!(validate_manifest(&sharded).is_err());
        assert!(validate_manifest("").is_err());
    }
}
