//! # trackdown-obs
//!
//! In-tree observability for the trackdown pipeline: a thread-safe
//! metrics registry, scoped spans recorded into structured traces (with
//! a Chrome exporter and a self-profile summary), uniform progress
//! events, and JSONL run manifests. Hand-rolled and
//! dependency-light — the build is fully offline, so this is not a
//! `tracing` vendor drop.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when off.** Spans are inert (one relaxed atomic load,
//!    no clock read) until a trace is armed; campaign recorders are
//!    `Option<&CampaignRecorder>` and skip everything on `None`.
//!    Counters are single relaxed atomic adds on pre-resolved handles.
//! 2. **Determinism-safe.** Instrumentation never feeds back into
//!    results: recorders only *read* outcomes, parallel records are
//!    re-sorted by schedule index, and deterministic manifests carry no
//!    wall-clock-derived field at all.
//! 3. **Stable schema.** Manifest lines are assembled from explicit key
//!    lists and checked by [`manifest::validate_manifest`], which tests
//!    and CI run against real output.
//!
//! ## Metric naming
//!
//! Dot-separated `area.metric` names: `bgp.events`, `campaign.propagations`,
//! `measure.measurements`, … Span timings live only in traces
//! ([`start_trace`] → [`ProfileSummary`]). See DESIGN.md §4c for the
//! full list.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod manifest;
pub mod metrics;
pub mod profile;
pub mod progress;
pub mod span;
pub mod trace;

pub use export::chrome_trace_json;
pub use manifest::{
    render_manifest, validate_manifest, write_manifest, CampaignRecorder, EpochRecord,
    ManifestSummary, RunInfo, MANIFEST_SCHEMA_VERSION,
};
pub use metrics::{global, Counter, Histogram, HistogramSnapshot, MetricsSnapshot, Registry};
pub use profile::{PhaseStat, ProfileSummary, WorkerStat};
pub use span::{span, Span};
pub use trace::{
    end_trace, start_trace, trace_config_label, tracing_enabled, ThreadInfo, Trace, TraceConfig,
    TraceEvent,
};

/// Resolve (once per call site) and return a `&'static`-lived handle to
/// a counter in the global registry: `counter!("bgp.events").add(n)`.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        &**HANDLE.get_or_init(|| $crate::global().counter($name))
    }};
}

/// Per-call-site cached histogram handle in the global registry:
/// `histogram!("bgp.rounds").observe(r)`.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        &**HANDLE.get_or_init(|| $crate::global().histogram($name))
    }};
}

/// Serializes unit tests that touch process-global trace state
/// (cargo runs tests in threads; two tests arming traces race).
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    #[test]
    fn macros_cache_one_handle_per_site() {
        let a = counter!("lib.test.counter") as *const _;
        let b = counter!("lib.test.counter") as *const _;
        // Two call sites, two statics — but both point at the same
        // registry entry, so increments agree.
        counter!("lib.test.counter").inc();
        assert_eq!(crate::global().counter("lib.test.counter").get(), 1);
        let _ = (a, b);
        histogram!("lib.test.hist").observe(3);
        assert_eq!(crate::global().histogram("lib.test.hist").count(), 1);
    }
}
