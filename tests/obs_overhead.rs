//! Overhead guard: collecting a trace must not slow the campaign
//! pipeline measurably. Run explicitly (CI does, in release mode):
//!
//! ```text
//! cargo test --release --test obs_overhead -- --ignored
//! ```
//!
//! Methodology: the same medium campaign is timed untraced and traced,
//! alternating A/B/A/B and keeping the minimum per arm — minima are
//! robust to scheduler noise where means are not. With no trace armed a
//! span is one relaxed atomic load, so the untraced arm is the
//! instrumentation-off baseline.

use std::time::Instant;
use trackdown_suite::obs::{end_trace, start_trace, TraceConfig};
use trackdown_suite::prelude::*;

fn build() -> (GeneratedTopology, OriginAs, Vec<AnnouncementConfig>) {
    let world = generate(&TopologyConfig::medium(7));
    let origin = OriginAs::peering_style(&world, 5);
    let schedule = full_schedule(
        &world.topology,
        &origin,
        &GeneratorParams {
            max_removals: 2,
            max_poison_configs: Some(40),
        },
    );
    (world, origin, schedule)
}

/// Enabled-tracing overhead bound: a warm campaign run with a full trace
/// collected (timestamps, per-thread buffers, tree assembly at
/// `end_trace`) must stay within 5% of the untraced run. This is the
/// budget that makes `trackdown profile` honest — if collecting the
/// trace distorted the workload, the profile would name the wrong costs.
#[test]
#[ignore = "timing-sensitive; run in release mode via CI's observability job"]
fn enabled_tracing_overhead_under_limit() {
    let limit_pct: f64 = std::env::var("OBS_TRACING_LIMIT_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5.0);
    let (world, origin, schedule) = build();
    let engine = BgpEngine::new(&world.topology, &EngineConfig::default());
    let run_once = || {
        let t = Instant::now();
        let campaign = run_campaign(&engine, &origin, &schedule, &CampaignOpts::default())
            .expect("valid schedule");
        let dt = t.elapsed();
        assert!(!campaign.records.is_empty());
        dt
    };

    let _ = run_once();

    let rounds = 5usize;
    let mut best_off = f64::MAX;
    let mut best_on = f64::MAX;
    for _ in 0..rounds {
        best_off = best_off.min(run_once().as_secs_f64());
        start_trace(TraceConfig::default());
        let traced = run_once().as_secs_f64();
        let trace = end_trace().expect("trace collected");
        assert!(!trace.events.is_empty(), "traced run produced no events");
        best_on = best_on.min(traced);
    }

    let overhead_pct = (best_on / best_off - 1.0) * 100.0;
    eprintln!(
        "tracing overhead: off {:.3}s, on {:.3}s, overhead {:+.2}% (limit {limit_pct}%)",
        best_off, best_on, overhead_pct
    );
    assert!(
        overhead_pct < limit_pct,
        "enabled-tracing overhead {overhead_pct:.2}% exceeds {limit_pct}%"
    );
}
