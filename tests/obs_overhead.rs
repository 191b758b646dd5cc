//! Overhead guard: collecting a trace must not slow the campaign
//! pipeline measurably. Run explicitly (CI does, in release mode):
//!
//! ```text
//! cargo test --release --test obs_overhead -- --ignored --nocapture
//! ```
//!
//! Methodology: the same medium campaign is timed untraced and traced
//! with the shared [`interleaved_medians`] timer, one campaign (~15 ms)
//! per trial and `TRIALS` trials per arm, and the bound is checked on the
//! ratio of the two medians. A shared host's speed drifts by tens of
//! percent over seconds; alternating single campaigns puts both arms in
//! the same drift, where alternating batches of campaigns does not, and
//! the median over many trials sheds the preempted ones. With no trace
//! armed a span is one relaxed atomic load, so the untraced arm is the
//! instrumentation-off baseline.

mod common;

use common::interleaved_medians;
use trackdown_suite::obs::{end_trace, start_trace, TraceConfig};
use trackdown_suite::prelude::*;

/// Timed trials (one campaign each) per arm.
const TRIALS: usize = 201;
/// Largest tolerated slowdown of the traced arm, in percent.
const LIMIT_PCT: f64 = 5.0;

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

/// Enabled-tracing overhead bound: a campaign run with a full trace
/// collected (arming, timestamps, per-thread buffers, tree assembly at
/// `end_trace`) must stay within 5% of the untraced run. This is the
/// budget that makes `trackdown profile` honest — if collecting the
/// trace distorted the workload, the profile would name the wrong costs.
#[test]
#[ignore = "timing-sensitive; run in release mode via CI's observability job"]
fn enabled_tracing_overhead_under_limit() {
    let (world, origin, schedule) = build();
    let engine = BgpEngine::new(&world.topology, &EngineConfig::default());
    let run_once = || {
        let campaign = run_campaign(&engine, &origin, &schedule, &CampaignOpts::default())
            .expect("valid schedule");
        assert!(!campaign.records.is_empty());
    };
    let traced = || {
        start_trace(TraceConfig::default());
        run_once();
        let trace = end_trace().expect("trace collected");
        assert!(!trace.events.is_empty(), "traced run produced no events");
    };

    let (off_ms, on_ms) = interleaved_medians(TRIALS, run_once, traced);
    let overhead_pct = (on_ms / off_ms - 1.0) * 100.0;
    eprintln!(
        "tracing overhead: off {off_ms:.2} ms, on {on_ms:.2} ms per campaign \
         (medians of {TRIALS}), overhead {overhead_pct:+.2}% (limit {LIMIT_PCT}%)"
    );
    assert!(
        overhead_pct < LIMIT_PCT,
        "enabled-tracing overhead {overhead_pct:.2}% exceeds {LIMIT_PCT}%"
    );
}
