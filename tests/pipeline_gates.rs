//! Pinned pipeline gates on deterministic work counts.
//!
//! The fixed workload is the small scenario at seed 7 on a
//! violator-free engine (delta sessions reuse state only when the engine
//! has no policy violators). Every epoch's event count is deterministic,
//! so these gates hold on any machine and at any load:
//!
//! * the stable counts of the workload (ASes, configurations,
//!   propagations, restarts, events, disturbance, mean cluster size,
//!   arena high-water mark) are pinned;
//! * delta reproduces the cold oracle exactly;
//! * delta does fewer propagation events than cold;
//! * cold starts are split by cause: first deployment, violator gate,
//!   event cap and `Cold` mode.
//!
//! The `#[ignore]`d test at the end times 1-thread against 8-thread
//! campaigns at the `large` and `internet` scales. Run it in release
//! mode:
//!
//! ```text
//! cargo test --release --test pipeline_gates -- --ignored --nocapture --test-threads=1
//! ```

mod common;

use common::interleaved_medians;
use trackdown_experiments::{Options, Scale, Scenario};
use trackdown_suite::prelude::*;

/// The scenario at `scale`, seed 7, and its engine configuration with
/// policy violators removed.
fn violator_free(scale: Scale) -> (Scenario, EngineConfig) {
    let scenario = Scenario::build(Options {
        scale,
        seed: 7,
        ..Options::default()
    });
    let engine_cfg = EngineConfig {
        policy: PolicyConfig {
            violator_fraction: 0.0,
            ..scenario.engine_cfg.policy.clone()
        },
        ..scenario.engine_cfg.clone()
    };
    (scenario, engine_cfg)
}

fn run(
    engine: &BgpEngine,
    scenario: &Scenario,
    schedule: &[AnnouncementConfig],
    mode: CampaignMode,
    threads: usize,
) -> Campaign {
    let opts = CampaignOpts {
        mode,
        threads,
        max_events_factor: scenario.engine_cfg.max_events_factor,
        ..CampaignOpts::default()
    };
    run_campaign(engine, &scenario.origin, schedule, &opts).expect("generated schedules are valid")
}

fn assert_same_campaign(a: &Campaign, b: &Campaign, what: &str) {
    assert!(a.catchments == b.catchments, "{what}: catchments diverged");
    assert_eq!(a.tracked, b.tracked, "{what}: tracked sets diverged");
    assert_eq!(
        a.clustering.clusters(),
        b.clustering.clusters(),
        "{what}: clusters diverged"
    );
    assert_eq!(a.records, b.records, "{what}: records diverged");
}

#[test]
fn small_campaign_counts_and_reuse_gates() {
    let (scenario, engine_cfg) = violator_free(Scale::Small);
    let engine = BgpEngine::new(&scenario.gen.topology, &engine_cfg);
    let schedule = scenario.schedule();
    let cold = run(&engine, &scenario, &schedule, CampaignMode::Cold, 1);
    let delta = run(&engine, &scenario, &schedule, CampaignMode::Delta, 1);
    assert_same_campaign(&delta, &cold, "delta/cold");

    assert_eq!(scenario.gen.topology.num_ases(), 119);
    assert_eq!(delta.configs.len(), 59);
    assert_eq!(delta.stats.propagations, 59);
    assert_eq!(delta.stats.cold_restarts, 0);
    assert_eq!(cold.stats.events, 8_901);
    assert_eq!(delta.stats.events, 2_623);
    assert_eq!(delta.stats.routes_disturbed, 2_525);
    assert_eq!(delta.clustering.mean_size(), 2.975);
    assert_eq!(delta.stats.peak_arena_nodes, 366);
    // Cold starts by cause: a violator-free delta session cold-starts
    // only its first deployment; a cold one, every epoch.
    assert_eq!(
        delta.stats.cold_causes,
        ColdEpochs {
            first: 1,
            ..ColdEpochs::default()
        }
    );
    assert_eq!(
        cold.stats.cold_causes,
        ColdEpochs {
            cold_mode: 59,
            ..ColdEpochs::default()
        }
    );

    // The reuse gate in its event-count form: delta epochs do less
    // convergence work than cold starts.
    let (cold, delta) = (cold.stats.events, delta.stats.events);
    assert!(
        delta < cold,
        "delta reuse saved no events: delta {delta}, cold {cold}"
    );
}

#[test]
fn default_policy_cold_starts_are_violator_gated() {
    // The default policy has violators, so after the first deployment
    // every epoch cold-starts through the violator gate.
    let scenario = Scenario::build(Options {
        scale: Scale::Small,
        seed: 7,
        threads: Some(1),
        ..Options::default()
    });
    let stats = scenario.run().stats;
    assert_eq!(stats.cold_epochs, stats.propagations);
    assert_eq!(
        stats.cold_causes,
        ColdEpochs {
            first: 1,
            violator_gate: stats.propagations - 1,
            ..ColdEpochs::default()
        }
    );
}

#[test]
#[ignore = "timing-sensitive and large; run in release mode via CI's observability job"]
fn scale_campaigns_are_thread_invariant_and_scale_with_cores() {
    const TRIALS: usize = 3;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for (scale, pinned) in [
        (Scale::Large, (12_000, 12_000, 81)),
        (Scale::Internet, (80_000, 79_999, 65)),
    ] {
        let (scenario, engine_cfg) = violator_free(scale);
        let engine = BgpEngine::new(&scenario.gen.topology, &engine_cfg);
        let schedule = scenario.schedule();
        let mode = CampaignOpts::default().mode;
        let one = run(&engine, &scenario, &schedule, mode, 1);
        let eight = run(&engine, &scenario, &schedule, mode, 8);
        assert_same_campaign(
            &one,
            &eight,
            &format!("{} 1-thread/8-thread", scale.label()),
        );
        assert_eq!(
            (
                scenario.gen.topology.num_ases(),
                one.tracked.len(),
                schedule.len()
            ),
            pinned,
            "{} (ases, tracked, configs)",
            scale.label()
        );

        let (t1, t8) = interleaved_medians(
            TRIALS,
            || run(&engine, &scenario, &schedule, mode, 1),
            || run(&engine, &scenario, &schedule, mode, 8),
        );
        let speedup = t1 / t8;
        println!(
            "{}: 1 thread {t1:.0} ms, 8 threads {t8:.0} ms (medians of {TRIALS}), \
             {speedup:.2}x on {cores} cores",
            scale.label()
        );
        // Eight workers can only beat one by 3x on hardware with eight
        // cores; below that the ratio is reported, not gated.
        if cores >= 8 {
            assert!(
                speedup >= 3.0,
                "{} thread speedup {speedup:.2}x under 3.0 on {cores} cores",
                scale.label()
            );
        } else {
            println!("info: thread-speedup floor applies at >= 8 cores (have {cores})");
        }
    }
}
