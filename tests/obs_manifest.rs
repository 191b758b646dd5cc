//! Observability integration suite: the JSONL run manifest must (a) be
//! schema-stable and self-consistent on a real campaign, (b) contain no
//! wall-clock fields in deterministic mode, and (c) never perturb the
//! campaign itself — results with a recorder attached are byte-identical
//! across 1, 2, and 8 worker threads.

use trackdown_suite::obs::{validate_manifest, write_manifest, CampaignRecorder, RunInfo};
use trackdown_suite::prelude::*;

fn scenario(seed: u64) -> (GeneratedTopology, OriginAs, Vec<AnnouncementConfig>) {
    let world = generate(&TopologyConfig::small(seed));
    let origin = OriginAs::peering_style(&world, 4);
    let schedule = full_schedule(
        &world.topology,
        &origin,
        &GeneratorParams {
            max_removals: 2,
            max_poison_configs: Some(12),
        },
    );
    (world, origin, schedule)
}

fn run_info(name: &str, campaign: &Campaign, deterministic: bool) -> RunInfo {
    RunInfo {
        name: name.into(),
        seed: 7,
        policy_seed: 0,
        scale: "small".into(),
        threads: campaign.stats.threads,
        trace: trackdown_suite::obs::trace_config_label(),
        schedule_len: campaign.configs.len(),
        deterministic,
    }
}

/// A default sequential campaign produces one epoch record per
/// configuration and the rendered manifest passes the checked-in
/// validator.
#[test]
fn warm_campaign_manifest_validates() {
    let (world, origin, schedule) = scenario(7);
    let engine = BgpEngine::new(&world.topology, &EngineConfig::default());
    let recorder = CampaignRecorder::new(false);
    let campaign = run_campaign(
        &engine,
        &origin,
        &schedule,
        &CampaignOpts {
            recorder: Some(&recorder),
            ..CampaignOpts::default()
        },
    )
    .expect("valid schedule");
    let records = recorder.take_records();
    assert_eq!(records.len(), schedule.len(), "one record per epoch");

    let text = trackdown_suite::obs::render_manifest(
        &run_info("obs_manifest", &campaign, false),
        &records,
        Some(&trackdown_suite::obs::global().snapshot()),
    );
    let summary = validate_manifest(&text).expect("manifest validates");
    assert_eq!(summary.epochs, schedule.len());
    assert_eq!(summary.schedule_len, schedule.len());
    assert!(!summary.deterministic);
}

/// A clean (violator-free) engine records one epoch per configuration,
/// in schedule order, each the transition of its configuration from the
/// converged full anycast: its work counters equal a fresh
/// `transition_config` from the full anycast's, and its disturbance is
/// the configuration's reachable count. The deterministic recorder never
/// reads the clock.
#[test]
fn clean_engine_records_warm_epochs() {
    let (world, origin, schedule) = scenario(9);
    let cfg = EngineConfig {
        policy: PolicyConfig {
            violator_fraction: 0.0,
            ..PolicyConfig::default()
        },
        ..EngineConfig::default()
    };
    let engine = BgpEngine::new(&world.topology, &cfg);
    let recorder = CampaignRecorder::new(true);
    let _ = run_campaign(
        &engine,
        &origin,
        &schedule,
        &CampaignOpts {
            recorder: Some(&recorder),
            ..CampaignOpts::default()
        },
    )
    .expect("valid schedule");
    let records = recorder.take_records();
    assert_eq!(records.len(), schedule.len(), "one record per epoch");
    let anycast: Vec<LinkAnnouncement> = origin.link_ids().map(LinkAnnouncement::plain).collect();
    for (k, (r, c)) in records.iter().zip(&schedule).enumerate() {
        let fresh = engine
            .transition_config(
                &origin,
                &anycast,
                &c.to_link_announcements(),
                SnapshotDetail::Catchments,
            )
            .expect("valid configuration");
        assert_eq!(r.epoch, k);
        assert_eq!(r.footprint, c.footprint_key());
        assert_eq!(r.events, fresh.events, "epoch {k}: events");
        assert_eq!(r.rounds, fresh.rounds, "epoch {k}: rounds");
        assert_eq!(r.changes, fresh.changes.len(), "epoch {k}: changes");
        assert_eq!(r.routes_disturbed, fresh.reachable_count(), "epoch {k}");
        assert_eq!(r.converged, fresh.converged, "epoch {k}: converged");
    }
    // Deterministic recorder never reads the clock.
    assert!(records.iter().all(|r| r.wall_us.is_none()));
}

/// A campaign on a clean engine records epochs that validate and carry
/// per-epoch disturbance.
#[test]
fn delta_campaign_manifest_validates() {
    let (world, origin, schedule) = scenario(15);
    let cfg = EngineConfig {
        policy: PolicyConfig {
            violator_fraction: 0.0,
            ..PolicyConfig::default()
        },
        ..EngineConfig::default()
    };
    let engine = BgpEngine::new(&world.topology, &cfg);
    let recorder = CampaignRecorder::new(true);
    let campaign = run_campaign(
        &engine,
        &origin,
        &schedule,
        &CampaignOpts {
            recorder: Some(&recorder),
            ..CampaignOpts::default()
        },
    )
    .expect("valid schedule");
    let records = recorder.take_records();
    // The campaign's disturbance total is the sum over deployed epochs.
    assert_eq!(
        records.iter().map(|r| r.routes_disturbed).sum::<usize>(),
        campaign.stats.routes_disturbed
    );
    let text = trackdown_suite::obs::render_manifest(
        &run_info("obs_manifest", &campaign, true),
        &records,
        None,
    );
    let summary = validate_manifest(&text).expect("manifest validates");
    assert_eq!(summary.epochs, schedule.len());
}

/// Deterministic manifests are byte-identical across runs and contain no
/// wall-clock fields (the golden the CI job leans on).
#[test]
fn deterministic_manifest_is_reproducible() {
    let render = || {
        let (world, origin, schedule) = scenario(11);
        let engine = BgpEngine::new(&world.topology, &EngineConfig::default());
        let recorder = CampaignRecorder::new(true);
        let campaign = run_campaign(
            &engine,
            &origin,
            &schedule,
            &CampaignOpts {
                recorder: Some(&recorder),
                ..CampaignOpts::default()
            },
        )
        .expect("valid schedule");
        // Metrics snapshots accumulate across tests in one process, so the
        // reproducibility golden covers the run + epoch lines only.
        trackdown_suite::obs::render_manifest(
            &run_info("obs_manifest", &campaign, true),
            &recorder.take_records(),
            None,
        )
    };
    let a = render();
    let b = render();
    assert_eq!(a, b, "deterministic manifests must be byte-identical");
    assert!(
        !a.contains("wall_us"),
        "no wall clock in deterministic mode"
    );
    validate_manifest(&a).expect("deterministic manifest validates");
}

/// `write_manifest` + `validate_manifest` round-trip through a file, the
/// way the CLI's `--metrics-out` / `validate-manifest` pair uses them.
#[test]
fn manifest_roundtrips_through_file() {
    let (world, origin, schedule) = scenario(13);
    let engine = BgpEngine::new(&world.topology, &EngineConfig::default());
    let recorder = CampaignRecorder::new(true);
    let campaign = run_campaign(
        &engine,
        &origin,
        &schedule,
        &CampaignOpts {
            threads: 4,
            recorder: Some(&recorder),
            ..CampaignOpts::default()
        },
    )
    .expect("valid schedule");
    let path = std::env::temp_dir().join("trackdown-obs-roundtrip.jsonl");
    write_manifest(
        path.to_str().expect("utf-8 temp path"),
        &run_info("obs_manifest", &campaign, true),
        &recorder.take_records(),
        Some(&trackdown_suite::obs::global().snapshot()),
    )
    .expect("write manifest");
    let text = std::fs::read_to_string(&path).expect("read back");
    let summary = validate_manifest(&text).expect("validates");
    assert_eq!(summary.epochs, schedule.len());
    let _ = std::fs::remove_file(path);
}

/// The determinism fix the issue calls out: attaching a recorder must not
/// perturb parallel campaign results, and those results stay identical
/// across 1, 2, and 8 threads. Epoch *records* may differ in their
/// `thread` field; campaign outputs may not.
#[test]
fn recorder_does_not_perturb_thread_invariance() {
    let (world, origin, schedule) = scenario(17);
    let engine = BgpEngine::new(&world.topology, &EngineConfig::default());
    let run = |threads: usize| {
        let recorder = CampaignRecorder::new(true);
        let campaign = run_campaign(
            &engine,
            &origin,
            &schedule,
            &CampaignOpts {
                threads,
                recorder: Some(&recorder),
                ..CampaignOpts::default()
            },
        )
        .expect("valid schedule");
        let records = recorder.take_records();
        assert_eq!(records.len(), schedule.len(), "{threads} threads");
        // Records come back sorted by epoch regardless of worker timing.
        assert!(records.windows(2).all(|w| w[0].epoch < w[1].epoch));
        campaign
    };
    let one = run(1);
    let two = run(2);
    let eight = run(8);
    for other in [&two, &eight] {
        assert_eq!(one.configs, other.configs);
        assert_eq!(one.catchments, other.catchments);
        assert_eq!(one.tracked, other.tracked);
        assert_eq!(one.records, other.records);
    }
    // And against the bare (un-instrumented) executor.
    let bare = run_campaign(
        &engine,
        &origin,
        &schedule,
        &CampaignOpts {
            threads: 2,
            ..CampaignOpts::default()
        },
    )
    .expect("valid schedule");
    assert_eq!(one.catchments, bare.catchments);
    assert_eq!(one.records, bare.records);
}
