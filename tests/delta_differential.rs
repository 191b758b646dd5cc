//! Session-level differential suite. A `CampaignSession` reuses its
//! allocations across deployments but no routing state: each deployment
//! propagates from empty RIBs with a FIFO drain (DESIGN.md §4b). So a
//! chain of session deployments — in schedule order, in adversarial
//! orders, through poison/unpoison flips, right after an epoch capped by
//! the event limit — must equal fresh `propagate_config` outcomes bit
//! for bit: best routes (path ids included), candidate RIBs, the paths
//! behind them, change logs and every counter. Campaigns built on those
//! sessions stay identical across thread counts with policy extensions
//! deployed and with a tight event cap, and their counters add up.
//!
//! The file and test names date from when a session could start a
//! deployment from the previous one's routing state ("delta") and was
//! checked against a cold-start oracle. That reuse is gone; every check
//! here compares against fresh propagations, which is what the cold
//! oracle was.

use proptest::prelude::*;
use trackdown_suite::core::schedule::footprint_distance;
use trackdown_suite::obs::CampaignRecorder;
use trackdown_suite::prelude::*;

/// Engine config with the violator knob explicit: `clean` engines have
/// unique stable states, default engines keep the 8% violator
/// population, whose stable states need not be unique.
fn engine_config(clean: bool) -> EngineConfig {
    if clean {
        EngineConfig {
            policy: PolicyConfig {
                violator_fraction: 0.0,
                ..PolicyConfig::default()
            },
            ..EngineConfig::default()
        }
    } else {
        EngineConfig::default()
    }
}

/// A small synthetic Internet, a multi-PoP origin, and a (possibly
/// truncated) three-phase schedule.
fn scenario(
    seed: u64,
    pops: usize,
    max_removals: usize,
    max_poison: usize,
) -> (GeneratedTopology, OriginAs, Vec<AnnouncementConfig>) {
    let world = generate(&TopologyConfig::small(seed));
    let origin = OriginAs::peering_style(&world, pops);
    let schedule = full_schedule(
        &world.topology,
        &origin,
        &GeneratorParams {
            max_removals,
            max_poison_configs: Some(max_poison),
        },
    );
    (world, origin, schedule)
}

/// Deploy `cfg` through `session` with event cap `factor` and check the
/// full-detail outcome equals a fresh session's deployment of the same
/// configuration under the same cap (what `propagate_config` runs)
/// bit for bit. Returns the session's outcome.
fn deploy_matches_fresh(
    engine: &BgpEngine<'_>,
    session: &mut CampaignSession<'_, '_>,
    origin: &OriginAs,
    cfg: &AnnouncementConfig,
    factor: usize,
    what: &str,
) -> RoutingOutcome {
    let anns = cfg.to_link_announcements();
    let got = session
        .deploy_config_detailed(origin, &anns, factor, SnapshotDetail::Full)
        .expect("valid configuration");
    let want = engine
        .session()
        .deploy_config_detailed(origin, &anns, factor, SnapshotDetail::Full)
        .expect("valid configuration");
    assert_eq!(got.best, want.best, "{what}: best routes");
    assert_eq!(got.candidates(), want.candidates(), "{what}: candidates");
    assert_eq!(got.paths.len(), want.paths.len(), "{what}: arena size");
    for r in got.best.iter().flatten() {
        assert_eq!(got.path_of(r), want.path_of(r), "{what}: path of {r:?}");
    }
    assert_eq!(got.events, want.events, "{what}: events");
    assert_eq!(got.rounds, want.rounds, "{what}: rounds");
    assert_eq!(got.changes, want.changes, "{what}: change log");
    assert_eq!(got.converged, want.converged, "{what}: converged");
    assert_eq!(
        got.routes_disturbed, want.routes_disturbed,
        "{what}: disturbance"
    );
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // One session deploys the schedule forward and then backward, over
    // random schedules in both policy regimes; every deployment equals
    // a fresh propagation, and the forward pass's catchments are the
    // campaign's.
    #[test]
    fn delta_equals_warm_equals_cold(
        seed in 0u64..500,
        pops in 3usize..6,
        max_removals in 0usize..3,
        max_poison in 4usize..12,
        clean in 0u8..2,
    ) {
        let (world, origin, schedule) = scenario(seed, pops, max_removals, max_poison);
        let engine = BgpEngine::new(&world.topology, &engine_config(clean == 1));
        let campaign = run_campaign(&engine, &origin, &schedule, &CampaignOpts::default())
            .expect("valid schedule");
        let mut session = engine.session();
        for (k, cfg) in schedule.iter().enumerate() {
            let out = deploy_matches_fresh(&engine, &mut session, &origin, cfg, 200, &format!("forward {k}"));
            prop_assert_eq!(&Catchments::from_control_plane(&out), &campaign.catchments[k]);
        }
        for (k, cfg) in schedule.iter().enumerate().rev() {
            deploy_matches_fresh(&engine, &mut session, &origin, cfg, 200, &format!("backward {k}"));
        }
        prop_assert_eq!(session.deployments(), 2 * schedule.len());
        prop_assert!(session.peak_arena_nodes() > 0);
    }

    // Campaigns at 1, 2 and 8 worker threads under a tight, a loose and
    // the default event cap, both ground-truth sources, both policy
    // regimes, down to suspect ranking. A capped deployment ends where
    // its FIFO drain stopped, which depends on the configuration alone,
    // so capped campaigns are thread-invariant too.
    #[test]
    fn delta_is_thread_invariant(
        seed in 0u64..300,
        max_poison in 4usize..10,
        data_plane in 0u8..2,
        clean in 0u8..2,
        cap in 0usize..3,
    ) {
        let factor = [1usize, 3, 200][cap];
        let (world, origin, schedule) = scenario(seed, 4, 1, max_poison);
        let engine = BgpEngine::new(
            &world.topology,
            &EngineConfig {
                max_events_factor: factor,
                ..engine_config(clean == 1)
            },
        );
        let source = if data_plane == 1 {
            CatchmentSource::DataPlane
        } else {
            CatchmentSource::ControlPlane
        };
        let volume: Vec<u64> = (0..world.topology.num_ases() as u64)
            .map(|i| 1 + i % 7)
            .collect();
        let run = |threads| {
            let opts = CampaignOpts {
                source,
                threads,
                ..CampaignOpts::default()
            };
            run_campaign(&engine, &origin, &schedule, &opts).expect("valid schedule")
        };
        let base = run(1);
        if factor == 1 {
            prop_assert!(base.records.iter().any(|r| !r.converged));
        }
        let base_vols = link_volume_matrix(&base, &volume);
        let base_rank = rank_suspects(&base, &base_vols);
        for threads in [2usize, 8] {
            let par = run(threads);
            prop_assert_eq!(&par.catchments, &base.catchments);
            prop_assert_eq!(&par.tracked, &base.tracked);
            prop_assert_eq!(par.clustering.clusters(), base.clustering.clusters());
            prop_assert_eq!(&par.records, &base.records);
            prop_assert_eq!(par.stats.events, base.stats.events);
            let vols = link_volume_matrix(&par, &volume);
            prop_assert_eq!(rank_suspects(&par, &vols), base_rank.clone());
        }
    }

    // Poison → unpoison → poison flips through one session, then an
    // identical redeploy of the poisoned configuration: the
    // withdrawal-heavy transitions, each equal to a fresh propagation.
    #[test]
    fn poison_then_unpoison_cascades_match_cold(
        seed in 0u64..200,
        clean in 0u8..2,
        flips in 1usize..4,
    ) {
        let (world, origin, schedule) = scenario(seed, 4, 1, 8);
        let engine = BgpEngine::new(&world.topology, &engine_config(clean == 1));
        let baseline = &schedule[0];
        let poisoned: Vec<&AnnouncementConfig> = schedule
            .iter()
            .filter(|c| !c.poison.is_empty())
            .collect();
        if poisoned.is_empty() {
            return; // no poison-phase configs at this seed; vacuous case
        }
        let mut session = engine.session();
        for (i, p) in poisoned.iter().take(flips).enumerate() {
            for (step, cfg) in [*p, baseline, *p, *p].into_iter().enumerate() {
                deploy_matches_fresh(&engine, &mut session, &origin, cfg, 200, &format!("flip {i} step {step}"));
            }
        }
    }

    // Deploy the schedule in a greedy footprint-distance-maximizing
    // chain, so every transition is the largest available edit
    // (announce/withdraw/poison churn all at once).
    #[test]
    fn distance_maximizing_schedule_matches_cold(
        seed in 0u64..200,
        max_poison in 4usize..10,
        clean in 0u8..2,
    ) {
        let (world, origin, schedule) = scenario(seed, 4, 2, max_poison);
        let engine = BgpEngine::new(&world.topology, &engine_config(clean == 1));
        let mut remaining: Vec<usize> = (1..schedule.len()).collect();
        let mut order = vec![0usize];
        let mut current = 0usize;
        while !remaining.is_empty() {
            let (pos, _) = remaining
                .iter()
                .enumerate()
                .max_by_key(|(_, &k)| footprint_distance(&schedule[current], &schedule[k]))
                .expect("non-empty");
            current = remaining.remove(pos);
            order.push(current);
        }
        let mut session = engine.session();
        for &k in &order {
            deploy_matches_fresh(&engine, &mut session, &origin, &schedule[k], 200, &format!("config {k}"));
        }
    }
}

// Policy extensions make the import filter stricter. With each extension
// at partial (30%) and universal coverage, and with all of them at once,
// in both policy regimes, campaigns must stay identical at 1, 2 and 8
// worker threads all the way through suspect ranking.
#[test]
fn extensions_on_delta_equals_warm_equals_cold_across_threads() {
    let (world, origin, schedule) = scenario(29, 4, 1, 8);
    let volume: Vec<u64> = (0..world.topology.num_ases() as u64)
        .map(|i| 1 + i % 7)
        .collect();
    let mut arms: Vec<Vec<ExtensionDeployment>> = Vec::new();
    for ext in PolicyExtension::ALL {
        for fraction in [0.3, 1.0] {
            arms.push(vec![ExtensionDeployment {
                extension: ext,
                fraction,
                bias: DeploymentBias::Core,
            }]);
        }
    }
    arms.push(
        PolicyExtension::ALL
            .into_iter()
            .map(|extension| ExtensionDeployment {
                extension,
                fraction: 0.3,
                bias: DeploymentBias::Core,
            })
            .collect(),
    );
    for clean in [true, false] {
        for arm in &arms {
            let mut cfg = engine_config(clean);
            cfg.policy.extensions.deployments = arm.clone();
            let engine = BgpEngine::new(&world.topology, &cfg);
            let run = |threads| {
                let opts = CampaignOpts {
                    threads,
                    ..CampaignOpts::default()
                };
                run_campaign(&engine, &origin, &schedule, &opts).expect("valid schedule")
            };
            let base = run(1);
            let base_vols = link_volume_matrix(&base, &volume);
            let base_rank = rank_suspects(&base, &base_vols);
            for threads in [2usize, 8] {
                let par = run(threads);
                let what = format!("clean={clean} {threads} threads: {arm:?}");
                assert_eq!(&par.catchments, &base.catchments, "{what}");
                assert_eq!(&par.tracked, &base.tracked, "{what}");
                assert_eq!(par.clustering.clusters(), base.clustering.clusters());
                assert_eq!(&par.records, &base.records, "{what}");
                let vols = link_volume_matrix(&par, &volume);
                assert_eq!(rank_suspects(&par, &vols), base_rank, "{what}");
            }
        }
    }
}

// A capped (non-converged) deployment leaves a populated activation
// queue behind; the next deployment must not inherit it. Cap the first
// deployment of a session and one mid-session, in both policy regimes:
// the capped outcomes and every deployment after them equal fresh
// propagations bit for bit.
#[test]
fn capped_epoch_then_delta_falls_back_to_cold() {
    let (world, origin, schedule) = scenario(23, 4, 1, 8);
    for clean in [true, false] {
        let engine = BgpEngine::new(&world.topology, &engine_config(clean));
        let mut session = engine.session();
        let capped = deploy_matches_fresh(
            &engine,
            &mut session,
            &origin,
            &schedule[0],
            0,
            "capped first",
        );
        assert!(!capped.converged, "factor-0 cap must not converge");
        for (k, cfg) in schedule.iter().take(6).enumerate() {
            let out =
                deploy_matches_fresh(&engine, &mut session, &origin, cfg, 200, &format!("{k}"));
            assert!(out.converged);
        }
        let capped = deploy_matches_fresh(
            &engine,
            &mut session,
            &origin,
            &schedule[1],
            1,
            "capped mid-session",
        );
        assert!(!capped.converged, "factor-1 cap must not converge");
        for (k, cfg) in schedule.iter().enumerate().rev().take(4) {
            deploy_matches_fresh(&engine, &mut session, &origin, cfg, 200, &format!("{k}"));
        }
    }
}

// Campaign counters add up: each epoch is its configuration's
// transition from the converged full anycast and reports the ASes it
// reaches as disturbed, so the campaign's events are the sums over fresh
// `transition_config`s from the full anycast and its disturbance the sum
// of reachable counts — per epoch in the recorder, in total in the
// stats. The baseline's drain is counted once per worker, apart.
#[test]
fn delta_stats_report_disturbance() {
    let (world, origin, schedule) = scenario(17, 4, 1, 8);
    for clean in [true, false] {
        let engine = BgpEngine::new(&world.topology, &engine_config(clean));
        let anycast: Vec<LinkAnnouncement> =
            origin.link_ids().map(LinkAnnouncement::plain).collect();
        let fresh: Vec<RoutingOutcome> = schedule
            .iter()
            .map(|c| {
                engine
                    .transition_config(
                        &origin,
                        &anycast,
                        &c.to_link_announcements(),
                        SnapshotDetail::Catchments,
                    )
                    .expect("valid configuration")
            })
            .collect();
        let baseline = engine
            .propagate_config(&origin, &anycast)
            .expect("valid configuration");
        for threads in [1usize, 2] {
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
            let mut records = recorder.take_records();
            records.sort_by_key(|r| r.epoch);
            assert_eq!(records.len(), schedule.len());
            for (r, o) in records.iter().zip(&fresh) {
                assert_eq!(r.routes_disturbed, o.reachable_count(), "epoch {}", r.epoch);
                assert_eq!(r.events, o.events, "epoch {}", r.epoch);
            }
            assert_eq!(campaign.stats.propagations, schedule.len());
            assert_eq!(
                campaign.stats.events,
                fresh.iter().map(|o| o.events).sum::<usize>()
            );
            assert_eq!(
                campaign.stats.routes_disturbed,
                fresh.iter().map(|o| o.reachable_count()).sum::<usize>()
            );
            assert!(campaign.stats.routes_disturbed >= campaign.tracked.len());
            assert_eq!(
                campaign.stats.baseline_events,
                campaign.stats.threads * baseline.events
            );
        }
    }
}
