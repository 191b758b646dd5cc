//! Campaign-level invariance suite. Each campaign worker converges the
//! origin's full anycast once and deploys every configuration as a FIFO
//! transition from that baseline; a fresh `propagate_config` drains the
//! same configuration from empty RIBs. When the baseline cannot be kept
//! (its drain hit the event cap), the worker's deployments drain from
//! empty RIBs too. Every policy is Gao-Rexford-safe, so on the
//! generator's acyclic provider hierarchies each configuration has one
//! stable state (DESIGN.md §4b) and a campaign is a function of the
//! engine and the schedule alone:
//!
//! * its catchments are the ones extracted from fresh `propagate_config`
//!   outcomes — control plane, data plane and measured alike, with and
//!   without policy extensions;
//! * it is identical at 1, 2 and 8 worker threads (one baseline per
//!   worker), over every catchment source, with and without policy
//!   violators, under tight and default event caps and with extensions
//!   deployed, down to suspect ranking;
//! * its counters add up to fresh transitions from the full anycast;
//! * its default entry points and its manifest are reproducible.
//!
//! `tests/agreement_oracle.rs` checks the uniqueness itself: three
//! different starts of every configuration reach equal catchments.

mod common;

use common::{engine_config, scenario};
use proptest::prelude::*;
use trackdown_suite::measure::{analysis_set, impute_visibility};
use trackdown_suite::obs::{render_manifest, CampaignRecorder, RunInfo};
use trackdown_suite::prelude::*;

/// Fresh propagations of every configuration of the schedule.
fn fresh_outcomes(
    engine: &BgpEngine<'_>,
    origin: &OriginAs,
    schedule: &[AnnouncementConfig],
    detail: SnapshotDetail,
) -> Vec<RoutingOutcome> {
    schedule
        .iter()
        .map(|c| {
            engine
                .propagate_config_detailed(origin, &c.to_link_announcements(), detail)
                .expect("valid configuration")
        })
        .collect()
}

/// The full equality obligation between two campaigns. Only the stats
/// that describe the executor's shape (`threads` and the arena
/// high-water mark) may differ.
macro_rules! assert_campaigns_identical {
    ($a:expr, $b:expr) => {
        prop_assert_eq!(&$a.configs, &$b.configs);
        prop_assert_eq!(&$a.catchments, &$b.catchments);
        prop_assert_eq!(&$a.tracked, &$b.tracked);
        prop_assert_eq!($a.clustering.clusters(), $b.clustering.clusters());
        prop_assert_eq!(&$a.records, &$b.records);
        prop_assert_eq!($a.imputation, $b.imputation);
        prop_assert_eq!(&$a.attribution, &$b.attribution);
        prop_assert_eq!($a.stats.propagations, $b.stats.propagations);
        prop_assert_eq!($a.stats.events, $b.stats.events);
        prop_assert_eq!($a.stats.routes_disturbed, $b.stats.routes_disturbed);
    };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // A sequential campaign against fresh propagations, both
    // ground-truth catchment sources, both policy regimes: catchments,
    // the baseline's tracked set and per-config convergence.
    #[test]
    fn campaign_equals_fresh_propagations(
        seed in 0u64..500,
        pops in 3usize..6,
        max_removals in 0usize..3,
        max_poison in 4usize..12,
        data_plane in 0u8..2,
        clean in 0u8..2,
    ) {
        let (world, origin, schedule) = scenario(seed, pops, max_removals, max_poison);
        let engine = BgpEngine::new(&world.topology, &engine_config(clean == 1));
        let source = if data_plane == 1 {
            CatchmentSource::DataPlane
        } else {
            CatchmentSource::ControlPlane
        };
        let opts = CampaignOpts { source, ..CampaignOpts::default() };
        let campaign = run_campaign(&engine, &origin, &schedule, &opts).expect("valid schedule");
        let fresh = fresh_outcomes(&engine, &origin, &schedule, SnapshotDetail::Catchments);
        let want: Vec<Catchments> = fresh
            .iter()
            .map(|o| if data_plane == 1 {
                Catchments::from_data_plane(o)
            } else {
                Catchments::from_control_plane(o)
            })
            .collect();
        prop_assert_eq!(&campaign.catchments, &want);
        let tracked: Vec<AsIndex> = world
            .topology
            .indices()
            .filter(|&i| want[0].is_assigned(i))
            .collect();
        prop_assert_eq!(&campaign.tracked, &tracked);
        for (r, o) in campaign.records.iter().zip(&fresh) {
            prop_assert_eq!(r.converged, o.converged);
        }
        prop_assert_eq!(campaign.stats.propagations, schedule.len());
    }

    // Any worker-thread count, including ones that leave the last chunk
    // short, against the one-thread campaign.
    #[test]
    fn any_thread_count_equals_one_thread(
        seed in 0u64..500,
        max_poison in 4usize..12,
        threads in 1usize..5,
        clean in 0u8..2,
    ) {
        let (world, origin, schedule) = scenario(seed, 4, 1, max_poison);
        let engine = BgpEngine::new(&world.topology, &engine_config(clean == 1));
        let par = run_campaign(&engine, &origin, &schedule, &CampaignOpts { threads, ..CampaignOpts::default() }).expect("valid schedule");
        let seq = run_campaign(&engine, &origin, &schedule, &CampaignOpts::default()).expect("valid schedule");
        assert_campaigns_identical!(par, seq);
        prop_assert!(par.stats.threads <= threads);
    }

    // Measured campaigns: measuring fresh propagations with the schedule
    // index as noise salt, then imputing visibility over the whole
    // schedule, must give the campaign's catchments, analysis set and
    // imputation statistics exactly, noise included.
    #[test]
    fn measured_campaign_equals_measured_fresh_propagations(
        seed in 0u64..200,
        max_poison in 4usize..8,
        clean in 0u8..2,
    ) {
        let (world, origin, schedule) = scenario(seed, 4, 1, max_poison);
        let engine = BgpEngine::new(&world.topology, &engine_config(clean == 1));
        let cones = ConeInfo::compute(&world.topology);
        let plane = MeasurementPlane::new(&world.topology, &cones, &MeasurementConfig::default());
        let opts = CampaignOpts { source: CatchmentSource::Measured(&plane), ..CampaignOpts::default() };
        let campaign = run_campaign(&engine, &origin, &schedule, &opts).expect("valid schedule");
        let mut measured: Vec<_> = fresh_outcomes(&engine, &origin, &schedule, SnapshotDetail::Paths)
            .iter()
            .enumerate()
            .map(|(k, o)| plane.measure(&world.topology, o, origin.asn, k as u64))
            .collect();
        let imputation = impute_visibility(&mut measured, 0);
        prop_assert_eq!(&campaign.tracked, &analysis_set(&measured, 0));
        prop_assert_eq!(campaign.imputation, Some(imputation));
        for (c, m) in campaign.catchments.iter().zip(&measured) {
            prop_assert_eq!(c, &m.catchments);
        }
        prop_assert_eq!(campaign.stats.propagations, schedule.len());
    }

    // Every catchment source at 1, 2 and 8 worker threads, in both policy
    // regimes, down to suspect ranking; catchments also through the
    // dense reference form. Measured campaigns stay thread-invariant
    // because the observation plane salts its noise by schedule index.
    #[test]
    fn campaigns_are_source_and_thread_invariant(
        seed in 0u64..300,
        max_poison in 4usize..10,
        clean in 0u8..2,
    ) {
        let (world, origin, schedule) = scenario(seed, 4, 1, max_poison);
        let engine = BgpEngine::new(&world.topology, &engine_config(clean == 1));
        let cones = ConeInfo::compute(&world.topology);
        let plane = MeasurementPlane::new(&world.topology, &cones, &MeasurementConfig::default());
        for source in [
            CatchmentSource::ControlPlane,
            CatchmentSource::DataPlane,
            CatchmentSource::Measured(&plane),
        ] {
            let base = thread_invariant_campaign(&engine, &origin, &schedule, source, &world);
            prop_assert_eq!(base.stats.threads, 1);
            // Bitset rows vs the dense reference representation.
            for c in &base.catchments {
                let dense = c.dense();
                prop_assert_eq!(&Catchments::from_dense(&dense), c);
            }
        }
    }

    // Campaigns under a tight, a loose and the default event cap, over a
    // random catchment source and policy regime, at 1, 2 and 8 worker
    // threads down to suspect ranking. A capped deployment ends where
    // its FIFO drain stopped, which depends on the configuration alone,
    // so capped campaigns are thread-invariant too.
    #[test]
    fn capped_campaigns_are_thread_invariant(
        seed in 0u64..300,
        max_poison in 4usize..10,
        source in 0usize..3,
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
        let cones = ConeInfo::compute(&world.topology);
        let plane = MeasurementPlane::new(&world.topology, &cones, &MeasurementConfig::default());
        let source = [
            CatchmentSource::ControlPlane,
            CatchmentSource::DataPlane,
            CatchmentSource::Measured(&plane),
        ][source];
        let base = thread_invariant_campaign(&engine, &origin, &schedule, source, &world);
        if factor == 1 {
            prop_assert!(base.records.iter().any(|r| !r.converged));
        }
    }
}

/// Runs the campaign at 1, 2 and 8 worker threads and requires the
/// multi-threaded ones to equal the one-thread campaign, catchments
/// (also in dense form) through suspect ranking. Returns the one-thread
/// campaign.
fn thread_invariant_campaign(
    engine: &BgpEngine<'_>,
    origin: &OriginAs,
    schedule: &[AnnouncementConfig],
    source: CatchmentSource<'_>,
    world: &GeneratedTopology,
) -> Campaign {
    let volume: Vec<u64> = (0..world.topology.num_ases() as u64)
        .map(|i| 1 + i % 7)
        .collect();
    let run = |threads| {
        let opts = CampaignOpts {
            source,
            threads,
            ..CampaignOpts::default()
        };
        run_campaign(engine, origin, schedule, &opts).expect("valid schedule")
    };
    let base = run(1);
    let base_vols = link_volume_matrix(&base, &volume);
    let base_rank = rank_suspects(&base, &base_vols);
    for threads in [2usize, 8] {
        let par = run(threads);
        assert_campaigns_identical!(par, base);
        for (c, o) in par.catchments.iter().zip(&base.catchments) {
            prop_assert_eq!(c.dense(), o.dense());
        }
        let vols = link_volume_matrix(&par, &volume);
        prop_assert_eq!(rank_suspects(&par, &vols), base_rank.clone());
    }
    base
}

/// Each policy extension at 0% (the inert configuration), partial (30%)
/// and universal coverage, and all of them at 30% at once.
fn extension_arms() -> Vec<Vec<ExtensionDeployment>> {
    let mut arms: Vec<Vec<ExtensionDeployment>> = Vec::new();
    for ext in PolicyExtension::ALL {
        for fraction in [0.0, 0.3, 1.0] {
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
    arms
}

// Policy extensions make the import filter stricter. With every arm of
// `extension_arms`, in both policy regimes and on two worlds, a
// campaign's catchments must be the ones of fresh propagations.
#[test]
fn extensions_match_fresh_propagations() {
    let arms = extension_arms();
    for seed in [29, 31] {
        let (world, origin, schedule) = scenario(seed, 4, 1, 8);
        for clean in [true, false] {
            for arm in &arms {
                let mut cfg = engine_config(clean);
                cfg.policy.extensions.deployments = arm.clone();
                let engine = BgpEngine::new(&world.topology, &cfg);
                let campaign = run_campaign(&engine, &origin, &schedule, &CampaignOpts::default())
                    .expect("valid schedule");
                let fresh = fresh_outcomes(&engine, &origin, &schedule, SnapshotDetail::Catchments);
                for (k, (c, o)) in campaign.catchments.iter().zip(&fresh).enumerate() {
                    assert_eq!(
                        c,
                        &Catchments::from_control_plane(o),
                        "seed {seed} clean={clean} {arm:?}: config {k}"
                    );
                }
            }
        }
    }
}

// With every arm of `extension_arms`, in both policy regimes and on two
// worlds, campaigns must stay identical at 1, 2 and 8 worker threads all
// the way through suspect ranking.
#[test]
fn extensions_are_thread_invariant() {
    let arms = extension_arms();
    for seed in [29, 31] {
        let (world, origin, schedule) = scenario(seed, 4, 1, 8);
        let volume: Vec<u64> = (0..world.topology.num_ases() as u64)
            .map(|i| 1 + i % 7)
            .collect();
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
                    let what = format!("seed {seed} clean={clean} {threads} threads: {arm:?}");
                    assert_eq!(&par.catchments, &base.catchments, "{what}");
                    assert_eq!(&par.tracked, &base.tracked, "{what}");
                    assert_eq!(
                        par.clustering.clusters(),
                        base.clustering.clusters(),
                        "{what}"
                    );
                    assert_eq!(&par.records, &base.records, "{what}");
                    let vols = link_volume_matrix(&par, &volume);
                    assert_eq!(rank_suspects(&par, &vols), base_rank, "{what}");
                }
            }
        }
    }
}

// Re-deploying the identical announcement repeats the first deployment
// exactly: a session without a baseline carries no routing state from
// one deployment to the next, so the redeploy does the same work and
// reaches the same routes. From a baseline, deploying the baseline's own
// full anycast is a zero-work epoch: its providers re-decide and no best
// route moves. A schedule ending in a duplicated configuration records
// the duplicate like the original, in a deterministic manifest that is
// byte-identical across runs.
#[test]
fn identical_redeploy_is_a_zero_work_epoch() {
    let (world, origin, schedule) = scenario(23, 4, 1, 8);
    let engine = BgpEngine::new(&world.topology, &engine_config(true));

    let mut session = engine.session();
    let anns = schedule[0].to_link_announcements();
    let first = session
        .deploy_config(&origin, &anns, 200)
        .expect("valid configuration");
    assert!(first.converged);
    let redeploy = session
        .deploy_config(&origin, &anns, 200)
        .expect("valid configuration");
    assert_eq!(redeploy.best, first.best);
    assert_eq!(redeploy.events, first.events);
    assert_eq!(redeploy.changes, first.changes);
    assert_eq!(redeploy.routes_disturbed, first.routes_disturbed);
    assert_eq!(redeploy.routes_disturbed, first.reachable_count());

    session.converge_baseline(&origin).expect("valid origin");
    let anycast: Vec<LinkAnnouncement> = origin.link_ids().map(LinkAnnouncement::plain).collect();
    let zero = session
        .deploy_config(&origin, &anycast, 200)
        .expect("valid configuration");
    assert!(session.last_deploy_warm());
    assert!(zero.changes.is_empty());
    assert_eq!(zero.rounds, 0);
    assert_eq!(zero.events, origin.num_links());
    let fresh = engine
        .propagate_config(&origin, &anycast)
        .expect("valid configuration");
    assert_eq!(zero.best, fresh.best);
    assert_eq!(zero.routes_disturbed, fresh.reachable_count());

    let mut doubled = schedule.clone();
    doubled.push(schedule[0].clone());
    let manifest_of = || {
        let recorder = CampaignRecorder::new(true);
        let campaign = run_campaign(
            &engine,
            &origin,
            &doubled,
            &CampaignOpts {
                recorder: Some(&recorder),
                ..CampaignOpts::default()
            },
        )
        .expect("valid schedule");
        let info = RunInfo {
            name: "degenerate".into(),
            seed: 23,
            policy_seed: 0,
            scale: "small".into(),
            threads: campaign.stats.threads,
            trace: "off".into(),
            schedule_len: campaign.configs.len(),
            deterministic: true,
        };
        let records = recorder.take_records();
        let (original, duplicate) = (&records[0], records.last().expect("epochs recorded"));
        assert_eq!(duplicate.epoch, doubled.len() - 1);
        assert_eq!(duplicate.footprint, original.footprint);
        assert_eq!(duplicate.events, original.events);
        assert_eq!(duplicate.rounds, original.rounds);
        assert_eq!(duplicate.changes, original.changes);
        assert_eq!(duplicate.routes_disturbed, original.routes_disturbed);
        assert_eq!(duplicate.converged, original.converged);
        render_manifest(&info, &records, None)
    };
    assert_eq!(manifest_of(), manifest_of(), "manifest must be byte-stable");
}

// Campaign counters add up: each epoch is its configuration's
// transition from the converged full anycast and reports the ASes it
// reaches as disturbed, so the campaign's events are the sums over fresh
// `transition_config`s from the full anycast and its disturbance the sum
// of reachable counts — per epoch in the recorder, in total in the
// stats. The baseline's drain is counted once per worker, apart.
#[test]
fn campaign_counters_add_up() {
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

// The default options are a one-thread control-plane campaign, deployed
// from a converged baseline under the engine's event cap; pin that, and
// that the two-thread campaign through the same entry point agrees with
// it.
#[test]
fn default_entry_points_deploy_from_a_baseline() {
    let (world, origin, schedule) = scenario(11, 4, 1, 6);
    let engine = BgpEngine::new(&world.topology, &EngineConfig::default());
    let seq = run_campaign(&engine, &origin, &schedule, &CampaignOpts::default())
        .expect("valid schedule");
    assert_eq!(seq.stats.threads, 1);
    assert_eq!(seq.stats.baseline, BaselineStatus::Converged);
    assert_eq!(seq.stats.propagations, schedule.len());
    assert_eq!(seq.imputation, None);
    let explicit = run_campaign(
        &engine,
        &origin,
        &schedule,
        &CampaignOpts {
            source: CatchmentSource::ControlPlane,
            threads: 1,
            recorder: None,
        },
    )
    .expect("valid schedule");
    assert_eq!(seq.catchments, explicit.catchments);
    assert_eq!(seq.stats.events, explicit.stats.events);
    let par = run_campaign(
        &engine,
        &origin,
        &schedule,
        &CampaignOpts {
            threads: 2,
            ..CampaignOpts::default()
        },
    )
    .expect("valid schedule");
    assert_eq!(par.stats.threads, 2);
    assert_eq!(seq.catchments, par.catchments);
    assert_eq!(seq.records, par.records);
}
