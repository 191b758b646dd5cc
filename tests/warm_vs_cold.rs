//! Campaign-level invariance suite. Each campaign worker converges the
//! origin's full anycast once and deploys every configuration as a FIFO
//! transition from that baseline ("warm"); a fresh `propagate_config`
//! drains the same configuration from empty RIBs ("cold"). Every policy
//! is Gao-Rexford-safe, so on the generator's acyclic provider
//! hierarchies each configuration has one stable state (DESIGN.md §4b)
//! and a campaign is a function of the engine and the schedule alone:
//!
//! * its catchments are the ones extracted from fresh, cold
//!   `propagate_config` outcomes — control plane, data plane and
//!   measured alike;
//! * it is identical at 1, 2 and 8 worker threads (one baseline per
//!   worker), over control-plane, data-plane and measured catchments,
//!   with and without policy violators, down to suspect ranking;
//! * its default entry points and its manifest are reproducible.
//!
//! `tests/agreement_oracle.rs` checks the uniqueness itself: three
//! different starts of every configuration reach equal catchments.

use proptest::prelude::*;
use trackdown_suite::measure::{analysis_set, impute_visibility};
use trackdown_suite::obs::{render_manifest, CampaignRecorder, RunInfo};
use trackdown_suite::prelude::*;

/// Engine config with the violator knob explicit: `clean` engines rank
/// routes by relationship alone, default engines keep the 8% violator
/// population, which hashes LocalPref per neighbor within each band.
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
    fn warm_campaign_equals_cold_oracle(
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
    // short, against the sequential campaign.
    #[test]
    fn parallel_warm_equals_sequential_cold(
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
    fn measured_warm_equals_measured_cold(
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
    fn campaigns_are_mode_source_and_thread_invariant(
        seed in 0u64..300,
        max_poison in 4usize..10,
        clean in 0u8..2,
    ) {
        let (world, origin, schedule) = scenario(seed, 4, 1, max_poison);
        let engine = BgpEngine::new(&world.topology, &engine_config(clean == 1));
        let cones = ConeInfo::compute(&world.topology);
        let plane = MeasurementPlane::new(&world.topology, &cones, &MeasurementConfig::default());
        let volume: Vec<u64> = (0..world.topology.num_ases() as u64)
            .map(|i| 1 + i % 7)
            .collect();
        for source in [
            CatchmentSource::ControlPlane,
            CatchmentSource::DataPlane,
            CatchmentSource::Measured(&plane),
        ] {
            let run = |threads| {
                let opts = CampaignOpts {
                    source,
                    threads,
                    ..CampaignOpts::default()
                };
                run_campaign(&engine, &origin, &schedule, &opts).expect("valid schedule")
            };
            let base = run(1);
            prop_assert_eq!(base.stats.threads, 1);
            let base_vols = link_volume_matrix(&base, &volume);
            let base_rank = rank_suspects(&base, &base_vols);
            for threads in [2usize, 8] {
                let par = run(threads);
                assert_campaigns_identical!(par, base);
                // Bitset rows vs the dense reference representation.
                for (c, o) in par.catchments.iter().zip(&base.catchments) {
                    let dense = c.dense();
                    prop_assert_eq!(&dense, &o.dense());
                    prop_assert_eq!(&Catchments::from_dense(&dense), c);
                }
                let vols = link_volume_matrix(&par, &volume);
                prop_assert_eq!(rank_suspects(&par, &vols), base_rank.clone());
            }
        }
    }
}

// Policy extensions make the import filter stricter. With any extension
// deployed — at 0% (the inert configuration), partial or universal
// coverage — in both policy regimes, a campaign's catchments must be the
// ones of fresh propagations.
#[test]
fn extensions_on_warm_equals_cold() {
    let (world, origin, schedule) = scenario(31, 4, 1, 8);
    for clean in [true, false] {
        for ext in PolicyExtension::ALL {
            for fraction in [0.0, 0.3, 1.0] {
                let mut cfg = engine_config(clean);
                cfg.policy.extensions.deployments = vec![ExtensionDeployment {
                    extension: ext,
                    fraction,
                    bias: DeploymentBias::Core,
                }];
                let engine = BgpEngine::new(&world.topology, &cfg);
                let campaign = run_campaign(&engine, &origin, &schedule, &CampaignOpts::default())
                    .expect("valid schedule");
                let fresh = fresh_outcomes(&engine, &origin, &schedule, SnapshotDetail::Catchments);
                for (k, (c, o)) in campaign.catchments.iter().zip(&fresh).enumerate() {
                    assert_eq!(
                        c,
                        &Catchments::from_control_plane(o),
                        "clean={clean} {ext} at {fraction}: config {k}"
                    );
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
    let cold = engine
        .propagate_config(&origin, &anycast)
        .expect("valid configuration");
    assert_eq!(zero.best, cold.best);
    assert_eq!(zero.routes_disturbed, cold.reachable_count());

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

// The default options are a one-thread control-plane campaign, deployed
// from a converged baseline under the engine's event cap; pin that, and
// that the two-thread campaign through the same entry point agrees with
// it.
#[test]
fn default_entry_points_run_warm() {
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
