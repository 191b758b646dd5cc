//! Differential suite: the default delta epoch-reuse executor must be
//! indistinguishable — catchments, tracked set, clustering, per-config
//! records — from the cold-start oracle that propagates every
//! configuration from empty RIBs.
//!
//! On Gao-Rexford-conformant engines fixpoints are unique, so any
//! divergence is an executor bug (stale session state, reorder leakage). On engines with policy violators stable
//! states are history-dependent (BGP wedgies) and the session must
//! detect that and cold-start internally — these tests exercise both
//! regimes, and are the proof obligation for the equivalence claim.

use proptest::prelude::*;
use trackdown_suite::obs::{render_manifest, CampaignRecorder, RunInfo};
use trackdown_suite::prelude::*;

/// Engine config with the violator knob explicit: `clean` engines have
/// unique fixpoints (true epoch reuse); default engines keep the 8%
/// violator population and exercise the session's cold-start guard.
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

/// Build a scenario from raw generator knobs: a small synthetic Internet,
/// a multi-PoP origin, and a (possibly truncated) three-phase schedule.
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

/// The full equality obligation between two campaigns. Stats are exempt
/// by design (they describe *how* the executor ran, not what it found).
macro_rules! assert_campaigns_identical {
    ($warm:expr, $cold:expr) => {
        prop_assert_eq!(&$warm.configs, &$cold.configs);
        prop_assert_eq!(&$warm.catchments, &$cold.catchments);
        prop_assert_eq!(&$warm.tracked, &$cold.tracked);
        prop_assert_eq!($warm.clustering.clusters(), $cold.clustering.clusters());
        prop_assert_eq!(&$warm.records, &$cold.records);
        prop_assert_eq!($warm.imputation, $cold.imputation);
    };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Sequential delta executor vs the cold oracle, both ground-truth
    // catchment sources.
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
        let warm = run_campaign(&engine, &origin, &schedule, &CampaignOpts { source, ..CampaignOpts::default() }).expect("valid schedule");
        let cold = run_campaign(&engine, &origin, &schedule, &CampaignOpts { source, mode: CampaignMode::Cold, ..CampaignOpts::default() }).expect("valid schedule");
        assert_campaigns_identical!(warm, cold);
        // Executor accounting: every configuration is propagated once.
        prop_assert_eq!(warm.stats.propagations, schedule.len());
        prop_assert_eq!(cold.stats.propagations, schedule.len());
    }

    // Parallel delta workers (chunked sessions, per-chunk reordering) vs
    // the sequential cold oracle.
    #[test]
    fn parallel_warm_equals_sequential_cold(
        seed in 0u64..500,
        max_poison in 4usize..12,
        threads in 1usize..5,
        clean in 0u8..2,
    ) {
        let (world, origin, schedule) = scenario(seed, 4, 1, max_poison);
        let engine = BgpEngine::new(&world.topology, &engine_config(clean == 1));
        let warm = run_campaign(&engine, &origin, &schedule, &CampaignOpts { threads, ..CampaignOpts::default() }).expect("valid schedule");
        let cold = run_campaign(&engine, &origin, &schedule, &CampaignOpts { mode: CampaignMode::Cold, ..CampaignOpts::default() }).expect("valid schedule");
        assert_campaigns_identical!(warm, cold);
    }

    // Measured campaigns: the observation plane salts its noise per
    // schedule index while the delta session drives the engine —
    // imputation and the analysis set must match the cold oracle exactly,
    // noise included.
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
        let warm = run_campaign(&engine, &origin, &schedule, &CampaignOpts { source: CatchmentSource::Measured(&plane), ..CampaignOpts::default() }).expect("valid schedule");
        let cold = run_campaign(&engine, &origin, &schedule, &CampaignOpts { source: CatchmentSource::Measured(&plane), mode: CampaignMode::Cold, ..CampaignOpts::default() }).expect("valid schedule");
        assert_campaigns_identical!(warm, cold);
        prop_assert_eq!(warm.stats.propagations, schedule.len());
    }

    // One executor, every shape: Delta/Cold sessions over
    // control-plane, data-plane, and measured catchments, at 1, 2, and 4
    // worker threads, must all reproduce the one-thread cold oracle —
    // catchments (also through the dense reference form), tracked set,
    // clusters, records, attribution index, and suspect ranking.
    // Measured campaigns stay thread-invariant because the observation
    // plane salts its noise by schedule index, not by deployment order.
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
            let oracle_opts = CampaignOpts {
                source,
                mode: CampaignMode::Cold,
                ..CampaignOpts::default()
            };
            let oracle = run_campaign(&engine, &origin, &schedule, &oracle_opts)
                .expect("valid schedule");
            let oracle_vols = link_volume_matrix(&oracle, &volume);
            let oracle_rank = rank_suspects(&oracle, &oracle_vols);
            for mode in [CampaignMode::Delta, CampaignMode::Cold] {
                for threads in [1usize, 2, 4] {
                    let opts = CampaignOpts {
                        source,
                        mode,
                        threads,
                        ..CampaignOpts::default()
                    };
                    let campaign = run_campaign(&engine, &origin, &schedule, &opts)
                        .expect("valid schedule");
                    assert_campaigns_identical!(campaign, oracle);
                    prop_assert_eq!(&campaign.attribution, &oracle.attribution);
                    // Bitset rows vs the dense reference representation:
                    // the packed u64 blocks and the Vec<Option<LinkId>>
                    // assignment are the same function, per config.
                    for (c, o) in campaign.catchments.iter().zip(&oracle.catchments) {
                        let dense = c.dense();
                        prop_assert_eq!(&dense, &o.dense());
                        prop_assert_eq!(&Catchments::from_dense(&dense), c);
                    }
                    let vols = link_volume_matrix(&campaign, &volume);
                    prop_assert_eq!(rank_suspects(&campaign, &vols), oracle_rank.clone());
                    prop_assert_eq!(campaign.stats.mode, mode);
                    prop_assert_eq!(campaign.stats.propagations, schedule.len());
                }
            }
        }
    }
}

// `cold_epochs` counts every deployment that reused no routing state,
// whatever the cause.
#[test]
fn cold_epochs_count_every_stateless_deployment() {
    let (world, origin, schedule) = scenario(11, 4, 1, 6);
    // Default policy: the 8% violators gate every deployment cold, so
    // a default (Delta) campaign reports no reused epoch at all.
    let engine = BgpEngine::new(&world.topology, &EngineConfig::default());
    let default = run_campaign(&engine, &origin, &schedule, &CampaignOpts::default())
        .expect("valid schedule");
    assert_eq!(default.stats.mode, CampaignMode::Delta);
    assert_eq!(default.stats.cold_epochs, default.stats.propagations);
    // Violator-free, one thread: only the first deployment and event-cap
    // restarts start cold.
    let clean = BgpEngine::new(&world.topology, &engine_config(true));
    let warm =
        run_campaign(&clean, &origin, &schedule, &CampaignOpts::default()).expect("valid schedule");
    assert!(warm.stats.propagations > 1);
    assert_eq!(warm.stats.cold_epochs, 1 + warm.stats.cold_restarts);
    // Each worker's first deployment is cold.
    let par = CampaignOpts {
        threads: 3,
        ..CampaignOpts::default()
    };
    let par = run_campaign(&clean, &origin, &schedule, &par).expect("valid schedule");
    assert_eq!(par.stats.threads, 3);
    assert_eq!(
        par.stats.cold_epochs,
        par.stats.threads + par.stats.cold_restarts
    );
    // Cold mode reuses nothing.
    let cold = CampaignOpts {
        mode: CampaignMode::Cold,
        ..CampaignOpts::default()
    };
    let cold = run_campaign(&clean, &origin, &schedule, &cold).expect("valid schedule");
    assert_eq!(cold.stats.cold_epochs, cold.stats.propagations);
    // A tight event cap: a delta epoch after a capped predecessor
    // cold-starts.
    let capped_delta = run_campaign(
        &clean,
        &origin,
        &schedule,
        &CampaignOpts {
            max_events_factor: 1,
            ..CampaignOpts::default()
        },
    )
    .expect("valid schedule");

    // By cause, summing to `cold_epochs`.
    let causes = |c: &Campaign| {
        let k = c.stats.cold_causes;
        assert_eq!(
            k.first + k.violator_gate + k.event_cap + k.cold_mode,
            c.stats.cold_epochs
        );
        (k.first, k.violator_gate, k.event_cap, k.cold_mode)
    };
    let n = default.stats.propagations;
    assert_eq!(causes(&default), (1, n - 1, 0, 0));
    assert_eq!(causes(&warm), (1, 0, warm.stats.cold_restarts, 0));
    assert_eq!(causes(&par), (3, 0, par.stats.cold_restarts, 0));
    assert_eq!(causes(&cold), (0, 0, 0, n));
    assert_eq!(capped_delta.stats.cold_restarts, 0);
    assert_eq!(causes(&capped_delta), (1, 0, n - 1, 0));
}

// Policy extensions make the import filter stricter, never
// history-dependent: with any extension deployed — at 0% (the inert
// configuration), partial, or universal coverage — the delta executor's
// epoch reuse must remain indistinguishable from the cold oracle, all
// the way through suspect ranking.
#[test]
fn extensions_on_warm_equals_cold() {
    let (world, origin, schedule) = scenario(31, 4, 1, 8);
    let volume: Vec<u64> = (0..world.topology.num_ases() as u64)
        .map(|i| 1 + i % 5)
        .collect();
    for ext in PolicyExtension::ALL {
        for fraction in [0.0, 0.3, 1.0] {
            let mut policy = PolicyConfig {
                violator_fraction: 0.0,
                ..PolicyConfig::default()
            };
            policy.extensions.deployments = vec![ExtensionDeployment {
                extension: ext,
                fraction,
                bias: DeploymentBias::Core,
            }];
            let cfg = EngineConfig {
                policy,
                ..EngineConfig::default()
            };
            let engine = BgpEngine::new(&world.topology, &cfg);
            let warm = run_campaign(&engine, &origin, &schedule, &CampaignOpts::default())
                .expect("valid schedule");
            let cold = run_campaign(
                &engine,
                &origin,
                &schedule,
                &CampaignOpts {
                    mode: CampaignMode::Cold,
                    ..CampaignOpts::default()
                },
            )
            .expect("valid schedule");
            assert_eq!(
                &warm.catchments, &cold.catchments,
                "{ext} at {fraction}: warm catchments diverged from cold"
            );
            assert_eq!(&warm.tracked, &cold.tracked);
            assert_eq!(warm.clustering.clusters(), cold.clustering.clusters());
            assert_eq!(&warm.records, &cold.records);
            let wv = link_volume_matrix(&warm, &volume);
            let cv = link_volume_matrix(&cold, &volume);
            assert_eq!(
                rank_suspects(&warm, &wv),
                rank_suspects(&cold, &cv),
                "{ext} at {fraction}: suspect ranking diverged"
            );
        }
    }
}

// Degenerate epoch: re-deploying the identical announcement must cost
// the delta engine zero propagation work — no seeds, no events, no
// disturbance — while the campaign-level manifest stays byte-identical
// and deterministic.
#[test]
fn identical_redeploy_is_a_zero_work_epoch() {
    let (world, origin, schedule) = scenario(23, 4, 1, 8);
    let engine = BgpEngine::new(&world.topology, &engine_config(true));

    // Engine level: the second (identical) deployment diffs to an empty
    // seed set and never enters the propagation loop.
    let mut session = engine.session_with(CampaignMode::Delta);
    let anns = schedule[0].to_link_announcements();
    let first = session
        .deploy_config(&origin, &anns, 200)
        .expect("valid configuration");
    assert!(first.converged);
    let redeploy = session
        .deploy_config(&origin, &anns, 200)
        .expect("valid configuration");
    assert_eq!(redeploy.events, 0, "identical redeploy must not propagate");
    assert_eq!(redeploy.routes_disturbed, 0);
    assert_eq!(
        Catchments::from_control_plane(&redeploy),
        Catchments::from_control_plane(&first)
    );

    // Campaign level: a schedule ending in a duplicated configuration
    // emits a deterministic manifest that is byte-identical across runs,
    // with the degenerate epoch recorded at zero cost.
    let mut doubled = schedule.clone();
    doubled.push(schedule[0].clone());
    let manifest_of = || {
        let recorder = CampaignRecorder::new(true);
        let campaign = run_campaign(
            &engine,
            &origin,
            &doubled,
            &CampaignOpts {
                mode: CampaignMode::Delta,
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
            mode: "delta".into(),
            threads: campaign.stats.threads,
            trace: "off".into(),
            schedule_len: campaign.configs.len(),
            deterministic: true,
        };
        let records = recorder.take_records();
        let degenerate = records.last().expect("duplicated epoch recorded");
        assert_eq!(degenerate.events, 0);
        assert_eq!(degenerate.routes_disturbed, 0);
        render_manifest(&info, &records, None)
    };
    assert_eq!(manifest_of(), manifest_of(), "manifest must be byte-stable");
}

// The default entry points are the delta executor; pin that so a future
// refactor can't silently flip the default to cold.
#[test]
fn default_entry_points_run_warm() {
    let (world, origin, schedule) = scenario(11, 4, 1, 6);
    let engine = BgpEngine::new(&world.topology, &EngineConfig::default());
    let seq = run_campaign(&engine, &origin, &schedule, &CampaignOpts::default())
        .expect("valid schedule");
    assert_eq!(seq.stats.mode, CampaignMode::Delta);
    assert_eq!(seq.stats.propagations, schedule.len());
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
    assert_eq!(par.stats.mode, CampaignMode::Delta);
    assert_eq!(par.stats.threads, 2);
    assert_eq!(seq.catchments, par.catchments);
}
