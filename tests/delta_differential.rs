//! Differential suite: the delta propagation engine (the default reuse
//! mode) must be indistinguishable — catchments, tracked set,
//! clustering, per-config records, suspect rankings — from the
//! cold-start oracle, across thread counts and adversarial deployment
//! orders.
//!
//! Delta epochs change two things at once relative to a cold start: the
//! seed set (injection diffing against the previous epoch skips
//! unchanged providers) and the activation order (customer-cone rank
//! scheduling instead of FIFO).
//! On Gao-Rexford-conformant engines the fixpoint is unique, so any
//! divergence is a delta bug — a stale direct route surviving a diff, a
//! rank tie processed inconsistently, a withdrawal cascade terminated
//! early. The adversarial cases below (poison-then-unpoison flips,
//! footprint-distance-*maximizing* schedules) drive exactly the
//! withdrawal-heavy transitions where such bugs would surface.

use proptest::prelude::*;
use trackdown_suite::core::schedule::footprint_distance;
use trackdown_suite::prelude::*;

/// Engine config with the violator knob explicit: `clean` engines have
/// unique fixpoints (true delta reuse); default engines keep the 8%
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

/// The full equality obligation between two campaigns. Stats are exempt
/// by design (they describe *how* the executor ran, not what it found).
macro_rules! assert_campaigns_identical {
    ($a:expr, $b:expr) => {
        prop_assert_eq!(&$a.configs, &$b.configs);
        prop_assert_eq!(&$a.catchments, &$b.catchments);
        prop_assert_eq!(&$a.tracked, &$b.tracked);
        prop_assert_eq!($a.clustering.clusters(), $b.clustering.clusters());
        prop_assert_eq!(&$a.records, &$b.records);
        prop_assert_eq!($a.imputation, $b.imputation);
    };
}

/// Per-epoch oracle comparison for session-driven tests: the delta
/// session outcome must match a cold propagation of the same
/// configuration, in both catchment planes.
fn assert_outcome_matches_cold(
    engine: &BgpEngine<'_>,
    origin: &OriginAs,
    cfg: &AnnouncementConfig,
    delta: &RoutingOutcome,
) {
    let cold = engine
        .propagate_config(origin, &cfg.to_link_announcements(), 200)
        .expect("valid configuration");
    assert_eq!(delta.converged, cold.converged);
    assert_eq!(
        Catchments::from_control_plane(delta),
        Catchments::from_control_plane(&cold)
    );
    assert_eq!(
        Catchments::from_data_plane(delta),
        Catchments::from_data_plane(&cold)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The oracle: Delta == Cold on one worker thread, all the way to
    // suspect ranking, over both catchment sources and both policy
    // regimes.
    #[test]
    fn delta_equals_warm_equals_cold(
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
        let delta = run_campaign(&engine, &origin, &schedule, &CampaignOpts { source, mode: CampaignMode::Delta, ..CampaignOpts::default() }).expect("valid schedule");
        let cold = run_campaign(&engine, &origin, &schedule, &CampaignOpts { source, mode: CampaignMode::Cold, ..CampaignOpts::default() }).expect("valid schedule");
        assert_campaigns_identical!(delta, cold);
        // Suspect rankings must survive the full attribution pipeline.
        let volume: Vec<u64> = (0..world.topology.num_ases() as u64)
            .map(|i| 1 + i % 5)
            .collect();
        let dv = link_volume_matrix(&delta, &volume);
        let cv = link_volume_matrix(&cold, &volume);
        prop_assert_eq!(rank_suspects(&delta, &dv), rank_suspects(&cold, &cv));
        prop_assert_eq!(delta.stats.mode, CampaignMode::Delta);
        prop_assert_eq!(delta.stats.propagations, schedule.len());
    }

    // Delta at 1/2/8 worker threads vs the one-thread cold oracle —
    // the thread counts the manifests promise invariance over.
    #[test]
    fn delta_is_thread_invariant(
        seed in 0u64..300,
        max_poison in 4usize..10,
        data_plane in 0u8..2,
        clean in 0u8..2,
    ) {
        let (world, origin, schedule) = scenario(seed, 4, 1, max_poison);
        let engine = BgpEngine::new(&world.topology, &engine_config(clean == 1));
        let source = if data_plane == 1 {
            CatchmentSource::DataPlane
        } else {
            CatchmentSource::ControlPlane
        };
        let volume: Vec<u64> = (0..world.topology.num_ases() as u64)
            .map(|i| 1 + i % 7)
            .collect();
        let cold_opts = CampaignOpts {
            source,
            mode: CampaignMode::Cold,
            ..CampaignOpts::default()
        };
        let cold = run_campaign(&engine, &origin, &schedule, &cold_opts).expect("valid schedule");
        let cold_vols = link_volume_matrix(&cold, &volume);
        let cold_rank = rank_suspects(&cold, &cold_vols);
        for threads in [1usize, 2, 8] {
            let opts = CampaignOpts {
                source,
                mode: CampaignMode::Delta,
                threads,
                ..CampaignOpts::default()
            };
            let par = run_campaign(&engine, &origin, &schedule, &opts).expect("valid schedule");
            assert_campaigns_identical!(par, cold);
            let vols = link_volume_matrix(&par, &volume);
            prop_assert_eq!(rank_suspects(&par, &vols), cold_rank.clone());
            prop_assert_eq!(par.stats.mode, CampaignMode::Delta);
        }
    }

    // Adversarial ordering 1: poison-then-unpoison flips, driven through
    // the session directly (the executors would reorder them away). Each
    // transition withdraws a poisoned announcement and restores the plain
    // one (or vice versa) — the withdrawal-cascade path where FIFO
    // processing path-hunts and rank scheduling must still converge to
    // the same fixpoint.
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
        let mut session = engine.session_with(CampaignMode::Delta);
        for (i, p) in poisoned.iter().take(flips).enumerate() {
            // poison → unpoison → poison again: A;P unchanged, Q flips.
            for cfg in [*p, baseline, *p] {
                let out = session
                    .deploy_config(&origin, &cfg.to_link_announcements(), 200)
                    .expect("valid configuration");
                assert_outcome_matches_cold(&engine, &origin, cfg, &out);
            }
            // Re-deploying the previous config identically must be a
            // zero-seed epoch on clean engines (diff is empty).
            if clean == 1 {
                let out = session
                    .deploy_config(&origin, &poisoned[i].to_link_announcements(), 200)
                    .expect("valid configuration");
                prop_assert_eq!(out.events, 0, "identical redeploy must not propagate");
                prop_assert_eq!(out.routes_disturbed, 0);
            }
        }
    }

    // Adversarial ordering 2: deploy the schedule in a greedy
    // footprint-distance-MAXIMIZING chain — the exact opposite of the
    // warm-start order — so every transition is the largest available
    // edit (announce/withdraw/poison churn all at once).
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
        let mut session = engine.session_with(CampaignMode::Delta);
        for &k in &order {
            let out = session
                .deploy_config(&origin, &schedule[k].to_link_announcements(), 200)
                .expect("valid configuration");
            assert_outcome_matches_cold(&engine, &origin, &schedule[k], &out);
        }
    }
}

/// Clean engine (unique fixpoints) with the given policy-extension
/// deployments activated.
fn engine_config_ext(deployments: Vec<ExtensionDeployment>) -> EngineConfig {
    let mut policy = PolicyConfig {
        violator_fraction: 0.0,
        ..PolicyConfig::default()
    };
    policy.extensions.deployments = deployments;
    EngineConfig {
        policy,
        ..EngineConfig::default()
    }
}

// Policy extensions drop routes at import time — each drop must surface
// as a non-viable activation to the delta engine, never as a stale
// entry it warm-reuses. Every extension, at partial (30%) and universal
// (100%) deployment (0% is the extension-free baseline the rest of the
// suite covers), must keep Delta == Cold through the parallel
// executor's 1/2/8 thread counts, all the way to suspect ranking.
#[test]
fn extensions_on_delta_equals_warm_equals_cold_across_threads() {
    let (world, origin, schedule) = scenario(29, 4, 1, 8);
    let volume: Vec<u64> = (0..world.topology.num_ases() as u64)
        .map(|i| 1 + i % 7)
        .collect();
    let mut arms: Vec<Vec<ExtensionDeployment>> = vec![vec![]];
    for ext in PolicyExtension::ALL {
        for fraction in [0.3, 1.0] {
            arms.push(vec![ExtensionDeployment {
                extension: ext,
                fraction,
                bias: DeploymentBias::Core,
            }]);
        }
    }
    // Mixed arm: every extension at once, partial deployment.
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
    for arm in arms {
        let engine = BgpEngine::new(&world.topology, &engine_config_ext(arm.clone()));
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
        let cold_vols = link_volume_matrix(&cold, &volume);
        let cold_rank = rank_suspects(&cold, &cold_vols);
        for threads in [1usize, 2, 8] {
            let delta = run_campaign(
                &engine,
                &origin,
                &schedule,
                &CampaignOpts {
                    mode: CampaignMode::Delta,
                    threads,
                    ..CampaignOpts::default()
                },
            )
            .expect("valid schedule");
            assert_eq!(
                &delta.catchments, &cold.catchments,
                "delta vs cold at {threads} threads: {arm:?}"
            );
            assert_eq!(&delta.tracked, &cold.tracked);
            assert_eq!(delta.clustering.clusters(), cold.clustering.clusters());
            assert_eq!(&delta.records, &cold.records);
            let vols = link_volume_matrix(&delta, &volume);
            assert_eq!(
                rank_suspects(&delta, &vols),
                cold_rank,
                "suspect ranking diverged at {threads} threads: {arm:?}"
            );
        }
    }
}

// Regression: a capped (non-converged) epoch must never be warm-reused
// by the next delta epoch. The capped run leaves stranded FIFO queue
// entries with `in_queue` set; a rank-scheduled delta epoch on top of
// them would drain only the rank buckets, freezing those ASes for the
// whole epoch while reporting convergence. The session must instead
// fall back to a cold start — and stay fixpoint-identical to the
// oracle from then on.
#[test]
fn capped_epoch_then_delta_falls_back_to_cold() {
    let (world, origin, schedule) = scenario(23, 4, 1, 8);
    let engine = BgpEngine::new(&world.topology, &engine_config(true));
    let mut session = engine.session_with(CampaignMode::Delta);
    // A zero events budget caps the first deployment immediately,
    // leaving a populated activation queue behind.
    let capped = session
        .deploy_config(&origin, &schedule[0].to_link_announcements(), 0)
        .expect("valid configuration");
    assert!(!capped.converged, "factor-0 cap must not converge");
    // Every later epoch gets a real budget; each must match a cold
    // propagation of the same configuration in both catchment planes.
    for cfg in schedule.iter().take(6) {
        let out = session
            .deploy_config(&origin, &cfg.to_link_announcements(), 200)
            .expect("valid configuration");
        assert!(out.converged);
        assert_outcome_matches_cold(&engine, &origin, cfg, &out);
    }
    // Same hazard mid-session: cap a *delta* epoch, then resume.
    let _ = session.deploy_config(&origin, &schedule[1].to_link_announcements(), 0);
    for cfg in schedule.iter().rev().take(4) {
        let out = session
            .deploy_config(&origin, &cfg.to_link_announcements(), 200)
            .expect("valid configuration");
        assert_outcome_matches_cold(&engine, &origin, cfg, &out);
    }
}

// Delta stats carry the disturbance accounting trackbench reports as
// `bgp.routes_disturbed`.
#[test]
fn delta_stats_report_disturbance() {
    let (world, origin, schedule) = scenario(17, 4, 1, 8);
    let engine = BgpEngine::new(&world.topology, &engine_config(true));
    let delta = run_campaign(
        &engine,
        &origin,
        &schedule,
        &CampaignOpts {
            mode: CampaignMode::Delta,
            ..CampaignOpts::default()
        },
    )
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
    assert_eq!(delta.catchments, cold.catchments);
    assert_eq!(delta.stats.mode, CampaignMode::Delta);
    // The first (cold) epoch alone disturbs every reachable AS; later
    // delta epochs only add their frontiers, so the total is at least
    // the baseline coverage but far below propagations × topology size.
    assert!(delta.stats.routes_disturbed >= delta.tracked.len());
    assert!(delta.stats.routes_disturbed < delta.stats.propagations * world.topology.num_ases());
}
