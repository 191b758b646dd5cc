//! Session-level differential suite. A `CampaignSession` keeps its
//! allocations across deployments. Once
//! `CampaignSession::converge_baseline` keeps the full anycast, each
//! deployment is a FIFO transition from that baseline, rolled back
//! through an undo log before the next one. A session without a
//! baseline, like every session here, clears its routing state and
//! drains each deployment from empty RIBs (DESIGN.md §4b), which is
//! what a fresh session does. So a chain of deployments through one
//! session — in schedule order and reversed, in a footprint-distance-
//! maximizing order, through poison/unpoison flips, right after a
//! deployment capped by the event limit — must equal a fresh session's
//! deployment of the same configuration bit for bit: best routes (path
//! ids included), candidate RIBs, the paths behind them, change logs and
//! every counter.
//!
//! Baseline transitions reach the same routes, though not the same
//! events or path ids: `tests/agreement_oracle.rs` checks that, and
//! `tests/campaign_invariance.rs` checks the campaigns built on them.

mod common;

use common::{engine_config, scenario};
use proptest::prelude::*;
use trackdown_suite::core::schedule::footprint_distance;
use trackdown_suite::prelude::*;

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
    // a fresh session's, and the forward pass's catchments are the
    // campaign's.
    #[test]
    fn forward_and_backward_deploys_match_fresh(
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

    // Poison → unpoison → poison flips through one session, then an
    // identical redeploy of the poisoned configuration: the
    // withdrawal-heavy sequences, each deployment equal to a fresh
    // session's.
    #[test]
    fn poison_flips_match_fresh(
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
    // chain, so consecutive deployments differ as much as the schedule
    // allows (announce/withdraw/poison churn all at once).
    #[test]
    fn distance_maximizing_order_matches_fresh(
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

// A capped (non-converged) deployment leaves a populated activation
// queue behind; the next deployment must not inherit it. Cap the first
// deployment of a session and one mid-session, in both policy regimes:
// the capped outcomes and every deployment after them equal fresh
// sessions' bit for bit.
#[test]
fn capped_deployments_leave_no_state_behind() {
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
