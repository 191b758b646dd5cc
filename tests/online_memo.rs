//! The engine's memo of deployed catchments (`BgpEngine::deployed_catchments`),
//! which every online trial reads instead of propagating again.
//!
//! Oracle: for every configuration of the seed-7 `small` and the
//! `medium(91)` schedules under a violator-bearing policy, the memoized
//! control- and data-plane catchments equal those of a fresh
//! `propagate_config`, and the control plane equals the campaign's own
//! catchments. A second origin on the same engine gets entries of its own,
//! and a repeated lookup returns the same `Arc`.
//!
//! Engagement: a trial repeated on a warm engine adds no entry, and trials
//! run from two threads on one engine return what serial trials return.

use std::collections::HashSet;
use std::sync::{Arc, Barrier};
use trackdown_core::online::{simulate_online_attack, OnlineOptions, OnlineResult};
use trackdown_experiments::{Options, Scale, Scenario};
use trackdown_suite::prelude::*;

// Trials share one engine across threads.
const _: fn() = || {
    fn assert_sync<T: Sync>() {}
    assert_sync::<BgpEngine<'static>>();
};

/// The seed-7 small scenario under the default policy and its campaign.
fn small_seed7() -> (Scenario, Campaign) {
    let scenario = Scenario::build(Options {
        scale: Scale::Small,
        seed: 7,
        threads: Some(1),
        ..Options::default()
    });
    let campaign = scenario.run();
    (scenario, campaign)
}

/// The medium(91) set-up of `core::online`'s unit tests: violators on,
/// poisoning capped at 30 configurations.
fn medium91() -> (
    GeneratedTopology,
    OriginAs,
    EngineConfig,
    Vec<AnnouncementConfig>,
) {
    let g = generate(&TopologyConfig::medium(91));
    let origin = OriginAs::peering_style(&g, 5);
    let cfg = EngineConfig {
        policy: PolicyConfig {
            seed: 7,
            violator_fraction: 0.05,
            no_loop_prevention_fraction: 0.02,
            tier1_poison_filtering: true,
            extensions: Default::default(),
        },
        ..EngineConfig::default()
    };
    let schedule = full_schedule(
        &g.topology,
        &origin,
        &GeneratorParams {
            max_removals: 2,
            max_poison_configs: Some(30),
        },
    );
    (g, origin, cfg, schedule)
}

/// Check the memo of `engine` against fresh propagation and the campaign
/// for every configuration, then against a second origin.
fn check_memo(engine: &BgpEngine<'_>, origin: &OriginAs, campaign: &Campaign) {
    assert_eq!(
        engine.memoized_configs(),
        0,
        "a fresh engine memoizes nothing"
    );
    for (i, cfg) in campaign.configs.iter().enumerate() {
        let anns = cfg.to_link_announcements();
        let memo = engine.deployed_catchments(origin, &anns).unwrap();
        let fresh = engine.propagate_config(origin, &anns).unwrap();
        assert_eq!(
            memo.control_plane,
            Catchments::from_control_plane(&fresh),
            "config {i}"
        );
        assert_eq!(
            memo.data_plane,
            Catchments::from_data_plane(&fresh),
            "config {i}"
        );
        assert_eq!(memo.control_plane, campaign.catchments[i], "config {i}");
        let again = engine.deployed_catchments(origin, &anns).unwrap();
        assert!(
            Arc::ptr_eq(&memo, &again),
            "config {i}: a hit returns the stored entry"
        );
    }
    let distinct: HashSet<String> = campaign.configs.iter().map(|c| c.footprint_key()).collect();
    assert_eq!(engine.memoized_configs(), distinct.len());

    // The same links under another ASN inject other paths: own entries.
    let other_asn = Asn(64_512);
    assert!(engine.topology().index_of(other_asn).is_none());
    let other = OriginAs {
        asn: other_asn,
        ..origin.clone()
    };
    for (i, cfg) in campaign.configs.iter().enumerate().take(10) {
        let anns = cfg.to_link_announcements();
        let before = engine.memoized_configs();
        let memo = engine.deployed_catchments(&other, &anns).unwrap();
        assert_eq!(
            engine.memoized_configs(),
            before + 1,
            "config {i}: a new entry"
        );
        let mine = engine.deployed_catchments(origin, &anns).unwrap();
        assert!(!Arc::ptr_eq(&memo, &mine), "config {i}");
        let fresh = engine.propagate_config(&other, &anns).unwrap();
        assert_eq!(
            memo.control_plane,
            Catchments::from_control_plane(&fresh),
            "config {i}"
        );
        assert_eq!(
            memo.data_plane,
            Catchments::from_data_plane(&fresh),
            "config {i}"
        );
    }
}

#[test]
fn small_seed7_memo_matches_fresh_propagation() {
    let (scenario, campaign) = small_seed7();
    let engine = scenario.engine();
    check_memo(&engine, &scenario.origin, &campaign);
}

#[test]
fn medium_memo_matches_fresh_propagation() {
    let (g, origin, cfg, schedule) = medium91();
    let engine = BgpEngine::new(&g.topology, &cfg);
    let campaign = run_campaign(&engine, &origin, &schedule, &CampaignOpts::default())
        .expect("valid schedule");
    check_memo(&engine, &origin, &campaign);
}

/// Greedy trials of the seed-7 small scenario with `bin/online.rs`'s
/// options, over the attackers `ks` in that order.
fn trials(
    scenario: &Scenario,
    engine: &BgpEngine<'_>,
    campaign: &Campaign,
    ks: impl Iterator<Item = usize>,
) -> Vec<OnlineResult> {
    ks.map(|k| {
        let attacker = campaign.tracked[(k * 41 + 7) % campaign.tracked.len()];
        let mut vol = vec![0u64; scenario.gen.topology.num_ases()];
        vol[attacker.us()] = 1_000_000;
        simulate_online_attack(
            engine,
            &scenario.origin,
            &campaign.configs,
            Some(&campaign.catchments),
            &campaign.tracked,
            &vol,
            OnlineOptions {
                max_configs: 40,
                target_suspects: campaign.clustering.cluster_size_of(attacker).unwrap_or(1) + 1,
                greedy: true,
                prefixes: 1,
            },
        )
    })
    .collect()
}

const TRIALS: usize = 12;

#[test]
fn warm_engine_trials_deploy_nothing() {
    let (scenario, campaign) = small_seed7();
    let engine = scenario.engine();
    let cold = trials(&scenario, &engine, &campaign, 0..TRIALS);
    let filled = engine.memoized_configs();
    assert!(filled > 0, "trials fill the memo");
    let deployed: usize = cold.iter().map(|r| r.deployed.len()).sum();
    assert!(filled < deployed, "{filled} entries for {deployed} deploys");
    let warm = trials(&scenario, &engine, &campaign, 0..TRIALS);
    assert_eq!(warm, cold);
    assert_eq!(engine.memoized_configs(), filled, "a warm trial propagated");
}

#[test]
fn two_threads_on_one_engine_match_serial_trials() {
    let (scenario, campaign) = small_seed7();
    let serial_engine = scenario.engine();
    let serial = trials(&scenario, &serial_engine, &campaign, 0..TRIALS);

    let engine = scenario.engine();
    let start = Barrier::new(2);
    let run = |ks: Vec<usize>| {
        start.wait();
        trials(&scenario, &engine, &campaign, ks.into_iter())
    };
    let (forward, backward) = std::thread::scope(|s| {
        let forward = s.spawn(|| run((0..TRIALS).collect()));
        let backward = s.spawn(|| run((0..TRIALS).rev().collect()));
        (
            forward.join().expect("forward trials"),
            backward.join().expect("backward trials"),
        )
    });
    assert_eq!(forward, serial);
    let mut backward = backward;
    backward.reverse();
    assert_eq!(backward, serial);
    assert_eq!(engine.memoized_configs(), serial_engine.memoized_configs());
}
