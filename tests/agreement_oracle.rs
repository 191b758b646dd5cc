//! Agreement oracle: one stable state per configuration.
//!
//! Every AS prefers customer routes, policy violators included (they
//! hash LocalPref per neighbor within each relationship band). With a
//! provider hierarchy free of cycles that rules out dispute wheels
//! (Gao & Rexford 2001), so each configuration has one stable state and
//! every fair activation order reaches it. The oracle checks that
//! empirically: for every configuration of a schedule, three different
//! starts must reach equal catchments, control plane and data plane:
//!
//! * FIFO from empty RIBs (`propagate_config`);
//! * the same announcements injected in reverse order, which reverses
//!   the drain's first activations;
//! * a transition from the converged full anycast, as campaign sessions
//!   deploy.
//!
//! It runs at `small`, at paper scale for seeds 7 and `0x5eed_0001`, and
//! as a proptest over random topologies with violator fractions from 0
//! to 0.3 and loop prevention disabled on some ASes. Before violators
//! were held to customer-first LocalPrefs, the paper-scale seed-7
//! schedule failed it in 194 of 511 configurations (161,061 cells).
//!
//! The rest of the file holds the cases where no baseline is kept: a
//! provider cycle, which the generator never produces, and a baseline
//! the event cap stops.

use proptest::prelude::*;
use trackdown_experiments::{Options, Scale, Scenario};
use trackdown_suite::prelude::*;
use trackdown_suite::topology::cone::has_provider_cycle;

/// What one start reports for a configuration.
fn catchments_of(out: &RoutingOutcome) -> (Catchments, Catchments) {
    (
        Catchments::from_control_plane(out),
        Catchments::from_data_plane(out),
    )
}

/// Deploy every configuration of `schedule` from the three starts and
/// count the configurations, and the (AS, configuration) cells, whose
/// control- or data-plane catchment differs between any two of them.
fn disagreements(
    engine: &BgpEngine<'_>,
    origin: &OriginAs,
    schedule: &[AnnouncementConfig],
) -> (usize, usize) {
    let factor = engine.max_events_factor();
    let mut cold = engine.session();
    let mut warm = engine.session();
    let baseline = warm.converge_baseline(origin).expect("valid origin");
    assert_eq!(baseline.status, BaselineStatus::Converged);
    let (mut configs, mut cells) = (0, 0);
    for cfg in schedule {
        let anns = cfg.to_link_announcements();
        let reversed: Vec<LinkAnnouncement> = anns.iter().rev().cloned().collect();
        let outcomes = [
            cold.deploy_config(origin, &anns, factor),
            cold.deploy_config(origin, &reversed, factor),
            warm.deploy_config(origin, &anns, factor),
        ]
        .map(|out| out.expect("valid configuration"));
        assert!(warm.last_deploy_warm() && !cold.last_deploy_warm());
        assert!(outcomes.iter().all(|o| o.converged), "{cfg:?} hit the cap");
        let [a, b, c] = outcomes.each_ref().map(catchments_of);
        let differ: usize = engine
            .topology()
            .indices()
            .filter(|&i| {
                let at = |(cp, dp): &(Catchments, Catchments)| (cp.get(i), dp.get(i));
                at(&a) != at(&b) || at(&a) != at(&c)
            })
            .count();
        configs += usize::from(differ > 0);
        cells += differ;
    }
    (configs, cells)
}

fn scenario_disagreements(scale: Scale, seed: u64) -> (usize, usize) {
    let scenario = Scenario::build(Options {
        scale,
        seed,
        ..Options::default()
    });
    let engine = scenario.engine();
    assert!(engine.policy().num_violators() > 0);
    disagreements(&engine, &scenario.origin, &scenario.schedule())
}

#[test]
fn small_scale_starts_agree() {
    assert_eq!(scenario_disagreements(Scale::Small, 7), (0, 0));
}

#[test]
fn paper_scale_seed_7_starts_agree() {
    assert_eq!(scenario_disagreements(Scale::Full, 7), (0, 0));
}

#[test]
fn paper_scale_run_all_seed_starts_agree() {
    assert_eq!(scenario_disagreements(Scale::Full, 0x5eed_0001), (0, 0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_topologies_starts_agree(
        topo_seed in 0u64..500,
        policy_seed in 0u64..500,
        violator_permille in 0u32..301,
        no_loop_permille in 0u32..301,
        pops in 3usize..6,
    ) {
        let world = generate(&TopologyConfig::small(topo_seed));
        let origin = OriginAs::peering_style(&world, pops);
        let schedule = full_schedule(
            &world.topology,
            &origin,
            &GeneratorParams {
                max_removals: 2,
                max_poison_configs: Some(16),
            },
        );
        let cfg = EngineConfig {
            policy: PolicyConfig {
                seed: policy_seed,
                violator_fraction: f64::from(violator_permille) / 1000.0,
                no_loop_prevention_fraction: f64::from(no_loop_permille) / 1000.0,
                ..PolicyConfig::default()
            },
            ..EngineConfig::default()
        };
        let engine = BgpEngine::new(&world.topology, &cfg);
        prop_assert_eq!(disagreements(&engine, &origin, &schedule), (0, 0));
    }
}

/// Uniqueness needs a provider hierarchy without cycles; the generator
/// never builds one at any scale.
#[test]
fn generated_provider_hierarchies_are_acyclic() {
    for scale in [
        Scale::Small,
        Scale::Medium,
        Scale::Full,
        Scale::Large,
        Scale::Internet,
    ] {
        let scenario = Scenario::build(Options {
            scale,
            seed: 7,
            ..Options::default()
        });
        assert!(!has_provider_cycle(&scenario.gen.topology), "{scale:?}");
    }
}

/// A baseline the event cap stops is not kept: the campaign deploys every
/// configuration from empty RIBs, says so, and equals per-configuration
/// propagations under the same cap.
#[test]
fn capped_baselines_campaign_cold() {
    let world = generate(&TopologyConfig::small(7));
    let origin = OriginAs::peering_style(&world, 4);
    let schedule = full_schedule(
        &world.topology,
        &origin,
        &GeneratorParams {
            max_removals: 1,
            max_poison_configs: Some(6),
        },
    );
    let cfg = EngineConfig {
        max_events_factor: 1,
        ..EngineConfig::default()
    };
    let engine = BgpEngine::new(&world.topology, &cfg);
    for threads in [1, 2] {
        let opts = CampaignOpts {
            threads,
            ..CampaignOpts::default()
        };
        let campaign = run_campaign(&engine, &origin, &schedule, &opts).expect("valid schedule");
        assert_eq!(campaign.stats.baseline, BaselineStatus::EventCap);
        assert_eq!(
            campaign.stats.baseline_events,
            campaign.stats.threads * (world.topology.num_ases() + 1)
        );
        for (k, cfg) in schedule.iter().enumerate() {
            let fresh = engine
                .propagate_config(&origin, &cfg.to_link_announcements())
                .expect("valid configuration");
            assert!(!fresh.converged);
            assert_eq!(
                campaign.catchments[k],
                Catchments::from_control_plane(&fresh),
                "config {k}"
            );
        }
    }
}
