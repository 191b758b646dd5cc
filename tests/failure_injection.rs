//! Failure-injection integration tests: the stack must stay correct (and
//! degrade gracefully) under every deviation the paper identifies —
//! poison-immune ASes, tier-1 filtering, policy violators, and heavy
//! measurement noise.

use trackdown_suite::bgp::Catchments;
use trackdown_suite::measure::{
    IpToAsConfig, MeasurementConfig, MeasurementPlane, TracerouteConfig, VantageConfig,
};
use trackdown_suite::prelude::*;

fn engine_cfg(violators: f64, immune: f64, tier1_filter: bool) -> EngineConfig {
    EngineConfig {
        policy: PolicyConfig {
            seed: 99,
            violator_fraction: violators,
            no_loop_prevention_fraction: immune,
            tier1_poison_filtering: tier1_filter,
            extensions: Default::default(),
        },
        ..EngineConfig::default()
    }
}

#[test]
fn poison_immune_ases_keep_their_routes() {
    let world = generate(&TopologyConfig::small(40));
    let origin = OriginAs::peering_style(&world, 4);
    let normal = BgpEngine::new(&world.topology, &engine_cfg(0.0, 0.0, false));
    let immune = BgpEngine::new(&world.topology, &engine_cfg(0.0, 1.0, false));
    let targets = trackdown_suite::core::generator::poison_targets(&world.topology, &origin);
    // Across all targets, poisoning must move at least one AS in the
    // normal world; in the fully-immune world the *poisoned AS itself*
    // never loses its route.
    let baseline: Vec<_> = origin.link_ids().map(LinkAnnouncement::plain).collect();
    let mut any_moved = false;
    for t in targets.iter().take(10) {
        let anns: Vec<LinkAnnouncement> = origin
            .link_ids()
            .map(|l| {
                if l == t.via {
                    LinkAnnouncement::poisoned(l, vec![t.target])
                } else {
                    LinkAnnouncement::plain(l)
                }
            })
            .collect();
        let base = normal.propagate_config(&origin, &baseline).unwrap();
        let poisoned = normal
            .propagate_config_detailed(&origin, &anns, SnapshotDetail::Full)
            .unwrap();
        let ti = world.topology.index_of(t.target).unwrap();
        // In the normal world the poisoned AS must not use a route whose
        // path carries the poison (loop prevention dropped it).
        if let Some(r) = &poisoned.best[ti.us()] {
            assert!(
                !poisoned
                    .path_of(r)
                    .poisons_of(origin.asn)
                    .contains(&t.target),
                "poisoned AS accepted its own poison"
            );
        }
        if Catchments::from_control_plane(&base)
            .divergence(&Catchments::from_control_plane(&poisoned))
            > 0.0
        {
            any_moved = true;
        }
        // Immune world: the poisoned AS keeps a route either way.
        let immune_out = immune.propagate_config(&origin, &anns).unwrap();
        assert!(
            immune_out.best[ti.us()].is_some(),
            "immune AS lost its route"
        );
    }
    assert!(any_moved, "poisoning never changed any catchment");
}

#[test]
fn tier1_filtering_limits_poison_spread() {
    let world = generate(&TopologyConfig::small(41));
    let origin = OriginAs::peering_style(&world, 4);
    let filtered = BgpEngine::new(&world.topology, &engine_cfg(0.0, 0.0, true));
    // Poison a tier-1 AS: with route-leak filtering, other tier-1s drop
    // customer announcements carrying it, but the prefix must remain
    // reachable via unpoisoned links.
    let cones = ConeInfo::compute(&world.topology);
    let t1 = cones.tier1s().next().expect("tier-1 exists");
    let t1_asn = world.topology.asn_of(t1);
    let anns: Vec<LinkAnnouncement> = origin
        .link_ids()
        .map(|l| {
            if l == LinkId(0) {
                LinkAnnouncement::poisoned(l, vec![t1_asn])
            } else {
                LinkAnnouncement::plain(l)
            }
        })
        .collect();
    let out = filtered.propagate_config(&origin, &anns).unwrap();
    assert!(out.converged);
    assert!(
        out.reachable_count() > world.topology.num_ases() / 2,
        "poisoning a tier-1 wiped out reachability"
    );
}

#[test]
fn violator_heavy_worlds_still_converge_and_localize() {
    let world = generate(&TopologyConfig::small(42));
    let origin = OriginAs::peering_style(&world, 4);
    let engine = BgpEngine::new(&world.topology, &engine_cfg(0.5, 0.05, true));
    let schedule = full_schedule(
        &world.topology,
        &origin,
        &GeneratorParams {
            max_removals: 2,
            max_poison_configs: Some(10),
        },
    );
    let campaign = run_campaign(&engine, &origin, &schedule, &CampaignOpts::default())
        .expect("valid schedule");
    let non_converged = campaign.records.iter().filter(|r| !r.converged).count();
    assert_eq!(
        non_converged, 0,
        "static violator preferences should still quiesce"
    );
    // Localization still works for a planted source.
    let attacker = campaign.tracked[7 % campaign.tracked.len()];
    let mut volume = vec![0u64; world.topology.num_ases()];
    volume[attacker.us()] = 1;
    let vols = link_volume_matrix(&campaign, &volume);
    let suspects = rank_suspects(&campaign, &vols);
    assert!(suspects.iter().any(|s| s.members.contains(&attacker)));
}

#[test]
fn heavy_measurement_noise_degrades_gracefully() {
    let world = generate(&TopologyConfig::small(43));
    let origin = OriginAs::peering_style(&world, 4);
    let engine = BgpEngine::new(&world.topology, &EngineConfig::default());
    let cones = ConeInfo::compute(&world.topology);
    let noisy = MeasurementConfig {
        vantage: VantageConfig {
            seed: 3,
            bgp_feed_fraction: 0.05,
            probe_fraction: 0.3,
        },
        ip_to_as: IpToAsConfig {
            seed: 4,
            dirty_as_fraction: 0.3,
            mismap_prob: 0.5,
            unmapped_prob: 0.1,
        },
        traceroute: TracerouteConfig {
            seed: 5,
            hop_unresponsive_prob: 0.3,
            rounds: 3,
            ixp_hop_prob: 0.4,
        },
        probe_budget: Some(30),
    };
    let plane = MeasurementPlane::new(&world.topology, &cones, &noisy);
    let schedule = full_schedule(
        &world.topology,
        &origin,
        &GeneratorParams {
            max_removals: 1,
            max_poison_configs: Some(5),
        },
    );
    let campaign = run_campaign(
        &engine,
        &origin,
        &schedule,
        &CampaignOpts {
            source: CatchmentSource::Measured(&plane),
            ..CampaignOpts::default()
        },
    )
    .expect("valid schedule");
    // The pipeline must not crash, must track *something*, and clusters
    // must still partition the tracked set.
    assert!(!campaign.tracked.is_empty());
    let total: usize = campaign.clustering.sizes().iter().sum();
    assert_eq!(total, campaign.tracked.len());
    let stats = campaign.imputation.unwrap();
    assert!(stats.analysis_sources > 0);
}

#[test]
fn withdrawing_all_links_from_a_region_leaves_unreachable_sources() {
    // When announcements shrink to one link, reachability may drop for
    // ASes behind filtering tier-1s; campaign bookkeeping must treat them
    // as unobserved rather than panicking.
    let world = generate(&TopologyConfig::small(44));
    let origin = OriginAs::peering_style(&world, 4);
    let engine = BgpEngine::new(&world.topology, &engine_cfg(0.0, 0.0, true));
    let single = vec![LinkAnnouncement::plain(LinkId(2))];
    let out = engine.propagate_config(&origin, &single).unwrap();
    let cat = Catchments::from_control_plane(&out);
    // Everything assigned is on the single announced link.
    assert_eq!(cat.active_links(), vec![LinkId(2)]);
    // Unassigned ASes (if any) are consistently reported.
    assert_eq!(
        cat.assigned_count() + cat.unassigned_ases().count(),
        world.topology.num_ases()
    );
}
