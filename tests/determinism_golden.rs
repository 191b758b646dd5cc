//! Golden determinism pins: exact values for fixed seeds, guarding the
//! reproducibility promise (identical seeds ⇒ identical figures) against
//! accidental changes to RNG consumption order, tiebreak salting, or
//! iteration order.
//!
//! If a deliberate algorithm change breaks these, regenerate the constants
//! and say so in the commit — they exist to make silent drift loud.

use trackdown_suite::prelude::*;

fn campaign() -> (GeneratedTopology, OriginAs, Campaign) {
    let world = generate(&TopologyConfig::small(0xD00D));
    let origin = OriginAs::peering_style(&world, 4);
    let engine = BgpEngine::new(&world.topology, &EngineConfig::default());
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
    (world, origin, campaign)
}

#[test]
fn topology_generation_is_pinned() {
    let world = generate(&TopologyConfig::small(0xD00D));
    assert_eq!(world.topology.num_ases(), 119);
    // Link count is sensitive to every RNG draw in the generator.
    let links = world.topology.num_links();
    let golden = golden_usize("TOPOLOGY_LINKS", links);
    assert_eq!(links, golden);
}

#[test]
fn campaign_clustering_is_pinned() {
    let (_, _, campaign) = campaign();
    let clusters = campaign.clustering.num_clusters();
    let golden = golden_usize("CAMPAIGN_CLUSTERS", clusters);
    assert_eq!(clusters, golden);
    // Mean size is determined by the two pinned numbers above.
    let mean = campaign.clustering.mean_size();
    assert!((mean - campaign.tracked.len() as f64 / clusters as f64).abs() < 1e-12);
}

#[test]
fn repeated_runs_are_bit_identical() {
    let (_, _, a) = campaign();
    let (_, _, b) = campaign();
    assert_eq!(a.catchments, b.catchments);
    assert_eq!(a.tracked, b.tracked);
    assert_eq!(a.clustering.num_clusters(), b.clustering.num_clusters());
}

/// The parallel executor chunks the schedule by thread count, and each
/// worker converges its own baseline and deploys its chunk from it —
/// none of which may leak into the results. 1, 2, and 8 threads must agree bit-for-bit with each
/// other and with the sequential runner.
#[test]
fn parallel_campaign_is_thread_count_invariant() {
    let world = generate(&TopologyConfig::small(0xD00D));
    let origin = OriginAs::peering_style(&world, 4);
    let engine = BgpEngine::new(&world.topology, &EngineConfig::default());
    let schedule = full_schedule(
        &world.topology,
        &origin,
        &GeneratorParams {
            max_removals: 2,
            max_poison_configs: Some(10),
        },
    );
    let (_, _, sequential) = campaign();
    for threads in [1, 2, 8] {
        let par = run_campaign(
            &engine,
            &origin,
            &schedule,
            &CampaignOpts {
                threads,
                ..CampaignOpts::default()
            },
        )
        .expect("valid schedule");
        assert_eq!(par.catchments, sequential.catchments, "{threads} threads");
        assert_eq!(par.tracked, sequential.tracked, "{threads} threads");
        assert_eq!(
            par.clustering.clusters(),
            sequential.clustering.clusters(),
            "{threads} threads"
        );
        assert_eq!(par.records, sequential.records, "{threads} threads");
    }
}

/// First run records the value; later assertions compare against the
/// table below. Keeping the table inline (not on disk) means a change is
/// a loud compile-adjacent diff, not a stale file.
fn golden_usize(key: &str, observed: usize) -> usize {
    match key {
        // Recorded from the first run of this test suite; update ONLY for
        // deliberate algorithm changes. Regenerated when the workspace
        // moved to the vendored in-tree RNG (different ChaCha8 word
        // stream than upstream rand_chacha, same determinism guarantee).
        "TOPOLOGY_LINKS" => 249,
        "CAMPAIGN_CLUSTERS" => 48,
        _ => observed,
    }
}
