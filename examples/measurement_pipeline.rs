//! A guided tour of the catchment-measurement pipeline (§IV-b/c/d):
//! raw noisy traceroutes → IXP stripping → gap repair → vote combining →
//! visibility imputation, with accuracy printed after each stage.
//!
//! ```sh
//! cargo run --release --example measurement_pipeline
//! ```

use trackdown_suite::bgp::{Catchments, SnapshotDetail};
use trackdown_suite::measure::{
    collect_bgp_feeds, combine_observations, impute_visibility, repair_campaign, run_campaign,
    IpToAs, IpToAsConfig, TracerouteConfig, UpdateStream, VantageConfig, VantagePoints,
};
use trackdown_suite::prelude::*;

fn main() {
    let world = generate(&TopologyConfig::medium(21));
    let origin = OriginAs::peering_style(&world, 5);
    let engine = BgpEngine::new(&world.topology, &EngineConfig::default());
    let cones = ConeInfo::compute(&world.topology);

    // One configuration: the full anycast baseline.
    let anns: Vec<_> = origin.link_ids().map(LinkAnnouncement::plain).collect();
    // BGP feeds read AS-paths, so the outcome keeps its path store.
    let outcome = engine
        .propagate_config_detailed(&origin, &anns, SnapshotDetail::Paths)
        .unwrap();
    let truth = Catchments::from_control_plane(&outcome);
    println!(
        "ground truth: {} ASes reachable, convergence depth {} rounds",
        outcome.reachable_count(),
        outcome.rounds
    );

    // Collectors see the convergence burst before the tables settle.
    let vantage = VantagePoints::select(
        &world.topology,
        &cones,
        &VantageConfig {
            seed: 4,
            bgp_feed_fraction: 0.08,
            probe_fraction: 0.3,
        },
    );
    let stream = UpdateStream::collect(&outcome, &vantage.bgp_feeders);
    println!(
        "collectors: {} feeders sent {} UPDATEs over {} rounds ({} path explorations)",
        vantage.bgp_feeders.len(),
        stream.len(),
        stream.convergence_round() + 1,
        stream.path_explorations(),
    );

    // Noisy traceroutes: unresponsive hops, IP-to-AS errors, IXP fabric
    // addresses.
    let db = IpToAs::build(&world.topology, &IpToAsConfig::default());
    let tr_cfg = TracerouteConfig::default();
    let campaign = run_campaign(
        &world.topology,
        &db,
        &outcome,
        &vantage.probe_ases,
        &tr_cfg,
        1,
    );
    let total_hops: usize = campaign.iter().map(|t| t.hops.len()).sum();
    let missing: usize = campaign
        .iter()
        .flat_map(|t| &t.hops)
        .filter(|h| h.observed.is_none())
        .count();
    println!(
        "\ntraceroutes: {} measurements, {} hops, {:.1}% unresponsive",
        campaign.len(),
        total_hops,
        missing as f64 / total_hops as f64 * 100.0
    );

    // Repair with the BGP corpus.
    let bgp = collect_bgp_feeds(&world.topology, &outcome, &vantage.bgp_feeders, origin.asn);
    let corpus: Vec<Vec<Asn>> = bgp.iter().map(|o| o.path.clone()).collect();
    let repaired = repair_campaign(&campaign, &corpus);
    let (rep, ign, ixp) = repaired.iter().fold((0, 0, 0), |(r, i, x), p| {
        (r + p.repaired_hops, i + p.ignored_hops, x + p.ixp_hops)
    });
    println!("repair: {rep} gap hops recovered, {ign} ignored, {ixp} IXP-fabric hops stripped");

    // Combine votes and compare against truth.
    let measured = combine_observations(&world.topology, &bgp, &repaired);
    let mut agree = 0usize;
    let mut observed = 0usize;
    for i in world.topology.indices() {
        if let Some(l) = measured.catchments.get(i) {
            observed += 1;
            if truth.get(i) == Some(l) {
                agree += 1;
            }
        }
    }
    println!(
        "\ncombined: {} of {} ASes observed ({:.1}% of the Internet), accuracy {:.1}%, \
         multi-catchment rate {:.2}%",
        observed,
        world.topology.num_ases(),
        observed as f64 / world.topology.num_ases() as f64 * 100.0,
        agree as f64 / observed as f64 * 100.0,
        measured.multi_catchment_rate() * 100.0,
    );

    // Visibility imputation across a two-config mini-campaign.
    let second_cfg: Vec<_> = origin
        .link_ids()
        .skip(1)
        .map(LinkAnnouncement::plain)
        .collect();
    let second_outcome = engine
        .propagate_config_detailed(&origin, &second_cfg, SnapshotDetail::Paths)
        .unwrap();
    let second_campaign = run_campaign(
        &world.topology,
        &db,
        &second_outcome,
        &vantage.probe_ases,
        &tr_cfg,
        2,
    );
    let second_bgp = collect_bgp_feeds(
        &world.topology,
        &second_outcome,
        &vantage.bgp_feeders,
        origin.asn,
    );
    let second_corpus: Vec<Vec<Asn>> = second_bgp.iter().map(|o| o.path.clone()).collect();
    let second_repaired = repair_campaign(&second_campaign, &second_corpus);
    let second_measured = combine_observations(&world.topology, &second_bgp, &second_repaired);
    let mut series = vec![measured, second_measured];
    let stats = impute_visibility(&mut series, 0);
    println!(
        "imputation: analysis set {} sources, {} holes filled via smax, {} unfillable",
        stats.analysis_sources, stats.imputed_assignments, stats.unfilled_assignments,
    );
}
