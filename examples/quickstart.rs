//! Quickstart: build a synthetic Internet, deploy the paper's announcement
//! schedule, and localize a planted spoofer.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use trackdown_suite::prelude::*;

fn main() {
    // 1. A synthetic Internet (~600 ASes) and an origin network with five
    //    peering links, PEERING-style.
    let world = generate(&TopologyConfig::medium(42));
    let origin = OriginAs::peering_style(&world, 5);
    println!(
        "world: {} ASes, {} links",
        world.topology.num_ases(),
        world.topology.num_links()
    );
    println!("origin: {} with {} PoPs", origin.asn, origin.num_links());
    for link in &origin.links {
        println!("  {} via provider {}", link.pop, link.provider);
    }

    // 2. The three-phase announcement schedule (§III-A of the paper).
    let engine = BgpEngine::new(&world.topology, &EngineConfig::default());
    let schedule = full_schedule(
        &world.topology,
        &origin,
        &GeneratorParams {
            max_removals: 2,
            max_poison_configs: Some(40),
        },
    );
    println!("\nschedule: {} announcement configurations", schedule.len());
    println!("first: {}", schedule[0]);
    println!("last:  {}", schedule.last().unwrap());

    // 3. Deploy every configuration and cluster the catchments.
    let campaign = run_campaign(&engine, &origin, &schedule, &CampaignOpts::default())
        .expect("valid schedule");
    let stats = campaign.clustering.stats();
    println!(
        "\nclusters: {} over {} sources (mean {:.2}, p90 {}, max {}); {:.1}% singletons",
        campaign.clustering.num_clusters(),
        campaign.tracked.len(),
        campaign.clustering.mean_size(),
        stats.p90,
        stats.max,
        campaign.clustering.singleton_fraction() * 100.0,
    );

    // 4. Plant one spoofing source and correlate honeypot volumes.
    let attacker = campaign.tracked[campaign.tracked.len() / 3];
    let mut volume = vec![0u64; world.topology.num_ases()];
    volume[attacker.us()] = 5_000_000;
    let vols = link_volume_matrix(&campaign, &volume);
    let suspects = rank_suspects(&campaign, &vols);
    let top = &suspects[0];
    println!(
        "\nplanted spoofer: {} — top suspect cluster has {} member(s):",
        world.topology.asn_of(attacker),
        top.members.len(),
    );
    for &m in &top.members {
        println!("  {}", world.topology.asn_of(m));
    }
    assert!(top.members.contains(&attacker), "localization failed");
    println!("\nthe planted source is inside the top suspect cluster ✓");
}
