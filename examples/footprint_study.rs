//! How much does the peering footprint matter? Deploy the same technique
//! from origins with 3–7 PoPs on the same synthetic Internet and compare
//! localization precision — the §V-B question a network operator would
//! ask before investing in new PoPs.
//!
//! ```sh
//! cargo run --release --example footprint_study
//! ```

use trackdown_suite::prelude::*;

fn main() {
    let world = generate(&TopologyConfig::medium(99));
    let engine = BgpEngine::new(&world.topology, &EngineConfig::default());
    println!(
        "world: {} ASes; comparing origins with 3..=7 PoPs\n",
        world.topology.num_ases()
    );
    println!(
        "{:>4}  {:>8}  {:>10}  {:>10}  {:>9}",
        "PoPs", "configs", "mean size", "singletons", "p90"
    );
    for pops in 3..=7usize {
        let origin = OriginAs::peering_style(&world, pops);
        let schedule = full_schedule(
            &world.topology,
            &origin,
            &GeneratorParams {
                max_removals: 2,
                max_poison_configs: Some(30),
            },
        );
        let campaign = run_campaign(&engine, &origin, &schedule, &CampaignOpts::default())
            .expect("valid schedule");
        let stats = campaign.clustering.stats();
        println!(
            "{:>4}  {:>8}  {:>10.3}  {:>9.1}%  {:>9}",
            pops,
            schedule.len(),
            campaign.clustering.mean_size(),
            campaign.clustering.singleton_fraction() * 100.0,
            stats.p90,
        );
    }
    println!(
        "\nmore PoPs => more configurations and more route diversity => smaller clusters,\n\
         the paper's conclusion that larger footprints localize better (§V-B)"
    );
}
