//! Online localization: when an attack is underway, configuration order
//! matters. Compare deploying configurations in random order against the
//! paper's greedy iterative algorithm (§V-C), and show the
//! traffic-weighted extension (future-work item (i)) shrinking the
//! *attacker anonymity set* — the volume-weighted expected cluster size —
//! faster than the volume-blind greedy.
//!
//! ```sh
//! cargo run --release --example schedule_optimizer
//! ```

use trackdown_suite::core::schedule::{
    greedy_schedule, mean_size_objective, random_schedule_stats, traffic_weighted_objective,
};
use trackdown_suite::core::Clustering;
use trackdown_suite::prelude::*;

/// Replay a deployment order, measuring `metric` after each step.
fn replay(
    order: &[usize],
    catchments: &[Catchments],
    tracked: &[AsIndex],
    metric: impl Fn(&Clustering) -> f64,
) -> Vec<f64> {
    let mut clustering = Clustering::single(tracked.to_vec());
    order
        .iter()
        .map(|&c| {
            clustering.refine(&catchments[c]);
            metric(&clustering)
        })
        .collect()
}

fn main() {
    let world = generate(&TopologyConfig::medium(5));
    let origin = OriginAs::peering_style(&world, 5);
    let engine = BgpEngine::new(&world.topology, &EngineConfig::default());
    let schedule = full_schedule(
        &world.topology,
        &origin,
        &GeneratorParams {
            max_removals: 2,
            max_poison_configs: Some(40),
        },
    );
    // Catchments measured ahead of the attack (§V-C's premise).
    let campaign = run_campaign(&engine, &origin, &schedule, &CampaignOpts::default())
        .expect("valid schedule");

    // The ongoing attack: a small botnet.
    let attackers = place_sources(
        world.topology.num_ases(),
        &campaign.tracked,
        SourcePlacement::Uniform { total: 10 },
        2024,
    );
    let volume = attackers.volume_per_as(1_000_000);

    let steps = 15usize;
    let rnd = random_schedule_stats(&campaign.catchments, &campaign.tracked, 100, 99);
    let (greedy_order, greedy_mean) = greedy_schedule(
        &campaign.catchments,
        &campaign.tracked,
        steps,
        mean_size_objective,
    );
    let weighted_obj = traffic_weighted_objective(&volume);
    let (weighted_order, weighted_scores) = greedy_schedule(
        &campaign.catchments,
        &campaign.tracked,
        steps,
        &weighted_obj,
    );
    // Evaluate the volume-blind greedy order under the anonymity metric,
    // for an apples-to-apples comparison with the weighted greedy.
    let greedy_anonymity = replay(
        &greedy_order,
        &campaign.catchments,
        &campaign.tracked,
        &weighted_obj,
    );

    println!("objective 1 — mean cluster size (the paper's Figure 8):");
    println!("{:>3}  {:>13}  {:>8}", "k", "random median", "greedy");
    for (k, g) in greedy_mean.iter().enumerate() {
        println!("{:>3}  {:>13.2}  {:>8.2}", k + 1, rnd.median[k], g);
    }
    let k10 = 9.min(steps - 1);
    println!(
        "after 10 configs: random {:.1} vs greedy {:.1} ASes (the paper reports 7.8 vs 3.5)\n",
        rnd.median[k10], greedy_mean[k10]
    );

    println!(
        "objective 2 — attacker anonymity set (volume-weighted expected cluster size,\n\
         future-work extension (i)):"
    );
    println!(
        "{:>3}  {:>13}  {:>16}",
        "k", "greedy (mean)", "greedy (weighted)"
    );
    for (k, (anon, weighted)) in greedy_anonymity.iter().zip(&weighted_scores).enumerate() {
        println!("{:>3}  {:>13.2}  {:>16.2}", k + 1, anon, weighted);
    }
    let dominated = (0..steps)
        .filter(|&k| weighted_scores[k] <= greedy_anonymity[k] + 1e-9)
        .count();
    println!(
        "\nthe traffic-weighted order is at least as good on {dominated}/{steps} steps: \
         it spends announcements splitting the clusters that actually hide attackers"
    );
    let _ = weighted_order;
}
