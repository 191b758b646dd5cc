//! The full amplification-attack triangle, contrasting two vantages:
//!
//! * the **victim** sees gigabits of NTP/DNS responses arriving from
//!   *reflector* ASes — the true origins appear nowhere in its logs;
//! * the **origin network** running the paper's techniques sees the
//!   spoofed *queries* on its honeypot prefix, attributes per-link
//!   volumes, and names the attacker's cluster.
//!
//! This is exactly why the paper works from the reflector side of the
//! triangle: "locating the origins of reflection attacks … is challenging
//! as attack origins send spoofed packets" (§VII-a).
//!
//! ```sh
//! cargo run --release --example attack_triangle
//! ```

use trackdown_suite::prelude::*;
use trackdown_suite::traffic::{
    reflect_attack, scatter_reflectors, Honeypot, HoneypotConfig, ReflectorKind,
};

fn main() {
    let world = generate(&TopologyConfig::medium(77));
    let origin = OriginAs::peering_style(&world, 5);
    let engine = BgpEngine::new(&world.topology, &EngineConfig::default());

    // One compromised server somewhere.
    let all: Vec<AsIndex> = world.topology.indices().collect();
    let placed = place_sources(world.topology.num_ases(), &all, SourcePlacement::Single, 99);
    let attacker = placed.source_ases().next().unwrap();

    // 40 open reflectors (the honeypot is one of "them" from the
    // attacker's point of view).
    let reflectors = scatter_reflectors(
        &all,
        40,
        &[
            ReflectorKind::Ntp,
            ReflectorKind::Dns,
            ReflectorKind::Memcached,
        ],
        7,
    );
    let victim_ip = u32::from_be_bytes([203, 0, 113, 80]);
    let (victim, _query_flows) = reflect_attack(&placed, &reflectors, victim_ip, 50_000_000, 3);

    println!("== the victim's view ==");
    println!(
        "{} bytes/s of amplified responses ({}x amplification) from {} reflector ASes:",
        victim.total_bytes,
        victim.overall_amplification() as u64,
        victim.per_reflector_as.len(),
    );
    for (asn_index, bytes) in victim.per_reflector_as.iter().take(5) {
        println!("  {}  {:>14} B/s", world.topology.asn_of(*asn_index), bytes);
    }
    println!(
        "  … true origin {} appears nowhere above.\n",
        world.topology.asn_of(attacker)
    );

    println!("== the origin network's view (the paper's techniques) ==");
    // The origin's honeypot attracts the same attacker's queries (its
    // prefix looks like one more reflector); deploy the schedule and
    // correlate.
    let schedule = full_schedule(
        &world.topology,
        &origin,
        &GeneratorParams {
            max_removals: 2,
            max_poison_configs: Some(40),
        },
    );
    let campaign = run_campaign(&engine, &origin, &schedule, &CampaignOpts::default())
        .expect("valid schedule");
    let honeypot = Honeypot::new(HoneypotConfig::default());
    let flows = spoofed_flows(
        &placed,
        victim_ip,
        honeypot.config().prefix,
        &FlowConfig::default(),
    );
    let link_volumes: Vec<Vec<u64>> = fit_link_volumes(
        &campaign,
        campaign
            .catchments
            .iter()
            .map(|cat| {
                honeypot
                    .observe(cat, origin.num_links(), &flows)
                    .per_link_bytes
            })
            .collect(),
    );
    let estimates = estimate_cluster_volumes(&campaign, &link_volumes, 10);
    println!(
        "{} configurations deployed; suspect clusters: {}",
        schedule.len(),
        estimates.len()
    );
    for e in &estimates {
        let members: Vec<String> = e
            .members
            .iter()
            .map(|&m| world.topology.asn_of(m).to_string())
            .collect();
        println!(
            "  cluster #{:<4} volume in [{}, {}]  members: {}",
            e.cluster,
            e.lower,
            e.upper,
            members.join(" ")
        );
    }
    let found = estimates.iter().any(|e| e.members.contains(&attacker));
    assert!(found, "true origin escaped localization");
    println!(
        "\nthe true origin {} is inside a named suspect cluster — attribution the\n\
         victim could never produce from its own logs.",
        world.topology.asn_of(attacker)
    );
}
