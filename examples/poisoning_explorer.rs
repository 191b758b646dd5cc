//! Explore BGP poisoning mechanics — the paper's Figure 2 scenario.
//!
//! Picks a neighbor `u` of one of the origin's transit providers `n`,
//! poisons it on the announcement through `n`, and shows which ASes were
//! forced onto other peering links. Also demonstrates the failure mode the
//! paper calls out: ASes with BGP loop prevention disabled ignore the
//! poison entirely.
//!
//! ```sh
//! cargo run --release --example poisoning_explorer
//! ```

use trackdown_suite::bgp::Catchments;
use trackdown_suite::core::generator::poison_targets;
use trackdown_suite::prelude::*;

fn catchments_for(
    engine: &BgpEngine<'_>,
    origin: &OriginAs,
    config: &AnnouncementConfig,
) -> Catchments {
    let out = engine
        .propagate_config(origin, &config.to_link_announcements())
        .expect("valid config");
    Catchments::from_control_plane(&out)
}

fn main() {
    let world = generate(&TopologyConfig::medium(11));
    let origin = OriginAs::peering_style(&world, 5);
    let engine = BgpEngine::new(&world.topology, &EngineConfig::default());

    let targets = poison_targets(&world.topology, &origin);
    println!(
        "{} poisoning targets (provider neighbors) available",
        targets.len()
    );

    // Baseline: plain anycast from every link.
    let baseline_cfg = AnnouncementConfig::anycast_all(origin.num_links());
    let baseline = catchments_for(&engine, &origin, &baseline_cfg);

    // Try targets until one actually moves traffic (some neighbors carry
    // no catchment traffic for the prefix, some targets are poison-immune).
    let mut shown = 0;
    for t in &targets {
        let cfg =
            AnnouncementConfig::anycast_all(origin.num_links()).with_poison(t.via, vec![t.target]);
        let poisoned = catchments_for(&engine, &origin, &cfg);
        let moved: Vec<AsIndex> = world
            .topology
            .indices()
            .filter(|&i| {
                baseline.get(i).is_some()
                    && poisoned.get(i).is_some()
                    && baseline.get(i) != poisoned.get(i)
            })
            .collect();
        if moved.is_empty() {
            continue;
        }
        shown += 1;
        println!(
            "\npoisoning {} (neighbor of provider {} on link {}):",
            t.target, t.provider, t.via
        );
        println!("  {} ASes changed catchment; first few:", moved.len());
        for &i in moved.iter().take(5) {
            println!(
                "    {}: {} -> {}",
                world.topology.asn_of(i),
                baseline
                    .get(i)
                    .map(|l| origin.links[l.us()].pop.clone())
                    .unwrap(),
                poisoned
                    .get(i)
                    .map(|l| origin.links[l.us()].pop.clone())
                    .unwrap(),
            );
        }
        // The poisoned AS itself must not route via the poisoned link's
        // announcement if it runs loop prevention.
        if let Some(ti) = world.topology.index_of(t.target) {
            println!(
                "  poisoned AS {} now in catchment {:?}",
                t.target,
                poisoned.get(ti).map(|l| origin.links[l.us()].pop.clone()),
            );
        }
        if shown >= 3 {
            break;
        }
    }

    // Failure mode: a world where every AS disables loop prevention.
    let immune_cfg = EngineConfig {
        policy: PolicyConfig {
            no_loop_prevention_fraction: 1.0,
            ..PolicyConfig::default()
        },
        ..EngineConfig::default()
    };
    let immune_engine = BgpEngine::new(&world.topology, &immune_cfg);
    let t = &targets[0];
    let cfg =
        AnnouncementConfig::anycast_all(origin.num_links()).with_poison(t.via, vec![t.target]);
    let a = catchments_for(&immune_engine, &origin, &baseline_cfg);
    let b = catchments_for(&immune_engine, &origin, &cfg);
    let moved = world
        .topology
        .indices()
        .filter(|&i| a.get(i) != b.get(i))
        .count();
    println!(
        "\nwith loop prevention disabled everywhere, poisoning {} moves {} ASes \
         (best-effort, as §III-A-c warns)",
        t.target, moved
    );
}
