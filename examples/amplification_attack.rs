//! An amplification-DDoS localization scenario end to end, down to the
//! packet level: attackers bounce NTP-style queries with a spoofed victim
//! address off the origin's honeypot prefix; the origin deploys
//! announcement configurations, reads per-link honeypot volumes, and
//! narrows the sources down to clusters — the Figure 1 narrative.
//!
//! ```sh
//! cargo run --release --example amplification_attack
//! ```

use trackdown_suite::bgp::Catchments;
use trackdown_suite::prelude::*;
use trackdown_suite::traffic::{claimed_as, UdpPacket};

fn main() {
    let world = generate(&TopologyConfig::medium(7));
    let origin = OriginAs::peering_style(&world, 5);
    let engine = BgpEngine::new(&world.topology, &EngineConfig::default());

    // Attackers: a handful of compromised hosts — amplification attacks
    // usually originate from few sources (AmpPot, §I), which is the regime
    // the paper's techniques are designed for.
    let all: Vec<AsIndex> = world.topology.indices().collect();
    let placed = place_sources(
        world.topology.num_ases(),
        &all,
        SourcePlacement::Pareto {
            total: 8,
            alpha: trackdown_suite::traffic::pareto_shape_80_20(),
        },
        1337,
    );
    println!(
        "botnet: {} bots across {} ASes",
        placed.total(),
        placed.num_source_ases()
    );

    // The honeypot on the experiment prefix, AmpPot-style.
    let honeypot = Honeypot::new(HoneypotConfig::default());
    let victim = u32::from_be_bytes([203, 0, 113, 50]);
    let flows = spoofed_flows(
        &placed,
        victim,
        honeypot.config().prefix,
        &FlowConfig::default(),
    );

    // Show one actual wire packet: spoofed source, honeypot destination.
    let wire = flows[0].sample_packet().encode();
    let pkt = UdpPacket::decode(wire.clone()).expect("valid packet");
    println!(
        "sample query packet: {} bytes, spoofed src {}.{}.{}.{} -> dst port {} (claimed AS: {:?})",
        wire.len(),
        pkt.src_ip >> 24 & 0xff,
        pkt.src_ip >> 16 & 0xff,
        pkt.src_ip >> 8 & 0xff,
        pkt.src_ip & 0xff,
        pkt.dst_port,
        claimed_as(pkt.src_ip),
    );

    // Deploy the schedule; for each configuration record what the
    // honeypot sees per ingress link (data plane).
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
    let mut link_volumes = Vec::with_capacity(campaign.catchments.len());
    for cat in &campaign.catchments {
        // In deployment the data plane is what the honeypot sees; control
        // and data planes agree here, so reuse the campaign catchments.
        let report = honeypot.observe(cat, origin.num_links(), &flows);
        link_volumes.push(report.per_link_bytes.clone());
    }
    // Honeypot rows are origin-width; trim to the attribution plane's
    // exact width contract.
    let link_volumes = fit_link_volumes(&campaign, link_volumes);
    // Narrate the first three configurations like Figure 1.
    for (k, vols) in link_volumes.iter().take(3).enumerate() {
        let hottest = vols
            .iter()
            .enumerate()
            .max_by_key(|(_, v)| **v)
            .map(|(i, _)| i)
            .unwrap();
        println!(
            "config {}: {} -> spoofed bytes per link {:?} (hottest: {})",
            k + 1,
            campaign.configs[k],
            vols,
            origin.links[hottest].pop,
        );
    }

    // Correlate volumes across all configurations: first the simple
    // min-bound filter, then interval constraint propagation over the
    // volume-conservation system (the multi-source refinement).
    let simple = rank_suspects(&campaign, &link_volumes);
    let refined = estimate_cluster_volumes(&campaign, &link_volumes, 10);
    let named: Vec<AsIndex> = refined
        .iter()
        .flat_map(|e| e.members.iter().copied())
        .collect();
    let actual: Vec<AsIndex> = placed.source_ases().collect();
    let found = actual.iter().filter(|a| named.contains(a)).count();
    println!(
        "\nsuspects: min-bound filter leaves {} clusters; constraint propagation {} clusters \
         naming {} ASes; {}/{} true source ASes inside",
        simple.len(),
        refined.len(),
        named.len(),
        found,
        actual.len(),
    );
    println!(
        "narrowing: {} candidate ASes -> {} named suspects ({:.1}% of the Internet)",
        world.topology.num_ases(),
        named.len(),
        named.len() as f64 / world.topology.num_ases() as f64 * 100.0,
    );
    for e in refined.iter().take(5) {
        println!(
            "  cluster #{}: {} AS(es), proven volume in [{}, {}] bytes",
            e.cluster,
            e.members.len(),
            e.lower,
            e.upper,
        );
    }

    // Sanity: every attacker AS observable at baseline must be named.
    let baseline: &Catchments = &campaign.catchments[0];
    let observable = actual
        .iter()
        .filter(|&&a| baseline.get(a).is_some())
        .count();
    assert!(found >= observable.min(actual.len()) * 9 / 10);
}
