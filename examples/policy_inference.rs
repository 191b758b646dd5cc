//! Routing-policy inference from the campaign dataset — the §VI claim
//! that the paper's announcement techniques "significantly speed up (and
//! scale) inference of routing policies" because every configuration
//! contributes new, different AS-paths.
//!
//! We infer AS relationships (Gao's degree-based algorithm) from the BGP
//! feeds observed (a) under the baseline anycast alone and (b) under the
//! full multi-configuration campaign, then score both against the
//! ground-truth topology.
//!
//! ```sh
//! cargo run --release --example policy_inference
//! ```

use trackdown_suite::bgp::SnapshotDetail;
use trackdown_suite::measure::collect_bgp_feeds;
use trackdown_suite::prelude::*;
use trackdown_suite::topology::infer::{infer_relationships, score_inference, InferenceParams};

fn main() {
    let world = generate(&TopologyConfig::medium(33));
    let origin = OriginAs::peering_style(&world, 5);
    let engine = BgpEngine::new(&world.topology, &EngineConfig::default());
    // Every AS exports its table: isolate the *route diversity* effect
    // from vantage-coverage effects.
    let feeders: Vec<AsIndex> = world.topology.indices().collect();

    let schedule = full_schedule(
        &world.topology,
        &origin,
        &GeneratorParams {
            max_removals: 2,
            max_poison_configs: Some(40),
        },
    );

    let mut corpus: Vec<Vec<Asn>> = Vec::new();
    let report = |label: &str, corpus: &[Vec<Asn>]| {
        let inferred = infer_relationships(corpus, &InferenceParams::default());
        let (evaluated, correct) = score_inference(&world.topology, &inferred);
        println!(
            "{label:<28} paths {:>6}  links inferred {:>5}  coverage {:>5.1}%  accuracy {:>5.1}%",
            corpus.len(),
            inferred.len(),
            evaluated as f64 / world.topology.num_links() as f64 * 100.0,
            correct as f64 / evaluated.max(1) as f64 * 100.0,
        );
    };

    for (k, cfg) in schedule.iter().enumerate() {
        let outcome = engine
            .propagate_config_detailed(&origin, &cfg.to_link_announcements(), SnapshotDetail::Paths)
            .unwrap();
        for obs in collect_bgp_feeds(&world.topology, &outcome, &feeders, origin.asn) {
            if !corpus.contains(&obs.path) {
                corpus.push(obs.path);
            }
        }
        if k == 0 {
            report("baseline anycast only:", &corpus);
        } else if k == 9 {
            report("after 10 configurations:", &corpus);
        }
    }
    report(
        &format!("full campaign ({} configs):", schedule.len()),
        &corpus,
    );
    println!(
        "\nroute diversity from systematic announcement changes raises the number of\n\
         distinct paths and therefore the fraction of the AS graph whose business\n\
         relationships an observer can infer — the paper's §VI reuse claim."
    );
}
