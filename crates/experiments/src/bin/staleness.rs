//! The §V-C trade-off: reusing catchments measured *before* an attack is
//! fast but risks errors from route changes. This experiment quantifies
//! it: catchments are measured under one routing regime, the attack
//! happens after IGP-like tie-break churn (same policies, different
//! tiebreaks), and we compare the brittle exoneration filter against the
//! churn-robust match-fraction scorer.

use trackdown_bgp::{BgpEngine, Catchments, EngineConfig, PolicyConfig};
use trackdown_core::localize::{
    fit_link_volumes, match_fraction_scores, rank_suspects, run_campaign, CampaignOpts,
};
use trackdown_experiments::{report_stats, Options, Scenario};

fn main() {
    let opts = Options::from_args();
    let scenario = Scenario::build(opts);
    scenario.announce();
    let schedule = scenario.schedule();

    // Pre-attack measurement under the original routing.
    let engine = scenario.engine();
    let campaign = run_campaign(
        &engine,
        &scenario.origin,
        &schedule,
        &CampaignOpts::default(),
    )
    .expect("valid schedule");
    report_stats(&campaign);

    println!("# Staleness study: localization with pre-attack catchments");
    println!("# churn = fraction of (source, config) assignments that changed");
    println!("# strict = rank_suspects recall; robust = attacker cluster in top-5 match scores\n");
    println!(
        "{:>12} {:>8} {:>14} {:>14}",
        "tiebreak", "churn", "strict recall", "robust recall"
    );
    for (label, seed_offset) in [("unchanged", 0u64), ("churned-1", 101), ("churned-2", 202)] {
        // The attack-time world: identical policies, different tiebreak
        // salts (IGP re-optimizations, router swaps).
        let attack_cfg = EngineConfig {
            policy: PolicyConfig {
                seed: scenario.engine_cfg.policy.seed ^ seed_offset,
                ..scenario.engine_cfg.policy.clone()
            },
            ..scenario.engine_cfg.clone()
        };
        let attack_engine = BgpEngine::new(&scenario.gen.topology, &attack_cfg);

        // The per-config catchments traffic ACTUALLY follows at attack time.
        let mut actual = Vec::with_capacity(schedule.len());
        let mut churn_acc = 0.0;
        for cfg in &schedule {
            let out = attack_engine
                .propagate_config(&scenario.origin, &cfg.to_link_announcements())
                .unwrap();
            let cat = Catchments::from_control_plane(&out);
            churn_acc += campaign.catchments[actual.len()].divergence(&cat);
            actual.push(cat);
        }
        let churn = churn_acc / schedule.len() as f64;

        // Plant attackers; volumes are observed under ACTUAL routing but
        // correlated against the STALE clustering.
        let trials = 60usize;
        let mut strict = 0usize;
        let mut robust = 0usize;
        for t in 0..trials {
            let attacker = campaign.tracked[(t * 17 + 3) % campaign.tracked.len()];
            let mut volume = vec![0u64; scenario.gen.topology.num_ases()];
            volume[attacker.us()] = 1_000_000;
            // Honeypot-shaped rows (origin width) trimmed to the
            // attribution plane's exact width contract.
            let vols: Vec<Vec<u64>> = fit_link_volumes(
                &campaign,
                actual
                    .iter()
                    .map(|c| {
                        trackdown_traffic::volume_per_link(c, &volume, scenario.origin.num_links())
                    })
                    .collect(),
            );
            let suspects = rank_suspects(&campaign, &vols);
            if suspects.iter().any(|s| s.members.contains(&attacker)) {
                strict += 1;
            }
            let scores = match_fraction_scores(&campaign, &vols);
            if scores
                .iter()
                .take(5)
                .any(|(_, members, _)| members.contains(&attacker))
            {
                robust += 1;
            }
        }
        println!(
            "{:>12} {:>7.2}% {:>13.1}% {:>13.1}%",
            label,
            churn * 100.0,
            strict as f64 / trials as f64 * 100.0,
            robust as f64 / trials as f64 * 100.0,
        );
    }
    println!("\n# reading: the churned rows model a worst case — a full IGP/tiebreak");
    println!("# reshuffle moving ~20% of every configuration's assignments. Strict");
    println!("# exoneration collapses (one changed route hides the attacker); the");
    println!("# match-fraction scorer degrades gracefully instead. Day-scale churn");
    println!("# in practice is far smaller, sitting between the rows — the");
    println!("# accuracy-vs-delay trade-off the paper describes.");
}
