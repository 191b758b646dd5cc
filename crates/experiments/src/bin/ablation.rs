//! Ablation of the two extension techniques on top of the paper's
//! schedule: BGP action communities (§VIII future work) and targeted
//! poisoning of distant ASes (§V-B future work). Reports the mean cluster
//! size after the paper schedule, after adding each extension alone, and
//! after both.

use trackdown_bgp::Catchments;
use trackdown_core::generator::community_phase;
use trackdown_core::localize::{run_campaign, CampaignOpts};
use trackdown_core::targeting::{evaluate_proposals, propose_targeted_poisons};
use trackdown_experiments::{report_stats, Options, Scenario};

fn main() {
    let opts = Options::from_args();
    let scenario = Scenario::build(opts);
    scenario.announce();
    let engine = scenario.engine();
    // Two bases: a budget-limited schedule (locations only — an operator
    // early in a deployment) and the paper's full schedule. Extensions
    // have the most room on the former; on the latter the residual
    // clusters are mostly inseparable single-homed blocks.
    let loc_only = trackdown_core::generator::location_phase(
        scenario.origin.num_links(),
        scenario.params.max_removals,
    );
    let full = scenario.schedule();
    for (base_label, schedule) in [("locations-only", loc_only), ("paper schedule", full)] {
        run_base(&scenario, &engine, base_label, &schedule);
        println!();
    }
}

fn run_base(
    scenario: &Scenario,
    engine: &trackdown_bgp::BgpEngine<'_>,
    base_label: &str,
    schedule: &[trackdown_core::AnnouncementConfig],
) {
    let campaign = run_campaign(engine, &scenario.origin, schedule, &CampaignOpts::default())
        .expect("valid schedule");
    report_stats(&campaign);
    println!("# Ablation on base: {base_label}\n");
    println!(
        "base ({} configs):               mean cluster size {:.3}",
        schedule.len(),
        campaign.clustering.mean_size()
    );

    // Extension A: community phase.
    let communities = community_phase(&scenario.origin);
    let mut with_comm = campaign.clustering.clone();
    for cfg in &communities {
        let out = engine
            .propagate_config(&scenario.origin, &cfg.to_link_announcements())
            .unwrap();
        with_comm.refine(&Catchments::from_control_plane(&out));
    }
    println!(
        "+ communities ({} configs):                 mean cluster size {:.3}",
        communities.len(),
        with_comm.mean_size()
    );

    // Extension B: targeted poisoning.
    let proposals = propose_targeted_poisons(engine, &scenario.origin, &campaign, 20, 10, 20);
    let (before, after) = evaluate_proposals(engine, &scenario.origin, &campaign, &proposals);
    println!(
        "+ targeted poisons ({} configs):            mean cluster size {:.3} (from {:.3})",
        proposals.len(),
        after,
        before
    );

    // Both.
    let mut both = with_comm.clone();
    for p in &proposals {
        let out = engine
            .propagate_config(&scenario.origin, &p.config.to_link_announcements())
            .unwrap();
        both.refine(&Catchments::from_control_plane(&out));
    }
    println!(
        "+ both extensions:                          mean cluster size {:.3}",
        both.mean_size()
    );
    println!(
        "singleton clusters: base {:.1}% -> both extensions {:.1}%",
        campaign.clustering.singleton_fraction() * 100.0,
        both.singleton_fraction() * 100.0
    );
}
