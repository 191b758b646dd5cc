//! Targeted poisoning of distant ASes (§V-B future work).
//!
//! The paper observes that large clusters sit far from the origin and
//! proposes "targeted poisoning of distant ASes to induce route changes
//! specific to split these large distant clusters". This module implements
//! that idea: take the largest clusters of a finished campaign, look at
//! the (predicted) forwarding paths of their members, and propose poison
//! configurations for the transit ASes those paths share — evaluated with
//! the catchment predictor so only configurations *predicted* to split a
//! cluster are proposed.

use crate::cluster::Clustering;
use crate::config::AnnouncementConfig;
use crate::localize::Campaign;
use crate::predict::CatchmentPredictor;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use trackdown_bgp::{BgpEngine, Catchments, OriginAs};
use trackdown_topology::{AsIndex, Asn, Topology};

/// A proposed targeted-poison configuration with its predicted effect.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TargetedProposal {
    /// The configuration to deploy.
    pub config: AnnouncementConfig,
    /// The AS being poisoned.
    pub target: Asn,
    /// Index of the cluster this proposal aims to split.
    pub cluster: usize,
    /// Predicted number of sub-clusters the target cluster breaks into
    /// (≥ 2 for every returned proposal).
    pub predicted_parts: usize,
}

/// Transit ASes shared by the forwarding paths of a cluster's members,
/// ranked by how many members traverse them (descending), excluding the
/// origin's own providers (already covered by the standard poison phase).
fn shared_transits(
    topo: &Topology,
    origin: &OriginAs,
    members: &[AsIndex],
    outcome: &trackdown_bgp::RoutingOutcome,
) -> Vec<(AsIndex, usize)> {
    let provider_asns: Vec<Asn> = origin.links.iter().map(|l| l.provider).collect();
    let mut counts: HashMap<AsIndex, usize> = HashMap::new();
    let mut walker = trackdown_bgp::ForwardingWalker::new();
    for &m in members {
        let Some(walk) = walker.walk(outcome, m) else {
            continue;
        };
        for &hop in &walk.hops {
            if hop == m {
                continue;
            }
            let asn = topo.asn_of(hop);
            if asn == origin.asn || provider_asns.contains(&asn) {
                continue;
            }
            *counts.entry(hop).or_insert(0) += 1;
        }
    }
    let mut out: Vec<(AsIndex, usize)> = counts.into_iter().collect();
    // Most-shared first; ties toward the lower index for determinism.
    out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    out
}

/// How many parts a cluster splits into under a predicted catchment map.
fn predicted_parts(members: &[AsIndex], predicted: &Catchments) -> usize {
    let mut links: Vec<_> = members.iter().map(|&m| predicted.get(m)).collect();
    links.sort_unstable();
    links.dedup();
    links.len()
}

/// Propose up to `max_proposals` targeted-poison configurations for the
/// `top_clusters` largest clusters of a finished campaign.
///
/// `engine` provides ground-truth forwarding paths for the baseline
/// configuration (in deployment these come from the measured traceroute
/// corpus); the [`CatchmentPredictor`] screens candidate poisons so only
/// configurations predicted to split their cluster are returned.
pub fn propose_targeted_poisons(
    engine: &BgpEngine<'_>,
    origin: &OriginAs,
    campaign: &Campaign,
    top_clusters: usize,
    candidates_per_cluster: usize,
    max_proposals: usize,
) -> Vec<TargetedProposal> {
    let topo = engine.topology();
    let baseline = &campaign.configs[0];
    let outcome = engine
        .propagate_config(origin, &baseline.to_link_announcements())
        .expect("baseline valid");
    let predictor = CatchmentPredictor::new(topo);

    // Largest clusters first (CSR slices; no membership materialization).
    let clustering = &campaign.clustering;
    let mut order: Vec<usize> = (0..clustering.num_clusters()).collect();
    order.sort_by_key(|&k| usize::MAX - clustering.cluster_size(k as u32));

    let mut proposals = Vec::new();
    for &cluster_idx in order.iter().take(top_clusters) {
        let members = clustering.cluster_members(cluster_idx as u32);
        if members.len() < 2 {
            continue; // nothing to split
        }
        // The link the cluster currently uses in the baseline.
        let Some(current_link) = campaign.catchments[0].get(members[0]) else {
            continue;
        };
        for (transit, _shared_by) in shared_transits(topo, origin, members, &outcome)
            .into_iter()
            .take(candidates_per_cluster)
        {
            let target = topo.asn_of(transit);
            let config = AnnouncementConfig::anycast(origin.link_ids())
                .with_poison(current_link, vec![target]);
            if config.validate(origin).is_err() {
                continue;
            }
            let predicted = predictor.predict(origin, &config);
            let parts = predicted_parts(members, &predicted);
            if parts >= 2 {
                proposals.push(TargetedProposal {
                    config,
                    target,
                    cluster: cluster_idx,
                    predicted_parts: parts,
                });
                break; // one proposal per cluster is enough
            }
        }
        if proposals.len() >= max_proposals {
            break;
        }
    }
    proposals
}

/// Deploy proposals on top of an existing clustering and report the mean
/// cluster size before/after — the ablation number for this strategy.
pub fn evaluate_proposals(
    engine: &BgpEngine<'_>,
    origin: &OriginAs,
    campaign: &Campaign,
    proposals: &[TargetedProposal],
) -> (f64, f64) {
    let before = campaign.clustering.mean_size();
    let mut clustering: Clustering = campaign.clustering.clone();
    for p in proposals {
        let outcome = engine
            .propagate_config(origin, &p.config.to_link_announcements())
            .expect("proposal valid");
        clustering.refine(&Catchments::from_control_plane(&outcome));
    }
    (before, clustering.mean_size())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{full_schedule, GeneratorParams};
    use crate::localize::{run_campaign, CampaignOpts};
    use trackdown_bgp::{EngineConfig, PolicyConfig};
    use trackdown_topology::gen::{generate, TopologyConfig};

    fn setup() -> (
        trackdown_topology::gen::GeneratedTopology,
        OriginAs,
        EngineConfig,
    ) {
        let g = generate(&TopologyConfig::medium(61));
        let origin = OriginAs::peering_style(&g, 5);
        let cfg = EngineConfig {
            policy: PolicyConfig {
                seed: 8,
                violator_fraction: 0.05,
                no_loop_prevention_fraction: 0.02,
                tier1_poison_filtering: true,
                extensions: Default::default(),
            },
            ..EngineConfig::default()
        };
        (g, origin, cfg)
    }

    #[test]
    fn proposals_target_shared_transits_and_predict_splits() {
        let (g, origin, cfg) = setup();
        let engine = BgpEngine::new(&g.topology, &cfg);
        // A deliberately small schedule so large clusters remain.
        let schedule = full_schedule(
            &g.topology,
            &origin,
            &GeneratorParams {
                max_removals: 1,
                max_poison_configs: Some(0),
            },
        );
        let campaign = run_campaign(&engine, &origin, &schedule, &CampaignOpts::default())
            .expect("valid schedule");
        let proposals = propose_targeted_poisons(&engine, &origin, &campaign, 10, 8, 5);
        assert!(!proposals.is_empty(), "no targeted proposals found");
        let provider_asns: Vec<Asn> = origin.links.iter().map(|l| l.provider).collect();
        for p in &proposals {
            assert!(p.predicted_parts >= 2);
            assert_ne!(p.target, origin.asn);
            assert!(!provider_asns.contains(&p.target));
            p.config.validate(&origin).unwrap();
        }
    }

    #[test]
    fn deploying_proposals_reduces_mean_cluster_size() {
        let (g, origin, cfg) = setup();
        let engine = BgpEngine::new(&g.topology, &cfg);
        let schedule = full_schedule(
            &g.topology,
            &origin,
            &GeneratorParams {
                max_removals: 1,
                max_poison_configs: Some(0),
            },
        );
        let campaign = run_campaign(&engine, &origin, &schedule, &CampaignOpts::default())
            .expect("valid schedule");
        let proposals = propose_targeted_poisons(&engine, &origin, &campaign, 10, 8, 5);
        let (before, after) = evaluate_proposals(&engine, &origin, &campaign, &proposals);
        assert!(
            after < before,
            "targeted poisoning did not help: {before} -> {after}"
        );
    }

    #[test]
    fn singleton_clusters_are_skipped() {
        let (g, origin, cfg) = setup();
        let engine = BgpEngine::new(&g.topology, &cfg);
        // A rich schedule leaves mostly singletons; proposals may be empty
        // but must never target a singleton cluster.
        let schedule = full_schedule(
            &g.topology,
            &origin,
            &GeneratorParams {
                max_removals: 2,
                max_poison_configs: Some(40),
            },
        );
        let campaign = run_campaign(&engine, &origin, &schedule, &CampaignOpts::default())
            .expect("valid schedule");
        let clusters = campaign.clustering.clusters();
        let proposals = propose_targeted_poisons(&engine, &origin, &campaign, 5, 4, 5);
        for p in &proposals {
            assert!(clusters[p.cluster].len() >= 2);
        }
    }
}
