//! BGP route collectors as *update streams* (RouteViews/RIS behaviour).
//!
//! Besides final Loc-RIB snapshots ([`crate::observe::collect_bgp_feeds`]),
//! real collectors receive the UPDATE messages feeders emit while routes
//! converge. The paper's dataset leans on exactly this ("thousands of
//! route changes (with different properties)", §VI), and convergence
//! detection — "wait for route convergence" before measuring (§IV-a) — is
//! the quiescence of this stream.

use serde::{Deserialize, Serialize};
use trackdown_bgp::{LinkId, RouteChange, RoutingOutcome};
use trackdown_topology::AsIndex;

/// One UPDATE as a collector logs it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CollectorUpdate {
    /// Convergence round (MRAI-batch proxy) the update was sent in.
    pub round: u32,
    /// The feeding AS that re-announced (or withdrew).
    pub feeder: AsIndex,
    /// New ingress link, `None` for a withdrawal.
    pub ingress: Option<LinkId>,
    /// AS-path length announced.
    pub path_len: usize,
}

/// The update stream a set of feeders produces for one configuration.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct UpdateStream {
    /// Updates in emission order.
    pub updates: Vec<CollectorUpdate>,
}

impl UpdateStream {
    /// Extract the stream from a routing outcome, restricted to feeders.
    pub fn collect(outcome: &RoutingOutcome, feeders: &[AsIndex]) -> UpdateStream {
        let feeder_set: std::collections::HashSet<AsIndex> = feeders.iter().copied().collect();
        UpdateStream {
            updates: outcome
                .changes
                .iter()
                .filter(|c| feeder_set.contains(&c.at))
                .map(|c: &RouteChange| CollectorUpdate {
                    round: c.round,
                    feeder: c.at,
                    ingress: c.ingress,
                    path_len: c.path_len,
                })
                .collect(),
        }
    }

    /// Number of updates received.
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// True when no update was received.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    /// The round after which the stream went quiet — the collector-side
    /// convergence signal the paper waits for before measuring
    /// catchments.
    pub fn convergence_round(&self) -> u32 {
        self.updates.iter().map(|u| u.round).max().unwrap_or(0)
    }

    /// Number of *path explorations*: feeders that announced more than
    /// once during convergence (transient routes replaced by better ones —
    /// the BGP path-exploration phenomenon).
    pub fn path_explorations(&self) -> usize {
        let mut counts: std::collections::HashMap<AsIndex, usize> =
            std::collections::HashMap::new();
        for u in &self.updates {
            *counts.entry(u.feeder).or_insert(0) += 1;
        }
        counts.values().filter(|&&c| c > 1).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trackdown_bgp::{BgpEngine, EngineConfig, LinkAnnouncement, OriginAs};
    use trackdown_topology::gen::{generate, TopologyConfig};

    fn outcome() -> (trackdown_topology::gen::GeneratedTopology, RoutingOutcome) {
        let g = generate(&TopologyConfig::small(55));
        let origin = OriginAs::peering_style(&g, 4);
        let engine = BgpEngine::new(&g.topology, &EngineConfig::default());
        let anns: Vec<_> = origin.link_ids().map(LinkAnnouncement::plain).collect();
        let out = engine.propagate_config(&origin, &anns).unwrap();
        (g, out)
    }

    #[test]
    fn every_reachable_feeder_updates_at_least_once() {
        let (g, out) = outcome();
        let feeders: Vec<AsIndex> = g.topology.indices().collect();
        let stream = UpdateStream::collect(&out, &feeders);
        // Starting from an empty RIB, every AS that ends with a route must
        // have announced at least once.
        let mut seen: Vec<AsIndex> = stream.updates.iter().map(|u| u.feeder).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), out.reachable_count());
        assert!(!stream.is_empty());
    }

    #[test]
    fn stream_restricted_to_feeders() {
        let (g, out) = outcome();
        let feeders: Vec<AsIndex> = g.topology.indices().take(5).collect();
        let stream = UpdateStream::collect(&out, &feeders);
        for u in &stream.updates {
            assert!(feeders.contains(&u.feeder));
        }
        assert!(stream.len() >= feeders.len().min(out.reachable_count()));
    }

    #[test]
    fn convergence_round_matches_outcome_rounds() {
        let (g, out) = outcome();
        let feeders: Vec<AsIndex> = g.topology.indices().collect();
        let stream = UpdateStream::collect(&out, &feeders);
        // The full-feeder stream quiets exactly at the engine's measured
        // convergence depth.
        assert_eq!(stream.convergence_round(), out.rounds);
    }

    #[test]
    fn path_exploration_happens_somewhere() {
        // With multiple anycast links, some AS hears a worse route first
        // and replaces it — classic path exploration. Whether a specific
        // topology/ordering exhibits it is seed-dependent, so scan a few.
        let mut explored_anywhere = false;
        for seed in 50..60u64 {
            let g = generate(&TopologyConfig::small(seed));
            let origin = OriginAs::peering_style(&g, 4);
            let engine = BgpEngine::new(&g.topology, &EngineConfig::default());
            let anns: Vec<_> = origin.link_ids().map(LinkAnnouncement::plain).collect();
            let out = engine.propagate_config(&origin, &anns).unwrap();
            let feeders: Vec<AsIndex> = g.topology.indices().collect();
            let stream = UpdateStream::collect(&out, &feeders);
            // Never an unbounded churn storm.
            assert!(stream.len() < 3 * out.reachable_count());
            if stream.path_explorations() > 0 {
                explored_anywhere = true;
            }
        }
        assert!(
            explored_anywhere,
            "no seed exhibited path exploration at all"
        );
    }

    #[test]
    fn empty_stream_behaviour() {
        let s = UpdateStream::default();
        assert!(s.is_empty());
        assert_eq!(s.convergence_round(), 0);
        assert_eq!(s.path_explorations(), 0);
    }
}
