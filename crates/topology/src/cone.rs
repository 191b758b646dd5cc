//! Customer cones and tier classification.
//!
//! The *customer cone* of an AS is the set of ASes reachable by repeatedly
//! following provider→customer links (Luckie et al., IMC'13). Cone size is
//! the standard proxy for an AS's importance as a transit network, and the
//! paper uses it both to select poisoning targets and to report coverage
//! ("73 % of ASes with customer cone larger than 300").

use crate::{AsIndex, Topology};
use serde::{Deserialize, Serialize};

/// Coarse role of an AS in the transit hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Tier {
    /// Provider-free core AS (has customers, no providers).
    Tier1,
    /// Transit AS: has both providers and customers.
    Transit,
    /// Stub AS: has providers but no customers.
    Stub,
    /// Isolated AS with no links (degenerate, kept for robustness).
    Isolated,
}

/// Customer-cone and tier data for every AS in a topology.
#[derive(Debug, Clone)]
pub struct ConeInfo {
    /// `cone[i]` = sorted customer-cone members of AS `i` (including `i`).
    cones: Vec<Vec<AsIndex>>,
    tiers: Vec<Tier>,
}

impl ConeInfo {
    /// Compute cones for all ASes. Complexity is O(V·(V+E)) worst case but
    /// the transit hierarchy keeps it far smaller in practice.
    pub fn compute(topo: &Topology) -> ConeInfo {
        let n = topo.num_ases();
        let mut cones = vec![Vec::new(); n];
        // Process in reverse topological-ish order is unnecessary for
        // correctness here: we do a DFS per AS with memoization-free
        // marking, which is simple and robust even if a (buggy) input
        // contains provider loops.
        let mut mark = vec![u32::MAX; n];
        for i in topo.indices() {
            let mut stack = vec![i];
            let mut members = Vec::new();
            while let Some(v) = stack.pop() {
                if mark[v.us()] == i.0 {
                    continue;
                }
                mark[v.us()] = i.0;
                members.push(v);
                for c in topo.customers(v) {
                    if mark[c.us()] != i.0 {
                        stack.push(c);
                    }
                }
            }
            members.sort_unstable();
            cones[i.us()] = members;
        }
        ConeInfo {
            cones,
            tiers: classify_tiers(topo),
        }
    }

    /// Sorted customer-cone members of `i` (always contains `i` itself).
    pub fn cone(&self, i: AsIndex) -> &[AsIndex] {
        &self.cones[i.us()]
    }

    /// Customer-cone size of `i` (≥ 1).
    pub fn cone_size(&self, i: AsIndex) -> usize {
        self.cones[i.us()].len()
    }

    /// True if `member` is in the customer cone of `of`.
    pub fn in_cone(&self, of: AsIndex, member: AsIndex) -> bool {
        self.cones[of.us()].binary_search(&member).is_ok()
    }

    /// Tier classification of `i`.
    pub fn tier(&self, i: AsIndex) -> Tier {
        self.tiers[i.us()]
    }

    /// Every AS's tier, by index: [`classify_tiers`] of the topology.
    pub fn tiers(&self) -> &[Tier] {
        &self.tiers
    }

    /// True if `i` is in the provider-free core.
    pub fn is_tier1(&self, i: AsIndex) -> bool {
        self.tiers[i.us()] == Tier::Tier1
    }

    /// All tier-1 ASes.
    pub fn tier1s(&self) -> impl Iterator<Item = AsIndex> + '_ {
        self.tiers
            .iter()
            .enumerate()
            .filter(|(_, t)| **t == Tier::Tier1)
            .map(|(i, _)| AsIndex(i as u32))
    }
}

/// Tier of every AS, by index, from its own adjacency alone: O(V+E),
/// without the customer cones [`ConeInfo::compute`] walks.
pub fn classify_tiers(topo: &Topology) -> Vec<Tier> {
    topo.indices()
        .map(|i| {
            let has_customers = topo.customers(i).next().is_some();
            let has_providers = topo.providers(i).next().is_some();
            let has_peers = topo.peers(i).next().is_some();
            match (has_providers, has_customers) {
                (false, true) => Tier::Tier1,
                (true, true) => Tier::Transit,
                (true, false) => Tier::Stub,
                (false, false) => {
                    if has_peers {
                        // Peering-only AS: treat as tier-1-like core
                        // only if it peers; classify as Transit to be
                        // conservative about poisoning filters.
                        Tier::Transit
                    } else {
                        Tier::Isolated
                    }
                }
            }
        })
        .collect()
}

/// True when following customer→provider links can return to where it
/// started: some AS is, transitively, its own provider. Kahn's algorithm
/// over the provider hierarchy, O(V+E). Gao-Rexford's uniqueness of the
/// stable routing state assumes no such cycle.
pub fn has_provider_cycle(topo: &Topology) -> bool {
    // Customers not yet removed, per AS; an AS is removed once all its
    // customers are, which reaches every AS exactly when no cycle exists.
    let mut pending: Vec<usize> = topo.indices().map(|i| topo.customers(i).count()).collect();
    let mut ready: Vec<AsIndex> = topo.indices().filter(|i| pending[i.us()] == 0).collect();
    let mut removed = 0;
    while let Some(i) = ready.pop() {
        removed += 1;
        for p in topo.providers(i) {
            pending[p.us()] -= 1;
            if pending[p.us()] == 0 {
                ready.push(p);
            }
        }
    }
    removed < topo.num_ases()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{topology_from_links, Asn, LinkKind};

    fn chain() -> Topology {
        // 1 -> 2 -> 3 -> 4 (provider to customer), plus peer 2-5, stub 5 under 1.
        topology_from_links([
            (Asn(1), Asn(2), LinkKind::ProviderCustomer),
            (Asn(2), Asn(3), LinkKind::ProviderCustomer),
            (Asn(3), Asn(4), LinkKind::ProviderCustomer),
            (Asn(1), Asn(5), LinkKind::ProviderCustomer),
            (Asn(2), Asn(5), LinkKind::PeerPeer),
        ])
        .unwrap()
    }

    #[test]
    fn cone_sizes() {
        let t = chain();
        let c = ConeInfo::compute(&t);
        let ix = |a: u32| t.index_of(Asn(a)).unwrap();
        assert_eq!(c.cone_size(ix(1)), 5); // everyone
        assert_eq!(c.cone_size(ix(2)), 3); // 2,3,4 — peering does not extend cones
        assert_eq!(c.cone_size(ix(3)), 2);
        assert_eq!(c.cone_size(ix(4)), 1);
        assert_eq!(c.cone_size(ix(5)), 1);
    }

    #[test]
    fn in_cone_membership() {
        let t = chain();
        let c = ConeInfo::compute(&t);
        let ix = |a: u32| t.index_of(Asn(a)).unwrap();
        assert!(c.in_cone(ix(2), ix(4)));
        assert!(!c.in_cone(ix(2), ix(5))); // 5 is a peer, not a cone member
        assert!(c.in_cone(ix(4), ix(4))); // self-membership
    }

    #[test]
    fn tiers() {
        let t = chain();
        let c = ConeInfo::compute(&t);
        let ix = |a: u32| t.index_of(Asn(a)).unwrap();
        assert_eq!(c.tier(ix(1)), Tier::Tier1);
        assert_eq!(c.tier(ix(2)), Tier::Transit);
        assert_eq!(c.tier(ix(4)), Tier::Stub);
        assert_eq!(c.tier(ix(5)), Tier::Stub);
        assert_eq!(c.tier1s().count(), 1);
    }

    #[test]
    fn provider_cycles_are_found() {
        assert!(!has_provider_cycle(&chain()));
        // 1 → 2 → 3 → 1 (each the provider of the next), below a stub.
        let cyclic = topology_from_links([
            (Asn(1), Asn(2), LinkKind::ProviderCustomer),
            (Asn(2), Asn(3), LinkKind::ProviderCustomer),
            (Asn(3), Asn(1), LinkKind::ProviderCustomer),
            (Asn(3), Asn(4), LinkKind::ProviderCustomer),
        ])
        .unwrap();
        assert!(has_provider_cycle(&cyclic));
        // Peering links never close a cycle.
        let peered = topology_from_links([
            (Asn(1), Asn(2), LinkKind::ProviderCustomer),
            (Asn(2), Asn(3), LinkKind::PeerPeer),
            (Asn(3), Asn(1), LinkKind::PeerPeer),
        ])
        .unwrap();
        assert!(!has_provider_cycle(&peered));
    }

    #[test]
    fn multihomed_cone_counted_once() {
        // 1 and 2 both provide 3; cone of 1 must contain 3 exactly once.
        let t = topology_from_links([
            (Asn(1), Asn(2), LinkKind::ProviderCustomer),
            (Asn(1), Asn(3), LinkKind::ProviderCustomer),
            (Asn(2), Asn(3), LinkKind::ProviderCustomer),
        ])
        .unwrap();
        let c = ConeInfo::compute(&t);
        let i1 = t.index_of(Asn(1)).unwrap();
        assert_eq!(c.cone_size(i1), 3);
        let cone = c.cone(i1);
        assert_eq!(cone.len(), 3);
        // Sorted and deduplicated.
        assert!(cone.windows(2).all(|w| w[0] < w[1]));
    }
}
