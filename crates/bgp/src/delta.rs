//! Delta propagation support: rank-ordered scheduling and injection
//! diffing for incremental epoch transitions.
//!
//! A warm epoch transition ([`crate::CampaignSession::deploy_config`])
//! withdraws and re-injects *every* PoP announcement and re-runs the
//! activation queue in FIFO order. Both halves do more work than the
//! change itself requires:
//!
//! * **Seeding** — re-injecting an unchanged provider forces a decide
//!   pass that rediscovers the same best route. Diffing the incoming
//!   ⟨A;P;Q⟩ against the previous epoch's injections
//!   ([`diff_injections`]) touches only providers whose announcement
//!   actually changed — the affected frontier seeds itself from there,
//!   because the decide/export loop already terminates at ASes whose
//!   best route is unchanged.
//! * **Scheduling** — FIFO processing explores transient routes during
//!   withdrawal cascades (BGP path hunting): an AS may adopt a soon-to-be
//!   withdrawn detour and re-decide several times. Routes toward the
//!   origin flow customer→provider, across one peer hop, then
//!   provider→customer, so the delta queue drains pending ASes in
//!   *descending* customer-cone rank ([`PropagationRanks`], the
//!   `propagation_ranks` phase pattern from rank-ordered simulators).
//!   Upward (customer→provider) work needs no ordering help — an AS only
//!   enqueues after an offer reaches it — while the downward sweep waits
//!   until the high-rank tiers settle and then runs provider before
//!   customer, so each AS sees its providers' final routes before it
//!   decides, collapsing most of the hunt. Descending order also lets the
//!   export loop skip activating a neighbor whose settled best route the
//!   changed offer cannot displace (the `relevant` check in the engine's
//!   event loop).
//!
//! Neither transformation changes the fixpoint: Gao-Rexford-compliant
//! policies make the stable state unique regardless of activation order,
//! and the session's violator gate already cold-starts engines where
//! that does not hold. The three-way differential suite
//! (`tests/delta_differential.rs`) is the proof obligation.

use crate::origin::Injection;
use trackdown_topology::{AsIndex, NeighborKind, Topology};

/// Static customer-cone depth of every AS, used as the activation-queue
/// priority for delta propagation.
///
/// Rank 0 is an AS with no customers (a stub); otherwise the rank is one
/// more than the deepest customer, computed by a Kahn traversal of the
/// customer→provider DAG. ASes on a provider cycle (impossible in
/// generated topologies, tolerated from loaded ones) never finalize and
/// are assigned `max_rank + 1`, which keeps the queue total-ordered and
/// deterministic without privileging any cycle member.
#[derive(Debug, Clone)]
pub struct PropagationRanks {
    rank: Vec<u32>,
    max_rank: u32,
}

impl PropagationRanks {
    /// Compute ranks for every AS of `topo`.
    pub fn compute(topo: &Topology) -> PropagationRanks {
        let n = topo.num_ases();
        let mut rank = vec![0u32; n];
        // pending[i] = customers of i not yet finalized.
        let mut pending = vec![0u32; n];
        let mut queue: Vec<AsIndex> = Vec::new();
        for i in topo.indices() {
            let customers = topo
                .neighbors(i)
                .iter()
                .filter(|(_, k)| *k == NeighborKind::Customer)
                .count() as u32;
            pending[i.us()] = customers;
            if customers == 0 {
                queue.push(i);
            }
        }
        let mut max_rank = 0;
        let mut head = 0;
        while head < queue.len() {
            let i = queue[head];
            head += 1;
            max_rank = max_rank.max(rank[i.us()]);
            for &(p, kind) in topo.neighbors(i) {
                // `kind` is how p looks from i: p is i's provider.
                if kind != NeighborKind::Provider {
                    continue;
                }
                rank[p.us()] = rank[p.us()].max(rank[i.us()] + 1);
                pending[p.us()] -= 1;
                if pending[p.us()] == 0 {
                    queue.push(p);
                }
            }
        }
        if head < n {
            // Provider cycle: park every unfinalized AS one rank above
            // the finalized maximum.
            max_rank += 1;
            for i in 0..n {
                if pending[i] != 0 {
                    rank[i] = max_rank;
                }
            }
        }
        PropagationRanks { rank, max_rank }
    }

    /// Rank of one AS.
    pub fn rank(&self, i: AsIndex) -> u32 {
        self.rank[i.us()]
    }

    /// The deepest rank assigned.
    pub fn max_rank(&self) -> u32 {
        self.max_rank
    }

    /// Number of ranked ASes.
    pub fn len(&self) -> usize {
        self.rank.len()
    }

    /// True for an empty topology.
    pub fn is_empty(&self) -> bool {
        self.rank.is_empty()
    }

    /// Consume into the raw per-AS rank vector (indexed by `AsIndex`).
    pub fn into_vec(self) -> Vec<u32> {
        self.rank
    }
}

/// Providers whose injection set differs between two epochs' built
/// injections, ascending and deduplicated — the delta seed set.
///
/// Injections are compared per provider as the *sequence* built from the
/// announcement configuration (`OriginAs::build_injections` emits them in
/// link order, so the sequence is canonical for a configuration). Route
/// acceptance is a pure function of the injection and the immutable
/// policy table, which is why an unchanged sequence can keep its direct
/// routes without re-validation.
pub fn diff_injections(prev: &[Injection], next: &[Injection]) -> Vec<AsIndex> {
    let mut providers: Vec<AsIndex> = prev
        .iter()
        .chain(next.iter())
        .map(|inj| inj.provider)
        .collect();
    providers.sort_unstable_by_key(|p| p.0);
    providers.dedup();
    providers.retain(|&p| {
        let a = prev.iter().filter(|inj| inj.provider == p);
        let b = next.iter().filter(|inj| inj.provider == p);
        !a.eq(b)
    });
    providers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::origin::{LinkAnnouncement, OriginAs};
    use crate::route::LinkId;
    use trackdown_topology::gen::{generate, TopologyConfig};
    use trackdown_topology::{Asn, TopologyBuilder};

    fn chain_topology() -> Topology {
        // 1 ← 10 ← 20 ← 30 (provider ← customer), plus peer 10–11.
        let mut b = TopologyBuilder::with_capacity(5);
        for a in [1u32, 10, 11, 20, 30] {
            b.add_as(Asn(a)).unwrap();
        }
        b.add_provider_customer(Asn(1), Asn(10)).unwrap();
        b.add_provider_customer(Asn(1), Asn(11)).unwrap();
        b.add_provider_customer(Asn(10), Asn(20)).unwrap();
        b.add_provider_customer(Asn(20), Asn(30)).unwrap();
        b.add_peering(Asn(10), Asn(11)).unwrap();
        b.build()
    }

    #[test]
    fn ranks_are_customer_cone_depth() {
        let topo = chain_topology();
        let ranks = PropagationRanks::compute(&topo);
        let r = |a: u32| ranks.rank(topo.index_of(Asn(a)).unwrap());
        assert_eq!(r(30), 0, "stub");
        assert_eq!(r(11), 0, "customer-free peer");
        assert_eq!(r(20), 1);
        assert_eq!(r(10), 2);
        assert_eq!(r(1), 3, "tier-1 tops the chain");
        assert_eq!(ranks.max_rank(), 3);
        assert_eq!(ranks.len(), topo.num_ases());
    }

    #[test]
    fn generated_topologies_rank_every_as_and_respect_edges() {
        for seed in 0..5u64 {
            let g = generate(&TopologyConfig::small(seed));
            let ranks = PropagationRanks::compute(&g.topology);
            assert!(!ranks.is_empty());
            for i in g.topology.indices() {
                for &(p, kind) in g.topology.neighbors(i) {
                    if kind == NeighborKind::Provider {
                        assert!(
                            ranks.rank(p) > ranks.rank(i),
                            "seed {seed}: provider rank must exceed customer rank"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn diff_injections_finds_only_changed_providers() {
        let g = generate(&TopologyConfig::small(3));
        let origin = OriginAs::peering_style(&g, 4);
        let plain: Vec<LinkAnnouncement> = origin.link_ids().map(LinkAnnouncement::plain).collect();
        let mut edited = plain.clone();
        edited[2] = LinkAnnouncement::prepended(LinkId(2));
        let a = origin.build_injections(&g.topology, &plain).unwrap();
        let b = origin.build_injections(&g.topology, &edited).unwrap();
        assert_eq!(diff_injections(&a, &a), Vec::<AsIndex>::new());
        let changed = diff_injections(&a, &b);
        assert_eq!(changed, vec![a[2].provider], "one prepended link");
        // Withdrawing a link flags its provider from either direction.
        let withdrawn: Vec<LinkAnnouncement> = plain
            .iter()
            .filter(|ann| ann.link != LinkId(1))
            .cloned()
            .collect();
        let c = origin.build_injections(&g.topology, &withdrawn).unwrap();
        assert_eq!(diff_injections(&a, &c), vec![a[1].provider]);
        assert_eq!(diff_injections(&c, &a), vec![a[1].provider]);
    }
}
