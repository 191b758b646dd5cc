//! The AS-level topology graph.

use crate::fxhash::FxHashMap;
use crate::{Asn, Link, LinkKind, NeighborKind};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Dense index of an AS inside a [`Topology`].
///
/// All hot-path structures (RIBs, catchments, clusters) are keyed by
/// `AsIndex` rather than [`Asn`] so they can live in flat vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct AsIndex(pub u32);

impl AsIndex {
    /// The index as a usize, for vector addressing.
    #[inline]
    pub fn us(self) -> usize {
        self.0 as usize
    }
}

/// Errors produced while constructing a [`Topology`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A link references an AS that was never declared.
    UnknownAs(Asn),
    /// A link connects an AS to itself.
    SelfLoop(Asn),
    /// The same AS pair appears in more than one link.
    DuplicateLink(Asn, Asn),
    /// The same ASN was declared twice.
    DuplicateAs(Asn),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::UnknownAs(a) => write!(f, "link references undeclared {a}"),
            TopologyError::SelfLoop(a) => write!(f, "self-loop at {a}"),
            TopologyError::DuplicateLink(a, b) => write!(f, "duplicate link {a}–{b}"),
            TopologyError::DuplicateAs(a) => write!(f, "duplicate AS declaration {a}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// An immutable AS-level Internet topology: a set of ASes and the
/// relationship-annotated links between them.
///
/// Built once via [`TopologyBuilder`] and then shared read-only by the BGP
/// engine, the measurement plane, and the analysis code.
#[derive(Debug, Clone, Serialize)]
pub struct Topology {
    asns: Vec<Asn>,
    /// ASN → index, derived from `asns`: serialized without it, rebuilt
    /// on deserialization.
    #[serde(skip)]
    index: FxHashMap<Asn, AsIndex>,
    /// Per-AS adjacency: `(neighbor, how the neighbor looks from here)`.
    adjacency: Vec<Vec<(AsIndex, NeighborKind)>>,
    links: Vec<Link>,
}

/// The serde wire format: every field of [`Topology`] but its index.
#[derive(Deserialize)]
struct TopologyForm {
    asns: Vec<Asn>,
    adjacency: Vec<Vec<(AsIndex, NeighborKind)>>,
    links: Vec<Link>,
}

impl Deserialize for Topology {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let f = TopologyForm::from_value(v)?;
        let index = f
            .asns
            .iter()
            .enumerate()
            .map(|(i, &a)| (a, AsIndex(i as u32)))
            .collect();
        Ok(Topology {
            asns: f.asns,
            index,
            adjacency: f.adjacency,
            links: f.links,
        })
    }
}

impl Topology {
    /// Number of ASes in the topology.
    pub fn num_ases(&self) -> usize {
        self.asns.len()
    }

    /// Number of links in the topology.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// All ASNs, in index order.
    pub fn asns(&self) -> &[Asn] {
        &self.asns
    }

    /// All indices, `0..num_ases`.
    pub fn indices(&self) -> impl Iterator<Item = AsIndex> + '_ {
        (0..self.asns.len() as u32).map(AsIndex)
    }

    /// All links in insertion order.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Look up the dense index of an ASN.
    pub fn index_of(&self, asn: Asn) -> Option<AsIndex> {
        self.index.get(&asn).copied()
    }

    /// The ASN at a dense index.
    ///
    /// # Panics
    /// Panics if the index is out of range (indices always come from the
    /// same topology, so this indicates a logic error).
    pub fn asn_of(&self, idx: AsIndex) -> Asn {
        self.asns[idx.us()]
    }

    /// True if the topology contains this ASN.
    pub fn contains(&self, asn: Asn) -> bool {
        self.index.contains_key(&asn)
    }

    /// Neighbors of `idx` with the relationship each neighbor has
    /// *from `idx`'s point of view* (e.g. `NeighborKind::Provider` means
    /// the neighbor is a provider of `idx`).
    pub fn neighbors(&self, idx: AsIndex) -> &[(AsIndex, NeighborKind)] {
        &self.adjacency[idx.us()]
    }

    /// Neighbors of `idx` filtered to one relationship kind.
    pub fn neighbors_of_kind(
        &self,
        idx: AsIndex,
        kind: NeighborKind,
    ) -> impl Iterator<Item = AsIndex> + '_ {
        self.adjacency[idx.us()]
            .iter()
            .filter(move |(_, k)| *k == kind)
            .map(|(n, _)| *n)
    }

    /// Providers of `idx`.
    pub fn providers(&self, idx: AsIndex) -> impl Iterator<Item = AsIndex> + '_ {
        self.neighbors_of_kind(idx, NeighborKind::Provider)
    }

    /// Customers of `idx`.
    pub fn customers(&self, idx: AsIndex) -> impl Iterator<Item = AsIndex> + '_ {
        self.neighbors_of_kind(idx, NeighborKind::Customer)
    }

    /// Peers of `idx`.
    pub fn peers(&self, idx: AsIndex) -> impl Iterator<Item = AsIndex> + '_ {
        self.neighbors_of_kind(idx, NeighborKind::Peer)
    }

    /// Total degree of `idx`.
    pub fn degree(&self, idx: AsIndex) -> usize {
        self.adjacency[idx.us()].len()
    }

    /// The relationship between two ASes, if they are linked:
    /// how `b` looks from `a`. A binary search over `a`'s sorted neighbor
    /// list.
    pub fn relationship(&self, a: AsIndex, b: AsIndex) -> Option<NeighborKind> {
        let adj = &self.adjacency[a.us()];
        adj.binary_search_by_key(&b, |(n, _)| *n)
            .ok()
            .map(|pos| adj[pos].1)
    }

    /// True if `a` and `b` share a link.
    pub fn linked(&self, a: AsIndex, b: AsIndex) -> bool {
        self.relationship(a, b).is_some()
    }

    /// ASes with no customers (edge/stub networks).
    pub fn stubs(&self) -> impl Iterator<Item = AsIndex> + '_ {
        self.indices()
            .filter(|&i| self.customers(i).next().is_none())
    }
}

/// Incremental builder for [`Topology`].
///
/// ```
/// use trackdown_topology::{Asn, TopologyBuilder};
/// let mut b = TopologyBuilder::new();
/// b.add_as(Asn(1)).unwrap();
/// b.add_as(Asn(2)).unwrap();
/// b.add_provider_customer(Asn(1), Asn(2)).unwrap();
/// let topo = b.build();
/// assert_eq!(topo.num_ases(), 2);
/// assert_eq!(topo.num_links(), 1);
/// ```
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    asns: Vec<Asn>,
    index: FxHashMap<Asn, AsIndex>,
    adjacency: Vec<Vec<(AsIndex, NeighborKind)>>,
    links: Vec<Link>,
}

impl TopologyBuilder {
    /// New empty builder.
    pub fn new() -> TopologyBuilder {
        TopologyBuilder::default()
    }

    /// Builder pre-sized for `n` ASes.
    pub fn with_capacity(n: usize) -> TopologyBuilder {
        TopologyBuilder {
            asns: Vec::with_capacity(n),
            index: FxHashMap::with_capacity_and_hasher(n, Default::default()),
            adjacency: Vec::with_capacity(n),
            links: Vec::new(),
        }
    }

    /// Number of ASes added so far.
    pub fn num_ases(&self) -> usize {
        self.asns.len()
    }

    /// Declare an AS; returns its dense index.
    pub fn add_as(&mut self, asn: Asn) -> Result<AsIndex, TopologyError> {
        if self.index.contains_key(&asn) {
            return Err(TopologyError::DuplicateAs(asn));
        }
        let idx = AsIndex(self.asns.len() as u32);
        self.asns.push(asn);
        self.adjacency.push(Vec::new());
        self.index.insert(asn, idx);
        Ok(idx)
    }

    /// Declare an AS if not yet present; returns its index either way.
    pub fn ensure_as(&mut self, asn: Asn) -> AsIndex {
        match self.index.get(&asn) {
            Some(&i) => i,
            None => self.add_as(asn).expect("checked absent"),
        }
    }

    fn add_link(&mut self, link: Link) -> Result<(), TopologyError> {
        let ia = *self
            .index
            .get(&link.a)
            .ok_or(TopologyError::UnknownAs(link.a))?;
        let ib = *self
            .index
            .get(&link.b)
            .ok_or(TopologyError::UnknownAs(link.b))?;
        if ia == ib {
            return Err(TopologyError::SelfLoop(link.a));
        }
        if self.linked(ia, ib) {
            return Err(TopologyError::DuplicateLink(link.a, link.b));
        }
        let kind_a = link.kind_for(link.a).expect("a is endpoint");
        let kind_b = link.kind_for(link.b).expect("b is endpoint");
        // Adjacency stores how the *neighbor* looks from each side.
        self.adjacency[ia.us()].push((ib, kind_a));
        self.adjacency[ib.us()].push((ia, kind_b));
        self.links.push(link);
        Ok(())
    }

    /// Add a provider→customer link.
    pub fn add_provider_customer(
        &mut self,
        provider: Asn,
        customer: Asn,
    ) -> Result<(), TopologyError> {
        self.add_link(Link::provider_customer(provider, customer))
    }

    /// Add a settlement-free peering link.
    pub fn add_peering(&mut self, x: Asn, y: Asn) -> Result<(), TopologyError> {
        self.add_link(Link::peering(x, y))
    }

    /// True if the pair is already linked.
    pub fn has_link(&self, x: Asn, y: Asn) -> bool {
        match (self.index.get(&x), self.index.get(&y)) {
            (Some(&ix), Some(&iy)) => self.linked(ix, iy),
            _ => false,
        }
    }

    /// True if `a` and `b` are linked. Adjacency is symmetric, so this
    /// scans whichever endpoint has fewer neighbors: a stub's short list
    /// rather than its provider's thousands.
    fn linked(&self, a: AsIndex, b: AsIndex) -> bool {
        let (from, to) = if self.adjacency[a.us()].len() <= self.adjacency[b.us()].len() {
            (a, b)
        } else {
            (b, a)
        };
        self.adjacency[from.us()].iter().any(|(n, _)| *n == to)
    }

    /// Finalize into an immutable [`Topology`]. Neighbor lists are sorted
    /// by index for determinism.
    pub fn build(mut self) -> Topology {
        for adj in &mut self.adjacency {
            adj.sort_by_key(|(n, _)| *n);
        }
        Topology {
            asns: self.asns,
            index: self.index,
            adjacency: self.adjacency,
            links: self.links,
        }
    }
}

/// Convenience constructor from link triples; declares ASes on the fly.
///
/// Accepts the same information as a CAIDA `as-rel` file.
pub fn topology_from_links(
    links: impl IntoIterator<Item = (Asn, Asn, LinkKind)>,
) -> Result<Topology, TopologyError> {
    let mut b = TopologyBuilder::new();
    for (a, bn, kind) in links {
        b.ensure_as(a);
        b.ensure_as(bn);
        match kind {
            LinkKind::ProviderCustomer => b.add_provider_customer(a, bn)?,
            LinkKind::PeerPeer => b.add_peering(a, bn)?,
        }
    }
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Topology {
        // 1 is provider of 2 and 3; 2 and 3 are providers of 4; 2-3 peer.
        topology_from_links([
            (Asn(1), Asn(2), LinkKind::ProviderCustomer),
            (Asn(1), Asn(3), LinkKind::ProviderCustomer),
            (Asn(2), Asn(4), LinkKind::ProviderCustomer),
            (Asn(3), Asn(4), LinkKind::ProviderCustomer),
            (Asn(2), Asn(3), LinkKind::PeerPeer),
        ])
        .unwrap()
    }

    #[test]
    fn builds_diamond() {
        let t = diamond();
        assert_eq!(t.num_ases(), 4);
        assert_eq!(t.num_links(), 5);
        let i1 = t.index_of(Asn(1)).unwrap();
        let i4 = t.index_of(Asn(4)).unwrap();
        assert_eq!(t.customers(i1).count(), 2);
        assert_eq!(t.providers(i4).count(), 2);
        assert_eq!(t.degree(i1), 2);
        assert_eq!(t.asn_of(i1), Asn(1));
    }

    #[test]
    fn relationship_perspective() {
        let t = diamond();
        let i1 = t.index_of(Asn(1)).unwrap();
        let i2 = t.index_of(Asn(2)).unwrap();
        let i3 = t.index_of(Asn(3)).unwrap();
        // From AS1's perspective AS2 is a customer.
        assert_eq!(t.relationship(i1, i2), Some(NeighborKind::Customer));
        // From AS2's perspective AS1 is a provider.
        assert_eq!(t.relationship(i2, i1), Some(NeighborKind::Provider));
        assert_eq!(t.relationship(i2, i3), Some(NeighborKind::Peer));
    }

    #[test]
    fn relationship_matches_linear_scan_on_paper_topology() {
        use crate::gen::{generate, TopologyConfig};
        let t = generate(&TopologyConfig::paper(7)).topology;
        let linear = |a: AsIndex, b: AsIndex| {
            t.neighbors(a)
                .iter()
                .find(|(n, _)| *n == b)
                .map(|(_, k)| *k)
        };
        let n = t.num_ases() as u32;
        let mut edges = 0;
        for a in t.indices() {
            for &(b, kind) in t.neighbors(a) {
                assert_eq!(t.relationship(a, b), Some(kind));
                assert_eq!(t.relationship(a, b), linear(a, b));
                edges += 1;
            }
            // Non-edges (self, and a few fixed strides) agree too.
            for stride in [0, 1, 17, n / 2] {
                let b = AsIndex((a.0 + stride) % n);
                assert_eq!(t.relationship(a, b), linear(a, b));
            }
        }
        assert_eq!(edges, 2 * t.num_links());
    }

    #[test]
    fn stubs_and_provider_free() {
        let t = diamond();
        let stubs: Vec<Asn> = t.stubs().map(|i| t.asn_of(i)).collect();
        assert_eq!(stubs, vec![Asn(4)]);
        let core: Vec<Asn> = crate::cone::classify_tiers(&t)
            .iter()
            .zip(t.asns())
            .filter(|(tier, _)| **tier == crate::cone::Tier::Tier1)
            .map(|(_, &a)| a)
            .collect();
        assert_eq!(core, vec![Asn(1)]);
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = TopologyBuilder::new();
        b.add_as(Asn(1)).unwrap();
        assert_eq!(
            b.add_peering(Asn(1), Asn(1)),
            Err(TopologyError::SelfLoop(Asn(1)))
        );
    }

    #[test]
    fn rejects_duplicate_link() {
        let mut b = TopologyBuilder::new();
        b.add_as(Asn(1)).unwrap();
        b.add_as(Asn(2)).unwrap();
        b.add_provider_customer(Asn(1), Asn(2)).unwrap();
        assert!(matches!(
            b.add_peering(Asn(1), Asn(2)),
            Err(TopologyError::DuplicateLink(_, _))
        ));
    }

    #[test]
    fn rejects_duplicate_as_and_unknown_as() {
        let mut b = TopologyBuilder::new();
        b.add_as(Asn(1)).unwrap();
        assert_eq!(b.add_as(Asn(1)), Err(TopologyError::DuplicateAs(Asn(1))));
        assert_eq!(
            b.add_peering(Asn(1), Asn(9)),
            Err(TopologyError::UnknownAs(Asn(9)))
        );
    }

    #[test]
    fn neighbor_lists_sorted() {
        let t = diamond();
        for i in t.indices() {
            let ns: Vec<u32> = t.neighbors(i).iter().map(|(n, _)| n.0).collect();
            let mut sorted = ns.clone();
            sorted.sort_unstable();
            assert_eq!(ns, sorted);
        }
    }

    #[test]
    fn serde_roundtrip_with_rebuilt_index() {
        let t = diamond();
        let json = serde_json::to_string(&t).unwrap();
        assert!(!json.contains("index"), "index skipped by serde: {json}");
        let back: Topology = serde_json::from_str(&json).unwrap();
        for &a in t.asns() {
            assert_eq!(back.index_of(a), t.index_of(a));
        }
        assert_eq!(back.index_of(Asn(9)), None);
        assert_eq!(back.links(), t.links());
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn ensure_as_idempotent() {
        let mut b = TopologyBuilder::new();
        let i = b.ensure_as(Asn(5));
        let j = b.ensure_as(Asn(5));
        assert_eq!(i, j);
        assert_eq!(b.num_ases(), 1);
    }
}
