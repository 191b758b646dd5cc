//! Combining BGP and traceroute observations into measured catchments.
//!
//! Implements §IV-c of the paper: every AS seen on a feeder's AS-path or a
//! repaired traceroute votes for the ingress link of that path (BGP's
//! path-vector property makes the sub-path from any on-path AS that AS's
//! own route). When votes conflict — which happens for ~2.28 % of sources
//! in the paper's dataset, mostly from IP-to-AS errors — BGP votes take
//! priority over traceroute votes and the most common catchment wins.

use crate::repair::RepairedPath;
use trackdown_bgp::{Catchments, LinkId, Route, RoutingOutcome};
use trackdown_topology::{AsIndex, Asn, Topology};

/// One AS-path observed at a route collector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BgpObservation {
    /// The feeding AS.
    pub feeder: AsIndex,
    /// AS-level path, feeder first, PoP provider last. The origin ASN and
    /// any poison-sandwich ASes are already stripped: PEERING's `o u o`
    /// convention makes poisoned hops trivially identifiable (§IV-e).
    pub path: Vec<Asn>,
    /// Ingress link of the observed route.
    pub ingress: LinkId,
}

/// Collect the Loc-RIB exports of the feeder ASes.
pub fn collect_bgp_feeds(
    topo: &Topology,
    outcome: &RoutingOutcome,
    feeders: &[AsIndex],
    origin_asn: Asn,
) -> Vec<BgpObservation> {
    let mut raw = Vec::new();
    feeders
        .iter()
        .filter_map(|&f| {
            outcome.best[f.us()].as_ref().map(|r| {
                let mut path = Vec::new();
                feed_path(topo, outcome, f, r, origin_asn, &mut raw, |a| path.push(a));
                BgpObservation {
                    feeder: f,
                    path,
                    ingress: r.ingress,
                }
            })
        })
        .collect()
}

/// Emit the [`BgpObservation::path`] of `feeder`'s best route `route`:
/// the feeder's ASN, then each distinct AS of the route's AS-path in
/// order, except the origin and the ASes it poisons (those between two
/// occurrences of the origin). `raw` is scratch for the AS-path, read in
/// place from the outcome's path store.
pub(crate) fn feed_path(
    topo: &Topology,
    outcome: &RoutingOutcome,
    feeder: AsIndex,
    route: &Route,
    origin_asn: Asn,
    raw: &mut Vec<Asn>,
    mut emit: impl FnMut(Asn),
) {
    emit(topo.asn_of(feeder));
    raw.clear();
    raw.extend(outcome.paths.iter(route.path_id));
    let first = raw.iter().position(|&a| a == origin_asn);
    let last = raw.iter().rposition(|&a| a == origin_asn);
    let poisoned = match (first, last) {
        (Some(f), Some(l)) if f < l => &raw[f + 1..l],
        _ => &[],
    };
    for (k, &a) in raw.iter().enumerate() {
        if a != origin_asn && !poisoned.contains(&a) && !raw[..k].contains(&a) {
            emit(a);
        }
    }
}

/// Catchments as measured from the observation plane, with per-source
/// bookkeeping for the visibility analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredCatchments {
    /// The per-AS link assignment the origin infers.
    pub catchments: Catchments,
    /// True when any observation covered the AS.
    pub observed: Vec<bool>,
    /// True when observations disagreed about the AS's catchment.
    pub multi_catchment: Vec<bool>,
}

impl MeasuredCatchments {
    /// Fraction of observed sources that appeared in multiple catchments
    /// (the paper reports 2.28 % on average).
    pub fn multi_catchment_rate(&self) -> f64 {
        let observed = self.observed.iter().filter(|o| **o).count();
        if observed == 0 {
            return 0.0;
        }
        let multi = self
            .multi_catchment
            .iter()
            .zip(&self.observed)
            .filter(|(m, o)| **m && **o)
            .count();
        multi as f64 / observed as f64
    }

    /// Number of sources covered by at least one observation.
    pub fn observed_count(&self) -> usize {
        self.observed.iter().filter(|o| **o).count()
    }
}

/// Flat per-(AS, link) vote counters for one epoch: two `u32` tables of
/// `n × width` cells (BGP and traceroute votes), zeroed and refilled per
/// epoch instead of a `Vec` of votes per AS.
#[derive(Debug, Default)]
pub(crate) struct VoteTally {
    n: usize,
    width: usize,
    bgp: Vec<u32>,
    traceroute: Vec<u32>,
}

impl VoteTally {
    /// Zero the counters for `n` ASes and links below `width`.
    pub(crate) fn reset(&mut self, n: usize, width: usize) {
        self.n = n;
        self.width = width;
        for table in [&mut self.bgp, &mut self.traceroute] {
            table.clear();
            table.resize(n * width, 0);
        }
    }

    /// Every on-path AS of a BGP feed path votes for the route's ingress
    /// (BGP's path-vector property makes the sub-path from any on-path AS
    /// that AS's own route).
    pub(crate) fn vote_bgp(&mut self, path: impl IntoIterator<Item = AsIndex>, ingress: LinkId) {
        for i in path {
            self.bgp[i.us() * self.width + ingress.us()] += 1;
        }
    }

    /// A traceroute that reached the origin through `link` votes for it
    /// at the probe's AS (the probe always knows its own AS, independent
    /// of IP-to-AS) and at every other AS on its repaired path.
    pub(crate) fn vote_traceroute(
        &mut self,
        probe: AsIndex,
        path: impl IntoIterator<Item = AsIndex>,
        link: LinkId,
    ) {
        self.traceroute[probe.us() * self.width + link.us()] += 1;
        for i in path {
            if i != probe {
                self.traceroute[i.us() * self.width + link.us()] += 1;
            }
        }
    }

    /// Resolve every AS under the priority rules of
    /// [`combine_observations`]. `dense` is scratch for the per-AS
    /// assignment; the result's vectors are the only allocations.
    pub(crate) fn resolve(&self, dense: &mut Vec<Option<LinkId>>) -> MeasuredCatchments {
        let (n, w) = (self.n, self.width);
        dense.clear();
        let mut observed = Vec::with_capacity(n);
        let mut multi = Vec::with_capacity(n);
        for i in 0..n {
            let b = &self.bgp[i * w..(i + 1) * w];
            let t = &self.traceroute[i * w..(i + 1) * w];
            let votes = if b.iter().any(|&c| c > 0) { b } else { t };
            dense.push(majority(votes));
            let distinct = b.iter().zip(t).filter(|(&x, &y)| x + y > 0).count();
            observed.push(distinct > 0);
            multi.push(distinct > 1);
        }
        MeasuredCatchments {
            catchments: Catchments::from_dense(dense),
            observed,
            multi_catchment: multi,
        }
    }
}

/// Majority link of one AS's per-link vote counts; ties break toward the
/// smaller link id so the outcome is deterministic.
fn majority(votes: &[u32]) -> Option<LinkId> {
    let mut best = None;
    let mut best_count = 0;
    for (l, &c) in votes.iter().enumerate() {
        if c > best_count {
            best = Some(LinkId(l as u8));
            best_count = c;
        }
    }
    best
}

/// Counter width covering every link in `links`.
pub(crate) fn tally_width(links: impl IntoIterator<Item = LinkId>) -> usize {
    links.into_iter().map(|l| l.us() + 1).max().unwrap_or(0)
}

/// Combine BGP and traceroute observations into measured catchments,
/// applying the paper's priority rules:
/// 1. A source with BGP votes uses the BGP majority (BGP is trusted over
///    traceroute to minimize IP-to-AS errors).
/// 2. Otherwise the traceroute majority applies.
/// 3. Conflicting votes of any kind set the `multi_catchment` flag.
///
/// Traceroutes that never reached the origin carry no vote.
pub fn combine_observations(
    topo: &Topology,
    bgp: &[BgpObservation],
    traceroutes: &[RepairedPath],
) -> MeasuredCatchments {
    let links = bgp.iter().map(|o| o.ingress);
    let width = tally_width(links.chain(traceroutes.iter().filter_map(|rp| rp.reached)));
    let mut tally = VoteTally::default();
    tally.reset(topo.num_ases(), width);
    // ASNs outside the topology cast no vote.
    for obs in bgp {
        let path = obs.path.iter().filter_map(|&a| topo.index_of(a));
        tally.vote_bgp(path, obs.ingress);
    }
    for rp in traceroutes {
        if let Some(link) = rp.reached {
            let path = rp.path.iter().filter_map(|&a| topo.index_of(a));
            tally.vote_traceroute(rp.probe, path, link);
        }
    }
    tally.resolve(&mut Vec::new())
}

/// The pre-flattening combination, kept as the oracle for
/// [`combine_observations`]: two `Vec<Vec<LinkId>>` vote tables of
/// `num_ases` rows and a sort/dedup per AS.
#[cfg(test)]
pub(crate) mod reference {
    use super::{BgpObservation, MeasuredCatchments};
    use crate::repair::RepairedPath;
    use trackdown_bgp::{Catchments, LinkId};
    use trackdown_topology::{AsIndex, Topology};

    /// Majority link among votes; ties break toward the smaller link id.
    pub(crate) fn majority(votes: &[LinkId]) -> Option<LinkId> {
        if votes.is_empty() {
            return None;
        }
        let mut sorted = votes.to_vec();
        sorted.sort_unstable();
        let mut best = sorted[0];
        let mut best_count = 0usize;
        let mut i = 0usize;
        while i < sorted.len() {
            let v = sorted[i];
            let mut j = i;
            while j < sorted.len() && sorted[j] == v {
                j += 1;
            }
            if j - i > best_count {
                best = v;
                best_count = j - i;
            }
            i = j;
        }
        Some(best)
    }

    pub(crate) fn combine_observations(
        topo: &Topology,
        bgp: &[BgpObservation],
        traceroutes: &[RepairedPath],
    ) -> MeasuredCatchments {
        let n = topo.num_ases();
        let mut bgp_votes: Vec<Vec<LinkId>> = vec![Vec::new(); n];
        let mut tr_votes: Vec<Vec<LinkId>> = vec![Vec::new(); n];

        for obs in bgp {
            for a in &obs.path {
                if let Some(i) = topo.index_of(*a) {
                    bgp_votes[i.us()].push(obs.ingress);
                }
            }
        }
        for rp in traceroutes {
            let Some(link) = rp.reached else { continue };
            tr_votes[rp.probe.us()].push(link);
            for a in &rp.path {
                if let Some(i) = topo.index_of(*a) {
                    if i != rp.probe {
                        tr_votes[i.us()].push(link);
                    }
                }
            }
        }

        let mut catchments = Catchments::unassigned(n);
        let mut observed = vec![false; n];
        let mut multi = vec![false; n];
        for i in 0..n {
            let b = &bgp_votes[i];
            let t = &tr_votes[i];
            let assignment = if !b.is_empty() {
                majority(b)
            } else {
                majority(t)
            };
            observed[i] = !b.is_empty() || !t.is_empty();
            let mut distinct: Vec<LinkId> = b.iter().chain(t.iter()).copied().collect();
            distinct.sort_unstable();
            distinct.dedup();
            multi[i] = distinct.len() > 1;
            catchments.set(AsIndex(i as u32), assignment);
        }
        MeasuredCatchments {
            catchments,
            observed,
            multi_catchment: multi,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trackdown_topology::{topology_from_links, LinkKind};

    fn topo3() -> Topology {
        topology_from_links([
            (Asn(1), Asn(2), LinkKind::ProviderCustomer),
            (Asn(2), Asn(3), LinkKind::ProviderCustomer),
        ])
        .unwrap()
    }

    fn rp(probe: u32, path: &[u32], link: Option<LinkId>) -> RepairedPath {
        RepairedPath {
            probe: AsIndex(probe),
            reached: link,
            path: path.iter().map(|&x| Asn(x)).collect(),
            ignored_hops: 0,
            repaired_hops: 0,
            ixp_hops: 0,
        }
    }

    #[test]
    fn majority_prefers_most_common_then_smallest() {
        assert_eq!(majority(&[]), None);
        assert_eq!(majority(&[0, 0, 0]), None);
        assert_eq!(majority(&[0, 0, 1]), Some(LinkId(2)));
        assert_eq!(majority(&[0, 1, 2]), Some(LinkId(2)));
        // Tie: smaller id wins.
        assert_eq!(majority(&[0, 1, 0, 1]), Some(LinkId(1)));
        let r = reference::majority;
        assert_eq!(r(&[]), None);
        assert_eq!(r(&[LinkId(1), LinkId(2), LinkId(2)]), Some(LinkId(2)));
        assert_eq!(r(&[LinkId(3), LinkId(1)]), Some(LinkId(1)));
    }

    #[test]
    fn on_path_ases_inherit_the_ingress() {
        let topo = topo3();
        let obs = vec![BgpObservation {
            feeder: AsIndex(2),
            path: vec![Asn(3), Asn(2), Asn(1)],
            ingress: LinkId(4),
        }];
        let m = combine_observations(&topo, &obs, &[]);
        for i in 0..3 {
            assert_eq!(m.catchments.get(AsIndex(i)), Some(LinkId(4)));
            assert!(m.observed[i as usize]);
            assert!(!m.multi_catchment[i as usize]);
        }
        assert_eq!(m.multi_catchment_rate(), 0.0);
        assert_eq!(m.observed_count(), 3);
    }

    #[test]
    fn bgp_priority_over_traceroute() {
        let topo = topo3();
        let obs = vec![BgpObservation {
            feeder: AsIndex(0),
            path: vec![Asn(1)],
            ingress: LinkId(0),
        }];
        // Traceroute says AS1 is behind link 1 (e.g. via a mis-mapped hop).
        let trs = vec![rp(2, &[3, 1], Some(LinkId(1)))];
        let m = combine_observations(&topo, &obs, &trs);
        let i1 = topo.index_of(Asn(1)).unwrap();
        assert_eq!(m.catchments.get(i1), Some(LinkId(0)), "BGP wins");
        assert!(m.multi_catchment[i1.us()]);
        assert!(m.multi_catchment_rate() > 0.0);
    }

    #[test]
    fn traceroute_majority_when_no_bgp() {
        let topo = topo3();
        let trs = vec![
            rp(2, &[3, 2], Some(LinkId(0))),
            rp(2, &[3, 2], Some(LinkId(0))),
            rp(2, &[3, 2], Some(LinkId(1))),
        ];
        let m = combine_observations(&topo, &[], &trs);
        let i2 = topo.index_of(Asn(2)).unwrap();
        assert_eq!(m.catchments.get(i2), Some(LinkId(0)));
        assert!(m.multi_catchment[i2.us()]);
        // AS1 never observed.
        let i1 = topo.index_of(Asn(1)).unwrap();
        assert_eq!(m.catchments.get(i1), None);
        assert!(!m.observed[i1.us()]);
    }

    #[test]
    fn unreached_traceroutes_contribute_nothing() {
        let topo = topo3();
        let trs = vec![rp(2, &[3, 2, 1], None)];
        let m = combine_observations(&topo, &[], &trs);
        assert_eq!(m.observed_count(), 0);
    }

    #[test]
    fn edge_cases_match_reference() {
        let topo = topo3();
        let obs = vec![
            // A BGP tie on AS1 between links 1 and 2, and an ASN outside
            // the topology.
            BgpObservation {
                feeder: AsIndex(0),
                path: vec![Asn(1), Asn(777)],
                ingress: LinkId(2),
            },
            BgpObservation {
                feeder: AsIndex(0),
                path: vec![Asn(1)],
                ingress: LinkId(1),
            },
        ];
        let trs = vec![
            // A traceroute tie on AS3, an unreached traceroute, a probe
            // that appears on its own path, and an outside ASN.
            rp(2, &[3, 2], Some(LinkId(3))),
            rp(2, &[3, 888], Some(LinkId(0))),
            rp(1, &[2, 1], None),
            rp(1, &[2, 2, 1], Some(LinkId(3))),
        ];
        let m = combine_observations(&topo, &obs, &trs);
        assert_eq!(m, reference::combine_observations(&topo, &obs, &trs));
        let want = vec![Some(LinkId(1)), Some(LinkId(3)), Some(LinkId(0))];
        assert_eq!(m.catchments.dense(), want);
        assert_eq!(m.multi_catchment, vec![true, false, true]);
        // No observation at all.
        let empty = combine_observations(&topo, &[], &[]);
        assert_eq!(empty, reference::combine_observations(&topo, &[], &[]));
        assert_eq!(empty.observed_count(), 0);
    }

    #[test]
    fn out_of_topology_asns_are_skipped() {
        let topo = topo3();
        let obs = vec![BgpObservation {
            feeder: AsIndex(0),
            path: vec![Asn(1), Asn(999_999)],
            ingress: LinkId(0),
        }];
        let m = combine_observations(&topo, &obs, &[]);
        assert_eq!(m.observed_count(), 1);
    }
}
