//! Cluster size as a function of AS-hop distance from the origin
//! (§V-B, Figure 7).
//!
//! The paper groups ASes by their distance to the closest PEERING
//! location and finds nearby ASes end up in smaller clusters (1.85 ASes
//! on average at 1–2 hops vs 2.64 at 3+).

use crate::cluster::Clustering;
use serde::{Deserialize, Serialize};
use trackdown_bgp::OriginAs;
use trackdown_topology::analysis::multi_source_distances;
use trackdown_topology::{AsIndex, Topology};

/// Distance from each AS to the origin in AS hops: the PoP providers are
/// one hop from the origin, their neighbors two, and so on. `u32::MAX`
/// for unreachable ASes.
pub fn distance_from_origin(topo: &Topology, origin: &OriginAs) -> Vec<u32> {
    let seeds: Vec<AsIndex> = origin
        .links
        .iter()
        .filter_map(|l| topo.index_of(l.provider))
        .collect();
    multi_source_distances(topo, &seeds)
        .into_iter()
        .map(|d| d.saturating_add(1))
        .collect()
}

/// One distance group's cumulative cluster-size distribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistanceGroup {
    /// Group label: exact hop count, with the last group meaning "this
    /// many hops or more".
    pub hops: u32,
    /// True when the group aggregates `hops` and beyond ("4+").
    pub open_ended: bool,
    /// Number of tracked ASes in the group.
    pub ases: usize,
    /// Mean cluster size over the group's ASes.
    pub mean_cluster_size: f64,
    /// Ascending `(cluster_size, cumulative fraction of the group's ASes
    /// in clusters of size ≤ cluster_size)` points.
    pub cdf: Vec<(usize, f64)>,
}

/// Group tracked ASes by hop distance (1, 2, …, `max_group`+) and compute
/// each group's cluster-size CDF under the final clustering.
pub fn cluster_size_by_distance(
    topo: &Topology,
    origin: &OriginAs,
    clustering: &Clustering,
    max_group: u32,
) -> Vec<DistanceGroup> {
    let dist = distance_from_origin(topo, origin);
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); max_group as usize];
    for &s in clustering.sources() {
        let d = dist[s.us()];
        if d == u32::MAX {
            continue;
        }
        let g = (d.min(max_group) - 1) as usize;
        let size = clustering
            .cluster_size_of(s)
            .expect("tracked source has a cluster");
        groups[g].push(size);
    }
    groups
        .into_iter()
        .enumerate()
        .map(|(g, mut sizes)| {
            sizes.sort_unstable();
            let n = sizes.len();
            let mean = if n == 0 {
                0.0
            } else {
                sizes.iter().sum::<usize>() as f64 / n as f64
            };
            let mut cdf = Vec::new();
            let mut i = 0usize;
            while i < n {
                let v = sizes[i];
                while i < n && sizes[i] == v {
                    i += 1;
                }
                cdf.push((v, i as f64 / n as f64));
            }
            DistanceGroup {
                hops: g as u32 + 1,
                open_ended: g as u32 + 1 == max_group,
                ases: n,
                mean_cluster_size: mean,
                cdf,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use trackdown_bgp::Catchments;
    use trackdown_topology::gen::{generate, TopologyConfig};
    use trackdown_topology::{topology_from_links, Asn, LinkKind};

    #[test]
    fn providers_are_one_hop() {
        let g = generate(&TopologyConfig::small(3));
        let origin = OriginAs::peering_style(&g, 3);
        let d = distance_from_origin(&g.topology, &origin);
        for l in &origin.links {
            let i = g.topology.index_of(l.provider).unwrap();
            assert_eq!(d[i.us()], 1);
        }
        // Everything reachable (connected topology).
        assert!(d.iter().all(|&x| x != u32::MAX));
        assert!(d.iter().any(|&x| x >= 2));
    }

    #[test]
    fn chain_distances() {
        let topo = topology_from_links([
            (Asn(10), Asn(20), LinkKind::ProviderCustomer),
            (Asn(20), Asn(30), LinkKind::ProviderCustomer),
        ])
        .unwrap();
        let origin = OriginAs::new(Asn(47065), vec![("P".into(), Asn(10))]);
        let d = distance_from_origin(&topo, &origin);
        assert_eq!(d[topo.index_of(Asn(10)).unwrap().us()], 1);
        assert_eq!(d[topo.index_of(Asn(20)).unwrap().us()], 2);
        assert_eq!(d[topo.index_of(Asn(30)).unwrap().us()], 3);
    }

    #[test]
    fn grouping_and_cdf() {
        let topo = topology_from_links([
            (Asn(10), Asn(20), LinkKind::ProviderCustomer),
            (Asn(20), Asn(30), LinkKind::ProviderCustomer),
            (Asn(30), Asn(40), LinkKind::ProviderCustomer),
        ])
        .unwrap();
        let origin = OriginAs::new(Asn(47065), vec![("P".into(), Asn(10))]);
        let sources: Vec<AsIndex> = topo.indices().collect();
        let mut clustering = Clustering::single(sources);
        // Split {10} | {20,30,40}.
        let mut c = Catchments::unassigned(4);
        for i in topo.indices() {
            let solo = topo.asn_of(i) == Asn(10);
            c.set(i, Some(trackdown_bgp::LinkId(u8::from(solo))));
        }
        clustering.refine(&c);

        let groups = cluster_size_by_distance(&topo, &origin, &clustering, 3);
        assert_eq!(groups.len(), 3);
        // Group 1 (1 hop): just AS10, singleton cluster.
        assert_eq!(groups[0].ases, 1);
        assert_eq!(groups[0].mean_cluster_size, 1.0);
        assert_eq!(groups[0].cdf, vec![(1, 1.0)]);
        // Group 3 is open-ended and holds AS30 (3 hops) and AS40 (4 hops),
        // both in the size-3 cluster.
        assert!(groups[2].open_ended);
        assert_eq!(groups[2].ases, 2);
        assert_eq!(groups[2].mean_cluster_size, 3.0);
    }

    #[test]
    fn near_ases_in_smaller_clusters_end_to_end() {
        // On a real campaign, the near groups should have mean cluster
        // size no larger than the farthest group (the paper's Figure 7
        // trend).
        let g = generate(&TopologyConfig::medium(41));
        let origin = OriginAs::peering_style(&g, 4);
        let engine =
            trackdown_bgp::BgpEngine::new(&g.topology, &trackdown_bgp::EngineConfig::default());
        let schedule = crate::generator::full_schedule(
            &g.topology,
            &origin,
            &crate::generator::GeneratorParams {
                max_removals: 2,
                max_poison_configs: Some(20),
            },
        );
        let campaign = crate::localize::run_campaign(
            &engine,
            &origin,
            &schedule,
            &crate::localize::CampaignOpts::default(),
        )
        .expect("valid schedule");
        let groups = cluster_size_by_distance(&g.topology, &origin, &campaign.clustering, 4);
        // Note: a PoP provider shares its cluster with its single-homed
        // customers (they follow its choices in every configuration), so
        // group means at 1–2 hops legitimately include those blocks; only
        // structural properties are asserted here, the Figure 7 trend is
        // evaluated at experiment scale.
        // Every tracked AS lands in exactly one group.
        let total: usize = groups.iter().map(|g| g.ases).sum();
        assert_eq!(total, campaign.tracked.len());
        // CDFs are monotone and end at 1 for non-empty groups.
        for g in &groups {
            for w in g.cdf.windows(2) {
                assert!(w[0].0 < w[1].0 && w[0].1 <= w[1].1);
            }
            if g.ases > 0 {
                assert!((g.cdf.last().unwrap().1 - 1.0).abs() < 1e-9);
            }
        }
    }
}
