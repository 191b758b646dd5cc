//! Structural analysis helpers: hop distances, summary statistics and
//! connectivity checks used both by tests and by the paper's Figure 7
//! (cluster size as a function of AS-hop distance from the origin).

use crate::{AsIndex, Topology};
use std::collections::VecDeque;

/// Breadth-first AS-hop distances from a set of seed ASes.
///
/// `distance[i]` is the minimum number of inter-AS links between AS `i` and
/// the *closest* seed, or `u32::MAX` if unreachable. Relationship direction
/// is ignored — this is topological distance, matching how the paper groups
/// ASes by "AS-hop distance to the closest PEERING location".
pub fn multi_source_distances(topo: &Topology, seeds: &[AsIndex]) -> Vec<u32> {
    let mut dist = vec![u32::MAX; topo.num_ases()];
    let mut queue = VecDeque::new();
    for &s in seeds {
        if dist[s.us()] == u32::MAX {
            dist[s.us()] = 0;
            queue.push_back(s);
        }
    }
    while let Some(v) = queue.pop_front() {
        let d = dist[v.us()];
        for &(n, _) in topo.neighbors(v) {
            if dist[n.us()] == u32::MAX {
                dist[n.us()] = d + 1;
                queue.push_back(n);
            }
        }
    }
    dist
}

/// True if every AS can reach every other AS ignoring link direction.
pub fn is_connected(topo: &Topology) -> bool {
    if topo.num_ases() == 0 {
        return true;
    }
    let d = multi_source_distances(topo, &[AsIndex(0)]);
    d.iter().all(|&x| x != u32::MAX)
}

/// Summary statistics over a slice of sizes/counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SummaryStats {
    /// Arithmetic mean (0 for an empty input).
    pub mean: f64,
    /// Minimum (0 for empty).
    pub min: usize,
    /// Maximum (0 for empty).
    pub max: usize,
    /// Median (0 for empty).
    pub median: usize,
    /// 90th percentile (0 for empty), nearest-rank method.
    pub p90: usize,
}

/// Compute [`SummaryStats`] with the nearest-rank percentile method.
pub fn summary_stats(values: &[usize]) -> SummaryStats {
    if values.is_empty() {
        return SummaryStats {
            mean: 0.0,
            min: 0,
            max: 0,
            median: 0,
            p90: 0,
        };
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    let rank = |p: f64| -> usize {
        let r = (p * n as f64).ceil() as usize;
        sorted[r.clamp(1, n) - 1]
    };
    SummaryStats {
        mean: sorted.iter().sum::<usize>() as f64 / n as f64,
        min: sorted[0],
        max: sorted[n - 1],
        median: rank(0.5),
        p90: rank(0.9),
    }
}

/// Complementary cumulative distribution over positive integer sizes:
/// returns `(size, fraction_of_items_with_value >= size)` pairs for each
/// distinct size, ascending. Matches the CCDF axes of Figures 3 and 6.
pub fn ccdf(values: &[usize]) -> Vec<(usize, f64)> {
    if values.is_empty() {
        return Vec::new();
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let n = sorted.len() as f64;
    let mut out = Vec::new();
    let mut i = 0;
    while i < sorted.len() {
        let v = sorted[i];
        // Items >= v are everything from index i on.
        out.push((v, (sorted.len() - i) as f64 / n));
        while i < sorted.len() && sorted[i] == v {
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, TopologyConfig};
    use crate::{topology_from_links, Asn, LinkKind};

    #[test]
    fn distances_on_chain() {
        let t = topology_from_links([
            (Asn(1), Asn(2), LinkKind::ProviderCustomer),
            (Asn(2), Asn(3), LinkKind::ProviderCustomer),
            (Asn(3), Asn(4), LinkKind::ProviderCustomer),
        ])
        .unwrap();
        let i1 = t.index_of(Asn(1)).unwrap();
        let d = multi_source_distances(&t, &[i1]);
        assert_eq!(d[t.index_of(Asn(1)).unwrap().us()], 0);
        assert_eq!(d[t.index_of(Asn(2)).unwrap().us()], 1);
        assert_eq!(d[t.index_of(Asn(4)).unwrap().us()], 3);
    }

    #[test]
    fn multi_source_takes_minimum() {
        let t = topology_from_links([
            (Asn(1), Asn(2), LinkKind::ProviderCustomer),
            (Asn(2), Asn(3), LinkKind::ProviderCustomer),
            (Asn(3), Asn(4), LinkKind::ProviderCustomer),
        ])
        .unwrap();
        let seeds = [t.index_of(Asn(1)).unwrap(), t.index_of(Asn(4)).unwrap()];
        let d = multi_source_distances(&t, &seeds);
        assert_eq!(d[t.index_of(Asn(2)).unwrap().us()], 1);
        assert_eq!(d[t.index_of(Asn(3)).unwrap().us()], 1);
    }

    #[test]
    fn generated_topology_is_connected() {
        for seed in 0..5 {
            let g = generate(&TopologyConfig::small(seed));
            assert!(is_connected(&g.topology), "seed {seed} disconnected");
        }
    }

    #[test]
    fn summary_stats_basics() {
        let s = summary_stats(&[1, 2, 3, 4, 100]);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        assert_eq!(s.median, 3);
        assert!((s.mean - 22.0).abs() < 1e-9);
        assert_eq!(s.p90, 100);
        let empty = summary_stats(&[]);
        assert_eq!(empty.max, 0);
    }

    #[test]
    fn ccdf_shape() {
        let c = ccdf(&[1, 1, 1, 2, 5]);
        assert_eq!(c[0], (1, 1.0));
        assert_eq!(c[1], (2, 0.4));
        assert_eq!(c[2], (5, 0.2));
        assert!(ccdf(&[]).is_empty());
    }
}
