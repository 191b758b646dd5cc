//! Volume attribution: from per-AS spoofed volume to per-link and
//! per-cluster aggregates (feeds Figure 10).

use trackdown_bgp::{Catchments, LinkId};
use trackdown_topology::AsIndex;

/// Aggregate per-AS volumes onto peering links through the catchments:
/// each link sums the volume over its member bitset row
/// ([`Catchments::member_sums`]), so no AS needs a per-source link lookup.
/// Volume from unassigned ASes is dropped.
///
/// # Panics
/// Panics if a link at or beyond `num_links` carries nonzero volume.
pub fn volume_per_link(
    catchments: &Catchments,
    volume_per_as: &[u64],
    num_links: usize,
) -> Vec<u64> {
    let mut out = vec![0u64; num_links];
    for (link, v) in catchments.member_sums(volume_per_as) {
        if v > 0 {
            out[link.us()] += v;
        }
    }
    out
}

/// The link carrying the most volume, ties toward the lower id.
///
/// # Panics
/// Panics if `volumes` has more entries than the `LinkId` space (256):
/// truncating the index would alias distinct links.
pub fn hottest(volumes: &[u64]) -> Option<LinkId> {
    volumes
        .iter()
        .enumerate()
        .filter(|(_, v)| **v > 0)
        .max_by_key(|(i, v)| (**v, usize::MAX - *i))
        .map(|(i, _)| LinkId::from_usize(i))
}

/// Figure 10 series: cumulative fraction of total volume originated from
/// clusters of size ≤ x, returned as ascending `(cluster_size,
/// cumulative_fraction)` points.
///
/// `clusters` partition (a subset of) the AS space; volume from ASes not
/// covered by any cluster is excluded from the total.
pub fn cumulative_volume_by_cluster_size(
    clusters: &[Vec<AsIndex>],
    volume_per_as: &[u64],
) -> Vec<(usize, f64)> {
    cumulative_volume_by_cluster_slices(clusters.iter().map(|c| c.as_slice()), volume_per_as)
}

/// [`cumulative_volume_by_cluster_size`] over borrowed member slices, so
/// callers holding a CSR-backed clustering (e.g.
/// `Clustering::iter_clusters`) never materialize `Vec<Vec<AsIndex>>`.
///
/// # Panics
/// Panics when `volume_per_as` does not cover every cluster member: a
/// short row would read as zero volume and silently exonerate clusters
/// (the same width contract `validate_link_volumes` enforces in
/// `trackdown-core`).
pub fn cumulative_volume_by_cluster_slices<'a>(
    clusters: impl IntoIterator<Item = &'a [AsIndex]>,
    volume_per_as: &[u64],
) -> Vec<(usize, f64)> {
    let mut per_size: std::collections::BTreeMap<usize, u64> = std::collections::BTreeMap::new();
    let mut total = 0u64;
    for cluster in clusters {
        if let Some(max) = cluster.iter().map(|a| a.us()).max() {
            assert!(
                max < volume_per_as.len(),
                "volume_per_as covers {} ASes but a cluster reaches AS index {}; \
                 missing entries would read as zero volume and silently exonerate clusters",
                volume_per_as.len(),
                max
            );
        }
        let v: u64 = cluster.iter().map(|a| volume_per_as[a.us()]).sum();
        total += v;
        *per_size.entry(cluster.len()).or_insert(0) += v;
    }
    if total == 0 {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(per_size.len());
    let mut acc = 0u64;
    for (size, v) in per_size {
        acc += v;
        out.push((size, acc as f64 / total as f64));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_link_aggregation() {
        let mut c = Catchments::unassigned(4);
        c.set(AsIndex(0), Some(LinkId(0)));
        c.set(AsIndex(1), Some(LinkId(2)));
        c.set(AsIndex(2), Some(LinkId(2)));
        let v = volume_per_link(&c, &[10, 20, 30, 40], 3);
        assert_eq!(v, vec![10, 0, 50]); // AS3's 40 is unattributed
        assert_eq!(hottest(&v), Some(LinkId(2)));
        assert_eq!(hottest(&[0, 0]), None);
    }

    #[test]
    fn cumulative_series_is_monotone_and_ends_at_one() {
        let clusters = vec![
            vec![AsIndex(0)],                         // size 1, vol 5
            vec![AsIndex(1), AsIndex(2)],             // size 2, vol 15
            vec![AsIndex(3), AsIndex(4), AsIndex(5)], // size 3, vol 0
        ];
        let vols = [5u64, 10, 5, 0, 0, 0];
        let series = cumulative_volume_by_cluster_size(&clusters, &vols);
        assert_eq!(series, vec![(1, 0.25), (2, 1.0), (3, 1.0)]);
        for w in series.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn same_size_clusters_merge() {
        let clusters = vec![vec![AsIndex(0)], vec![AsIndex(1)]];
        let vols = [1u64, 3];
        let series = cumulative_volume_by_cluster_size(&clusters, &vols);
        assert_eq!(series, vec![(1, 1.0)]);
    }

    #[test]
    fn zero_volume_yields_empty_series() {
        let clusters = vec![vec![AsIndex(0)]];
        assert!(cumulative_volume_by_cluster_size(&clusters, &[0]).is_empty());
    }

    /// Regression: a volume row shorter than the cluster space used to
    /// read missing ASes as 0 via `unwrap_or(0)`, silently zeroing the
    /// cluster's contribution. The width contract now panics instead.
    #[test]
    #[should_panic(expected = "silently exonerate")]
    fn short_volume_row_panics_instead_of_exonerating() {
        let clusters = vec![vec![AsIndex(0)], vec![AsIndex(5), AsIndex(6)]];
        // Only 2 entries: AS5/AS6 are out of range, not zero-volume.
        let vols = [5u64, 7];
        let _ = cumulative_volume_by_cluster_size(&clusters, &vols);
    }

    /// Regression: `hottest` used to truncate the winning index with
    /// `as u8`, aliasing link 256 onto link 0.
    #[test]
    #[should_panic(expected = "truncation would alias")]
    fn hottest_guards_linkid_truncation() {
        let mut vols = vec![0u64; 300];
        vols[256] = 9; // would wrap to LinkId(0) under `as u8`
        let _ = hottest(&vols);
    }

    /// In-range volumes keep working after the truncation guard.
    #[test]
    fn hottest_accepts_full_linkid_range() {
        let mut vols = vec![0u64; 256];
        vols[255] = 3;
        assert_eq!(hottest(&vols), Some(LinkId(255)));
    }
}
