//! Catchment-intersection clustering (§III-B) on an indexed,
//! incremental core.
//!
//! A *cluster* is a set of sources that landed in the same catchment in
//! every announcement configuration deployed so far: from the origin's
//! vantage, its members are mutually indistinguishable. The paper's
//! algorithm starts with one all-encompassing cluster and, for each
//! catchment `α` of each configuration, splits every overlapping cluster
//! `κ` into `κ∩α` and `κ∖α`.
//!
//! The incremental implementation here is equivalent but O(n) per
//! configuration: two sources stay in the same cluster iff their whole
//! catchment-assignment histories are identical, so each refinement maps
//! `(old cluster, new catchment)` pairs to new cluster ids. A direct
//! transcription of the paper's split loop is kept (`split_by_naive`) and
//! property-tested against the fast path.
//!
//! Beyond the flat assignment vector, the partition maintains two
//! *derived index structures* so the attribution plane never scans:
//!
//! * a persistent source→position map, making [`Clustering::cluster_of`]
//!   and [`Clustering::cluster_size_of`] O(1) instead of an O(n)
//!   `position()` scan per call (the old scans are preserved as
//!   `Clustering::cluster_of_scan` / `Clustering::cluster_size_of_scan`
//!   behind the test-only `reference` feature, for regression tests and
//!   benchmarks);
//! * a CSR-style membership layout (`offsets` + `members`), so
//!   [`Clustering::cluster_members`] returns a borrowed slice and
//!   [`Clustering::iter_clusters`] walks every cluster without
//!   materializing a `Vec<Vec<AsIndex>>`.
//!
//! Each [`Clustering::refine_logged`] additionally reports a
//! [`RefineDelta`] — the old→new cluster mapping, the catchment link each
//! new cluster landed on, and the *split log* (which clusters split, into
//! what) — which is what lets suspect ranking and volume estimation in
//! `localize` update per configuration instead of rescanning catchments.

use serde::{Deserialize, Serialize};
use trackdown_bgp::{Catchments, LinkId};
use trackdown_topology::analysis::{ccdf, summary_stats, SummaryStats};
use trackdown_topology::fxhash::FxHashMap;
use trackdown_topology::AsIndex;

/// A partition of the tracked sources into indistinguishability clusters.
///
/// Serialized form carries only the canonical fields (`sources`,
/// `assignment`, `num_clusters`); the lookup index and CSR membership are
/// derived and rebuilt on deserialization, so the wire format is
/// unchanged from the pre-indexed implementation.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(from = "ClusteringRepr", into = "ClusteringRepr")]
pub struct Clustering {
    /// The tracked sources, fixed at construction.
    sources: Vec<AsIndex>,
    /// `assignment[k]` = cluster id of `sources[k]`.
    assignment: Vec<u32>,
    /// Number of clusters (ids are `0..num_clusters`).
    num_clusters: u32,
    /// Derived: source → position in `sources` (first occurrence wins,
    /// matching the old `position()` scan).
    index: FxHashMap<AsIndex, u32>,
    /// Derived CSR row offsets: cluster `c`'s members live at
    /// `members[offsets[c]..offsets[c + 1]]`. Length `num_clusters + 1`.
    offsets: Vec<u32>,
    /// Derived CSR member lists, cluster-major, source order within each
    /// cluster (the same order `clusters()` always produced).
    members: Vec<AsIndex>,
}

/// Canonical serialized fields of [`Clustering`].
#[derive(Clone, Serialize, Deserialize)]
struct ClusteringRepr {
    sources: Vec<AsIndex>,
    assignment: Vec<u32>,
    num_clusters: u32,
}

impl From<ClusteringRepr> for Clustering {
    fn from(r: ClusteringRepr) -> Clustering {
        let mut c = Clustering {
            index: build_index(&r.sources),
            sources: r.sources,
            assignment: r.assignment,
            num_clusters: r.num_clusters,
            offsets: Vec::new(),
            members: Vec::new(),
        };
        c.rebuild_csr();
        c
    }
}

impl From<Clustering> for ClusteringRepr {
    fn from(c: Clustering) -> ClusteringRepr {
        ClusteringRepr {
            sources: c.sources,
            assignment: c.assignment,
            num_clusters: c.num_clusters,
        }
    }
}

/// Equality is over the partition itself; the derived structures are a
/// function of the canonical fields.
impl PartialEq for Clustering {
    fn eq(&self, other: &Clustering) -> bool {
        self.sources == other.sources
            && self.assignment == other.assignment
            && self.num_clusters == other.num_clusters
    }
}

impl Eq for Clustering {}

fn build_index(sources: &[AsIndex]) -> FxHashMap<AsIndex, u32> {
    let mut index = FxHashMap::with_capacity_and_hasher(sources.len(), Default::default());
    for (k, &s) in sources.iter().enumerate() {
        index.entry(s).or_insert(k as u32);
    }
    index
}

/// One cluster that split during a refinement: the parent's id in the
/// pre-refinement numbering and the ids (post-refinement numbering) of
/// the two or more children it split into, in first-appearance order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterSplit {
    /// Cluster id before the refinement.
    pub parent: u32,
    /// Ids after the refinement (≥ 2 entries, ascending).
    pub children: Vec<u32>,
}

/// What one [`Clustering::refine_logged`] call did to the partition: the
/// full old→new cluster mapping, the catchment link every new cluster
/// landed on under the refining configuration, and the split log.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RefineDelta {
    /// `parent_of[c]` = pre-refinement id of post-refinement cluster `c`.
    /// Every new cluster has exactly one parent; an unsplit cluster is its
    /// parent's only child (possibly renumbered).
    pub parent_of: Vec<u32>,
    /// `link_of[c]` = the catchment all members of post-refinement cluster
    /// `c` share under the refining configuration (`None` = unobserved).
    pub link_of: Vec<Option<LinkId>>,
    /// Clusters that actually split (more than one child), in parent-id
    /// order — the per-configuration split log.
    pub splits: Vec<ClusterSplit>,
}

impl RefineDelta {
    /// Number of clusters after the refinement this delta describes.
    pub fn num_clusters(&self) -> usize {
        self.parent_of.len()
    }
}

impl Clustering {
    /// The initial state: every tracked source in one big cluster.
    pub fn single(sources: Vec<AsIndex>) -> Clustering {
        let n = sources.len();
        let mut c = Clustering {
            index: build_index(&sources),
            sources,
            assignment: vec![0; n],
            num_clusters: if n == 0 { 0 } else { 1 },
            offsets: Vec::new(),
            members: Vec::new(),
        };
        c.rebuild_csr();
        c
    }

    /// The tracked sources.
    pub fn sources(&self) -> &[AsIndex] {
        &self.sources
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.num_clusters as usize
    }

    /// Cluster id of a tracked source (`None` if the source is not
    /// tracked). O(1) through the persistent index.
    pub fn cluster_of(&self, source: AsIndex) -> Option<u32> {
        self.index
            .get(&source)
            .map(|&k| self.assignment[k as usize])
    }

    /// The pre-index implementation of [`Clustering::cluster_of`]: an
    /// O(n) `position()` scan per call. Kept as the reference for
    /// regression tests and the scan-vs-index benchmarks.
    #[cfg(any(test, feature = "reference"))]
    pub fn cluster_of_scan(&self, source: AsIndex) -> Option<u32> {
        self.sources
            .iter()
            .position(|&s| s == source)
            .map(|k| self.assignment[k])
    }

    /// Rebuild the CSR membership (offsets + members) from the assignment
    /// vector. O(n); called after every mutation of the assignment.
    fn rebuild_csr(&mut self) {
        let c = self.num_clusters as usize;
        self.offsets.clear();
        self.offsets.resize(c + 1, 0);
        for &a in &self.assignment {
            self.offsets[a as usize + 1] += 1;
        }
        for i in 0..c {
            self.offsets[i + 1] += self.offsets[i];
        }
        self.members.clear();
        self.members.resize(self.sources.len(), AsIndex(0));
        let mut cursor: Vec<u32> = self.offsets[..c].to_vec();
        for (k, &s) in self.sources.iter().enumerate() {
            let a = self.assignment[k] as usize;
            self.members[cursor[a] as usize] = s;
            cursor[a] += 1;
        }
    }

    /// Refine the partition with one configuration's catchments: sources
    /// remain together only if they share both their previous cluster and
    /// their catchment here (unassigned sources count as a shared
    /// "unobserved" pseudo-catchment, exactly like the `κ∖α` side of
    /// the paper's split).
    pub fn refine(&mut self, catchments: &Catchments) {
        let _ = self.refine_logged(catchments);
    }

    /// [`Clustering::refine`] that also reports what happened: the
    /// old→new cluster mapping, each new cluster's catchment link under
    /// this configuration, and the split log. New ids are assigned in
    /// first-appearance order over the source vector — identical to the
    /// unlogged refinement, so partitions (and campaigns built on them)
    /// are byte-for-byte unchanged.
    pub fn refine_logged(&mut self, catchments: &Catchments) -> RefineDelta {
        let _span = trackdown_obs::span("cluster.refine");
        trackdown_obs::counter!("cluster.refines").inc();
        let old_num = self.num_clusters as usize;
        let mut remap: FxHashMap<(u32, Option<LinkId>), u32> = FxHashMap::default();
        let mut parent_of: Vec<u32> = Vec::new();
        let mut link_of: Vec<Option<LinkId>> = Vec::new();
        let mut next = 0u32;
        // One dense materialization (a word-scan over the bitset rows)
        // instead of a per-source `Catchments::get`, whose row probe is
        // O(active links) — per-source lookups below are then O(1).
        let dense = catchments.dense();
        for (k, &s) in self.sources.iter().enumerate() {
            let key = (self.assignment[k], dense[s.us()]);
            let id = *remap.entry(key).or_insert_with(|| {
                let id = next;
                next += 1;
                parent_of.push(key.0);
                link_of.push(key.1);
                id
            });
            self.assignment[k] = id;
        }
        self.num_clusters = next;
        self.rebuild_csr();
        // A campaign keeps one delta per configuration in its attribution
        // index, so give back what the pushes over-allocated.
        parent_of.shrink_to_fit();
        link_of.shrink_to_fit();
        // Split log: parents with more than one child.
        let mut children_of: Vec<Vec<u32>> = vec![Vec::new(); old_num];
        for (c, &p) in parent_of.iter().enumerate() {
            children_of[p as usize].push(c as u32);
        }
        let splits: Vec<ClusterSplit> = children_of
            .into_iter()
            .enumerate()
            .filter(|(_, ch)| ch.len() > 1)
            .map(|(p, children)| ClusterSplit {
                parent: p as u32,
                children,
            })
            .collect();
        trackdown_obs::counter!("cluster.splits").add(splits.len() as u64);
        RefineDelta {
            parent_of,
            link_of,
            splits,
        }
    }

    /// The paper's split loop, transcribed literally: for each catchment
    /// `α`, split every overlapping cluster `κ` into `κ∩α` and `κ∖α`.
    /// Quadratic; used to cross-check [`Clustering::refine`].
    pub fn split_by_naive(&mut self, catchments: &Catchments) {
        for link in catchments.active_links() {
            // α restricted to tracked sources.
            let alpha: Vec<bool> = self
                .sources
                .iter()
                .map(|&s| catchments.get(s) == Some(link))
                .collect();
            let ids: Vec<u32> = {
                let mut v = self.assignment.clone();
                v.sort_unstable();
                v.dedup();
                v
            };
            for kappa in ids {
                let members: Vec<usize> = (0..self.sources.len())
                    .filter(|&k| self.assignment[k] == kappa)
                    .collect();
                let inside: Vec<usize> = members.iter().copied().filter(|&k| alpha[k]).collect();
                if inside.is_empty() || inside.len() == members.len() {
                    continue; // κ∩α = ∅ or κ∩α = κ: no split
                }
                // Move κ∩α into a fresh cluster id.
                let fresh = self.num_clusters;
                self.num_clusters += 1;
                for k in inside {
                    self.assignment[k] = fresh;
                }
            }
        }
        self.normalize();
    }

    /// Renumber cluster ids densely in first-appearance order (so two
    /// equal partitions compare equal regardless of construction path).
    pub fn normalize(&mut self) {
        let mut remap: FxHashMap<u32, u32> = FxHashMap::default();
        let mut next = 0u32;
        for a in &mut self.assignment {
            let id = *remap.entry(*a).or_insert_with(|| {
                let id = next;
                next += 1;
                id
            });
            *a = id;
        }
        self.num_clusters = next;
        self.rebuild_csr();
    }

    /// Members of one cluster as a borrowed slice, in source order — the
    /// allocation-free accessor behind [`Clustering::clusters`].
    ///
    /// # Panics
    /// If `id >= num_clusters()`.
    pub fn cluster_members(&self, id: u32) -> &[AsIndex] {
        let lo = self.offsets[id as usize] as usize;
        let hi = self.offsets[id as usize + 1] as usize;
        &self.members[lo..hi]
    }

    /// Size of one cluster, O(1) from the CSR offsets.
    ///
    /// # Panics
    /// If `id >= num_clusters()`.
    pub fn cluster_size(&self, id: u32) -> usize {
        (self.offsets[id as usize + 1] - self.offsets[id as usize]) as usize
    }

    /// Iterate every cluster's member slice in cluster-id order without
    /// materializing `Vec<Vec<AsIndex>>`.
    pub fn iter_clusters(&self) -> impl Iterator<Item = &[AsIndex]> {
        (0..self.num_clusters).map(move |c| self.cluster_members(c))
    }

    /// Materialize the clusters as member lists, ordered by cluster id.
    ///
    /// Prefer [`Clustering::iter_clusters`] / [`Clustering::cluster_members`]
    /// on hot paths — this clones every member list.
    pub fn clusters(&self) -> Vec<Vec<AsIndex>> {
        self.iter_clusters().map(|m| m.to_vec()).collect()
    }

    /// Cluster sizes (unordered histogram input), O(clusters) from the
    /// CSR offsets.
    pub fn sizes(&self) -> Vec<usize> {
        self.offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .collect()
    }

    /// Mean cluster size (the paper's headline metric: 1.40 ASes).
    pub fn mean_size(&self) -> f64 {
        if self.num_clusters == 0 {
            return 0.0;
        }
        self.sources.len() as f64 / self.num_clusters as f64
    }

    /// Summary statistics over cluster sizes.
    pub fn stats(&self) -> SummaryStats {
        summary_stats(&self.sizes())
    }

    /// CCDF of cluster sizes (Figure 3 / 6 series).
    pub fn size_ccdf(&self) -> Vec<(usize, f64)> {
        ccdf(&self.sizes())
    }

    /// Fraction of clusters that contain exactly one AS (92 % after the
    /// paper's 705 configurations).
    pub fn singleton_fraction(&self) -> f64 {
        if self.num_clusters == 0 {
            return 0.0;
        }
        let singles = self.offsets.windows(2).filter(|w| w[1] - w[0] == 1).count();
        singles as f64 / self.num_clusters as f64
    }

    /// Size of the cluster containing `source`, O(1) through the index
    /// and CSR offsets.
    pub fn cluster_size_of(&self, source: AsIndex) -> Option<usize> {
        let id = self.cluster_of(source)?;
        Some(self.cluster_size(id))
    }

    /// The pre-index implementation of [`Clustering::cluster_size_of`]:
    /// an O(n) source scan followed by an O(n) assignment rescan. Kept as
    /// the reference for regression tests and benchmarks.
    #[cfg(any(test, feature = "reference"))]
    pub fn cluster_size_of_scan(&self, source: AsIndex) -> Option<usize> {
        let id = self.cluster_of_scan(source)?;
        Some(self.assignment.iter().filter(|&&a| a == id).count())
    }
}

/// Build a clustering by refining over a sequence of catchments.
pub fn cluster_catchments(sources: Vec<AsIndex>, catchments: &[Catchments]) -> Clustering {
    let mut c = Clustering::single(sources);
    for cat in catchments {
        c.refine(cat);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cat(n: usize, links: &[Option<u8>]) -> Catchments {
        let mut c = Catchments::unassigned(n);
        for (i, l) in links.iter().enumerate() {
            c.set(AsIndex(i as u32), l.map(LinkId));
        }
        c
    }

    fn sources(n: usize) -> Vec<AsIndex> {
        (0..n as u32).map(AsIndex).collect()
    }

    #[test]
    fn initial_state_is_one_cluster() {
        let c = Clustering::single(sources(5));
        assert_eq!(c.num_clusters(), 1);
        assert_eq!(c.mean_size(), 5.0);
        assert_eq!(c.sizes(), vec![5]);
        assert_eq!(c.singleton_fraction(), 0.0);
        let empty = Clustering::single(vec![]);
        assert_eq!(empty.num_clusters(), 0);
        assert_eq!(empty.mean_size(), 0.0);
        assert!(empty.clusters().is_empty());
        assert_eq!(empty.sizes(), Vec::<usize>::new());
    }

    #[test]
    fn refine_splits_by_catchment() {
        let mut c = Clustering::single(sources(4));
        c.refine(&cat(4, &[Some(0), Some(0), Some(1), Some(1)]));
        assert_eq!(c.num_clusters(), 2);
        assert_eq!(c.cluster_of(AsIndex(0)), c.cluster_of(AsIndex(1)));
        assert_ne!(c.cluster_of(AsIndex(0)), c.cluster_of(AsIndex(2)));
        // Second config splits the second pair.
        c.refine(&cat(4, &[Some(0), Some(0), Some(0), Some(1)]));
        assert_eq!(c.num_clusters(), 3);
        assert_eq!(c.cluster_of(AsIndex(0)), c.cluster_of(AsIndex(1)));
    }

    #[test]
    fn unobserved_sources_group_together() {
        let mut c = Clustering::single(sources(4));
        c.refine(&cat(4, &[Some(0), None, None, Some(1)]));
        assert_eq!(c.num_clusters(), 3);
        assert_eq!(c.cluster_of(AsIndex(1)), c.cluster_of(AsIndex(2)));
    }

    #[test]
    fn identical_catchments_do_not_split() {
        let mut c = Clustering::single(sources(3));
        let same = cat(3, &[Some(0), Some(0), Some(0)]);
        c.refine(&same);
        c.refine(&same);
        assert_eq!(c.num_clusters(), 1);
    }

    #[test]
    fn figure1_example() {
        // Paper Figure 1: three configurations partition sources into the
        // clusters at the bottom right. Model 6 sources with assignment
        // histories mirroring the colored regions.
        let n = 6;
        let configs = [
            cat(n, &[Some(0), Some(0), Some(1), Some(1), Some(2), Some(2)]),
            cat(n, &[Some(0), Some(0), Some(0), Some(2), Some(2), Some(2)]),
            cat(n, &[Some(0), Some(1), Some(1), Some(2), Some(2), Some(0)]),
        ];
        let c = cluster_catchments(sources(n), &configs);
        // Histories: s0=(0,0,0) s1=(0,0,1) s2=(1,0,1) s3=(1,2,2)
        //            s4=(2,2,2) s5=(2,2,0) — all distinct: 6 singletons.
        assert_eq!(c.num_clusters(), 6);
        assert_eq!(c.singleton_fraction(), 1.0);
    }

    #[test]
    fn refine_matches_naive_split() {
        // Cross-check on a handful of deterministic patterns.
        let patterns: Vec<Vec<Option<u8>>> = vec![
            vec![Some(0), Some(1), Some(0), Some(1), None, Some(2)],
            vec![Some(1), Some(1), Some(1), Some(0), Some(0), None],
            vec![None, None, Some(2), Some(2), Some(2), Some(2)],
        ];
        let n = 6;
        let mut fast = Clustering::single(sources(n));
        let mut naive = Clustering::single(sources(n));
        for p in &patterns {
            let c = cat(n, p);
            fast.refine(&c);
            naive.split_by_naive(&c);
            // Compare partitions via co-membership.
            for i in 0..n {
                for j in 0..n {
                    let a = AsIndex(i as u32);
                    let b = AsIndex(j as u32);
                    assert_eq!(
                        fast.cluster_of(a) == fast.cluster_of(b),
                        naive.cluster_of(a) == naive.cluster_of(b),
                        "sources {i},{j} disagree"
                    );
                }
            }
        }
    }

    #[test]
    fn stats_and_ccdf() {
        let mut c = Clustering::single(sources(6));
        c.refine(&cat(
            6,
            &[Some(0), Some(0), Some(0), Some(1), Some(1), Some(2)],
        ));
        assert_eq!(c.num_clusters(), 3);
        let mut sizes = c.sizes();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 2, 3]);
        assert!((c.mean_size() - 2.0).abs() < 1e-9);
        assert!((c.singleton_fraction() - 1.0 / 3.0).abs() < 1e-9);
        let ccdf = c.size_ccdf();
        assert_eq!(ccdf[0], (1, 1.0));
        assert_eq!(c.cluster_size_of(AsIndex(0)), Some(3));
        assert_eq!(c.cluster_size_of(AsIndex(5)), Some(1));
        assert_eq!(c.cluster_size_of(AsIndex(99)), None);
    }

    #[test]
    fn cluster_count_is_monotone_under_refinement() {
        let mut c = Clustering::single(sources(8));
        let mut prev = c.num_clusters();
        let configs = [
            cat(
                8,
                &[
                    Some(0),
                    Some(0),
                    Some(1),
                    Some(1),
                    Some(0),
                    Some(1),
                    Some(0),
                    Some(1),
                ],
            ),
            cat(
                8,
                &[
                    Some(0),
                    Some(1),
                    Some(0),
                    Some(1),
                    Some(0),
                    Some(1),
                    Some(0),
                    Some(1),
                ],
            ),
            cat(
                8,
                &[
                    Some(2),
                    Some(2),
                    Some(2),
                    Some(2),
                    Some(2),
                    Some(2),
                    Some(2),
                    Some(2),
                ],
            ),
        ];
        for cfg in &configs {
            c.refine(cfg);
            assert!(c.num_clusters() >= prev);
            prev = c.num_clusters();
        }
    }

    #[test]
    fn clusters_materialization_partitions_sources() {
        let mut c = Clustering::single(sources(5));
        c.refine(&cat(5, &[Some(0), Some(1), Some(0), None, Some(1)]));
        let clusters = c.clusters();
        let total: usize = clusters.iter().map(|cl| cl.len()).sum();
        assert_eq!(total, 5);
        assert_eq!(clusters.len(), c.num_clusters());
        for cl in &clusters {
            assert!(!cl.is_empty());
        }
    }

    /// Regression (ISSUE 4 satellite): indexed lookups must agree with the
    /// O(n) scans they replaced on a refined partition — including
    /// untracked sources.
    #[test]
    fn indexed_lookups_match_scans_on_refined_partition() {
        let n = 12;
        let mut c = Clustering::single(sources(n));
        let configs = [
            cat(
                n,
                &[
                    Some(0),
                    Some(1),
                    Some(0),
                    Some(1),
                    None,
                    Some(2),
                    Some(0),
                    Some(1),
                    None,
                    Some(2),
                    Some(2),
                    Some(0),
                ],
            ),
            cat(
                n,
                &[
                    Some(1),
                    Some(1),
                    Some(0),
                    Some(0),
                    Some(0),
                    None,
                    Some(1),
                    Some(0),
                    Some(0),
                    Some(2),
                    None,
                    Some(0),
                ],
            ),
        ];
        for cfg in &configs {
            c.refine(cfg);
            for i in 0..n as u32 + 5 {
                let s = AsIndex(i);
                assert_eq!(c.cluster_of(s), c.cluster_of_scan(s), "cluster_of({i})");
                assert_eq!(
                    c.cluster_size_of(s),
                    c.cluster_size_of_scan(s),
                    "cluster_size_of({i})"
                );
            }
        }
    }

    /// CSR invariants: member slices partition the sources, sizes match
    /// offsets, and members appear in source order within each cluster.
    #[test]
    fn csr_matches_assignment() {
        let n = 10;
        let mut c = Clustering::single(sources(n));
        c.refine(&cat(
            n,
            &[
                Some(0),
                Some(1),
                Some(0),
                None,
                Some(1),
                Some(2),
                Some(0),
                None,
                Some(1),
                Some(2),
            ],
        ));
        let mut seen = Vec::new();
        for id in 0..c.num_clusters() as u32 {
            let m = c.cluster_members(id);
            assert_eq!(m.len(), c.cluster_size(id));
            for &s in m {
                assert_eq!(c.cluster_of(s), Some(id));
                seen.push(s);
            }
            // Source order within the cluster.
            for w in m.windows(2) {
                assert!(w[0].0 < w[1].0);
            }
        }
        seen.sort_unstable_by_key(|s| s.0);
        assert_eq!(seen, c.sources());
        assert_eq!(
            c.iter_clusters().map(|m| m.to_vec()).collect::<Vec<_>>(),
            c.clusters()
        );
    }

    /// The split log names exactly the clusters that split, children
    /// cover their parents, and unsplit clusters map through parent_of.
    #[test]
    fn refine_logged_reports_splits() {
        let n = 6;
        let mut c = Clustering::single(sources(n));
        let d1 = c.refine_logged(&cat(
            n,
            &[Some(0), Some(0), Some(1), Some(1), Some(2), Some(2)],
        ));
        // One parent (the initial cluster) split into three children.
        assert_eq!(d1.num_clusters(), 3);
        assert_eq!(d1.splits.len(), 1);
        assert_eq!(d1.splits[0].parent, 0);
        assert_eq!(d1.splits[0].children, vec![0, 1, 2]);
        assert_eq!(d1.parent_of, vec![0, 0, 0]);
        assert_eq!(
            d1.link_of,
            vec![Some(LinkId(0)), Some(LinkId(1)), Some(LinkId(2))]
        );

        // Second config splits only the middle pair; the other clusters
        // survive as single children.
        let before = c.clone();
        let d2 = c.refine_logged(&cat(
            n,
            &[Some(0), Some(0), Some(0), Some(1), Some(2), Some(2)],
        ));
        assert_eq!(d2.num_clusters(), 4);
        assert_eq!(d2.splits.len(), 1);
        assert_eq!(d2.splits[0].parent, 1);
        assert_eq!(d2.splits[0].children.len(), 2);
        // Every new cluster's members were together in the parent, and
        // the parent sizes are conserved by their children.
        let mut child_size_by_parent = vec![0usize; before.num_clusters()];
        for (child, &parent) in d2.parent_of.iter().enumerate() {
            child_size_by_parent[parent as usize] += c.cluster_size(child as u32);
            for &m in c.cluster_members(child as u32) {
                assert_eq!(before.cluster_of(m), Some(parent));
            }
        }
        for (parent, &total) in child_size_by_parent.iter().enumerate() {
            assert_eq!(total, before.cluster_size(parent as u32));
        }
        // A no-op refinement logs no splits.
        let d3 = c.refine_logged(&cat(n, &[Some(0); 6]));
        assert!(d3.splits.is_empty());
        assert_eq!(d3.num_clusters(), c.num_clusters());
    }

    /// Serde round-trip preserves the partition and rebuilds the derived
    /// index and CSR structures.
    #[test]
    fn serde_roundtrip_rebuilds_derived_structures() {
        let n = 8;
        let mut c = Clustering::single(sources(n));
        c.refine(&cat(
            n,
            &[
                Some(0),
                Some(1),
                None,
                Some(0),
                Some(2),
                Some(1),
                None,
                Some(0),
            ],
        ));
        let json = serde_json::to_string(&c).unwrap();
        let back: Clustering = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
        for i in 0..n as u32 {
            let s = AsIndex(i);
            assert_eq!(back.cluster_of(s), c.cluster_of(s));
            assert_eq!(back.cluster_size_of(s), c.cluster_size_of(s));
        }
        assert_eq!(back.clusters(), c.clusters());
    }
}
