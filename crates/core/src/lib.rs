//! # trackdown-core
//!
//! The primary contribution of *"Tracking Down Sources of Spoofed IP
//! Packets"* (Fonseca et al., IFIP Networking 2019): locating the networks
//! that emit spoofed traffic by systematically varying BGP announcement
//! configurations and correlating the resulting catchments with observed
//! spoofed-traffic volumes.
//!
//! The pipeline:
//!
//! 1. [`generator`] produces the announcement schedule — location subsets,
//!    prepending combinations, and provider-neighbor poisoning — exactly
//!    reproducing the paper's 64 + 294 + (one per neighbor) counts.
//! 2. [`localize::run_campaign`] deploys each [`config::AnnouncementConfig`]
//!    on a [`trackdown_bgp::BgpEngine`] — through one routing session per
//!    worker thread, each deployment a transition from the session's
//!    converged full anycast —
//!    obtains catchments (ground truth or through the
//!    [`trackdown_measure`] observation plane), and refines a
//!    [`cluster::Clustering`]. Bad input comes back as a
//!    [`localize::CampaignError`] before any deployment runs.
//! 3. [`localize::rank_suspects`] correlates honeypot volume reports with
//!    the clusters to name suspect ASes.
//!
//! Around the pipeline sit the evaluation tools: [`schedule`] (random vs
//! greedy deployment order, Figure 8), [`footprint`] (smaller peering
//! footprints, Figures 5–6), [`distance`] (cluster size vs AS-hop
//! distance, Figure 7), [`compliance`] (Gao-Rexford conformance,
//! Figure 9), [`predict`] (catchment prediction, future work), and
//! [`report`] (rendering).
//!
//! ```
//! use trackdown_topology::gen::{generate, TopologyConfig};
//! use trackdown_bgp::{BgpEngine, EngineConfig, OriginAs};
//! use trackdown_core::generator::{full_schedule, GeneratorParams};
//! use trackdown_core::localize::{run_campaign, CampaignOpts};
//!
//! let g = generate(&TopologyConfig::small(1));
//! let origin = OriginAs::peering_style(&g, 4);
//! let engine = BgpEngine::new(&g.topology, &EngineConfig::default());
//! let schedule = full_schedule(&g.topology, &origin, &GeneratorParams {
//!     max_removals: 1,
//!     max_poison_configs: Some(5),
//! });
//! let campaign = run_campaign(&engine, &origin, &schedule, &CampaignOpts::default())?;
//! assert!(campaign.clustering.mean_size() < campaign.tracked.len() as f64);
//! # Ok::<(), trackdown_core::CampaignError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cluster;
pub mod compliance;
pub mod config;
pub mod dataset;
pub mod distance;
pub mod footprint;
pub mod generator;
pub mod hijack;
pub mod localize;
pub mod online;
pub mod predict;
pub mod report;
pub mod schedule;
pub mod targeting;

pub use cluster::{cluster_catchments, ClusterSplit, Clustering, RefineDelta};
pub use config::{AnnouncementConfig, ConfigError, Phase};
pub use dataset::Dataset;
pub use generator::{full_schedule, GeneratorParams};
pub use localize::{
    estimate_cluster_volumes, estimate_cluster_volumes_acc, fit_link_volumes, rank_suspects,
    rank_suspects_acc, run_campaign, AttributionIndex, Campaign, CampaignError, CampaignOpts,
    CampaignStats, CatchmentSource, RankedSuspects, SuspectCluster, VolumeEstimate,
};
/// The pre-index scan references the differential suites and the
/// scan-vs-indexed benchmarks compare against (test-only `reference`
/// feature).
#[cfg(any(test, feature = "reference"))]
pub use localize::{estimate_cluster_volumes_rescan, rank_suspects_rescan};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use trackdown_bgp::{Catchments, LinkId};
    use trackdown_topology::AsIndex;

    fn catchment_strategy(n: usize, links: u8) -> impl Strategy<Value = Catchments> {
        proptest::collection::vec(proptest::option::of(0..links), n).prop_map(move |v| {
            let mut c = Catchments::unassigned(v.len());
            for (i, l) in v.into_iter().enumerate() {
                c.set(AsIndex(i as u32), l.map(LinkId));
            }
            c
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // The incremental refinement equals the paper's literal split
        // algorithm on arbitrary catchment sequences.
        #[test]
        fn refine_equals_naive_split(
            cats in proptest::collection::vec(catchment_strategy(12, 3), 1..5)
        ) {
            let sources: Vec<AsIndex> = (0..12).map(AsIndex).collect();
            let mut fast = Clustering::single(sources.clone());
            let mut naive = Clustering::single(sources.clone());
            for c in &cats {
                fast.refine(c);
                naive.split_by_naive(c);
            }
            for i in 0..12 {
                for j in (i + 1)..12 {
                    let (a, b) = (AsIndex(i as u32), AsIndex(j as u32));
                    prop_assert_eq!(
                        fast.cluster_of(a) == fast.cluster_of(b),
                        naive.cluster_of(a) == naive.cluster_of(b)
                    );
                }
            }
        }

        // Clustering invariants: clusters partition the sources, counts
        // are monotone, and refinement order does not change the final
        // partition.
        #[test]
        fn clustering_invariants(
            cats in proptest::collection::vec(catchment_strategy(10, 3), 1..5),
            perm_seed in 0usize..100,
        ) {
            let sources: Vec<AsIndex> = (0..10).map(AsIndex).collect();
            let mut forward = Clustering::single(sources.clone());
            let mut prev = forward.num_clusters();
            for c in &cats {
                forward.refine(c);
                prop_assert!(forward.num_clusters() >= prev);
                prev = forward.num_clusters();
                let total: usize = forward.sizes().iter().sum();
                prop_assert_eq!(total, sources.len());
            }
            // Deterministic permutation of the catchment order.
            let mut order: Vec<usize> = (0..cats.len()).collect();
            order.rotate_left(perm_seed % cats.len().max(1));
            let mut permuted = Clustering::single(sources.clone());
            for &k in &order {
                permuted.refine(&cats[k]);
            }
            for i in 0..10 {
                for j in (i + 1)..10 {
                    let (a, b) = (AsIndex(i as u32), AsIndex(j as u32));
                    prop_assert_eq!(
                        forward.cluster_of(a) == forward.cluster_of(b),
                        permuted.cluster_of(a) == permuted.cluster_of(b),
                        "order-dependence between {} and {}", i, j
                    );
                }
            }
        }

        // Generator: every configuration in a schedule validates, the
        // baseline comes first, and phases appear in order.
        #[test]
        fn schedules_always_valid(
            n_links in 2usize..6,
            max_removals in 0usize..4,
        ) {
            use trackdown_topology::gen::{generate, TopologyConfig};
            use trackdown_bgp::OriginAs;
            let g = generate(&TopologyConfig::small(7));
            let origin = OriginAs::peering_style(&g, n_links);
            let schedule = full_schedule(
                &g.topology,
                &origin,
                &GeneratorParams {
                    max_removals,
                    max_poison_configs: Some(8),
                },
            );
            prop_assert!(!schedule.is_empty());
            prop_assert_eq!(schedule[0].announce.len(), n_links);
            for c in &schedule {
                prop_assert!(c.validate(&origin).is_ok());
            }
            let mut last_phase = Phase::Location;
            for c in &schedule {
                prop_assert!(c.phase >= last_phase, "phases out of order");
                last_phase = c.phase;
            }
        }
    }
}
