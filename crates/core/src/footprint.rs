//! Peering-footprint emulation (§V-B, Figures 5 and 6).
//!
//! A network with fewer PoPs can deploy only the configurations whose
//! announcement sets use its links. The paper emulates 6- and 5-location
//! networks by discarding the configurations that touch removed PoPs:
//! with 7 locations and r=3 that keeps
//! `Σ_{x=0..2} [C(6,6−x) + (6−x)·C(6,6−x)] = 118` configurations for six
//! locations and 31 for five.

use crate::cluster::Clustering;
use crate::config::{AnnouncementConfig, Phase};
use std::collections::BTreeSet;
use trackdown_bgp::{Catchments, LinkId};
use trackdown_topology::AsIndex;

/// Indices of the configurations a network owning only `keep` links could
/// have deployed: announcement set within `keep`, and no poisoning phase
/// (poison configurations announce from the full footprint).
pub fn footprint_config_indices(
    configs: &[AnnouncementConfig],
    keep: &BTreeSet<LinkId>,
) -> Vec<usize> {
    configs
        .iter()
        .enumerate()
        .filter(|(_, c)| c.phase != Phase::Poison && c.announce.iter().all(|l| keep.contains(l)))
        .map(|(i, _)| i)
        .collect()
}

/// Mean-cluster-size trajectory when deploying only a footprint subset of
/// a campaign's configurations, in their original order. Returns
/// `(kept_indices, mean_size_after_each_kept_config)`.
pub fn footprint_trajectory(
    configs: &[AnnouncementConfig],
    catchments: &[Catchments],
    tracked: &[AsIndex],
    keep: &BTreeSet<LinkId>,
) -> (Vec<usize>, Vec<f64>) {
    let kept = footprint_config_indices(configs, keep);
    let mut clustering = Clustering::single(tracked.to_vec());
    let mut means = Vec::with_capacity(kept.len());
    for &i in &kept {
        clustering.refine(&catchments[i]);
        means.push(clustering.mean_size());
    }
    (kept, means)
}

/// Final clustering for a footprint subset.
pub fn footprint_clustering(
    configs: &[AnnouncementConfig],
    catchments: &[Catchments],
    tracked: &[AsIndex],
    keep: &BTreeSet<LinkId>,
) -> Clustering {
    let kept = footprint_config_indices(configs, keep);
    let mut clustering = Clustering::single(tracked.to_vec());
    for &i in &kept {
        clustering.refine(&catchments[i]);
    }
    clustering
}

/// All footprints obtained by removing `remove` links from `0..n`,
/// as kept-link sets (the paper's shaded min–max band enumerates these).
pub fn footprints_removing(n: usize, remove: usize) -> Vec<BTreeSet<LinkId>> {
    fn combos(n: usize, k: usize) -> Vec<Vec<u8>> {
        if k == 0 {
            return vec![Vec::new()];
        }
        if k > n {
            return Vec::new();
        }
        let mut out = Vec::new();
        for first in 0..=(n - k) {
            for mut rest in combos(n - first - 1, k - 1) {
                for r in &mut rest {
                    *r += first as u8 + 1;
                }
                let mut v = vec![first as u8];
                v.extend(rest);
                out.push(v);
            }
        }
        out
    }
    combos(n, remove)
        .into_iter()
        .map(|removed| {
            (0..n as u8)
                .map(LinkId)
                .filter(|l| !removed.contains(&l.0))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{full_schedule, location_phase, prepend_phase, GeneratorParams};
    use trackdown_bgp::OriginAs;
    use trackdown_topology::gen::{generate, TopologyConfig};

    #[test]
    fn paper_counts_for_six_and_five_locations() {
        // Build the 7-location, r=3 schedule (location + prepend phases).
        let loc = location_phase(7, 3);
        let pre = prepend_phase(&loc);
        let mut schedule = loc;
        schedule.extend(pre);
        assert_eq!(schedule.len(), 358);

        // Six locations: keep links 0..6 (drop link 6).
        let keep6: BTreeSet<LinkId> = (0..6).map(LinkId).collect();
        let kept6 = footprint_config_indices(&schedule, &keep6);
        // Σ_{x=0..2} [C(6,6−x) + (6−x)C(6,6−x)] = (1+7)−… = 118.
        assert_eq!(kept6.len(), 118);

        // Five locations: drop links 5 and 6.
        let keep5: BTreeSet<LinkId> = (0..5).map(LinkId).collect();
        let kept5 = footprint_config_indices(&schedule, &keep5);
        // Σ_{x=0..1} [C(5,5−x) + (5−x)C(5,5−x)] = 1+5 + 5+20 = 31.
        assert_eq!(kept5.len(), 31);
    }

    #[test]
    fn poison_configs_excluded() {
        let g = generate(&TopologyConfig::small(3));
        let origin = OriginAs::peering_style(&g, 4);
        let schedule = full_schedule(
            &g.topology,
            &origin,
            &GeneratorParams {
                max_removals: 2,
                max_poison_configs: Some(5),
            },
        );
        let keep: BTreeSet<LinkId> = (0..4).map(LinkId).collect();
        let kept = footprint_config_indices(&schedule, &keep);
        for &i in &kept {
            assert_ne!(schedule[i].phase, Phase::Poison);
        }
    }

    #[test]
    fn footprints_removing_enumerates_combinations() {
        let fps = footprints_removing(7, 1);
        assert_eq!(fps.len(), 7);
        for fp in &fps {
            assert_eq!(fp.len(), 6);
        }
        let fps2 = footprints_removing(7, 2);
        assert_eq!(fps2.len(), 21);
        assert_eq!(
            footprints_removing(3, 0),
            vec![(0..3).map(LinkId).collect::<BTreeSet<_>>()]
        );
    }

    #[test]
    fn smaller_footprint_never_beats_larger() {
        // Using fewer configurations can only coarsen the partition.
        let g = generate(&TopologyConfig::small(33));
        let origin = OriginAs::peering_style(&g, 4);
        let engine =
            trackdown_bgp::BgpEngine::new(&g.topology, &trackdown_bgp::EngineConfig::default());
        let schedule = full_schedule(
            &g.topology,
            &origin,
            &GeneratorParams {
                max_removals: 2,
                max_poison_configs: Some(0),
            },
        );
        let campaign = crate::localize::run_campaign(
            &engine,
            &origin,
            &schedule,
            &crate::localize::CampaignOpts::default(),
        )
        .expect("valid schedule");
        let full_keep: BTreeSet<LinkId> = (0..4).map(LinkId).collect();
        let small_keep: BTreeSet<LinkId> = (0..3).map(LinkId).collect();
        let full = footprint_clustering(
            &campaign.configs,
            &campaign.catchments,
            &campaign.tracked,
            &full_keep,
        );
        let small = footprint_clustering(
            &campaign.configs,
            &campaign.catchments,
            &campaign.tracked,
            &small_keep,
        );
        assert!(small.mean_size() >= full.mean_size());
        assert!(small.num_clusters() <= full.num_clusters());
    }

    #[test]
    fn trajectory_matches_clustering() {
        let g = generate(&TopologyConfig::small(34));
        let origin = OriginAs::peering_style(&g, 3);
        let engine =
            trackdown_bgp::BgpEngine::new(&g.topology, &trackdown_bgp::EngineConfig::default());
        let schedule = full_schedule(
            &g.topology,
            &origin,
            &GeneratorParams {
                max_removals: 1,
                max_poison_configs: Some(0),
            },
        );
        let campaign = crate::localize::run_campaign(
            &engine,
            &origin,
            &schedule,
            &crate::localize::CampaignOpts::default(),
        )
        .expect("valid schedule");
        let keep: BTreeSet<LinkId> = (0..3).map(LinkId).collect();
        let (kept, means) = footprint_trajectory(
            &campaign.configs,
            &campaign.catchments,
            &campaign.tracked,
            &keep,
        );
        assert_eq!(kept.len(), means.len());
        let final_clustering = footprint_clustering(
            &campaign.configs,
            &campaign.catchments,
            &campaign.tracked,
            &keep,
        );
        assert!((means.last().unwrap() - final_clustering.mean_size()).abs() < 1e-12);
    }
}
