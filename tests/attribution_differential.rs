//! Differential suite for the indexed attribution plane: on every
//! proptest-generated campaign — control-plane and data-plane
//! catchments, 1/2/8 worker threads, planted attacker volumes — the incremental implementations
//! (`rank_suspects`, `estimate_cluster_volumes`, `match_fraction_scores`,
//! `cluster_of`, `cluster_size_of`) must produce byte-identical output to
//! the scan-based references they replaced (`*_rescan` / `*_scan`).
//!
//! The rescans rebuild everything from the raw catchments each call, so
//! any divergence is a bug in the index maintenance — a stale split-log
//! entry, a parent chain walked wrong, a CSR offset off by one — not a
//! modeling difference. This mirrors the role `campaign_invariance.rs`
//! plays for the executor and `path_arena_differential.rs` for the routing core.

use proptest::prelude::*;
use trackdown_suite::core::localize::{
    estimate_cluster_volumes_rescan, match_fraction_scores, match_fraction_scores_rescan,
    rank_suspects_rescan,
};
use trackdown_suite::prelude::*;

fn engine_config(clean: bool) -> EngineConfig {
    if clean {
        EngineConfig {
            policy: PolicyConfig {
                violator_fraction: 0.0,
                ..PolicyConfig::default()
            },
            ..EngineConfig::default()
        }
    } else {
        EngineConfig::default()
    }
}

fn scenario(
    seed: u64,
    pops: usize,
    max_removals: usize,
    max_poison: usize,
) -> (GeneratedTopology, OriginAs, Vec<AnnouncementConfig>) {
    let world = generate(&TopologyConfig::small(seed));
    let origin = OriginAs::peering_style(&world, pops);
    let schedule = full_schedule(
        &world.topology,
        &origin,
        &GeneratorParams {
            max_removals,
            max_poison_configs: Some(max_poison),
        },
    );
    (world, origin, schedule)
}

/// Spread `n` attackers across the tracked set at deterministic,
/// seed-dependent offsets and return the per-AS volume vector.
fn plant_attackers(
    world: &GeneratedTopology,
    campaign: &Campaign,
    n: usize,
    salt: u64,
) -> Vec<u64> {
    let mut volume = vec![0u64; world.topology.num_ases()];
    if campaign.tracked.is_empty() {
        return volume;
    }
    for k in 0..n {
        let pos = ((salt as usize).wrapping_mul(2654435761) + k * 7919) % campaign.tracked.len();
        volume[campaign.tracked[pos].us()] = 100_000 * (k as u64 + 1);
    }
    volume
}

/// The full equality obligation between the indexed attribution plane and
/// the from-scratch rescans, on one campaign + one volume matrix.
macro_rules! assert_attribution_matches_rescan {
    ($campaign:expr, $vols:expr) => {
        prop_assert_eq!(
            rank_suspects(&$campaign, &$vols),
            rank_suspects_rescan(&$campaign, &$vols)
        );
        prop_assert_eq!(
            estimate_cluster_volumes(&$campaign, &$vols, 10),
            estimate_cluster_volumes_rescan(&$campaign, &$vols, 10)
        );
        prop_assert_eq!(
            match_fraction_scores(&$campaign, &$vols),
            match_fraction_scores_rescan(&$campaign, &$vols)
        );
        // Per-source lookups, tracked and untracked alike.
        let probe_beyond = AsIndex($campaign.tracked.iter().map(|s| s.0).max().unwrap_or(0) + 1);
        for &s in $campaign
            .tracked
            .iter()
            .chain(std::iter::once(&probe_beyond))
        {
            prop_assert_eq!(
                $campaign.clustering.cluster_of(s),
                $campaign.clustering.cluster_of_scan(s)
            );
            prop_assert_eq!(
                $campaign.clustering.cluster_size_of(s),
                $campaign.clustering.cluster_size_of_scan(s)
            );
        }
    };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Sequential campaigns over control-plane and data-plane catchments:
    // the indexed plane must match the rescans on both.
    #[test]
    fn indexed_attribution_matches_rescan_warm_and_cold(
        seed in 0u64..500,
        pops in 3usize..6,
        max_poison in 4usize..12,
        attackers in 1usize..4,
        clean in 0u8..2,
    ) {
        let (world, origin, schedule) = scenario(seed, pops, 1, max_poison);
        let engine = BgpEngine::new(&world.topology, &engine_config(clean == 1));
        for source in [CatchmentSource::ControlPlane, CatchmentSource::DataPlane] {
            let campaign = run_campaign(&engine, &origin, &schedule, &CampaignOpts { source, ..CampaignOpts::default() }).expect("valid schedule");
            let volume = plant_attackers(&world, &campaign, attackers, seed);
            let vols = link_volume_matrix(&campaign, &volume);
            prop_assert_eq!(vols.len(), campaign.attribution.num_configs());
            assert_attribution_matches_rescan!(campaign, vols);
        }
    }

    // Parallel campaigns across worker counts: the refinement history
    // (and thus the attribution index) must come out identical to the
    // rescans — and identical across thread counts.
    #[test]
    fn indexed_attribution_matches_rescan_across_threads(
        seed in 0u64..500,
        max_poison in 4usize..10,
        attackers in 1usize..4,
        clean in 0u8..2,
    ) {
        let (world, origin, schedule) = scenario(seed, 4, 1, max_poison);
        let engine = BgpEngine::new(&world.topology, &engine_config(clean == 1));
        let mut suspect_golden = None;
        for threads in [1usize, 2, 8] {
            let campaign = run_campaign(&engine, &origin, &schedule, &CampaignOpts { threads, ..CampaignOpts::default() }).expect("valid schedule");
            let volume = plant_attackers(&world, &campaign, attackers, seed);
            let vols = link_volume_matrix(&campaign, &volume);
            assert_attribution_matches_rescan!(campaign, vols);
            let suspects = rank_suspects(&campaign, &vols);
            match &suspect_golden {
                None => suspect_golden = Some(suspects),
                Some(golden) => prop_assert_eq!(golden, &suspects),
            }
        }
    }

    // Measured campaigns impute missing observations before clustering;
    // the attribution index is built from the *imputed* catchments and
    // must still agree with the rescans over those same catchments.
    #[test]
    fn indexed_attribution_matches_rescan_measured(
        seed in 0u64..200,
        max_poison in 4usize..8,
        attackers in 1usize..3,
    ) {
        let (world, origin, schedule) = scenario(seed, 4, 1, max_poison);
        let engine = BgpEngine::new(&world.topology, &engine_config(false));
        let cones = ConeInfo::compute(&world.topology);
        let plane = MeasurementPlane::new(&world.topology, &cones, &MeasurementConfig::default());
        let campaign = run_campaign(&engine, &origin, &schedule, &CampaignOpts { source: CatchmentSource::Measured(&plane), ..CampaignOpts::default() }).expect("valid schedule");
        let volume = plant_attackers(&world, &campaign, attackers, seed);
        let vols = link_volume_matrix(&campaign, &volume);
        assert_attribution_matches_rescan!(campaign, vols);
    }
}

// The structural invariants the proptest equality rides on, pinned on one
// concrete campaign so a failure names the broken piece directly.
#[test]
fn attribution_index_structure_is_consistent() {
    let (world, origin, schedule) = scenario(29, 4, 1, 8);
    let engine = BgpEngine::new(&world.topology, &EngineConfig::default());
    let campaign = run_campaign(&engine, &origin, &schedule, &CampaignOpts::default())
        .expect("valid schedule");
    let idx = &campaign.attribution;
    assert_eq!(idx.num_configs(), schedule.len());
    assert_eq!(idx.final_num_clusters(), campaign.clustering.num_clusters());
    assert!(idx.num_links() <= origin.num_links());
    // Each split in the log grows the cluster count by |children| - 1;
    // summed over the campaign that must bridge initial to final count.
    let grown: usize = (0..idx.num_configs())
        .flat_map(|k| idx.split_log(k))
        .map(|s| s.children.len() - 1)
        .sum();
    assert_eq!(1 + grown, campaign.clustering.num_clusters());
    // final_links rows are exactly what a representative-member rescan of
    // the catchments yields.
    let links = idx.final_links();
    for (c, row) in links.iter().enumerate() {
        let rep = campaign.clustering.cluster_members(c as u32)[0];
        for (k, cat) in campaign.catchments.iter().enumerate() {
            assert_eq!(row[k], cat.get(rep), "cluster {c} config {k}");
        }
    }
}
