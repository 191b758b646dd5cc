//! Degenerate-campaign coverage: zero configurations, zero tracked
//! sources, and all-unobserved catchments must flow through the whole
//! attribution plane — cluster → rank → estimate → report — without
//! panicking, the indexed paths must still agree with the scans there,
//! and a recorded campaign at the edge of the schedule space must still
//! emit a manifest the checked-in validator accepts.
//!
//! These are the inputs the incremental index is most likely to get wrong
//! (empty delta lists, zero-width volume vectors, clusters nobody ever
//! observed), the width-contract regression for the volume-vector
//! bug `rank_suspects` used to paper over with `unwrap_or(0)`, and the
//! online loop's range check on its prior catchments.

use trackdown_suite::core::localize::{
    estimate_cluster_volumes_rescan, match_fraction_scores, match_fraction_scores_rescan,
    rank_suspects_rescan,
};
use trackdown_suite::core::online::{localize_online, OnlineOptions};
use trackdown_suite::obs::{validate_manifest, CampaignRecorder, RunInfo};
use trackdown_suite::prelude::*;

/// Run the full read-side of the attribution plane on a campaign and the
/// matching scan references; returns the suspect list for further checks.
fn exercise_attribution(campaign: &Campaign, link_volumes: &[Vec<u64>]) -> Vec<AsIndex> {
    let suspects = rank_suspects(campaign, link_volumes);
    assert_eq!(suspects, rank_suspects_rescan(campaign, link_volumes));
    let estimates = estimate_cluster_volumes(campaign, link_volumes, 10);
    assert_eq!(
        estimates,
        estimate_cluster_volumes_rescan(campaign, link_volumes, 10)
    );
    assert_eq!(
        match_fraction_scores(campaign, link_volumes),
        match_fraction_scores_rescan(campaign, link_volumes)
    );
    // The report surface: summary stats, CCDF, singleton fraction, and
    // per-source lookups must all tolerate the degenerate partition.
    let c = &campaign.clustering;
    let _ = (
        c.stats(),
        c.size_ccdf(),
        c.mean_size(),
        c.singleton_fraction(),
    );
    assert_eq!(c.sizes().iter().sum::<usize>(), c.sources().len());
    for &s in &campaign.tracked {
        assert_eq!(c.cluster_of(s), c.cluster_of_scan(s));
        assert_eq!(c.cluster_size_of(s), c.cluster_size_of_scan(s));
    }
    suspect_ases(&suspects, 1.0)
}

/// Hand-assemble a campaign from raw parts the way `assemble_campaign`
/// would, bypassing the executor so we can reach shapes the generator
/// never produces.
fn synthetic_campaign(tracked: Vec<AsIndex>, catchments: Vec<Catchments>) -> Campaign {
    let (clustering, attribution) = AttributionIndex::build(tracked.clone(), &catchments);
    Campaign {
        configs: Vec::new(),
        catchments,
        tracked,
        clustering,
        attribution,
        records: Vec::new(),
        imputation: None,
        stats: CampaignStats::default(),
    }
}

/// Zero configurations: one undifferentiated cluster, no deltas, no
/// volume rows. Nothing is observable, so nothing may be a suspect — and
/// nothing may panic on the way to saying so.
#[test]
fn zero_config_campaign_flows_through() {
    let tracked: Vec<AsIndex> = (0..12).map(AsIndex).collect();
    let campaign = synthetic_campaign(tracked, Vec::new());
    assert_eq!(campaign.attribution.num_configs(), 0);
    assert_eq!(campaign.attribution.num_links(), 0);
    assert_eq!(campaign.clustering.num_clusters(), 1);
    assert_eq!(campaign.attribution.final_num_clusters(), 1);
    assert!(campaign.attribution.final_links()[0].is_empty());
    let named = exercise_attribution(&campaign, &[]);
    assert!(named.is_empty(), "no observations, no suspects");
}

/// Zero tracked sources: an empty partition (0 clusters) refined through
/// real-shaped catchments. Every derived structure is empty; every query
/// returns the empty answer.
#[test]
fn zero_tracked_sources_flow_through() {
    let catchments: Vec<Catchments> = (0..4)
        .map(|k| {
            let mut c = Catchments::unassigned(16);
            for i in 0..16u32 {
                c.set(AsIndex(i), Some(LinkId(((i + k) % 3) as u8)));
            }
            c
        })
        .collect();
    let campaign = synthetic_campaign(Vec::new(), catchments);
    assert_eq!(campaign.clustering.num_clusters(), 0);
    assert_eq!(campaign.attribution.final_num_clusters(), 0);
    assert_eq!(campaign.attribution.total_splits(), 0);
    assert!(campaign.attribution.final_links().is_empty());
    // No tracked clusters means an attribution width of zero, and the
    // exact width contract demands empty rows to match.
    assert_eq!(campaign.attribution.num_links(), 0);
    let vols = vec![Vec::new(); 4];
    let named = exercise_attribution(&campaign, &vols);
    assert!(named.is_empty());
    assert_eq!(campaign.clustering.cluster_of(AsIndex(3)), None);
    assert_eq!(campaign.clustering.cluster_size_of(AsIndex(3)), None);
}

/// All-unobserved catchments: every tracked source maps to `None` in
/// every configuration. The partition never splits, no cluster is ever
/// observed on a link, and the suspect/estimate/report surfaces must all
/// return empty rather than dividing by an observation count of zero.
#[test]
fn all_unobserved_catchments_flow_through() {
    let tracked: Vec<AsIndex> = (0..9).map(AsIndex).collect();
    let catchments: Vec<Catchments> = (0..5).map(|_| Catchments::unassigned(9)).collect();
    let campaign = synthetic_campaign(tracked, catchments);
    assert_eq!(campaign.clustering.num_clusters(), 1, "never split");
    assert_eq!(campaign.attribution.num_links(), 0);
    assert!(campaign.attribution.final_links()[0]
        .iter()
        .all(|l| l.is_none()));
    // num_links() = 0, so the exact width contract wants empty rows.
    let vols = vec![Vec::new(); 5];
    let named = exercise_attribution(&campaign, &vols);
    assert!(named.is_empty(), "unobserved clusters are never suspects");
    assert!(estimate_cluster_volumes(&campaign, &vols, 10).is_empty());
}

/// The width-contract regression (the bug this PR fixes): a volume row
/// narrower than the links the campaign routed onto used to read as
/// zero volume via `unwrap_or(0)` and silently exonerate clusters; it
/// must now be rejected loudly before any attribution math runs.
#[test]
#[should_panic(expected = "silently exonerate")]
fn short_volume_rows_are_rejected_not_zeroed() {
    let tracked: Vec<AsIndex> = (0..6).map(AsIndex).collect();
    let mut cat = Catchments::unassigned(6);
    for i in 0..6u32 {
        cat.set(AsIndex(i), Some(LinkId((i % 4) as u8)));
    }
    let campaign = synthetic_campaign(tracked, vec![cat]);
    assert_eq!(campaign.attribution.num_links(), 4);
    // Row of width 2 where links 0..4 were routed: short.
    let _ = rank_suspects(&campaign, &[vec![5, 5]]);
}

/// The over-wide side of the width contract: a row wider than the
/// attribution plane carries entries no tracked cluster can be matched
/// against — almost always a matrix built for the wrong link count — and
/// must be rejected, not silently truncated (`fit_link_volumes` is the
/// explicit opt-in for honeypot-shaped rows).
#[test]
#[should_panic(expected = "silently ignored")]
fn wide_volume_rows_are_rejected_not_ignored() {
    let tracked: Vec<AsIndex> = (0..6).map(AsIndex).collect();
    let mut cat = Catchments::unassigned(6);
    for i in 0..6u32 {
        cat.set(AsIndex(i), Some(LinkId((i % 4) as u8)));
    }
    let campaign = synthetic_campaign(tracked, vec![cat]);
    assert_eq!(campaign.attribution.num_links(), 4);
    // Row of width 6 where the attribution plane spans exactly 4: wide.
    let _ = rank_suspects(&campaign, &[vec![5, 5, 5, 5, 9, 9]]);
}

/// The online loop's range contract: a tracked AS past a prior
/// catchment is rejected up front, before anything deploys, as
/// `Catchments::get` rejected it on each greedy lookup.
#[test]
#[should_panic(expected = "tracked AS index 5 out of a prior catchment's range")]
fn online_tracked_past_prior_catchment_is_rejected() {
    let tracked: Vec<AsIndex> = (0..6).map(AsIndex).collect();
    let configs = vec![AnnouncementConfig::anycast_all(4); 2];
    let prior = vec![Catchments::unassigned(6), Catchments::unassigned(5)];
    let _ = localize_online(
        &configs,
        Some(&prior),
        &tracked,
        &|_: &AnnouncementConfig| -> Vec<u64> { unreachable!("deployed before the check") },
        &|_, _| unreachable!("measured before the check"),
        OnlineOptions::default(),
    );
}

/// A recorded campaign at the smallest end of the schedule space (the
/// baseline configuration alone — one epoch, no refinement deltas beyond
/// the first) must still produce a manifest `validate_manifest` accepts.
#[test]
fn single_config_recorded_campaign_manifest_validates() {
    let world = generate(&TopologyConfig::small(31));
    let origin = OriginAs::peering_style(&world, 4);
    let mut schedule = full_schedule(
        &world.topology,
        &origin,
        &GeneratorParams {
            max_removals: 0,
            max_poison_configs: Some(0),
        },
    );
    schedule.truncate(1);
    assert_eq!(schedule.len(), 1, "baseline-only schedule");
    let engine = BgpEngine::new(&world.topology, &EngineConfig::default());
    let recorder = CampaignRecorder::new(true);
    let campaign = run_campaign(
        &engine,
        &origin,
        &schedule,
        &CampaignOpts {
            recorder: Some(&recorder),
            ..CampaignOpts::default()
        },
    )
    .expect("valid schedule");
    assert_eq!(campaign.attribution.num_configs(), 1);
    assert_eq!(
        campaign.attribution.final_num_clusters(),
        campaign.clustering.num_clusters()
    );
    // One configuration cannot split the initial cluster set apart from
    // partitioning it by the baseline catchment; still a valid campaign.
    let volume = vec![1u64; world.topology.num_ases()];
    let vols = link_volume_matrix(&campaign, &volume);
    let _ = exercise_attribution(&campaign, &vols);

    let records = recorder.take_records();
    assert_eq!(records.len(), 1);
    let text = trackdown_suite::obs::render_manifest(
        &RunInfo {
            name: "degenerate_campaigns".into(),
            seed: 31,
            policy_seed: 0,
            scale: "small".into(),
            threads: campaign.stats.threads,
            trace: "off".into(),
            schedule_len: campaign.configs.len(),
            deterministic: true,
        },
        &records,
        None,
    );
    let summary = validate_manifest(&text).expect("degenerate manifest validates");
    assert_eq!(summary.epochs, 1);
    assert_eq!(summary.schedule_len, 1);
    assert!(summary.deterministic);
}
