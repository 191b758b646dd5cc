//! Differential suite for the streaming attribution plane: on every
//! proptest-generated campaign — control-plane and data-plane
//! catchments, 1/2/8 worker threads, planted attacker volumes — flows streamed through
//! [`BatchedDenseAccumulator`] and read back by `rank_suspects_acc` /
//! `estimate_cluster_volumes_acc` must reproduce the dense path
//! (`link_volume_matrix` + `rank_suspects` / `estimate_cluster_volumes`)
//! exactly:
//!
//! * the streamed rows equal `link_volume_matrix` bit for bit;
//! * the suspect ranking and the interval estimates are equal;
//! * every interval contains the planted ground truth.
//!
//! This mirrors the role `attribution_differential.rs` plays for the
//! indexed attribution plane.

use proptest::prelude::*;
use std::cell::RefCell;
use trackdown_suite::core::online::{localize_online, OnlineOptions};
use trackdown_suite::prelude::*;
use trackdown_suite::traffic::{volume_per_link, Flow};

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

/// Split a per-AS volume vector into flows of at most 37 000 bytes each,
/// so every attacker's volume arrives as several flows for the same key.
fn flows_from_volume(volume: &[u64]) -> Vec<Flow> {
    let mut flows = Vec::new();
    for (i, &total) in volume.iter().enumerate() {
        let mut left = total;
        while left > 0 {
            let bytes = left.min(37_000);
            flows.push(Flow {
                src_as: AsIndex(i as u32),
                claimed_ip: 0xCB00_7101,
                dst_ip: 0xCB00_7201,
                packets: bytes.div_ceil(64),
                bytes,
                spoofed: true,
            });
            left -= bytes;
        }
    }
    flows
}

/// Stream `flows` into a fresh exact accumulator, one campaign
/// configuration per row, in small batches.
fn stream(campaign: &Campaign, flows: &[Flow]) -> BatchedDenseAccumulator {
    let mut acc =
        BatchedDenseAccumulator::new(campaign.catchments.len(), campaign.attribution.num_links());
    for (c, cat) in campaign.catchments.iter().enumerate() {
        ingest_stream(&mut acc, c, cat, flows, 17);
    }
    acc
}

/// The full equality obligation between the streamed path and the dense
/// path on one campaign with planted per-AS `volume`; returns the
/// streamed ranking.
fn assert_streamed_equals_exact(campaign: &Campaign, volume: &[u64]) -> RankedSuspects {
    let vols = link_volume_matrix(campaign, volume);
    let acc = stream(campaign, &flows_from_volume(volume));
    assert_eq!(acc.dense_rows(), vols, "streamed rows diverged");

    let ranked = rank_suspects_acc(campaign, &acc);
    assert_eq!(ranked.suspects, rank_suspects(campaign, &vols));

    let estimates = estimate_cluster_volumes_acc(campaign, &acc, 10);
    assert_eq!(estimates, estimate_cluster_volumes(campaign, &vols, 10));
    let mut truth = std::collections::HashMap::new();
    for (a, &v) in volume.iter().enumerate() {
        if v > 0 {
            if let Some(cl) = campaign.clustering.cluster_of(AsIndex(a as u32)) {
                *truth.entry(cl as usize).or_insert(0u64) += v;
            }
        }
    }
    for e in &estimates {
        let t = truth.get(&e.cluster).copied().unwrap_or(0);
        assert!(
            e.lower <= t && t <= e.upper,
            "cluster {} truth {t} outside [{}, {}]",
            e.cluster,
            e.lower,
            e.upper
        );
    }
    ranked
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Control-plane and data-plane campaigns: the streamed path must
    // equal the dense path on each.
    #[test]
    fn streamed_attribution_equals_exact_across_modes(
        seed in 0u64..500,
        pops in 3usize..6,
        max_poison in 4usize..12,
        attackers in 1usize..4,
    ) {
        let (world, origin, schedule) = scenario(seed, pops, 1, max_poison);
        let engine = BgpEngine::new(&world.topology, &EngineConfig::default());
        for source in [CatchmentSource::ControlPlane, CatchmentSource::DataPlane] {
            let campaign = run_campaign(&engine, &origin, &schedule, &CampaignOpts { source, ..CampaignOpts::default() }).expect("valid schedule");
            let volume = plant_attackers(&world, &campaign, attackers, seed);
            assert_streamed_equals_exact(&campaign, &volume);
        }
    }

    // Parallel campaigns across worker counts: the campaign (and thus the
    // streamed ranking) must come out identical whatever the thread count.
    #[test]
    fn streamed_ranking_identical_across_threads(
        seed in 0u64..500,
        max_poison in 4usize..10,
        attackers in 1usize..4,
    ) {
        let (world, origin, schedule) = scenario(seed, 4, 1, max_poison);
        let engine = BgpEngine::new(&world.topology, &EngineConfig::default());
        let mut golden: Option<RankedSuspects> = None;
        for threads in [1usize, 2, 8] {
            let campaign = run_campaign(&engine, &origin, &schedule, &CampaignOpts { threads, ..CampaignOpts::default() }).expect("valid schedule");
            let volume = plant_attackers(&world, &campaign, attackers, seed);
            let ranked = assert_streamed_equals_exact(&campaign, &volume);
            match &golden {
                None => golden = Some(ranked),
                Some(g) => prop_assert_eq!(g, &ranked),
            }
        }
    }
}

/// The online loop fed each window's streamed `dense_row(0)` reproduces
/// the exact volume-vector oracle's result identically and corners the
/// attacker.
#[test]
fn online_loop_with_streamed_rows_names_attacker() {
    let (world, origin, schedule) = scenario(29, 4, 1, 12);
    let engine = BgpEngine::new(&world.topology, &EngineConfig::default());
    let campaign = run_campaign(&engine, &origin, &schedule, &CampaignOpts::default())
        .expect("valid schedule");
    let attacker = campaign.tracked[campaign.tracked.len() / 4];
    let mut vol = vec![0u64; world.topology.num_ases()];
    vol[attacker.us()] = 1_000_000;
    let flows = flows_from_volume(&vol);
    let num_links = origin.num_links();

    let session = RefCell::new(engine.session());
    let deploy = |cfg: &AnnouncementConfig| {
        Catchments::from_data_plane(
            &session
                .borrow_mut()
                .deploy_config(&origin, &cfg.to_link_announcements(), 200)
                .expect("valid config"),
        )
    };
    let opts = OnlineOptions {
        max_configs: 20,
        target_suspects: 5,
        greedy: true,
        prefixes: 1,
    };
    let measure = |idx: usize, _cfg: &AnnouncementConfig| campaign.catchments[idx].clone();

    let exact = localize_online(
        &schedule,
        Some(&campaign.catchments),
        &campaign.tracked,
        &|cfg| volume_per_link(&deploy(cfg), &vol, num_links),
        &measure,
        opts,
    );
    let streamed = localize_online(
        &schedule,
        Some(&campaign.catchments),
        &campaign.tracked,
        &|cfg| {
            let mut acc = BatchedDenseAccumulator::new(1, num_links);
            ingest_stream(&mut acc, 0, &deploy(cfg), &flows, 16);
            acc.dense_row(0)
        },
        &measure,
        opts,
    );
    assert_eq!(exact, streamed, "streamed oracle diverged from exact");
    assert!(streamed.suspects.contains(&attacker), "attacker escaped");
}

/// Streaming ingest maintains the observability counters: the flow and
/// byte totals grow by at least what was just ingested (other tests may
/// run concurrently, so only the lower bound is checkable).
#[test]
fn ingest_counters_grow_with_streamed_flows() {
    let (world, origin, schedule) = scenario(31, 4, 1, 8);
    let engine = BgpEngine::new(&world.topology, &EngineConfig::default());
    let campaign = run_campaign(&engine, &origin, &schedule, &CampaignOpts::default())
        .expect("valid schedule");
    let volume = plant_attackers(&world, &campaign, 2, 31);
    let flows = flows_from_volume(&volume);
    let bytes: u64 = flows.iter().map(|f| f.bytes).sum();
    let obs = trackdown_suite::obs::global();
    let flows_before = obs.counter("traffic.ingest.flows").get();
    let bytes_before = obs.counter("traffic.ingest.bytes").get();

    let acc = stream(&campaign, &flows);

    let configs = campaign.catchments.len() as u64;
    assert!(
        obs.counter("traffic.ingest.flows").get() - flows_before >= flows.len() as u64 * configs,
        "flow counter did not cover the streamed batches"
    );
    assert!(
        obs.counter("traffic.ingest.bytes").get() - bytes_before >= bytes * configs,
        "byte counter did not cover the streamed batches"
    );
    assert!(
        acc.dense_rows().iter().flatten().any(|&v| v > 0),
        "ingest never populated the accumulator"
    );
}
