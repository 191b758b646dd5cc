//! Differential suite for the streaming attribution plane: on every
//! proptest-generated campaign — Warm, Delta and Cold executors, 1/2/8
//! worker threads, planted attacker volumes — the approximate path
//! (flows through a count-min [`SketchAccumulator`], read back by
//! `rank_suspects_acc` / `estimate_cluster_volumes_acc`) must bracket the
//! exact path (`link_volume_matrix` + `rank_suspects`) within the
//! accumulator's own deterministic error bound:
//!
//! * every `(config, link)` counter sits in `[exact, exact + bound]`
//!   (one-sided overestimation, never an underestimate);
//! * the sketch suspect set is a superset of the exact one — an
//!   overestimate can add suspects but never silently exonerate;
//! * exact suspects separated by more than the bound keep their relative
//!   order in the sketch ranking;
//! * interval estimates from both paths contain the planted ground truth.
//!
//! The exact streaming accumulator ([`BatchedDenseAccumulator`]) must
//! instead reproduce `link_volume_matrix` *bit-for-bit* — it is the
//! same-trait exact reference that separates "approximation error" from
//! "ingest bug". This mirrors the role `attribution_differential.rs`
//! plays for the indexed attribution plane.

use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::BTreeSet;
use trackdown_suite::core::online::{localize_online, localize_online_acc, OnlineOptions};
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
/// so every attacker's volume arrives as several flows for the same key —
/// the repeated-key pattern conservative update has to get right.
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

/// Stream `flows` into a fresh width×depth sketch, one campaign
/// configuration per sketch row, in small batches.
fn sketch_from(
    campaign: &Campaign,
    flows: &[Flow],
    width: usize,
    depth: usize,
) -> SketchAccumulator {
    let mut acc = SketchAccumulator::new(
        campaign.catchments.len(),
        campaign.attribution.num_links(),
        width,
        depth,
        0xD1FF,
    );
    for (c, cat) in campaign.catchments.iter().enumerate() {
        ingest_stream(&mut acc, c, cat, flows, 17);
    }
    acc
}

/// The full bracket obligation between one sketch and the exact rows on
/// one campaign (macro so proptest failure locations stay useful).
macro_rules! assert_sketch_brackets_exact {
    ($campaign:expr, $vols:expr, $volume:expr, $sketch:expr) => {
        let bound = $sketch.error_bound();

        // 1. Every counter is a one-sided overestimate within the bound.
        for (c, row) in $vols.iter().enumerate() {
            for (l, &exact) in row.iter().enumerate() {
                let est = $sketch.volume(c, LinkId(l as u8));
                prop_assert!(
                    est >= exact,
                    "sketch underestimated ({c},{l}): {est} < {exact}"
                );
                prop_assert!(
                    est - exact <= bound,
                    "sketch ({c},{l}) overestimate {} beyond bound {bound}",
                    est - exact
                );
            }
        }

        // 2. Suspect superset: overestimation never exonerates.
        let exact_suspects = rank_suspects(&$campaign, &$vols);
        let ranked = rank_suspects_acc(&$campaign, &$sketch);
        let exact_ids: BTreeSet<usize> = exact_suspects.iter().map(|s| s.cluster).collect();
        let sketch_ids: BTreeSet<usize> = ranked.suspects.iter().map(|s| s.cluster).collect();
        prop_assert!(
            exact_ids.is_subset(&sketch_ids),
            "sketch dropped exact suspects: {:?}",
            exact_ids.difference(&sketch_ids).collect::<Vec<_>>()
        );
        prop_assert_eq!(ranked.error_bound, bound);

        // 3. Every planted attacker's cluster named by the exact ranking
        //    is named by the sketch ranking too.
        for (a, &v) in $volume.iter().enumerate() {
            if v == 0 {
                continue;
            }
            if let Some(cl) = $campaign.clustering.cluster_of(AsIndex(a as u32)) {
                if exact_ids.contains(&(cl as usize)) {
                    prop_assert!(
                        sketch_ids.contains(&(cl as usize)),
                        "attacker AS {a} (cluster {cl}) missing from sketch suspects"
                    );
                }
            }
        }

        // 4. Exact suspects separated by more than the bound keep their
        //    relative order: sketch_j <= v_j + B < v_i <= sketch_i.
        let sketch_pos: std::collections::HashMap<usize, usize> = ranked
            .suspects
            .iter()
            .enumerate()
            .map(|(p, s)| (s.cluster, p))
            .collect();
        for i in 0..exact_suspects.len() {
            for j in (i + 1)..exact_suspects.len() {
                let (a, b) = (&exact_suspects[i], &exact_suspects[j]);
                if a.volume_upper_bound > b.volume_upper_bound.saturating_add(bound) {
                    let (pa, pb) = (sketch_pos[&a.cluster], sketch_pos[&b.cluster]);
                    prop_assert!(
                        pa < pb,
                        "clusters {} and {} flipped in the sketch ranking despite a \
                         gap above the bound",
                        a.cluster,
                        b.cluster
                    );
                }
            }
        }

        // 5. Interval estimates from both paths contain the planted truth.
        let exact_est = estimate_cluster_volumes(&$campaign, &$vols, 10);
        let sketch_est = estimate_cluster_volumes_acc(&$campaign, &$sketch, 10);
        let mut truth: std::collections::HashMap<usize, u64> = std::collections::HashMap::new();
        for (a, &v) in $volume.iter().enumerate() {
            if v > 0 {
                if let Some(cl) = $campaign.clustering.cluster_of(AsIndex(a as u32)) {
                    *truth.entry(cl as usize).or_insert(0) += v;
                }
            }
        }
        for est in [&exact_est, &sketch_est] {
            for e in est.iter() {
                let t = truth.get(&e.cluster).copied().unwrap_or(0);
                prop_assert!(
                    e.lower <= t && t <= e.upper.saturating_add(bound),
                    "cluster {} truth {t} outside [{}, {}] (+bound {bound})",
                    e.cluster,
                    e.lower,
                    e.upper
                );
            }
        }
    };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Warm, Delta and Cold campaigns: the sketch path must bracket the
    // exact path on each, and the exact streaming accumulator must equal
    // the matrix build bit-for-bit.
    #[test]
    fn sketch_brackets_exact_across_modes(
        seed in 0u64..500,
        pops in 3usize..6,
        max_poison in 4usize..12,
        attackers in 1usize..4,
    ) {
        let (world, origin, schedule) = scenario(seed, pops, 1, max_poison);
        let engine = BgpEngine::new(&world.topology, &EngineConfig::default());
        for mode in [CampaignMode::Warm, CampaignMode::Delta, CampaignMode::Cold] {
            let campaign = run_campaign(&engine, &origin, &schedule, &CampaignOpts { mode, ..CampaignOpts::default() }).expect("valid schedule");
            let volume = plant_attackers(&world, &campaign, attackers, seed);
            let vols = link_volume_matrix(&campaign, &volume);
            let flows = flows_from_volume(&volume);

            // Exact streaming reference: bit-identical to the matrix.
            let mut dense = BatchedDenseAccumulator::new(
                campaign.catchments.len(), campaign.attribution.num_links());
            for (c, cat) in campaign.catchments.iter().enumerate() {
                ingest_stream(&mut dense, c, cat, &flows, 17);
            }
            prop_assert_eq!(&dense.dense_rows(), &vols);
            prop_assert_eq!(dense.error_bound(), 0);

            // A roomy sketch and a deliberately starved one: the bracket
            // obligation holds at any resolution, only the bound grows.
            let roomy = sketch_from(&campaign, &flows, 256, 4);
            assert_sketch_brackets_exact!(campaign, vols, volume, roomy);
            let starved = sketch_from(&campaign, &flows, 2, 1);
            assert_sketch_brackets_exact!(campaign, vols, volume, starved);
        }
    }

    // Parallel campaigns across worker counts: the campaign (and thus the
    // sketch ranking) must come out identical whatever the thread count.
    #[test]
    fn sketch_ranking_identical_across_threads(
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
            let vols = link_volume_matrix(&campaign, &volume);
            let flows = flows_from_volume(&volume);
            let sketch = sketch_from(&campaign, &flows, 128, 4);
            assert_sketch_brackets_exact!(campaign, vols, volume, sketch);
            let ranked = rank_suspects_acc(&campaign, &sketch);
            match &golden {
                None => golden = Some(ranked),
                Some(g) => {
                    prop_assert_eq!(&g.suspects, &ranked.suspects);
                    prop_assert_eq!(g.error_bound, ranked.error_bound);
                    prop_assert_eq!(g.stable, ranked.stable);
                }
            }
        }
    }
}

/// Adversarial collisions, pinned concrete: a 2×1 sketch forces every
/// link into one of two buckets, the worst case for conservative update.
/// Estimates still never underestimate and stay within the enumerated
/// bound, and the bound is honest — at least the largest colliding mass.
#[test]
fn adversarial_collisions_stay_within_enumerated_bound() {
    let mut s = CountMinSketch::new(2, 1, 0xC0111DE);
    let truth: Vec<u64> = (0..12u64).map(|k| (k + 1) * 1_000).collect();
    for (k, &v) in truth.iter().enumerate() {
        s.record(k, v);
    }
    let bound = s.collision_bound(truth.len());
    assert!(bound > 0, "12 keys in 2 buckets must collide");
    for (k, &v) in truth.iter().enumerate() {
        let est = s.estimate(k);
        assert!(est >= v, "underestimate at key {k}");
        assert!(est - v <= bound, "key {k}: {} > bound {bound}", est - v);
    }
    // The bound must dominate the worst observed overestimate.
    let worst = truth
        .iter()
        .enumerate()
        .map(|(k, &v)| s.estimate(k) - v)
        .max()
        .unwrap();
    assert!(bound >= worst);

    // Widening the sketch must deflate the bound below the grand total
    // (at 2×1 it is honestly vacuous — every key shares a bucket value).
    let mut roomy = CountMinSketch::new(64, 4, 0xC0111DE);
    for (k, &v) in truth.iter().enumerate() {
        roomy.record(k, v);
    }
    let roomy_bound = roomy.collision_bound(truth.len());
    assert!(
        roomy_bound < bound,
        "wider sketch did not tighten the bound"
    );
    assert!(roomy_bound < truth.iter().sum::<u64>());
    for (k, &v) in truth.iter().enumerate() {
        assert!(roomy.estimate(k) >= v);
        assert!(roomy.estimate(k) - v <= roomy_bound);
    }
}

/// The online loop driven by a sketch-backed accumulator oracle still
/// corners the attacker, and a batched-dense oracle reproduces the exact
/// volume-vector oracle's result identically.
#[test]
fn online_loop_with_sketch_oracle_names_attacker() {
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

    // Exact oracle (volume vector) vs batched-dense oracle: identical.
    let exact = localize_online(
        &schedule,
        Some(&campaign.catchments),
        &campaign.tracked,
        &|cfg| volume_per_link(&deploy(cfg), &vol, num_links),
        &measure,
        opts,
    );
    let dense = localize_online_acc(
        &schedule,
        Some(&campaign.catchments),
        &campaign.tracked,
        &|cfg| {
            let mut acc = BatchedDenseAccumulator::new(1, num_links);
            ingest_stream(&mut acc, 0, &deploy(cfg), &flows, 16);
            Box::new(acc) as Box<dyn VolumeAccumulator>
        },
        &measure,
        opts,
    );
    assert_eq!(exact, dense, "batched-dense oracle diverged from exact");
    assert!(exact.suspects.contains(&attacker), "attacker escaped");

    // Sketch oracle: the suspect set may widen (one-sided error) but can
    // never lose the attacker.
    let sketch = localize_online_acc(
        &schedule,
        Some(&campaign.catchments),
        &campaign.tracked,
        &|cfg| {
            let mut acc = SketchAccumulator::new(1, num_links, 64, 4, 0xD1FF);
            ingest_stream(&mut acc, 0, &deploy(cfg), &flows, 16);
            Box::new(acc) as Box<dyn VolumeAccumulator>
        },
        &measure,
        opts,
    );
    assert!(
        sketch.suspects.contains(&attacker),
        "sketch oracle exonerated the attacker"
    );
    let exact_set: BTreeSet<AsIndex> = exact.suspects.iter().copied().collect();
    let sketch_set: BTreeSet<AsIndex> = sketch.suspects.iter().copied().collect();
    assert!(
        exact_set.is_subset(&sketch_set),
        "sketch oracle dropped exact suspects"
    );
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

    let mut acc = SketchAccumulator::new(
        campaign.catchments.len(),
        campaign.attribution.num_links(),
        64,
        4,
        0xD1FF,
    );
    for (c, cat) in campaign.catchments.iter().enumerate() {
        ingest_stream(&mut acc, c, cat, &flows, 16);
    }

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
        acc.saturation_permille().unwrap_or(0) > 0,
        "ingest never populated the sketch"
    );
}
