//! The 50k-source [`attribution_fixture`], the online loop's greedy
//! scoring, and the checks and gates over them. The fixture's shape, the
//! indexed == scan equality of the attribution plane and the property
//! that bitset scoring ([`Catchments::distinct_among_words`]) equals the
//! sort/dedup count it replaced run in every `cargo test`. The three
//! mechanism-speedup gates are `#[ignore]`d timing tests: the indexed
//! attribution plane against the scan-based references it replaced
//! (>= 5x), exact streaming ingest against the dense per-source rescan
//! (>= 3x), and bitset scoring against sort/dedup on the paper-scale
//! prior (>= 10x). Each gate checks that both arms produce equal output
//! before it times anything, so a floor only ever gates equivalent code.
//! Run them explicitly, in release mode, one test at a time:
//!
//! ```text
//! cargo test --release --test mechanism_speedups -- \
//!     --ignored --nocapture --test-threads=1
//! ```
//!
//! Every gate reads the ratio of [`interleaved_medians`] over `TRIALS`
//! alternating rounds.

mod common;

use common::{attribution_fixture, interleaved_medians, CONFIGS, GROUPS, SOURCES};
use proptest::collection::vec;
use proptest::option;
use proptest::prelude::*;
use std::cell::RefCell;
use trackdown_bgp::catchment::MemberWords;
use trackdown_bgp::{Catchments, LinkId};
use trackdown_core::localize::{
    estimate_cluster_volumes, estimate_cluster_volumes_rescan, link_volume_matrix, rank_suspects,
    rank_suspects_acc, rank_suspects_rescan,
};
use trackdown_experiments::{Options, Scale, Scenario};
use trackdown_topology::AsIndex;
use trackdown_traffic::{
    ingest_stream, BatchedDenseAccumulator, VolumeAccumulator as _, DEFAULT_FLOW_BATCH,
};

const TRIALS: usize = 9;

#[test]
fn fixture_shape_is_pinned() {
    let f = attribution_fixture();
    assert_eq!(f.campaign.tracked.len(), SOURCES);
    assert_eq!(f.campaign.catchments.len(), CONFIGS);
    assert_eq!(f.link_volumes.len(), CONFIGS);
    // The few-hundred-source attack: 257 active sources at this seed.
    assert_eq!(f.flows.len(), 257);
    assert_eq!(
        f.flows.iter().map(|fl| fl.bytes).sum::<u64>(),
        f.flow_volume.iter().sum::<u64>()
    );
    // Co-routed groups: the partition settles near GROUPS clusters,
    // not 50k singletons.
    let clusters = f.campaign.clustering.num_clusters();
    assert!((GROUPS / 2..=GROUPS).contains(&clusters), "{clusters}");
}

/// The indexed attribution plane equals the scan-based references on the
/// 50k-source partition, for both the suspect ranking and the interval
/// volume estimates, at both attacks of the fixture.
#[test]
fn indexed_attribution_equals_rescan_on_fixture() {
    let f = attribution_fixture();
    let campaign = &f.campaign;
    let flow_rows = link_volume_matrix(campaign, &f.flow_volume);
    for vols in [&f.link_volumes, &flow_rows] {
        let suspects = rank_suspects(campaign, vols);
        assert!(!suspects.is_empty(), "the attack names no suspect");
        assert_eq!(suspects, rank_suspects_rescan(campaign, vols));
        assert_eq!(
            estimate_cluster_volumes(campaign, vols, 10),
            estimate_cluster_volumes_rescan(campaign, vols, 10)
        );
    }
}

#[test]
#[ignore = "timing-sensitive; run in release mode via CI's observability job"]
fn indexed_attribution_is_5x_faster_than_rescan() {
    let f = attribution_fixture();
    let (campaign, vols) = (&f.campaign, &f.link_volumes);
    // Per-source size lookups on a 1/8 sample: the full scan sweep is
    // ~5e9 operations and would dominate the run for no signal.
    let sample: Vec<AsIndex> = campaign.tracked.iter().copied().step_by(8).collect();
    let run_indexed = || {
        let s = rank_suspects(campaign, vols);
        let e = estimate_cluster_volumes(campaign, vols, 10);
        let sz: usize = sample
            .iter()
            .filter_map(|&a| campaign.clustering.cluster_size_of(a))
            .sum();
        (s, e, sz)
    };
    let run_scan = || {
        let s = rank_suspects_rescan(campaign, vols);
        let e = estimate_cluster_volumes_rescan(campaign, vols, 10);
        let sz: usize = sample
            .iter()
            .filter_map(|&a| campaign.clustering.cluster_size_of_scan(a))
            .sum();
        (s, e, sz)
    };
    assert!(
        run_indexed() == run_scan(),
        "indexed/scan attribution diverged"
    );

    let (indexed_ms, scan_ms) = interleaved_medians(TRIALS, run_indexed, run_scan);
    let speedup = scan_ms / indexed_ms;
    println!(
        "attribution: indexed {indexed_ms:.3} ms vs scan {scan_ms:.3} ms (medians of {TRIALS}), \
         {speedup:.2}x"
    );
    assert!(
        speedup >= 5.0,
        "indexed attribution under 5x over scans: {speedup:.2}x"
    );
}

#[test]
#[ignore = "timing-sensitive; run in release mode via CI's observability job"]
fn stream_ingest_is_3x_faster_than_rescan() {
    let f = attribution_fixture();
    let campaign = &f.campaign;
    let build_exact = || link_volume_matrix(campaign, &f.flow_volume);
    // Steady state for the streaming arm: a line-rate box allocates the
    // counters once and recycles them between observation windows, so
    // the timed work is clear + ingest, not allocation.
    let reused = RefCell::new(BatchedDenseAccumulator::new(
        campaign.catchments.len(),
        campaign.attribution.num_links(),
    ));
    let stream = || {
        let mut acc = reused.borrow_mut();
        acc.clear();
        for (c, cat) in campaign.catchments.iter().enumerate() {
            ingest_stream(&mut *acc, c, cat, &f.flows, DEFAULT_FLOW_BATCH);
        }
        acc.num_links()
    };
    // Equality before timing: the streamed rows must equal the rescan
    // bit for bit, and so must the suspect ranking read from them.
    let exact_rows = build_exact();
    stream();
    assert!(
        reused.borrow().dense_rows() == exact_rows,
        "streamed rows diverged from link_volume_matrix"
    );
    assert!(
        rank_suspects_acc(campaign, &*reused.borrow()).suspects
            == rank_suspects(campaign, &exact_rows),
        "streamed suspect ranking diverged"
    );

    let (exact_ms, stream_ms) = interleaved_medians(TRIALS, build_exact, stream);
    let speedup = exact_ms / stream_ms;
    println!(
        "stream ingest: {stream_ms:.3} ms vs exact rescan {exact_ms:.3} ms on {} flows \
         (medians of {TRIALS}), {speedup:.2}x",
        f.flows.len()
    );
    assert!(
        speedup >= 3.0,
        "stream ingest under 3x over the rescan: {speedup:.2}x"
    );
}

/// The greedy score the online loop computed before bitset scoring: the
/// distinct [`Catchments::get`] values over `ases`, by sort and dedup.
fn distinct_reference(cat: &Catchments, ases: &[AsIndex]) -> usize {
    let mut links: Vec<Option<LinkId>> = ases.iter().map(|&a| cat.get(a)).collect();
    links.sort_unstable();
    links.dedup();
    links.len()
}

/// `ases` as a bitset over AS index, `width` bits wide.
fn bitset(ases: &[AsIndex], width: usize) -> Vec<u64> {
    let mut bits = vec![0u64; width.div_ceil(64)];
    for a in ases {
        bits[a.us() / 64] |= 1 << (a.us() % 64);
    }
    bits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `distinct_among_words` equals the sort/dedup count over `get`:
    /// catchments of any width (mostly not a multiple of 64) with
    /// unassigned ASes and a link row emptied through `set`, member sets
    /// from empty to full, read as [`MemberWords`] from a bitset as wide
    /// as the catchment and from one that ends at the last member's word,
    /// in ascending and in reversed word order. Both carry one past the
    /// last member as their end.
    #[test]
    fn distinct_among_equals_sort_dedup_count(
        dense in vec(option::weighted(0.8, 0u8..7), 0..300),
        emptied in 0u8..7,
        draws in vec(any::<u8>(), 300),
        density in any::<u8>(),
    ) {
        let dense: Vec<Option<LinkId>> = dense.into_iter().map(|l| l.map(LinkId)).collect();
        let mut cat = Catchments::from_dense(&dense);
        for (i, &link) in dense.iter().enumerate() {
            if link == Some(LinkId(emptied)) {
                let moved = (i % 2 == 0).then_some(LinkId((emptied + 1) % 7));
                cat.set(AsIndex(i as u32), moved);
            }
        }
        let members: Vec<AsIndex> = (0..dense.len())
            .filter(|&i| draws[i] < density)
            .map(|i| AsIndex(i as u32))
            .collect();
        let want = distinct_reference(&cat, &members);
        let end = members.last().map_or(0, |a| a.us() + 1);
        for width in [cat.len(), end] {
            let words = MemberWords::from_bitset(&bitset(&members, width));
            prop_assert_eq!(words.end(), end);
            prop_assert_eq!(cat.distinct_among_words(&words), want, "width {}", width);
            let reversed = MemberWords::from_words(words.words().iter().rev().copied());
            prop_assert_eq!(cat.distinct_among_words(&reversed), want, "width {}, reversed", width);
        }
        prop_assert_eq!(cat.distinct_among_words(&MemberWords::default()), 0);
    }
}

#[test]
#[ignore = "timing-sensitive; run in release mode via CI's observability job"]
fn bitset_scoring_is_10x_faster_than_sort_dedup() {
    let scenario = Scenario::build(Options {
        scale: Scale::Full,
        seed: 7,
        threads: Some(1),
        ..Options::default()
    });
    let campaign = scenario.run();
    let prior = &campaign.catchments;
    // One greedy pick per baseline link: after the baseline round, the
    // suspects are the tracked ASes of the link that carried the attack.
    let suspect_sets: Vec<Vec<AsIndex>> = prior[0]
        .active_links()
        .into_iter()
        .map(|l| {
            campaign
                .tracked
                .iter()
                .copied()
                .filter(|&a| prior[0].get(a) == Some(l))
                .collect()
        })
        .collect();
    // As the online loop does: one suspect bitset's nonzero words per
    // pick, scored against every candidate.
    let score_bitset = || {
        suspect_sets
            .iter()
            .map(|suspects| {
                let members = MemberWords::from_bitset(&bitset(suspects, prior[0].len()));
                prior
                    .iter()
                    .map(|c| c.distinct_among_words(&members))
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
    };
    let score_reference = || {
        suspect_sets
            .iter()
            .map(|suspects| {
                prior
                    .iter()
                    .map(|c| distinct_reference(c, suspects))
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
    };
    assert!(
        score_bitset() == score_reference(),
        "bitset scores diverged from sort/dedup"
    );

    let (bitset_ms, reference_ms) = interleaved_medians(TRIALS, score_bitset, score_reference);
    let speedup = reference_ms / bitset_ms;
    println!(
        "greedy scoring: bitset {bitset_ms:.3} ms vs sort/dedup {reference_ms:.3} ms for {} picks \
         over {} candidates (medians of {TRIALS}), {speedup:.2}x",
        suspect_sets.len(),
        prior.len()
    );
    assert!(
        speedup >= 10.0,
        "bitset scoring under 10x over sort/dedup: {speedup:.2}x"
    );
}
