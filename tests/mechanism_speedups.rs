//! The 50k-source [`attribution_fixture`] and the checks and gates over
//! it. The fixture's shape and the indexed == scan equality of the
//! attribution plane run in every `cargo test`. The two mechanism-speedup
//! gates are `#[ignore]`d timing tests: the indexed attribution plane
//! against the scan-based references it replaced (>= 5x), and exact
//! streaming ingest against the dense per-source rescan (>= 3x). Each
//! gate checks that both arms produce equal output before it times
//! anything, so a floor only ever gates equivalent code. Run them
//! explicitly, in release mode, one test at a time:
//!
//! ```text
//! cargo test --release --test mechanism_speedups -- \
//!     --ignored --nocapture --test-threads=1
//! ```
//!
//! Both gates read the ratio of [`interleaved_medians`] over `TRIALS`
//! alternating rounds.

mod common;

use common::{attribution_fixture, interleaved_medians, CONFIGS, GROUPS, SOURCES};
use std::cell::RefCell;
use trackdown_core::localize::{
    estimate_cluster_volumes, estimate_cluster_volumes_rescan, link_volume_matrix, rank_suspects,
    rank_suspects_acc, rank_suspects_rescan,
};
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
