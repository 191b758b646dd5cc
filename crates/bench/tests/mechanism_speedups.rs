//! Mechanism-speedup gates on the 50k-source [`attribution_fixture`]:
//! the indexed attribution plane against the scan-based references it
//! replaced (≥ 5×), and exact streaming ingest against the dense
//! per-source rescan (≥ 3×). Each test checks that both arms produce
//! equal output before it times anything, so a floor only ever gates
//! equivalent code. Run explicitly, in release mode, one test at a time:
//!
//! ```text
//! cargo test --release -p trackdown-bench --test mechanism_speedups -- \
//!     --ignored --nocapture --test-threads=1
//! ```
//!
//! Methodology: the two arms alternate A/B for `TRIALS` rounds after an
//! untimed warm-up, and the floor is checked on the ratio of the two
//! medians — interleaving spreads machine-load shifts over both arms,
//! and medians are robust to the occasional preempted trial.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;
use trackdown_bench::attribution_fixture;
use trackdown_core::localize::{
    estimate_cluster_volumes, estimate_cluster_volumes_rescan, link_volume_matrix, rank_suspects,
    rank_suspects_acc, rank_suspects_rescan,
};
use trackdown_topology::AsIndex;
use trackdown_traffic::{
    ingest_stream, BatchedDenseAccumulator, VolumeAccumulator as _, DEFAULT_FLOW_BATCH,
};

const TRIALS: usize = 9;

/// Median wall-clock (ms) of `a` and of `b` over `TRIALS` interleaved
/// rounds, after one untimed call of each.
fn interleaved_medians(a: impl Fn() -> usize, b: impl Fn() -> usize) -> (f64, f64) {
    let time = |f: &dyn Fn() -> usize| {
        let t = Instant::now();
        black_box(f());
        t.elapsed().as_secs_f64() * 1e3
    };
    black_box((a(), b()));
    let (mut ta, mut tb) = (Vec::new(), Vec::new());
    for _ in 0..TRIALS {
        ta.push(time(&a));
        tb.push(time(&b));
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    (median(ta), median(tb))
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

    let (indexed_ms, scan_ms) = interleaved_medians(|| run_indexed().2, || run_scan().2);
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

    let (exact_ms, stream_ms) = interleaved_medians(|| build_exact()[0][0] as usize, stream);
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
