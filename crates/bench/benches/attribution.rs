//! Attribution-plane benchmarks: indexed/incremental suspect ranking,
//! volume estimation, and cluster lookups vs the scan-based references
//! they replaced, on the 50k-source synthetic partition of
//! [`trackdown_bench::attribution_fixture`].

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use trackdown_bench::{attribution_fixture, AttributionFixture};
use trackdown_core::localize::{
    estimate_cluster_volumes, estimate_cluster_volumes_rescan, rank_suspects, rank_suspects_rescan,
};
use trackdown_topology::AsIndex;

fn bench_attribution(c: &mut Criterion) {
    let AttributionFixture {
        campaign,
        link_volumes: vols,
        ..
    } = attribution_fixture();
    // The two paths must agree before we time them.
    assert_eq!(
        rank_suspects(&campaign, &vols),
        rank_suspects_rescan(&campaign, &vols)
    );
    assert_eq!(
        estimate_cluster_volumes(&campaign, &vols, 10),
        estimate_cluster_volumes_rescan(&campaign, &vols, 10)
    );

    let mut group = c.benchmark_group("attribution");
    group.sample_size(10);
    group.bench_function("rank_estimate/indexed_50k", |b| {
        b.iter(|| {
            let s = rank_suspects(black_box(&campaign), black_box(&vols));
            let e = estimate_cluster_volumes(black_box(&campaign), black_box(&vols), 10);
            black_box((s.len(), e.len()))
        })
    });
    group.bench_function("rank_estimate/scan_50k", |b| {
        b.iter(|| {
            let s = rank_suspects_rescan(black_box(&campaign), black_box(&vols));
            let e = estimate_cluster_volumes_rescan(black_box(&campaign), black_box(&vols), 10);
            black_box((s.len(), e.len()))
        })
    });

    // Per-source cluster-size lookups: the quadratic hot path the ISSUE
    // names (distance curves, online reports call this per source). The
    // scan arm runs on a 1/64 sample — at 50k sources the full scan sweep
    // is ~5e9 operations per iteration.
    let all: Vec<AsIndex> = campaign.tracked.clone();
    let sample: Vec<AsIndex> = campaign.tracked.iter().copied().step_by(64).collect();
    group.bench_function("cluster_size_of/indexed_50k_all", |b| {
        b.iter(|| {
            let total: usize = all
                .iter()
                .filter_map(|&s| campaign.clustering.cluster_size_of(s))
                .sum();
            black_box(total)
        })
    });
    group.bench_function("cluster_size_of/scan_50k_sample64", |b| {
        b.iter(|| {
            let total: usize = sample
                .iter()
                .filter_map(|&s| campaign.clustering.cluster_size_of_scan(s))
                .sum();
            black_box(total)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_attribution);
criterion_main!(benches);
