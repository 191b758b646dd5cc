//! Streaming-ingest benchmark: ~1M flows over a 50k-AS window into the
//! exact [`BatchedDenseAccumulator`], the per-flow cost of attribution at
//! line rate. Before timing, the streamed rows must equal a per-flow
//! `Catchments::get` reference, so the timed code is the code that is
//! checked.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use trackdown_bgp::{Catchments, LinkId};
use trackdown_topology::AsIndex;
use trackdown_traffic::{
    ingest_stream, BatchedDenseAccumulator, Flow, VolumeAccumulator, DEFAULT_FLOW_BATCH,
};

const SOURCES: usize = 50_000;
const LINKS: usize = 8;
const FLOWS: usize = 1_000_000;

/// One observation window: a catchment assignment over 50k sources (with
/// a sprinkling of unobserved ASes) and ~1M flows from a heavy-tailed
/// subset of them — repeated keys throughout.
fn window(seed: u64) -> (Catchments, Vec<Flow>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut cat = Catchments::unassigned(SOURCES);
    for i in 0..SOURCES {
        let link = if rng.random_range(0..16u32) == 0 {
            None
        } else {
            Some(LinkId(rng.random_range(0..LINKS as u8)))
        };
        cat.set(AsIndex(i as u32), link);
    }
    let flows = (0..FLOWS)
        .map(|_| {
            // Heavy-tailed source pick: most flows from a small active set.
            let src = if rng.random_range(0..4u32) == 0 {
                rng.random_range(0..SOURCES as u32)
            } else {
                rng.random_range(0..64u32)
            };
            let bytes = 64 * (1 + rng.random_range(0..997u64));
            Flow {
                src_as: AsIndex(src),
                claimed_ip: 0xCB00_7101,
                dst_ip: 0xCB00_7201,
                packets: bytes / 64,
                bytes,
                spoofed: true,
            }
        })
        .collect();
    (cat, flows)
}

fn bench_stream_ingest(c: &mut Criterion) {
    let (cat, flows) = window(23);

    let mut want = vec![0u64; LINKS];
    for f in &flows {
        if let Some(link) = cat.get(f.src_as) {
            want[link.us()] += f.bytes;
        }
    }
    let mut acc = BatchedDenseAccumulator::new(1, LINKS);
    ingest_stream(&mut acc, 0, &cat, &flows, DEFAULT_FLOW_BATCH);
    assert_eq!(
        acc.dense_row(0),
        want,
        "streamed rows diverged from Catchments::get"
    );

    let mut group = c.benchmark_group("stream_ingest");
    group.sample_size(10);
    group.bench_function("exact_1m", |b| {
        b.iter(|| {
            acc.clear();
            ingest_stream(
                &mut acc,
                0,
                black_box(&cat),
                black_box(&flows),
                DEFAULT_FLOW_BATCH,
            );
            black_box(acc.volume(0, LinkId(0)))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_stream_ingest);
criterion_main!(benches);
