//! End-to-end pipeline benchmarks, one per evaluation artifact family:
//! the campaign behind Figures 3/4 (deploy + cluster), the Figure 8
//! schedulers, the Figure 10 placement/attribution loop, and the packet
//! codec a deployment would run per received query.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use trackdown_bgp::{BgpEngine, EngineConfig, OriginAs, PolicyConfig};
use trackdown_core::generator::{full_schedule, GeneratorParams};
use trackdown_core::localize::{run_campaign, CampaignMode, CampaignOpts};
use trackdown_core::schedule::{greedy_schedule, mean_size_objective, random_schedule_stats};
use trackdown_topology::gen::{generate, TopologyConfig};
use trackdown_topology::AsIndex;
use trackdown_traffic::{
    cumulative_volume_by_cluster_slices, pareto_shape_80_20, place_sources, SourcePlacement,
    UdpPacket,
};

fn bench_fig34_campaign(c: &mut Criterion) {
    let world = generate(&TopologyConfig::small(1));
    let origin = OriginAs::peering_style(&world, 4);
    // Violator-free policies: epoch reuse only engages where fixpoints
    // are history-independent (CampaignSession::warm_reuse), so this is
    // the configuration in which the delta/cold ratio measures the
    // campaign-runner speedup rather than the violator fallback.
    let cfg = EngineConfig {
        policy: PolicyConfig {
            violator_fraction: 0.0,
            ..PolicyConfig::default()
        },
        ..EngineConfig::default()
    };
    let engine = BgpEngine::new(&world.topology, &cfg);
    let schedule = full_schedule(
        &world.topology,
        &origin,
        &GeneratorParams {
            max_removals: 2,
            max_poison_configs: Some(10),
        },
    );
    // Default (delta epoch reuse) vs the cold-start reference oracle
    // on the same schedule — the ratio is the campaign-runner speedup.
    c.bench_function("fig3_4_campaign_small", |b| {
        b.iter(|| {
            let campaign = run_campaign(
                &engine,
                &origin,
                black_box(&schedule),
                &CampaignOpts::default(),
            )
            .expect("valid schedule");
            black_box(campaign.clustering.mean_size())
        })
    });
    c.bench_function("fig3_4_campaign_small_cold", |b| {
        b.iter(|| {
            let campaign = run_campaign(
                &engine,
                &origin,
                black_box(&schedule),
                &CampaignOpts {
                    mode: CampaignMode::Cold,
                    ..CampaignOpts::default()
                },
            )
            .expect("valid schedule");
            black_box(campaign.clustering.mean_size())
        })
    });
}

// The paper-scale run: a full three-phase schedule (~705 configurations
// at 7 PoPs) on the full 2000-AS topology, default delta executor vs the cold
// oracle. This is the headline number for the epoch-reuse runner.
fn bench_full_campaign(c: &mut Criterion) {
    let world = generate(&TopologyConfig {
        seed: 1,
        ..TopologyConfig::default()
    });
    let origin = OriginAs::peering_style(&world, 7);
    let cfg = EngineConfig {
        policy: PolicyConfig {
            violator_fraction: 0.0,
            ..PolicyConfig::default()
        },
        ..EngineConfig::default()
    };
    let engine = BgpEngine::new(&world.topology, &cfg);
    let schedule = full_schedule(
        &world.topology,
        &origin,
        &GeneratorParams {
            max_removals: 3,
            max_poison_configs: None,
        },
    );
    eprintln!("full campaign schedule: {} configurations", schedule.len());
    c.bench_function("campaign_full_schedule_warm", |b| {
        b.iter(|| {
            let campaign = run_campaign(
                &engine,
                &origin,
                black_box(&schedule),
                &CampaignOpts::default(),
            )
            .expect("valid schedule");
            black_box(campaign.clustering.mean_size())
        })
    });
    c.bench_function("campaign_full_schedule_cold", |b| {
        b.iter(|| {
            let campaign = run_campaign(
                &engine,
                &origin,
                black_box(&schedule),
                &CampaignOpts {
                    mode: CampaignMode::Cold,
                    ..CampaignOpts::default()
                },
            )
            .expect("valid schedule");
            black_box(campaign.clustering.mean_size())
        })
    });
}

fn bench_fig8_schedulers(c: &mut Criterion) {
    let world = generate(&TopologyConfig::small(2));
    let origin = OriginAs::peering_style(&world, 4);
    let engine = BgpEngine::new(&world.topology, &EngineConfig::default());
    let schedule = full_schedule(
        &world.topology,
        &origin,
        &GeneratorParams {
            max_removals: 2,
            max_poison_configs: Some(10),
        },
    );
    let campaign = run_campaign(&engine, &origin, &schedule, &CampaignOpts::default())
        .expect("valid schedule");
    c.bench_function("fig8_random_20_sequences", |b| {
        b.iter(|| {
            black_box(random_schedule_stats(
                &campaign.catchments,
                &campaign.tracked,
                20,
                7,
            ))
        })
    });
    c.bench_function("fig8_greedy_10_steps", |b| {
        b.iter(|| {
            black_box(greedy_schedule(
                &campaign.catchments,
                &campaign.tracked,
                10,
                mean_size_objective,
            ))
        })
    });
}

fn bench_fig10_attribution(c: &mut Criterion) {
    let world = generate(&TopologyConfig::small(3));
    let origin = OriginAs::peering_style(&world, 4);
    let engine = BgpEngine::new(&world.topology, &EngineConfig::default());
    let schedule = full_schedule(
        &world.topology,
        &origin,
        &GeneratorParams {
            max_removals: 2,
            max_poison_configs: Some(10),
        },
    );
    let campaign = run_campaign(&engine, &origin, &schedule, &CampaignOpts::default())
        .expect("valid schedule");
    let clustering = &campaign.clustering;
    let candidates: Vec<AsIndex> = campaign.tracked.clone();
    c.bench_function("fig10_placement_and_attribution", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let placed = place_sources(
                world.topology.num_ases(),
                &candidates,
                SourcePlacement::Pareto {
                    total: 100,
                    alpha: pareto_shape_80_20(),
                },
                seed,
            );
            let vols = placed.volume_per_as(1_000);
            black_box(cumulative_volume_by_cluster_slices(
                clustering.iter_clusters(),
                &vols,
            ))
        })
    });
}

fn bench_packet_codec(c: &mut Criterion) {
    let pkt = UdpPacket {
        src_ip: 0xCB00_7107,
        dst_ip: 0xB8A4_E001,
        ttl: 251,
        src_port: 4444,
        dst_port: 123,
        payload: Bytes::from_static(b"\x17\x00\x03\x2a\x00\x00\x00\x00"),
    };
    c.bench_function("packet_encode", |b| b.iter(|| black_box(pkt.encode())));
    let wire = pkt.encode();
    c.bench_function("packet_decode", |b| {
        b.iter(|| black_box(UdpPacket::decode(wire.clone()).unwrap()))
    });
}

criterion_group!(
    benches,
    bench_fig34_campaign,
    bench_full_campaign,
    bench_fig8_schedulers,
    bench_fig10_attribution,
    bench_packet_codec
);
criterion_main!(benches);
