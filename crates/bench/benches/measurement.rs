//! Measurement-plane benchmarks: traceroute campaigns, hop repair, and
//! the full measure() pipeline per configuration.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use trackdown_bgp::{BgpEngine, EngineConfig, LinkAnnouncement, OriginAs, SnapshotDetail};
use trackdown_measure::{
    repair_campaign, run_campaign as run_traceroutes, IpToAs, IpToAsConfig, MeasurementConfig,
    MeasurementPlane, TracerouteConfig,
};
use trackdown_topology::cone::ConeInfo;
use trackdown_topology::gen::{generate, TopologyConfig};
use trackdown_topology::AsIndex;

fn bench_measurement(c: &mut Criterion) {
    let world = generate(&TopologyConfig::medium(1));
    let origin = OriginAs::peering_style(&world, 5);
    let engine = BgpEngine::new(&world.topology, &EngineConfig::default());
    let anns: Vec<_> = origin.link_ids().map(LinkAnnouncement::plain).collect();
    // The plane reads BGP feed paths from the outcome's path store.
    let outcome = engine
        .propagate_config_detailed(&origin, &anns, 200, SnapshotDetail::Paths)
        .unwrap();
    let cones = ConeInfo::compute(&world.topology);

    let db = IpToAs::build(&world.topology, &IpToAsConfig::default());
    let probes: Vec<AsIndex> = world.topology.indices().step_by(4).collect();
    let tr_cfg = TracerouteConfig::default();
    c.bench_function("traceroute_campaign_150probes_3rounds", |b| {
        b.iter(|| {
            black_box(run_traceroutes(
                &world.topology,
                &db,
                &outcome,
                black_box(&probes),
                &tr_cfg,
                7,
            ))
        })
    });

    let campaign = run_traceroutes(&world.topology, &db, &outcome, &probes, &tr_cfg, 7);
    let corpus: Vec<Vec<trackdown_topology::Asn>> = Vec::new();
    c.bench_function("hop_repair_campaign", |b| {
        b.iter(|| black_box(repair_campaign(black_box(&campaign), &corpus)))
    });

    let plane = MeasurementPlane::new(&world.topology, &cones, &MeasurementConfig::default());
    c.bench_function("measure_full_pipeline_per_config", |b| {
        b.iter(|| black_box(plane.measure(&world.topology, &outcome, origin.asn, 3)))
    });
}

criterion_group!(benches, bench_measurement);
criterion_main!(benches);
