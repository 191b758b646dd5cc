//! BGP propagation-engine benchmarks: the inner loop every experiment
//! pays for once per announcement configuration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use trackdown_bgp::{BgpEngine, EngineConfig, LinkAnnouncement, LinkId, OriginAs};
use trackdown_topology::gen::{generate, TopologyConfig};
use trackdown_topology::Asn;

fn bench_propagation(c: &mut Criterion) {
    let mut group = c.benchmark_group("propagation");
    for (label, cfg, pops) in [
        ("small-120as", TopologyConfig::small(1), 4usize),
        ("medium-600as", TopologyConfig::medium(1), 5),
        (
            "full-2000as",
            TopologyConfig {
                seed: 1,
                ..TopologyConfig::default()
            },
            7,
        ),
    ] {
        let world = generate(&cfg);
        let origin = OriginAs::peering_style(&world, pops);
        let engine = BgpEngine::new(&world.topology, &EngineConfig::default());
        let anycast: Vec<_> = origin.link_ids().map(LinkAnnouncement::plain).collect();
        group.bench_with_input(BenchmarkId::new("anycast_all_links", label), &(), |b, _| {
            b.iter(|| {
                let out = engine
                    .propagate_config(&origin, black_box(&anycast), 200)
                    .unwrap();
                black_box(out.reachable_count())
            })
        });
        // Poisoned announcement (extra path work + withdraw handling).
        let targets = trackdown_core::generator::poison_targets(&world.topology, &origin);
        let poison_asn = targets.first().map(|t| t.target).unwrap_or(Asn(9999));
        let poisoned: Vec<LinkAnnouncement> = origin
            .link_ids()
            .map(|l| {
                if l == LinkId(0) {
                    LinkAnnouncement::poisoned(l, vec![poison_asn])
                } else {
                    LinkAnnouncement::plain(l)
                }
            })
            .collect();
        group.bench_with_input(BenchmarkId::new("poisoned", label), &(), |b, _| {
            b.iter(|| {
                let out = engine
                    .propagate_config(&origin, black_box(&poisoned), 200)
                    .unwrap();
                black_box(out.reachable_count())
            })
        });
    }
    group.finish();
}

// Delta epoch transitions: one persistent default-mode session alternating
// between two configurations, against the cold-start cost of the same
// pair. A delta epoch seeds only the providers whose announcement changed
// and reprocesses only the routes the edit actually disturbs.
fn bench_warm_epochs(c: &mut Criterion) {
    let world = generate(&TopologyConfig::medium(1));
    let origin = OriginAs::peering_style(&world, 5);
    // Violator-free: epoch reuse disengages on violator engines (their
    // stable states are history-dependent), which would turn the "warm"
    // bench into a second cold bench.
    let cfg = EngineConfig {
        policy: trackdown_bgp::PolicyConfig {
            violator_fraction: 0.0,
            ..trackdown_bgp::PolicyConfig::default()
        },
        ..EngineConfig::default()
    };
    let engine = BgpEngine::new(&world.topology, &cfg);
    let anycast: Vec<_> = origin.link_ids().map(LinkAnnouncement::plain).collect();
    let targets = trackdown_core::generator::poison_targets(&world.topology, &origin);
    let poison_asn = targets.first().map(|t| t.target).unwrap_or(Asn(9999));
    let poisoned: Vec<LinkAnnouncement> = origin
        .link_ids()
        .map(|l| {
            if l == LinkId(0) {
                LinkAnnouncement::poisoned(l, vec![poison_asn])
            } else {
                LinkAnnouncement::plain(l)
            }
        })
        .collect();
    c.bench_function("epoch_transition_warm_medium", |b| {
        let mut session = engine.session();
        session.deploy_config(&origin, &anycast, 200).unwrap();
        let mut flip = false;
        b.iter(|| {
            flip = !flip;
            let cfg = if flip { &poisoned } else { &anycast };
            let out = session.deploy_config(&origin, black_box(cfg), 200).unwrap();
            black_box(out.reachable_count())
        })
    });
    c.bench_function("epoch_transition_cold_medium", |b| {
        let mut flip = false;
        b.iter(|| {
            flip = !flip;
            let cfg = if flip { &poisoned } else { &anycast };
            let out = engine
                .propagate_config(&origin, black_box(cfg), 200)
                .unwrap();
            black_box(out.reachable_count())
        })
    });
}

// Interned-arena propagation core: catchment-only snapshots against full
// snapshots (candidate RIBs + path store), and the steady-state warm loop
// where the session's arena is reused across epochs without truncation.
fn bench_propagate_path_arena(c: &mut Criterion) {
    use trackdown_bgp::SnapshotDetail;
    let mut group = c.benchmark_group("propagate_path_arena");
    let world = generate(&TopologyConfig::medium(1));
    let origin = OriginAs::peering_style(&world, 5);
    let cfg = EngineConfig {
        policy: trackdown_bgp::PolicyConfig {
            violator_fraction: 0.0,
            ..trackdown_bgp::PolicyConfig::default()
        },
        ..EngineConfig::default()
    };
    let engine = BgpEngine::new(&world.topology, &cfg);
    let anycast: Vec<_> = origin.link_ids().map(LinkAnnouncement::plain).collect();
    group.bench_function("cold_catchments_medium", |b| {
        b.iter(|| {
            let out = engine
                .propagate_config_detailed(
                    &origin,
                    black_box(&anycast),
                    200,
                    SnapshotDetail::Catchments,
                )
                .unwrap();
            black_box(out.reachable_count())
        })
    });
    group.bench_function("cold_full_medium", |b| {
        b.iter(|| {
            let out = engine
                .propagate_config_detailed(&origin, black_box(&anycast), 200, SnapshotDetail::Full)
                .unwrap();
            black_box(out.reachable_count())
        })
    });
    // Steady state: re-deploying an unchanged config through a warm session
    // touches no routes and interns no new paths — the arena high-water
    // mark is reached on the first deploy and never grows.
    group.bench_function("warm_steady_state_medium", |b| {
        let mut session = engine.session();
        session.deploy_config(&origin, &anycast, 200).unwrap();
        b.iter(|| {
            let out = session
                .deploy_config(&origin, black_box(&anycast), 200)
                .unwrap();
            black_box(out.reachable_count())
        })
    });
    group.finish();
}

fn bench_engine_setup(c: &mut Criterion) {
    let world = generate(&TopologyConfig::medium(1));
    c.bench_function("engine_build_medium", |b| {
        b.iter(|| {
            let engine = BgpEngine::new(&world.topology, &EngineConfig::default());
            black_box(engine.policy().num_violators())
        })
    });
}

criterion_group!(
    benches,
    bench_propagation,
    bench_warm_epochs,
    bench_propagate_path_arena,
    bench_engine_setup
);
criterion_main!(benches);
