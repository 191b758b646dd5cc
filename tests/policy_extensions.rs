//! Policy-extension layer: deployment assignment, per-extension drop
//! semantics, and the two compatibility guarantees the layer ships with —
//! extensions-off is byte-identical to the pre-extension engine (pinned
//! golden manifest), and extensions-on preserves campaign determinism.

use trackdown_suite::bgp::{Injection, PolicyTable};
use trackdown_suite::obs::{CampaignRecorder, RunInfo};
use trackdown_suite::prelude::*;
use trackdown_suite::topology::cone::Tier;

/// Deterministic manifest of the default campaign (small topology, seed
/// 11), first generated from the engine before the extension layer
/// existed; its `mode` fields were dropped with schema 7, and it was
/// regenerated when violators became Gao-Rexford-safe and epochs became
/// transitions from the converged full anycast.
const GOLDEN: &str = include_str!("golden/extensions_off_manifest.jsonl");

fn engine_config_with(extensions: ExtensionConfig) -> EngineConfig {
    EngineConfig {
        policy: PolicyConfig {
            extensions,
            ..PolicyConfig::default()
        },
        ..EngineConfig::default()
    }
}

/// With no extensions deployed the deterministic manifest must reproduce
/// the pinned golden byte-for-byte: the extension layer may not touch
/// RNG draws, route attributes, event counts, or iteration order.
#[test]
fn extensions_off_manifest_matches_pre_change_golden() {
    let world = generate(&TopologyConfig::small(11));
    let origin = OriginAs::peering_style(&world, 4);
    let schedule = full_schedule(
        &world.topology,
        &origin,
        &GeneratorParams {
            max_removals: 2,
            max_poison_configs: Some(12),
        },
    );
    let engine = BgpEngine::new(&world.topology, &EngineConfig::default());
    let recorder = CampaignRecorder::new(true);
    let campaign = run_campaign(
        &engine,
        &origin,
        &schedule,
        &CampaignOpts {
            recorder: Some(&recorder),
            ..CampaignOpts::default()
        },
    )
    .expect("valid schedule");
    let info = RunInfo {
        name: "extensions_off_golden".into(),
        seed: 11,
        policy_seed: 0,
        scale: "small".into(),
        threads: campaign.stats.threads,
        trace: trackdown_suite::obs::trace_config_label(),
        schedule_len: campaign.configs.len(),
        deterministic: true,
    };
    let text = trackdown_suite::obs::render_manifest(&info, &recorder.take_records(), None);
    assert_eq!(
        text, GOLDEN,
        "extensions-off engine drifted from the pre-extension golden manifest"
    );
    trackdown_suite::obs::validate_manifest(GOLDEN).expect("the golden manifest validates");
}

fn table_with(world: &GeneratedTopology, extensions: ExtensionConfig) -> (ConeInfo, PolicyTable) {
    let cones = ConeInfo::compute(&world.topology);
    let cfg = PolicyConfig {
        seed: 42,
        violator_fraction: 0.0,
        no_loop_prevention_fraction: 0.0,
        tier1_poison_filtering: false,
        extensions,
    };
    let table = PolicyTable::build(&world.topology, cones.tiers(), &cfg);
    (cones, table)
}

/// Deployment assignment is deterministic, respects the fraction extremes,
/// and the core bias actually over-represents the core.
#[test]
fn deployment_assignment_is_seeded_and_tier_biased() {
    let world = generate(&TopologyConfig::small(3));
    let n = world.topology.num_ases();

    // fraction 0 → nobody; fraction 1 → everybody, regardless of bias.
    let (_, t0) = table_with(&world, ExtensionConfig::single(PolicyExtension::Aspa, 0.0));
    assert_eq!(t0.num_deployers(PolicyExtension::Aspa), 0);
    assert!(!t0.has_extensions());
    let (_, t1) = table_with(&world, ExtensionConfig::single(PolicyExtension::Aspa, 1.0));
    assert_eq!(t1.num_deployers(PolicyExtension::Aspa), n);
    assert!(t1.has_extensions());

    // Same config twice → identical assignment (seeded, no ambient RNG).
    let (cones, ta) = table_with(&world, ExtensionConfig::single(PolicyExtension::Rov, 0.4));
    let (_, tb) = table_with(&world, ExtensionConfig::single(PolicyExtension::Rov, 0.4));
    for i in world.topology.indices() {
        assert_eq!(
            ta.deploys(i, PolicyExtension::Rov),
            tb.deploys(i, PolicyExtension::Rov)
        );
    }

    // Core bias: transit+tier1 deployment rate exceeds the stub rate.
    let (core_n, core_d, stub_n, stub_d) =
        world
            .topology
            .indices()
            .fold((0usize, 0usize, 0usize, 0usize), |(cn, cd, sn, sd), i| {
                let deployed = ta.deploys(i, PolicyExtension::Rov) as usize;
                match cones.tier(i) {
                    Tier::Tier1 | Tier::Transit => (cn + 1, cd + deployed, sn, sd),
                    _ => (cn, cd, sn + 1, sd + deployed),
                }
            });
    assert!(core_n > 0 && stub_n > 0);
    assert!(
        core_d * stub_n > stub_d * core_n,
        "core bias must over-deploy the core: core {core_d}/{core_n}, stub {stub_d}/{stub_n}"
    );
}

/// ASPA and the edge filter drop the poison sandwich (the origin ASN is
/// stub-attested and appears mid-path), while accepting the clean path —
/// and ROV accepts both, since poisoning preserves the true origin.
#[test]
fn aspa_and_edge_filter_break_poisoning_rov_does_not() {
    let world = generate(&TopologyConfig::small(7));
    let origin = OriginAs::peering_style(&world, 4);
    let provider = world
        .topology
        .index_of(origin.links[0].provider)
        .expect("provider resident");
    // A real neighbor of the provider, the generator's poison target shape.
    let victim = world
        .topology
        .asn_of(world.topology.neighbors(provider)[0].0);
    let poisoned = AsPath::poisoned_origin(origin.asn, &[victim]);
    let clean = AsPath::from_origin(origin.asn);

    for ext in [PolicyExtension::Aspa, PolicyExtension::EdgeFilter] {
        let (_, t) = table_with(&world, ExtensionConfig::single(ext, 1.0));
        assert!(
            t.accepts(&world.topology, provider, None, &clean),
            "{ext} must accept the clean announcement"
        );
        assert!(
            !t.accepts(&world.topology, provider, None, &poisoned),
            "{ext} must drop the poison sandwich"
        );
    }

    let (_, rov) = table_with(&world, ExtensionConfig::single(PolicyExtension::Rov, 1.0));
    assert!(rov.accepts(&world.topology, provider, None, &clean));
    assert!(
        rov.accepts(&world.topology, provider, None, &poisoned),
        "ROV sees the true origin last and must not drop the poison"
    );
    // A forged-origin announcement is dropped by ROV.
    let hijack = AsPath::from_origin(Asn(64_512));
    assert!(!rov.accepts(&world.topology, provider, None, &hijack));
}

/// Peerlock-lite drops customer/peer-learned paths containing a foreign
/// tier-1, from any deployer (not just tier-1s like the built-in filter).
#[test]
fn peerlock_lite_filters_tier1_poison_at_stubs() {
    let world = generate(&TopologyConfig::small(5));
    let origin = OriginAs::peering_style(&world, 4);
    let (cones, t) = table_with(
        &world,
        ExtensionConfig::single(PolicyExtension::PeerlockLite, 1.0),
    );
    let tier1_asn = world.topology.asn_of(cones.tier1s().next().expect("tier1"));
    let stub = world
        .topology
        .indices()
        .find(|&i| cones.tier(i) == Tier::Stub)
        .expect("stub");
    let poisoned = AsPath::poisoned_origin(origin.asn, &[tier1_asn]);
    assert!(
        !t.accepts(&world.topology, stub, None, &poisoned),
        "peerlock-lite deployer must drop a customer-learned tier-1 path"
    );
    let clean = AsPath::from_origin(origin.asn);
    assert!(t.accepts(&world.topology, stub, None, &clean));
}

/// Full campaigns with every extension deployed stay deterministic: two
/// identically configured runs produce identical catchments and clusters.
#[test]
fn extensions_on_campaign_is_deterministic() {
    let deployments: Vec<ExtensionDeployment> = PolicyExtension::ALL
        .into_iter()
        .map(|extension| ExtensionDeployment {
            extension,
            fraction: 0.3,
            bias: DeploymentBias::Core,
        })
        .collect();
    let run = || {
        let world = generate(&TopologyConfig::small(13));
        let origin = OriginAs::peering_style(&world, 4);
        let schedule = full_schedule(
            &world.topology,
            &origin,
            &GeneratorParams {
                max_removals: 2,
                max_poison_configs: Some(10),
            },
        );
        let cfg = engine_config_with(ExtensionConfig {
            deployments: deployments.clone(),
            ..ExtensionConfig::default()
        });
        let engine = BgpEngine::new(&world.topology, &cfg);
        let campaign = run_campaign(&engine, &origin, &schedule, &CampaignOpts::default())
            .expect("valid schedule");
        (campaign.catchments, campaign.tracked, campaign.records)
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
}

/// The OTC attribute crosses the engine: with universal only-to-customers
/// deployment the campaign still converges and catchments stay a partition
/// (valley-free export means OTC never fires, by RFC 9234 design).
#[test]
fn only_to_customers_is_inert_under_valley_free_export() {
    let world = generate(&TopologyConfig::small(21));
    let origin = OriginAs::peering_style(&world, 4);
    let anns: Vec<LinkAnnouncement> = origin.link_ids().map(LinkAnnouncement::plain).collect();
    let off = BgpEngine::new(&world.topology, &EngineConfig::default());
    let on = BgpEngine::new(
        &world.topology,
        &engine_config_with(ExtensionConfig::single(
            PolicyExtension::OnlyToCustomers,
            1.0,
        )),
    );
    let out_off = off.propagate_config(&origin, &anns).unwrap();
    let out_on = on.propagate_config(&origin, &anns).unwrap();
    assert!(out_on.converged);
    // Same reachability and same catchment partition: OTC marking alone
    // must not change who routes where.
    assert_eq!(out_on.reachable_count(), out_off.reachable_count());
    assert_eq!(
        Catchments::from_control_plane(&out_on),
        Catchments::from_control_plane(&out_off)
    );
}

/// Extension drops apply to direct injections too (`apply_injection` goes
/// through the same `accepts` path the export loop uses).
#[test]
fn injection_respects_extension_drops() {
    let world = generate(&TopologyConfig::small(7));
    let origin = OriginAs::peering_style(&world, 4);
    let provider = world
        .topology
        .index_of(origin.links[0].provider)
        .expect("provider resident");
    let victim = world
        .topology
        .asn_of(world.topology.neighbors(provider)[0].0);
    let (_, t) = table_with(
        &world,
        ExtensionConfig::single(PolicyExtension::EdgeFilter, 1.0),
    );
    let inj = Injection {
        provider,
        link: LinkId(0),
        path: AsPath::poisoned_origin(origin.asn, &[victim]),
        communities: CommunitySet::empty(),
    };
    assert!(!t.accepts(&world.topology, inj.provider, None, &inj.path));
}
