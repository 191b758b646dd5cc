//! Adversarial-traffic scenarios: attack shapes designed to stress the
//! attribution plane from directions the evaluation figures do not.
//!
//! * [`amplification`] — the reflection-attack triangle (§VII-a): the
//!   victim only ever sees reflector ASes, so traceback must run from the
//!   *origin network's* vantage, attributing the pre-reflection queries
//!   the honeypot attracts back to the true origin cluster.
//! * [`partial_sav`] — source-address validation deployed everywhere
//!   *except* a seeded pocket of stub ASes (the real Internet per the
//!   Spoofer project: SAV is partial, and spoofing capability clusters).
//!   Attribution must concentrate the suspect volume on the pockets that
//!   can actually spoof.
//!
//! Both scenarios stream flows through the exact
//! [`BatchedDenseAccumulator`] and attribute from its counters, so the
//! binaries double as end-to-end checks of the streaming ingest path.

use crate::{Options, Scenario};
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;
use trackdown_core::localize::{
    estimate_cluster_volumes_acc, rank_suspects_acc, suspect_ases, Campaign,
};
use trackdown_topology::AsIndex;
use trackdown_traffic::{
    ingest_stream, place_sources, scatter_reflectors, spoofed_flows, BatchedDenseAccumulator, Flow,
    FlowConfig, Honeypot, HoneypotConfig, ReflectorKind, SourcePlacement, DEFAULT_FLOW_BATCH,
};

/// Stream the scenario's flows into exact counters: one accumulator
/// configuration per campaign configuration, exactly the attribution
/// plane's width.
fn accumulate_flows(campaign: &Campaign, flows: &[Flow]) -> BatchedDenseAccumulator {
    let mut acc =
        BatchedDenseAccumulator::new(campaign.catchments.len(), campaign.attribution.num_links());
    for (c, cat) in campaign.catchments.iter().enumerate() {
        ingest_stream(&mut acc, c, cat, flows, DEFAULT_FLOW_BATCH);
    }
    acc
}

/// What the amplification scenario measured, from both corners of the
/// attack triangle.
#[derive(Debug, Clone)]
pub struct AmplificationOutcome {
    /// Distinct reflector ASes the victim logged (its *apparent* sources).
    pub victim_reflector_ases: usize,
    /// Overall bandwidth amplification the victim experienced.
    pub victim_amplification: f64,
    /// Whether any true origin AS leaked into the victim's logs (must
    /// never happen — that is the point of reflection).
    pub origin_visible_to_victim: bool,
    /// The true origin ASes (hosting the spoofing sources).
    pub origin_ases: Vec<AsIndex>,
    /// Origin ASes observable at the baseline configuration (the ones the
    /// campaign can possibly name).
    pub observable: usize,
    /// Of the observable origin ASes, how many the suspect set names.
    pub recovered: usize,
    /// ASes named by the ranked suspect clusters.
    pub named_ases: Vec<AsIndex>,
}

impl AmplificationOutcome {
    /// The `--check` contract; `Some(violation)` on failure.
    pub fn check(&self) -> Option<String> {
        if self.origin_visible_to_victim {
            return Some("a true origin AS leaked into the victim's reflector logs".into());
        }
        if self.victim_amplification < 2.0 {
            return Some(format!(
                "victim saw amplification {:.1}x; the reflection hop is not amplifying",
                self.victim_amplification
            ));
        }
        if self.observable == 0 {
            return Some("no origin AS observable at baseline; scenario is vacuous".into());
        }
        // The paper's promise: traceback from the origin vantage names the
        // true sources the victim could never see. Require ≥90% of the
        // baseline-observable origins (measurement-free campaign at these
        // scales recovers all of them; the slack covers cluster ties).
        if self.recovered * 10 < self.observable * 9 {
            return Some(format!(
                "only {}/{} observable origin ASes recovered behind the reflector hop",
                self.recovered, self.observable
            ));
        }
        None
    }
}

/// Run the reflection-attack scenario: a handful of Pareto-placed origins
/// spray spoofed queries off open reflectors at a victim; the origin
/// network's honeypot attracts the same queries and the campaign
/// attributes them back through the streamed counters.
pub fn amplification(opts: &Options) -> AmplificationOutcome {
    let scenario = Scenario::build(opts.clone());
    let topo = &scenario.gen.topology;
    let all: Vec<AsIndex> = topo.indices().collect();

    // Amplification attacks usually originate from few sources (AmpPot,
    // §I) — the regime the paper's techniques target.
    let placed = place_sources(
        topo.num_ases(),
        &all,
        SourcePlacement::Pareto {
            total: 8,
            alpha: trackdown_traffic::pareto_shape_80_20(),
        },
        opts.seed ^ 0xA3F1,
    );
    let origin_ases: Vec<AsIndex> = placed.source_ases().collect();

    // The victim's corner of the triangle: amplified responses arrive
    // from reflector ASes only. Reflectors are open services *elsewhere* —
    // an origin bouncing traffic off itself would defeat the indirection.
    let reflector_pool: Vec<AsIndex> = all
        .iter()
        .copied()
        .filter(|a| !origin_ases.contains(a))
        .collect();
    let reflectors = scatter_reflectors(
        &reflector_pool,
        32,
        &[
            ReflectorKind::Ntp,
            ReflectorKind::Dns,
            ReflectorKind::Memcached,
        ],
        opts.seed ^ 0x4EF1,
    );
    let victim_ip = u32::from_be_bytes([203, 0, 113, 80]);
    let (victim, _queries) =
        trackdown_traffic::reflect_attack(&placed, &reflectors, victim_ip, 50_000_000, opts.seed);
    let origin_visible_to_victim = victim
        .per_reflector_as
        .iter()
        .any(|(a, _)| origin_ases.contains(a));

    // The origin network's corner: its honeypot prefix looks like one
    // more reflector to the attacker, so the same origins' queries land
    // on it; deploy the schedule and attribute.
    let campaign = scenario.run();
    let honeypot = Honeypot::new(HoneypotConfig::default());
    let flows = spoofed_flows(
        &placed,
        victim_ip,
        honeypot.config().prefix,
        &FlowConfig::default(),
    );
    let acc = accumulate_flows(&campaign, &flows);
    let ranked = rank_suspects_acc(&campaign, &acc);
    let named = suspect_ases(&ranked.suspects, 1.0);

    let baseline = &campaign.catchments[0];
    let observable: Vec<AsIndex> = origin_ases
        .iter()
        .copied()
        .filter(|&a| a.us() < topo.num_ases() && baseline.get(a).is_some())
        .collect();
    let recovered = observable.iter().filter(|a| named.contains(a)).count();

    AmplificationOutcome {
        victim_reflector_ases: victim.per_reflector_as.len(),
        victim_amplification: victim.overall_amplification(),
        origin_visible_to_victim,
        origin_ases,
        observable: observable.len(),
        recovered,
        named_ases: named,
    }
}

/// What the partial-SAV scenario measured.
#[derive(Debug, Clone)]
pub struct PartialSavOutcome {
    /// Stub ASes in the topology.
    pub stubs: usize,
    /// Stubs in the spoof-capable pocket (SAV not deployed).
    pub spoof_capable: usize,
    /// Ranked suspect clusters the accumulator produced.
    pub suspect_clusters: usize,
    /// Fraction of total suspect volume (upper bounds) sitting on
    /// clusters that contain at least one spoof-capable stub.
    pub volume_on_spoofers: f64,
}

impl PartialSavOutcome {
    /// The `--check` contract; `Some(violation)` on failure.
    pub fn check(&self) -> Option<String> {
        if self.spoof_capable == 0 || self.spoof_capable >= self.stubs {
            return Some(format!(
                "degenerate SAV deployment: {}/{} stubs spoof-capable",
                self.spoof_capable, self.stubs
            ));
        }
        if self.suspect_clusters == 0 {
            return Some("no suspect clusters; the spoofed volume vanished".into());
        }
        if self.volume_on_spoofers < 0.9 {
            return Some(format!(
                "only {:.1}% of suspect volume concentrates on spoof-capable stubs",
                self.volume_on_spoofers * 100.0
            ));
        }
        None
    }
}

/// Run the partial-SAV scenario: a seeded 20% pocket of stub ASes lacks
/// source-address validation; every spoofing source lives there. The
/// campaign's suspect volume must concentrate on clusters containing
/// spoof-capable stubs — localization finds the pockets, not the
/// SAV-compliant remainder of the edge.
pub fn partial_sav(opts: &Options) -> PartialSavOutcome {
    let scenario = Scenario::build(opts.clone());
    let topo = &scenario.gen.topology;
    let stubs: Vec<AsIndex> = scenario
        .gen
        .stubs
        .iter()
        .filter_map(|&asn| topo.index_of(asn))
        .collect();
    assert!(!stubs.is_empty(), "topology has no stub ASes");

    // The spoof-capable pocket: a seeded 20% of stubs (at least one).
    let mut rng = ChaCha8Rng::seed_from_u64(opts.seed ^ 0x0005_AF0D);
    let mut pool = stubs.clone();
    let take = (pool.len() / 5).max(1);
    let mut spoof_capable = Vec::with_capacity(take);
    for _ in 0..take {
        let k = rng.random_range(0..pool.len());
        spoof_capable.push(pool.swap_remove(k));
    }
    spoof_capable.sort_unstable();

    let placed = place_sources(
        topo.num_ases(),
        &spoof_capable,
        SourcePlacement::Uniform { total: 12 },
        opts.seed ^ 0xB0B,
    );
    let honeypot = Honeypot::new(HoneypotConfig::default());
    let flows = spoofed_flows(
        &placed,
        u32::from_be_bytes([203, 0, 113, 50]),
        honeypot.config().prefix,
        &FlowConfig::default(),
    );

    let campaign = scenario.run();
    let acc = accumulate_flows(&campaign, &flows);
    // The min-bound filter keeps any cluster sharing a link with real
    // volume; attribute mass by the *refined* uppers from interval
    // constraint propagation, which squeezes non-originating clusters
    // toward zero through volume conservation.
    let estimates = estimate_cluster_volumes_acc(&campaign, &acc, 10);

    let total: u128 = estimates.iter().map(|e| e.upper as u128).sum();
    let on_spoofers: u128 = estimates
        .iter()
        .filter(|e| {
            e.members
                .iter()
                .any(|m| spoof_capable.binary_search(m).is_ok())
        })
        .map(|e| e.upper as u128)
        .sum();
    let volume_on_spoofers = if total == 0 {
        0.0
    } else {
        on_spoofers as f64 / total as f64
    };

    PartialSavOutcome {
        stubs: stubs.len(),
        spoof_capable: spoof_capable.len(),
        suspect_clusters: estimates.len(),
        volume_on_spoofers,
    }
}
