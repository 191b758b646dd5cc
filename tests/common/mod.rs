//! Helpers shared by the integration tests: the 50k-source
//! [`attribution_fixture`], the [`interleaved_medians`] timer every
//! `#[ignore]`d timing gate uses, the [`Fnv1a`] hasher the exactness
//! pins fold their results into, and the small-scale [`scenario`] and
//! [`engine_config`] the session and campaign suites build on. Each test
//! binary compiles this module and uses only part of it.
#![allow(dead_code)]

use std::hash::Hasher;
use std::hint::black_box;
use std::time::Instant;
use trackdown_bgp::{Catchments, EngineConfig, LinkId, OriginAs, PolicyConfig};
use trackdown_core::generator::{full_schedule, GeneratorParams};
use trackdown_core::localize::{link_volume_matrix, AttributionIndex, Campaign, CampaignStats};
use trackdown_core::AnnouncementConfig;
use trackdown_topology::gen::{generate, GeneratedTopology, TopologyConfig};
use trackdown_topology::AsIndex;
use trackdown_traffic::Flow;

/// Engine config with the violator knob explicit: `clean` engines rank
/// routes by relationship alone, default engines keep the 8% violator
/// population, which hashes LocalPref per neighbor within each band.
pub fn engine_config(clean: bool) -> EngineConfig {
    if clean {
        EngineConfig {
            policy: PolicyConfig {
                violator_fraction: 0.0,
                ..PolicyConfig::default()
            },
            ..EngineConfig::default()
        }
    } else {
        EngineConfig::default()
    }
}

/// A small synthetic Internet, a multi-PoP origin, and a (possibly
/// truncated) three-phase schedule.
pub fn scenario(
    seed: u64,
    pops: usize,
    max_removals: usize,
    max_poison: usize,
) -> (GeneratedTopology, OriginAs, Vec<AnnouncementConfig>) {
    let world = generate(&TopologyConfig::small(seed));
    let origin = OriginAs::peering_style(&world, pops);
    let schedule = full_schedule(
        &world.topology,
        &origin,
        &GeneratorParams {
            max_removals,
            max_poison_configs: Some(max_poison),
        },
    );
    (world, origin, schedule)
}

/// 64-bit FNV-1a over the bytes written.
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Median wall-clock milliseconds of `a` and of `b` over `trials` rounds
/// that alternate the two arms (a, b, a, b, ...), after one untimed call
/// of each. Interleaving spreads machine-load shifts over both arms, and
/// medians are robust to the occasional preempted trial, so a gate reads
/// the ratio of the two medians.
pub fn interleaved_medians<A, B>(
    trials: usize,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> (f64, f64) {
    fn time<T>(f: &mut impl FnMut() -> T) -> f64 {
        let t = Instant::now();
        black_box(f());
        t.elapsed().as_secs_f64() * 1e3
    }
    black_box((a(), b()));
    let (mut ta, mut tb) = (Vec::with_capacity(trials), Vec::with_capacity(trials));
    for _ in 0..trials {
        ta.push(time(&mut a));
        tb.push(time(&mut b));
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    (median(ta), median(tb))
}

/// Tracked sources in the synthetic attribution partition.
pub const SOURCES: usize = 50_000;
/// Configurations (catchment maps) in the synthetic partition.
pub const CONFIGS: usize = 24;
/// Origin links the synthetic catchments choose from.
const LINKS: u8 = 8;
/// Co-routed source groups the partition settles into.
pub const GROUPS: usize = 2_000;

/// A campaign-shaped attribution workload over a synthetic partition,
/// far beyond the 2k-AS simulated topologies: 50k tracked sources route
/// in ~2k co-routed groups (stubs sharing transit, the shape real
/// campaigns converge to), with a sprinkling of unobserved catchments.
pub struct AttributionFixture {
    /// The partition as a finished campaign (clustering and attribution
    /// index built from the catchments; no configs or records).
    pub campaign: Campaign,
    /// Honeypot volume matrix induced by three heavy attackers.
    pub link_volumes: Vec<Vec<u64>>,
    /// Per-source volume of a second attack from a few hundred active
    /// sources (1 in 200 of the 50k) — the few-source regime
    /// amplification attacks live in (AmpPot, §I).
    pub flow_volume: Vec<u64>,
    /// That attack as one flow record per active source.
    pub flows: Vec<Flow>,
}

/// Build the [`AttributionFixture`]. A fixed LCG drives every choice, so
/// the partition and both attacks are identical on every run and machine.
pub fn attribution_fixture() -> AttributionFixture {
    let mut state = 0x853C_49E6_748F_EA9Bu64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    let group_of: Vec<usize> = (0..SOURCES).map(|_| next() as usize % GROUPS).collect();
    let catchments: Vec<Catchments> = (0..CONFIGS)
        .map(|_| {
            let group_link: Vec<Option<LinkId>> = (0..GROUPS)
                .map(|_| {
                    let v = next();
                    (v % 16 != 0).then(|| LinkId((v % LINKS as u32) as u8))
                })
                .collect();
            let mut c = Catchments::unassigned(SOURCES);
            for (i, &g) in group_of.iter().enumerate() {
                c.set(AsIndex(i as u32), group_link[g]);
            }
            c
        })
        .collect();
    let tracked: Vec<AsIndex> = (0..SOURCES as u32).map(AsIndex).collect();
    let (clustering, attribution) = AttributionIndex::build(tracked.clone(), &catchments);
    let campaign = Campaign {
        configs: Vec::new(),
        catchments,
        tracked,
        clustering,
        attribution,
        records: Vec::new(),
        imputation: None,
        stats: CampaignStats::default(),
    };
    let mut volume_per_as = vec![0u64; SOURCES];
    for (i, v) in [
        (SOURCES / 7, 1_000_000u64),
        (SOURCES / 2, 2_000_000),
        (5 * SOURCES / 6, 3_000_000),
    ] {
        volume_per_as[i] = v;
    }
    let link_volumes = link_volume_matrix(&campaign, &volume_per_as);
    let flow_volume: Vec<u64> = (0..SOURCES)
        .map(|_| {
            let r = next();
            if r % 200 == 0 {
                64 * (1 + (r % 997) as u64)
            } else {
                0
            }
        })
        .collect();
    let flows = flow_volume
        .iter()
        .enumerate()
        .filter(|(_, &v)| v > 0)
        .map(|(i, &v)| Flow {
            src_as: AsIndex(i as u32),
            claimed_ip: 0xCB00_7101,
            dst_ip: 0xCB00_7201,
            packets: v / 64,
            bytes: v,
            spoofed: true,
        })
        .collect();
    AttributionFixture {
        campaign,
        link_volumes,
        flow_volume,
        flows,
    }
}
