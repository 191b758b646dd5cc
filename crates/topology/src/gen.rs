//! Seeded generator of Internet-like AS topologies.
//!
//! The generator builds a three-tier transit hierarchy with preferential
//! attachment, regional locality, and settlement-free peering, matching the
//! structural properties that the paper's techniques exploit:
//!
//! * a provider-free **tier-1 clique** at the top;
//! * **transit ASes** (large/regional) multihomed to the tier above, with
//!   power-law-ish customer cones induced by preferential attachment;
//! * **stub ASes** multihomed to transit providers;
//! * peering links concentrated within regions (IXP-like locality).
//!
//! Everything is deterministic given a [`TopologyConfig`] (including its
//! seed): the same config always yields the identical topology.

use crate::{AsIndex, Asn, Topology, TopologyBuilder};
use rand::SeedableRng;
use rand::{Rng, RngExt};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Parameters of the synthetic Internet generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopologyConfig {
    /// RNG seed; every other parameter equal, the seed fully determines the
    /// generated topology.
    pub seed: u64,
    /// Number of tier-1 (provider-free, fully meshed) ASes.
    pub num_tier1: usize,
    /// Number of large transit ASes (customers of tier-1s).
    pub num_large_transit: usize,
    /// Number of small/regional transit ASes (customers of large transits).
    pub num_small_transit: usize,
    /// Number of stub (edge) ASes.
    pub num_stubs: usize,
    /// Number of geographic regions used for locality.
    pub num_regions: usize,
    /// Mean number of providers per large transit AS (≥ 1).
    pub large_transit_multihoming: f64,
    /// Mean number of providers per small transit AS (≥ 1).
    pub small_transit_multihoming: f64,
    /// Mean number of providers per stub AS (≥ 1).
    pub stub_multihoming: f64,
    /// Probability that two large transits in the same region peer.
    pub peering_prob_large: f64,
    /// Probability that two small transits in the same region peer.
    pub peering_prob_small: f64,
    /// Probability that a stub joins its region's IXP mesh (peers with a
    /// few co-located stubs).
    pub stub_ixp_prob: f64,
    /// Fraction of provider choices made *outside* the chooser's region
    /// (inter-continental transit).
    pub cross_region_prob: f64,
}

impl Default for TopologyConfig {
    /// Defaults sized like the paper's measured universe (≈2 000 ASes,
    /// 1 885 observed by the paper).
    fn default() -> TopologyConfig {
        TopologyConfig {
            seed: 0x5eed_0001,
            num_tier1: 12,
            num_large_transit: 70,
            num_small_transit: 260,
            num_stubs: 1_660,
            num_regions: 4,
            large_transit_multihoming: 2.4,
            small_transit_multihoming: 2.2,
            stub_multihoming: 2.1,
            peering_prob_large: 0.18,
            peering_prob_small: 0.03,
            stub_ixp_prob: 0.05,
            cross_region_prob: 0.15,
        }
    }
}

impl TopologyConfig {
    /// A small configuration for fast tests (≈120 ASes).
    pub fn small(seed: u64) -> TopologyConfig {
        TopologyConfig {
            seed,
            num_tier1: 4,
            num_large_transit: 10,
            num_small_transit: 25,
            num_stubs: 80,
            num_regions: 3,
            ..TopologyConfig::default()
        }
    }

    /// A medium configuration (≈600 ASes) balancing realism and runtime,
    /// used by most experiment harnesses.
    pub fn medium(seed: u64) -> TopologyConfig {
        TopologyConfig {
            seed,
            num_tier1: 8,
            num_large_transit: 30,
            num_small_transit: 100,
            num_stubs: 460,
            num_regions: 4,
            ..TopologyConfig::default()
        }
    }

    /// A deterministic power-law configuration scaled to roughly
    /// `target_ases` ASes (intended range 10 000 – 75 000), with
    /// CAIDA-like tier proportions: a dozen-to-twenty tier-1s, ~0.7%
    /// large transits, ~4% regional transits, and the rest stubs.
    ///
    /// Tier structure, multihoming, and peering density stay configurable
    /// through struct-update syntax on the returned value; the seed fully
    /// determines the graph as with every other constructor.
    pub fn power_law(seed: u64, target_ases: usize) -> TopologyConfig {
        let n = target_ases.max(1_000);
        let num_tier1 = (12 + n / 15_000).min(20);
        let num_large_transit = (n / 150).max(40);
        let num_small_transit = (n / 25).max(150);
        let num_stubs = n - num_tier1 - num_large_transit - num_small_transit;
        TopologyConfig {
            seed,
            num_tier1,
            num_large_transit,
            num_small_transit,
            num_stubs,
            num_regions: 6,
            ..TopologyConfig::default()
        }
    }

    /// The `large` experiment scale: a power-law graph of ≈12 000 ASes,
    /// between the paper's 2k-AS topology and the 80k-AS `internet`
    /// scale; large enough that splitting the schedule across worker
    /// threads has work to share.
    pub fn large(seed: u64) -> TopologyConfig {
        TopologyConfig::power_law(seed, 12_000)
    }

    /// The `internet` experiment scale: a power-law graph of 80 000 ASes
    /// — the size of the CAIDA as-rel snapshots the paper consumes
    /// \[28\]. This is the deterministic fallback when no real as-rel
    /// file is supplied (see `GeneratedTopology::from_topology` for the
    /// loader path).
    pub fn internet(seed: u64) -> TopologyConfig {
        TopologyConfig::power_law(seed, 80_000)
    }

    /// Paper-parameter configuration: sized like the default (≈2 000
    /// ASes) but with stub customers concentrated on fewer regional
    /// transits, so a 7-PoP `peering_style` origin sees the same
    /// provider-neighborhood size the paper's poisoning phase enumerates
    /// (347 unique provider neighbors; see `tests/paper_counts.rs`).
    pub fn paper(seed: u64) -> TopologyConfig {
        TopologyConfig {
            seed,
            num_tier1: 12,
            num_large_transit: 30,
            num_small_transit: 50,
            num_stubs: 1_910,
            num_regions: 4,
            ..TopologyConfig::default()
        }
    }

    /// Total AS count this configuration will generate.
    pub fn total_ases(&self) -> usize {
        self.num_tier1 + self.num_large_transit + self.num_small_transit + self.num_stubs
    }
}

/// The output of the generator: the topology plus the metadata analysis and
/// origin placement need.
#[derive(Debug, Clone)]
pub struct GeneratedTopology {
    /// The immutable AS graph.
    pub topology: Topology,
    /// Region id (0-based) of each AS, indexed by [`AsIndex`].
    pub regions: Vec<u8>,
    /// Tier-1 ASes.
    pub tier1s: Vec<Asn>,
    /// Large transit ASes.
    pub large_transits: Vec<Asn>,
    /// Small transit ASes.
    pub small_transits: Vec<Asn>,
    /// Stub ASes.
    pub stubs: Vec<Asn>,
    /// The configuration that produced this topology.
    pub config: TopologyConfig,
}

impl GeneratedTopology {
    /// Region of an AS by index.
    pub fn region(&self, i: AsIndex) -> u8 {
        self.regions[i.us()]
    }

    /// All transit ASes (large then small).
    pub fn transits(&self) -> impl Iterator<Item = Asn> + '_ {
        self.large_transits
            .iter()
            .chain(self.small_transits.iter())
            .copied()
    }

    /// Wrap an externally-loaded [`Topology`] — e.g. a CAIDA `as-rel`
    /// snapshot parsed by [`crate::serfmt::parse_as_rel`] — in the
    /// metadata the rest of the stack needs (origin placement reads
    /// regions, tier lists, and `config.num_regions`).
    ///
    /// Tiers are classified from the link structure: provider-free ASes
    /// with customers are tier-1, ASes with both providers and customers
    /// are transits (split large/small on customer-cone size, largest
    /// cones first, with the large share matching
    /// [`TopologyConfig::power_law`]'s ~0.7% proportion), everything
    /// else is a stub. As-rel files carry no geography, so regions are
    /// assigned deterministically as `asn mod num_regions` — an even,
    /// reproducible spread that keeps region-aware origin placement
    /// meaningful without inventing locality.
    pub fn from_topology(topology: Topology, num_regions: usize) -> GeneratedTopology {
        use crate::cone::{ConeInfo, Tier};
        let num_regions = num_regions.max(1);
        let cones = ConeInfo::compute(&topology);
        let mut tier1s = Vec::new();
        let mut transits: Vec<(usize, Asn)> = Vec::new();
        let mut stubs = Vec::new();
        let mut regions = Vec::with_capacity(topology.num_ases());
        for i in topology.indices() {
            let asn = topology.asn_of(i);
            regions.push((asn.0 as usize % num_regions) as u8);
            match cones.tier(i) {
                Tier::Tier1 => tier1s.push(asn),
                Tier::Transit => transits.push((cones.cone_size(i), asn)),
                Tier::Stub | Tier::Isolated => stubs.push(asn),
            }
        }
        // Largest cones first; ties broken by ASN for determinism.
        transits.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let num_large = (topology.num_ases() / 150).max(1).min(transits.len());
        let large_transits: Vec<Asn> = transits[..num_large].iter().map(|&(_, a)| a).collect();
        let small_transits: Vec<Asn> = transits[num_large..].iter().map(|&(_, a)| a).collect();
        let config = TopologyConfig {
            seed: 0,
            num_tier1: tier1s.len(),
            num_large_transit: large_transits.len(),
            num_small_transit: small_transits.len(),
            num_stubs: stubs.len(),
            num_regions,
            ..TopologyConfig::default()
        };
        GeneratedTopology {
            topology,
            regions,
            tier1s,
            large_transits,
            small_transits,
            stubs,
            config,
        }
    }
}

/// Sample `1 + Poisson-ish(mean-1)` extra providers, clamped to `[1, max]`.
/// We use a geometric-style sampler: cheap, deterministic, and matching the
/// over-dispersed multihoming counts seen in the real AS graph.
fn sample_multihoming<R: Rng>(rng: &mut R, mean: f64, max: usize) -> usize {
    debug_assert!(mean >= 1.0);
    let extra_mean = mean - 1.0;
    let mut n = 1usize;
    // Each additional provider occurs with probability extra_mean/(1+extra_mean),
    // geometric with the right mean.
    let p = extra_mean / (1.0 + extra_mean);
    while n < max && rng.random::<f64>() < p {
        n += 1;
    }
    n
}

/// Pick `count` distinct providers from `pool` with probability proportional
/// to `weight(candidate) + 1` (preferential attachment), respecting regional
/// bias. Returns fewer if the pool is too small.
fn pick_providers<R: Rng>(
    rng: &mut R,
    pool: &[(Asn, u8)], // (candidate, region)
    weights: impl Fn(Asn) -> usize,
    my_region: u8,
    cross_region_prob: f64,
    count: usize,
) -> Vec<Asn> {
    let mut chosen: Vec<Asn> = Vec::with_capacity(count);
    for _ in 0..count {
        let cross = rng.random::<f64>() < cross_region_prob;
        // Candidates: same-region unless we roll a cross-region pick; fall
        // back to the whole pool when the filtered set is exhausted.
        let candidates: Vec<Asn> = pool
            .iter()
            .filter(|(a, r)| {
                !chosen.contains(a)
                    && if cross {
                        *r != my_region
                    } else {
                        *r == my_region
                    }
            })
            .map(|(a, _)| *a)
            .collect();
        let candidates = if candidates.is_empty() {
            pool.iter()
                .filter(|(a, _)| !chosen.contains(a))
                .map(|(a, _)| *a)
                .collect::<Vec<_>>()
        } else {
            candidates
        };
        if candidates.is_empty() {
            break;
        }
        let total: usize = candidates.iter().map(|&a| weights(a) + 1).sum();
        let mut roll = rng.random_range(0..total);
        let mut pick = candidates[0];
        for &c in &candidates {
            let w = weights(c) + 1;
            if roll < w {
                pick = c;
                break;
            }
            roll -= w;
        }
        chosen.push(pick);
    }
    chosen
}

/// Generate an Internet-like topology from a configuration.
///
/// # Panics
/// Panics if the configuration is degenerate (`num_tier1 == 0` or
/// `num_regions == 0`).
pub fn generate(config: &TopologyConfig) -> GeneratedTopology {
    assert!(config.num_tier1 > 0, "need at least one tier-1 AS");
    assert!(config.num_regions > 0, "need at least one region");
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut builder = TopologyBuilder::with_capacity(config.total_ases());
    let mut regions: Vec<u8> = Vec::with_capacity(config.total_ases());
    // Customer counts for preferential attachment, keyed by ASN value for
    // simplicity (ASNs are assigned densely below).
    let mut customer_count: std::collections::HashMap<Asn, usize> =
        std::collections::HashMap::new();

    let mut next_asn = 100u32;
    let fresh_asn = |n: &mut u32| {
        let a = Asn(*n);
        *n += 1;
        a
    };

    // --- Tier-1 clique -------------------------------------------------
    let mut tier1s = Vec::with_capacity(config.num_tier1);
    for k in 0..config.num_tier1 {
        let a = fresh_asn(&mut next_asn);
        builder.add_as(a).expect("fresh ASN");
        regions.push((k % config.num_regions) as u8);
        tier1s.push(a);
    }
    for i in 0..tier1s.len() {
        for j in (i + 1)..tier1s.len() {
            builder.add_peering(tier1s[i], tier1s[j]).expect("clique");
        }
    }

    // --- Large transit --------------------------------------------------
    let tier1_pool: Vec<(Asn, u8)> = tier1s
        .iter()
        .enumerate()
        .map(|(k, &a)| (a, (k % config.num_regions) as u8))
        .collect();
    let mut large_transits = Vec::with_capacity(config.num_large_transit);
    let mut large_pool: Vec<(Asn, u8)> = Vec::new();
    for _ in 0..config.num_large_transit {
        let a = fresh_asn(&mut next_asn);
        builder.add_as(a).expect("fresh ASN");
        let region = rng.random_range(0..config.num_regions) as u8;
        regions.push(region);
        let nprov =
            sample_multihoming(&mut rng, config.large_transit_multihoming, config.num_tier1);
        let provs = pick_providers(
            &mut rng,
            &tier1_pool,
            |c| customer_count.get(&c).copied().unwrap_or(0),
            region,
            config.cross_region_prob,
            nprov,
        );
        for p in provs {
            builder.add_provider_customer(p, a).expect("new link");
            *customer_count.entry(p).or_insert(0) += 1;
        }
        large_transits.push(a);
        large_pool.push((a, region));
    }
    // Peering among same-region large transits.
    for i in 0..large_pool.len() {
        for j in (i + 1)..large_pool.len() {
            let (a, ra) = large_pool[i];
            let (b, rb) = large_pool[j];
            if ra == rb && rng.random::<f64>() < config.peering_prob_large {
                builder.add_peering(a, b).expect("new peering");
            }
        }
    }

    // --- Small transit ---------------------------------------------------
    let mut small_transits = Vec::with_capacity(config.num_small_transit);
    let mut small_pool: Vec<(Asn, u8)> = Vec::new();
    for _ in 0..config.num_small_transit {
        let a = fresh_asn(&mut next_asn);
        builder.add_as(a).expect("fresh ASN");
        let region = rng.random_range(0..config.num_regions) as u8;
        regions.push(region);
        let nprov = sample_multihoming(
            &mut rng,
            config.small_transit_multihoming,
            config.num_large_transit.max(1),
        );
        let provs = pick_providers(
            &mut rng,
            &large_pool,
            |c| customer_count.get(&c).copied().unwrap_or(0),
            region,
            config.cross_region_prob,
            nprov,
        );
        if provs.is_empty() {
            // No large transits configured: home directly under tier-1s.
            let provs = pick_providers(
                &mut rng,
                &tier1_pool,
                |c| customer_count.get(&c).copied().unwrap_or(0),
                region,
                config.cross_region_prob,
                nprov,
            );
            for p in provs {
                builder.add_provider_customer(p, a).expect("new link");
                *customer_count.entry(p).or_insert(0) += 1;
            }
        } else {
            for p in provs {
                builder.add_provider_customer(p, a).expect("new link");
                *customer_count.entry(p).or_insert(0) += 1;
            }
        }
        small_transits.push(a);
        small_pool.push((a, region));
    }
    // Sparse same-region peering among small transits.
    for i in 0..small_pool.len() {
        for j in (i + 1)..small_pool.len() {
            let (a, ra) = small_pool[i];
            let (b, rb) = small_pool[j];
            if ra == rb && rng.random::<f64>() < config.peering_prob_small {
                builder.add_peering(a, b).expect("new peering");
            }
        }
    }

    // --- Stubs -------------------------------------------------------------
    // Provider pool for stubs: all transit ASes (large + small).
    let transit_pool: Vec<(Asn, u8)> = large_pool
        .iter()
        .chain(small_pool.iter())
        .copied()
        .collect();
    let mut stubs = Vec::with_capacity(config.num_stubs);
    // IXP membership per region for stub-stub peering.
    let mut ixp_members: Vec<Vec<Asn>> = vec![Vec::new(); config.num_regions];
    for _ in 0..config.num_stubs {
        let a = fresh_asn(&mut next_asn);
        builder.add_as(a).expect("fresh ASN");
        let region = rng.random_range(0..config.num_regions) as u8;
        regions.push(region);
        let nprov = sample_multihoming(&mut rng, config.stub_multihoming, 4);
        let pool: &[(Asn, u8)] = if transit_pool.is_empty() {
            &tier1_pool
        } else {
            &transit_pool
        };
        let provs = pick_providers(
            &mut rng,
            pool,
            |c| customer_count.get(&c).copied().unwrap_or(0),
            region,
            config.cross_region_prob,
            nprov,
        );
        for p in provs {
            builder.add_provider_customer(p, a).expect("new link");
            *customer_count.entry(p).or_insert(0) += 1;
        }
        if rng.random::<f64>() < config.stub_ixp_prob {
            // Peer with up to 2 prior IXP members of the same region.
            let members = &ixp_members[region as usize];
            for k in 0..members.len().min(2) {
                let other = members[members.len() - 1 - k];
                if !builder.has_link(a, other) {
                    builder.add_peering(a, other).expect("ixp peering");
                }
            }
            ixp_members[region as usize].push(a);
        }
        stubs.push(a);
    }

    GeneratedTopology {
        topology: builder.build(),
        regions,
        tier1s,
        large_transits,
        small_transits,
        stubs,
        config: config.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cone::{ConeInfo, Tier};

    #[test]
    fn generates_requested_counts() {
        let cfg = TopologyConfig::small(7);
        let g = generate(&cfg);
        assert_eq!(g.topology.num_ases(), cfg.total_ases());
        assert_eq!(g.tier1s.len(), cfg.num_tier1);
        assert_eq!(g.large_transits.len(), cfg.num_large_transit);
        assert_eq!(g.small_transits.len(), cfg.num_small_transit);
        assert_eq!(g.stubs.len(), cfg.num_stubs);
        assert_eq!(g.regions.len(), cfg.total_ases());
    }

    #[test]
    fn deterministic_for_same_seed() {
        let cfg = TopologyConfig::small(42);
        let g1 = generate(&cfg);
        let g2 = generate(&cfg);
        assert_eq!(g1.topology.num_links(), g2.topology.num_links());
        assert_eq!(g1.topology.links(), g2.topology.links());
        assert_eq!(g1.regions, g2.regions);
    }

    #[test]
    fn different_seeds_differ() {
        let g1 = generate(&TopologyConfig::small(1));
        let g2 = generate(&TopologyConfig::small(2));
        // Same AS counts but (almost surely) different wiring.
        assert_ne!(g1.topology.links(), g2.topology.links());
    }

    #[test]
    fn tier1s_are_provider_free_clique() {
        let g = generate(&TopologyConfig::small(3));
        let t = &g.topology;
        for &a in &g.tier1s {
            let i = t.index_of(a).unwrap();
            assert_eq!(t.providers(i).count(), 0, "{a} must be provider-free");
        }
        // Clique: every pair linked.
        for (x, &a) in g.tier1s.iter().enumerate() {
            for &b in &g.tier1s[x + 1..] {
                let ia = t.index_of(a).unwrap();
                let ib = t.index_of(b).unwrap();
                assert!(t.linked(ia, ib), "{a}–{b} missing from clique");
            }
        }
    }

    #[test]
    fn every_non_tier1_has_a_provider() {
        let g = generate(&TopologyConfig::small(4));
        let t = &g.topology;
        for i in t.indices() {
            let asn = t.asn_of(i);
            if !g.tier1s.contains(&asn) {
                assert!(t.providers(i).next().is_some(), "{asn} has no provider");
            }
        }
    }

    #[test]
    fn stubs_have_no_customers() {
        let g = generate(&TopologyConfig::small(5));
        let t = &g.topology;
        let cones = ConeInfo::compute(t);
        for &s in &g.stubs {
            let i = t.index_of(s).unwrap();
            assert_eq!(t.customers(i).count(), 0);
            assert!(matches!(cones.tier(i), Tier::Stub));
        }
    }

    #[test]
    fn preferential_attachment_skews_cones() {
        // With preferential attachment some transits should accumulate
        // far more customers than the median transit.
        let g = generate(&TopologyConfig::medium(11));
        let t = &g.topology;
        let mut counts: Vec<usize> = g
            .large_transits
            .iter()
            .map(|&a| t.customers(t.index_of(a).unwrap()).count())
            .collect();
        counts.sort_unstable();
        let max = *counts.last().unwrap();
        let median = counts[counts.len() / 2];
        assert!(
            max >= median * 2,
            "expected skewed customer counts, max={max} median={median}"
        );
    }

    #[test]
    fn power_law_hits_target_size_and_proportions() {
        for target in [10_000usize, 30_000, 75_000] {
            let cfg = TopologyConfig::power_law(1, target);
            assert_eq!(cfg.total_ases(), target, "exact total at {target}");
            assert!(cfg.num_tier1 >= 12 && cfg.num_tier1 <= 20);
            // Stubs dominate, transits are a thin waist: the power-law
            // shape catchment clustering exploits.
            assert!(cfg.num_stubs * 10 >= cfg.total_ases() * 9);
            assert!(cfg.num_small_transit > cfg.num_large_transit);
        }
    }

    #[test]
    fn power_law_generates_connected_valley_free_graph() {
        let g = generate(&TopologyConfig::power_law(5, 10_000));
        assert_eq!(g.topology.num_ases(), 10_000);
        assert!(crate::analysis::is_connected(&g.topology));
        // Every non-tier1 AS has a provider (valley-free annotation is
        // total), and tier-1s stay provider-free.
        for i in g.topology.indices() {
            let asn = g.topology.asn_of(i);
            if g.tier1s.contains(&asn) {
                assert_eq!(g.topology.providers(i).count(), 0);
            } else {
                assert!(g.topology.providers(i).next().is_some());
            }
        }
    }

    #[test]
    fn power_law_deterministic_for_same_seed() {
        let a = generate(&TopologyConfig::power_law(9, 10_000));
        let b = generate(&TopologyConfig::power_law(9, 10_000));
        assert_eq!(a.topology.links(), b.topology.links());
        assert_eq!(a.regions, b.regions);
    }

    #[test]
    fn large_scale_is_power_law_at_12k() {
        let cfg = TopologyConfig::large(3);
        assert_eq!(cfg.total_ases(), 12_000);
        assert_eq!(cfg, TopologyConfig::power_law(3, 12_000));
    }

    #[test]
    fn internet_scale_is_power_law_at_80k() {
        let cfg = TopologyConfig::internet(3);
        assert_eq!(cfg.total_ases(), 80_000);
        assert_eq!(cfg, TopologyConfig::power_law(3, 80_000));
    }

    #[test]
    fn from_topology_classifies_like_the_generator() {
        // Round a generated topology through the as-rel loader path: the
        // structural classifier must recover the same tier-1 set, a
        // transit split of the same total, and every generated stub.
        let g = generate(&TopologyConfig::small(17));
        let reloaded = GeneratedTopology::from_topology(g.topology.clone(), 3);
        assert_eq!(reloaded.topology.num_ases(), g.topology.num_ases());
        let mut want_tier1 = g.tier1s.clone();
        want_tier1.sort_unstable();
        let mut got_tier1 = reloaded.tier1s.clone();
        got_tier1.sort_unstable();
        assert_eq!(got_tier1, want_tier1, "tier-1 = provider-free core");
        // The generator's transits that picked up no customers are stubs
        // structurally, so compare by structure, not by generator label.
        assert_eq!(
            reloaded.large_transits.len() + reloaded.small_transits.len() + reloaded.stubs.len(),
            g.topology.num_ases() - g.tier1s.len()
        );
        for &s in &g.stubs {
            assert!(!reloaded.tier1s.contains(&s));
            assert!(!reloaded.large_transits.contains(&s));
        }
        // Regions are a deterministic function of the ASN.
        for i in reloaded.topology.indices() {
            assert_eq!(
                reloaded.region(i),
                (reloaded.topology.asn_of(i).0 % 3) as u8
            );
        }
        assert_eq!(reloaded.config.num_regions, 3);
        assert_eq!(reloaded.config.total_ases(), g.topology.num_ases());
    }

    #[test]
    fn multihoming_sampler_within_bounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        for _ in 0..1000 {
            let n = sample_multihoming(&mut rng, 1.8, 4);
            assert!((1..=4).contains(&n));
        }
        // Mean roughly matches (geometric with mean 1.8, truncated).
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let total: usize = (0..5000)
            .map(|_| sample_multihoming(&mut rng, 1.8, 10))
            .sum();
        let mean = total as f64 / 5000.0;
        assert!((1.5..=2.1).contains(&mean), "mean={mean}");
    }
}
