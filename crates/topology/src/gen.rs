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
use std::ops::Range;

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
    /// `target_ases` ASes (intended range 10 000 – 80 000), with
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

/// Preferential-attachment provider picks over one fixed pool.
///
/// The sampler owns every AS's customer count (by AS index) and one
/// provider pool: a contiguous run of AS indices, since the generator
/// numbers each tier consecutively. For every region it keeps a Fenwick
/// tree over the pool's positions holding `customers + 1` at that
/// region's entries and 0 elsewhere, so a pick is one descent through the
/// included regions' trees, O(R · log n), instead of a scan of the pool.
///
/// [`ProviderSampler::pick`] makes the same RNG calls, over the same
/// candidates, and returns the same providers as a linear scan of the
/// pool in order (DESIGN.md §4n): the generated graph depends on it bit
/// for bit.
struct ProviderSampler {
    /// Customers acquired so far, by AS index.
    customers: Vec<usize>,
    /// AS index of the pool's first entry.
    first: usize,
    /// Region of each pool position.
    regions: Vec<u8>,
    /// Per region, a 1-based Fenwick tree over pool positions of the
    /// selectable weight.
    trees: Vec<Vec<usize>>,
    /// Per region, the selectable weight (the tree's total).
    weight: Vec<usize>,
    /// Per region, the number of selectable entries.
    live: Vec<usize>,
}

impl ProviderSampler {
    fn new(num_ases: usize, num_regions: usize) -> ProviderSampler {
        ProviderSampler {
            customers: vec![0; num_ases],
            first: 0,
            regions: Vec::new(),
            trees: vec![Vec::new(); num_regions],
            weight: vec![0; num_regions],
            live: vec![0; num_regions],
        }
    }

    /// Draw from the AS indices in `pool` from now on, weighted by the
    /// current counts. `regions` holds the region of every AS by index.
    fn set_pool(&mut self, pool: Range<usize>, regions: &[u8]) {
        let first = pool.start;
        let regions = &regions[pool];
        let n = regions.len();
        self.first = first;
        self.regions.clear();
        self.regions.extend_from_slice(regions);
        self.weight.fill(0);
        self.live.fill(0);
        for tree in &mut self.trees {
            tree.clear();
            tree.resize(n + 1, 0);
        }
        for (pos, &r) in regions.iter().enumerate() {
            let (r, w) = (r as usize, self.customers[first + pos] + 1);
            self.trees[r][pos + 1] = w;
            self.weight[r] += w;
            self.live[r] += 1;
        }
        // Linear-time build: push each node's sum into its parent.
        for tree in &mut self.trees {
            for i in 1..=n {
                let parent = i + (i & i.wrapping_neg());
                if parent <= n {
                    tree[parent] += tree[i];
                }
            }
        }
    }

    /// Record one more customer of `provider` (an AS index).
    fn add_customer(&mut self, provider: usize) {
        self.customers[provider] += 1;
        if let Some(pos) = provider
            .checked_sub(self.first)
            .filter(|&pos| pos < self.regions.len())
        {
            self.adjust(pos, 1, 0);
        }
    }

    /// Add `weight` to pool position `pos` and `live` to its region's
    /// selectable count.
    fn adjust(&mut self, pos: usize, weight: isize, live: isize) {
        let r = self.regions[pos] as usize;
        self.weight[r] = self.weight[r].wrapping_add_signed(weight);
        self.live[r] = self.live[r].wrapping_add_signed(live);
        let tree = &mut self.trees[r];
        let mut i = pos + 1;
        while i < tree.len() {
            tree[i] = tree[i].wrapping_add_signed(weight);
            i += i & i.wrapping_neg();
        }
    }

    /// The first pool position, over the `included` regions' selectable
    /// entries in pool order, whose cumulative weight exceeds `roll`.
    fn descend(&self, included: &[usize], mut roll: usize) -> usize {
        let n = self.regions.len();
        let mut pos = 0;
        let mut step = if n == 0 { 0 } else { 1 << n.ilog2() };
        while step > 0 {
            let next = pos + step;
            if next <= n {
                let w: usize = included.iter().map(|&r| self.trees[r][next]).sum();
                if w <= roll {
                    pos = next;
                    roll -= w;
                }
            }
            step >>= 1;
        }
        pos
    }

    /// Pick up to `count` distinct providers (AS indices) for an AS in
    /// `my_region`, each with probability proportional to its customer
    /// count + 1 (preferential attachment). Each pick draws from the own
    /// region's entries, or with probability `cross_region_prob` from
    /// every other region's, and falls back to the whole pool when that
    /// set is exhausted. Returns fewer if the pool runs out.
    fn pick<R: Rng>(
        &mut self,
        rng: &mut R,
        my_region: u8,
        cross_region_prob: f64,
        count: usize,
    ) -> Vec<usize> {
        let mut chosen: Vec<usize> = Vec::with_capacity(count);
        let mut included: Vec<usize> = Vec::with_capacity(self.trees.len());
        for _ in 0..count {
            let cross = rng.random::<f64>() < cross_region_prob;
            included.clear();
            included.extend((0..self.trees.len()).filter(|&r| (r == my_region as usize) != cross));
            if included.iter().all(|&r| self.live[r] == 0) {
                included.clear();
                included.extend(0..self.trees.len());
            }
            if included.iter().all(|&r| self.live[r] == 0) {
                break;
            }
            let total: usize = included.iter().map(|&r| self.weight[r]).sum();
            let pos = self.descend(&included, rng.random_range(0..total));
            // Chosen entries are out of the running for this AS's later
            // picks, and back in for the next AS.
            self.adjust(pos, -self.weight_at(pos), -1);
            chosen.push(pos);
        }
        for &pos in &chosen {
            self.adjust(pos, self.weight_at(pos), 1);
        }
        chosen.into_iter().map(|pos| self.first + pos).collect()
    }

    /// Attachment weight of pool position `pos`.
    fn weight_at(&self, pos: usize) -> isize {
        (self.customers[self.first + pos] + 1) as isize
    }
}

/// ASNs are assigned densely from here, so AS index `i` is ASN
/// `FIRST_ASN + i`.
const FIRST_ASN: u32 = 100;

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
    let mut sampler = ProviderSampler::new(config.total_ases(), config.num_regions);
    let asn = |i: usize| Asn(FIRST_ASN + i as u32);
    // Declare the next AS (index `regions.len()`) in `region`.
    let add_as = |builder: &mut TopologyBuilder, regions: &mut Vec<u8>, region: u8| {
        let a = asn(regions.len());
        builder.add_as(a).expect("fresh ASN");
        regions.push(region);
        a
    };
    // Link `a` under each picked provider.
    let home = |builder: &mut TopologyBuilder,
                sampler: &mut ProviderSampler,
                provs: Vec<usize>,
                a: Asn| {
        for p in provs {
            builder.add_provider_customer(asn(p), a).expect("new link");
            sampler.add_customer(p);
        }
    };
    // Same-region pairs of `pool`, each peering with probability `prob`.
    let peer_within = |builder: &mut TopologyBuilder,
                       rng: &mut ChaCha8Rng,
                       regions: &[u8],
                       pool: Range<usize>,
                       prob: f64| {
        for i in pool.clone() {
            for j in (i + 1)..pool.end {
                if regions[i] == regions[j] && rng.random::<f64>() < prob {
                    builder.add_peering(asn(i), asn(j)).expect("new peering");
                }
            }
        }
    };

    // --- Tier-1 clique -------------------------------------------------
    let tier1_pool = 0..config.num_tier1;
    let tier1s: Vec<Asn> = tier1_pool
        .clone()
        .map(|k| add_as(&mut builder, &mut regions, (k % config.num_regions) as u8))
        .collect();
    for i in 0..tier1s.len() {
        for j in (i + 1)..tier1s.len() {
            builder.add_peering(tier1s[i], tier1s[j]).expect("clique");
        }
    }

    // --- Large transit --------------------------------------------------
    sampler.set_pool(tier1_pool.clone(), &regions);
    let mut large_transits = Vec::with_capacity(config.num_large_transit);
    for _ in 0..config.num_large_transit {
        let region = rng.random_range(0..config.num_regions) as u8;
        let a = add_as(&mut builder, &mut regions, region);
        let nprov =
            sample_multihoming(&mut rng, config.large_transit_multihoming, config.num_tier1);
        let provs = sampler.pick(&mut rng, region, config.cross_region_prob, nprov);
        home(&mut builder, &mut sampler, provs, a);
        large_transits.push(a);
    }
    let large_pool = tier1_pool.end..regions.len();
    peer_within(
        &mut builder,
        &mut rng,
        &regions,
        large_pool.clone(),
        config.peering_prob_large,
    );

    // --- Small transit ---------------------------------------------------
    sampler.set_pool(large_pool.clone(), &regions);
    let mut small_transits = Vec::with_capacity(config.num_small_transit);
    for _ in 0..config.num_small_transit {
        let region = rng.random_range(0..config.num_regions) as u8;
        let a = add_as(&mut builder, &mut regions, region);
        let nprov = sample_multihoming(
            &mut rng,
            config.small_transit_multihoming,
            config.num_large_transit.max(1),
        );
        let mut provs = sampler.pick(&mut rng, region, config.cross_region_prob, nprov);
        if provs.is_empty() {
            // No large transits configured: home directly under tier-1s.
            sampler.set_pool(tier1_pool.clone(), &regions);
            provs = sampler.pick(&mut rng, region, config.cross_region_prob, nprov);
            sampler.set_pool(large_pool.clone(), &regions);
        }
        home(&mut builder, &mut sampler, provs, a);
        small_transits.push(a);
    }
    // Sparse same-region peering among small transits.
    let small_pool = large_pool.end..regions.len();
    peer_within(
        &mut builder,
        &mut rng,
        &regions,
        small_pool,
        config.peering_prob_small,
    );

    // --- Stubs -------------------------------------------------------------
    // Provider pool for stubs: all transit ASes (large + small), or the
    // tier-1s when there are none.
    let transit_pool = large_pool.start..regions.len();
    if transit_pool.is_empty() {
        sampler.set_pool(tier1_pool, &regions);
    } else {
        sampler.set_pool(transit_pool, &regions);
    }
    let mut stubs = Vec::with_capacity(config.num_stubs);
    // IXP membership per region for stub-stub peering.
    let mut ixp_members: Vec<Vec<Asn>> = vec![Vec::new(); config.num_regions];
    for _ in 0..config.num_stubs {
        let region = rng.random_range(0..config.num_regions) as u8;
        let a = add_as(&mut builder, &mut regions, region);
        let nprov = sample_multihoming(&mut rng, config.stub_multihoming, 4);
        let provs = sampler.pick(&mut rng, region, config.cross_region_prob, nprov);
        home(&mut builder, &mut sampler, provs, a);
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
    use proptest::prelude::*;

    /// Pick `count` distinct providers from `pool` with probability proportional
    /// to `weight(candidate) + 1` (preferential attachment), respecting regional
    /// bias. Returns fewer if the pool is too small.
    ///
    /// The linear scan [`ProviderSampler::pick`] replaced, kept unchanged as
    /// the oracle the sampler is held to.
    fn pick_providers_reference<R: Rng>(
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

    proptest! {
        // Twin RNGs through the sampler and the linear scan: the same
        // picks, and the RNGs left at the same position, over pools of
        // 1–600 entries (some smaller than `count`, some with no entry in
        // the picking AS's own region) and weights bumped between calls.
        #[test]
        fn sampler_matches_linear_scan(
            seed in any::<u64>(),
            len in 1usize..=600,
            short in any::<bool>(),
            num_regions in 1usize..=8,
            evict_own in any::<bool>(),
            offset in 0usize..4,
        ) {
            let mut case = ChaCha8Rng::seed_from_u64(seed);
            let len = if short { 1 + len % 5 } else { len };
            let own = case.random_range(0..num_regions) as u8;
            let regions: Vec<u8> = (0..offset + len)
                .map(|_| {
                    let r = case.random_range(0..num_regions) as u8;
                    if evict_own && r == own && num_regions > 1 {
                        (r + 1) % num_regions as u8
                    } else {
                        r
                    }
                })
                .collect();
            let pool: Vec<(Asn, u8)> = (offset..offset + len)
                .map(|i| (Asn(i as u32), regions[i]))
                .collect();
            let mut sampler = ProviderSampler::new(offset + len, num_regions);
            sampler.set_pool(offset..offset + len, &regions);
            let mut customers = vec![0usize; offset + len];
            let mut scan = ChaCha8Rng::seed_from_u64(seed ^ 1);
            let mut fast = ChaCha8Rng::seed_from_u64(seed ^ 1);
            for _ in 0..24 {
                for _ in 0..case.random_range(0..12usize) {
                    let i = case.random_range(0..offset + len);
                    customers[i] += 1;
                    sampler.add_customer(i);
                }
                let my_region = if case.random::<f64>() < 0.5 {
                    own
                } else {
                    case.random_range(0..num_regions) as u8
                };
                let cross = [0.0, 0.15, 1.0][case.random_range(0..3usize)];
                let count = case.random_range(1..=5usize);
                let want = pick_providers_reference(
                    &mut scan,
                    &pool,
                    |a| customers[a.0 as usize],
                    my_region,
                    cross,
                    count,
                );
                let got: Vec<Asn> = sampler
                    .pick(&mut fast, my_region, cross, count)
                    .into_iter()
                    .map(|i| Asn(i as u32))
                    .collect();
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(scan.next_u64(), fast.next_u64());
                // Picks gain a customer, as they do in the generator.
                for a in got {
                    customers[a.0 as usize] += 1;
                    sampler.add_customer(a.0 as usize);
                }
            }
        }
    }

    /// 64-bit FNV-1a.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Every preset at seed 7 generates the graph it always has: link
    /// count, the FNV-1a of its as-rel text and of its regions. Pinned
    /// from the linear-scan generator the sampler replaced.
    #[test]
    fn generated_graphs_are_pinned() {
        let default = TopologyConfig {
            seed: 7,
            ..TopologyConfig::default()
        };
        for (name, cfg, links, as_rel, regions) in [
            (
                "small",
                TopologyConfig::small(7),
                228,
                0x43f8_2a30_48df_42c5,
                0x2c6d_f7fd_5068_af1b,
            ),
            (
                "paper",
                TopologyConfig::paper(7),
                4_064,
                0x0bf3_d506_95c1_b1ef,
                0xf412_27f3_1aec_8854,
            ),
            (
                "default",
                default,
                4_558,
                0x2764_3249_f7f5_c973,
                0x17d3_d8ad_8d85_e06b,
            ),
            (
                "large",
                TopologyConfig::large(7),
                25_183,
                0x4fc7_1b72_d2d6_be2b,
                0xb401_491c_e6fc_459b,
            ),
            (
                "internet",
                TopologyConfig::internet(7),
                193_838,
                0x9e5b_fbf3_96e1_e0cf,
                0x6bcb_31fd_0a56_dff6,
            ),
        ] {
            let g = generate(&cfg);
            assert_eq!(g.topology.num_links(), links, "{name}: links");
            let text = crate::serfmt::to_as_rel(&g.topology);
            assert_eq!(fnv1a(text.as_bytes()), as_rel, "{name}: as-rel text");
            assert_eq!(fnv1a(&g.regions), regions, "{name}: regions");
        }
    }

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
