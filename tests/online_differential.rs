//! Differential oracle for the online loop (§V-C).
//!
//! `localize_online` narrows the suspects on per-AS bitsets and orders the
//! final ones by clustering only them; `localize_online_reference` is the
//! loop it replaced, which re-clusters every tracked AS each round and
//! rescans every cluster. Over small random scenarios built straight from
//! catchments (no BGP), every option combination must give the same full
//! [`OnlineResult`]: deployed configurations, suspects in order,
//! trajectory, rounds and `localized`.
//!
//! A scenario covers what the loop reads without a clustering: a shuffled
//! `tracked` list with duplicates, volume vectors shorter than the link
//! ids, volume planted at two ASes, measured catchments that differ from
//! the prior ones, and unassigned ASes. Each is run with and without a
//! prior, greedy and in order, with 1 to 4 prefixes and budgets of 0, 1
//! and more configurations.

use proptest::prelude::*;
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;
use trackdown_bgp::{Catchments, LinkId};
use trackdown_core::online::{
    localize_online, localize_online_reference, OnlineOptions, OnlineResult,
};
use trackdown_core::AnnouncementConfig;
use trackdown_topology::AsIndex;

/// One random scenario over `n` ASes and `links` links.
struct World {
    links: usize,
    candidates: Vec<AnnouncementConfig>,
    /// Catchments measured before the attack, one per candidate.
    prior: Vec<Catchments>,
    /// Catchments the loop clusters with once a candidate is deployed.
    measured: Vec<Catchments>,
    /// Catchments the attack traffic follows.
    traffic: Vec<Catchments>,
    /// Entries of each candidate's volume vector the honeypot reports.
    reported: Vec<usize>,
    tracked: Vec<AsIndex>,
    volume_per_as: Vec<u64>,
}

impl World {
    fn build(seed: u64) -> World {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = rng.random_range(1..=150usize);
        let links = rng.random_range(1..=5usize);
        let configs = rng.random_range(1..=10usize);
        // ASes of a group share their link unless noise moves them, so
        // clusters hold several members.
        let groups = rng.random_range(1..=n.min(12));
        let group_of: Vec<usize> = (0..n).map(|_| rng.random_range(0..groups)).collect();
        let catchment = |rng: &mut ChaCha8Rng, base: Option<&Catchments>| {
            let group_link: Vec<Option<LinkId>> = (0..groups)
                .map(|_| (rng.random_range(0..8u8) > 0).then(|| random_link(rng, links)))
                .collect();
            let mut cat = Catchments::unassigned(n);
            for (i, &g) in group_of.iter().enumerate() {
                let a = AsIndex(i as u32);
                let link = match (base, rng.random_range(0..10u8)) {
                    (Some(base), 0..=7) => base.get(a),
                    (_, 0) => None,
                    (_, 1) => Some(random_link(rng, links)),
                    _ => group_link[g],
                };
                cat.set(a, link);
            }
            cat
        };
        let prior: Vec<Catchments> = (0..configs).map(|_| catchment(&mut rng, None)).collect();
        let mut measured = Vec::new();
        let mut traffic = Vec::new();
        for p in &prior {
            let m = if rng.random_bool(0.5) {
                p.clone()
            } else {
                catchment(&mut rng, Some(p))
            };
            let t = if rng.random_bool(0.7) {
                m.clone()
            } else {
                catchment(&mut rng, Some(&m))
            };
            measured.push(m);
            traffic.push(t);
        }
        let reported = (0..configs)
            .map(|_| {
                if rng.random_bool(0.3) {
                    rng.random_range(0..links)
                } else {
                    links
                }
            })
            .collect();
        let mut tracked: Vec<AsIndex> = (0..n as u32)
            .filter(|_| rng.random_bool(0.6))
            .map(AsIndex)
            .collect();
        let copies = rng.random_range(0..3usize);
        for _ in 0..copies.min(tracked.len()) {
            let a = tracked[rng.random_range(0..tracked.len())];
            tracked.push(a);
        }
        for i in (1..tracked.len()).rev() {
            let j = rng.random_range(0..=i);
            tracked.swap(i, j);
        }
        let mut volume_per_as = vec![0u64; n];
        for bytes in [1_000, 10] {
            volume_per_as[rng.random_range(0..n)] += bytes;
        }
        World {
            links,
            candidates: vec![AnnouncementConfig::anycast_all(links); configs],
            prior,
            measured,
            traffic,
            reported,
            tracked,
            volume_per_as,
        }
    }

    /// Index of a candidate the loop handed to a callback.
    fn index_of(&self, cfg: &AnnouncementConfig) -> usize {
        self.candidates
            .iter()
            .position(|c| std::ptr::eq(c, cfg))
            .expect("the loop passes its own candidates")
    }

    /// The honeypot's volumes for a deployed candidate: the planted
    /// volumes summed per traffic link, cut to the reported length.
    fn observe(&self, cfg: &AnnouncementConfig) -> Vec<u64> {
        let k = self.index_of(cfg);
        let mut vols = vec![0u64; self.links];
        for (link, sum) in self.traffic[k].member_sums(&self.volume_per_as) {
            vols[link.us()] += sum;
        }
        vols.truncate(self.reported[k]);
        vols
    }

    fn run(&self, online: Loop, prior: bool, opts: OnlineOptions) -> OnlineResult {
        online(
            &self.candidates,
            prior.then_some(self.prior.as_slice()),
            &self.tracked,
            &|cfg| self.observe(cfg),
            &|k, _| self.measured[k].clone(),
            opts,
        )
    }
}

fn random_link(rng: &mut ChaCha8Rng, links: usize) -> LinkId {
    LinkId(rng.random_range(0..links) as u8)
}

/// [`localize_online`] or its reference.
type Loop = fn(
    &[AnnouncementConfig],
    Option<&[Catchments]>,
    &[AsIndex],
    &trackdown_core::online::VolumeOracle<'_>,
    &dyn Fn(usize, &AnnouncementConfig) -> Catchments,
    OnlineOptions,
) -> OnlineResult;

proptest! {
    #[test]
    fn bitset_loop_equals_the_clustering_reference(
        seed in any::<u64>(),
        budget in 2usize..12,
        target in 0usize..5,
    ) {
        let world = World::build(seed);
        for max_configs in [0, 1, budget] {
            for prefixes in 1..=4 {
                for (prior, greedy) in [(true, true), (true, false), (false, true)] {
                    let opts = OnlineOptions {
                        max_configs,
                        target_suspects: target,
                        greedy,
                        prefixes,
                    };
                    prop_assert_eq!(
                        world.run(localize_online, prior, opts),
                        world.run(localize_online_reference, prior, opts),
                        "seed {}, prior {}, {:?}",
                        seed,
                        prior,
                        opts
                    );
                }
            }
        }
    }
}
