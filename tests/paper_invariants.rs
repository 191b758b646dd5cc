//! Property-based checks of the paper's §III claims about what each
//! announcement technique can and cannot do:
//!
//! * **Location variation** (§III-A-a): a schedule with redundancy `r`
//!   uncovers at least `r + 1` distinct ingress routes for every source
//!   that has that many policy-compliant paths to the origin.
//! * **Prepending** (§III-A-b): lengthening the AS-path at one link moves
//!   only sources whose best and second-best routes were LocalPref-tied —
//!   LocalPref dominates path length in the decision process.
//! * **Poisoning** (§III-A-c): poisoning AS `u` is routing-equivalent to
//!   deleting `u`'s links from the topology — the announcement-level knob
//!   simulates a graph edit the origin cannot perform.
//!
//! All properties are stated for Gao-Rexford-conformant engines: policy
//! violators, disabled loop prevention, and tier-1 poison filtering are
//! exactly the real-world deviations the paper identifies as breaking
//! these guarantees (§V-C), so the clean engine is where they must hold.

use proptest::prelude::*;
use std::collections::BTreeSet;
use trackdown_suite::core::generator::{location_phase, poison_targets};
use trackdown_suite::prelude::*;
use trackdown_suite::topology::{LinkKind, TopologyBuilder};

/// Engine with every policy deviation disabled: unique fixpoints, strict
/// Gao-Rexford preferences, loop prevention everywhere, no tier-1
/// route-leak filtering.
fn conformant() -> EngineConfig {
    EngineConfig {
        policy: PolicyConfig {
            violator_fraction: 0.0,
            no_loop_prevention_fraction: 0.0,
            tier1_poison_filtering: false,
            ..PolicyConfig::default()
        },
        ..EngineConfig::default()
    }
}

/// Rebuild the topology with every link incident to `victim` removed,
/// keeping all ASes (and therefore all `AsIndex` assignments) intact.
fn sever_as(topo: &Topology, victim: Asn) -> Topology {
    let mut b = TopologyBuilder::with_capacity(topo.num_ases());
    for &a in topo.asns() {
        b.add_as(a).expect("unique ASNs");
    }
    for link in topo.links() {
        if link.a == victim || link.b == victim {
            continue;
        }
        match link.kind {
            LinkKind::ProviderCustomer => b.add_provider_customer(link.a, link.b),
            LinkKind::PeerPeer => b.add_peering(link.a, link.b),
        }
        .expect("links valid in source topology");
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // §III-A-a: the location schedule with up to `r` removals observes,
    // for every source, at least min(r + 1, usable) distinct ingress
    // links, where `usable` counts the links whose singleton announcement
    // reaches the source at all — and never observes an unusable ingress.
    #[test]
    fn location_schedule_uncovers_redundant_ingresses(
        seed in 0u64..300,
        pops in 3usize..6,
        r in 1usize..4,
    ) {
        let world = generate(&TopologyConfig::small(seed));
        let origin = OriginAs::peering_style(&world, pops);
        let engine = BgpEngine::new(&world.topology, &conformant());
        let n = world.topology.num_ases();

        // usable[s]: links whose lone announcement gives s a route — the
        // source's policy-compliant path diversity toward the origin.
        let mut usable: Vec<BTreeSet<LinkId>> = vec![BTreeSet::new(); n];
        for l in origin.link_ids() {
            let out = engine
                .propagate_config(&origin, &[LinkAnnouncement::plain(l)])
                .unwrap();
            for i in world.topology.indices() {
                if out.catchment(i).is_some() {
                    usable[i.us()].insert(l);
                }
            }
        }

        // observed[s]: distinct ingresses across the location schedule.
        let mut observed: Vec<BTreeSet<LinkId>> = vec![BTreeSet::new(); n];
        for cfg in location_phase(origin.num_links(), r) {
            let out = engine
                .propagate_config(&origin, &cfg.to_link_announcements())
                .unwrap();
            for i in world.topology.indices() {
                if let Some(l) = out.catchment(i) {
                    observed[i.us()].insert(l);
                }
            }
        }

        for i in 0..n {
            for l in &observed[i] {
                prop_assert!(
                    usable[i].contains(l),
                    "AS {i} entered via {l} which cannot reach it alone"
                );
            }
            let want = (r + 1).min(usable[i].len());
            prop_assert!(
                observed[i].len() >= want,
                "AS {i}: {} distinct ingresses observed, redundancy {r} \
                 promises {want} (usable: {})",
                observed[i].len(),
                usable[i].len()
            );
        }
    }

    // §III-A-c: announcing ⟨L; ∅; {u}⟩ — every link, poisoning u — yields
    // the same catchments as announcing on the topology with every
    // u-incident link deleted. Poisoned paths carry the `origin u origin`
    // sandwich (length 3), so the severed-topology run announces with
    // prepend_times = 2 to present the same path lengths to every other
    // AS; BGP's decision process never reads path *contents* beyond loop
    // prevention, which only u itself triggers.
    #[test]
    fn poisoning_equals_severing_the_victims_links(
        seed in 0u64..300,
        pops in 3usize..6,
        pick in 0usize..64,
    ) {
        let world = generate(&TopologyConfig::small(seed));
        let mut origin = OriginAs::peering_style(&world, pops);
        origin.prepend_times = 2; // match the poison sandwich length
        let targets = poison_targets(&world.topology, &origin);
        if targets.is_empty() {
            return; // origin footprint with no poisonable neighbors
        }
        let victim = targets[pick % targets.len()].target;
        let u = world.topology.index_of(victim).unwrap();
        let cfg = conformant();

        let engine = BgpEngine::new(&world.topology, &cfg);
        let poisoned_anns: Vec<LinkAnnouncement> = origin
            .link_ids()
            .map(|l| LinkAnnouncement::poisoned(l, vec![victim]))
            .collect();
        let poisoned = engine
            .propagate_config(&origin, &poisoned_anns)
            .unwrap();

        let severed_topo = sever_as(&world.topology, victim);
        prop_assert_eq!(severed_topo.num_ases(), world.topology.num_ases());
        prop_assert_eq!(severed_topo.degree(u), 0);
        let severed_engine = BgpEngine::new(&severed_topo, &cfg);
        let prepended_anns: Vec<LinkAnnouncement> =
            origin.link_ids().map(LinkAnnouncement::prepended).collect();
        let severed = severed_engine
            .propagate_config(&origin, &prepended_anns)
            .unwrap();

        // The victim is unreachable both ways; everyone else is routed
        // identically.
        prop_assert_eq!(poisoned.catchment(u), None);
        prop_assert_eq!(severed.catchment(u), None);
        for i in world.topology.indices() {
            prop_assert_eq!(
                poisoned.catchment(i),
                severed.catchment(i),
                "catchment diverged at AS index {}",
                i.0
            );
        }
        prop_assert_eq!(poisoned.reachable_count(), severed.reachable_count());
    }

    // §III-A-b: prepending at link l preserves every AS's LocalPref band
    // and relationship class, and an AS's ingress flips only when its
    // top-LocalPref candidate band held at least two routes — or when the
    // flip cascaded from the upstream neighbor it routes through (the
    // tie was decided there).
    #[test]
    fn prepending_flips_only_localpref_tied_sources(
        seed in 0u64..300,
        pops in 3usize..6,
        pick in 0usize..8,
    ) {
        let world = generate(&TopologyConfig::small(seed));
        let origin = OriginAs::peering_style(&world, pops);
        let engine = BgpEngine::new(&world.topology, &conformant());
        let l = LinkId((pick % origin.num_links()) as u8);

        let base_anns: Vec<LinkAnnouncement> =
            origin.link_ids().map(LinkAnnouncement::plain).collect();
        let prep_anns: Vec<LinkAnnouncement> = origin
            .link_ids()
            .map(|k| {
                if k == l {
                    LinkAnnouncement::prepended(k)
                } else {
                    LinkAnnouncement::plain(k)
                }
            })
            .collect();
        let base = engine
            .propagate_config_detailed(&origin, &base_anns, SnapshotDetail::Full)
            .unwrap();
        let prep = engine.propagate_config(&origin, &prep_anns).unwrap();

        let changed: Vec<bool> = world
            .topology
            .indices()
            .map(|i| base.catchment(i) != prep.catchment(i))
            .collect();
        for i in world.topology.indices() {
            let (b, p) = match (&base.best[i.us()], &prep.best[i.us()]) {
                (Some(b), Some(p)) => (b, p),
                (b, p) => {
                    prop_assert_eq!(
                        b.is_some(),
                        p.is_some(),
                        "prepending changed reachability at AS index {}",
                        i.0
                    );
                    continue;
                }
            };
            // Path length never outranks LocalPref, so the band and the
            // relationship class an AS routes through are invariant.
            prop_assert_eq!(
                b.local_pref, p.local_pref,
                "LocalPref changed at AS index {}", i.0
            );
            prop_assert_eq!(
                b.learned_from, p.learned_from,
                "relationship class changed at AS index {}", i.0
            );
            if changed[i.us()] {
                let band = base.candidates()[i.us()]
                    .iter()
                    .filter(|c| c.local_pref == b.local_pref)
                    .count();
                let cascaded = b.from_neighbor.is_some_and(|nb| changed[nb.us()]);
                prop_assert!(
                    band >= 2 || cascaded,
                    "AS index {} flipped ingress with a unique top-LocalPref \
                     candidate and an unmoved upstream ({} candidates in band)",
                    i.0,
                    band
                );
            }
        }
    }
}

/// The literal §III-A-c statement: for a victim `u` whose only link is to
/// provider `n`, the poisoning configuration ⟨L; ∅; {u}⟩ routes exactly
/// like the unpoisoned topology with the single `n–u` edge deleted.
#[test]
fn degree_one_poisoning_equals_single_edge_deletion() {
    let mut tested = 0;
    for seed in 0..60u64 {
        let world = generate(&TopologyConfig::small(seed));
        let mut origin = OriginAs::peering_style(&world, 4);
        origin.prepend_times = 2;
        let Some(victim) = poison_targets(&world.topology, &origin)
            .iter()
            .map(|t| t.target)
            .find(|&a| {
                let i = world.topology.index_of(a).unwrap();
                world.topology.degree(i) == 1
            })
        else {
            continue;
        };
        let u = world.topology.index_of(victim).unwrap();
        let cfg = conformant();

        let engine = BgpEngine::new(&world.topology, &cfg);
        let poisoned_anns: Vec<LinkAnnouncement> = origin
            .link_ids()
            .map(|l| LinkAnnouncement::poisoned(l, vec![victim]))
            .collect();
        let poisoned = engine.propagate_config(&origin, &poisoned_anns).unwrap();

        // Deleting u's single edge is the same graph edit as severing it.
        let edited = sever_as(&world.topology, victim);
        assert_eq!(edited.num_links(), world.topology.num_links() - 1);
        let edited_engine = BgpEngine::new(&edited, &cfg);
        let prepended_anns: Vec<LinkAnnouncement> =
            origin.link_ids().map(LinkAnnouncement::prepended).collect();
        let deleted = edited_engine
            .propagate_config(&origin, &prepended_anns)
            .unwrap();

        assert_eq!(poisoned.catchment(u), None);
        for i in world.topology.indices() {
            assert_eq!(
                poisoned.catchment(i),
                deleted.catchment(i),
                "seed {seed}: catchment diverged at AS index {}",
                i.0
            );
        }
        tested += 1;
    }
    assert!(
        tested >= 3,
        "too few degree-1 poison targets found across seeds ({tested})"
    );
}
