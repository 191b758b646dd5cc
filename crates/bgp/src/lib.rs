//! # trackdown-bgp
//!
//! Deterministic AS-level BGP route propagation for the *trackdown* stack.
//!
//! The paper's techniques work entirely through standard BGP semantics:
//! Gao-Rexford LocalPref by relationship, the AS-path-length tiebreak that
//! prepending manipulates, and the loop-prevention check that poisoning
//! exploits. This crate implements exactly those semantics over a
//! [`trackdown_topology::Topology`], plus the real-world deviations the
//! paper calls out (policy violators, disabled loop prevention, tier-1
//! route-leak filtering).
//!
//! The origin network (PEERING's stand-in) is a virtual node with multiple
//! peering links; each announcement configuration injects per-link
//! AS-paths — plain, prepended, or poisoned — into the PoP providers and
//! propagates to a fixpoint. The resulting [`engine::RoutingOutcome`]
//! yields control-plane and data-plane [`catchment::Catchments`].
//!
//! ```
//! use trackdown_topology::gen::{generate, TopologyConfig};
//! use trackdown_bgp::{BgpEngine, EngineConfig, OriginAs, LinkAnnouncement};
//!
//! let g = generate(&TopologyConfig::small(1));
//! let origin = OriginAs::peering_style(&g, 3);
//! let engine = BgpEngine::new(&g.topology, &EngineConfig::default());
//! let anns: Vec<_> = origin.link_ids().map(LinkAnnouncement::plain).collect();
//! let out = engine.propagate_config(&origin, &anns).unwrap();
//! assert!(out.converged);
//! assert!(out.reachable_count() > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arena;
pub mod catchment;
pub mod community;
pub mod engine;
pub mod origin;
pub mod policy;
pub mod route;

pub use arena::{PathArena, PathId, PathStore};
pub use catchment::Catchments;
pub use community::{Community, CommunityBits, CommunitySet};
pub use engine::{
    BaselineReport, BaselineStatus, BgpEngine, CampaignSession, DeployedCatchments, EngineConfig,
    ForwardingPath, ForwardingWalker, RouteChange, RoutingOutcome, SnapshotDetail,
};
pub use origin::{Injection, LinkAnnouncement, OriginAs, OriginError, PeeringLink};
pub use policy::{
    ComplianceFlags, DeploymentBias, ExtensionConfig, ExtensionDeployment, PolicyConfig,
    PolicyExtension, PolicyTable,
};
pub use route::{LinkId, Prefix, Route};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use trackdown_topology::gen::{generate, TopologyConfig};
    use trackdown_topology::Asn;

    /// (link, provider-neighbor) poisoning pairs, mirroring the schedule
    /// generator's targeting strategy without depending on trackdown-core.
    fn poison_pairs(topo: &trackdown_topology::Topology, origin: &OriginAs) -> Vec<(LinkId, Asn)> {
        let providers: Vec<Asn> = origin.links.iter().map(|l| l.provider).collect();
        let mut out = Vec::new();
        for link in &origin.links {
            let Some(p) = topo.index_of(link.provider) else {
                continue;
            };
            for &(n, _) in topo.neighbors(p) {
                let asn = topo.asn_of(n);
                if asn != origin.asn && !providers.contains(&asn) {
                    out.push((link.id, asn));
                }
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        // Catchments partition the reachable ASes for arbitrary seeds and
        // announcement subsets.
        #[test]
        fn catchments_partition_reachable_ases(
            topo_seed in 0u64..50,
            policy_seed in 0u64..50,
            subset_mask in 1u8..15, // non-empty proper subset of 4 links
        ) {
            let g = generate(&TopologyConfig::small(topo_seed));
            let origin = OriginAs::peering_style(&g, 4);
            let cfg = EngineConfig {
                policy: PolicyConfig {
                    seed: policy_seed,
                    ..PolicyConfig::default()
                },
                ..EngineConfig::default()
            };
            let engine = BgpEngine::new(&g.topology, &cfg);
            let anns: Vec<LinkAnnouncement> = origin
                .link_ids()
                .filter(|l| subset_mask & (1 << l.0) != 0)
                .map(LinkAnnouncement::plain)
                .collect();
            let out = engine.propagate_config(&origin, &anns).unwrap();
            prop_assert!(out.converged);
            let c = Catchments::from_control_plane(&out);
            let member_total: usize =
                c.active_links().iter().map(|&l| c.members(l).count()).sum();
            prop_assert_eq!(member_total, out.reachable_count());
            // Only announced links can attract traffic.
            for l in c.active_links() {
                prop_assert!(anns.iter().any(|a| a.link == l));
            }
        }

        // Every best route's AS-path terminates at the origin AS.
        #[test]
        fn best_paths_originate_at_origin(topo_seed in 0u64..30) {
            let g = generate(&TopologyConfig::small(topo_seed));
            let origin = OriginAs::peering_style(&g, 3);
            let cfg = EngineConfig {
                policy: PolicyConfig {
                    seed: 3,
                    violator_fraction: 0.0,
                    no_loop_prevention_fraction: 0.0,
                    tier1_poison_filtering: true,
                    extensions: Default::default(),
                },
                ..EngineConfig::default()
            };
            let engine = BgpEngine::new(&g.topology, &cfg);
            let anns: Vec<_> = origin.link_ids().map(LinkAnnouncement::plain).collect();
            let out = engine
                .propagate_config_detailed(&origin, &anns, SnapshotDetail::Full)
                .unwrap();
            for b in out.best.iter().flatten() {
                prop_assert_eq!(out.path_of(b).origin(), Some(origin.asn));
            }
        }

        // Anycasting from every link reaches the entire topology when
        // policies are clean (full-coverage baseline of §IV-d).
        #[test]
        fn clean_anycast_reaches_all(topo_seed in 0u64..30) {
            let g = generate(&TopologyConfig::small(topo_seed));
            let origin = OriginAs::peering_style(&g, 4);
            let cfg = EngineConfig {
                policy: PolicyConfig {
                    seed: 11,
                    violator_fraction: 0.0,
                    no_loop_prevention_fraction: 0.0,
                    tier1_poison_filtering: false,
                    extensions: Default::default(),
                },
                ..EngineConfig::default()
            };
            let engine = BgpEngine::new(&g.topology, &cfg);
            let anns: Vec<_> = origin.link_ids().map(LinkAnnouncement::plain).collect();
            let out = engine.propagate_config(&origin, &anns).unwrap();
            prop_assert_eq!(out.reachable_count(), g.topology.num_ases());
        }

        // Prepending changes who uses each link, never overall reachability
        // (§III-A-b: it only flips length-based ties).
        #[test]
        fn prepending_preserves_reachability(topo_seed in 0u64..20) {
            let g = generate(&TopologyConfig::small(topo_seed));
            let origin = OriginAs::peering_style(&g, 3);
            let engine = BgpEngine::new(&g.topology, &EngineConfig::default());
            let plain: Vec<_> = origin.link_ids().map(LinkAnnouncement::plain).collect();
            let prepended: Vec<_> = origin
                .link_ids()
                .map(|l| LinkAnnouncement {
                    link: l,
                    prepend: l.0 == 0,
                    poisons: vec![],
                    communities: Default::default(),
                })
                .collect();
            let a = engine.propagate_config(&origin, &plain).unwrap();
            let b = engine.propagate_config(&origin, &prepended).unwrap();
            prop_assert_eq!(a.reachable_count(), b.reachable_count());
        }

        // With clean policies, prepending at a link never *grows* that
        // link's catchment: every AS that still picks it would have picked
        // it unprepended too (the prepended route loses every comparison
        // it previously tied or won on length).
        #[test]
        fn prepending_never_grows_the_prepended_catchment(topo_seed in 0u64..20) {
            let g = generate(&TopologyConfig::small(topo_seed));
            let origin = OriginAs::peering_style(&g, 3);
            let cfg = EngineConfig {
                policy: PolicyConfig {
                    seed: 5,
                    violator_fraction: 0.0,
                    no_loop_prevention_fraction: 0.0,
                    tier1_poison_filtering: false,
                    extensions: Default::default(),
                },
                ..EngineConfig::default()
            };
            let engine = BgpEngine::new(&g.topology, &cfg);
            let plain: Vec<_> = origin.link_ids().map(LinkAnnouncement::plain).collect();
            let base = engine.propagate_config(&origin, &plain).unwrap();
            for target in origin.link_ids() {
                let anns: Vec<LinkAnnouncement> = origin
                    .link_ids()
                    .map(|l| {
                        if l == target {
                            LinkAnnouncement::prepended(l)
                        } else {
                            LinkAnnouncement::plain(l)
                        }
                    })
                    .collect();
                let out = engine.propagate_config(&origin, &anns).unwrap();
                let before = Catchments::from_control_plane(&base);
                let after = Catchments::from_control_plane(&out);
                prop_assert!(
                    after.members(target).count() <= before.members(target).count(),
                    "link {target} grew under prepending"
                );
            }
        }

        // A poisoned AS (loop prevention on) never installs a route whose
        // path contains itself, and never transits the prefix for others.
        #[test]
        fn poisoned_as_never_uses_or_transits_the_poison(topo_seed in 0u64..20) {
            let g = generate(&TopologyConfig::small(topo_seed));
            let origin = OriginAs::peering_style(&g, 3);
            let cfg = EngineConfig {
                policy: PolicyConfig {
                    seed: 9,
                    violator_fraction: 0.0,
                    no_loop_prevention_fraction: 0.0,
                    tier1_poison_filtering: false,
                    extensions: Default::default(),
                },
                ..EngineConfig::default()
            };
            let engine = BgpEngine::new(&g.topology, &cfg);
            let targets = poison_pairs(&g.topology, &origin);
            for t in targets.iter().take(5) {
                let anns: Vec<LinkAnnouncement> = origin
                    .link_ids()
                    .map(|l| {
                        if l == t.0 {
                            LinkAnnouncement::poisoned(l, vec![t.1])
                        } else {
                            LinkAnnouncement::plain(l)
                        }
                    })
                    .collect();
                let out = engine
                    .propagate_config_detailed(&origin, &anns, SnapshotDetail::Full)
                    .unwrap();
                let ti = g.topology.index_of(t.1).unwrap();
                // The poisoned AS's own best route never carries the poison.
                if let Some(r) = &out.best[ti.us()] {
                    prop_assert!(!out.path_of(r).poisons_of(origin.asn).contains(&t.1));
                }
                // And no AS's best path transits the poisoned AS on the
                // poisoned link (it could not have exported it).
                for b in out.best.iter().flatten() {
                    if b.ingress == t.0 && b.from_neighbor.is_some() {
                        let path = out.path_of(b);
                        let through: Vec<_> = path.distinct();
                        let poisoned_hop = through.contains(&t.1);
                        // The sandwich itself contains the poison ASN, so
                        // only count it when the poisoned AS appears as a
                        // genuine forwarding hop (adjacent repetition-free
                        // occurrence outside the sandwich).
                        if poisoned_hop {
                            prop_assert!(
                                path.poisons_of(origin.asn).contains(&t.1),
                                "AS path transits poisoned {} on link {}",
                                t.1,
                                t.0
                            );
                        }
                    }
                }
            }
        }

        // On a converged outcome the data plane is the control plane: each
        // AS's best route is its next hop's best re-exported (same
        // ingress, strictly shorter path at the next hop), so every
        // forwarding chain ends at the first AS's ingress. Violators,
        // disabled loop prevention, poisoning and prepending included.
        #[test]
        fn converged_data_plane_equals_control_plane(
            topo_seed in 0u64..200,
            policy_seed in 0u64..200,
            violator_permille in 0u32..301,
            poison_pick in 0usize..1000,
            prepend_mask in 0u8..16,
        ) {
            let g = generate(&TopologyConfig::small(topo_seed));
            let origin = OriginAs::peering_style(&g, 4);
            let cfg = EngineConfig {
                policy: PolicyConfig {
                    seed: policy_seed,
                    violator_fraction: f64::from(violator_permille) / 1000.0,
                    ..PolicyConfig::default()
                },
                ..EngineConfig::default()
            };
            let engine = BgpEngine::new(&g.topology, &cfg);
            let pairs = poison_pairs(&g.topology, &origin);
            let (poisoned, target) = pairs[poison_pick % pairs.len()];
            let anns: Vec<LinkAnnouncement> = origin
                .link_ids()
                .map(|l| LinkAnnouncement {
                    link: l,
                    prepend: prepend_mask & (1 << l.0) != 0,
                    poisons: if l == poisoned { vec![target] } else { vec![] },
                    communities: Default::default(),
                })
                .collect();
            let out = engine.propagate_config(&origin, &anns).unwrap();
            if out.converged {
                prop_assert_eq!(
                    Catchments::from_data_plane(&out),
                    Catchments::from_control_plane(&out)
                );
            }
        }

        // A PoP provider hears the origin directly as a 1-hop customer
        // route, which beats anything a neighbor can offer.
        #[test]
        fn pop_provider_uses_own_link(topo_seed in 0u64..20) {
            let g = generate(&TopologyConfig::small(topo_seed));
            let origin = OriginAs::peering_style(&g, 3);
            let cfg = EngineConfig {
                policy: PolicyConfig {
                    seed: 5,
                    violator_fraction: 0.0,
                    no_loop_prevention_fraction: 0.0,
                    tier1_poison_filtering: false,
                    extensions: Default::default(),
                },
                ..EngineConfig::default()
            };
            let engine = BgpEngine::new(&g.topology, &cfg);
            let anns: Vec<_> = origin.link_ids().map(LinkAnnouncement::plain).collect();
            let out = engine.propagate_config(&origin, &anns).unwrap();
            for link in &origin.links {
                let p = g.topology.index_of(link.provider).unwrap();
                prop_assert_eq!(out.catchment(p), Some(link.id));
            }
        }
    }
}
