//! # trackdown-topology
//!
//! AS-level Internet topology substrate for the *trackdown* stack, the
//! reproduction of "Tracking Down Sources of Spoofed IP Packets"
//! (Fonseca et al., IFIP Networking 2019).
//!
//! The paper runs on the live Internet; this crate provides the synthetic
//! equivalent: a relationship-annotated AS graph ([`Topology`]) with an
//! Internet-like generator ([`gen::generate`]), customer-cone analysis
//! ([`cone::ConeInfo`]), CAIDA `as-rel` import/export ([`serfmt`]), and the
//! structural metrics the evaluation needs ([`analysis`]).
//!
//! ## Quick example
//!
//! ```
//! use trackdown_topology::gen::{generate, TopologyConfig};
//! use trackdown_topology::analysis::is_connected;
//!
//! let g = generate(&TopologyConfig::small(1));
//! assert!(is_connected(&g.topology));
//! assert_eq!(g.tier1s.len(), 4);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
mod asn;
pub mod cone;
pub mod fxhash;
pub mod gen;
mod graph;
pub mod infer;
mod paths;
mod relationship;
pub mod serfmt;

pub use asn::{Asn, ParseAsnError};
pub use graph::{topology_from_links, AsIndex, Topology, TopologyBuilder, TopologyError};
pub use paths::AsPath;
pub use relationship::{Link, LinkKind, NeighborKind};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn asn_parse_roundtrip(v in 0u32..=u32::MAX) {
            let a = Asn(v);
            prop_assert_eq!(a.to_string().parse::<Asn>().unwrap(), a);
        }

        #[test]
        fn aspath_prepend_preserves_origin(
            seq in proptest::collection::vec(1u32..1_000_000, 1..10),
            by in 1u32..1_000_000,
            times in 1usize..6,
        ) {
            let p = AsPath::from_sequence(seq.iter().map(|&x| Asn(x)));
            let origin = p.origin();
            let q = p.prepended_by_times(Asn(by), times);
            prop_assert_eq!(q.origin(), origin);
            prop_assert_eq!(q.len(), p.len() + times);
            prop_assert_eq!(q.first_hop(), Some(Asn(by)));
        }

        #[test]
        fn poison_sandwich_extracts_poisons(
            origin in 1u32..1_000_000,
            poisons in proptest::collection::vec(1u32..1_000_000, 0..3),
        ) {
            // Poisons must differ from origin and be distinct for the
            // roundtrip property to hold.
            let mut ps: Vec<Asn> = Vec::new();
            for p in poisons {
                let a = Asn(p);
                if a != Asn(origin) && !ps.contains(&a) {
                    ps.push(a);
                }
            }
            let path = AsPath::poisoned_origin(Asn(origin), &ps);
            prop_assert_eq!(path.poisons_of(Asn(origin)), ps);
        }

        #[test]
        fn generator_valid_for_arbitrary_small_configs(
            seed in 0u64..1000,
            t1 in 2usize..5,
            lt in 0usize..8,
            st in 0usize..12,
            stubs in 1usize..30,
            regions in 1usize..4,
        ) {
            let cfg = gen::TopologyConfig {
                seed,
                num_tier1: t1,
                num_large_transit: lt,
                num_small_transit: st,
                num_stubs: stubs,
                num_regions: regions,
                ..gen::TopologyConfig::default()
            };
            let g = gen::generate(&cfg);
            prop_assert_eq!(g.topology.num_ases(), cfg.total_ases());
            prop_assert!(analysis::is_connected(&g.topology));
            // Every non-tier1 AS has at least one provider.
            for i in g.topology.indices() {
                let asn = g.topology.asn_of(i);
                if !g.tier1s.contains(&asn) {
                    prop_assert!(g.topology.providers(i).next().is_some());
                }
            }
        }

        #[test]
        fn ccdf_is_monotone_nonincreasing(
            values in proptest::collection::vec(1usize..200, 1..100)
        ) {
            let c = analysis::ccdf(&values);
            for w in c.windows(2) {
                prop_assert!(w[0].0 < w[1].0);
                prop_assert!(w[0].1 >= w[1].1);
            }
        }
    }
}
