//! # trackdown-measure
//!
//! The catchment-measurement substrate: the simulated equivalent of the
//! paper's observation pipeline (§IV-b/c/d), which combined RouteViews and
//! RIPE RIS BGP feeds with RIPE Atlas traceroutes to infer which peering
//! link each source AS routes to.
//!
//! The pipeline is faithful to the paper's, fault injection included:
//!
//! 1. [`vantage`] — select BGP feeder ASes (cone-weighted, all tier-1s)
//!    and probe ASes;
//! 2. [`traceroute`] — walk data-plane paths with unresponsive hops and
//!    [`mapping`] (IP-to-AS) errors;
//! 3. [`repair`] — the paper's three-rule gap repair;
//! 4. [`observe`] — combine BGP and traceroute votes per source with BGP
//!    priority and majority resolution;
//! 5. [`visibility`] — restrict to baseline-observed sources and impute
//!    holes via each source's `smax` companion.
//!
//! [`plane::MeasurementPlane`] bundles steps 1–4 behind one call.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod collector;
pub mod mapping;
pub mod observe;
pub mod plane;
pub mod repair;
pub mod traceroute;
pub mod vantage;
pub mod visibility;

pub use collector::{CollectorUpdate, UpdateStream};
pub use mapping::{HopResolution, IpToAs, IpToAsConfig};
pub use observe::{collect_bgp_feeds, combine_observations, BgpObservation, MeasuredCatchments};
pub use plane::{MeasurementConfig, MeasurementPlane};
pub use repair::{repair_campaign, RepairedPath};
pub use traceroute::{
    run_campaign, run_traceroute, sample_probes, Hop, Traceroute, TracerouteConfig,
};
pub use vantage::{VantageConfig, VantagePoints};
pub use visibility::{analysis_set, impute_visibility, ImputationStats};

/// The integer form of the fault-injection roll `(r as f64 / scale as
/// f64) < p` over `r` in `0..scale`: the least `r` for which the roll
/// fails, so the roll holds exactly when `r < roll_threshold(p, scale)`.
/// The quotient never decreases as `r` grows (division by a positive
/// constant is monotone under IEEE rounding), so the rolls that hold are
/// a prefix of `0..scale` and a binary search finds its end.
pub(crate) fn roll_threshold(p: f64, scale: u64) -> u64 {
    let (mut lo, mut hi) = (0, scale);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if (mid as f64 / scale as f64) < p {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// SplitMix64 mixer shared by the fault-injection rolls in this crate.
#[inline]
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use trackdown_topology::Asn;

    /// One observed hop: a gap (unresponsive or unmapped), an IXP-fabric
    /// ASN, or one of a handful of ASNs, so interiors repeat and conflict.
    fn hop_strategy() -> impl Strategy<Value = Option<Asn>> {
        (0u32..12).prop_map(|v| match v {
            0 | 1 => None,
            2 => Some(Asn(64512 + 7)),
            3 => Some(Asn(4_200_000_001)),
            v => Some(Asn(v - 3)),
        })
    }

    /// Campaigns of short traceroutes over [`hop_strategy`] hops, some
    /// unreached, plus a BGP corpus over the same few ASNs.
    fn campaign_strategy() -> impl Strategy<Value = (Vec<Traceroute>, Vec<Vec<Asn>>)> {
        use crate::traceroute::Hop;
        use trackdown_topology::AsIndex;
        let trace = (
            0u32..4,
            proptest::option::weighted(0.8, 0u8..3),
            proptest::collection::vec(hop_strategy(), 0..9),
        )
            .prop_map(|(probe, reached, hops)| Traceroute {
                probe: AsIndex(probe),
                round: 0,
                reached: reached.map(trackdown_bgp::LinkId),
                hops: hops
                    .into_iter()
                    .map(|observed| Hop {
                        true_as: AsIndex(probe),
                        observed,
                    })
                    .collect(),
            });
        let path = proptest::collection::vec((1u32..9).prop_map(Asn), 0..7);
        (
            proptest::collection::vec(trace, 0..14),
            proptest::collection::vec(path, 0..5),
        )
    }

    /// Six ASes (ASNs 1–6) in a provider chain: observations may also
    /// name ASNs 7–9, which are outside it.
    fn chain_topology() -> trackdown_topology::Topology {
        use trackdown_topology::LinkKind;
        trackdown_topology::topology_from_links(
            (1..6).map(|a| (Asn(a), Asn(a + 1), LinkKind::ProviderCustomer)),
        )
        .unwrap()
    }

    /// BGP observations and repaired traceroutes over [`chain_topology`],
    /// with three links so vote ties are common.
    fn observations_strategy(
    ) -> impl Strategy<Value = (Vec<crate::BgpObservation>, Vec<crate::RepairedPath>)> {
        use trackdown_bgp::LinkId;
        use trackdown_topology::AsIndex;
        let path = || proptest::collection::vec((1u32..10).prop_map(Asn), 0..6);
        let obs =
            (0u32..6, path(), 0u8..3).prop_map(|(feeder, path, link)| crate::BgpObservation {
                feeder: AsIndex(feeder),
                path,
                ingress: LinkId(link),
            });
        let trace = (0u32..6, proptest::option::weighted(0.8, 0u8..3), path()).prop_map(
            |(probe, reached, path)| crate::RepairedPath {
                probe: AsIndex(probe),
                reached: reached.map(LinkId),
                path,
                ignored_hops: 0,
                repaired_hops: 0,
                ixp_hops: 0,
            },
        );
        (
            proptest::collection::vec(obs, 0..6),
            proptest::collection::vec(trace, 0..10),
        )
    }

    fn seq_strategy() -> impl Strategy<Value = Vec<Option<Asn>>> {
        proptest::collection::vec(
            proptest::option::weighted(0.8, (1u32..40).prop_map(Asn)),
            0..12,
        )
    }

    #[test]
    fn roll_thresholds_match_float_rolls() {
        for p in [
            0.0,
            1e-9,
            0.02,
            0.05,
            0.08,
            0.3,
            0.5,
            0.999_99,
            1.0,
            1.5,
            -0.1,
            f64::NAN,
        ] {
            for scale in [10_000u64, 100_000] {
                let t = roll_threshold(p, scale);
                for r in 0..scale {
                    assert_eq!(
                        r < t,
                        (r as f64 / scale as f64) < p,
                        "p={p} scale={scale} r={r}"
                    );
                }
            }
        }
    }

    proptest! {
        // The anchor-pair index repairs every traceroute exactly as the
        // index of every ordered pair does: same paths, same gap-hop and
        // IXP-hop counts, over gaps at either end, IXP hops, unreached
        // traceroutes and conflicting interiors.
        #[test]
        fn repair_matches_reference(input in campaign_strategy()) {
            let (campaign, corpus) = input;
            let got = repair_campaign(&campaign, &corpus);
            let want = crate::repair::reference::repair_campaign(&campaign, &corpus);
            prop_assert_eq!(got, want);
        }

        // The flat vote tally resolves every AS exactly as the per-AS vote
        // vectors do, over ties, out-of-topology ASNs and unreached
        // traceroutes.
        #[test]
        fn tally_matches_reference(input in observations_strategy()) {
            let (bgp, traceroutes) = input;
            let topo = chain_topology();
            let got = combine_observations(&topo, &bgp, &traceroutes);
            let want = crate::observe::reference::combine_observations(&topo, &bgp, &traceroutes);
            prop_assert_eq!(got.catchments.dense(), want.catchments.dense());
            prop_assert_eq!(got, want);
        }

        // Repair never invents an AS that is absent from every evidence
        // source (the sequence itself, other traceroutes, BGP paths).
        #[test]
        fn repair_only_uses_known_ases(
            seqs in proptest::collection::vec(seq_strategy(), 1..6),
            paths in proptest::collection::vec(
                proptest::collection::vec((1u32..40).prop_map(Asn), 0..6), 0..4),
        ) {
            use crate::traceroute::Hop;
            use trackdown_topology::AsIndex;
            let campaign: Vec<Traceroute> = seqs
                .iter()
                .map(|s| Traceroute {
                    probe: AsIndex(0),
                    round: 0,
                    reached: Some(trackdown_bgp::LinkId(0)),
                    hops: s
                        .iter()
                        .map(|o| Hop { true_as: AsIndex(0), observed: *o })
                        .collect(),
                })
                .collect();
            let repaired = repair_campaign(&campaign, &paths);
            let mut known: Vec<Asn> = seqs.iter().flatten().flatten().copied().collect();
            known.extend(paths.iter().flatten().copied());
            for rp in &repaired {
                for a in &rp.path {
                    prop_assert!(known.contains(a), "invented {a}");
                }
            }
        }

        // Repaired paths never contain consecutive duplicate ASes and the
        // hop accounting is consistent.
        #[test]
        fn repair_output_well_formed(
            seqs in proptest::collection::vec(seq_strategy(), 1..6),
        ) {
            use crate::traceroute::Hop;
            use trackdown_topology::AsIndex;
            let campaign: Vec<Traceroute> = seqs
                .iter()
                .map(|s| Traceroute {
                    probe: AsIndex(0),
                    round: 0,
                    reached: None,
                    hops: s
                        .iter()
                        .map(|o| Hop { true_as: AsIndex(0), observed: *o })
                        .collect(),
                })
                .collect();
            for (rp, seq) in repair_campaign(&campaign, &[]).iter().zip(&seqs) {
                for w in rp.path.windows(2) {
                    prop_assert_ne!(w[0], w[1]);
                }
                let gaps = seq.iter().filter(|o| o.is_none()).count();
                prop_assert!(rp.ignored_hops + rp.repaired_hops <= gaps.max(seq.len()));
            }
        }
    }
}
