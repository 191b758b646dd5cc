//! # trackdown-traffic
//!
//! The spoofed-traffic substrate: everything between "attackers exist
//! somewhere" and "the origin sees N spoofed bytes on peering link l".
//!
//! * [`placement`] — the paper's §V-D attacker distributions (single
//!   source, uniform, Pareto 80/20);
//! * [`packet`] — a real IPv4+UDP codec for the spoofed amplification
//!   queries a deployment would parse;
//! * [`flow`] — aggregated flow records with ground-truth labels and a
//!   consistent synthetic addressing scheme;
//! * [`honeypot`] — AmpPot-style volume accounting per ingress link;
//! * [`reflector`] — the attack triangle (attackers → open reflectors →
//!   victim) with per-protocol amplification factors, contrasting the
//!   victim's view (reflector ASes only) with the origin-side vantage;
//! * [`attribution`] — per-link and per-cluster volume aggregation
//!   (Figure 10's series);
//! * [`volume`] — streaming volume accumulation for line-rate ingest:
//!   flows fold into exact per-(configuration, link) counters behind the
//!   [`VolumeAccumulator`] trait the localization layer accepts in place
//!   of dense rows.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod attribution;
pub mod flow;
pub mod honeypot;
pub mod packet;
pub mod placement;
pub mod reflector;
pub mod volume;

pub use attribution::{
    cumulative_volume_by_cluster_size, cumulative_volume_by_cluster_slices, hottest,
    volume_per_link,
};
pub use flow::{as_address, as_prefix, claimed_as, flow_batches, spoofed_flows, Flow, FlowConfig};
pub use honeypot::{Honeypot, HoneypotConfig, HoneypotReport};
pub use packet::{amp_ports, PacketError, UdpPacket};
pub use placement::{pareto_shape_80_20, place_sources, PlacedSources, SourcePlacement};
pub use reflector::{reflect_attack, scatter_reflectors, Reflector, ReflectorKind, VictimReport};
pub use volume::{ingest_stream, BatchedDenseAccumulator, VolumeAccumulator, DEFAULT_FLOW_BATCH};

#[cfg(test)]
mod proptests {
    use super::*;
    use bytes::Bytes;
    use proptest::prelude::*;

    proptest! {
        // Packet encode/decode is a perfect roundtrip for arbitrary
        // headers and payloads.
        #[test]
        fn packet_roundtrip(
            src in any::<u32>(),
            dst in any::<u32>(),
            ttl in 1u8..=255,
            sport in any::<u16>(),
            dport in any::<u16>(),
            payload in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            let p = UdpPacket {
                src_ip: src,
                dst_ip: dst,
                ttl,
                src_port: sport,
                dst_port: dport,
                payload: Bytes::from(payload),
            };
            prop_assert_eq!(UdpPacket::decode(p.encode()).unwrap(), p);
        }

        // Single-byte corruption anywhere in the IPv4 header is caught
        // (checksum or structural validation).
        #[test]
        fn header_corruption_detected(
            pos in 0usize..20,
            flip in 1u8..=255,
        ) {
            let p = UdpPacket {
                src_ip: 0x0A00_0001,
                dst_ip: 0xB8A4_E001,
                ttl: 64,
                src_port: 1234,
                dst_port: 123,
                payload: Bytes::from_static(b"query"),
            };
            let mut wire = p.encode().to_vec();
            wire[pos] ^= flip;
            let decoded = UdpPacket::decode(Bytes::from(wire));
            prop_assert!(
                decoded.is_err() || decoded.as_ref().unwrap() != &p,
                "corruption at {pos} silently ignored"
            );
        }

        // Placement conserves the requested source count and never uses
        // non-candidate ASes.
        #[test]
        fn placement_conserves_mass(
            seed in any::<u64>(),
            total in 1usize..500,
            n in 2usize..100,
        ) {
            use trackdown_topology::AsIndex;
            let candidates: Vec<AsIndex> =
                (0..n as u32).step_by(2).map(AsIndex).collect();
            for placement in [
                SourcePlacement::Uniform { total },
                SourcePlacement::Pareto { total, alpha: pareto_shape_80_20() },
            ] {
                let p = place_sources(n, &candidates, placement, seed);
                prop_assert_eq!(p.total(), total as u64);
                for (i, &c) in p.counts.iter().enumerate() {
                    if c > 0 {
                        prop_assert!(candidates.contains(&AsIndex(i as u32)));
                    }
                }
            }
        }

        // The honeypot conserves bytes: link sums equal the attributable
        // total.
        #[test]
        fn honeypot_conserves_bytes(
            vols in proptest::collection::vec(0u64..1_000_000, 1..30),
        ) {
            use trackdown_bgp::{Catchments, LinkId};
            use trackdown_topology::AsIndex;
            let n = vols.len();
            let mut c = Catchments::unassigned(n);
            for i in 0..n {
                // Assign alternating links, leave every 5th unassigned.
                let link = if i % 5 == 4 { None } else { Some(LinkId((i % 3) as u8)) };
                c.set(AsIndex(i as u32), link);
            }
            let hp = Honeypot::new(HoneypotConfig::default());
            let dst = hp.config().prefix.addr(1);
            let flows: Vec<Flow> = vols
                .iter()
                .enumerate()
                .map(|(i, &b)| Flow {
                    src_as: AsIndex(i as u32),
                    claimed_ip: 0xCB00_7101,
                    dst_ip: dst,
                    packets: b / 64,
                    bytes: b,
                    spoofed: true,
                })
                .collect();
            let r = hp.observe(&c, 3, &flows);
            let attributable: u64 = vols
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 5 != 4)
                .map(|(_, &b)| b)
                .sum();
            prop_assert_eq!(r.per_link_bytes.iter().sum::<u64>(), attributable);
            prop_assert_eq!(r.total_bytes, attributable);
        }
    }
}
