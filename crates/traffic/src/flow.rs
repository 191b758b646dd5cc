//! Flow records: aggregated traffic from source ASes toward the origin
//! prefix, with ground-truth spoofing labels for evaluation.
//!
//! Addresses use a synthetic-but-consistent scheme: AS index `i` owns the
//! /24 `10.(i>>8).(i&0xff).0`, so claimed source addresses can be mapped
//! back to a claimed AS exactly like an IP-to-AS database would.

use crate::packet::{amp_ports, UdpPacket};
use crate::placement::PlacedSources;
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use trackdown_bgp::Prefix;
use trackdown_topology::AsIndex;

/// The synthetic address block assigned to an AS index.
///
/// # Panics
/// Panics if `i` exceeds the 16-bit AS-index space of the scheme.
pub fn as_prefix(i: AsIndex) -> Prefix {
    assert!(i.0 < 1 << 16, "AS index {} too large for 10.x.y.0/24", i.0);
    Prefix::new([10, (i.0 >> 8) as u8, (i.0 & 0xff) as u8, 0], 24)
}

/// An address inside an AS's synthetic block.
pub fn as_address(i: AsIndex, host: u8) -> u32 {
    as_prefix(i).addr(host as u32)
}

/// Map an address back to the AS claiming it, if it is in the synthetic
/// 10/8 scheme.
pub fn claimed_as(ip: u32) -> Option<AsIndex> {
    let o = ip.to_be_bytes();
    if o[0] != 10 {
        return None;
    }
    Some(AsIndex(((o[1] as u32) << 8) | o[2] as u32))
}

/// One aggregated flow toward the origin prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Flow {
    /// The AS that actually emitted the packets.
    pub src_as: AsIndex,
    /// Source address claimed in the packets (forged for spoofed flows).
    pub claimed_ip: u32,
    /// Destination address inside the origin prefix.
    pub dst_ip: u32,
    /// Packet count.
    pub packets: u64,
    /// Byte count.
    pub bytes: u64,
    /// Ground truth: was the source address forged?
    pub spoofed: bool,
}

impl Flow {
    /// A representative wire packet for this flow (first packet), usable
    /// with the honeypot's packet-level interface.
    pub fn sample_packet(&self) -> UdpPacket {
        UdpPacket {
            src_ip: self.claimed_ip,
            dst_ip: self.dst_ip,
            ttl: 251, // a few hops consumed
            src_port: 4000 + (self.src_as.0 % 2000) as u16,
            dst_port: amp_ports::NTP,
            payload: Bytes::from_static(b"\x17\x00\x03\x2a\x00\x00\x00\x00"),
        }
    }
}

/// Parameters for flow generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowConfig {
    /// Queries each spoofing source emits during the observation window.
    pub queries_per_source: u64,
    /// Bytes per query packet (amplification queries are small).
    pub bytes_per_query: u64,
}

impl Default for FlowConfig {
    fn default() -> FlowConfig {
        FlowConfig {
            queries_per_source: 1_000,
            bytes_per_query: 64,
        }
    }
}

/// Generate the spoofed amplification flows for a placement: every source
/// AS emits queries claiming the victim's address.
pub fn spoofed_flows(
    placed: &PlacedSources,
    victim_ip: u32,
    honeypot_prefix: Prefix,
    cfg: &FlowConfig,
) -> Vec<Flow> {
    placed
        .source_ases()
        .map(|i| {
            let sources = placed.counts[i.us()] as u64;
            let packets = sources * cfg.queries_per_source;
            Flow {
                src_as: i,
                claimed_ip: victim_ip,
                dst_ip: honeypot_prefix.addr(1),
                packets,
                bytes: packets * cfg.bytes_per_query,
                spoofed: true,
            }
        })
        .collect()
}

/// Iterate over a flow list in fixed-size batches — the unit the
/// streaming accumulators in [`crate::volume`] ingest (the last batch may
/// be shorter).
///
/// # Panics
/// Panics if `batch` is zero.
pub fn flow_batches(flows: &[Flow], batch: usize) -> impl Iterator<Item = &[Flow]> {
    assert!(batch > 0, "flow batch size must be positive");
    flows.chunks(batch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{place_sources, SourcePlacement};

    #[test]
    fn address_scheme_roundtrips() {
        for idx in [0u32, 1, 255, 256, 65_535] {
            let i = AsIndex(idx);
            let ip = as_address(i, 9);
            assert_eq!(claimed_as(ip), Some(i));
            assert!(as_prefix(i).contains(ip));
        }
        // Non-10/8 addresses have no claimed AS.
        assert_eq!(claimed_as(u32::from_be_bytes([203, 0, 113, 1])), None);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn address_scheme_rejects_large_index() {
        let _ = as_prefix(AsIndex(1 << 16));
    }

    #[test]
    fn spoofed_flows_cover_all_source_ases() {
        let cands: Vec<AsIndex> = (0..40).map(AsIndex).collect();
        let placed = place_sources(40, &cands, SourcePlacement::Uniform { total: 100 }, 3);
        let hp = Prefix::new([184, 164, 224, 0], 24);
        let victim = u32::from_be_bytes([203, 0, 113, 7]);
        let flows = spoofed_flows(&placed, victim, hp, &FlowConfig::default());
        assert_eq!(flows.len(), placed.num_source_ases());
        let total_packets: u64 = flows.iter().map(|f| f.packets).sum();
        assert_eq!(total_packets, placed.total() * 1_000);
        for f in &flows {
            assert!(f.spoofed);
            assert_eq!(f.claimed_ip, victim);
            assert!(hp.contains(f.dst_ip));
            assert_eq!(f.bytes, f.packets * 64);
        }
    }

    #[test]
    fn sample_packet_is_decodable() {
        let f = Flow {
            src_as: AsIndex(7),
            claimed_ip: u32::from_be_bytes([203, 0, 113, 7]),
            dst_ip: u32::from_be_bytes([184, 164, 224, 1]),
            packets: 1,
            bytes: 64,
            spoofed: true,
        };
        let p = f.sample_packet();
        let decoded = UdpPacket::decode(p.encode()).unwrap();
        assert_eq!(decoded.src_ip, f.claimed_ip);
        assert_eq!(decoded.dst_port, amp_ports::NTP);
    }
}
