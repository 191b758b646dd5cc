//! The amplification honeypot (AmpPot analog, §III-C).
//!
//! The origin hosts a service that *looks* amplifiable on the experiment
//! prefix. Attackers scanning for reflectors find it and start bouncing
//! spoofed queries off it; since no legitimate client ever talks to the
//! prefix, every received query is spoofed by construction. The honeypot's
//! job in the paper's system is volume accounting: how many spoofed bytes
//! arrived per peering link. Following AmpPot, responses are rate-capped
//! so the honeypot never contributes meaningful attack volume.

use crate::flow::Flow;
use crate::volume::{attributed_link, with_resolved};
use serde::{Deserialize, Serialize};
use trackdown_bgp::{Catchments, Prefix};

/// Honeypot configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HoneypotConfig {
    /// The prefix the honeypot answers on (the experiment prefix).
    pub prefix: Prefix,
    /// Response amplification factor the emulated service would have
    /// (NTP monlist ≈ 556x). Only used to compute the *capped* response
    /// volume; the honeypot never actually amplifies.
    pub amplification_factor: f64,
    /// Cap on bytes/observation-window the honeypot will send back
    /// (AmpPot's rate limiting). `None` = mute honeypot (never responds).
    pub response_byte_cap: Option<u64>,
}

impl Default for HoneypotConfig {
    fn default() -> HoneypotConfig {
        HoneypotConfig {
            prefix: Prefix::new([184, 164, 224, 0], 24),
            amplification_factor: 556.9,
            response_byte_cap: Some(1 << 20),
        }
    }
}

/// What the honeypot recorded over one observation window.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HoneypotReport {
    /// Spoofed bytes received per peering link, indexed by `LinkId`.
    pub per_link_bytes: Vec<u64>,
    /// Spoofed packets received per peering link.
    pub per_link_packets: Vec<u64>,
    /// Total spoofed bytes received.
    pub total_bytes: u64,
    /// Flows not attributable to a link (source AS had no catchment,
    /// e.g. because the prefix was withdrawn from its whole region).
    pub unattributed_flows: usize,
    /// Bytes the rate-capped responder would have sent.
    pub response_bytes: u64,
}

/// The honeypot itself.
#[derive(Debug, Clone)]
pub struct Honeypot {
    cfg: HoneypotConfig,
}

impl Honeypot {
    /// Build a honeypot.
    pub fn new(cfg: HoneypotConfig) -> Honeypot {
        Honeypot { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &HoneypotConfig {
        &self.cfg
    }

    /// Observe one window of flows under the given (ground-truth,
    /// data-plane) catchments. Only flows destined to the honeypot prefix
    /// are seen; each is attributed to the ingress link of its *true*
    /// source AS — which is exactly what the origin's border routers see.
    /// Flows the window cannot pin to one of the `num_links` links (source
    /// AS unassigned or outside the catchments, link out of range) count
    /// as unattributed, by the same rule as
    /// [`ingest_stream`](crate::ingest_stream).
    pub fn observe(
        &self,
        catchments: &Catchments,
        num_links: usize,
        flows: &[Flow],
    ) -> HoneypotReport {
        let mut per_link_bytes = vec![0u64; num_links];
        let mut per_link_packets = vec![0u64; num_links];
        let mut total_bytes = 0u64;
        let mut unattributed = 0usize;
        with_resolved(catchments, flows, |links| {
            for f in flows {
                if !self.cfg.prefix.contains(f.dst_ip) {
                    continue; // not addressed to the honeypot
                }
                match attributed_link(links, num_links, f) {
                    Some(link) => {
                        per_link_bytes[link.us()] += f.bytes;
                        per_link_packets[link.us()] += f.packets;
                        total_bytes += f.bytes;
                    }
                    None => unattributed += 1,
                }
            }
        });
        let uncapped = (total_bytes as f64 * self.cfg.amplification_factor) as u64;
        let response_bytes = match self.cfg.response_byte_cap {
            Some(cap) => uncapped.min(cap),
            None => 0,
        };
        HoneypotReport {
            per_link_bytes,
            per_link_packets,
            total_bytes,
            unattributed_flows: unattributed,
            response_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trackdown_bgp::LinkId;
    use trackdown_topology::AsIndex;

    fn catchments3() -> Catchments {
        let mut c = Catchments::unassigned(4);
        c.set(AsIndex(0), Some(LinkId(0)));
        c.set(AsIndex(1), Some(LinkId(1)));
        c.set(AsIndex(2), Some(LinkId(1)));
        // AS 3 unreachable.
        c
    }

    fn flow(src: u32, bytes: u64, dst_ip: u32) -> Flow {
        Flow {
            src_as: AsIndex(src),
            claimed_ip: 0xCB00_7107,
            dst_ip,
            packets: bytes / 64,
            bytes,
            spoofed: true,
        }
    }

    #[test]
    fn volumes_attributed_to_ingress_links() {
        let hp = Honeypot::new(HoneypotConfig::default());
        let dst = hp.config().prefix.addr(1);
        let flows = vec![
            flow(0, 1_000, dst),
            flow(1, 2_000, dst),
            flow(2, 3_000, dst),
        ];
        let r = hp.observe(&catchments3(), 3, &flows);
        assert_eq!(r.per_link_bytes, vec![1_000, 5_000, 0]);
        assert_eq!(r.total_bytes, 6_000);
        assert_eq!(r.unattributed_flows, 0);
    }

    #[test]
    fn traffic_to_other_prefixes_ignored() {
        let hp = Honeypot::new(HoneypotConfig::default());
        let elsewhere = u32::from_be_bytes([8, 8, 8, 8]);
        let r = hp.observe(&catchments3(), 3, &[flow(0, 1_000, elsewhere)]);
        assert_eq!(r.total_bytes, 0);
        assert_eq!(r.per_link_bytes, vec![0, 0, 0]);
    }

    #[test]
    fn unattributed_flows_counted() {
        let hp = Honeypot::new(HoneypotConfig::default());
        let dst = hp.config().prefix.addr(1);
        let r = hp.observe(&catchments3(), 3, &[flow(3, 1_000, dst)]);
        assert_eq!(r.total_bytes, 0);
        assert_eq!(r.unattributed_flows, 1);
    }

    /// Regression: a source AS beyond the catchments used to trip the
    /// range assert inside `Catchments::get`.
    #[test]
    fn source_outside_catchments_is_unattributed() {
        let hp = Honeypot::new(HoneypotConfig::default());
        let dst = hp.config().prefix.addr(1);
        let r = hp.observe(&catchments3(), 3, &[flow(4, 1_000, dst), flow(0, 500, dst)]);
        assert_eq!(r.unattributed_flows, 1);
        assert_eq!(r.per_link_bytes, vec![500, 0, 0]);
        assert_eq!(r.total_bytes, 500);
    }

    /// Regression: a link at or beyond `num_links` used to index past the
    /// per-link vectors.
    #[test]
    fn link_beyond_num_links_is_unattributed() {
        let hp = Honeypot::new(HoneypotConfig::default());
        let dst = hp.config().prefix.addr(1);
        let flows = vec![
            flow(0, 1_000, dst),
            flow(1, 2_000, dst),
            flow(2, 4_000, dst),
        ];
        // AS 1 and AS 2 ingress on link 1, outside a one-link window.
        let r = hp.observe(&catchments3(), 1, &flows);
        assert_eq!(r.unattributed_flows, 2);
        assert_eq!(r.per_link_bytes, vec![1_000]);
        assert_eq!(r.per_link_packets, vec![1_000 / 64]);
        assert_eq!(r.total_bytes, 1_000);
    }

    /// A window with far fewer flows than ASes resolves only its flows'
    /// sources; the attribution rule is the same.
    #[test]
    fn sparse_window_attributes_by_the_same_rule() {
        let hp = Honeypot::new(HoneypotConfig::default());
        let dst = hp.config().prefix.addr(1);
        let mut c = Catchments::unassigned(1_000);
        c.set(AsIndex(10), Some(LinkId(0)));
        c.set(AsIndex(20), Some(LinkId(5)));
        let flows = vec![
            flow(10, 640, dst),
            flow(20, 640, dst),    // link 5 is outside a 3-link window
            flow(30, 640, dst),    // unassigned
            flow(5_000, 640, dst), // outside the catchments
        ];
        let r = hp.observe(&c, 3, &flows);
        assert_eq!(r.per_link_bytes, vec![640, 0, 0]);
        assert_eq!(r.unattributed_flows, 3);
    }

    #[test]
    fn response_rate_cap_applies() {
        let cfg = HoneypotConfig {
            response_byte_cap: Some(10_000),
            ..HoneypotConfig::default()
        };
        let hp = Honeypot::new(cfg);
        let dst = hp.config().prefix.addr(1);
        let r = hp.observe(&catchments3(), 3, &[flow(0, 1_000_000, dst)]);
        assert_eq!(r.response_bytes, 10_000, "cap must bind");
        let mute = Honeypot::new(HoneypotConfig {
            response_byte_cap: None,
            ..HoneypotConfig::default()
        });
        let r2 = mute.observe(&catchments3(), 3, &[flow(0, 1_000_000, dst)]);
        assert_eq!(r2.response_bytes, 0);
    }

    #[test]
    fn hottest_link_tie_breaks_to_lower_id() {
        let hp = Honeypot::new(HoneypotConfig::default());
        let dst = hp.config().prefix.addr(1);
        let flows = vec![flow(0, 500, dst), flow(1, 500, dst)];
        let r = hp.observe(&catchments3(), 3, &flows);
        assert_eq!(crate::hottest(&r.per_link_bytes), Some(LinkId(0)));
    }
}
