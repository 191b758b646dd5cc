//! Simulated traceroute campaigns (RIPE Atlas analog).
//!
//! A traceroute from a probe AS toward the experiment prefix walks the
//! data-plane forwarding chain computed by the BGP engine. Per hop we
//! inject the two error sources the paper's pipeline has to cope with
//! (§IV-b): unresponsive hops (no reply) and IP-to-AS mis-mapping.
//! Campaigns run several rounds per configuration — the paper keeps each
//! configuration active long enough "to collect at least three rounds of
//! traceroutes".

use crate::mapping::IpToAs;
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use trackdown_bgp::{ForwardingWalker, LinkId, RoutingOutcome};
use trackdown_topology::{AsIndex, Asn, Topology};

/// Traceroute fault-injection parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TracerouteConfig {
    /// Seed mixed into every per-hop roll.
    pub seed: u64,
    /// Probability a hop does not answer (per probe, round, and hop).
    pub hop_unresponsive_prob: f64,
    /// Rounds of measurement per configuration (paper: ≥ 3).
    pub rounds: usize,
    /// Probability that a hop reached across a *peering* link answers
    /// from the IXP fabric's address space instead of the AS's own — the
    /// artifact PeeringDB/traIXroute data cleans up (§IV-b). The hop then
    /// resolves to a private "IXP" ASN that repair strips.
    pub ixp_hop_prob: f64,
}

impl Default for TracerouteConfig {
    fn default() -> TracerouteConfig {
        TracerouteConfig {
            seed: 0x007e_ace0,
            hop_unresponsive_prob: 0.08,
            rounds: 3,
            ixp_hop_prob: 0.3,
        }
    }
}

/// The deterministic private ASN an IXP fabric between two ASes resolves
/// to (64512–65533, RFC 6996 private range).
pub fn ixp_fabric_asn(a: AsIndex, b: AsIndex) -> Asn {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    let h = crate::mix(((lo.0 as u64) << 32) | hi.0 as u64);
    Asn(64512 + (h % 1022) as u32)
}

/// One AS-level hop of a traceroute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// Ground-truth AS of the hop (never exposed to inference code; kept
    /// for evaluation).
    pub true_as: AsIndex,
    /// ASN the hop resolved to, or `None` when unresponsive/unmapped.
    pub observed: Option<Asn>,
}

/// One traceroute measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Traceroute {
    /// The probe's AS.
    pub probe: AsIndex,
    /// Measurement round within the configuration.
    pub round: usize,
    /// The origin-side observation: which peering link the packets arrived
    /// through, or `None` if the prefix was unreachable from the probe.
    pub reached: Option<LinkId>,
    /// AS-level hops, probe first, PoP provider last.
    pub hops: Vec<Hop>,
}

impl Traceroute {
    /// The observed AS sequence with consecutive duplicates collapsed
    /// (router-level hops inside one AS appear as a single AS hop).
    pub fn observed_sequence(&self) -> Vec<Option<Asn>> {
        let mut out: Vec<Option<Asn>> = Vec::with_capacity(self.hops.len());
        for h in &self.hops {
            if out.last() != Some(&h.observed) || h.observed.is_none() {
                out.push(h.observed);
            }
        }
        out
    }

    /// Fraction of hops that produced an observation.
    pub fn responsiveness(&self) -> f64 {
        if self.hops.is_empty() {
            return 0.0;
        }
        self.hops.iter().filter(|h| h.observed.is_some()).count() as f64 / self.hops.len() as f64
    }
}

/// Run one traceroute. `config_salt` distinguishes announcement
/// configurations so fault patterns differ between configurations but stay
/// reproducible within one.
pub fn run_traceroute(
    topo: &Topology,
    db: &IpToAs,
    outcome: &RoutingOutcome,
    probe: AsIndex,
    round: usize,
    cfg: &TracerouteConfig,
    config_salt: u64,
) -> Traceroute {
    HopFaults::new(topo, db, cfg, config_salt).trace(
        &mut ForwardingWalker::new(),
        outcome,
        probe,
        round,
    )
}

/// The fault model of one configuration's traceroutes: every roll's
/// probability is turned into an integer threshold once, so each hop
/// pays integer compares instead of float divisions.
pub(crate) struct HopFaults<'a> {
    topo: &'a Topology,
    db: &'a IpToAs,
    seed: u64,
    config_salt: u64,
    /// A hop is unresponsive when its roll is below this.
    unresponsive_below: u64,
    /// A hop entered over a peering link answers from the IXP fabric when
    /// its roll is below this.
    ixp_below: u64,
}

impl<'a> HopFaults<'a> {
    pub(crate) fn new(
        topo: &'a Topology,
        db: &'a IpToAs,
        cfg: &TracerouteConfig,
        config_salt: u64,
    ) -> HopFaults<'a> {
        HopFaults {
            topo,
            db,
            seed: cfg.seed,
            config_salt,
            unresponsive_below: crate::roll_threshold(cfg.hop_unresponsive_prob, ROLL_SCALE),
            ixp_below: crate::roll_threshold(cfg.ixp_hop_prob, ROLL_SCALE),
        }
    }

    /// One traceroute with its hop vector.
    fn trace(
        &self,
        walker: &mut ForwardingWalker,
        outcome: &RoutingOutcome,
        probe: AsIndex,
        round: usize,
    ) -> Traceroute {
        let (mut true_hops, mut peering) = (Vec::new(), Vec::new());
        let reached = walk_probe(walker, outcome, probe, &mut true_hops);
        self.peering_hops(&true_hops, &mut peering);
        let hops = true_hops
            .iter()
            .zip(self.observe(probe, round, &true_hops, &peering))
            .map(|(&true_as, observed)| Hop {
                true_as,
                observed: observed.map(|(asn, _)| asn),
            })
            .collect();
        Traceroute {
            probe,
            round,
            reached,
            hops,
        }
    }

    /// Which hops of a walk were entered over a peering link, into
    /// `peering` (one flag per hop). A walk's hops are the same in every
    /// round, so callers compute this once per probe.
    pub(crate) fn peering_hops(&self, true_hops: &[AsIndex], peering: &mut Vec<bool>) {
        peering.clear();
        peering.extend((0..true_hops.len()).map(|pos| {
            pos > 0
                && self.topo.relationship(true_hops[pos - 1], true_hops[pos])
                    == Some(trackdown_topology::NeighborKind::Peer)
        }));
    }

    /// What each hop of one traceroute resolves to, in hop order: `None`
    /// for an unresponsive hop, an IXP-fabric ASN for some hops entered
    /// over a peering link (`peering`, from
    /// [`HopFaults::peering_hops`]), otherwise the IP-to-AS database's
    /// answer. Each answer comes with its dense id: the AS index, or
    /// [`FABRIC_ID`] for a fabric ASN (which repair strips).
    pub(crate) fn observe<'h>(
        &'h self,
        probe: AsIndex,
        round: usize,
        true_hops: &'h [AsIndex],
        peering: &'h [bool],
    ) -> impl Iterator<Item = Option<(Asn, u32)>> + 'h {
        true_hops.iter().enumerate().map(move |(pos, &h)| {
            let salt = crate::mix(
                self.seed
                    ^ self.config_salt.rotate_left(17)
                    ^ ((probe.0 as u64) << 40)
                    ^ ((round as u64) << 28)
                    ^ ((pos as u64) << 20)
                    ^ h.0 as u64,
            );
            if salt % ROLL_SCALE < self.unresponsive_below {
                return None;
            }
            // Hops entered over a peering link may answer from the IXP
            // fabric's address space.
            if peering[pos] && crate::mix(salt ^ 0x1c9) % ROLL_SCALE < self.ixp_below {
                Some((ixp_fabric_asn(true_hops[pos - 1], h), FABRIC_ID))
            } else {
                let at = self.db.resolve_index(h, salt ^ 0xFACE)?;
                Some((self.topo.asn_of(at), at.0))
            }
        })
    }
}

/// Resolution of the traceroute fault rolls.
const ROLL_SCALE: u64 = 100_000;

/// The id [`HopFaults::observe`] gives IXP-fabric hops: they resolve to
/// private ASNs outside the topology and are stripped before repair.
pub(crate) const FABRIC_ID: u32 = u32::MAX;

/// Walk the data plane from `probe` into `hops`, returning the ingress
/// link. An unreachable probe (or a forwarding loop) leaves the probe's
/// own AS as the only hop.
pub(crate) fn walk_probe(
    walker: &mut ForwardingWalker,
    outcome: &RoutingOutcome,
    probe: AsIndex,
    hops: &mut Vec<AsIndex>,
) -> Option<LinkId> {
    let reached = walker.walk_into(outcome, probe, hops);
    if reached.is_none() {
        hops.clear();
        hops.push(probe);
    }
    reached
}

/// Run a full campaign: every probe, every round, one configuration.
pub fn run_campaign(
    topo: &Topology,
    db: &IpToAs,
    outcome: &RoutingOutcome,
    probes: &[AsIndex],
    cfg: &TracerouteConfig,
    config_salt: u64,
) -> Vec<Traceroute> {
    let faults = HopFaults::new(topo, db, cfg, config_salt);
    let mut walker = ForwardingWalker::new();
    probes
        .iter()
        .flat_map(|&p| (0..cfg.rounds).map(move |round| (p, round)))
        .map(|(p, round)| faults.trace(&mut walker, outcome, p, round))
        .collect()
}

/// Probe subsampling: the paper could only probe from 1 600 Atlas probes
/// every 20 minutes; this helper deterministically samples a probe subset
/// per configuration when a budget is set.
pub fn sample_probes(probes: &[AsIndex], budget: usize, salt: u64) -> Vec<AsIndex> {
    let mut out = Vec::new();
    sample_probes_into(probes, budget, salt, &mut out);
    out
}

/// [`sample_probes`] into a caller-owned buffer.
pub(crate) fn sample_probes_into(
    probes: &[AsIndex],
    budget: usize,
    salt: u64,
    pool: &mut Vec<AsIndex>,
) {
    pool.clear();
    pool.extend_from_slice(probes);
    if probes.len() <= budget {
        return;
    }
    let mut rng = ChaCha8Rng::seed_from_u64(salt);
    // Partial Fisher-Yates: draw `budget` distinct probes.
    for k in 0..budget {
        let j = k + rng.random_range(0..pool.len() - k);
        pool.swap(k, j);
    }
    pool.truncate(budget);
    pool.sort_unstable();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::IpToAsConfig;
    use trackdown_bgp::{BgpEngine, EngineConfig, LinkAnnouncement, OriginAs, PolicyConfig};
    use trackdown_topology::gen::{generate, TopologyConfig};

    fn setup() -> (
        trackdown_topology::gen::GeneratedTopology,
        OriginAs,
        RoutingOutcome,
    ) {
        let g = generate(&TopologyConfig::small(9));
        let origin = OriginAs::peering_style(&g, 3);
        let cfg = EngineConfig {
            policy: PolicyConfig {
                seed: 2,
                violator_fraction: 0.0,
                no_loop_prevention_fraction: 0.0,
                tier1_poison_filtering: false,
                extensions: Default::default(),
            },
            ..EngineConfig::default()
        };
        let engine = BgpEngine::new(&g.topology, &cfg);
        let anns: Vec<_> = origin.link_ids().map(LinkAnnouncement::plain).collect();
        let out = engine.propagate_config(&origin, &anns, 200).unwrap();
        (g, origin, out)
    }

    fn clean_db(topo: &Topology) -> IpToAs {
        IpToAs::build(
            topo,
            &IpToAsConfig {
                seed: 0,
                dirty_as_fraction: 0.0,
                mismap_prob: 0.0,
                unmapped_prob: 0.0,
            },
        )
    }

    #[test]
    fn perfect_traceroute_matches_walk() {
        let (g, _o, out) = setup();
        let db = clean_db(&g.topology);
        let cfg = TracerouteConfig {
            seed: 1,
            hop_unresponsive_prob: 0.0,
            rounds: 1,
            ixp_hop_prob: 0.0,
        };
        let probe = AsIndex(50);
        let tr = run_traceroute(&g.topology, &db, &out, probe, 0, &cfg, 0);
        let walk = out.forwarding_walk(probe).unwrap();
        assert_eq!(tr.reached, Some(walk.link));
        assert_eq!(tr.hops.len(), walk.hops.len());
        for (h, w) in tr.hops.iter().zip(&walk.hops) {
            assert_eq!(h.observed, Some(g.topology.asn_of(*w)));
        }
        assert!((tr.responsiveness() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unresponsive_hops_appear_at_configured_rate() {
        let (g, _o, out) = setup();
        let db = clean_db(&g.topology);
        let cfg = TracerouteConfig {
            seed: 5,
            hop_unresponsive_prob: 0.25,
            rounds: 3,
            ixp_hop_prob: 0.0,
        };
        let probes: Vec<AsIndex> = g.topology.indices().collect();
        let campaign = run_campaign(&g.topology, &db, &out, &probes, &cfg, 7);
        let total: usize = campaign.iter().map(|t| t.hops.len()).sum();
        let missing: usize = campaign
            .iter()
            .flat_map(|t| &t.hops)
            .filter(|h| h.observed.is_none())
            .count();
        let rate = missing as f64 / total as f64;
        assert!((0.2..0.3).contains(&rate), "rate={rate}");
    }

    #[test]
    fn traceroutes_are_deterministic() {
        let (g, _o, out) = setup();
        let db = clean_db(&g.topology);
        let cfg = TracerouteConfig::default();
        let a = run_traceroute(&g.topology, &db, &out, AsIndex(10), 1, &cfg, 3);
        let b = run_traceroute(&g.topology, &db, &out, AsIndex(10), 1, &cfg, 3);
        assert_eq!(a, b);
        // Different rounds see different fault patterns (almost surely
        // for some probe when unresponsiveness is high).
        let cfg_noisy = TracerouteConfig {
            seed: 5,
            hop_unresponsive_prob: 0.5,
            rounds: 1,
            ixp_hop_prob: 0.0,
        };
        let differs = g.topology.indices().any(|p| {
            let x = run_traceroute(&g.topology, &db, &out, p, 0, &cfg_noisy, 3);
            let y = run_traceroute(&g.topology, &db, &out, p, 1, &cfg_noisy, 3);
            x.hops != y.hops
        });
        assert!(differs);
    }

    #[test]
    fn unreachable_probe_reports_no_link() {
        let (g, origin, _out) = setup();
        let db = clean_db(&g.topology);
        // Propagate with zero announcements: nothing reachable.
        let engine = BgpEngine::new(&g.topology, &EngineConfig::default());
        let empty = engine.propagate_config(&origin, &[], 200).unwrap();
        let tr = run_traceroute(
            &g.topology,
            &db,
            &empty,
            AsIndex(3),
            0,
            &TracerouteConfig::default(),
            0,
        );
        assert_eq!(tr.reached, None);
        assert_eq!(tr.hops.len(), 1);
    }

    #[test]
    fn observed_sequence_collapses_duplicates() {
        let tr = Traceroute {
            probe: AsIndex(0),
            round: 0,
            reached: None,
            hops: vec![
                Hop {
                    true_as: AsIndex(0),
                    observed: Some(Asn(1)),
                },
                Hop {
                    true_as: AsIndex(0),
                    observed: Some(Asn(1)),
                },
                Hop {
                    true_as: AsIndex(1),
                    observed: None,
                },
                Hop {
                    true_as: AsIndex(2),
                    observed: None,
                },
                Hop {
                    true_as: AsIndex(3),
                    observed: Some(Asn(4)),
                },
            ],
        };
        assert_eq!(
            tr.observed_sequence(),
            vec![Some(Asn(1)), None, None, Some(Asn(4))]
        );
    }

    #[test]
    fn ixp_hops_appear_on_peering_crossings() {
        use trackdown_topology::NeighborKind;
        let (g, _o, out) = setup();
        let db = clean_db(&g.topology);
        let cfg = TracerouteConfig {
            seed: 2,
            hop_unresponsive_prob: 0.0,
            rounds: 1,
            ixp_hop_prob: 1.0,
        };
        let mut ixp_seen = 0usize;
        let mut peer_crossings = 0usize;
        for p in g.topology.indices() {
            let tr = run_traceroute(&g.topology, &db, &out, p, 0, &cfg, 0);
            let Some(walk) = out.forwarding_walk(p) else {
                continue;
            };
            for (pos, h) in tr.hops.iter().enumerate() {
                let crossed_peer = pos > 0
                    && g.topology.relationship(walk.hops[pos - 1], walk.hops[pos])
                        == Some(NeighborKind::Peer);
                if crossed_peer {
                    peer_crossings += 1;
                    let a = h.observed.expect("responsive");
                    assert!(a.is_private(), "peer crossing must yield IXP ASN");
                    assert_eq!(a, ixp_fabric_asn(walk.hops[pos - 1], walk.hops[pos]));
                    ixp_seen += 1;
                } else if let Some(a) = h.observed {
                    assert!(!a.is_private(), "non-peering hop resolved to IXP");
                }
            }
        }
        assert!(
            ixp_seen > 0,
            "no peering crossings exercised ({peer_crossings})"
        );
    }

    #[test]
    fn ixp_fabric_asn_is_symmetric_and_private() {
        let a = ixp_fabric_asn(AsIndex(3), AsIndex(9));
        let b = ixp_fabric_asn(AsIndex(9), AsIndex(3));
        assert_eq!(a, b);
        assert!(a.is_private());
    }

    #[test]
    fn probe_sampling_respects_budget() {
        let probes: Vec<AsIndex> = (0..100).map(AsIndex).collect();
        let s = sample_probes(&probes, 10, 42);
        assert_eq!(s.len(), 10);
        let s2 = sample_probes(&probes, 10, 42);
        assert_eq!(s, s2);
        let all = sample_probes(&probes, 1000, 42);
        assert_eq!(all.len(), 100);
        // Distinct members.
        let mut d = s.clone();
        d.dedup();
        assert_eq!(d.len(), s.len());
    }
}
