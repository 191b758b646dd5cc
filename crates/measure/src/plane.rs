//! The measurement plane: one object bundling vantage points, the IP-to-AS
//! database, and traceroute fault parameters, turning a routing outcome
//! into *measured* catchments the way the paper's pipeline does.

use crate::mapping::{IpToAs, IpToAsConfig};
use crate::observe::{feed_path, tally_width, MeasuredCatchments, VoteTally};
use crate::repair::{push_sequence, repair_into, AsnIds, FlatSeqs, InteriorIndex};
use crate::traceroute::{sample_probes_into, walk_probe, HopFaults, TracerouteConfig};
use crate::vantage::{VantageConfig, VantagePoints};
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use trackdown_bgp::{ForwardingWalker, LinkId, RoutingOutcome};
use trackdown_topology::{cone::ConeInfo, AsIndex, Asn, Topology};

/// Full measurement-plane configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct MeasurementConfig {
    /// Vantage-point sampling.
    pub vantage: VantageConfig,
    /// IP-to-AS database simulation.
    pub ip_to_as: IpToAsConfig,
    /// Traceroute fault injection.
    pub traceroute: TracerouteConfig,
    /// Optional cap on probes used per configuration (the paper was
    /// limited to 1 600 RIPE Atlas probes). `None` = all probe ASes.
    pub probe_budget: Option<usize>,
}

impl MeasurementConfig {
    /// A perfect observation plane: every AS feeds a collector, no faults.
    /// Useful to isolate algorithmic behaviour from measurement noise.
    pub fn perfect() -> MeasurementConfig {
        MeasurementConfig {
            vantage: VantageConfig {
                seed: 0,
                bgp_feed_fraction: 1.0,
                probe_fraction: 0.0,
            },
            ip_to_as: IpToAsConfig {
                seed: 0,
                dirty_as_fraction: 0.0,
                mismap_prob: 0.0,
                unmapped_prob: 0.0,
            },
            traceroute: TracerouteConfig {
                seed: 0,
                hop_unresponsive_prob: 0.0,
                rounds: 1,
                ixp_hop_prob: 0.0,
            },
            probe_budget: None,
        }
    }
}

/// A measurement plane bound to one topology.
#[derive(Debug, Clone)]
pub struct MeasurementPlane {
    /// The selected vantage points.
    pub vantage: VantagePoints,
    db: IpToAs,
    cfg: MeasurementConfig,
}

impl MeasurementPlane {
    /// Build the plane (selects vantage points, materializes the IP-to-AS
    /// model). Deterministic per configuration.
    pub fn new(topo: &Topology, cones: &ConeInfo, cfg: &MeasurementConfig) -> MeasurementPlane {
        MeasurementPlane {
            vantage: VantagePoints::select(topo, cones, &cfg.vantage),
            db: IpToAs::build(topo, &cfg.ip_to_as),
            cfg: cfg.clone(),
        }
    }

    /// The measurement configuration in use.
    pub fn config(&self) -> &MeasurementConfig {
        &self.cfg
    }

    /// Measure catchments for one routing outcome. `config_salt` must be
    /// unique per announcement configuration so fault patterns vary across
    /// configurations but stay reproducible.
    ///
    /// The outcome must carry its path store ([`SnapshotDetail::Paths`]
    /// or [`SnapshotDetail::Full`]): BGP feeds read the feeders' AS-paths
    /// from it in place. Every intermediate (feed paths, traceroute
    /// sequences, the repair index, vote counters) lives in per-thread
    /// scratch reused across calls, so once the scratch has grown the
    /// returned [`MeasuredCatchments`] is the only thing a call allocates.
    ///
    /// [`SnapshotDetail::Paths`]: trackdown_bgp::SnapshotDetail::Paths
    /// [`SnapshotDetail::Full`]: trackdown_bgp::SnapshotDetail::Full
    pub fn measure(
        &self,
        topo: &Topology,
        outcome: &RoutingOutcome,
        origin_asn: Asn,
        config_salt: u64,
    ) -> MeasuredCatchments {
        let _span = trackdown_obs::span("measure.measure");
        // Taken out for the call, so a nested measurement gets fresh
        // scratch instead of aliasing this one.
        let mut scratch = SCRATCH.take();
        let measured = self.measure_in(&mut scratch, topo, outcome, origin_asn, config_salt);
        let feeds = scratch.corpus.len();
        SCRATCH.set(scratch);
        trackdown_obs::counter!("measure.measurements").inc();
        trackdown_obs::counter!("measure.bgp_observations").add(feeds as u64);
        trackdown_obs::counter!("measure.observed_sources").add(measured.observed_count() as u64);
        measured
    }

    /// The pipeline of [`MeasurementPlane::measure`] over one thread's
    /// scratch: BGP feeds, traceroutes, gap repair, then the vote tally.
    fn measure_in(
        &self,
        scratch: &mut EpochScratch,
        topo: &Topology,
        outcome: &RoutingOutcome,
        origin_asn: Asn,
        config_salt: u64,
    ) -> MeasuredCatchments {
        let EpochScratch {
            walker,
            hops,
            peering,
            raw_path,
            probes,
            other_ids,
            corpus,
            ingress,
            sequences,
            traces,
            index,
            repaired,
            hop_counts,
            tally,
            dense,
        } = scratch;

        // Hops are numbered by AS index; feed-path ASNs outside the
        // topology (none arise from the engine, but repair must still tell
        // them apart) are numbered after the last index.
        let n = topo.num_ases();
        other_ids.reset(n as u32);
        corpus.clear();
        ingress.clear();
        for &f in &self.vantage.bgp_feeders {
            if let Some(r) = outcome.best[f.us()].as_ref() {
                feed_path(topo, outcome, f, r, origin_asn, raw_path, |a| {
                    corpus.push(topo.index_of(a).map_or_else(|| other_ids.id(a), |i| i.0));
                });
                corpus.close();
                ingress.push(r.ingress);
            }
        }

        let probes: &[AsIndex] = match self.cfg.probe_budget {
            Some(budget) => {
                sample_probes_into(&self.vantage.probe_ases, budget, config_salt ^ 0xB0, probes);
                probes
            }
            None => &self.vantage.probe_ases,
        };
        let faults = HopFaults::new(topo, &self.db, &self.cfg.traceroute, config_salt);
        sequences.clear();
        traces.clear();
        for &p in probes {
            // Every round walks the same forwarding path; only the fault
            // rolls differ.
            let reached = walk_probe(walker, outcome, p, hops);
            faults.peering_hops(hops, peering);
            for round in 0..self.cfg.traceroute.rounds {
                push_sequence(sequences, faults.observe(p, round, hops, peering));
                traces.push((p, reached));
            }
        }

        repair_into(
            sequences,
            corpus,
            other_ids.bound(),
            index,
            repaired,
            hop_counts,
        );

        let reached = traces.iter().filter_map(|&(_, link)| link);
        tally.reset(n, tally_width(ingress.iter().copied().chain(reached)));
        for (k, &link) in ingress.iter().enumerate() {
            tally.vote_bgp(topology_ases(corpus.get(k), n), link);
        }
        for (k, &(probe, reached)) in traces.iter().enumerate() {
            if let Some(link) = reached {
                tally.vote_traceroute(probe, topology_ases(repaired.get(k), n), link);
            }
        }
        tally.resolve(dense)
    }
}

/// The AS indices among repair ids: ids from `n` up number ASNs outside
/// the topology, which cast no vote.
fn topology_ases(path: &[u32], n: usize) -> impl Iterator<Item = AsIndex> + '_ {
    path.iter()
        .filter(move |&&id| (id as usize) < n)
        .map(|&id| AsIndex(id))
}

/// One thread's measurement scratch, reused across epochs: after the
/// first few measurements every buffer has its high-water capacity.
#[derive(Debug, Default)]
struct EpochScratch {
    walker: ForwardingWalker,
    /// True hops of the current probe's walk, and which of them were
    /// entered over a peering link.
    hops: Vec<AsIndex>,
    peering: Vec<bool>,
    /// AS-path of the current BGP feeder, read from the path store.
    raw_path: Vec<Asn>,
    /// This epoch's probes when a probe budget samples them.
    probes: Vec<AsIndex>,
    /// Ids of feed-path ASNs outside the topology.
    other_ids: AsnIds,
    /// BGP feed paths (the repair corpus, as AS ids) and each one's
    /// ingress link.
    corpus: FlatSeqs<u32>,
    ingress: Vec<LinkId>,
    /// Observed, IXP-stripped traceroute sequences, and each one's probe
    /// and origin-side observation.
    sequences: FlatSeqs<Option<u32>>,
    traces: Vec<(AsIndex, Option<LinkId>)>,
    index: InteriorIndex,
    /// Repaired paths (one per sequence) and their gap-hop counts.
    repaired: FlatSeqs<u32>,
    hop_counts: Vec<(usize, usize)>,
    tally: VoteTally,
    dense: Vec<Option<LinkId>>,
}

thread_local! {
    static SCRATCH: Cell<EpochScratch> = Cell::new(EpochScratch::default());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::{collect_bgp_feeds, BgpObservation};
    use crate::traceroute::{run_campaign, sample_probes};
    use trackdown_bgp::{
        BgpEngine, Catchments, EngineConfig, LinkAnnouncement, OriginAs, PolicyConfig,
        SnapshotDetail,
    };
    use trackdown_topology::gen::{generate, TopologyConfig};

    /// The pre-scratch pipeline through owned vectors: feed paths
    /// materialized as `AsPath`s, one `Traceroute` per probe and round,
    /// then the reference repair and the reference vote tables.
    fn measure_reference(
        plane: &MeasurementPlane,
        topo: &Topology,
        outcome: &RoutingOutcome,
        origin_asn: Asn,
        salt: u64,
    ) -> (Vec<BgpObservation>, MeasuredCatchments) {
        let bgp: Vec<BgpObservation> = plane
            .vantage
            .bgp_feeders
            .iter()
            .filter_map(|&f| {
                outcome.best[f.us()].as_ref().map(|r| {
                    let as_path = outcome.path_of(r);
                    let poisons = as_path.poisons_of(origin_asn);
                    let mut path = vec![topo.asn_of(f)];
                    for a in as_path.distinct() {
                        if a != origin_asn && !poisons.contains(&a) {
                            path.push(a);
                        }
                    }
                    BgpObservation {
                        feeder: f,
                        path,
                        ingress: r.ingress,
                    }
                })
            })
            .collect();
        let probes = match plane.cfg.probe_budget {
            Some(budget) => sample_probes(&plane.vantage.probe_ases, budget, salt ^ 0xB0),
            None => plane.vantage.probe_ases.clone(),
        };
        let tr = &plane.cfg.traceroute;
        let campaign = run_campaign(topo, &plane.db, outcome, &probes, tr, salt);
        let corpus: Vec<Vec<Asn>> = bgp.iter().map(|o| o.path.clone()).collect();
        let repaired = crate::repair::reference::repair_campaign(&campaign, &corpus);
        let measured = crate::observe::reference::combine_observations(topo, &bgp, &repaired);
        (bgp, measured)
    }

    #[test]
    fn scratch_pipeline_matches_reference_pipeline() {
        // The default policy has violators and ASes without loop
        // prevention; poisoned and prepended announcements put origin
        // sandwiches and repeats on the feed paths; a dirty IP-to-AS
        // database and a probe budget exercise mismaps and sampling.
        let g = generate(&TopologyConfig::medium(17));
        let cones = ConeInfo::compute(&g.topology);
        let origin = OriginAs::peering_style(&g, 5);
        let engine = BgpEngine::new(&g.topology, &EngineConfig::default());
        let links: Vec<_> = origin.link_ids().collect();
        let target = g.tier1s[0];
        let configs: Vec<Vec<LinkAnnouncement>> = vec![
            links.iter().map(|&l| LinkAnnouncement::plain(l)).collect(),
            links
                .iter()
                .map(|&l| LinkAnnouncement::poisoned(l, vec![target]))
                .collect(),
            links[1..]
                .iter()
                .map(|&l| LinkAnnouncement::prepended(l))
                .chain([LinkAnnouncement::plain(links[0])])
                .collect(),
        ];
        let noisy = MeasurementConfig {
            ip_to_as: IpToAsConfig {
                dirty_as_fraction: 0.3,
                ..IpToAsConfig::default()
            },
            traceroute: TracerouteConfig {
                hop_unresponsive_prob: 0.3,
                ..TracerouteConfig::default()
            },
            probe_budget: Some(60),
            ..MeasurementConfig::default()
        };
        let mut compared = 0;
        for mcfg in [MeasurementConfig::default(), noisy] {
            let plane = MeasurementPlane::new(&g.topology, &cones, &mcfg);
            for (k, anns) in configs.iter().enumerate() {
                let out = engine
                    .propagate_config_detailed(&origin, anns, 200, SnapshotDetail::Paths)
                    .unwrap();
                for salt in [k as u64, 100 + k as u64] {
                    let (bgp, want) =
                        measure_reference(&plane, &g.topology, &out, origin.asn, salt);
                    let feeds = collect_bgp_feeds(
                        &g.topology,
                        &out,
                        &plane.vantage.bgp_feeders,
                        origin.asn,
                    );
                    assert_eq!(feeds, bgp, "feed paths, config {k}");
                    let got = plane.measure(&g.topology, &out, origin.asn, salt);
                    assert_eq!(got, want, "config {k} salt {salt}");
                    assert_eq!(got.catchments.dense(), want.catchments.dense());
                    compared += 1;
                }
            }
        }
        assert_eq!(compared, 12);
    }

    #[test]
    fn paths_and_full_snapshots_measure_the_same() {
        let g = generate(&TopologyConfig::small(13));
        let cones = ConeInfo::compute(&g.topology);
        let origin = OriginAs::peering_style(&g, 3);
        let engine = BgpEngine::new(&g.topology, &EngineConfig::default());
        let anns: Vec<_> = origin.link_ids().map(LinkAnnouncement::plain).collect();
        let plane = MeasurementPlane::new(&g.topology, &cones, &MeasurementConfig::default());
        let measure = |detail| {
            let out = engine
                .propagate_config_detailed(&origin, &anns, 200, detail)
                .unwrap();
            plane.measure(&g.topology, &out, origin.asn, 9)
        };
        assert_eq!(
            measure(SnapshotDetail::Paths),
            measure(SnapshotDetail::Full)
        );
    }

    fn clean_engine_cfg() -> EngineConfig {
        EngineConfig {
            policy: PolicyConfig {
                seed: 2,
                violator_fraction: 0.0,
                no_loop_prevention_fraction: 0.0,
                tier1_poison_filtering: false,
                extensions: Default::default(),
            },
            ..EngineConfig::default()
        }
    }

    #[test]
    fn perfect_plane_reproduces_true_catchments() {
        let g = generate(&TopologyConfig::small(13));
        let cones = ConeInfo::compute(&g.topology);
        let origin = OriginAs::peering_style(&g, 3);
        let engine = BgpEngine::new(&g.topology, &clean_engine_cfg());
        let anns: Vec<_> = origin.link_ids().map(LinkAnnouncement::plain).collect();
        let out = engine
            .propagate_config_detailed(&origin, &anns, 200, SnapshotDetail::Full)
            .unwrap();
        let plane = MeasurementPlane::new(&g.topology, &cones, &MeasurementConfig::perfect());
        let m = plane.measure(&g.topology, &out, origin.asn, 0);
        let truth = Catchments::from_control_plane(&out);
        assert_eq!(m.observed_count(), g.topology.num_ases());
        assert_eq!(m.multi_catchment_rate(), 0.0);
        for i in g.topology.indices() {
            assert_eq!(m.catchments.get(i), truth.get(i), "AS index {i:?}");
        }
    }

    #[test]
    fn noisy_plane_still_mostly_correct() {
        let g = generate(&TopologyConfig::medium(13));
        let cones = ConeInfo::compute(&g.topology);
        let origin = OriginAs::peering_style(&g, 4);
        let engine = BgpEngine::new(&g.topology, &clean_engine_cfg());
        let anns: Vec<_> = origin.link_ids().map(LinkAnnouncement::plain).collect();
        let out = engine
            .propagate_config_detailed(&origin, &anns, 200, SnapshotDetail::Full)
            .unwrap();
        // Crank up the IP-to-AS dirtiness so the multi-catchment effect is
        // reliably visible at this small scale (default rates can
        // legitimately produce zero conflicts on short paths).
        let mcfg = MeasurementConfig {
            ip_to_as: IpToAsConfig {
                dirty_as_fraction: 0.2,
                ..IpToAsConfig::default()
            },
            ..MeasurementConfig::default()
        };
        let plane = MeasurementPlane::new(&g.topology, &cones, &mcfg);
        let m = plane.measure(&g.topology, &out, origin.asn, 1);
        let truth = Catchments::from_control_plane(&out);
        let mut observed = 0usize;
        let mut correct = 0usize;
        for i in g.topology.indices() {
            if let Some(link) = m.catchments.get(i) {
                observed += 1;
                if truth.get(i) == Some(link) {
                    correct += 1;
                }
            }
        }
        // Coverage is partial, like the paper's 1 885-AS dataset versus
        // the whole Internet; what matters is that observed sources are
        // assigned accurately.
        assert!(observed > g.topology.num_ases() / 4, "observed={observed}");
        let accuracy = correct as f64 / observed as f64;
        assert!(accuracy > 0.9, "accuracy={accuracy}");
        // Noise produces at least some multi-catchment sources, like the
        // paper's 2.28 %.
        assert!(m.multi_catchment_rate() > 0.0);
        assert!(m.multi_catchment_rate() < 0.2);
    }

    #[test]
    fn measurement_is_deterministic_per_salt() {
        let g = generate(&TopologyConfig::small(14));
        let cones = ConeInfo::compute(&g.topology);
        let origin = OriginAs::peering_style(&g, 3);
        let engine = BgpEngine::new(&g.topology, &clean_engine_cfg());
        let anns: Vec<_> = origin.link_ids().map(LinkAnnouncement::plain).collect();
        let out = engine
            .propagate_config_detailed(&origin, &anns, 200, SnapshotDetail::Full)
            .unwrap();
        let plane = MeasurementPlane::new(&g.topology, &cones, &MeasurementConfig::default());
        let a = plane.measure(&g.topology, &out, origin.asn, 5);
        let b = plane.measure(&g.topology, &out, origin.asn, 5);
        assert_eq!(a, b);
        // Different salts change the raw fault pattern (repair and voting
        // may still converge to the same catchments, which is the point of
        // the pipeline — so compare the raw campaigns, not the result).
        let probes = &plane.vantage.probe_ases;
        let db = IpToAs::build(&g.topology, &plane.cfg.ip_to_as);
        let c5 = run_campaign(&g.topology, &db, &out, probes, &plane.cfg.traceroute, 5);
        let c6 = run_campaign(&g.topology, &db, &out, probes, &plane.cfg.traceroute, 6);
        assert_ne!(c5, c6, "different salts should alter fault patterns");
    }

    #[test]
    fn probe_budget_limits_campaign() {
        let g = generate(&TopologyConfig::small(15));
        let cones = ConeInfo::compute(&g.topology);
        let origin = OriginAs::peering_style(&g, 3);
        let engine = BgpEngine::new(&g.topology, &clean_engine_cfg());
        let anns: Vec<_> = origin.link_ids().map(LinkAnnouncement::plain).collect();
        let out = engine
            .propagate_config_detailed(&origin, &anns, 200, SnapshotDetail::Full)
            .unwrap();
        let mut cfg = MeasurementConfig {
            vantage: VantageConfig {
                seed: 2,
                bgp_feed_fraction: 0.0,
                probe_fraction: 1.0,
            },
            ..MeasurementConfig::default()
        };
        cfg.probe_budget = Some(5);
        // Tier-1s still feed collectors; rely on traceroutes otherwise.
        let plane = MeasurementPlane::new(&g.topology, &cones, &cfg);
        let m = plane.measure(&g.topology, &out, origin.asn, 3);
        // Coverage should be far from complete with just 5 probes (the
        // tier-1 feeders cover the core, not every stub).
        assert!(m.observed_count() < g.topology.num_ases());
    }
}
