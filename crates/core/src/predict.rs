//! Catchment prediction (§V-C and future-work item (ii)).
//!
//! Measuring catchments takes tens of minutes per configuration (BGP
//! convergence plus traceroute rounds). If catchments can be *predicted*
//! from a routing-policy model, the origin can pre-rank configurations and
//! deploy only the most informative ones. Figure 9 shows most ASes follow
//! the Gao-Rexford model, so a clean-policy simulation is a natural
//! predictor; this module implements it and scores its accuracy.

use crate::config::AnnouncementConfig;
use serde::{Deserialize, Serialize};
use trackdown_bgp::{BgpEngine, Catchments, EngineConfig, OriginAs, PolicyConfig};
use trackdown_topology::{AsIndex, Topology};

/// Accuracy of a prediction against observed catchments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PredictionReport {
    /// Sources where both prediction and observation assign a link.
    pub evaluated: usize,
    /// Sources where the predicted link matches the observed one.
    pub correct: usize,
    /// Sources observed but not predicted (or vice versa).
    pub coverage_gaps: usize,
}

impl PredictionReport {
    /// Fraction of evaluated sources predicted correctly.
    pub fn accuracy(&self) -> f64 {
        if self.evaluated == 0 {
            1.0
        } else {
            self.correct as f64 / self.evaluated as f64
        }
    }
}

/// A catchment predictor: a clean Gao-Rexford model of the topology
/// (no violators, loop prevention everywhere, no tier-1 filtering) —
/// everything an outside observer could assume without measurements.
pub struct CatchmentPredictor<'t> {
    engine: BgpEngine<'t>,
}

impl<'t> CatchmentPredictor<'t> {
    /// Build the predictor over a topology.
    pub fn new(topo: &'t Topology) -> CatchmentPredictor<'t> {
        let cfg = EngineConfig {
            policy: PolicyConfig {
                seed: 0,
                violator_fraction: 0.0,
                no_loop_prevention_fraction: 0.0,
                tier1_poison_filtering: false,
                extensions: Default::default(),
            },
            ..EngineConfig::default()
        };
        CatchmentPredictor {
            engine: BgpEngine::new(topo, &cfg),
        }
    }

    /// Predict the catchments of one configuration.
    pub fn predict(&self, origin: &OriginAs, config: &AnnouncementConfig) -> Catchments {
        let outcome = self
            .engine
            .propagate_config(origin, &config.to_link_announcements())
            .expect("valid configuration");
        Catchments::from_control_plane(&outcome)
    }

    /// Score a prediction against observed catchments over a tracked set.
    pub fn score(
        predicted: &Catchments,
        observed: &Catchments,
        tracked: &[AsIndex],
    ) -> PredictionReport {
        let mut r = PredictionReport::default();
        for &s in tracked {
            match (predicted.get(s), observed.get(s)) {
                (Some(p), Some(o)) => {
                    r.evaluated += 1;
                    if p == o {
                        r.correct += 1;
                    }
                }
                (None, None) => {}
                _ => r.coverage_gaps += 1,
            }
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trackdown_topology::gen::{generate, TopologyConfig};

    #[test]
    fn prediction_is_perfect_when_world_matches_model() {
        let g = generate(&TopologyConfig::small(51));
        let origin = OriginAs::peering_style(&g, 4);
        // The "real" world runs clean policies with the predictor's own
        // tiebreak seed: prediction must be exact.
        let clean = EngineConfig {
            policy: PolicyConfig {
                seed: 0,
                violator_fraction: 0.0,
                no_loop_prevention_fraction: 0.0,
                tier1_poison_filtering: false,
                extensions: Default::default(),
            },
            ..EngineConfig::default()
        };
        let engine = BgpEngine::new(&g.topology, &clean);
        let predictor = CatchmentPredictor::new(&g.topology);
        let cfg = AnnouncementConfig::anycast_all(4);
        let observed = Catchments::from_control_plane(
            &engine
                .propagate_config(&origin, &cfg.to_link_announcements())
                .unwrap(),
        );
        let predicted = predictor.predict(&origin, &cfg);
        let tracked: Vec<AsIndex> = g.topology.indices().collect();
        let report = CatchmentPredictor::score(&predicted, &observed, &tracked);
        assert_eq!(report.coverage_gaps, 0);
        assert_eq!(report.accuracy(), 1.0);
    }

    #[test]
    fn unknown_tiebreaks_limit_prediction() {
        // Same clean policies but different IGP-like tiebreak salts: the
        // residual error measures how many catchments are decided by ties
        // (which is exactly why the paper calls route prediction hard and
        // why prepending has leverage).
        let g = generate(&TopologyConfig::small(51));
        let origin = OriginAs::peering_style(&g, 4);
        let clean = EngineConfig {
            policy: PolicyConfig {
                seed: 9,
                violator_fraction: 0.0,
                no_loop_prevention_fraction: 0.0,
                tier1_poison_filtering: false,
                extensions: Default::default(),
            },
            ..EngineConfig::default()
        };
        let engine = BgpEngine::new(&g.topology, &clean);
        let predictor = CatchmentPredictor::new(&g.topology);
        let cfg = AnnouncementConfig::anycast_all(4);
        let observed = Catchments::from_control_plane(
            &engine
                .propagate_config(&origin, &cfg.to_link_announcements())
                .unwrap(),
        );
        let predicted = predictor.predict(&origin, &cfg);
        let tracked: Vec<AsIndex> = g.topology.indices().collect();
        let report = CatchmentPredictor::score(&predicted, &observed, &tracked);
        let acc = report.accuracy();
        assert!(acc > 0.35, "prediction collapsed entirely: {acc}");
        assert!(acc < 1.0, "ties should flip at least one AS");
    }

    #[test]
    fn violators_degrade_but_do_not_destroy_prediction() {
        let g = generate(&TopologyConfig::medium(52));
        let origin = OriginAs::peering_style(&g, 4);
        let noisy = EngineConfig {
            policy: PolicyConfig {
                seed: 77,
                violator_fraction: 0.15,
                no_loop_prevention_fraction: 0.02,
                tier1_poison_filtering: true,
                extensions: Default::default(),
            },
            ..EngineConfig::default()
        };
        let engine = BgpEngine::new(&g.topology, &noisy);
        let predictor = CatchmentPredictor::new(&g.topology);
        let cfg = AnnouncementConfig::anycast_all(4);
        let observed = Catchments::from_control_plane(
            &engine
                .propagate_config(&origin, &cfg.to_link_announcements())
                .unwrap(),
        );
        let predicted = predictor.predict(&origin, &cfg);
        let tracked: Vec<AsIndex> = g.topology.indices().collect();
        let report = CatchmentPredictor::score(&predicted, &observed, &tracked);
        assert!(report.evaluated > 0);
        let acc = report.accuracy();
        assert!(acc > 0.5, "accuracy collapsed: {acc}");
    }

    #[test]
    fn score_counts_gaps() {
        let mut p = Catchments::unassigned(3);
        let mut o = Catchments::unassigned(3);
        p.set(AsIndex(0), Some(trackdown_bgp::LinkId(0)));
        o.set(AsIndex(0), Some(trackdown_bgp::LinkId(1)));
        o.set(AsIndex(1), Some(trackdown_bgp::LinkId(0)));
        let tracked: Vec<AsIndex> = (0..3).map(AsIndex).collect();
        let r = CatchmentPredictor::score(&p, &o, &tracked);
        assert_eq!(r.evaluated, 1);
        assert_eq!(r.correct, 0);
        assert_eq!(r.coverage_gaps, 1);
        assert_eq!(r.accuracy(), 0.0);
        let empty = CatchmentPredictor::score(
            &Catchments::unassigned(3),
            &Catchments::unassigned(3),
            &tracked,
        );
        assert_eq!(empty.accuracy(), 1.0);
    }
}
