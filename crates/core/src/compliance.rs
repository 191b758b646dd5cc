//! Routing-policy compliance analysis (§V-C, Figure 9).
//!
//! For each configuration, the fraction of ASes whose observed choice
//! follows (i) the best-relationship criterion and (ii) additionally the
//! shortest-path criterion — the Gao-Rexford model. The paper uses this to
//! argue catchment *prediction* is feasible; high compliance means a clean
//! policy model predicts most routing choices.

use serde::{Deserialize, Serialize};
use trackdown_bgp::{policy::compliance_of, RoutingOutcome};

/// Per-configuration compliance fractions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ComplianceSample {
    /// Fraction of decided ASes following best-relationship.
    pub best_relationship: f64,
    /// Fraction following best-relationship *and* shortest-path.
    pub both: f64,
    /// ASes with at least one candidate route (the denominator).
    pub decided: usize,
}

/// Evaluate one configuration's routing outcome. Only ASes with a best
/// route and at least two candidates are informative; ASes with a single
/// candidate comply trivially and are counted as such (they had no
/// choice), matching how path observations work in the paper's dataset.
pub fn config_compliance(outcome: &RoutingOutcome) -> ComplianceSample {
    let mut decided = 0usize;
    let mut best_rel = 0usize;
    let mut both = 0usize;
    for (best, cands) in outcome.best.iter().zip(outcome.candidates()) {
        let Some(best) = best else { continue };
        if cands.is_empty() {
            continue;
        }
        decided += 1;
        let refs: Vec<&trackdown_bgp::Route> = cands.iter().collect();
        let flags = compliance_of(best, &refs);
        if flags.best_relationship {
            best_rel += 1;
        }
        if flags.best_relationship && flags.shortest_path {
            both += 1;
        }
    }
    let frac = |x: usize| {
        if decided == 0 {
            0.0
        } else {
            x as f64 / decided as f64
        }
    };
    ComplianceSample {
        best_relationship: frac(best_rel),
        both: frac(both),
        decided,
    }
}

/// Empirical CDF over a set of fractions: ascending `(value, F(value))`
/// points — Figure 9's axes ("cumulative fraction of configurations" vs
/// "percentage of ASes").
pub fn fraction_cdf(mut values: Vec<f64>) -> Vec<(f64, f64)> {
    if values.is_empty() {
        return Vec::new();
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let n = values.len() as f64;
    let mut out: Vec<(f64, f64)> = Vec::new();
    for (i, v) in values.iter().enumerate() {
        let point = (*v, (i + 1) as f64 / n);
        match out.last_mut() {
            Some(last) if (last.0 - *v).abs() < f64::EPSILON => last.1 = point.1,
            _ => out.push(point),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use trackdown_bgp::{
        BgpEngine, EngineConfig, LinkAnnouncement, OriginAs, PolicyConfig, SnapshotDetail,
    };
    use trackdown_topology::gen::{generate, TopologyConfig};

    fn run(violators: f64) -> ComplianceSample {
        run_at(31, violators)
    }

    fn run_at(topo_seed: u64, violators: f64) -> ComplianceSample {
        let g = generate(&TopologyConfig::small(topo_seed));
        let origin = OriginAs::peering_style(&g, 4);
        let cfg = EngineConfig {
            policy: PolicyConfig {
                seed: 11,
                violator_fraction: violators,
                no_loop_prevention_fraction: 0.0,
                tier1_poison_filtering: false,
                extensions: Default::default(),
            },
            ..EngineConfig::default()
        };
        let engine = BgpEngine::new(&g.topology, &cfg);
        let anns: Vec<_> = origin.link_ids().map(LinkAnnouncement::plain).collect();
        let out = engine
            .propagate_config_detailed(&origin, &anns, SnapshotDetail::Full)
            .unwrap();
        config_compliance(&out)
    }

    #[test]
    fn clean_policies_fully_compliant() {
        let s = run(0.0);
        assert!(s.decided > 0);
        assert_eq!(s.best_relationship, 1.0);
        assert_eq!(s.both, 1.0);
    }

    #[test]
    fn violators_reduce_compliance() {
        let dirty = run(0.5);
        // Violators order neighbors within a relationship band against
        // path length...
        assert!(dirty.both < 1.0, "got {}", dirty.both);
        // `both` is a subset of `best_relationship`.
        assert!(dirty.both <= dirty.best_relationship);
        // Still most ASes comply: violators only matter when they actually
        // invert an available choice.
        assert!(dirty.best_relationship > 0.5);
        // ...and may rank a provider above a peer, the one way they break
        // the best-relationship criterion: customer routes always win.
        assert!((0..8).any(|seed| run_at(seed, 0.5).best_relationship < 1.0));
    }

    #[test]
    fn cdf_shape() {
        let c = fraction_cdf(vec![0.5, 0.9, 0.9, 1.0]);
        assert_eq!(c, vec![(0.5, 0.25), (0.9, 0.75), (1.0, 1.0)]);
        assert!(fraction_cdf(vec![]).is_empty());
        // Monotone.
        for w in c.windows(2) {
            assert!(w[0].0 < w[1].0 && w[0].1 < w[1].1);
        }
    }
}
