//! Prefix-hijack scenario analysis — the §VI application.
//!
//! "Our technique to generate configurations varying announcement
//! locations generates all possible scenarios of prefix hijacking from a
//! predefined set of announcement locations. Consider a configuration
//! announcing from n locations: each location can be considered a
//! legitimate announcement or an attempted hijack. Under this view, a
//! configuration announcing from n locations covers 2^n possible hijack
//! scenarios."
//!
//! Given the measured catchments of one configuration, this module
//! evaluates every assignment of announcement locations to
//! {legitimate, hijacker} and reports the fraction of the Internet the
//! hijacker would capture — the quantity same-prefix-length hijack studies
//! need.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use trackdown_bgp::{Catchments, LinkId};
use trackdown_topology::AsIndex;

/// One hijack scenario: which announcing links belong to the hijacker.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HijackScenario {
    /// Links announced by the legitimate origin.
    pub legitimate: BTreeSet<LinkId>,
    /// Links announced by the hijacker.
    pub hijacker: BTreeSet<LinkId>,
}

/// The impact of one scenario under one configuration's catchments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HijackImpact {
    /// The scenario evaluated.
    pub scenario: HijackScenario,
    /// Sources routed to hijacker links.
    pub captured: usize,
    /// Sources routed to legitimate links.
    pub retained: usize,
    /// Fraction of assigned sources captured by the hijacker.
    pub capture_fraction: f64,
}

/// Enumerate the `2^n − 2` non-trivial scenarios of a configuration
/// announcing from `links` (the all-legitimate and all-hijacker
/// assignments carry no information).
pub fn enumerate_scenarios(links: &BTreeSet<LinkId>) -> Vec<HijackScenario> {
    let ordered: Vec<LinkId> = links.iter().copied().collect();
    let n = ordered.len();
    assert!(n <= 16, "scenario enumeration limited to 16 links");
    let mut out = Vec::with_capacity((1usize << n).saturating_sub(2));
    for mask in 1..(1u32 << n) - 1 {
        let mut hijacker = BTreeSet::new();
        let mut legitimate = BTreeSet::new();
        for (bit, &l) in ordered.iter().enumerate() {
            if mask & (1 << bit) != 0 {
                hijacker.insert(l);
            } else {
                legitimate.insert(l);
            }
        }
        out.push(HijackScenario {
            legitimate,
            hijacker,
        });
    }
    out
}

/// Evaluate one scenario against measured catchments, optionally
/// restricted to a tracked source set (`None` = all assigned sources).
pub fn hijack_impact(
    catchments: &Catchments,
    scenario: &HijackScenario,
    tracked: Option<&[AsIndex]>,
) -> HijackImpact {
    let mut captured = 0usize;
    let mut retained = 0usize;
    let mut count = |link: LinkId| {
        if scenario.hijacker.contains(&link) {
            captured += 1;
        } else if scenario.legitimate.contains(&link) {
            retained += 1;
        }
    };
    match tracked {
        Some(set) => {
            for &s in set {
                if let Some(l) = catchments.get(s) {
                    count(l);
                }
            }
        }
        None => {
            for l in catchments.active_links() {
                let members = catchments.members(l).count();
                if scenario.hijacker.contains(&l) {
                    captured += members;
                } else if scenario.legitimate.contains(&l) {
                    retained += members;
                }
            }
        }
    }
    let total = captured + retained;
    HijackImpact {
        scenario: scenario.clone(),
        captured,
        retained,
        capture_fraction: if total == 0 {
            0.0
        } else {
            captured as f64 / total as f64
        },
    }
}

/// Evaluate every scenario of a configuration; returns impacts sorted by
/// capture fraction descending (worst case first).
pub fn all_impacts(
    catchments: &Catchments,
    links: &BTreeSet<LinkId>,
    tracked: Option<&[AsIndex]>,
) -> Vec<HijackImpact> {
    let mut out: Vec<HijackImpact> = enumerate_scenarios(links)
        .iter()
        .map(|s| hijack_impact(catchments, s, tracked))
        .collect();
    out.sort_by(|a, b| {
        b.capture_fraction
            .partial_cmp(&a.capture_fraction)
            .expect("no NaN")
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catchments(assignment: &[u8]) -> Catchments {
        let mut c = Catchments::unassigned(assignment.len());
        for (i, &l) in assignment.iter().enumerate() {
            c.set(AsIndex(i as u32), Some(LinkId(l)));
        }
        c
    }

    fn links(n: u8) -> BTreeSet<LinkId> {
        (0..n).map(LinkId).collect()
    }

    #[test]
    fn scenario_enumeration_counts() {
        assert_eq!(enumerate_scenarios(&links(2)).len(), 2);
        assert_eq!(enumerate_scenarios(&links(3)).len(), 6);
        assert_eq!(enumerate_scenarios(&links(4)).len(), 14);
        for s in enumerate_scenarios(&links(3)) {
            assert!(!s.hijacker.is_empty());
            assert!(!s.legitimate.is_empty());
            assert_eq!(s.hijacker.len() + s.legitimate.len(), 3);
        }
    }

    #[test]
    fn impact_counts_catchment_members() {
        // 6 sources: 3 on link 0, 2 on link 1, 1 on link 2.
        let c = catchments(&[0, 0, 0, 1, 1, 2]);
        let scenario = HijackScenario {
            legitimate: [LinkId(0)].into_iter().collect(),
            hijacker: [LinkId(1), LinkId(2)].into_iter().collect(),
        };
        let impact = hijack_impact(&c, &scenario, None);
        assert_eq!(impact.captured, 3);
        assert_eq!(impact.retained, 3);
        assert!((impact.capture_fraction - 0.5).abs() < 1e-9);
    }

    #[test]
    fn tracked_restriction() {
        let c = catchments(&[0, 0, 1, 1]);
        let scenario = HijackScenario {
            legitimate: [LinkId(0)].into_iter().collect(),
            hijacker: [LinkId(1)].into_iter().collect(),
        };
        let tracked = [AsIndex(0), AsIndex(2)];
        let impact = hijack_impact(&c, &scenario, Some(&tracked));
        assert_eq!(impact.captured, 1);
        assert_eq!(impact.retained, 1);
    }

    #[test]
    fn worst_case_first() {
        let c = catchments(&[0, 1, 1, 1]);
        let impacts = all_impacts(&c, &links(2), None);
        assert_eq!(impacts.len(), 2);
        // Hijacking link 1 captures 3/4; hijacking link 0 captures 1/4.
        assert!((impacts[0].capture_fraction - 0.75).abs() < 1e-9);
        assert!(impacts[0].scenario.hijacker.contains(&LinkId(1)));
        assert!((impacts[1].capture_fraction - 0.25).abs() < 1e-9);
    }

    #[test]
    fn empty_catchments_zero_impact() {
        let c = Catchments::unassigned(4);
        let scenario = HijackScenario {
            legitimate: [LinkId(0)].into_iter().collect(),
            hijacker: [LinkId(1)].into_iter().collect(),
        };
        let impact = hijack_impact(&c, &scenario, None);
        assert_eq!(impact.capture_fraction, 0.0);
        assert_eq!(impact.captured + impact.retained, 0);
    }

    #[test]
    fn end_to_end_hijack_study() {
        use trackdown_bgp::{BgpEngine, EngineConfig, LinkAnnouncement, OriginAs};
        use trackdown_topology::gen::{generate, TopologyConfig};
        let g = generate(&TopologyConfig::small(71));
        let origin = OriginAs::peering_style(&g, 4);
        let engine = BgpEngine::new(&g.topology, &EngineConfig::default());
        let anns: Vec<_> = origin.link_ids().map(LinkAnnouncement::plain).collect();
        let out = engine.propagate_config(&origin, &anns).unwrap();
        let cat = trackdown_bgp::Catchments::from_control_plane(&out);
        let all: BTreeSet<LinkId> = origin.link_ids().collect();
        let impacts = all_impacts(&cat, &all, None);
        assert_eq!(impacts.len(), 14); // 2^4 - 2
                                       // Capture fractions are complementary for complementary scenarios.
        let total: f64 = impacts.iter().map(|i| i.capture_fraction).sum();
        assert!(
            (total - 7.0).abs() < 1e-6,
            "pairs must sum to 1 each: {total}"
        );
    }
}
