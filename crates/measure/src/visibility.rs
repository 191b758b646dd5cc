//! Source visibility: restricting analysis to reliably-observed sources
//! and imputing catchments for sources missing from some configurations
//! (§IV-d of the paper).
//!
//! 1. The analysis set is limited to sources observed in the *baseline*
//!    configuration (the plain anycast from all links) — "this avoids
//!    considering ASes observed only in a few, specific configurations".
//! 2. For every configuration where a source `s` was not observed, `s` is
//!    assigned to the catchment of `smax` — the source whose catchment `s`
//!    appears in most frequently across the configurations where `s` *was*
//!    observed (i.e. `s` and `smax` route similarly).

use crate::observe::MeasuredCatchments;
use trackdown_topology::AsIndex;

/// Statistics from an imputation pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ImputationStats {
    /// Sources in the analysis set (observed at baseline).
    pub analysis_sources: usize,
    /// Sources excluded because they were invisible at baseline.
    pub excluded_sources: usize,
    /// (source, configuration) holes that were filled via `smax`.
    pub imputed_assignments: usize,
    /// Holes that could not be filled (no companion observed there).
    pub unfilled_assignments: usize,
}

/// The analysis set: sources observed in the baseline configuration.
pub fn analysis_set(measured: &[MeasuredCatchments], baseline: usize) -> Vec<AsIndex> {
    measured[baseline]
        .observed
        .iter()
        .enumerate()
        .filter(|(_, o)| **o)
        .map(|(i, _)| AsIndex(i as u32))
        .collect()
}

/// For source `s`, find `smax`: the other source most frequently sharing
/// `s`'s catchment across configurations where `s` was observed. Ties go
/// to the lowest index. `counts` is zeroed scratch of one counter per
/// source and is left zeroed; `seen` is scratch for the sources counted.
fn find_smax(
    measured: &[MeasuredCatchments],
    s: AsIndex,
    counts: &mut [u32],
    seen: &mut Vec<AsIndex>,
) -> Option<AsIndex> {
    for m in measured {
        if !m.observed[s.us()] {
            continue;
        }
        let Some(link) = m.catchments.get(s) else {
            continue;
        };
        for t in m.catchments.members(link) {
            if t != s {
                if counts[t.us()] == 0 {
                    seen.push(t);
                }
                counts[t.us()] += 1;
            }
        }
    }
    let mut best: Option<(AsIndex, u32)> = None;
    for t in seen.drain(..) {
        let c = std::mem::take(&mut counts[t.us()]);
        let better = match best {
            None => true,
            Some((b, bc)) => c > bc || (c == bc && t < b),
        };
        if better {
            best = Some((t, c));
        }
    }
    best.map(|(t, _)| t)
}

/// Fill visibility holes in-place: for each source in the analysis set and
/// each configuration where it is unobserved, copy the catchment of its
/// `smax` companion. Returns the imputation statistics.
pub fn impute_visibility(measured: &mut [MeasuredCatchments], baseline: usize) -> ImputationStats {
    let n = measured[baseline].observed.len();
    let set = analysis_set(measured, baseline);
    let mut stats = ImputationStats {
        analysis_sources: set.len(),
        excluded_sources: n - set.len(),
        ..ImputationStats::default()
    };
    let mut counts = vec![0u32; n];
    let mut seen = Vec::new();
    for &s in &set {
        // Skip fully-observed sources quickly.
        if measured.iter().all(|m| m.observed[s.us()]) {
            continue;
        }
        let smax = find_smax(measured, s, &mut counts, &mut seen);
        for m in measured.iter_mut() {
            if m.observed[s.us()] {
                continue;
            }
            let fill = smax.and_then(|t| m.catchments.get(t));
            match fill {
                Some(link) => {
                    m.catchments.set(s, Some(link));
                    stats.imputed_assignments += 1;
                }
                None => stats.unfilled_assignments += 1,
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use trackdown_bgp::{Catchments, LinkId};

    /// Build a MeasuredCatchments over `n` sources from (index, link) pairs;
    /// everything listed is observed, the rest is not.
    fn mc(n: usize, assigned: &[(u32, u8)]) -> MeasuredCatchments {
        let mut c = Catchments::unassigned(n);
        let mut observed = vec![false; n];
        for &(i, l) in assigned {
            c.set(AsIndex(i), Some(LinkId(l)));
            observed[i as usize] = true;
        }
        MeasuredCatchments {
            catchments: c,
            observed,
            multi_catchment: vec![false; n],
        }
    }

    #[test]
    fn analysis_set_is_baseline_observed() {
        let ms = vec![mc(4, &[(0, 0), (1, 1)]), mc(4, &[(2, 0)])];
        let set = analysis_set(&ms, 0);
        assert_eq!(set, vec![AsIndex(0), AsIndex(1)]);
    }

    #[test]
    fn smax_is_most_frequent_companion() {
        // Source 0 shares catchments with source 1 twice, source 2 once.
        let ms = vec![
            mc(3, &[(0, 0), (1, 0), (2, 1)]),
            mc(3, &[(0, 1), (1, 1), (2, 1)]),
        ];
        let (mut counts, mut seen) = (vec![0; 3], Vec::new());
        assert_eq!(
            find_smax(&ms, AsIndex(0), &mut counts, &mut seen),
            Some(AsIndex(1))
        );
        assert_eq!(counts, vec![0; 3], "scratch left zeroed");
        // Equal counts: the lower index wins.
        let tied = vec![mc(3, &[(0, 0), (1, 0), (2, 0)])];
        assert_eq!(
            find_smax(&tied, AsIndex(2), &mut counts, &mut seen),
            Some(AsIndex(0))
        );
        assert_eq!(
            find_smax(&tied, AsIndex(0), &mut counts, &mut seen),
            Some(AsIndex(1))
        );
    }

    #[test]
    fn imputation_fills_holes_from_smax() {
        // Config 0 (baseline): 0 and 1 together on link 0.
        // Config 1: source 0 missing; source 1 observed on link 1.
        let mut ms = vec![mc(2, &[(0, 0), (1, 0)]), mc(2, &[(1, 1)])];
        let stats = impute_visibility(&mut ms, 0);
        assert_eq!(stats.analysis_sources, 2);
        assert_eq!(stats.imputed_assignments, 1);
        assert_eq!(stats.unfilled_assignments, 0);
        // Source 0 follows its companion onto link 1.
        assert_eq!(ms[1].catchments.get(AsIndex(0)), Some(LinkId(1)));
    }

    #[test]
    fn sources_missing_at_baseline_are_excluded() {
        let mut ms = vec![
            mc(3, &[(0, 0), (1, 0)]), // source 2 invisible at baseline
            mc(3, &[(0, 0), (1, 0)]),
        ];
        let stats = impute_visibility(&mut ms, 0);
        assert_eq!(stats.excluded_sources, 1);
        // Source 2 stays unassigned everywhere.
        assert_eq!(ms[1].catchments.get(AsIndex(2)), None);
    }

    #[test]
    fn unfillable_holes_are_counted() {
        // Source 0 has no companion at all (alone in its catchment).
        let mut ms = vec![
            mc(2, &[(0, 0)]),
            mc(2, &[]), // nothing observed in config 1
        ];
        let stats = impute_visibility(&mut ms, 0);
        assert_eq!(stats.imputed_assignments, 0);
        assert_eq!(stats.unfilled_assignments, 1);
    }

    #[test]
    fn fully_observed_sources_untouched() {
        let mut ms = vec![mc(2, &[(0, 0), (1, 1)]), mc(2, &[(0, 1), (1, 0)])];
        let before = ms.clone();
        let stats = impute_visibility(&mut ms, 0);
        assert_eq!(stats.imputed_assignments, 0);
        assert_eq!(ms, before);
    }
}
