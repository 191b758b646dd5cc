//! Configuration scheduling for fast localization (§V-C, Figure 8).
//!
//! When an attack is ongoing, the origin wants small clusters after as few
//! configurations as possible. With catchments measured ahead of time the
//! origin can deploy configurations in an optimized order: the paper's
//! iterative algorithm greedily picks, at each step, the configuration
//! whose deployment minimizes the resulting mean cluster size.
//!
//! This module also implements the paper's future-work extension (i):
//! a traffic-weighted objective that prioritizes splitting the clusters
//! inferred to send the most spoofed traffic.

use crate::cluster::Clustering;
use crate::config::AnnouncementConfig;
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use trackdown_bgp::{Catchments, CommunitySet, LinkId};
use trackdown_topology::AsIndex;

/// Mean-cluster-size trajectories across random deployment orders.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomScheduleStats {
    /// `q25[k]` = 25th percentile of mean cluster size after `k+1` configs.
    pub q25: Vec<f64>,
    /// Median of means after `k+1` configurations.
    pub median: Vec<f64>,
    /// 75th percentile after `k+1` configurations.
    pub q75: Vec<f64>,
}

/// Simulate `samples` random deployment orders (without repetition) and
/// report quartiles of the mean cluster size after each step — the solid
/// line and band of Figure 8.
pub fn random_schedule_stats(
    catchments: &[Catchments],
    tracked: &[AsIndex],
    samples: usize,
    seed: u64,
) -> RandomScheduleStats {
    let k = catchments.len();
    assert!(k > 0 && samples > 0);
    // trajectories[s][step]
    let mut trajectories: Vec<Vec<f64>> = Vec::with_capacity(samples);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for _ in 0..samples {
        let mut order: Vec<usize> = (0..k).collect();
        // Fisher-Yates shuffle.
        for i in (1..k).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        let mut clustering = Clustering::single(tracked.to_vec());
        let mut traj = Vec::with_capacity(k);
        for &c in &order {
            clustering.refine(&catchments[c]);
            traj.push(clustering.mean_size());
        }
        trajectories.push(traj);
    }
    let mut q25 = Vec::with_capacity(k);
    let mut median = Vec::with_capacity(k);
    let mut q75 = Vec::with_capacity(k);
    for step in 0..k {
        let mut vals: Vec<f64> = trajectories.iter().map(|t| t[step]).collect();
        vals.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let pick =
            |p: f64| vals[((p * (vals.len() - 1) as f64).round() as usize).min(vals.len() - 1)];
        q25.push(pick(0.25));
        median.push(pick(0.5));
        q75.push(pick(0.75));
    }
    RandomScheduleStats { q25, median, q75 }
}

/// The greedy iterative algorithm: at each step deploy the configuration
/// that minimizes the objective after refinement. Returns the deployment
/// order and the objective value after each step.
///
/// `objective` maps a clustering to a cost to minimize; see
/// [`mean_size_objective`] and [`traffic_weighted_objective`].
pub fn greedy_schedule(
    catchments: &[Catchments],
    tracked: &[AsIndex],
    max_steps: usize,
    objective: impl Fn(&Clustering) -> f64,
) -> (Vec<usize>, Vec<f64>) {
    let k = catchments.len();
    let steps = max_steps.min(k);
    let mut remaining: Vec<usize> = (0..k).collect();
    let mut clustering = Clustering::single(tracked.to_vec());
    let mut order = Vec::with_capacity(steps);
    let mut scores = Vec::with_capacity(steps);
    for _ in 0..steps {
        let mut best: Option<(usize, f64, Clustering)> = None;
        for (pos, &c) in remaining.iter().enumerate() {
            let mut candidate = clustering.clone();
            candidate.refine(&catchments[c]);
            let score = objective(&candidate);
            let better = match &best {
                None => true,
                Some((_, s, _)) => score < *s,
            };
            if better {
                best = Some((pos, score, candidate));
            }
        }
        let (pos, score, next) = best.expect("remaining non-empty");
        order.push(remaining.remove(pos));
        scores.push(score);
        clustering = next;
    }
    (order, scores)
}

/// The paper's objective: mean cluster size.
pub fn mean_size_objective(c: &Clustering) -> f64 {
    c.mean_size()
}

/// Edit distance between two announcement footprints: the number of
/// per-link announcement actions that must change to turn `a` into `b` —
/// links announced/withdrawn, prepends toggled, and per-link poison or
/// community entries that differ. Empty poison lists and empty community
/// sets count as absent (they lower to the same injections).
///
/// A BGP epoch transition's churn grows with the number of changed
/// injections ([`warm_start_order`] chains configurations by it).
///
/// Allocation-free: the per-link maps are walked in key order side by
/// side, so comparing two configurations touches each entry once.
pub fn footprint_distance(a: &AnnouncementConfig, b: &AnnouncementConfig) -> usize {
    a.announce.symmetric_difference(&b.announce).count()
        + a.prepend.symmetric_difference(&b.prepend).count()
        + differing_entries(&a.poison, &b.poison, Vec::is_empty)
        + differing_entries(&a.communities, &b.communities, CommunitySet::is_empty)
}

/// Keys on which two per-link maps disagree, an entry whose value is
/// `empty` counting as no entry: a merge walk over both sorted key
/// sequences.
fn differing_entries<V: PartialEq>(
    a: &BTreeMap<LinkId, V>,
    b: &BTreeMap<LinkId, V>,
    empty: impl Fn(&V) -> bool,
) -> usize {
    let mut a = a.iter().filter(|(_, v)| !empty(v)).peekable();
    let mut b = b.iter().filter(|(_, v)| !empty(v)).peekable();
    let mut d = 0;
    loop {
        let order = match (a.peek(), b.peek()) {
            (None, None) => return d,
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (Some((ka, _)), Some((kb, _))) => ka.cmp(kb),
        };
        match order {
            Ordering::Less => {
                a.next();
                d += 1;
            }
            Ordering::Greater => {
                b.next();
                d += 1;
            }
            Ordering::Equal => {
                if a.next().map(|e| e.1) != b.next().map(|e| e.1) {
                    d += 1;
                }
            }
        }
    }
}

/// Order a schedule for warm-start execution: a greedy nearest-neighbour
/// chain over [`footprint_distance`], starting at index 0 (the anycast
/// baseline), ties broken toward the lowest index. Returns a permutation
/// of `0..configs.len()`.
///
/// Duplicate footprints (distance 0) become adjacent. Every campaign
/// deployment starts from the same converged baseline, so no campaign
/// orders its schedule this way. Trackbench-only; drop with ROADMAP
/// item 2.
pub fn warm_start_order(configs: &[AnnouncementConfig]) -> Vec<usize> {
    let _span =
        trackdown_obs::span("schedule.warm_start_order").attr("configs", configs.len() as u64);
    trackdown_obs::counter!("schedule.warm_start_orders").inc();
    nearest_neighbour_chain(configs, footprint_distance)
}

/// The greedy chain behind [`warm_start_order`], over any distance.
fn nearest_neighbour_chain(
    configs: &[AnnouncementConfig],
    distance: impl Fn(&AnnouncementConfig, &AnnouncementConfig) -> usize,
) -> Vec<usize> {
    if configs.is_empty() {
        return Vec::new();
    }
    let mut order = Vec::with_capacity(configs.len());
    let mut remaining: Vec<usize> = (1..configs.len()).collect();
    let mut current = 0usize;
    order.push(current);
    while !remaining.is_empty() {
        let mut best_pos = 0usize;
        let mut best_d = usize::MAX;
        for (pos, &k) in remaining.iter().enumerate() {
            let d = distance(&configs[current], &configs[k]);
            // Strict `<` keeps the lowest index on ties (remaining is in
            // ascending index order).
            if d < best_d {
                best_d = d;
                best_pos = pos;
            }
        }
        current = remaining.remove(best_pos);
        order.push(current);
    }
    order
}

/// Future-work extension (i): weight each cluster by the spoofed volume it
/// is currently inferred to send, so high-volume clusters are split first.
/// The cost is Σ_k volume(κ_k) · |κ_k| / Σ_k volume(κ_k) — the expected
/// cluster size seen by a spoofed byte.
pub fn traffic_weighted_objective<'a>(
    volume_per_as: &'a [u64],
) -> impl Fn(&Clustering) -> f64 + 'a {
    move |c: &Clustering| {
        let mut weighted = 0.0f64;
        let mut total = 0.0f64;
        for members in c.iter_clusters() {
            let v: u64 = members
                .iter()
                .map(|a| volume_per_as.get(a.us()).copied().unwrap_or(0))
                .sum();
            weighted += v as f64 * members.len() as f64;
            total += v as f64;
        }
        if total == 0.0 {
            c.mean_size()
        } else {
            weighted / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::Strategy;

    fn cat(n: usize, links: &[u8]) -> Catchments {
        let mut c = Catchments::unassigned(n);
        for (i, &l) in links.iter().enumerate() {
            c.set(AsIndex(i as u32), Some(LinkId(l)));
        }
        c
    }

    fn tracked(n: usize) -> Vec<AsIndex> {
        (0..n as u32).map(AsIndex).collect()
    }

    #[test]
    fn greedy_prefers_informative_configs() {
        let n = 8;
        // Config 0: useless (everyone together). Config 1: splits in half.
        // Config 2: splits into quarters when combined with 1.
        let cats = vec![
            cat(n, &[0; 8]),
            cat(n, &[0, 0, 0, 0, 1, 1, 1, 1]),
            cat(n, &[0, 0, 1, 1, 0, 0, 1, 1]),
        ];
        let (order, scores) = greedy_schedule(&cats, &tracked(n), 3, mean_size_objective);
        // The useless config must come last.
        assert_eq!(order[2], 0);
        assert_eq!(scores[0], 4.0);
        assert_eq!(scores[1], 2.0);
        assert_eq!(scores[2], 2.0);
    }

    #[test]
    fn greedy_scores_are_nonincreasing() {
        let n = 6;
        let cats = vec![
            cat(n, &[0, 1, 0, 1, 0, 1]),
            cat(n, &[0, 0, 1, 1, 2, 2]),
            cat(n, &[1, 1, 1, 0, 0, 0]),
        ];
        let (_, scores) = greedy_schedule(&cats, &tracked(n), 3, mean_size_objective);
        for w in scores.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }

    #[test]
    fn greedy_beats_or_ties_random_everywhere() {
        let n = 12;
        let cats = vec![
            cat(n, &[0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1]),
            cat(n, &[0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1]),
            cat(n, &[0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0]),
            cat(n, &[0; 12]),
            cat(n, &[1; 12]),
        ];
        let rnd = random_schedule_stats(&cats, &tracked(n), 50, 7);
        let (_, greedy) = greedy_schedule(&cats, &tracked(n), 5, mean_size_objective);
        for (step, g) in greedy.iter().enumerate() {
            assert!(
                *g <= rnd.median[step] + 1e-9,
                "step {step}: greedy {g} > median {}",
                rnd.median[step]
            );
        }
    }

    #[test]
    fn random_stats_band_ordering_and_convergence() {
        let n = 10;
        let cats = vec![
            cat(n, &[0, 0, 0, 0, 0, 1, 1, 1, 1, 1]),
            cat(n, &[0, 0, 1, 1, 1, 0, 0, 1, 1, 1]),
            cat(n, &[0, 1, 0, 1, 0, 1, 0, 1, 0, 1]),
        ];
        let s = random_schedule_stats(&cats, &tracked(n), 40, 3);
        for step in 0..cats.len() {
            assert!(s.q25[step] <= s.median[step]);
            assert!(s.median[step] <= s.q75[step]);
        }
        // All orders converge to the same final partition.
        assert!((s.q25[2] - s.q75[2]).abs() < 1e-12);
    }

    #[test]
    fn random_stats_deterministic_per_seed() {
        let n = 6;
        let cats = vec![cat(n, &[0, 1, 0, 1, 0, 1]), cat(n, &[0, 0, 1, 1, 2, 2])];
        let a = random_schedule_stats(&cats, &tracked(n), 20, 9);
        let b = random_schedule_stats(&cats, &tracked(n), 20, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn traffic_weighted_objective_prioritizes_hot_clusters() {
        let n = 8;
        // Volume concentrated in sources 0..4.
        let mut vol = vec![0u64; n];
        for v in vol.iter_mut().take(4) {
            *v = 1_000;
        }
        // Config A splits the hot half; config B splits the cold half.
        let cats = vec![
            cat(n, &[0, 0, 1, 1, 0, 0, 0, 0]), // splits hot sources
            cat(n, &[0, 0, 0, 0, 0, 0, 1, 1]), // splits cold sources
        ];
        let obj = traffic_weighted_objective(&vol);
        let (order, _) = greedy_schedule(&cats, &tracked(n), 2, obj);
        assert_eq!(order[0], 0, "hot-splitting config must come first");
        // The plain mean-size objective is indifferent (both split evenly);
        // verify the weighted objective actually differs.
        let mut c_hot = Clustering::single(tracked(n));
        c_hot.refine(&cats[0]);
        let mut c_cold = Clustering::single(tracked(n));
        c_cold.refine(&cats[1]);
        let obj = traffic_weighted_objective(&vol);
        assert!(obj(&c_hot) < obj(&c_cold));
        assert_eq!(mean_size_objective(&c_hot), mean_size_objective(&c_cold));
    }

    #[test]
    fn footprint_distance_counts_per_link_edits() {
        use trackdown_bgp::LinkId;
        use trackdown_topology::Asn;
        let base = AnnouncementConfig::anycast([LinkId(0), LinkId(1), LinkId(2)]);
        assert_eq!(footprint_distance(&base, &base), 0);
        // Withdraw one link: one announce edit.
        let withdrawn = AnnouncementConfig::anycast([LinkId(0), LinkId(1)]);
        assert_eq!(footprint_distance(&base, &withdrawn), 1);
        // Toggle a prepend: one edit.
        let prepended = base.clone().with_prepend(LinkId(1));
        assert_eq!(footprint_distance(&base, &prepended), 1);
        // Add a poison: one edit; change its target list: still one edit.
        let p1 = base.clone().with_poison(LinkId(2), vec![Asn(9)]);
        let p2 = base.clone().with_poison(LinkId(2), vec![Asn(10)]);
        assert_eq!(footprint_distance(&base, &p1), 1);
        assert_eq!(footprint_distance(&p1, &p2), 1);
        // An empty poison list is the same footprint as no entry.
        let p_empty = base.clone().with_poison(LinkId(2), vec![]);
        assert_eq!(footprint_distance(&base, &p_empty), 0);
        // Distance is symmetric and additive over independent edits.
        let both = withdrawn.clone().with_prepend(LinkId(1));
        assert_eq!(footprint_distance(&base, &both), 2);
        assert_eq!(
            footprint_distance(&base, &both),
            footprint_distance(&both, &base)
        );
    }

    #[test]
    fn footprint_distance_ignores_phase() {
        use trackdown_bgp::LinkId;
        let a = AnnouncementConfig::anycast([LinkId(0), LinkId(1)]);
        let mut b = a.clone();
        b.phase = crate::config::Phase::Poison;
        assert_eq!(footprint_distance(&a, &b), 0);
    }

    #[test]
    fn warm_start_order_is_a_permutation_starting_at_baseline() {
        use trackdown_bgp::LinkId;
        use trackdown_topology::Asn;
        let base = AnnouncementConfig::anycast([LinkId(0), LinkId(1), LinkId(2)]);
        let configs = vec![
            base.clone(),
            base.clone().with_poison(LinkId(0), vec![Asn(7)]),
            AnnouncementConfig::anycast([LinkId(0)]),
            base.clone().with_prepend(LinkId(2)),
            base.clone(), // duplicate of the baseline
        ];
        let order = warm_start_order(&configs);
        assert_eq!(order[0], 0);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..configs.len()).collect::<Vec<_>>());
        // The duplicate baseline (distance 0) is deployed immediately
        // after the baseline itself.
        assert_eq!(order[1], 4);
    }

    #[test]
    fn warm_start_order_chains_small_edits() {
        use trackdown_bgp::LinkId;
        // 0: {0,1,2}; 1: far (single link); 2: one edit from 0.
        let configs = vec![
            AnnouncementConfig::anycast([LinkId(0), LinkId(1), LinkId(2)]),
            AnnouncementConfig::anycast([LinkId(3)]),
            AnnouncementConfig::anycast([LinkId(0), LinkId(1)]),
        ];
        let order = warm_start_order(&configs);
        assert_eq!(order, vec![0, 2, 1]);
        assert_eq!(warm_start_order(&[]), Vec::<usize>::new());
    }

    /// The pre-merge-walk [`footprint_distance`], which collects each
    /// pair's poison and community keys into `BTreeSet`s: the reference
    /// the allocation-free form must agree with.
    fn footprint_distance_reference(a: &AnnouncementConfig, b: &AnnouncementConfig) -> usize {
        use std::collections::BTreeSet;
        let mut d = a.announce.symmetric_difference(&b.announce).count();
        d += a.prepend.symmetric_difference(&b.prepend).count();
        let poison_keys: BTreeSet<_> = a.poison.keys().chain(b.poison.keys()).collect();
        for l in poison_keys {
            let pa = a
                .poison
                .get(l)
                .map(|v| v.as_slice())
                .filter(|v| !v.is_empty());
            let pb = b
                .poison
                .get(l)
                .map(|v| v.as_slice())
                .filter(|v| !v.is_empty());
            if pa != pb {
                d += 1;
            }
        }
        let community_keys: BTreeSet<_> =
            a.communities.keys().chain(b.communities.keys()).collect();
        for l in community_keys {
            let ca = a.communities.get(l).filter(|c| !c.is_empty());
            let cb = b.communities.get(l).filter(|c| !c.is_empty());
            if ca != cb {
                d += 1;
            }
        }
        d
    }

    /// Configurations over 6 links drawn from a tiny alphabet, so equal,
    /// empty and one-sided per-link entries are all common.
    fn config_strategy() -> impl Strategy<Value = AnnouncementConfig> {
        use trackdown_bgp::{Community, CommunitySet};
        use trackdown_topology::Asn;
        let per_link = |max: u32| {
            proptest::collection::vec(
                proptest::option::of(proptest::collection::vec(0..max, 0..3)),
                6,
            )
        };
        (0..64u8, 0..64u8, per_link(3), per_link(3)).prop_map(
            |(announce, prepend, poison, communities)| {
                let links = |mask: u8| (0..6).filter(move |l| mask & (1 << l) != 0).map(LinkId);
                let mut c = AnnouncementConfig::anycast(links(announce));
                c.prepend = links(prepend).collect();
                for (l, p) in poison.into_iter().enumerate() {
                    if let Some(p) = p {
                        c.poison
                            .insert(LinkId(l as u8), p.into_iter().map(Asn).collect());
                    }
                }
                for (l, cs) in communities.into_iter().enumerate() {
                    if let Some(cs) = cs {
                        let cs = cs.into_iter().map(|k| match k {
                            0 => Community::NoExportToPeers,
                            1 => Community::NoExportToProviders,
                            _ => Community::PrependAtProvider(2),
                        });
                        c.communities
                            .insert(LinkId(l as u8), CommunitySet::from_vec(cs.collect()));
                    }
                }
                c
            },
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn footprint_distance_matches_reference(a in config_strategy(), b in config_strategy()) {
            proptest::prop_assert_eq!(
                footprint_distance(&a, &b),
                footprint_distance_reference(&a, &b)
            );
            proptest::prop_assert_eq!(footprint_distance(&a, &b), footprint_distance(&b, &a));
        }
    }

    #[test]
    fn warm_start_order_matches_reference_on_paper_schedule() {
        use crate::generator::{full_schedule, GeneratorParams};
        use trackdown_bgp::OriginAs;
        use trackdown_topology::gen::{generate, TopologyConfig};
        let world = generate(&TopologyConfig::paper(384));
        let origin = OriginAs::peering_style(&world, 7);
        let schedule = full_schedule(
            &world.topology,
            &origin,
            &GeneratorParams {
                max_removals: 3,
                max_poison_configs: None,
            },
        );
        assert_eq!(schedule.len(), 705);
        assert_eq!(
            warm_start_order(&schedule),
            nearest_neighbour_chain(&schedule, footprint_distance_reference)
        );
    }

    #[test]
    fn zero_volume_falls_back_to_mean_size() {
        let n = 4;
        let vol = vec![0u64; n];
        let mut c = Clustering::single(tracked(n));
        c.refine(&cat(n, &[0, 0, 1, 1]));
        let obj = traffic_weighted_objective(&vol);
        assert_eq!(obj(&c), c.mean_size());
    }
}
