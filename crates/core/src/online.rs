//! Online localization during an ongoing attack (§V-C).
//!
//! While an amplification attack is running, every deployed configuration
//! costs real time (BGP convergence plus an observation window), so the
//! origin wants the *fewest* configurations that isolate the sources. This
//! module implements the attack-time loop the paper sketches:
//!
//! 1. start from the baseline anycast and the honeypot's per-link volumes;
//! 2. repeatedly pick the next configuration — greedily, using catchments
//!    measured *before* the attack when available — deploy it, observe the
//!    volumes, and narrow the suspect set;
//! 3. stop once the suspect set is small enough to act on (blackholing,
//!    notification) or the budget is exhausted.

use crate::cluster::cluster_catchments;
#[cfg(any(test, feature = "reference"))]
use crate::cluster::Clustering;
use crate::config::AnnouncementConfig;
use serde::{Deserialize, Serialize};
use trackdown_bgp::catchment::MemberWords;
use trackdown_bgp::{BgpEngine, Catchments, OriginAs};
use trackdown_topology::AsIndex;

/// Options for the online loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OnlineOptions {
    /// Maximum configurations to deploy (the attack-time budget).
    pub max_configs: usize,
    /// Stop as soon as the named suspect set is at most this many ASes.
    pub target_suspects: usize,
    /// Pick configurations greedily using prior catchments (when given);
    /// otherwise deploy in schedule order.
    pub greedy: bool,
    /// Concurrent announcement prefixes: up to this many configurations
    /// deploy per *round* (§V-C: "use multiple prefixes and deploy
    /// multiple configurations concurrently"). Wall-clock cost is one
    /// convergence-plus-observation window per round, not per
    /// configuration.
    pub prefixes: usize,
}

impl Default for OnlineOptions {
    fn default() -> OnlineOptions {
        OnlineOptions {
            max_configs: 20,
            target_suspects: 3,
            greedy: true,
            prefixes: 1,
        }
    }
}

/// Outcome of an online localization run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OnlineResult {
    /// Configurations deployed, as indices into the candidate schedule,
    /// in deployment order.
    pub deployed: Vec<usize>,
    /// The final named suspect ASes.
    pub suspects: Vec<AsIndex>,
    /// True when the suspect target was reached within budget.
    pub localized: bool,
    /// Suspect-set size after each *round* (for time-to-localize curves).
    pub suspect_trajectory: Vec<usize>,
    /// Rounds used: with `prefixes = 1` this equals `deployed.len()`,
    /// with k prefixes it is ≈ `deployed.len() / k` — the wall-clock
    /// proxy.
    pub rounds: usize,
}

/// The volumes the honeypot reports for one deployed configuration. A
/// streaming deployment ingests the window's flows into a one-configuration
/// `VolumeAccumulator` and returns its `dense_row(0)`.
pub type VolumeOracle<'a> = dyn Fn(&AnnouncementConfig) -> Vec<u64> + 'a;

/// Bit `a` of a bitset over AS index.
fn has(bits: &[u64], a: AsIndex) -> bool {
    bits[a.us() / 64] & (1 << (a.us() % 64)) != 0
}

/// Fold one deployed configuration into the per-AS suspect bitsets: every
/// member of a link row joins `constrained`, and the members of a row
/// whose link carried no volume (a zero or absent entry) leave `alive`.
fn narrow(cat: &Catchments, vols: &[u64], alive: &mut [u64], constrained: &mut [u64]) {
    for (link, row) in cat.link_rows() {
        let silent = vols.get(link.us()).copied().unwrap_or(0) == 0;
        for ((a, c), &r) in alive.iter_mut().zip(constrained.iter_mut()).zip(row) {
            *c |= r;
            if silent {
                *a &= !r;
            }
        }
    }
}

/// Run the online localization loop.
///
/// * `candidates` — the configuration pool (e.g. the full schedule).
///   `candidates[0]` must be the currently-deployed baseline; it is always
///   "deployed" first.
/// * `prior` — per-candidate catchments measured before the attack
///   (`None` disables greedy selection).
/// * `observe` — the measurement callback: deploy a configuration, return
///   per-link spoofed volumes. In production this is the honeypot; in
///   simulation it propagates routes and attributes planted volumes.
/// * `measure_catchments` — returns the catchments to cluster with for a
///   deployed configuration (fresh measurement, or a stale `prior` reuse).
///
/// A tracked AS is a suspect once some deployed configuration observed it
/// on a link and no configuration observed it on a silent link (zero or
/// absent volume). That depends only on the AS's own catchment history,
/// which every member of its cluster shares, so the loop keeps no
/// clustering between rounds: two bitsets over AS index, `alive` and
/// `constrained`, take each deployed [`Catchments`] in word operations,
/// and the suspects are their AND. Greedy scoring reads that bitset as
/// [`MemberWords`]. Suspect clusters are whole clusters, and cluster ids
/// follow first appearance in `tracked`, so the final suspects come out in
/// the cluster order of a full clustering by refining only them, in
/// `tracked` order, over the deployed catchments once at the end. At
/// paper scale (seed 7, 2-vCPU host) that halves the benchmark's median
/// trial, from 0.29 ms with a clustering of every tracked AS refined each
/// round to 0.14 ms.
///
/// # Panics
/// Panics if `candidates` is empty, if `prior` does not hold one
/// catchment per candidate, or if a prior or measured catchment does not
/// cover every tracked AS.
pub fn localize_online(
    candidates: &[AnnouncementConfig],
    prior: Option<&[Catchments]>,
    tracked: &[AsIndex],
    observe: &VolumeOracle<'_>,
    measure_catchments: &dyn Fn(usize, &AnnouncementConfig) -> Catchments,
    opts: OnlineOptions,
) -> OnlineResult {
    assert!(!candidates.is_empty());
    let end = tracked.iter().map(|a| a.us() + 1).max().unwrap_or(0);
    if let Some(p) = prior {
        assert_eq!(p.len(), candidates.len());
        assert!(
            p.iter().all(|cat| end <= cat.len()),
            "tracked AS index {} out of a prior catchment's range",
            end - 1
        );
    }
    let mut alive = vec![0u64; end.div_ceil(64)];
    for a in tracked {
        alive[a.us() / 64] |= 1 << (a.us() % 64);
    }
    let mut constrained = vec![0u64; alive.len()];
    let mut suspects = alive.clone();
    // The suspect count: a popcount, unless `tracked` names an AS twice.
    let distinct = alive.iter().map(|w| w.count_ones() as usize).sum::<usize>() == tracked.len();
    let count = |bits: &[u64]| {
        if distinct {
            bits.iter().map(|w| w.count_ones() as usize).sum()
        } else {
            tracked.iter().filter(|&&a| has(bits, a)).count()
        }
    };
    let mut suspect_count = tracked.len();
    let mut deployed = Vec::new();
    let mut catchments: Vec<Catchments> = Vec::new();
    let mut remaining: Vec<usize> = (1..candidates.len()).collect();
    let mut trajectory = Vec::new();
    let prefixes = opts.prefixes.max(1);
    let mut rounds = 0usize;

    // Each candidate's greedy score against an earlier suspect set. The
    // score only falls as the suspects shrink, so while they do it bounds
    // the current score, and a pick skips every candidate whose bound
    // cannot beat the best score found so far.
    let mut bound = vec![usize::MAX; candidates.len()];
    let mut scored_against = vec![0u64; suspects.len()];

    // Round 1 always deploys the baseline (plus greedy picks when more
    // than one prefix is available).
    let mut batch: Vec<usize> = vec![0usize];
    loop {
        if suspects
            .iter()
            .zip(&scored_against)
            .any(|(&s, &was)| s & !was != 0)
        {
            bound.fill(usize::MAX);
        }
        scored_against.copy_from_slice(&suspects);
        let members = MemberWords::from_bitset(&suspects);
        // Top the batch up to the prefix budget.
        while batch.len() < prefixes
            && deployed.len() + batch.len() < opts.max_configs
            && !remaining.is_empty()
        {
            let pick = match (opts.greedy, prior) {
                // The candidate whose prior catchment splits the suspects
                // into the most parts; the first position on equal score.
                (true, Some(prior_cats)) => {
                    let mut best: Option<(usize, usize)> = None;
                    for (pos, &idx) in remaining.iter().enumerate() {
                        if best.is_some_and(|(score, _)| bound[idx] <= score) {
                            continue;
                        }
                        let score = prior_cats[idx].distinct_among_words(&members);
                        bound[idx] = score;
                        match best {
                            Some((top, _)) if score <= top => {}
                            _ => best = Some((score, pos)),
                        }
                    }
                    best.map(|(_, pos)| remaining.remove(pos))
                }
                _ => Some(remaining.remove(0)),
            };
            match pick {
                Some(idx) => batch.push(idx),
                None => break,
            }
        }
        if batch.is_empty() || deployed.len() >= opts.max_configs {
            break;
        }
        rounds += 1;
        for &choice in &batch {
            let cfg = &candidates[choice];
            let cat = measure_catchments(choice, cfg);
            let vols = observe(cfg);
            assert!(
                end <= cat.len(),
                "tracked AS index {} out of a measured catchment's range",
                end - 1
            );
            narrow(&cat, &vols, &mut alive, &mut constrained);
            catchments.push(cat);
            deployed.push(choice);
        }
        batch.clear();
        for ((s, &a), &c) in suspects.iter_mut().zip(&alive).zip(&constrained) {
            *s = a & c;
        }
        suspect_count = count(&suspects);
        trajectory.push(suspect_count);
        if suspect_count <= opts.target_suspects || remaining.is_empty() {
            break;
        }
    }
    let named = tracked.iter().copied().filter(|&a| has(&suspects, a));
    let suspects = cluster_catchments(named.collect(), &catchments)
        .iter_clusters()
        .flatten()
        .copied()
        .collect();
    OnlineResult {
        deployed,
        localized: suspect_count <= opts.target_suspects,
        suspects,
        suspect_trajectory: trajectory,
        rounds,
    }
}

/// The clustering loop [`localize_online`] replaced, kept as its
/// differential reference: refine one [`Clustering`] of every tracked AS
/// with each deployed configuration, rescan every cluster against every
/// catchment and volume vector after each round, and score each greedy
/// candidate by sorting and deduplicating its prior catchment's links over
/// the suspects, with no bound to skip a candidate.
#[cfg(any(test, feature = "reference"))]
pub fn localize_online_reference(
    candidates: &[AnnouncementConfig],
    prior: Option<&[Catchments]>,
    tracked: &[AsIndex],
    observe: &VolumeOracle<'_>,
    measure_catchments: &dyn Fn(usize, &AnnouncementConfig) -> Catchments,
    opts: OnlineOptions,
) -> OnlineResult {
    assert!(!candidates.is_empty());
    let mut clustering = Clustering::single(tracked.to_vec());
    let mut deployed = Vec::new();
    let mut catchments: Vec<Catchments> = Vec::new();
    let mut volumes: Vec<Vec<u64>> = Vec::new();
    let mut remaining: Vec<usize> = (1..candidates.len()).collect();
    let mut suspects: Vec<AsIndex> = tracked.to_vec();
    let mut trajectory = Vec::new();
    let prefixes = opts.prefixes.max(1);
    let mut rounds = 0usize;
    let mut batch: Vec<usize> = vec![0usize];
    loop {
        while batch.len() < prefixes
            && deployed.len() + batch.len() < opts.max_configs
            && !remaining.is_empty()
        {
            let pos = match (opts.greedy, prior) {
                (true, Some(prior_cats)) => {
                    let score = |idx: usize| {
                        let mut links: Vec<_> =
                            suspects.iter().map(|&a| prior_cats[idx].get(a)).collect();
                        links.sort_unstable();
                        links.dedup();
                        links.len()
                    };
                    let mut best = (0, score(remaining[0]));
                    for (pos, &idx) in remaining.iter().enumerate().skip(1) {
                        let s = score(idx);
                        if s > best.1 {
                            best = (pos, s);
                        }
                    }
                    best.0
                }
                _ => 0,
            };
            batch.push(remaining.remove(pos));
        }
        if batch.is_empty() || deployed.len() >= opts.max_configs {
            break;
        }
        rounds += 1;
        for &choice in &batch {
            let cfg = &candidates[choice];
            let cat = measure_catchments(choice, cfg);
            let vols = observe(cfg);
            clustering.refine(&cat);
            catchments.push(cat);
            volumes.push(vols);
            deployed.push(choice);
        }
        batch.clear();
        // Members of clusters observed on some link in some deployed
        // configuration and never on a silent one.
        suspects.clear();
        'cluster: for members in clustering.iter_clusters() {
            let mut constrained = false;
            for (cat, vols) in catchments.iter().zip(&volumes) {
                let Some(link) = cat.get(members[0]) else {
                    continue;
                };
                constrained = true;
                if vols.get(link.us()).copied().unwrap_or(0) == 0 {
                    continue 'cluster;
                }
            }
            if constrained {
                suspects.extend_from_slice(members);
            }
        }
        trajectory.push(suspects.len());
        if suspects.len() <= opts.target_suspects || remaining.is_empty() {
            break;
        }
    }
    OnlineResult {
        deployed,
        localized: suspects.len() <= opts.target_suspects,
        suspects,
        suspect_trajectory: trajectory,
        rounds,
    }
}

/// Simulation harness: run the online loop against ground-truth routing
/// with a planted per-AS volume vector.
///
/// Each deployed configuration's catchments come from
/// [`BgpEngine::deployed_catchments`]: `measure` reads the control plane
/// and `observe` attributes the planted volumes over the data plane. The
/// engine memoizes them per configuration, so only the first trial on an
/// engine to reach a configuration propagates it; every later trial, on
/// any thread, reads the stored catchments. A configuration has one
/// stable state (DESIGN.md §4b), so a hit equals what a fresh deployment
/// would report and the result does not depend on which trials ran
/// before.
///
/// # Panics
/// Panics if a candidate is invalid for `origin`.
pub fn simulate_online_attack(
    engine: &BgpEngine<'_>,
    origin: &OriginAs,
    candidates: &[AnnouncementConfig],
    prior: Option<&[Catchments]>,
    tracked: &[AsIndex],
    volume_per_as: &[u64],
    opts: OnlineOptions,
) -> OnlineResult {
    let deployed = |cfg: &AnnouncementConfig| {
        engine
            .deployed_catchments(origin, &cfg.to_link_announcements())
            .expect("valid config")
    };
    let observe = |cfg: &AnnouncementConfig| -> Vec<u64> {
        trackdown_traffic::volume_per_link(
            &deployed(cfg).data_plane,
            volume_per_as,
            origin.num_links(),
        )
    };
    let measure = |_idx: usize, cfg: &AnnouncementConfig| -> Catchments {
        deployed(cfg).control_plane.clone()
    };
    localize_online(candidates, prior, tracked, &observe, &measure, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{full_schedule, GeneratorParams};
    use crate::localize::{run_campaign, CampaignOpts};
    use trackdown_bgp::{EngineConfig, PolicyConfig};
    use trackdown_topology::gen::{generate, TopologyConfig};

    /// [`localize_online`] or its reference.
    type Loop = fn(
        &[AnnouncementConfig],
        Option<&[Catchments]>,
        &[AsIndex],
        &VolumeOracle<'_>,
        &dyn Fn(usize, &AnnouncementConfig) -> Catchments,
        OnlineOptions,
    ) -> OnlineResult;

    fn setup() -> (
        trackdown_topology::gen::GeneratedTopology,
        OriginAs,
        EngineConfig,
        Vec<AnnouncementConfig>,
    ) {
        let g = generate(&TopologyConfig::medium(91));
        let origin = OriginAs::peering_style(&g, 5);
        let cfg = EngineConfig {
            policy: PolicyConfig {
                seed: 7,
                violator_fraction: 0.05,
                no_loop_prevention_fraction: 0.02,
                tier1_poison_filtering: true,
                extensions: Default::default(),
            },
            ..EngineConfig::default()
        };
        let schedule = full_schedule(
            &g.topology,
            &origin,
            &GeneratorParams {
                max_removals: 2,
                max_poison_configs: Some(30),
            },
        );
        (g, origin, cfg, schedule)
    }

    /// Full results equal the clustering reference's on real routing:
    /// greedy and in order, one and four prefixes, with the callbacks of
    /// [`simulate_online_attack`].
    #[test]
    fn loop_matches_the_clustering_reference() {
        let (g, origin, cfg, schedule) = setup();
        let engine = BgpEngine::new(&g.topology, &cfg);
        let campaign = run_campaign(&engine, &origin, &schedule, &CampaignOpts::default())
            .expect("valid schedule");
        let deployed = |cfg: &AnnouncementConfig| {
            engine
                .deployed_catchments(&origin, &cfg.to_link_announcements())
                .expect("valid config")
        };
        let measure = |_idx: usize, cfg: &AnnouncementConfig| deployed(cfg).control_plane.clone();
        for k in 0..8 {
            let attacker = campaign.tracked[(k * 37 + 5) % campaign.tracked.len()];
            let mut vol = vec![0u64; g.topology.num_ases()];
            vol[attacker.us()] = 1_000;
            let observe = |cfg: &AnnouncementConfig| {
                trackdown_traffic::volume_per_link(
                    &deployed(cfg).data_plane,
                    &vol,
                    origin.num_links(),
                )
            };
            for (greedy, prefixes) in [(true, 1), (false, 1), (true, 4)] {
                let opts = OnlineOptions {
                    max_configs: 30,
                    target_suspects: 2,
                    greedy,
                    prefixes,
                };
                let run = |online: Loop| {
                    online(
                        &schedule,
                        Some(&campaign.catchments),
                        &campaign.tracked,
                        &observe,
                        &measure,
                        opts,
                    )
                };
                assert_eq!(
                    run(localize_online),
                    run(localize_online_reference),
                    "attacker {attacker:?}, {opts:?}"
                );
            }
        }
    }

    /// A measured catchment that does not cover every tracked AS panics,
    /// as refining a clustering with it does, rather than reading the
    /// uncovered ASes as unassigned.
    #[test]
    fn short_measured_catchment_panics() {
        let candidates = vec![AnnouncementConfig::anycast_all(2); 3];
        let tracked = [AsIndex(1), AsIndex(9), AsIndex(3)];
        let observe = |_: &AnnouncementConfig| vec![1u64, 1];
        let opts = OnlineOptions::default();
        for covered in [0, 5, 9] {
            let measure = move |_: usize, _: &AnnouncementConfig| {
                let mut cat = Catchments::unassigned(covered);
                for i in 0..covered.min(4) {
                    cat.set(AsIndex(i as u32), Some(trackdown_bgp::LinkId(0)));
                }
                cat
            };
            let panics = |online: Loop| {
                std::panic::catch_unwind(|| {
                    online(&candidates, None, &tracked, &observe, &measure, opts)
                })
                .is_err()
            };
            assert!(panics(localize_online), "{covered} of 10 ASes covered");
            assert!(panics(localize_online_reference), "reference, {covered}");
        }
    }

    #[test]
    fn online_loop_localizes_single_attacker() {
        let (g, origin, cfg, schedule) = setup();
        let engine = BgpEngine::new(&g.topology, &cfg);
        let campaign = run_campaign(&engine, &origin, &schedule, &CampaignOpts::default())
            .expect("valid schedule");
        let attacker = campaign.tracked[campaign.tracked.len() / 4];
        let mut vol = vec![0u64; g.topology.num_ases()];
        vol[attacker.us()] = 1_000;
        let result = simulate_online_attack(
            &engine,
            &origin,
            &schedule,
            Some(&campaign.catchments),
            &campaign.tracked,
            &vol,
            OnlineOptions {
                max_configs: 25,
                target_suspects: 5,
                greedy: true,
                prefixes: 1,
            },
        );
        assert!(result.suspects.contains(&attacker), "attacker escaped");
        // Trajectory is non-increasing.
        for w in result.suspect_trajectory.windows(2) {
            assert!(w[1] <= w[0]);
        }
        assert_eq!(result.deployed[0], 0, "baseline deployed first");
        assert_eq!(result.deployed.len(), result.suspect_trajectory.len());
    }

    #[test]
    fn greedy_needs_no_more_configs_than_sequential() {
        let (g, origin, cfg, schedule) = setup();
        let engine = BgpEngine::new(&g.topology, &cfg);
        let campaign = run_campaign(&engine, &origin, &schedule, &CampaignOpts::default())
            .expect("valid schedule");
        let mut greedy_total = 0usize;
        let mut seq_total = 0usize;
        for k in 0..6 {
            let attacker = campaign.tracked[(k * 31 + 11) % campaign.tracked.len()];
            let mut vol = vec![0u64; g.topology.num_ases()];
            vol[attacker.us()] = 1_000;
            let run = |greedy: bool| {
                simulate_online_attack(
                    &engine,
                    &origin,
                    &schedule,
                    Some(&campaign.catchments),
                    &campaign.tracked,
                    &vol,
                    OnlineOptions {
                        max_configs: 40,
                        target_suspects: 5,
                        greedy,
                        prefixes: 1,
                    },
                )
            };
            greedy_total += run(true).deployed.len();
            seq_total += run(false).deployed.len();
        }
        assert!(
            greedy_total <= seq_total,
            "greedy used {greedy_total} configs vs sequential {seq_total}"
        );
    }

    #[test]
    fn multiple_prefixes_cut_rounds() {
        let (g, origin, cfg, schedule) = setup();
        let engine = BgpEngine::new(&g.topology, &cfg);
        let campaign = run_campaign(&engine, &origin, &schedule, &CampaignOpts::default())
            .expect("valid schedule");
        let attacker = campaign.tracked[campaign.tracked.len() / 4];
        let mut vol = vec![0u64; g.topology.num_ases()];
        vol[attacker.us()] = 1_000;
        let run = |prefixes: usize| {
            simulate_online_attack(
                &engine,
                &origin,
                &schedule,
                Some(&campaign.catchments),
                &campaign.tracked,
                &vol,
                OnlineOptions {
                    max_configs: 30,
                    target_suspects: 5,
                    greedy: true,
                    prefixes,
                },
            )
        };
        let one = run(1);
        let four = run(4);
        // Rounds bookkeeping: one prefix = one config per round.
        assert_eq!(one.rounds, one.deployed.len());
        assert!(four.rounds <= four.deployed.len().div_ceil(4) + 1);
        // Concurrency never needs more rounds (it sees strictly more
        // information per round).
        assert!(four.rounds <= one.rounds);
        assert!(four.suspects.contains(&attacker));
    }

    #[test]
    fn budget_exhaustion_reports_not_localized() {
        let (g, origin, cfg, schedule) = setup();
        let engine = BgpEngine::new(&g.topology, &cfg);
        let campaign = run_campaign(&engine, &origin, &schedule, &CampaignOpts::default())
            .expect("valid schedule");
        let attacker = campaign.tracked[1];
        let mut vol = vec![0u64; g.topology.num_ases()];
        vol[attacker.us()] = 1_000;
        let result = simulate_online_attack(
            &engine,
            &origin,
            &schedule,
            Some(&campaign.catchments),
            &campaign.tracked,
            &vol,
            OnlineOptions {
                max_configs: 1, // only the baseline
                target_suspects: 1,
                greedy: true,
                prefixes: 1,
            },
        );
        assert_eq!(result.deployed.len(), 1);
        // A single anycast cannot isolate one AS out of hundreds.
        assert!(!result.localized);
        assert!(result.suspects.len() > 1);
        // But the attacker is still within the (large) suspect set.
        assert!(result.suspects.contains(&attacker));
    }
}
