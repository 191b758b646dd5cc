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

use crate::cluster::Clustering;
use crate::config::AnnouncementConfig;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use trackdown_bgp::{BgpEngine, Catchments, LinkId, OriginAs, RoutingOutcome};
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

/// Suspects under the current observations: members of clusters whose
/// link carried volume in *every* deployed configuration.
///
/// This is the from-scratch rescan (materialize clusters, re-read every
/// catchment and volume vector per round). The online loop now maintains
/// the same per-cluster state incrementally through refinement deltas —
/// see [`SuspectState`] — and checks itself against this reference under
/// `debug_assertions`.
fn current_suspects(
    clustering: &Clustering,
    catchments: &[Catchments],
    volumes: &[Vec<u64>],
) -> Vec<AsIndex> {
    let mut out = Vec::new();
    'cluster: for members in clustering.iter_clusters() {
        let rep = members[0];
        let mut constrained = false;
        for (cat, vols) in catchments.iter().zip(volumes) {
            let Some(link) = cat.get(rep) else { continue };
            constrained = true;
            if vols.get(link.us()).copied().unwrap_or(0) == 0 {
                continue 'cluster;
            }
        }
        if constrained {
            out.extend_from_slice(members);
        }
    }
    out
}

/// Per-cluster suspect bookkeeping maintained incrementally across the
/// online loop: `constrained[c]` = the lineage of cluster `c` was observed
/// on some link in at least one deployed configuration, `alive[c]` = no
/// observed link of the lineage was ever silent. Because all members of a
/// cluster share their full catchment history, both flags survive splits
/// unchanged — children simply inherit them through the delta's parent
/// mapping.
struct SuspectState {
    constrained: Vec<bool>,
    alive: Vec<bool>,
}

impl SuspectState {
    fn new(clustering: &Clustering) -> SuspectState {
        SuspectState {
            constrained: vec![false; clustering.num_clusters()],
            alive: vec![true; clustering.num_clusters()],
        }
    }

    /// Re-key through one refinement delta and fold in the new
    /// configuration's volumes (absent entries read as silent, matching
    /// the rescan reference).
    fn apply(&mut self, delta: &crate::cluster::RefineDelta, vols: &[u64]) {
        let mut next_constrained = Vec::with_capacity(delta.num_clusters());
        let mut next_alive = Vec::with_capacity(delta.num_clusters());
        for (c, &parent) in delta.parent_of.iter().enumerate() {
            let mut constrained = self.constrained[parent as usize];
            let mut alive = self.alive[parent as usize];
            if let Some(link) = delta.link_of[c] {
                constrained = true;
                if vols.get(link.us()).copied().unwrap_or(0) == 0 {
                    alive = false;
                }
            }
            next_constrained.push(constrained);
            next_alive.push(alive);
        }
        self.constrained = next_constrained;
        self.alive = next_alive;
    }

    /// Members of every constrained, never-exonerated cluster, in cluster
    /// id order (identical to [`current_suspects`] output order).
    fn suspects(&self, clustering: &Clustering) -> Vec<AsIndex> {
        let mut out = Vec::new();
        for (c, members) in clustering.iter_clusters().enumerate() {
            if self.constrained[c] && self.alive[c] {
                out.extend_from_slice(members);
            }
        }
        out
    }
}

/// Expected number of suspect-set parts configuration `cat` produces,
/// judged on prior catchments (the greedy scoring step).
fn split_score(suspects: &[AsIndex], cat: &Catchments) -> usize {
    let mut links: Vec<Option<LinkId>> = suspects.iter().map(|&s| cat.get(s)).collect();
    links.sort_unstable();
    links.dedup();
    links.len()
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
pub fn localize_online(
    candidates: &[AnnouncementConfig],
    prior: Option<&[Catchments]>,
    tracked: &[AsIndex],
    observe: &VolumeOracle<'_>,
    measure_catchments: &dyn Fn(usize, &AnnouncementConfig) -> Catchments,
    opts: OnlineOptions,
) -> OnlineResult {
    assert!(!candidates.is_empty());
    if let Some(p) = prior {
        assert_eq!(p.len(), candidates.len());
    }
    let mut clustering = Clustering::single(tracked.to_vec());
    let mut state = SuspectState::new(&clustering);
    let mut deployed = Vec::new();
    let mut catchments: Vec<Catchments> = Vec::new();
    let mut volumes: Vec<Vec<u64>> = Vec::new();
    let mut remaining: Vec<usize> = (1..candidates.len()).collect();
    let mut suspects: Vec<AsIndex> = tracked.to_vec();
    let mut trajectory = Vec::new();
    let prefixes = opts.prefixes.max(1);
    let mut rounds = 0usize;

    // Round 1 always deploys the baseline (plus greedy picks when more
    // than one prefix is available).
    let mut batch: Vec<usize> = vec![0usize];
    loop {
        // Top the batch up to the prefix budget.
        while batch.len() < prefixes
            && deployed.len() + batch.len() < opts.max_configs
            && !remaining.is_empty()
        {
            let pick = match (opts.greedy, prior) {
                (true, Some(prior_cats)) => {
                    let mut best: Option<(usize, usize)> = None; // (pos, score)
                    for (pos, &idx) in remaining.iter().enumerate() {
                        let score = split_score(&suspects, &prior_cats[idx]);
                        let better = match best {
                            None => true,
                            Some((_, s)) => score > s,
                        };
                        if better {
                            best = Some((pos, score));
                        }
                    }
                    best.map(|(pos, _)| remaining.remove(pos))
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
            let delta = clustering.refine_logged(&cat);
            state.apply(&delta, &vols);
            catchments.push(cat);
            volumes.push(vols);
            deployed.push(choice);
        }
        batch.clear();
        suspects = state.suspects(&clustering);
        // The incremental state must agree with the from-scratch rescan
        // every round (cheap insurance; the rescan is the old hot path).
        debug_assert_eq!(
            suspects,
            current_suspects(&clustering, &catchments, &volumes)
        );
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
/// with a planted per-AS volume vector. Returns the result plus the number
/// of configurations deployed.
///
/// Routing runs through one persistent warm
/// [`CampaignSession`](trackdown_bgp::CampaignSession): each
/// deployed configuration is an epoch transition from the previous one
/// (exactly what the live origin would do), and a memo cache keyed by the
/// canonical announcement footprint lets the observe and measure callbacks
/// for the same configuration share a single propagation. Fixpoint
/// uniqueness keeps the outcomes identical to per-callback cold starts.
pub fn simulate_online_attack(
    engine: &BgpEngine<'_>,
    origin: &OriginAs,
    candidates: &[AnnouncementConfig],
    prior: Option<&[Catchments]>,
    tracked: &[AsIndex],
    volume_per_as: &[u64],
    opts: OnlineOptions,
) -> OnlineResult {
    let session = RefCell::new(engine.session());
    let memo: RefCell<HashMap<String, Rc<RoutingOutcome>>> = RefCell::new(HashMap::new());
    let outcome_for = |cfg: &AnnouncementConfig| -> Rc<RoutingOutcome> {
        let key = cfg.footprint_key();
        if let Some(out) = memo.borrow().get(&key) {
            return Rc::clone(out);
        }
        let out = Rc::new(
            session
                .borrow_mut()
                .deploy_config(origin, &cfg.to_link_announcements(), 200)
                .expect("valid config"),
        );
        memo.borrow_mut().insert(key, Rc::clone(&out));
        out
    };
    let observe = |cfg: &AnnouncementConfig| -> Vec<u64> {
        let cat = Catchments::from_data_plane(&outcome_for(cfg));
        trackdown_traffic::volume_per_link(&cat, volume_per_as, origin.num_links())
    };
    let measure = |_idx: usize, cfg: &AnnouncementConfig| -> Catchments {
        Catchments::from_control_plane(&outcome_for(cfg))
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
