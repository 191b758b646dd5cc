//! The end-to-end localization pipeline: deploy configurations, obtain
//! catchments (true or measured), refine clusters, and correlate spoofed
//! traffic volumes to rank suspect clusters.

use crate::cluster::{ClusterSplit, Clustering, RefineDelta};
use crate::config::{AnnouncementConfig, ConfigError};
use crate::schedule::warm_start_order;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use trackdown_bgp::{BgpEngine, Catchments, LinkId, OriginAs, OriginError, SnapshotDetail};
use trackdown_measure::{
    analysis_set, impute_visibility, ImputationStats, MeasuredCatchments, MeasurementPlane,
};
use trackdown_obs::{CampaignRecorder, EpochMode, EpochRecord};
use trackdown_topology::AsIndex;
use trackdown_traffic::VolumeAccumulator;

pub use trackdown_bgp::CampaignMode;

/// How catchments are obtained for each configuration.
#[derive(Debug, Clone, Copy)]
pub enum CatchmentSource<'p> {
    /// Ground-truth control-plane catchments (oracle; isolates the
    /// algorithms from measurement noise).
    ControlPlane,
    /// Ground-truth data-plane catchments (what traffic actually does).
    DataPlane,
    /// Measured through this observation plane with §IV-d visibility
    /// imputation.
    Measured(&'p MeasurementPlane),
}

/// Executor counters reported alongside a [`Campaign`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignStats {
    /// The routing sessions' reuse policy.
    pub mode: CampaignMode,
    /// Fixpoint computations actually run (≤ number of configurations
    /// when the memo cache hits).
    pub propagations: usize,
    /// Configurations served from the footprint memo cache without
    /// touching the engine.
    pub memo_hits: usize,
    /// Warm epochs that hit the event cap and were redone cold.
    pub cold_restarts: usize,
    /// Deployed epochs that reused no routing state, whatever the cause:
    /// a worker's first deployment, the violator gate, an event-cap
    /// restart, or [`CampaignMode::Cold`]. Equal to `propagations` when
    /// no epoch was warm.
    pub cold_epochs: usize,
    /// Worker threads used.
    pub threads: usize,
    /// High-water node count of the interned path arena (max over
    /// workers): the steady-state memory footprint of warm reuse.
    pub peak_arena_nodes: usize,
    /// Sum over deployed epochs of the ASes whose best route differs from
    /// the previous epoch's fixpoint (memo hits contribute 0) — the
    /// workload [`CampaignMode::Delta`] makes epoch cost proportional to.
    pub routes_disturbed: usize,
    /// Total propagation events (per-AS decide/export activations) across
    /// every deployed epoch. Deterministic for a fixed scenario and mode,
    /// so warm/delta event ratios are comparable across machines — the
    /// work-unit metric the bench snapshot's `delta_speedup` reports.
    pub events: usize,
}

impl Default for CampaignStats {
    fn default() -> CampaignStats {
        CampaignStats {
            mode: CampaignMode::Warm,
            propagations: 0,
            memo_hits: 0,
            cold_restarts: 0,
            cold_epochs: 0,
            threads: 1,
            peak_arena_nodes: 0,
            routes_disturbed: 0,
            events: 0,
        }
    }
}

/// Per-configuration snapshot recorded while a campaign runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigRecord {
    /// Mean cluster size after this configuration.
    pub mean_cluster_size: f64,
    /// 90th-percentile cluster size after this configuration.
    pub p90_cluster_size: usize,
    /// Number of clusters after this configuration.
    pub num_clusters: usize,
    /// Whether propagation converged.
    pub converged: bool,
}

/// The refinement history of a campaign, indexed for incremental
/// attribution: one [`RefineDelta`] per configuration, recording how the
/// partition evolved (old→new cluster mapping, per-cluster catchment
/// link, split log).
///
/// This is what lets [`rank_suspects`], [`estimate_cluster_volumes`] and
/// [`match_fraction_scores`] walk cluster *lineages* — inheriting each
/// parent's accumulated volume bound across splits — instead of rescanning
/// every catchment per final cluster the way the `*_rescan` references do.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttributionIndex {
    /// Clusters before the first refinement (1, or 0 when nothing is
    /// tracked).
    initial_clusters: u32,
    /// One delta per configuration, in schedule order.
    deltas: Vec<RefineDelta>,
    /// `1 + max(link id)` over every catchment link a tracked cluster
    /// landed on — the minimum width a per-configuration volume vector
    /// must have for attribution to read it without fabricating zeros.
    num_links: usize,
}

impl AttributionIndex {
    /// Assemble an index from the deltas of a refinement run.
    pub fn new(initial_clusters: u32, deltas: Vec<RefineDelta>) -> AttributionIndex {
        let num_links = deltas
            .iter()
            .flat_map(|d| d.link_of.iter().flatten())
            .map(|l| l.us() + 1)
            .max()
            .unwrap_or(0);
        AttributionIndex {
            initial_clusters,
            deltas,
            num_links,
        }
    }

    /// Refine `tracked` over `catchments` in schedule order, returning the
    /// final partition together with its attribution index — the
    /// standalone analog of what campaign assembly does.
    pub fn build(
        tracked: Vec<AsIndex>,
        catchments: &[Catchments],
    ) -> (Clustering, AttributionIndex) {
        let mut clustering = Clustering::single(tracked);
        let initial = clustering.num_clusters() as u32;
        let deltas = catchments
            .iter()
            .map(|cat| clustering.refine_logged(cat))
            .collect();
        (clustering, AttributionIndex::new(initial, deltas))
    }

    /// Number of configurations indexed.
    pub fn num_configs(&self) -> usize {
        self.deltas.len()
    }

    /// Minimum width of a per-configuration link-volume vector: one entry
    /// per link id up to the largest any tracked cluster was routed to.
    pub fn num_links(&self) -> usize {
        self.num_links
    }

    /// Number of clusters after the final configuration.
    pub fn final_num_clusters(&self) -> usize {
        self.deltas
            .last()
            .map(|d| d.num_clusters())
            .unwrap_or(self.initial_clusters as usize)
    }

    /// The full delta of configuration `k`.
    pub fn delta(&self, k: usize) -> &RefineDelta {
        &self.deltas[k]
    }

    /// The split log of configuration `k`: which clusters split, into
    /// what.
    pub fn split_log(&self, k: usize) -> &[ClusterSplit] {
        &self.deltas[k].splits
    }

    /// Total number of splits across the whole campaign.
    pub fn total_splits(&self) -> usize {
        self.deltas.iter().map(|d| d.splits.len()).sum()
    }

    /// Reconstruct, for every *final* cluster, the catchment link it (that
    /// is, its ancestor at the time) was routed to in each configuration —
    /// by walking parent chains backward through the deltas. O(final
    /// clusters × configurations), no catchment lookups.
    pub fn final_links(&self) -> Vec<Vec<Option<LinkId>>> {
        let kk = self.deltas.len();
        let final_n = self.final_num_clusters();
        let mut rows: Vec<Vec<Option<LinkId>>> = vec![vec![None; kk]; final_n];
        let mut anc: Vec<u32> = (0..final_n as u32).collect();
        for k in (0..kk).rev() {
            let d = &self.deltas[k];
            for (c, row) in rows.iter_mut().enumerate() {
                let a = anc[c] as usize;
                row[k] = d.link_of[a];
                anc[c] = d.parent_of[a];
            }
        }
        rows
    }
}

/// The result of deploying a configuration schedule.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// The deployed configurations, in order.
    pub configs: Vec<AnnouncementConfig>,
    /// Catchments per configuration (over all ASes; restricted to the
    /// tracked set during clustering).
    pub catchments: Vec<Catchments>,
    /// The tracked sources (everything reachable/observed at baseline).
    pub tracked: Vec<AsIndex>,
    /// Final clustering.
    pub clustering: Clustering,
    /// Refinement history indexed for incremental attribution.
    pub attribution: AttributionIndex,
    /// Per-configuration progress (Figure 4's series).
    pub records: Vec<ConfigRecord>,
    /// Visibility-imputation statistics (measured campaigns only).
    pub imputation: Option<ImputationStats>,
    /// Executor counters (mode, propagations, memo hits).
    pub stats: CampaignStats,
}

/// Options of one [`run_campaign`] call. The default is a one-thread
/// [`CampaignMode::Warm`] campaign over control-plane catchments, with
/// the engine's default event cap and no recorder.
#[derive(Debug, Clone, Copy)]
pub struct CampaignOpts<'a> {
    /// How catchments are obtained for each configuration.
    pub source: CatchmentSource<'a>,
    /// How each worker's routing session reuses state between epochs.
    pub mode: CampaignMode,
    /// Worker threads: the schedule splits into this many contiguous
    /// chunks (fewer when the schedule is shorter; 0 counts as 1).
    pub threads: usize,
    /// Collects one [`EpochRecord`] per configuration for the JSONL run
    /// manifest. It only *reads* each deployment's outcome after the
    /// fact, so it cannot perturb the campaign.
    pub recorder: Option<&'a CampaignRecorder>,
    /// Event cap per deployment, as a multiple of the AS count.
    pub max_events_factor: usize,
}

impl Default for CampaignOpts<'_> {
    fn default() -> Self {
        CampaignOpts {
            source: CatchmentSource::ControlPlane,
            mode: CampaignMode::Warm,
            threads: 1,
            recorder: None,
            max_events_factor: 200,
        }
    }
}

/// Why [`run_campaign`] refused a schedule. Input is checked before any
/// deployment, so a refused campaign does no routing work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignError {
    /// The schedule has no configurations.
    EmptySchedule,
    /// Configuration `index` is not a valid ⟨A;P;Q⟩ for the origin.
    InvalidConfig {
        /// Schedule index of the configuration.
        index: usize,
        /// What is wrong with it.
        error: ConfigError,
    },
    /// Configuration `index` cannot be announced by the origin (e.g. more
    /// poisons than the platform allows).
    Unannounceable {
        /// Schedule index of the configuration.
        index: usize,
        /// What the origin rejected.
        error: OriginError,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::EmptySchedule => write!(f, "empty schedule"),
            CampaignError::InvalidConfig { index, error } => {
                write!(f, "configuration {index} is invalid: {error}")
            }
            CampaignError::Unannounceable { index, error } => {
                write!(f, "configuration {index} cannot be announced: {error}")
            }
        }
    }
}

impl std::error::Error for CampaignError {}

/// Deploy every configuration and cluster the catchments.
///
/// The tracked-source rule follows §IV-d: sources covered by the *first*
/// configuration (the full anycast baseline) are tracked; for measured
/// campaigns, missing observations in later configurations are imputed
/// via `smax` before clustering.
///
/// The schedule splits into `opts.threads` contiguous chunks — the
/// simulation analog of the paper's §V-C speed-up of deploying
/// configurations concurrently on several prefixes. Each worker owns one
/// routing session in `opts.mode` and a footprint memo, and deploys its
/// chunk in [`warm_start_order`] (schedule order for
/// [`CampaignMode::Cold`]); the calling thread works the first chunk
/// itself, so a one-thread campaign spawns nothing. Results are stored
/// by schedule index and clustering refines in schedule order, so the
/// campaign — catchments, tracked set, clusters, records — is identical
/// for every mode and thread count: each deployment's outcome is its
/// configuration's cold-start fixpoint (sessions cold-start internally
/// on violator engines, where fixpoints are history-dependent), the memo
/// only replays identical footprints, and the observation plane salts
/// its noise by schedule index. Only `stats` and the per-epoch recorder
/// counters describe the executor shape: memo hits never cross chunks,
/// and each worker warm-starts its own chain.
///
/// The memo is off for measured campaigns: duplicate footprints still
/// measure differently under index-salted noise.
///
/// # Errors
/// [`CampaignError`] for an empty schedule or a configuration the origin
/// cannot announce, before any deployment runs.
pub fn run_campaign(
    engine: &BgpEngine<'_>,
    origin: &OriginAs,
    configs: &[AnnouncementConfig],
    opts: &CampaignOpts<'_>,
) -> Result<Campaign, CampaignError> {
    if configs.is_empty() {
        return Err(CampaignError::EmptySchedule);
    }
    for (index, cfg) in configs.iter().enumerate() {
        cfg.validate(origin)
            .map_err(|error| CampaignError::InvalidConfig { index, error })?;
        origin
            .build_injections(engine.topology(), &cfg.to_link_announcements())
            .map_err(|error| CampaignError::Unannounceable { index, error })?;
    }
    let _span = trackdown_obs::span("campaign.run");
    let chunk_size = configs.len().div_ceil(opts.threads.max(1));
    let mut chunks = configs.chunks(chunk_size).enumerate();
    let (_, first) = chunks.next().expect("non-empty schedule");
    let outputs: Vec<ChunkOutput> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .map(|(t, chunk)| {
                scope.spawn(move || run_chunk(engine, origin, opts, t, t * chunk_size, chunk))
            })
            .collect();
        let mut outputs = vec![run_chunk(engine, origin, opts, 0, 0, first)];
        outputs.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("campaign worker panicked")),
        );
        outputs
    });

    let mut stats = CampaignStats {
        mode: opts.mode,
        threads: outputs.len(),
        ..CampaignStats::default()
    };
    let mut catchments = Vec::with_capacity(configs.len());
    let mut measured = Vec::new();
    let mut converged = Vec::with_capacity(configs.len());
    // Chunks are contiguous and in order, so concatenation restores the
    // schedule order.
    for out in outputs {
        catchments.extend(out.catchments);
        measured.extend(out.measured);
        converged.extend(out.converged);
        stats.propagations += out.stats.propagations;
        stats.memo_hits += out.stats.memo_hits;
        stats.cold_restarts += out.stats.cold_restarts;
        stats.cold_epochs += out.stats.cold_epochs;
        stats.routes_disturbed += out.stats.routes_disturbed;
        stats.events += out.stats.events;
        // Per-worker arenas: the campaign's footprint is the largest
        // single arena, not the sum.
        stats.peak_arena_nodes = stats.peak_arena_nodes.max(out.stats.peak_arena_nodes);
    }
    let (catchments, tracked, imputation) = match opts.source {
        CatchmentSource::Measured(_) => {
            let istats = impute_visibility(&mut measured, 0);
            let tracked = analysis_set(&measured, 0);
            let catchments = measured.into_iter().map(|m| m.catchments).collect();
            (catchments, tracked, Some(istats))
        }
        CatchmentSource::ControlPlane | CatchmentSource::DataPlane => {
            // Track every source the baseline reaches.
            let tracked: Vec<AsIndex> = engine
                .topology()
                .indices()
                .filter(|&i| catchments[0].is_assigned(i))
                .collect();
            (catchments, tracked, None)
        }
    };
    Ok(assemble_campaign(
        configs, catchments, converged, tracked, imputation, stats,
    ))
}

/// What one worker produced for its chunk, in chunk order. Exactly one
/// of `catchments` (ground truth) and `measured` is filled.
struct ChunkOutput {
    catchments: Vec<Catchments>,
    measured: Vec<MeasuredCatchments>,
    converged: Vec<bool>,
    stats: CampaignStats,
}

/// Deploy one contiguous chunk of the schedule, starting at schedule
/// index `base`, through one routing session on worker `thread`.
fn run_chunk(
    engine: &BgpEngine<'_>,
    origin: &OriginAs,
    opts: &CampaignOpts<'_>,
    thread: usize,
    base: usize,
    chunk: &[AnnouncementConfig],
) -> ChunkOutput {
    let mode = opts.mode;
    let order: Vec<usize> = match mode {
        CampaignMode::Warm | CampaignMode::Delta => warm_start_order(chunk),
        CampaignMode::Cold => (0..chunk.len()).collect(),
    };
    // Only measured campaigns read path contents (BGP feed collection),
    // and nothing here reads candidate RIBs; ground truth gets the cheap
    // Catchments-detail snapshot. Duplicate footprints have identical
    // fixpoints, so ground truth memoizes them.
    let (detail, memoize) = match opts.source {
        CatchmentSource::Measured(_) => (SnapshotDetail::Paths, false),
        _ => (SnapshotDetail::Catchments, mode != CampaignMode::Cold),
    };
    let mut session = engine.session_with(mode);
    let mut memo: HashMap<String, usize> = HashMap::new();
    let mut truth: Vec<Option<Catchments>> = vec![None; chunk.len()];
    let mut measured: Vec<Option<MeasuredCatchments>> = (0..chunk.len()).map(|_| None).collect();
    let mut converged = vec![false; chunk.len()];
    let mut stats = CampaignStats::default();
    // Delta mode patches control-plane catchments from the epoch change
    // log instead of re-extracting: the last *deployed* (not
    // memo-replayed) epoch is the patch base.
    let mut last_deployed: Option<usize> = None;
    for &off in &order {
        let cfg = &chunk[off];
        let epoch = base + off;
        if memoize {
            let key = cfg.footprint_key();
            if let Some(&j) = memo.get(&key) {
                stats.memo_hits += 1;
                truth[off] = truth[j].clone();
                converged[off] = converged[j];
                if let Some(rec) = opts.recorder {
                    rec.record(EpochRecord {
                        epoch,
                        footprint: key,
                        mode: EpochMode::Memo,
                        thread,
                        events: 0,
                        rounds: 0,
                        changes: 0,
                        routes_disturbed: 0,
                        converged: converged[off],
                        wall_us: None,
                    });
                }
                continue;
            }
            memo.insert(key, off);
        }
        let _span = trackdown_obs::span("worker.epoch").attr("epoch", epoch as u64);
        let timer = opts.recorder.and_then(|r| r.start_timer());
        let outcome = session
            .deploy_config_detailed(
                origin,
                &cfg.to_link_announcements(),
                opts.max_events_factor,
                detail,
            )
            .expect("configurations are validated before deployment");
        let warm = session.last_deploy_warm();
        if let Some(rec) = opts.recorder {
            rec.record(EpochRecord {
                epoch,
                footprint: cfg.footprint_key(),
                mode: match (warm, mode) {
                    (false, _) => EpochMode::Cold,
                    (true, CampaignMode::Delta) => EpochMode::Delta,
                    (true, _) => EpochMode::Warm,
                },
                thread,
                events: outcome.events,
                rounds: outcome.rounds,
                changes: outcome.changes.len(),
                routes_disturbed: outcome.routes_disturbed,
                converged: outcome.converged,
                wall_us: rec.elapsed_us(timer),
            });
        }
        stats.propagations += 1;
        stats.cold_epochs += usize::from(!warm);
        stats.routes_disturbed += outcome.routes_disturbed;
        stats.events += outcome.events;
        converged[off] = outcome.converged;
        match opts.source {
            CatchmentSource::Measured(plane) => {
                measured[off] =
                    Some(plane.measure(engine.topology(), &outcome, origin.asn, epoch as u64));
            }
            CatchmentSource::ControlPlane => {
                // A delta epoch's change log lists exactly the ASes whose
                // best route moved, so the previous catchments patch
                // forward in O(changes).
                let base = last_deployed.filter(|_| warm && mode == CampaignMode::Delta);
                truth[off] = Some(match base {
                    Some(j) => {
                        let mut c = truth[j].clone().expect("deployed epoch extracted");
                        for ch in &outcome.changes {
                            c.set(ch.at, ch.ingress);
                        }
                        c
                    }
                    None => Catchments::from_control_plane(&outcome),
                });
                last_deployed = Some(off);
            }
            // Data-plane catchments always need a full walk: a hop change
            // can reroute sources whose own best route is untouched.
            CatchmentSource::DataPlane => {
                truth[off] = Some(Catchments::from_data_plane(&outcome));
            }
        }
    }
    stats.cold_restarts = session.cold_restarts();
    stats.peak_arena_nodes = session.peak_arena_nodes();
    ChunkOutput {
        catchments: truth.into_iter().flatten().collect(),
        measured: measured.into_iter().flatten().collect(),
        converged,
        stats,
    }
}

/// Cluster the catchments and assemble the final [`Campaign`].
/// Refinement runs in schedule (index) order, so campaigns are identical
/// however the executor ordered deployments.
fn assemble_campaign(
    configs: &[AnnouncementConfig],
    catchments: Vec<Catchments>,
    converged: Vec<bool>,
    tracked: Vec<AsIndex>,
    imputation: Option<ImputationStats>,
    stats: CampaignStats,
) -> Campaign {
    let _span = trackdown_obs::span("campaign.cluster");
    trackdown_obs::counter!("campaign.runs").inc();
    trackdown_obs::counter!("campaign.propagations").add(stats.propagations as u64);
    trackdown_obs::counter!("campaign.memo_hits").add(stats.memo_hits as u64);
    trackdown_obs::counter!("campaign.cold_restarts").add(stats.cold_restarts as u64);
    trackdown_obs::counter!("campaign.cold_epochs").add(stats.cold_epochs as u64);
    let mut clustering = Clustering::single(tracked.clone());
    let initial_clusters = clustering.num_clusters() as u32;
    let mut deltas = Vec::with_capacity(configs.len());
    let mut records = Vec::with_capacity(configs.len());
    for (k, cat) in catchments.iter().enumerate() {
        deltas.push(clustering.refine_logged(cat));
        let cstats = clustering.stats();
        records.push(ConfigRecord {
            mean_cluster_size: clustering.mean_size(),
            p90_cluster_size: cstats.p90,
            num_clusters: clustering.num_clusters(),
            converged: converged[k],
        });
    }
    Campaign {
        configs: configs.to_vec(),
        catchments,
        tracked,
        clustering,
        attribution: AttributionIndex::new(initial_clusters, deltas),
        records,
        imputation,
        stats,
    }
}

/// A cluster ranked by how much spoofed volume it can explain.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SuspectCluster {
    /// Index into `Campaign::clustering.clusters()`.
    pub cluster: usize,
    /// Member sources.
    pub members: Vec<AsIndex>,
    /// Upper bound on the spoofed volume this cluster can originate: the
    /// minimum, over configurations, of the volume observed on the link
    /// the cluster was routed to. Clusters whose link saw zero volume in
    /// any configuration cannot contain sources and are excluded.
    pub volume_upper_bound: u64,
}

/// Check the volume matrix against the campaign's shape: one row per
/// configuration, each row *exactly* as wide as the attribution plane —
/// every link a tracked cluster was routed to, and nothing more. Short
/// rows would otherwise read as zero volume and silently *exonerate*
/// clusters on missing data; over-wide rows carry entries no tracked
/// cluster can ever be matched against, which almost always means the
/// caller built the matrix against the wrong width (e.g. the origin's
/// full link count) and the surplus volume would be silently dropped.
fn validate_link_volumes(campaign: &Campaign, link_volumes: &[Vec<u64>]) {
    assert_eq!(
        link_volumes.len(),
        campaign.catchments.len(),
        "one volume vector per configuration"
    );
    let need = campaign.attribution.num_links();
    for (k, row) in link_volumes.iter().enumerate() {
        assert!(
            row.len() >= need,
            "link_volumes[{k}] covers {} links but the campaign routed tracked \
             clusters to links up to id {}; missing entries would read as zero \
             volume and silently exonerate clusters",
            row.len(),
            need - 1
        );
        assert!(
            row.len() == need,
            "link_volumes[{k}] covers {} links but the campaign's attribution \
             plane spans exactly {need}; the extra entries belong to no tracked \
             cluster and would be silently ignored — trim the rows with \
             fit_link_volumes or build them with link_volume_matrix",
            row.len()
        );
    }
}

/// Check an accumulator's shape against the campaign: same contract as the
/// dense-matrix validation — one configuration per campaign configuration
/// and exactly the attribution plane's link width.
fn validate_accumulator<A: VolumeAccumulator + ?Sized>(campaign: &Campaign, acc: &A) {
    assert_eq!(
        acc.num_configs(),
        campaign.catchments.len(),
        "one accumulator configuration per campaign configuration"
    );
    let need = campaign.attribution.num_links();
    assert!(
        acc.num_links() >= need,
        "accumulator covers {} links but the campaign routed tracked clusters \
         to links up to id {}; missing counters would read as zero volume and \
         silently exonerate clusters",
        acc.num_links(),
        need - 1
    );
    assert!(
        acc.num_links() == need,
        "accumulator covers {} links but the campaign's attribution plane \
         spans exactly {need}; the extra counters belong to no tracked cluster \
         and would be silently ignored",
        acc.num_links()
    );
}

/// Adapt honeypot-shaped volume rows (width = the origin's full link
/// count) to the attribution plane's exact width contract: rows are
/// truncated to [`AttributionIndex::num_links`]. The dropped tail entries
/// are links no tracked cluster was ever routed to, so they can never
/// constrain (or exonerate) any cluster.
///
/// # Panics
/// If a row is *narrower* than the attribution width (the silent-
/// exoneration hazard — see [`rank_suspects`]), or the row count does not
/// match the campaign's configuration count.
pub fn fit_link_volumes(campaign: &Campaign, mut rows: Vec<Vec<u64>>) -> Vec<Vec<u64>> {
    assert_eq!(
        rows.len(),
        campaign.catchments.len(),
        "one volume vector per configuration"
    );
    let need = campaign.attribution.num_links();
    for (k, row) in rows.iter_mut().enumerate() {
        assert!(
            row.len() >= need,
            "link_volumes[{k}] covers {} links but the campaign routed tracked \
             clusters to links up to id {}; missing entries would read as zero \
             volume and silently exonerate clusters",
            row.len(),
            need - 1
        );
        row.truncate(need);
    }
    rows
}

/// Correlate per-configuration, per-link spoofed volumes (honeypot
/// reports) with the clustering to rank suspect clusters (§I's Figure 1
/// narrative, generalized to simultaneous sources).
///
/// `link_volumes[k][l]` = spoofed bytes on link `l` during configuration
/// `k`. Requires the same configuration order as the campaign.
///
/// Bounds are maintained *incrementally* along the campaign's
/// [`AttributionIndex`]: one forward pass over the refinement deltas, with
/// each split's children inheriting the parent's accumulated min-bound
/// (valid because a child's catchment history is its parent's history
/// extended by one configuration). Output is identical to the from-scratch
/// [`rank_suspects_rescan`] reference — proven by the differential suite —
/// without materializing `clusters()` or scanning catchments per cluster.
///
/// # Panics
/// If `link_volumes` does not have exactly one row per configuration, or
/// any row is narrower than [`AttributionIndex::num_links`] — every link a
/// tracked cluster landed on needs an entry (zero means "measured silent",
/// absence is a caller bug; see the width contract in DESIGN.md).
pub fn rank_suspects(campaign: &Campaign, link_volumes: &[Vec<u64>]) -> Vec<SuspectCluster> {
    let _span = trackdown_obs::span("attr.rank").attr("configs", link_volumes.len() as u64);
    validate_link_volumes(campaign, link_volumes);
    rank_suspects_core(campaign, |k, l| link_volumes[k][l.us()])
}

/// The incremental min-bound pass shared by the dense and accumulator
/// entry points: `vol(k, l)` reads the spoofed volume on link `l` during
/// configuration `k` from whatever store the caller has.
fn rank_suspects_core(
    campaign: &Campaign,
    vol: impl Fn(usize, LinkId) -> u64,
) -> Vec<SuspectCluster> {
    let idx = &campaign.attribution;
    // Per-cluster state, re-keyed through every delta: the running
    // min-bound and whether any silent link has exonerated the lineage.
    let mut bound: Vec<u64> = vec![u64::MAX; idx.initial_clusters as usize];
    let mut alive: Vec<bool> = vec![true; idx.initial_clusters as usize];
    for (k, delta) in idx.deltas.iter().enumerate() {
        let mut next_bound = Vec::with_capacity(delta.num_clusters());
        let mut next_alive = Vec::with_capacity(delta.num_clusters());
        for (c, &parent) in delta.parent_of.iter().enumerate() {
            let mut b = bound[parent as usize];
            let mut a = alive[parent as usize];
            if let Some(link) = delta.link_of[c] {
                let v = vol(k, link);
                if v == 0 {
                    a = false; // a silent link exonerates the lineage
                } else {
                    b = b.min(v);
                }
            }
            next_bound.push(b);
            next_alive.push(a);
        }
        bound = next_bound;
        alive = next_alive;
    }
    let mut out = Vec::new();
    for c in 0..idx.final_num_clusters() {
        // bound == MAX: never constrained, no evidence at all.
        if !alive[c] || bound[c] == u64::MAX {
            continue;
        }
        out.push(SuspectCluster {
            cluster: c,
            members: campaign.clustering.cluster_members(c as u32).to_vec(),
            volume_upper_bound: bound[c],
        });
    }
    out.sort_by(|a, b| {
        b.volume_upper_bound
            .cmp(&a.volume_upper_bound)
            .then(a.cluster.cmp(&b.cluster))
    });
    out
}

/// The pre-index implementation of [`rank_suspects`]: materializes
/// `clusters()` and rescans every catchment per cluster, reading absent
/// volume entries as zero. Kept as the from-scratch reference the
/// differential suite and the scan-vs-indexed benchmarks compare against.
pub fn rank_suspects_rescan(campaign: &Campaign, link_volumes: &[Vec<u64>]) -> Vec<SuspectCluster> {
    assert_eq!(
        link_volumes.len(),
        campaign.catchments.len(),
        "one volume vector per configuration"
    );
    let clusters = campaign.clustering.clusters();
    let mut out = Vec::new();
    'cluster: for (idx, members) in clusters.iter().enumerate() {
        // All members share catchments; use the first as representative.
        let rep = members[0];
        let mut bound = u64::MAX;
        for (cat, vols) in campaign.catchments.iter().zip(link_volumes) {
            let Some(link) = cat.get(rep) else {
                // Unobserved in this configuration: no constraint.
                continue;
            };
            let v = vols.get(link.us()).copied().unwrap_or(0);
            if v == 0 {
                continue 'cluster; // a silent link exonerates the cluster
            }
            bound = bound.min(v);
        }
        if bound == u64::MAX {
            continue; // never constrained: no evidence at all
        }
        out.push(SuspectCluster {
            cluster: idx,
            members: members.clone(),
            volume_upper_bound: bound,
        });
    }
    out.sort_by(|a, b| {
        b.volume_upper_bound
            .cmp(&a.volume_upper_bound)
            .then(a.cluster.cmp(&b.cluster))
    });
    out
}

/// Suspect ranking produced from a streaming accumulator by
/// [`rank_suspects_acc`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankedSuspects {
    /// Ranked suspects, exactly as [`rank_suspects`] would order them on
    /// the accumulator's volumes.
    pub suspects: Vec<SuspectCluster>,
}

/// [`rank_suspects`] over a streaming [`VolumeAccumulator`] instead of
/// dense rows — the line-rate entry point.
///
/// # Panics
/// If the accumulator's shape does not match the campaign: one
/// configuration per campaign configuration, and exactly
/// [`AttributionIndex::num_links`] link counters (same width contract as
/// [`rank_suspects`]).
pub fn rank_suspects_acc<A: VolumeAccumulator + ?Sized>(
    campaign: &Campaign,
    acc: &A,
) -> RankedSuspects {
    let _span =
        trackdown_obs::span("attr.rank_acc").attr("configs", campaign.catchments.len() as u64);
    validate_accumulator(campaign, acc);
    RankedSuspects {
        suspects: rank_suspects_core(campaign, |k, l| acc.volume(k, l)),
    }
}

/// Volume bounds for one cluster produced by
/// [`estimate_cluster_volumes`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VolumeEstimate {
    /// Index into `Campaign::clustering.clusters()`.
    pub cluster: usize,
    /// Member sources.
    pub members: Vec<AsIndex>,
    /// Proven minimum spoofed volume originated by this cluster.
    pub lower: u64,
    /// Proven maximum spoofed volume originated by this cluster.
    pub upper: u64,
}

/// Multi-source volume estimation by interval constraint propagation.
///
/// Per configuration `c` and link `l`, volume conservation says
/// `Σ_{clusters k routed to l at c} v_k = V[c][l]`. Starting from the
/// simple min-bound upper bounds of [`rank_suspects`], the propagation
/// alternately tightens lower bounds (`v_k ≥ V − Σ_{j≠k} upper_j`) and
/// upper bounds (`v_k ≤ V − Σ_{j≠k} lower_j`) until a fixpoint (or
/// `max_rounds`). Clusters whose upper bound reaches zero are exonerated —
/// far more of them than the min-bound alone manages when several sources
/// are active at once (an instance of the paper's future-work direction of
/// jointly reasoning about cluster sizes and traffic volumes).
///
/// Soundness assumes the per-AS volumes are stable across configurations
/// and every source is tracked; both hold for honeypot traffic from the
/// campaign's tracked set.
///
/// The per-cluster link matrix comes from the campaign's
/// [`AttributionIndex`] (ancestor chains walked backward through the
/// refinement deltas) rather than per-cluster catchment rescans; output is
/// identical to [`estimate_cluster_volumes_rescan`].
///
/// # Panics
/// Same volume-matrix width contract as [`rank_suspects`].
pub fn estimate_cluster_volumes(
    campaign: &Campaign,
    link_volumes: &[Vec<u64>],
    max_rounds: usize,
) -> Vec<VolumeEstimate> {
    let _span = trackdown_obs::span("attr.estimate").attr("configs", link_volumes.len() as u64);
    validate_link_volumes(campaign, link_volumes);
    let num_links = campaign.attribution.num_links();
    // Link of each cluster per configuration (None = unobserved),
    // reconstructed from the refinement deltas.
    let links = campaign.attribution.final_links();
    let vol = |c: usize, l: LinkId| -> u64 { link_volumes[c][l.us()] };
    estimate_from_links(
        campaign,
        link_volumes.len(),
        max_rounds,
        num_links,
        &links,
        vol,
    )
}

/// [`estimate_cluster_volumes`] over a streaming [`VolumeAccumulator`].
///
/// # Panics
/// Same shape contract as [`rank_suspects_acc`].
pub fn estimate_cluster_volumes_acc<A: VolumeAccumulator + ?Sized>(
    campaign: &Campaign,
    acc: &A,
    max_rounds: usize,
) -> Vec<VolumeEstimate> {
    let _span =
        trackdown_obs::span("attr.estimate_acc").attr("configs", campaign.catchments.len() as u64);
    validate_accumulator(campaign, acc);
    let num_links = campaign.attribution.num_links();
    let links = campaign.attribution.final_links();
    estimate_from_links(
        campaign,
        campaign.catchments.len(),
        max_rounds,
        num_links,
        &links,
        |c, l| acc.volume(c, l),
    )
}

/// The pre-index implementation of [`estimate_cluster_volumes`]:
/// materializes `clusters()`, rescans every catchment per cluster for the
/// link matrix, and reads absent volume entries as zero. Kept as the
/// from-scratch reference for the differential suite and benchmarks.
pub fn estimate_cluster_volumes_rescan(
    campaign: &Campaign,
    link_volumes: &[Vec<u64>],
    max_rounds: usize,
) -> Vec<VolumeEstimate> {
    assert_eq!(link_volumes.len(), campaign.catchments.len());
    let clusters = campaign.clustering.clusters();
    let num_links = link_volumes.iter().map(|v| v.len()).max().unwrap_or(0);
    // Link of each cluster per configuration (None = unobserved).
    let links: Vec<Vec<Option<LinkId>>> = clusters
        .iter()
        .map(|members| {
            campaign
                .catchments
                .iter()
                .map(|cat| cat.get(members[0]))
                .collect()
        })
        .collect();
    let vol = |c: usize, l: LinkId| -> u64 { link_volumes[c].get(l.us()).copied().unwrap_or(0) };
    estimate_from_links(
        campaign,
        link_volumes.len(),
        max_rounds,
        num_links,
        &links,
        vol,
    )
}

/// Interval constraint propagation shared by the indexed, rescan, and
/// accumulator estimators: everything after the per-cluster link matrix is
/// obtained.
fn estimate_from_links(
    campaign: &Campaign,
    num_configs: usize,
    max_rounds: usize,
    num_links: usize,
    links: &[Vec<Option<LinkId>>],
    vol: impl Fn(usize, LinkId) -> u64,
) -> Vec<VolumeEstimate> {
    // Initial bounds.
    let mut upper: Vec<u64> = links
        .iter()
        .map(|per_cfg| {
            per_cfg
                .iter()
                .enumerate()
                .filter_map(|(c, l)| l.map(|l| vol(c, l)))
                .min()
                .unwrap_or(0)
        })
        .collect();
    let mut lower = vec![0u64; links.len()];
    for _ in 0..max_rounds {
        let mut changed = false;
        for c in 0..num_configs {
            // Per-link sums of current bounds over clusters on that link.
            let mut sum_upper = vec![0u128; num_links];
            let mut sum_lower = vec![0u128; num_links];
            for (k, per_cfg) in links.iter().enumerate() {
                if let Some(l) = per_cfg[c] {
                    sum_upper[l.us()] += upper[k] as u128;
                    sum_lower[l.us()] += lower[k] as u128;
                }
            }
            for (k, per_cfg) in links.iter().enumerate() {
                let Some(l) = per_cfg[c] else { continue };
                let v = vol(c, l) as u128;
                // Lower: what the others cannot explain.
                // `saturating_sub`: bounds updated earlier in this pass
                // leave the per-link sums slightly stale; saturation keeps
                // the estimates conservative (sound) either way.
                let others_upper = sum_upper[l.us()].saturating_sub(upper[k] as u128);
                let new_lower = v.saturating_sub(others_upper) as u64;
                if new_lower > lower[k] {
                    lower[k] = new_lower;
                    changed = true;
                }
                // Upper: what remains after the others' proven minimums.
                let others_lower = sum_lower[l.us()].saturating_sub(lower[k] as u128);
                let new_upper = v.saturating_sub(others_lower) as u64;
                if new_upper < upper[k] {
                    upper[k] = new_upper;
                    changed = true;
                }
            }
        }
        // Keep intervals well-formed.
        for k in 0..links.len() {
            if lower[k] > upper[k] {
                lower[k] = upper[k];
            }
        }
        if !changed {
            break;
        }
    }
    let mut out: Vec<VolumeEstimate> = (0..links.len())
        .filter(|&k| upper[k] > 0)
        .map(|k| VolumeEstimate {
            cluster: k,
            members: campaign.clustering.cluster_members(k as u32).to_vec(),
            lower: lower[k],
            upper: upper[k],
        })
        .collect();
    out.sort_by(|a, b| {
        b.lower
            .cmp(&a.lower)
            .then(b.upper.cmp(&a.upper))
            .then(a.cluster.cmp(&b.cluster))
    });
    out
}

/// Robust suspect scoring for *stale* catchments (§V-C: reusing
/// pre-attack measurements risks errors from route changes).
///
/// [`rank_suspects`] exonerates a cluster the moment its link carries zero
/// volume in a single configuration — correct when catchments are fresh,
/// brittle when they are stale (one changed route hides the attacker).
/// This scorer instead ranks clusters by the *fraction of configurations*
/// in which their (possibly stale) link carried volume, degrading
/// gracefully with routing churn.
///
/// Returns `(cluster_index, members, match_fraction)` sorted descending.
///
/// Counters are maintained incrementally along the campaign's
/// [`AttributionIndex`] (children inherit their parent's observed/matched
/// counts at each split); output is identical to
/// [`match_fraction_scores_rescan`].
///
/// # Panics
/// Same volume-matrix width contract as [`rank_suspects`].
pub fn match_fraction_scores(
    campaign: &Campaign,
    link_volumes: &[Vec<u64>],
) -> Vec<(usize, Vec<AsIndex>, f64)> {
    validate_link_volumes(campaign, link_volumes);
    let idx = &campaign.attribution;
    let mut observed: Vec<u32> = vec![0; idx.initial_clusters as usize];
    let mut matched: Vec<u32> = vec![0; idx.initial_clusters as usize];
    for (k, delta) in idx.deltas.iter().enumerate() {
        let vols = &link_volumes[k];
        let mut next_observed = Vec::with_capacity(delta.num_clusters());
        let mut next_matched = Vec::with_capacity(delta.num_clusters());
        for (c, &parent) in delta.parent_of.iter().enumerate() {
            let mut o = observed[parent as usize];
            let mut m = matched[parent as usize];
            if let Some(link) = delta.link_of[c] {
                o += 1;
                if vols[link.us()] > 0 {
                    m += 1;
                }
            }
            next_observed.push(o);
            next_matched.push(m);
        }
        observed = next_observed;
        matched = next_matched;
    }
    let mut out = Vec::with_capacity(idx.final_num_clusters());
    for c in 0..idx.final_num_clusters() {
        if observed[c] == 0 {
            continue;
        }
        out.push((
            c,
            campaign.clustering.cluster_members(c as u32).to_vec(),
            matched[c] as f64 / observed[c] as f64,
        ));
    }
    out.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("no NaN").then(a.0.cmp(&b.0)));
    out
}

/// The pre-index implementation of [`match_fraction_scores`]: materializes
/// `clusters()` and rescans every catchment per cluster. Kept as the
/// from-scratch reference for the differential suite.
pub fn match_fraction_scores_rescan(
    campaign: &Campaign,
    link_volumes: &[Vec<u64>],
) -> Vec<(usize, Vec<AsIndex>, f64)> {
    assert_eq!(link_volumes.len(), campaign.catchments.len());
    let clusters = campaign.clustering.clusters();
    let mut out = Vec::with_capacity(clusters.len());
    for (idx, members) in clusters.into_iter().enumerate() {
        let rep = members[0];
        let mut observed = 0usize;
        let mut matched = 0usize;
        for (cat, vols) in campaign.catchments.iter().zip(link_volumes) {
            let Some(link) = cat.get(rep) else { continue };
            observed += 1;
            if vols.get(link.us()).copied().unwrap_or(0) > 0 {
                matched += 1;
            }
        }
        if observed == 0 {
            continue;
        }
        out.push((idx, members, matched as f64 / observed as f64));
    }
    out.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("no NaN").then(a.0.cmp(&b.0)));
    out
}

/// Convenience: the set of ASes named by the top suspect clusters covering
/// at least `coverage` (0–1] of the total suspect volume bound.
pub fn suspect_ases(suspects: &[SuspectCluster], coverage: f64) -> Vec<AsIndex> {
    let total: u64 = suspects.iter().map(|s| s.volume_upper_bound).sum();
    if total == 0 {
        return Vec::new();
    }
    let mut acc = 0u64;
    let mut out = Vec::new();
    for s in suspects {
        out.extend(s.members.iter().copied());
        acc += s.volume_upper_bound;
        if acc as f64 / total as f64 >= coverage {
            break;
        }
    }
    out
}

/// Compute per-configuration per-link volumes for a set of per-AS volumes
/// under the campaign's catchments — the honeypot-report matrix an origin
/// would have recorded if those sources had been active throughout.
///
/// Rows come out exactly [`AttributionIndex::num_links`] wide, satisfying
/// the attribution plane's width contract by construction. Volume from
/// ASes routed to links beyond that width is dropped: no tracked cluster
/// ever landed there, so those bytes can neither constrain nor exonerate
/// any cluster.
pub fn link_volume_matrix(campaign: &Campaign, volume_per_as: &[u64]) -> Vec<Vec<u64>> {
    let width = campaign.attribution.num_links();
    campaign
        .catchments
        .iter()
        .map(|cat| {
            let mut out = vec![0u64; width];
            for (i, &v) in volume_per_as.iter().enumerate() {
                if v == 0 || i >= cat.len() {
                    continue;
                }
                if let Some(link) = cat.get(AsIndex(i as u32)) {
                    if link.us() < width {
                        out[link.us()] += v;
                    }
                }
            }
            out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{full_schedule, GeneratorParams};
    use trackdown_bgp::{EngineConfig, PolicyConfig};
    use trackdown_topology::gen::{generate, TopologyConfig};

    fn setup() -> (
        trackdown_topology::gen::GeneratedTopology,
        OriginAs,
        EngineConfig,
    ) {
        let g = generate(&TopologyConfig::small(23));
        let origin = OriginAs::peering_style(&g, 4);
        let cfg = EngineConfig {
            policy: PolicyConfig {
                seed: 5,
                violator_fraction: 0.05,
                no_loop_prevention_fraction: 0.02,
                tier1_poison_filtering: true,
                extensions: Default::default(),
            },
            ..EngineConfig::default()
        };
        (g, origin, cfg)
    }

    #[test]
    fn campaign_reduces_cluster_sizes() {
        let (g, origin, cfg) = setup();
        let engine = BgpEngine::new(&g.topology, &cfg);
        let schedule = full_schedule(
            &g.topology,
            &origin,
            &GeneratorParams {
                max_removals: 2,
                max_poison_configs: Some(10),
            },
        );
        let campaign = run_campaign(&engine, &origin, &schedule, &CampaignOpts::default())
            .expect("valid schedule");
        assert_eq!(campaign.records.len(), schedule.len());
        let first = campaign.records.first().unwrap();
        let last = campaign.records.last().unwrap();
        assert!(last.mean_cluster_size < first.mean_cluster_size);
        assert!(
            last.mean_cluster_size < 5.0,
            "mean={}",
            last.mean_cluster_size
        );
        // Mean sizes never increase as configurations accumulate.
        for w in campaign.records.windows(2) {
            assert!(w[1].mean_cluster_size <= w[0].mean_cluster_size + 1e-9);
        }
        // All tracked sources partitioned.
        let total: usize = campaign.clustering.sizes().iter().sum();
        assert_eq!(total, campaign.tracked.len());
    }

    #[test]
    fn single_source_is_localized() {
        let (g, origin, cfg) = setup();
        let engine = BgpEngine::new(&g.topology, &cfg);
        let schedule = full_schedule(
            &g.topology,
            &origin,
            &GeneratorParams {
                max_removals: 2,
                max_poison_configs: Some(10),
            },
        );
        let campaign = run_campaign(&engine, &origin, &schedule, &CampaignOpts::default())
            .expect("valid schedule");
        // Plant a single attacker in a tracked AS.
        let attacker = campaign.tracked[campaign.tracked.len() / 2];
        let mut volume = vec![0u64; g.topology.num_ases()];
        volume[attacker.us()] = 1_000_000;
        let vols = link_volume_matrix(&campaign, &volume);
        let suspects = rank_suspects(&campaign, &vols);
        assert!(!suspects.is_empty());
        // The attacker's cluster must rank first.
        assert!(
            suspects[0].members.contains(&attacker),
            "attacker not in top suspect cluster"
        );
        // And every suspect cluster member shares the attacker's catchment
        // history, so the suspect list is exactly one cluster.
        assert_eq!(suspects.len(), 1);
        let named = suspect_ases(&suspects, 1.0);
        assert!(named.contains(&attacker));
    }

    #[test]
    fn two_sources_both_found() {
        let (g, origin, cfg) = setup();
        let engine = BgpEngine::new(&g.topology, &cfg);
        let schedule = full_schedule(
            &g.topology,
            &origin,
            &GeneratorParams {
                max_removals: 2,
                max_poison_configs: Some(10),
            },
        );
        let campaign = run_campaign(&engine, &origin, &schedule, &CampaignOpts::default())
            .expect("valid schedule");
        let a = campaign.tracked[3];
        let b = campaign.tracked[campaign.tracked.len() - 4];
        let mut volume = vec![0u64; g.topology.num_ases()];
        volume[a.us()] = 500_000;
        volume[b.us()] = 400_000;
        let vols = link_volume_matrix(&campaign, &volume);
        let suspects = rank_suspects(&campaign, &vols);
        let named = suspect_ases(&suspects, 1.0);
        assert!(named.contains(&a), "source a missed");
        assert!(named.contains(&b), "source b missed");
    }

    #[test]
    fn constraint_propagation_tightens_multi_source_bounds() {
        let (g, origin, cfg) = setup();
        let engine = BgpEngine::new(&g.topology, &cfg);
        let schedule = full_schedule(
            &g.topology,
            &origin,
            &GeneratorParams {
                max_removals: 2,
                max_poison_configs: Some(10),
            },
        );
        let campaign = run_campaign(&engine, &origin, &schedule, &CampaignOpts::default())
            .expect("valid schedule");
        // Several simultaneous sources.
        let sources = [
            campaign.tracked[2],
            campaign.tracked[campaign.tracked.len() / 2],
            campaign.tracked[campaign.tracked.len() - 3],
        ];
        let mut volume = vec![0u64; g.topology.num_ases()];
        for (i, s) in sources.iter().enumerate() {
            volume[s.us()] = 100_000 * (i as u64 + 1);
        }
        let vols = link_volume_matrix(&campaign, &volume);

        let simple = rank_suspects(&campaign, &vols);
        let refined = estimate_cluster_volumes(&campaign, &vols, 10);
        // Refinement never names more clusters than the simple bound.
        assert!(refined.len() <= simple.len());
        // Bounds are well-formed and every true source cluster survives
        // with an upper bound covering its real volume.
        for s in &sources {
            let real = volume[s.us()];
            let est = refined
                .iter()
                .find(|e| e.members.contains(s))
                .expect("true source exonerated");
            assert!(est.lower <= real, "lower {} > real {real}", est.lower);
            assert!(est.upper >= real, "upper {} < real {real}", est.upper);
        }
        // And all bounds are ordered.
        for e in &refined {
            assert!(e.lower <= e.upper);
        }
    }

    #[test]
    fn constraint_propagation_single_source_is_tight() {
        let (g, origin, cfg) = setup();
        let engine = BgpEngine::new(&g.topology, &cfg);
        let schedule = full_schedule(
            &g.topology,
            &origin,
            &GeneratorParams {
                max_removals: 2,
                max_poison_configs: Some(10),
            },
        );
        let campaign = run_campaign(&engine, &origin, &schedule, &CampaignOpts::default())
            .expect("valid schedule");
        let attacker = campaign.tracked[campaign.tracked.len() / 2];
        let mut volume = vec![0u64; g.topology.num_ases()];
        volume[attacker.us()] = 777_000;
        let vols = link_volume_matrix(&campaign, &volume);
        let refined = estimate_cluster_volumes(&campaign, &vols, 10);
        // Exactly one cluster survives, with exact bounds.
        assert_eq!(refined.len(), 1);
        assert!(refined[0].members.contains(&attacker));
        assert_eq!(refined[0].lower, 777_000);
        assert_eq!(refined[0].upper, 777_000);
    }

    #[test]
    fn parallel_campaign_equals_sequential() {
        let (g, origin, cfg) = setup();
        let engine = BgpEngine::new(&g.topology, &cfg);
        let schedule = full_schedule(
            &g.topology,
            &origin,
            &GeneratorParams {
                max_removals: 2,
                max_poison_configs: Some(10),
            },
        );
        let seq = run_campaign(&engine, &origin, &schedule, &CampaignOpts::default())
            .expect("valid schedule");
        for threads in [1usize, 3, 8, 64] {
            let par = run_campaign(
                &engine,
                &origin,
                &schedule,
                &CampaignOpts {
                    threads,
                    ..CampaignOpts::default()
                },
            )
            .expect("valid schedule");
            assert_eq!(par.catchments, seq.catchments, "threads={threads}");
            assert_eq!(par.tracked, seq.tracked);
            assert_eq!(par.clustering.num_clusters(), seq.clustering.num_clusters());
            assert_eq!(par.records, seq.records);
        }
    }

    #[test]
    fn match_fraction_ranks_attacker_first_with_fresh_catchments() {
        let (g, origin, cfg) = setup();
        let engine = BgpEngine::new(&g.topology, &cfg);
        let schedule = full_schedule(
            &g.topology,
            &origin,
            &GeneratorParams {
                max_removals: 2,
                max_poison_configs: Some(10),
            },
        );
        let campaign = run_campaign(&engine, &origin, &schedule, &CampaignOpts::default())
            .expect("valid schedule");
        let attacker = campaign.tracked[campaign.tracked.len() / 3];
        let mut volume = vec![0u64; g.topology.num_ases()];
        volume[attacker.us()] = 1_000;
        let vols = link_volume_matrix(&campaign, &volume);
        let scores = match_fraction_scores(&campaign, &vols);
        // The attacker's cluster scores a perfect 1.0 and ranks first.
        assert!((scores[0].2 - 1.0).abs() < 1e-12);
        assert!(scores[0].1.contains(&attacker));
        // Scores are sorted descending.
        for w in scores.windows(2) {
            assert!(w[0].2 >= w[1].2);
        }
    }

    #[test]
    fn measured_campaign_runs_and_imputes() {
        let (g, origin, cfg) = setup();
        let engine = BgpEngine::new(&g.topology, &cfg);
        let cones = trackdown_topology::cone::ConeInfo::compute(&g.topology);
        let plane = MeasurementPlane::new(
            &g.topology,
            &cones,
            &trackdown_measure::MeasurementConfig::default(),
        );
        let schedule = full_schedule(
            &g.topology,
            &origin,
            &GeneratorParams {
                max_removals: 1,
                max_poison_configs: Some(5),
            },
        );
        let campaign = run_campaign(
            &engine,
            &origin,
            &schedule,
            &CampaignOpts {
                source: CatchmentSource::Measured(&plane),
                ..CampaignOpts::default()
            },
        )
        .expect("valid schedule");
        let stats = campaign.imputation.unwrap();
        assert_eq!(stats.analysis_sources, campaign.tracked.len());
        assert!(!campaign.tracked.is_empty());
        assert!(campaign.clustering.num_clusters() > 1);
    }

    /// Inline differential: the indexed attribution functions agree with
    /// their rescan references on a real campaign with several attackers.
    /// (The heavy proptest version lives in tests/attribution_differential.)
    #[test]
    fn indexed_attribution_matches_rescan_references() {
        let (g, origin, cfg) = setup();
        let engine = BgpEngine::new(&g.topology, &cfg);
        let schedule = full_schedule(
            &g.topology,
            &origin,
            &GeneratorParams {
                max_removals: 2,
                max_poison_configs: Some(10),
            },
        );
        let campaign = run_campaign(&engine, &origin, &schedule, &CampaignOpts::default())
            .expect("valid schedule");
        let mut volume = vec![0u64; g.topology.num_ases()];
        for (i, s) in campaign.tracked.iter().step_by(7).enumerate() {
            volume[s.us()] = 10_000 * (i as u64 + 1);
        }
        let vols = link_volume_matrix(&campaign, &volume);
        assert_eq!(
            rank_suspects(&campaign, &vols),
            rank_suspects_rescan(&campaign, &vols)
        );
        assert_eq!(
            estimate_cluster_volumes(&campaign, &vols, 10),
            estimate_cluster_volumes_rescan(&campaign, &vols, 10)
        );
        assert_eq!(
            match_fraction_scores(&campaign, &vols),
            match_fraction_scores_rescan(&campaign, &vols)
        );
    }

    /// The attribution index reconstructs exactly the per-cluster link
    /// matrix the rescan path reads off representative catchments.
    #[test]
    fn final_links_matches_representative_catchments() {
        let (g, origin, cfg) = setup();
        let engine = BgpEngine::new(&g.topology, &cfg);
        let schedule = full_schedule(
            &g.topology,
            &origin,
            &GeneratorParams {
                max_removals: 1,
                max_poison_configs: Some(6),
            },
        );
        let campaign = run_campaign(&engine, &origin, &schedule, &CampaignOpts::default())
            .expect("valid schedule");
        let links = campaign.attribution.final_links();
        assert_eq!(links.len(), campaign.clustering.num_clusters());
        assert_eq!(
            campaign.attribution.num_configs(),
            campaign.catchments.len()
        );
        for (c, row) in links.iter().enumerate() {
            let rep = campaign.clustering.cluster_members(c as u32)[0];
            for (k, cat) in campaign.catchments.iter().enumerate() {
                assert_eq!(row[k], cat.get(rep), "cluster {c} config {k}");
            }
        }
        // The split log accounts for all cluster growth.
        let grown: usize = (0..campaign.attribution.num_configs())
            .flat_map(|k| campaign.attribution.split_log(k))
            .map(|s| s.children.len() - 1)
            .sum();
        assert_eq!(grown + 1, campaign.clustering.num_clusters());
    }

    /// A short volume row is a caller bug, not zero volume (the old
    /// `unwrap_or(0)` silently exonerated clusters on missing data).
    #[test]
    #[should_panic(expected = "silently exonerate")]
    fn short_volume_rows_rejected() {
        let (g, origin, cfg) = setup();
        let engine = BgpEngine::new(&g.topology, &cfg);
        let schedule = full_schedule(
            &g.topology,
            &origin,
            &GeneratorParams {
                max_removals: 1,
                max_poison_configs: Some(4),
            },
        );
        let campaign = run_campaign(&engine, &origin, &schedule, &CampaignOpts::default())
            .expect("valid schedule");
        let mut vols = link_volume_matrix(&campaign, &vec![1u64; g.topology.num_ases()]);
        vols[0].truncate(campaign.attribution.num_links().saturating_sub(1));
        let _ = rank_suspects(&campaign, &vols);
    }

    /// An over-wide volume row is equally a caller bug: the extra entries
    /// can never be matched against any tracked cluster, so accepting them
    /// would silently drop whatever volume the caller put there.
    #[test]
    #[should_panic(expected = "silently ignored")]
    fn wide_volume_rows_rejected() {
        let (g, origin, cfg) = setup();
        let engine = BgpEngine::new(&g.topology, &cfg);
        let schedule = full_schedule(
            &g.topology,
            &origin,
            &GeneratorParams {
                max_removals: 1,
                max_poison_configs: Some(4),
            },
        );
        let campaign = run_campaign(&engine, &origin, &schedule, &CampaignOpts::default())
            .expect("valid schedule");
        let mut vols = link_volume_matrix(&campaign, &vec![1u64; g.topology.num_ases()]);
        vols[0].push(77); // one entry past the attribution width
        let _ = estimate_cluster_volumes(&campaign, &vols, 10);
    }

    /// `fit_link_volumes` adapts honeypot-shaped rows (the origin's full
    /// link count) to the exact width contract without changing any
    /// volume a tracked cluster can see.
    #[test]
    fn fit_link_volumes_trims_to_the_attribution_width() {
        let (g, origin, cfg) = setup();
        let engine = BgpEngine::new(&g.topology, &cfg);
        let schedule = full_schedule(
            &g.topology,
            &origin,
            &GeneratorParams {
                max_removals: 1,
                max_poison_configs: Some(4),
            },
        );
        let campaign = run_campaign(&engine, &origin, &schedule, &CampaignOpts::default())
            .expect("valid schedule");
        let volume = vec![3u64; g.topology.num_ases()];
        let exact = link_volume_matrix(&campaign, &volume);
        // Honeypot-shaped rows: origin width, possibly wider than the
        // attribution plane.
        let wide: Vec<Vec<u64>> = campaign
            .catchments
            .iter()
            .map(|cat| trackdown_traffic::volume_per_link(cat, &volume, origin.num_links()))
            .collect();
        let fitted = fit_link_volumes(&campaign, wide);
        assert_eq!(
            rank_suspects(&campaign, &fitted),
            rank_suspects(&campaign, &exact)
        );
        for row in &fitted {
            assert_eq!(row.len(), campaign.attribution.num_links());
        }
    }

    #[test]
    fn empty_schedule_rejected() {
        let (g, _, cfg) = setup();
        let origin = OriginAs::peering_style(&g, 4);
        let engine = BgpEngine::new(&g.topology, &cfg);
        let err = run_campaign(&engine, &origin, &[], &CampaignOpts::default()).unwrap_err();
        assert_eq!(err, CampaignError::EmptySchedule);
        assert_eq!(err.to_string(), "empty schedule");
    }

    /// An invalid configuration is refused up front, named by its
    /// schedule index, at every thread count.
    #[test]
    fn invalid_config_rejected_with_its_index() {
        let (g, origin, cfg) = setup();
        let engine = BgpEngine::new(&g.topology, &cfg);
        let mut schedule = full_schedule(
            &g.topology,
            &origin,
            &GeneratorParams {
                max_removals: 1,
                max_poison_configs: Some(4),
            },
        );
        schedule[3].announce.clear();
        for threads in [1, 4] {
            let opts = CampaignOpts {
                threads,
                ..CampaignOpts::default()
            };
            let err = run_campaign(&engine, &origin, &schedule, &opts).unwrap_err();
            assert_eq!(
                err,
                CampaignError::InvalidConfig {
                    index: 3,
                    error: ConfigError::EmptyAnnouncement
                }
            );
            assert!(err.to_string().contains("configuration 3"), "{err}");
        }
    }
}
