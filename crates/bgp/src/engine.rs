//! Deterministic event-driven BGP route propagation.
//!
//! The engine computes, for one announcement configuration, the fixpoint of
//! standard BGP processing over the whole topology: every AS repeatedly
//! imports offers from its neighbors (loop prevention, LocalPref
//! assignment), selects a best route (LocalPref ▸ AS-path length ▸
//! deterministic salted tiebreak), and exports per valley-free policy.
//! Processing uses an activation queue and terminates when no RIB changes.
//! Every AS prefers customer routes (policy violators included), so on an
//! acyclic provider hierarchy Gao-Rexford rules out dispute wheels: the
//! drain converges, from any start, to one stable state per configuration.
//! The event cap guards against the inputs outside that guarantee, such as
//! an `as-rel` file with a provider cycle.

use crate::arena::{PathArena, PathId, PathStore};
use crate::catchment::Catchments;
use crate::community::CommunityBits;
use crate::origin::{Injection, LinkAnnouncement, OriginAs, OriginError};
use crate::policy::{PolicyConfig, PolicyTable};
use crate::route::{LinkId, Route};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard};
use trackdown_topology::cone::{classify_tiers, has_provider_cycle};
use trackdown_topology::{AsIndex, AsPath, Asn, NeighborKind, Topology};

/// Engine configuration: policy knobs plus the convergence guard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Policy realism knobs (violators, loop prevention, tier-1 filters).
    pub policy: PolicyConfig,
    /// Event cap = `max_events_factor × num_ases`. Propagation that does
    /// not quiesce within the cap is reported as non-converged. The engine
    /// keeps it ([`BgpEngine::max_events_factor`]) and every engine entry
    /// point drains under it: [`BgpEngine::propagate_config`],
    /// [`BgpEngine::transition_config`], [`BgpEngine::deployed_catchments`]
    /// and [`CampaignSession::converge_baseline`]. Only
    /// [`CampaignSession::deploy_config`] takes a per-call factor; callers
    /// that want the engine's cap pass [`BgpEngine::max_events_factor`].
    pub max_events_factor: usize,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            policy: PolicyConfig::default(),
            max_events_factor: 200,
        }
    }
}

/// One best-route change during propagation — the control-plane event a
/// route collector would see as a BGP UPDATE from that AS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteChange {
    /// Causal depth (round) at which the change happened.
    pub round: u32,
    /// The AS whose best route changed.
    pub at: AsIndex,
    /// Ingress link of the new best route (`None` = withdrawal).
    pub ingress: Option<LinkId>,
    /// AS-path length of the new best route (0 on withdrawal).
    pub path_len: usize,
}

/// The data-plane path taken from a source AS to the origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForwardingPath {
    /// ASes traversed, source first, PoP provider last.
    pub hops: Vec<AsIndex>,
    /// The peering link traffic ultimately enters the origin through.
    pub link: LinkId,
}

/// How much of the fixpoint state a [`RoutingOutcome`] captures.
///
/// The campaign pipeline only ever reads catchments (ingress tags and
/// next hops) from an outcome, so the default snapshot skips the two
/// expensive captures: the per-AS candidate RIB copy and the path-arena
/// store. Readers of path contents alone (the measurement plane's BGP
/// feeds) opt into [`Paths`]; analyses that also read candidate sets
/// (compliance / Fig 9) opt into [`Full`].
///
/// [`Paths`]: SnapshotDetail::Paths
/// [`Full`]: SnapshotDetail::Full
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SnapshotDetail {
    /// Capture best routes only: enough for catchments, forwarding walks,
    /// change logs, and convergence accounting. `candidates` is absent and
    /// the outcome's [`PathStore`] is empty (materializing panics).
    #[default]
    Catchments,
    /// Additionally capture a [`PathStore`] snapshot so routes can be
    /// materialized into [`AsPath`]s; `candidates` is absent. One copy
    /// of the arena's node table, against one vector per AS for
    /// [`SnapshotDetail::Full`].
    Paths,
    /// Additionally capture the candidate RIBs and a [`PathStore`]
    /// snapshot so routes can be materialized into [`AsPath`]s.
    Full,
}

/// Fixpoint routing state for one announcement configuration.
#[derive(Debug, Clone)]
pub struct RoutingOutcome {
    /// Best route per AS (`None` = prefix unreachable from that AS).
    pub best: Vec<Option<Route>>,
    /// Adj-RIB-In snapshot per AS at fixpoint (only at
    /// [`SnapshotDetail::Full`]); see [`RoutingOutcome::candidates`].
    candidates: Option<Vec<Vec<Route>>>,
    /// Interned path nodes backing this outcome's routes (empty unless
    /// captured at [`SnapshotDetail::Paths`] or [`SnapshotDetail::Full`]).
    pub paths: PathStore,
    /// Number of decision events processed.
    pub events: usize,
    /// Convergence depth: the longest chain of causally-dependent best-
    /// route changes. One round ≈ one MRAI interval in deployment terms,
    /// so this is the simulator's proxy for convergence *time* (the paper
    /// waits 70 minutes per configuration; \[25\] reports convergence under
    /// 2.5 minutes 99% of the time).
    pub rounds: u32,
    /// Every best-route change in processing order — the campaign-wide
    /// union is the "thousands of route changes" the paper's public
    /// dataset advertises (§VI), and per-feeder slices are what BGP
    /// collectors receive as UPDATE streams.
    pub changes: Vec<RouteChange>,
    /// False if the event cap fired before quiescence.
    pub converged: bool,
    /// Number of ASes the configuration reaches, for a deployment:
    /// [`RoutingOutcome::reachable_count`], whether it drained from empty
    /// RIBs or from a session's baseline. A
    /// [`BgpEngine::transition_config`] instead counts the ASes whose best
    /// route differs from the previous configuration's fixpoint (transient
    /// flips that settle back are excluded).
    pub routes_disturbed: usize,
}

impl RoutingOutcome {
    /// Control-plane catchment of an AS: the ingress tag of its best route.
    pub fn catchment(&self, i: AsIndex) -> Option<LinkId> {
        self.best[i.us()].as_ref().map(|r| r.ingress)
    }

    /// Control-plane catchments for all ASes: the dense reference the
    /// bitset extraction is checked against.
    #[cfg(test)]
    pub(crate) fn control_catchments(&self) -> Vec<Option<LinkId>> {
        self.best
            .iter()
            .map(|b| b.as_ref().map(|r| r.ingress))
            .collect()
    }

    /// Adj-RIB-In snapshot per AS at fixpoint: every candidate route that
    /// survived import. Used by the compliance analysis (Fig 9).
    ///
    /// # Panics
    /// Panics unless the outcome was captured at [`SnapshotDetail::Full`]:
    /// the other details skip the candidate copy.
    pub fn candidates(&self) -> &[Vec<Route>] {
        self.candidates
            .as_deref()
            .expect("candidates not captured — snapshot with SnapshotDetail::Full")
    }

    /// Materialize a route's AS-path from this outcome's [`PathStore`].
    ///
    /// # Panics
    /// Panics at [`SnapshotDetail::Catchments`] detail (no store captured)
    /// or if `route` belongs to a different outcome.
    pub fn path_of(&self, route: &Route) -> AsPath {
        self.paths.materialize(route.path_id)
    }

    /// Walk the data plane from `from` toward the origin, following each
    /// AS's best-route next hop. Returns `None` when the prefix is
    /// unreachable or a forwarding loop is met (possible only when some AS
    /// on the walk has loop prevention disabled).
    ///
    /// Convenience wrapper that allocates a fresh [`ForwardingWalker`];
    /// batch callers (catchment extraction, traceroute campaigns) keep one
    /// walker and reuse its visited buffer across walks.
    pub fn forwarding_walk(&self, from: AsIndex) -> Option<ForwardingPath> {
        ForwardingWalker::new().walk(self, from)
    }

    /// Number of ASes that can reach the prefix.
    pub fn reachable_count(&self) -> usize {
        self.best.iter().filter(|b| b.is_some()).count()
    }
}

/// Reusable data-plane walker: replaces the per-walk `HashSet` with a
/// stamped visited vector, so running one walk per source AS per epoch
/// (the catchment and traceroute loops) performs no per-walk allocation
/// after the first.
#[derive(Debug, Default)]
pub struct ForwardingWalker {
    /// `visited[i] == stamp` ⟺ AS `i` was visited during the current walk.
    visited: Vec<u32>,
    stamp: u32,
}

impl ForwardingWalker {
    /// A fresh walker (no buffer yet; sized lazily on first walk).
    pub fn new() -> ForwardingWalker {
        ForwardingWalker::default()
    }

    /// [`RoutingOutcome::forwarding_walk`] with this walker's buffer.
    pub fn walk(&mut self, outcome: &RoutingOutcome, from: AsIndex) -> Option<ForwardingPath> {
        let mut hops = Vec::new();
        let link = self.walk_into(outcome, from, &mut hops)?;
        Some(ForwardingPath { hops, link })
    }

    /// [`ForwardingWalker::walk`] writing the hops into a caller-owned
    /// buffer, so a loop of walks allocates nothing once `hops` has the
    /// capacity. Returns the ingress link; on `None` (unreachable or a
    /// forwarding loop) `hops` holds the partial walk.
    pub fn walk_into(
        &mut self,
        outcome: &RoutingOutcome,
        from: AsIndex,
        hops: &mut Vec<AsIndex>,
    ) -> Option<LinkId> {
        hops.clear();
        if self.visited.len() < outcome.best.len() {
            self.visited.resize(outcome.best.len(), self.stamp);
        }
        // Advance the stamp; on wraparound, reset the buffer once.
        self.stamp = match self.stamp.checked_add(1) {
            Some(s) => s,
            None => {
                self.visited.fill(0);
                1
            }
        };
        let mut cur = from;
        loop {
            if self.visited[cur.us()] == self.stamp {
                return None; // forwarding loop
            }
            self.visited[cur.us()] = self.stamp;
            let route = outcome.best[cur.us()].as_ref()?;
            hops.push(cur);
            match route.from_neighbor {
                Some(next) => cur = next,
                None => return Some(route.ingress),
            }
        }
    }
}

/// The catchments one deployment of a configuration yields, as
/// [`BgpEngine::deployed_catchments`] memoizes them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeployedCatchments {
    /// [`Catchments::from_control_plane`] of the deployment's outcome.
    pub control_plane: Catchments,
    /// [`Catchments::from_data_plane`] of the deployment's outcome.
    pub data_plane: Catchments,
}

/// The propagation engine, bound to one topology and one policy table.
///
/// Building the engine is O(V+E); each [`BgpEngine::propagate_config`] run is
/// independent, so one engine serves an entire multi-configuration
/// experiment. The engine is `Sync`: campaign workers and online trials
/// on several threads share one, and with it the catchment memo of
/// [`BgpEngine::deployed_catchments`].
///
/// Internally every per-AS array of the drain is laid out in the
/// engine's own AS numbering (`locality_order`): ASes the drain visits
/// one after another sit next to each other in memory (DESIGN.md §4o).
/// Every routing rule still reads the original [`AsIndex`], and every
/// outcome is reported in it.
pub struct BgpEngine<'t> {
    topo: &'t Topology,
    policy: PolicyTable,
    /// The AS at each internal id: `order[k]` is the original index of
    /// [`NodeId`] `k`.
    order: Vec<AsIndex>,
    /// The inverse of `order`: `internal[i]` is AS `i`'s [`NodeId`].
    internal: Vec<NodeId>,
    /// CSR offsets into the flat Adj-RIB-In, over internal ids: AS `k`'s
    /// per-neighbor slots are `rib_offsets[k] .. rib_offsets[k + 1]`, one
    /// per entry of `topo.neighbors(order[k])` in the same (sorted
    /// original-index) order. Length `n + 1`.
    rib_offsets: Vec<u32>,
    /// Edge table over CSR slots: slot `rib_offsets[k] + m` holds AS
    /// `k`'s `m`-th neighbor `j` (as a [`NodeId`]), how `j` looks from
    /// `k`, and the mirror slot in `j`'s Adj-RIB-In that holds `k`'s
    /// offers. The mirror map is an involution; one 8-byte load per
    /// export gives the export loop everything it needs about the
    /// receiver's side of the link.
    edges: Vec<Edge>,
    /// [`EngineConfig::max_events_factor`].
    max_events_factor: usize,
    /// Whether the provider hierarchy is free of cycles, the condition
    /// under which a session may deploy from a converged baseline.
    acyclic: bool,
    /// [`BgpEngine::deployed_catchments`]'s memo, keyed by the full
    /// deployment input: a deployment's outcome is a function of the
    /// engine and its injections alone (DESIGN.md §4b).
    deployed: Mutex<HashMap<Vec<Injection>, Arc<DeployedCatchments>>>,
}

impl<'t> BgpEngine<'t> {
    /// Build an engine over `topo` with the given configuration. O(V+E):
    /// the policy reads each AS's tier from its own adjacency
    /// ([`classify_tiers`]), and no customer cone is computed.
    pub fn new(topo: &'t Topology, config: &EngineConfig) -> BgpEngine<'t> {
        BgpEngine::with_order(topo, config, locality_order(topo))
    }

    /// [`BgpEngine::new`] over an explicit internal numbering: `order`
    /// lists every AS once, and its position is the AS's [`NodeId`].
    fn with_order(topo: &'t Topology, config: &EngineConfig, order: Vec<AsIndex>) -> BgpEngine<'t> {
        let mut internal = vec![NodeId::NONE; topo.num_ases()];
        for (k, &i) in order.iter().enumerate() {
            assert!(
                internal[i.us()] == NodeId::NONE,
                "{i:?} appears twice in the internal order"
            );
            internal[i.us()] = NodeId(k as u32);
        }
        assert_eq!(order.len(), topo.num_ases(), "the order lists every AS");
        let (rib_offsets, edges) = rib_layout(topo, &order, &internal);
        BgpEngine {
            topo,
            policy: PolicyTable::build(topo, &classify_tiers(topo), &config.policy),
            order,
            internal,
            rib_offsets,
            edges,
            max_events_factor: config.max_events_factor,
            acyclic: !has_provider_cycle(topo),
            deployed: Mutex::default(),
        }
    }

    /// The policy table in use (for analyses that need violator sets etc.).
    pub fn policy(&self) -> &PolicyTable {
        &self.policy
    }

    /// The topology this engine routes over.
    pub fn topology(&self) -> &Topology {
        self.topo
    }

    /// The engine's event cap factor, [`EngineConfig::max_events_factor`].
    pub fn max_events_factor(&self) -> usize {
        self.max_events_factor
    }

    /// Validate a configuration against the origin, build injections, and
    /// propagate them from empty RIBs under the engine's event cap
    /// ([`EngineConfig::max_events_factor`]): one deployment of a fresh
    /// [`CampaignSession`]. Callers deploying many configurations open one
    /// session and reuse its allocations.
    pub fn propagate_config(
        &self,
        origin: &OriginAs,
        announcements: &[LinkAnnouncement],
    ) -> Result<RoutingOutcome, OriginError> {
        self.propagate_config_detailed(origin, announcements, SnapshotDetail::Catchments)
    }

    /// [`BgpEngine::propagate_config`] with an explicit snapshot detail.
    pub fn propagate_config_detailed(
        &self,
        origin: &OriginAs,
        announcements: &[LinkAnnouncement],
        detail: SnapshotDetail,
    ) -> Result<RoutingOutcome, OriginError> {
        self.session()
            .deploy_config_detailed(origin, announcements, self.max_events_factor, detail)
    }

    /// The control- and data-plane catchments of one deployment of
    /// `announcements`, memoized per engine. A miss deploys through a
    /// fresh [`CampaignSession`] at [`SnapshotDetail::Catchments`] with
    /// the engine's own event cap; a hit returns the stored entry without
    /// entering BGP. The key is the full injection list, so origins and
    /// configurations that differ in anything routing reads never share
    /// an entry. Callers that run many online trials on one engine thus
    /// propagate each configuration once.
    ///
    /// On a converged deployment the data plane is the control plane:
    /// each AS's best route is its next hop's current best re-exported,
    /// so it carries the next hop's ingress and a strictly longer path,
    /// and every forwarding chain ends at its first AS's ingress. Only a
    /// deployment the event cap stopped walks the forwarding chains.
    pub fn deployed_catchments(
        &self,
        origin: &OriginAs,
        announcements: &[LinkAnnouncement],
    ) -> Result<Arc<DeployedCatchments>, OriginError> {
        let injections = origin.build_injections(self.topo, announcements)?;
        if let Some(hit) = self.memo().get(&injections) {
            trackdown_obs::counter!("bgp.memo_hits").inc();
            return Ok(Arc::clone(hit));
        }
        trackdown_obs::counter!("bgp.memo_misses").inc();
        // Deploy without the lock held, so threads missing on different
        // configurations propagate in parallel. Two threads missing on the
        // same one both deploy and the first insert wins; the outcomes are
        // equal either way.
        let outcome = self.session().deploy(
            &injections,
            self.max_events_factor,
            SnapshotDetail::Catchments,
        );
        let control_plane = Catchments::from_control_plane(&outcome);
        let data_plane = if outcome.converged {
            control_plane.clone()
        } else {
            Catchments::from_data_plane(&outcome)
        };
        let deployed = Arc::new(DeployedCatchments {
            control_plane,
            data_plane,
        });
        Ok(Arc::clone(
            self.memo().entry(injections).or_insert(deployed),
        ))
    }

    /// Configurations [`BgpEngine::deployed_catchments`] has memoized.
    pub fn memoized_configs(&self) -> usize {
        self.memo().len()
    }

    fn memo(&self) -> MutexGuard<'_, HashMap<Vec<Injection>, Arc<DeployedCatchments>>> {
        self.deployed
            .lock()
            .expect("no thread panics while holding the catchment memo")
    }

    /// CSR slot range of AS `k`'s Adj-RIB-In.
    #[inline]
    fn rib_slots(&self, k: NodeId) -> Range<usize> {
        self.rib_offsets[k.us()] as usize..self.rib_offsets[k.us() + 1] as usize
    }

    /// Deploy `next` *on top of* the converged state of `prev` — what a
    /// real configuration change does. The old announcements are replaced
    /// (withdrawn links produce withdrawal churn), and the returned
    /// outcome's `changes`/`rounds` describe only the transition, not the
    /// cold start. This is the event stream the paper's public dataset
    /// records across its 705 deployments ("thousands of route changes",
    /// §VI). `routes_disturbed` counts the ASes whose best route differs
    /// from `prev`'s fixpoint. Both drains run under the engine's event
    /// cap, and each is one deployment to the profiler: a `bgp.deploy`
    /// span and its work in the `bgp.*` counters.
    pub fn transition_config(
        &self,
        origin: &OriginAs,
        prev: &[LinkAnnouncement],
        next: &[LinkAnnouncement],
        detail: SnapshotDetail,
    ) -> Result<RoutingOutcome, OriginError> {
        let prev = origin.build_injections(self.topo, prev)?;
        let next = origin.build_injections(self.topo, next)?;
        let mut sim = Simulation::new(self);
        {
            let mut span = trackdown_obs::span("bgp.deploy");
            sim.apply_injections(&prev);
            sim.drain(&mut span, self.max_events_factor);
        }
        let before = sim.best.clone();
        let mut span = trackdown_obs::span("bgp.deploy");
        sim.begin_epoch();
        sim.replace_injections(&next);
        sim.drain(&mut span, self.max_events_factor);
        let mut outcome = sim.snapshot(detail);
        // Route equality compares `path_id`s, which is sound within one
        // simulation: its arena is canonical and never truncated here.
        outcome.routes_disturbed = (0..before.slots.len())
            .filter(|&s| !sim.best.matches(s, &before.get(s)))
            .count();
        Ok(outcome)
    }

    /// Open a [`CampaignSession`]: one simulation whose allocations
    /// every deployment reuses. It deploys from empty RIBs until
    /// [`CampaignSession::converge_baseline`] keeps a baseline.
    pub fn session(&self) -> CampaignSession<'_, 't> {
        CampaignSession {
            sim: Simulation::new(self),
            deployments: 0,
            peak_arena_nodes: 0,
            baseline: None,
            last_deploy_warm: false,
        }
    }
}

/// Whether a session deploys from a converged baseline: what
/// [`CampaignSession::converge_baseline`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum BaselineStatus {
    /// The full anycast converged; every deployment starts from it.
    Converged,
    /// The provider hierarchy has a cycle, so a configuration's stable
    /// state need not be unique: no baseline is kept and every deployment
    /// starts from empty RIBs.
    ProviderCycle,
    /// The full anycast's drain hit the event cap: no baseline is kept and
    /// every deployment starts from empty RIBs.
    EventCap,
}

/// What [`CampaignSession::converge_baseline`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaselineReport {
    /// Whether the session now deploys from the baseline.
    pub status: BaselineStatus,
    /// Events the baseline's drain processed (0 on a provider cycle).
    pub events: usize,
}

/// A deployment session over one engine.
///
/// A fresh session deploys every configuration FIFO from empty RIBs, so
/// its outcome is a function of the engine and the configuration alone;
/// [`BgpEngine::propagate_config`] is one deployment of a fresh session.
/// After [`CampaignSession::converge_baseline`] keeps the origin's
/// converged full anycast, each deployment instead starts from that
/// baseline: the session rolls its state back to it, replaces the direct
/// routes with the configuration's and runs the same FIFO drain, which
/// is what a live configuration change does. Every AS prefers customer
/// routes, so on the acyclic provider hierarchies the baseline requires
/// the stable state is unique (DESIGN.md §4b) and both starts reach the
/// same routes; the outcome's `events`, `rounds` and `changes` describe
/// the transition from the baseline.
///
/// The rollback replays an undo log of what the last transition
/// overwrote: first-touch copies of the Adj-RIB-In slots it wrote, and of
/// the reference routes of the ASes whose records or best entries it
/// wrote, from which those records and entries are rebuilt. It also
/// truncates the path arena to the baseline's node count. So a rollback
/// costs about as much as the transition, and the session never holds a
/// second copy of its state. Either way the simulation keeps its
/// allocations, and each outcome equals, path ids included, what any
/// session starting the same way reports.
pub struct CampaignSession<'e, 't> {
    sim: Simulation<'e, 't>,
    deployments: usize,
    peak_arena_nodes: usize,
    /// The converged baseline deployments start from, if kept.
    baseline: Option<Baseline>,
    last_deploy_warm: bool,
}

/// What a rollback restores besides the undo log's entries.
struct Baseline {
    /// The baseline's direct routes, in injection order.
    direct: Vec<(NodeId, Route)>,
    /// Arena nodes the baseline interned; later ones are a transition's.
    arena_nodes: usize,
}

impl<'e, 't> CampaignSession<'e, 't> {
    /// Converge `origin`'s full anycast (every link, plain) from empty
    /// RIBs with the FIFO drain under the engine's event cap, and keep it
    /// as the baseline every later deployment starts from. No baseline
    /// is kept, and deployments stay on empty RIBs, when the provider
    /// hierarchy has a cycle or the drain hits the cap; the report says
    /// which. A second call replaces the baseline.
    pub fn converge_baseline(&mut self, origin: &OriginAs) -> Result<BaselineReport, OriginError> {
        let engine = self.sim.engine;
        let anycast: Vec<LinkAnnouncement> =
            origin.link_ids().map(LinkAnnouncement::plain).collect();
        let injections = origin.build_injections(engine.topo, &anycast)?;
        self.baseline = None;
        self.sim.undo = None;
        if !engine.acyclic {
            return Ok(BaselineReport {
                status: BaselineStatus::ProviderCycle,
                events: 0,
            });
        }
        let _span = trackdown_obs::span("bgp.baseline");
        self.sim.clear();
        self.sim.apply_injections(&injections);
        self.sim.run(engine.max_events_factor);
        let events = self.sim.events;
        trackdown_obs::counter!("bgp.baselines").inc();
        trackdown_obs::counter!("bgp.events").add(events as u64);
        trackdown_obs::counter!("bgp.offers").add(self.sim.offers);
        trackdown_obs::counter!("bgp.full_decides").add(self.sim.full_decides);
        self.peak_arena_nodes = self.peak_arena_nodes.max(self.sim.arena.num_nodes());
        let status = if self.sim.converged {
            self.sim.begin_epoch();
            self.sim.undo = Some(Box::new(UndoLog::new(engine)));
            self.baseline = Some(Baseline {
                direct: self.sim.direct.clone(),
                arena_nodes: self.sim.arena.num_nodes(),
            });
            BaselineStatus::Converged
        } else {
            BaselineStatus::EventCap
        };
        Ok(BaselineReport { status, events })
    }

    /// Validate a configuration against the origin, build injections, and
    /// deploy them.
    pub fn deploy_config(
        &mut self,
        origin: &OriginAs,
        announcements: &[LinkAnnouncement],
        max_events_factor: usize,
    ) -> Result<RoutingOutcome, OriginError> {
        self.deploy_config_detailed(
            origin,
            announcements,
            max_events_factor,
            SnapshotDetail::Catchments,
        )
    }

    /// [`CampaignSession::deploy_config`] with an explicit snapshot detail.
    pub fn deploy_config_detailed(
        &mut self,
        origin: &OriginAs,
        announcements: &[LinkAnnouncement],
        max_events_factor: usize,
        detail: SnapshotDetail,
    ) -> Result<RoutingOutcome, OriginError> {
        let inj = origin.build_injections(self.sim.engine.topo, announcements)?;
        Ok(self.deploy(&inj, max_events_factor, detail))
    }

    /// Roll back to the baseline and replace its direct routes, or, with
    /// no baseline, clear the simulation in place and inject; then run to
    /// fixpoint. The clear and the rollback are the only points where the
    /// arena shrinks: outstanding [`crate::PathId`]s past its new length
    /// live in the routing state they drop alongside.
    fn deploy(
        &mut self,
        injections: &[Injection],
        max_events_factor: usize,
        detail: SnapshotDetail,
    ) -> RoutingOutcome {
        let mut span = trackdown_obs::span("bgp.deploy");
        self.deployments += 1;
        self.last_deploy_warm = self.baseline.is_some();
        match &self.baseline {
            Some(baseline) => {
                self.sim.rollback(baseline);
                self.sim.replace_injections(injections);
            }
            None => {
                self.sim.clear();
                self.sim.apply_injections(injections);
            }
        }
        self.sim.drain(&mut span, max_events_factor);
        self.peak_arena_nodes = self.peak_arena_nodes.max(self.sim.arena.num_nodes());
        self.sim.snapshot(detail)
    }

    /// High-water mark of interned path nodes across all deployments and
    /// the baseline.
    pub fn peak_arena_nodes(&self) -> usize {
        self.peak_arena_nodes
    }

    /// Configurations deployed through this session.
    pub fn deployments(&self) -> usize {
        self.deployments
    }

    /// True when the last deployment started from the converged baseline
    /// rather than from empty RIBs.
    pub fn last_deploy_warm(&self) -> bool {
        self.last_deploy_warm
    }
}

/// First-touch copies of one per-index array's entries: the value each
/// index held before the current transition first wrote it.
struct Journal<T> {
    /// Bit `i` set ⟺ index `i` has its pre-transition value saved.
    saved_bits: Vec<u64>,
    saved: Vec<(u32, T)>,
}

impl<T: Copy> Journal<T> {
    /// A journal over indices `0..len`. Each index is saved at most once
    /// per transition, so `len` entries always suffice: reserving them up
    /// front means the log never reallocates, and only the pages a
    /// transition's saves reach become resident.
    fn new(len: usize) -> Journal<T> {
        Journal {
            saved_bits: vec![0; len.div_ceil(64)],
            saved: Vec::with_capacity(len),
        }
    }

    /// Save index `i`'s current value, `current()`, unless the
    /// transition already saved it.
    #[inline]
    fn save(&mut self, i: usize, current: impl FnOnce() -> T) {
        let (word, bit) = (&mut self.saved_bits[i / 64], 1u64 << (i % 64));
        if *word & bit == 0 {
            *word |= bit;
            self.saved.push((i as u32, current()));
        }
    }

    /// Hand every saved value to `restore` and forget it.
    fn rewind(&mut self, mut restore: impl FnMut(usize, T)) {
        for (i, old) in self.saved.drain(..) {
            self.saved_bits[i as usize / 64] &= !(1u64 << (i % 64));
            restore(i as usize, old);
        }
    }
}

/// What a transition from a session's baseline overwrote, so the session
/// can roll back to the baseline at the transition's own cost.
///
/// A baseline AS's record and best entry follow from its reference
/// route and direct routes: the drain converged, so no AS is queued or
/// awaits a rescan, and its best route is the selection among its direct
/// routes and its reference. So for the ASes a transition wrote, the log
/// keeps the packed reference route alone (24 bytes with the id, not a
/// 32-byte record and a 20-byte best entry), and the rollback rebuilds
/// the rest. Rescanning the restored slots for the reference instead
/// would read every slot of every noted AS: on `internet`, 9.5M slots per
/// campaign, taking more than half as long as the transitions.
struct UndoLog {
    /// Adj-RIB-In slots ([`RouteTable::raw`]).
    ribs: Journal<Option<Slot>>,
    /// Reference routes, by internal id, of the ASes whose record or best
    /// entry was written.
    refs: Journal<Option<Slot>>,
}

impl UndoLog {
    fn new(engine: &BgpEngine<'_>) -> UndoLog {
        UndoLog {
            ribs: Journal::new(engine.edges.len()),
            refs: Journal::new(engine.order.len()),
        }
    }
}

/// The engine's internal AS numbering, as `order[k]` = the original
/// index of internal id `k`: a breadth-first search from the
/// highest-degree AS (lowest index among equals). Each dequeued AS
/// queues its unvisited neighbors by descending degree, ties by index,
/// and an AS the search does not reach starts a new search from the
/// lowest unvisited index. The FIFO drain spreads outward from the
/// announcing providers through the well-connected core, so in this
/// order the ASes it visits one after another, and the receivers of one
/// AS's exports, mostly lie close together in memory.
fn locality_order(topo: &Topology) -> Vec<AsIndex> {
    let mut order = Vec::with_capacity(topo.num_ases());
    let mut seen = vec![false; topo.num_ases()];
    let mut unvisited = Vec::new();
    let root = topo
        .indices()
        .max_by_key(|&i| (topo.degree(i), std::cmp::Reverse(i.0)));
    for start in root.into_iter().chain(topo.indices()) {
        if seen[start.us()] {
            continue;
        }
        seen[start.us()] = true;
        let mut head = order.len();
        order.push(start);
        while let Some(&i) = order.get(head) {
            head += 1;
            unvisited.clear();
            unvisited.extend(
                topo.neighbors(i)
                    .iter()
                    .map(|&(j, _)| j)
                    .filter(|j| !seen[j.us()]),
            );
            unvisited.sort_unstable_by_key(|&j| (std::cmp::Reverse(topo.degree(j)), j.0));
            for &j in &unvisited {
                seen[j.us()] = true;
                order.push(j);
            }
        }
    }
    order
}

/// CSR offsets of the flat Adj-RIB-In and its edge table (see
/// [`BgpEngine`]'s fields) over the internal numbering `order` /
/// `internal`. Built once per engine: the topology is immutable, so
/// every session shares the layout.
fn rib_layout(topo: &Topology, order: &[AsIndex], internal: &[NodeId]) -> (Vec<u32>, Vec<Edge>) {
    let total: usize = topo.indices().map(|i| topo.degree(i)).sum();
    assert!(
        total < Edge::MAX_SLOTS,
        "{total} Adj-RIB-In slots: the edge table packs slots into 30 bits"
    );
    let mut rib_offsets = Vec::with_capacity(order.len() + 1);
    rib_offsets.push(0);
    for (k, &i) in order.iter().enumerate() {
        rib_offsets.push(rib_offsets[k] + topo.degree(i) as u32);
    }
    // Position of neighbor `j` within `i`'s (sorted) neighbor list.
    let neighbor_pos = |i: AsIndex, j: AsIndex| {
        topo.neighbors(i)
            .binary_search_by_key(&j, |(n, _)| *n)
            .expect("adjacency is symmetric")
    };
    let mut edges = Vec::with_capacity(total);
    for &i in order {
        for &(j, kind) in topo.neighbors(i) {
            let to = internal[j.us()];
            edges.push(Edge::new(
                to,
                rib_offsets[to.us()] + neighbor_pos(j, i) as u32,
                kind,
            ));
        }
    }
    (rib_offsets, edges)
}

/// An AS's position in the engine's internal numbering
/// ([`locality_order`]): the index of every per-AS array the drain
/// reads. Never leaves the engine; outcomes speak [`AsIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NodeId(u32);

impl NodeId {
    /// No AS (also: the best route was not learned from a neighbor).
    const NONE: NodeId = NodeId(u32::MAX);

    #[inline]
    fn us(self) -> usize {
        self.0 as usize
    }
}

/// One CSR slot of the edge table: AS `k`'s link to neighbor `to`, in 8
/// bytes so the export loop reads one contiguous stream.
#[derive(Debug, Clone, Copy)]
struct Edge {
    /// The neighbor `j`.
    to: NodeId,
    /// The mirror slot (low 30 bits) and how `j` looks from `k` (top 2
    /// bits, the [`NeighborKind`] discriminant).
    mirror_kind: u32,
}

// The edge table is read once per export: keep it at 8 bytes per slot.
const _: () = assert!(std::mem::size_of::<Edge>() == 8);

impl Edge {
    const KIND_SHIFT: u32 = 30;
    /// Exclusive bound on slot numbers the packing can hold.
    const MAX_SLOTS: usize = 1 << Edge::KIND_SHIFT;

    /// `mirror` must be below [`Edge::MAX_SLOTS`] (`rib_layout` asserts
    /// it for the whole table).
    fn new(to: NodeId, mirror: u32, kind: NeighborKind) -> Edge {
        Edge {
            to,
            mirror_kind: mirror | (kind as u32) << Edge::KIND_SHIFT,
        }
    }

    /// The slot in `to`'s Adj-RIB-In that holds this AS's offers.
    #[inline]
    fn mirror(self) -> usize {
        (self.mirror_kind & ((1 << Edge::KIND_SHIFT) - 1)) as usize
    }

    /// How `to` looks from this AS.
    #[inline]
    fn kind(self) -> NeighborKind {
        match self.mirror_kind >> Edge::KIND_SHIFT {
            0 => NeighborKind::Customer,
            1 => NeighborKind::Peer,
            _ => NeighborKind::Provider,
        }
    }
}

/// [`NodeState::bits`]: queued for a decision.
const IN_QUEUE: u8 = 1;
/// [`NodeState::bits`]: holds at least one entry of `Simulation::direct`.
const HAS_DIRECT: u8 = 1 << 1;
/// [`NodeState::bits`]: an offer worsened the reference route's slot, so
/// the next decision rescans the whole Adj-RIB-In.
const RESCAN: u8 = 1 << 2;
/// [`NodeState::bits`]: the reference route or the direct routes
/// changed since the last decision.
const CHANGED: u8 = 1 << 3;

/// The fields of a route BGP's decision process compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RouteKey {
    local_pref: u32,
    path_len: u32,
    /// Announcing neighbor's original index + 1; 0 = learned directly
    /// from the origin.
    from: u32,
    ingress: LinkId,
}

impl RouteKey {
    #[inline]
    fn of(r: &Route) -> RouteKey {
        RouteKey {
            local_pref: r.local_pref,
            path_len: r.path_len,
            from: r.from_neighbor.map_or(0, |n| n.0 + 1),
            ingress: r.ingress,
        }
    }
}

/// One AS's record in the drain, in 32 bytes: the copies the export loop
/// reads about a receiver (ASN, original index, policy flags) and the
/// AS's reference route, next to the state the drain writes. An offer
/// touches the receiver's record and its RIB slot, and a decision reads
/// the popped AS's record alone.
///
/// The reference route carries the changed-slot invariant (DESIGN.md
/// §4o): unless [`RESCAN`] is set, it is a copy of the best of the AS's
/// present Adj-RIB-In entries, or absent (`ref_from == 0`) when none is
/// present. [`better`] is a strict total order over one AS's slots (they
/// differ in the announcing neighbor), so an offer from another neighbor
/// is compared with the reference alone, and a decision needs no scan.
#[derive(Debug, Clone, Copy)]
struct NodeState {
    /// The AS's ASN.
    asn: Asn,
    /// The AS's original index.
    orig: AsIndex,
    /// Causal depth the AS's next best-route change takes: one more than
    /// the deepest neighbor change that activated it.
    pending_depth: u32,
    /// The reference route ([`Slot`]'s fields; see above). `ref_from` is
    /// the announcing neighbor's original index + 1, so 0 = no route,
    /// and names the Adj-RIB-In slot the route sits in. LocalPref takes
    /// 16 bits: the policy assigns 100..=300.
    ref_path: PathId,
    ref_len: u32,
    ref_from: u32,
    ref_pref: u16,
    ref_communities: CommunityBits,
    ref_ingress: LinkId,
    ref_learned: NeighborKind,
    /// [`PolicyTable::flags_of`] this AS.
    flags: u8,
    /// [`IN_QUEUE`], [`HAS_DIRECT`], [`RESCAN`] and [`CHANGED`].
    bits: u8,
}

const _: () = assert!(std::mem::size_of::<NodeState>() == 32);

impl NodeState {
    /// Forget the drain state, keeping the AS's constants.
    fn reset(&mut self) {
        self.pending_depth = 0;
        self.ref_from = 0;
        self.bits = 0;
    }

    #[inline]
    fn ref_key(&self) -> RouteKey {
        RouteKey {
            local_pref: self.ref_pref.into(),
            path_len: self.ref_len,
            from: self.ref_from,
            ingress: self.ref_ingress,
        }
    }

    /// The reference route, if any.
    #[inline]
    fn ref_route(&self) -> Option<Route> {
        (self.ref_from != 0).then(|| Route {
            path_id: self.ref_path,
            path_len: self.ref_len,
            ingress: self.ref_ingress,
            from_neighbor: Some(AsIndex(self.ref_from - 1)),
            local_pref: self.ref_pref.into(),
            learned_from: self.ref_learned,
            communities: self.ref_communities,
        })
    }

    /// Make `r`, a route learned from a neighbor, the reference.
    #[inline]
    fn set_ref(&mut self, r: &Route) {
        debug_assert!(
            r.local_pref <= u16::MAX.into(),
            "policy LocalPrefs fit 16 bits"
        );
        self.ref_path = r.path_id;
        self.ref_len = r.path_len;
        self.ref_from = r.from_neighbor.map_or(0, |n| n.0 + 1);
        self.ref_pref = r.local_pref as u16;
        self.ref_communities = r.communities;
        self.ref_ingress = r.ingress;
        self.ref_learned = r.learned_from;
        self.bits |= CHANGED;
    }
}

/// One packed RIB entry: a [`Route`] in 20 bytes, so reading or writing a
/// random slot touches one cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    path_id: PathId,
    path_len: u32,
    /// Announcing neighbor's original index + 1; 0 = learned directly
    /// from the origin (the `Option<AsIndex>` niche, flattened into the
    /// field).
    from_neighbor: u32,
    local_pref: u32,
    ingress: LinkId,
    learned_from: NeighborKind,
    communities: CommunityBits,
}

// RIB memory is `slots × size_of::<Slot>()`: a new field must not grow it
// unnoticed.
const _: () = assert!(std::mem::size_of::<Slot>() == 20);

impl Slot {
    /// Filler for absent slots (never read).
    const FILLER: Slot = Slot {
        path_id: PathId::EMPTY,
        path_len: 0,
        from_neighbor: 0,
        local_pref: 0,
        ingress: LinkId(0),
        learned_from: NeighborKind::Customer,
        communities: CommunityBits::EMPTY,
    };

    #[inline]
    fn pack(r: &Route) -> Slot {
        Slot {
            path_id: r.path_id,
            path_len: r.path_len,
            from_neighbor: r.from_neighbor.map_or(0, |n| n.0 + 1),
            local_pref: r.local_pref,
            ingress: r.ingress,
            learned_from: r.learned_from,
            communities: r.communities,
        }
    }

    #[inline]
    fn unpack(self) -> Route {
        Route {
            path_id: self.path_id,
            path_len: self.path_len,
            ingress: self.ingress,
            from_neighbor: self.from_neighbor.checked_sub(1).map(AsIndex),
            local_pref: self.local_pref,
            learned_from: self.learned_from,
            communities: self.communities,
        }
    }
}

/// True when a route with key `a` is strictly better than one with key
/// `b` at AS `at` under the full decision process: LocalPref, then
/// AS-path length, then the salted tiebreak
/// ([`PolicyTable::tiebreak_key`]), then neighbor index and ingress link
/// as a total-order fallback.
#[inline]
fn better(policy: &PolicyTable, at: AsIndex, a: RouteKey, b: RouteKey) -> bool {
    if a.local_pref != b.local_pref {
        return a.local_pref > b.local_pref;
    }
    if a.path_len != b.path_len {
        return a.path_len < b.path_len;
    }
    let ta = policy.tiebreak_nid(at, a.from, a.ingress);
    let tb = policy.tiebreak_nid(at, b.from, b.ingress);
    if ta != tb {
        return ta < tb;
    }
    if a.from != b.from {
        return a.from < b.from;
    }
    a.ingress < b.ingress
}

/// BGP's choice among `candidates` at AS `at`: each replaces the
/// current pick when strictly [`better`], so among equals the first
/// stays.
fn select(
    policy: &PolicyTable,
    at: AsIndex,
    candidates: impl Iterator<Item = Route>,
) -> Option<Route> {
    candidates.reduce(|cur, cand| {
        if better(policy, at, RouteKey::of(&cand), RouteKey::of(&cur)) {
            cand
        } else {
            cur
        }
    })
}

/// Route table: one packed [`Slot`] per index plus a u64 presence bitset.
///
/// Both the flat CSR Adj-RIB-In (AS `k`'s slots are
/// [`BgpEngine::rib_slots`]; an export lands in the mirror slot) and the
/// per-AS best table (slot = internal id) use this layout, so a full
/// decision streams contiguous memory instead of chasing per-AS heap
/// vectors, absent slots are skipped a word at a time without loading
/// any route bytes, and an epoch clear is an O(slots/64) zero of the
/// presence words rather than an O(slots) `Option` fill.
#[derive(Clone)]
struct RouteTable {
    /// Contents of absent slots are stale filler and never read.
    slots: Vec<Slot>,
    /// Bit `s` set ⟺ slot `s` holds a route.
    present: Vec<u64>,
}

impl RouteTable {
    fn new(slots: usize) -> RouteTable {
        RouteTable {
            slots: vec![Slot::FILLER; slots],
            present: vec![0; slots.div_ceil(64)],
        }
    }

    #[inline]
    fn is_present(&self, s: usize) -> bool {
        self.present[s / 64] & (1 << (s % 64)) != 0
    }

    /// Unpack slot `s` into a [`Route`]. Caller must have checked
    /// presence.
    #[inline]
    fn route_at(&self, s: usize) -> Route {
        self.slots[s].unpack()
    }

    #[inline]
    fn get(&self, s: usize) -> Option<Route> {
        self.is_present(s).then(|| self.route_at(s))
    }

    /// Slot `s` as stored: its packed route if present.
    #[inline]
    fn raw(&self, s: usize) -> Option<Slot> {
        self.is_present(s).then(|| self.slots[s])
    }

    /// Put back what [`RouteTable::raw`] returned for slot `s`.
    fn restore(&mut self, s: usize, slot: Option<Slot>) {
        match slot {
            Some(slot) => {
                self.present[s / 64] |= 1 << (s % 64);
                self.slots[s] = slot;
            }
            None => self.present[s / 64] &= !(1 << (s % 64)),
        }
    }

    #[inline]
    fn set(&mut self, s: usize, r: Option<Route>) {
        match r {
            Some(r) => {
                self.present[s / 64] |= 1 << (s % 64);
                self.slots[s] = Slot::pack(&r);
            }
            None => self.present[s / 64] &= !(1 << (s % 64)),
        }
    }

    /// Equality of slot `s` against an optional route, compared in
    /// packed form.
    #[inline]
    fn matches(&self, s: usize, r: &Option<Route>) -> bool {
        match r {
            None => !self.is_present(s),
            Some(r) => self.is_present(s) && self.slots[s] == Slot::pack(r),
        }
    }

    /// Present slot indices within `slots`, ascending; all-absent words
    /// are skipped with one load each.
    fn present_in(&self, slots: Range<usize>) -> impl Iterator<Item = usize> + '_ {
        let Range { start, end } = slots;
        let wstart = start / 64;
        let wend = end.div_ceil(64);
        self.present[wstart..wend]
            .iter()
            .enumerate()
            .flat_map(move |(k, &word)| {
                let w = wstart + k;
                let mut bits = word;
                if w * 64 < start {
                    bits &= !0u64 << (start - w * 64);
                }
                if (w + 1) * 64 > end {
                    let keep = end - w * 64;
                    bits &= if keep == 64 { !0 } else { (1u64 << keep) - 1 };
                }
                std::iter::from_fn(move || {
                    if bits == 0 {
                        return None;
                    }
                    let t = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(w * 64 + t)
                })
            })
    }

    /// The best present route within `slots` at AS `at`.
    fn best_in(&self, policy: &PolicyTable, at: AsIndex, slots: Range<usize>) -> Option<Route> {
        select(policy, at, self.present_in(slots).map(|s| self.route_at(s)))
    }

    /// Number of present slots: a popcount of the presence words.
    fn count(&self) -> usize {
        self.present.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Drop every route: zero the presence words, leaving slot filler in
    /// place. O(slots/64).
    fn clear(&mut self) {
        self.present.fill(0);
    }
}

/// Mutable propagation state: direct routes, Adj-RIB-Ins, best routes,
/// and the activation queue, every per-AS part over internal ids. One
/// [`Simulation`] can run several epochs (configuration deployments)
/// back to back, which is how [`BgpEngine::transition_config`] and a
/// session's deployments from its baseline model a live configuration
/// change.
struct Simulation<'e, 't> {
    engine: &'e BgpEngine<'t>,
    /// Interned AS-paths for every route alive in this state. Append-only
    /// between [`Simulation::clear`]s: truncating while `direct`/`ribs`/
    /// `best` hold [`crate::PathId`]s would dangle them, so a transition
    /// epoch never truncates — canonical interning makes re-offered paths
    /// converge to a high-water set instead of growing without bound.
    arena: PathArena,
    /// Direct routes from the origin as `(provider, route)`, in injection
    /// order. Short (one per announced link), and read only for ASes with
    /// [`HAS_DIRECT`] set.
    direct: Vec<(NodeId, Route)>,
    /// Flat Adj-RIB-In over the engine's CSR slots
    /// ([`BgpEngine::rib_slots`]).
    ribs: RouteTable,
    /// Best routes over internal id.
    best: RouteTable,
    queue: VecDeque<NodeId>,
    /// Per-AS records over internal id.
    node: Vec<NodeState>,
    max_depth: u32,
    changes: Vec<RouteChange>,
    events: usize,
    /// Offers the import policy evaluated (`bgp.offers`).
    offers: u64,
    /// Decisions that rescanned a whole Adj-RIB-In (`bgp.full_decides`).
    full_decides: u64,
    converged: bool,
    /// While a session holds a baseline: what the current transition
    /// overwrote. Every slot write saves the old slot first, and every
    /// write to a record or a best entry saves the AS's reference first.
    undo: Option<Box<UndoLog>>,
}

impl<'e, 't> Simulation<'e, 't> {
    fn new(engine: &'e BgpEngine<'t>) -> Simulation<'e, 't> {
        let node = engine
            .order
            .iter()
            .map(|&i| NodeState {
                asn: engine.topo.asn_of(i),
                orig: i,
                pending_depth: 0,
                ref_path: PathId::EMPTY,
                ref_len: 0,
                ref_from: 0,
                ref_pref: 0,
                ref_communities: CommunityBits::EMPTY,
                ref_ingress: LinkId(0),
                ref_learned: NeighborKind::Customer,
                flags: engine.policy.flags_of(i),
                bits: 0,
            })
            .collect();
        Simulation {
            engine,
            arena: PathArena::new(),
            direct: Vec::new(),
            ribs: RouteTable::new(engine.edges.len()),
            best: RouteTable::new(engine.order.len()),
            queue: VecDeque::new(),
            node,
            max_depth: 0,
            changes: Vec::new(),
            events: 0,
            offers: 0,
            full_decides: 0,
            converged: true,
            undo: None,
        }
    }

    /// Reset to the just-constructed state *in place*, retaining every
    /// allocation (RIB vectors, queue, change log, and the path arena's
    /// node table and interning map). Identical operation sequences after
    /// a clear intern identical [`crate::PathId`]s, so a cleared
    /// simulation is bit-equivalent to a fresh one.
    fn clear(&mut self) {
        self.arena.clear();
        self.direct.clear();
        self.ribs.clear();
        self.best.clear();
        self.queue.clear();
        self.node.iter_mut().for_each(NodeState::reset);
        self.max_depth = 0;
        self.changes.clear();
        self.events = 0;
        self.offers = 0;
        self.full_decides = 0;
        self.converged = true;
    }

    /// Roll back to `baseline`, the state the undo log started from:
    /// restore every saved slot, put back the baseline's direct routes,
    /// rebuild each noted AS's record and best entry from its saved
    /// reference ([`UndoLog`]), and drop the arena's later nodes and the
    /// epoch's accounting.
    fn rollback(&mut self, baseline: &Baseline) {
        let engine = self.engine;
        let undo = self
            .undo
            .as_mut()
            .expect("a session with a baseline logs its transitions");
        undo.ribs.rewind(|s, old| self.ribs.restore(s, old));
        self.direct.clone_from(&baseline.direct);
        undo.refs.rewind(|k, reference| {
            let direct = self.direct.iter().filter(|(p, _)| p.us() == k);
            let node = &mut self.node[k];
            match reference {
                Some(slot) => node.set_ref(&slot.unpack()),
                None => node.ref_from = 0,
            }
            node.pending_depth = 0;
            node.bits = if direct.clone().next().is_some() {
                HAS_DIRECT
            } else {
                0
            };
            let best = select(
                &engine.policy,
                node.orig,
                direct.map(|(_, r)| *r).chain(node.ref_route()),
            );
            self.best.set(k, best);
        });
        self.arena.truncate(baseline.arena_nodes);
        self.queue.clear();
        self.max_depth = 0;
        self.changes.clear();
        self.events = 0;
        self.offers = 0;
        self.full_decides = 0;
        self.converged = true;
    }

    /// Save `k`'s reference route before the first write to its record in
    /// a logged transition.
    #[inline]
    fn touch(&mut self, k: NodeId) {
        if let Some(undo) = &mut self.undo {
            let node = &self.node[k.us()];
            undo.refs
                .save(k.us(), || node.ref_route().map(|r| Slot::pack(&r)));
        }
    }

    /// Queue `k` for a decision. In a logged transition `k` must already
    /// be saved ([`Simulation::touch`]): the drain writes a queued AS's
    /// record and best entry without saving it again.
    fn enqueue(&mut self, k: NodeId) {
        let node = &mut self.node[k.us()];
        if node.bits & IN_QUEUE == 0 {
            node.bits |= IN_QUEUE;
            self.queue.push_back(k);
        }
    }

    /// The direct routes injected at `k`, in injection order; the list
    /// is not scanned unless `k` holds one.
    fn direct_routes(&self, k: NodeId) -> impl Iterator<Item = Route> + '_ {
        let direct: &[(NodeId, Route)] = if self.node[k.us()].bits & HAS_DIRECT != 0 {
            &self.direct
        } else {
            &[]
        };
        direct
            .iter()
            .filter(move |(provider, _)| *provider == k)
            .map(|(_, r)| *r)
    }

    /// Inject one origin announcement at its PoP's provider. The provider
    /// treats the origin as a customer.
    fn apply_injection(&mut self, inj: &Injection) {
        let engine = self.engine;
        if !engine
            .policy
            .accepts(engine.topo, inj.provider, None, &inj.path)
        {
            return; // provider itself poisoned, or tier-1 filter
        }
        let lp = engine
            .policy
            .local_pref(inj.provider, None, NeighborKind::Customer);
        let path_id = self.arena.intern_path(&inj.path);
        let k = engine.internal[inj.provider.us()];
        self.touch(k);
        self.direct.push((
            k,
            Route {
                path_id,
                path_len: inj.path.len() as u32,
                ingress: inj.link,
                from_neighbor: None,
                local_pref: lp,
                learned_from: NeighborKind::Customer,
                communities: CommunityBits::from_set(&inj.communities),
            },
        ));
        self.node[k.us()].bits |= HAS_DIRECT;
        self.enqueue(k);
    }

    /// Inject origin announcements at each PoP's provider.
    fn apply_injections(&mut self, injections: &[Injection]) {
        for inj in injections {
            self.apply_injection(inj);
        }
    }

    /// Start a fresh measurement epoch: reset round accounting and the
    /// change log, keeping the converged routing state.
    fn begin_epoch(&mut self) {
        for node in &mut self.node {
            node.pending_depth = 0;
        }
        self.max_depth = 0;
        self.changes.clear();
        self.events = 0;
    }

    /// Replace the origin's announcements: withdraw every current direct
    /// route, then inject the new set. Providers losing or gaining a
    /// direct route are activated and the withdrawal/announcement churn
    /// propagates on the next [`Simulation::run`]. The previous providers
    /// are activated in ascending original index order.
    fn replace_injections(&mut self, injections: &[Injection]) {
        let order = &self.engine.order;
        self.direct
            .sort_unstable_by_key(|&(provider, _)| order[provider.us()]);
        for k in 0..self.direct.len() {
            let provider = self.direct[k].0;
            self.touch(provider);
            // A provider's later entries find `HAS_DIRECT` already clear.
            let node = &mut self.node[provider.us()];
            if node.bits & HAS_DIRECT != 0 {
                node.bits = node.bits & !HAS_DIRECT | CHANGED;
                self.enqueue(provider);
            }
        }
        self.direct.clear();
        self.apply_injections(injections);
    }

    /// Best-path selection at `k`: its direct routes in injection order,
    /// then the best of its Adj-RIB-In, or `None` when neither can have
    /// changed since `k`'s last decision. The Adj-RIB-In's best is the
    /// reference route ([`NodeState`]) unless an offer worsened its slot;
    /// only then are the AS's slots rescanned, in ascending order.
    /// [`better`] orders the slots strictly, so the result is the one a
    /// scan of every candidate in that order returns.
    fn decide(&mut self, k: NodeId) -> Option<Option<Route>> {
        let policy = &self.engine.policy;
        let node = &mut self.node[k.us()];
        if node.bits & (RESCAN | CHANGED | HAS_DIRECT) == 0 {
            #[cfg(test)]
            assert!(self.best.matches(k.us(), &self.scan(k)), "{k:?} moved");
            return None;
        }
        if node.bits & RESCAN != 0 {
            match self
                .ribs
                .best_in(policy, node.orig, self.engine.rib_slots(k))
            {
                Some(r) => node.set_ref(&r),
                None => node.ref_from = 0,
            }
            self.full_decides += 1;
        }
        node.bits &= !(RESCAN | CHANGED);
        let node = self.node[k.us()];
        #[cfg(test)]
        assert_eq!(
            node.ref_route(),
            self.ribs
                .best_in(policy, node.orig, self.engine.rib_slots(k)),
            "reference route at {k:?}"
        );
        let best = select(
            policy,
            node.orig,
            self.direct_routes(k).chain(node.ref_route()),
        );
        #[cfg(test)]
        assert_eq!(best, self.scan(k), "changed-slot selection at {k:?}");
        Some(best)
    }

    /// Best-path selection at `k` over every candidate: direct routes in
    /// injection order, then present slots ascending. The oracle
    /// [`Simulation::decide`] is checked against in tests.
    #[cfg(test)]
    fn scan(&self, k: NodeId) -> Option<Route> {
        let slots = self.engine.rib_slots(k);
        select(
            &self.engine.policy,
            self.node[k.us()].orig,
            self.direct_routes(k)
                .chain(self.ribs.present_in(slots).map(|s| self.ribs.route_at(s))),
        )
    }

    /// Keep `j`'s reference route ([`NodeState`]) true across the write
    /// of `offer` (`None`: a withdrawal) from the neighbor with original
    /// index `from - 1` into `j`'s Adj-RIB-In. An offer that beats the
    /// reference takes its place; one that worsens the reference's own
    /// slot leaves the best unknown until a rescan.
    #[inline]
    fn note_offer(&mut self, j: NodeId, from: u32, offer: Option<&Route>) {
        let policy = &self.engine.policy;
        let node = &mut self.node[j.us()];
        if node.bits & RESCAN != 0 {
            return;
        }
        if node.ref_from == from {
            // Same neighbor: a tie is the reference slot's new route.
            match offer {
                Some(o) if !better(policy, node.orig, node.ref_key(), RouteKey::of(o)) => {
                    node.set_ref(o)
                }
                _ => node.bits |= RESCAN,
            }
        } else if let Some(o) = offer {
            if node.ref_from == 0 || better(policy, node.orig, RouteKey::of(o), node.ref_key()) {
                node.set_ref(o);
            }
        }
    }

    /// [`Simulation::run`] as one deployment: the drain under a
    /// `bgp.drain` span, its events on `deploy`, the caller's `bgp.deploy`
    /// span, and its work added to `bgp.deployments`, `bgp.events`,
    /// `bgp.offers`, `bgp.full_decides`, `bgp.changes`, the `bgp.rounds`
    /// histogram and, when the cap fired, `bgp.event_cap_hits`. The
    /// epoch's events, rounds and changes start at zero; offers and full
    /// decisions count from the drain's start. The counters are read after
    /// the drain, so instrumentation never perturbs the routing state.
    fn drain(&mut self, deploy: &mut trackdown_obs::Span, max_events_factor: usize) {
        let (offers, full_decides) = (self.offers, self.full_decides);
        {
            let _drain = trackdown_obs::span("bgp.drain");
            self.run(max_events_factor);
        }
        deploy.set_attr("events", self.events as u64);
        trackdown_obs::counter!("bgp.deployments").inc();
        trackdown_obs::counter!("bgp.events").add(self.events as u64);
        trackdown_obs::counter!("bgp.offers").add(self.offers - offers);
        trackdown_obs::counter!("bgp.full_decides").add(self.full_decides - full_decides);
        trackdown_obs::counter!("bgp.changes").add(self.changes.len() as u64);
        trackdown_obs::histogram!("bgp.rounds").observe(self.max_depth as u64);
        if !self.converged {
            trackdown_obs::counter!("bgp.event_cap_hits").inc();
        }
    }

    /// Process the activation queue to quiescence (or the event cap).
    fn run(&mut self, max_events_factor: usize) {
        let engine = self.engine;
        let n = engine.topo.num_ases();
        let cap = max_events_factor.saturating_mul(n.max(1));
        while let Some(i) = self.queue.pop_front() {
            self.node[i.us()].bits &= !IN_QUEUE;
            self.events += 1;
            if self.events > cap {
                self.converged = false;
                break;
            }
            let Some(new_best) = self.decide(i) else {
                continue;
            };
            if self.best.matches(i.us(), &new_best) {
                continue;
            }
            let sender = self.node[i.us()];
            let depth = sender.pending_depth;
            self.best.set(i.us(), new_best);
            self.max_depth = self.max_depth.max(depth);
            self.changes.push(RouteChange {
                round: depth,
                at: sender.orig,
                ingress: new_best.map(|r| r.ingress),
                path_len: new_best.map(|r| r.path_len()).unwrap_or(0),
            });
            // A route is not offered back to the neighbor it came from.
            let learned_from = match new_best.and_then(|r| r.from_neighbor) {
                Some(n) => engine.internal[n.us()],
                None => NodeId::NONE,
            };
            // The exported path is the same for every neighbor; it is
            // interned on the first accepted export, exactly where the
            // per-neighbor interning first pushed its nodes.
            let mut exported_path: Option<PathId> = None;
            // Export (or withdraw) toward every neighbor; `slot` is the
            // mirror slot in `j`'s Adj-RIB-In that holds `i`'s offer.
            for &edge in &engine.edges[engine.rib_slots(i)] {
                let (j, slot) = (edge.to, edge.mirror());
                // `j_kind_from_i`: how j looks from i (is j my customer?).
                let j_kind_from_i = edge.kind();
                let offer = match new_best {
                    Some(r)
                        if engine.policy.may_export_route(
                            sender.orig,
                            r.learned_from,
                            j_kind_from_i,
                            r.communities,
                        )
                            // Origin action communities: the PoP provider
                            // (holder of the direct route) honors export
                            // scoping toward peers/providers.
                            && (r.from_neighbor.is_some()
                                || r.communities.allows_export_to(j_kind_from_i))
                            && j != learned_from =>
                    {
                        // Provider-side prepending community: the provider
                        // prepends its own ASN extra times on export of a
                        // direct route.
                        let extra = if r.from_neighbor.is_none() {
                            r.communities.provider_prepends()
                        } else {
                            0
                        };
                        // First-hop action communities are stripped; an
                        // only-to-customers deployer marks (and everyone
                        // propagates) the OTC attribute. EMPTY whenever no
                        // extension is deployed.
                        let exported_comms =
                            engine
                                .policy
                                .export_communities(sender.orig, &r, j_kind_from_i);
                        // Evaluate acceptance on the *virtual* offered path
                        // (prepends chained onto the arena walk) before
                        // interning, so rejected offers push no nodes.
                        let i_kind_from_j = j_kind_from_i.reverse();
                        let receiver = self.node[j.us()];
                        self.offers += 1;
                        let accepted = engine.policy.accepts_offer_from(
                            engine.topo,
                            (receiver.orig, receiver.asn, receiver.flags),
                            (sender.orig, i_kind_from_j),
                            exported_comms,
                            std::iter::repeat_n(sender.asn, 1 + extra)
                                .chain(self.arena.iter(r.path_id)),
                        );
                        if accepted {
                            let path_id = *exported_path.get_or_insert_with(|| {
                                self.arena.push_times(r.path_id, sender.asn, 1 + extra)
                            });
                            Some(Route {
                                path_id,
                                path_len: r.path_len + 1 + extra as u32,
                                ingress: r.ingress,
                                from_neighbor: Some(sender.orig),
                                local_pref: engine.policy.local_pref_with(
                                    receiver.flags,
                                    receiver.orig,
                                    Some(sender.orig),
                                    i_kind_from_j,
                                ),
                                learned_from: i_kind_from_j,
                                communities: exported_comms,
                            })
                        } else {
                            None
                        }
                    }
                    _ => None,
                };
                if !self.ribs.matches(slot, &offer) {
                    if let Some(undo) = &mut self.undo {
                        undo.ribs.save(slot, || self.ribs.raw(slot));
                        let node = &self.node[j.us()];
                        undo.refs
                            .save(j.us(), || node.ref_route().map(|r| Slot::pack(&r)));
                    }
                    self.note_offer(j, sender.orig.0 + 1, offer.as_ref());
                    self.ribs.set(slot, offer);
                    let pending = &mut self.node[j.us()].pending_depth;
                    *pending = (*pending).max(depth + 1);
                    self.enqueue(j);
                }
            }
        }
    }

    /// Best routes in original index order.
    fn best_routes(&self) -> Vec<Option<Route>> {
        self.engine
            .internal
            .iter()
            .map(|k| self.best.get(k.us()))
            .collect()
    }

    /// The candidate RIBs and path store a snapshot at `detail` carries.
    fn capture(&self, detail: SnapshotDetail) -> (Option<Vec<Vec<Route>>>, PathStore) {
        match detail {
            SnapshotDetail::Catchments => (None, PathStore::default()),
            SnapshotDetail::Paths => (None, self.arena.store()),
            SnapshotDetail::Full => (Some(self.capture_candidates()), self.arena.store()),
        }
    }

    /// Candidate RIB copy for a [`SnapshotDetail::Full`] snapshot, in
    /// original index order.
    fn capture_candidates(&self) -> Vec<Vec<Route>> {
        self.engine
            .internal
            .iter()
            .map(|&k| {
                let slots = self.engine.rib_slots(k);
                self.direct_routes(k)
                    .chain(self.ribs.present_in(slots).map(|s| self.ribs.route_at(s)))
                    .collect()
            })
            .collect()
    }

    /// Snapshot the converged state into a [`RoutingOutcome`]; the
    /// simulation stays alive for further deployments. At the default
    /// [`SnapshotDetail::Catchments`] this copies only the `best` vector
    /// and the epoch's change log. Every reachable AS counts as
    /// disturbed, whether the deployment started from empty RIBs or from
    /// a session's baseline.
    fn snapshot(&self, detail: SnapshotDetail) -> RoutingOutcome {
        let (candidates, paths) = self.capture(detail);
        RoutingOutcome {
            best: self.best_routes(),
            candidates,
            paths,
            events: self.events,
            rounds: self.max_depth,
            changes: self.changes.clone(),
            converged: self.converged,
            routes_disturbed: self.best.count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::community::CommunitySet;
    use crate::origin::OriginAs;
    use trackdown_topology::{topology_from_links, Asn, LinkKind};

    /// Arena-independent identity of a route: everything that defines it,
    /// with the interned path materialized. Route ids are only canonical
    /// within one arena, so cross-simulation comparisons go through this.
    type RouteKey = (
        AsPath,
        LinkId,
        Option<AsIndex>,
        u32,
        NeighborKind,
        crate::community::CommunityBits,
    );

    fn route_key(out: &RoutingOutcome, r: &Route) -> RouteKey {
        (
            out.path_of(r),
            r.ingress,
            r.from_neighbor,
            r.local_pref,
            r.learned_from,
            r.communities,
        )
    }

    /// Materialized best routes (requires a Full-detail outcome).
    fn best_keys(out: &RoutingOutcome) -> Vec<Option<RouteKey>> {
        out.best
            .iter()
            .map(|b| b.as_ref().map(|r| route_key(out, r)))
            .collect()
    }

    /// Materialized candidate RIBs (requires a Full-detail outcome).
    fn candidate_keys(out: &RoutingOutcome) -> Vec<Vec<RouteKey>> {
        out.candidates()
            .iter()
            .map(|cands| cands.iter().map(|r| route_key(out, r)).collect())
            .collect()
    }

    /// Textbook policies, no noise.
    fn clean_config() -> EngineConfig {
        EngineConfig {
            policy: PolicyConfig {
                seed: 7,
                violator_fraction: 0.0,
                no_loop_prevention_fraction: 0.0,
                tier1_poison_filtering: false,
                extensions: Default::default(),
            },
            max_events_factor: 200,
        }
    }

    /// Figure-2-like topology:
    ///
    /// ```text
    ///        t1 ──── t2        (tier-1 peers)
    ///       /  \    /  \
    ///      x    n──u    y      (transits; n-u is a peering link)
    ///                          x, n, y are origin providers
    ///      u also serves stubs a, b
    /// ```
    fn fig2_topology() -> trackdown_topology::Topology {
        topology_from_links([
            (Asn(1), Asn(2), LinkKind::PeerPeer),           // t1-t2
            (Asn(1), Asn(10), LinkKind::ProviderCustomer),  // t1 -> x
            (Asn(1), Asn(11), LinkKind::ProviderCustomer),  // t1 -> n
            (Asn(2), Asn(12), LinkKind::ProviderCustomer),  // t2 -> u
            (Asn(2), Asn(13), LinkKind::ProviderCustomer),  // t2 -> y
            (Asn(11), Asn(12), LinkKind::PeerPeer),         // n-u peering
            (Asn(12), Asn(20), LinkKind::ProviderCustomer), // u -> a
            (Asn(12), Asn(21), LinkKind::ProviderCustomer), // u -> b
        ])
        .unwrap()
    }

    fn origin_xny() -> OriginAs {
        OriginAs::new(
            Asn(47065),
            vec![
                ("X".into(), Asn(10)),
                ("N".into(), Asn(11)),
                ("Y".into(), Asn(13)),
            ],
        )
    }

    fn all_plain(o: &OriginAs) -> Vec<LinkAnnouncement> {
        o.link_ids().map(LinkAnnouncement::plain).collect()
    }

    /// The edge table matches the adjacency slot for slot: `order` and
    /// `internal` are inverse permutations, and for every AS `i` with
    /// internal id `k`, `to` and the unpacked kind of `k`'s `m`-th slot
    /// are `topo.neighbors(i)[m]`, the mirror map is an involution, and
    /// each mirror slot lies in the receiver's CSR range at the position
    /// that names the sender.
    fn assert_edge_table(engine: &BgpEngine) {
        let topo = engine.topo;
        assert_eq!(engine.order.len(), topo.num_ases());
        for (k, &i) in engine.order.iter().enumerate() {
            assert_eq!(engine.internal[i.us()], NodeId(k as u32));
        }
        assert_eq!(engine.rib_offsets.len(), topo.num_ases() + 1);
        assert_eq!(
            engine.edges.len(),
            *engine.rib_offsets.last().unwrap() as usize
        );
        for i in topo.indices() {
            let k = engine.internal[i.us()];
            let slots = engine.rib_slots(k);
            assert_eq!(slots.len(), topo.degree(i));
            for (m, s) in slots.enumerate() {
                let edge = engine.edges[s];
                let (j, kind) = topo.neighbors(i)[m];
                assert_eq!(
                    (edge.to, edge.kind()),
                    (engine.internal[j.us()], kind),
                    "slot {s} of {i:?}"
                );
                let mirror = edge.mirror();
                assert_eq!(engine.edges[mirror].mirror(), s, "slot {s} of {i:?}");
                let receiver = engine.rib_slots(edge.to);
                assert!(
                    receiver.contains(&mirror),
                    "slot {s}: mirror {mirror} outside {j:?}"
                );
                assert_eq!(engine.edges[mirror].to, k);
                assert_eq!(topo.neighbors(j)[mirror - receiver.start].0, i);
            }
        }
    }

    /// [`assert_edge_table`] under the locality order, the identity and
    /// its reverse.
    fn assert_edge_tables(topo: &trackdown_topology::Topology) {
        let identity: Vec<AsIndex> = topo.indices().collect();
        let reversed: Vec<AsIndex> = identity.iter().rev().copied().collect();
        assert_edge_table(&BgpEngine::new(topo, &clean_config()));
        for order in [identity, reversed] {
            assert_edge_table(&BgpEngine::with_order(topo, &clean_config(), order));
        }
    }

    #[test]
    fn slot_packing_round_trips() {
        let comms = CommunityBits::from_set(&CommunitySet::from_vec(vec![
            crate::community::Community::NoExportToPeers,
            crate::community::Community::PrependAtProvider(8),
        ]))
        .with_otc();
        let mut arena = PathArena::new();
        let path = arena.push(PathId::EMPTY, Asn(7));
        for learned_from in [
            NeighborKind::Customer,
            NeighborKind::Peer,
            NeighborKind::Provider,
        ] {
            for from_neighbor in [None, Some(AsIndex(0)), Some(AsIndex(u32::MAX - 1))] {
                for (path_id, communities) in [(PathId::EMPTY, CommunityBits::EMPTY), (path, comms)]
                {
                    let r = Route {
                        path_id,
                        path_len: 12,
                        ingress: LinkId(255),
                        from_neighbor,
                        local_pref: 300,
                        learned_from,
                        communities,
                    };
                    assert_eq!(Slot::pack(&r).unpack(), r);
                }
            }
        }
    }

    #[test]
    fn edge_table_matches_the_adjacency() {
        use trackdown_topology::gen::{generate, TopologyConfig};
        assert_edge_tables(&fig2_topology());
        assert_edge_tables(&generate(&TopologyConfig::small(7)).topology);
        assert_edge_tables(&generate(&TopologyConfig::paper(7)).topology);
        // Two ASes, one link.
        assert_edge_tables(&topology_from_links([(Asn(1), Asn(2), LinkKind::PeerPeer)]).unwrap());
        // A degree-1 stub hanging off a transit with other neighbors.
        let stub = topology_from_links([
            (Asn(1), Asn(2), LinkKind::ProviderCustomer),
            (Asn(1), Asn(3), LinkKind::ProviderCustomer),
            (Asn(3), Asn(4), LinkKind::ProviderCustomer),
        ])
        .unwrap();
        assert_eq!(stub.degree(stub.index_of(Asn(4)).unwrap()), 1);
        assert_edge_tables(&stub);
    }

    /// The original indices of `asns`, for naming an expected order.
    fn indices_of(topo: &Topology, asns: &[u32]) -> Vec<AsIndex> {
        asns.iter()
            .map(|&a| topo.index_of(Asn(a)).unwrap())
            .collect()
    }

    #[test]
    fn locality_order_is_a_degree_ranked_bfs() {
        // From u (degree 4): its neighbors by degree, t2 (3), n (2), then
        // a and b (1, by index); t2 adds t1 and y; n adds nothing new;
        // t1 adds x.
        let topo = fig2_topology();
        assert_eq!(
            locality_order(&topo),
            indices_of(&topo, &[12, 2, 11, 20, 21, 1, 13, 10])
        );
        // A component the search does not reach starts from its lowest
        // index.
        let split = topology_from_links([
            (Asn(1), Asn(2), LinkKind::PeerPeer),
            (Asn(3), Asn(4), LinkKind::ProviderCustomer),
            (Asn(3), Asn(5), LinkKind::ProviderCustomer),
        ])
        .unwrap();
        let lowest = |a: u32, b: u32| {
            let (ia, ib) = (
                split.index_of(Asn(a)).unwrap(),
                split.index_of(Asn(b)).unwrap(),
            );
            if ia < ib {
                [a, b]
            } else {
                [b, a]
            }
        };
        let [x, y] = lowest(4, 5);
        let [p, q] = lowest(1, 2);
        assert_eq!(locality_order(&split), indices_of(&split, &[3, x, y, p, q]));
    }

    #[test]
    fn anycast_reaches_everyone() {
        let topo = fig2_topology();
        let engine = BgpEngine::new(&topo, &clean_config());
        let o = origin_xny();
        let out = engine.propagate_config(&o, &all_plain(&o)).unwrap();
        assert!(out.converged);
        assert_eq!(out.reachable_count(), topo.num_ases());
    }

    #[test]
    fn customers_of_u_route_through_peering_link_n() {
        let topo = fig2_topology();
        let engine = BgpEngine::new(&topo, &clean_config());
        let o = origin_xny();
        let out = engine.propagate_config(&o, &all_plain(&o)).unwrap();
        // u prefers the peer route via n (LocalPref peer > provider via t2),
        // so u and its customers a, b land in N's catchment (link 1).
        for asn in [12u32, 20, 21] {
            let i = topo.index_of(Asn(asn)).unwrap();
            assert_eq!(
                out.catchment(i),
                Some(LinkId(1)),
                "AS{asn} should use the n-u peering link"
            );
        }
    }

    #[test]
    fn withdrawing_a_link_moves_its_catchment() {
        let topo = fig2_topology();
        let engine = BgpEngine::new(&topo, &clean_config());
        let o = origin_xny();
        // Announce only via X and Y (withdraw N, link 1).
        let anns = vec![
            LinkAnnouncement::plain(LinkId(0)),
            LinkAnnouncement::plain(LinkId(2)),
        ];
        let out = engine.propagate_config(&o, &anns).unwrap();
        assert_eq!(out.reachable_count(), topo.num_ases());
        for i in topo.indices() {
            assert_ne!(out.catchment(i), Some(LinkId(1)), "link 1 was withdrawn");
        }
        // u now reaches the origin through its provider t2 toward y.
        let iu = topo.index_of(Asn(12)).unwrap();
        assert_eq!(out.catchment(iu), Some(LinkId(2)));
    }

    #[test]
    fn tier1_filter_drops_exports_from_customers_naming_another_tier1() {
        let topo = fig2_topology();
        let o = origin_xny();
        // Only X announces, poisoned with t2: x exports the path
        // `[x, origin, t2, origin]` up to its provider t1.
        let anns = [LinkAnnouncement::poisoned(LinkId(0), vec![Asn(2)])];
        let t1 = topo.index_of(Asn(1)).unwrap();
        for filtering in [false, true] {
            let mut config = clean_config();
            config.policy.tier1_poison_filtering = filtering;
            let engine = BgpEngine::new(&topo, &config);
            assert!(engine.policy().is_tier1(t1));
            let out = engine.propagate_config(&o, &anns).unwrap();
            // t1 drops the customer route naming tier-1 t2 only when
            // filtering; without it, t1 routes through x.
            assert_eq!(out.catchment(t1).is_some(), !filtering);
        }
    }

    #[test]
    fn poisoning_u_forces_u_off_the_n_link() {
        let topo = fig2_topology();
        let engine = BgpEngine::new(&topo, &clean_config());
        let o = origin_xny();
        // Poison u on the announcement through n (Figure 2 of the paper).
        let anns = vec![
            LinkAnnouncement::plain(LinkId(0)),
            LinkAnnouncement::poisoned(LinkId(1), vec![Asn(12)]),
            LinkAnnouncement::plain(LinkId(2)),
        ];
        let out = engine.propagate_config(&o, &anns).unwrap();
        assert!(out.converged);
        // u must not use the poisoned n announcement: loop prevention drops
        // it, so u falls back to its provider t2 and lands in Y's catchment.
        for asn in [12u32, 20, 21] {
            let i = topo.index_of(Asn(asn)).unwrap();
            assert_eq!(
                out.catchment(i),
                Some(LinkId(2)),
                "AS{asn} must avoid the poisoned link"
            );
        }
        // n itself still uses its own direct route.
        let in_ = topo.index_of(Asn(11)).unwrap();
        assert_eq!(out.catchment(in_), Some(LinkId(1)));
    }

    #[test]
    fn poisoning_is_ineffective_when_loop_prevention_disabled() {
        let topo = fig2_topology();
        let cfg = EngineConfig {
            policy: PolicyConfig {
                seed: 7,
                violator_fraction: 0.0,
                no_loop_prevention_fraction: 1.0, // everyone ignores poison
                tier1_poison_filtering: false,
                extensions: Default::default(),
            },
            max_events_factor: 200,
        };
        let engine = BgpEngine::new(&topo, &cfg);
        let o = origin_xny();
        let anns = vec![
            LinkAnnouncement::plain(LinkId(0)),
            LinkAnnouncement::poisoned(LinkId(1), vec![Asn(12)]),
            LinkAnnouncement::plain(LinkId(2)),
        ];
        let out = engine.propagate_config(&o, &anns).unwrap();
        // u keeps preferring the peer route despite being poisoned.
        let iu = topo.index_of(Asn(12)).unwrap();
        assert_eq!(out.catchment(iu), Some(LinkId(1)));
    }

    #[test]
    fn prepending_moves_length_based_ties() {
        // Stub s is a customer of two transits m and p, both customers of
        // origin providers. With equal LocalPref and equal path lengths the
        // salted tiebreak decides; prepending one link must force s to the
        // other link regardless of salt.
        let topo = topology_from_links([
            (Asn(10), Asn(30), LinkKind::ProviderCustomer),
            (Asn(11), Asn(30), LinkKind::ProviderCustomer),
        ])
        .unwrap();
        let o = OriginAs::new(
            Asn(47065),
            vec![("M".into(), Asn(10)), ("P".into(), Asn(11))],
        );
        let engine = BgpEngine::new(&topo, &clean_config());
        let is = topo.index_of(Asn(30)).unwrap();

        // Baseline: both plain; s picks one by tiebreak.
        let out = engine.propagate_config(&o, &all_plain(&o)).unwrap();
        let baseline = out.catchment(is).unwrap();
        let other = if baseline == LinkId(0) {
            LinkId(1)
        } else {
            LinkId(0)
        };

        // Prepend on the baseline link: s must switch to the other link.
        let anns = vec![
            LinkAnnouncement {
                link: baseline,
                prepend: true,
                poisons: vec![],
                communities: CommunitySet::empty(),
            },
            LinkAnnouncement::plain(other),
        ];
        let out2 = engine.propagate_config(&o, &anns).unwrap();
        assert_eq!(out2.catchment(is), Some(other));
    }

    #[test]
    fn forwarding_walk_matches_control_plane() {
        let topo = fig2_topology();
        let engine = BgpEngine::new(&topo, &clean_config());
        let o = origin_xny();
        let out = engine.propagate_config(&o, &all_plain(&o)).unwrap();
        for i in topo.indices() {
            let walk = out.forwarding_walk(i).expect("reachable");
            // Data-plane ingress equals control-plane catchment for clean
            // policies (no violators): the tagged route is what forwarding
            // follows hop by hop.
            assert_eq!(Some(walk.link), out.catchment(i));
            assert_eq!(walk.hops[0], i);
            // Last hop is a PoP provider.
            let last = *walk.hops.last().unwrap();
            let last_asn = topo.asn_of(last);
            assert!(o.links.iter().any(|l| l.provider == last_asn));
        }
    }

    #[test]
    fn no_announcement_no_routes() {
        let topo = fig2_topology();
        let engine = BgpEngine::new(&topo, &clean_config());
        let out = engine
            .session()
            .deploy(&[], 200, SnapshotDetail::Catchments);
        assert_eq!(out.reachable_count(), 0);
        assert!(out.converged);
        assert!(out.forwarding_walk(AsIndex(0)).is_none());
    }

    #[test]
    fn no_export_to_providers_confines_link_to_provider_cone() {
        use crate::catchment::Catchments;
        use crate::community::{Community, CommunitySet};
        use trackdown_topology::cone::ConeInfo;
        use trackdown_topology::gen::{generate, TopologyConfig};
        let g = generate(&TopologyConfig::small(19));
        let origin = OriginAs::peering_style(&g, 3);
        let engine = BgpEngine::new(&g.topology, &clean_config());
        let cones = ConeInfo::compute(&g.topology);
        let scoped = LinkId(0);
        let provider = g
            .topology
            .index_of(origin.links[scoped.us()].provider)
            .unwrap();
        let anns: Vec<LinkAnnouncement> = origin
            .link_ids()
            .map(|l| {
                if l == scoped {
                    LinkAnnouncement::with_communities(
                        l,
                        CommunitySet::from_vec(vec![
                            Community::NoExportToPeers,
                            Community::NoExportToProviders,
                        ]),
                    )
                } else {
                    LinkAnnouncement::plain(l)
                }
            })
            .collect();
        let out = engine.propagate_config(&origin, &anns).unwrap();
        assert!(out.converged);
        // The scoped link's catchment is confined to the provider's
        // customer cone (customer-only export).
        for i in g.topology.indices() {
            if out.catchment(i) == Some(scoped) {
                assert!(
                    cones.in_cone(provider, i),
                    "{} outside the provider cone used link {scoped}",
                    g.topology.asn_of(i)
                );
            }
        }
        // Everyone still reaches the prefix via the other links.
        assert_eq!(out.reachable_count(), g.topology.num_ases());
        // And the scoping actually shrank the link's catchment relative to
        // the baseline.
        let plain: Vec<_> = origin.link_ids().map(LinkAnnouncement::plain).collect();
        let base = engine.propagate_config(&origin, &plain).unwrap();
        let base_members = Catchments::from_control_plane(&base)
            .members(scoped)
            .count();
        let scoped_members = Catchments::from_control_plane(&out).members(scoped).count();
        assert!(scoped_members <= base_members);
    }

    #[test]
    fn provider_prepend_community_weakens_link_remotely() {
        use crate::catchment::Catchments;
        use crate::community::{Community, CommunitySet};
        use trackdown_topology::gen::{generate, TopologyConfig};
        let g = generate(&TopologyConfig::small(20));
        let origin = OriginAs::peering_style(&g, 3);
        let engine = BgpEngine::new(&g.topology, &clean_config());
        let target = LinkId(1);
        let anns: Vec<LinkAnnouncement> = origin
            .link_ids()
            .map(|l| {
                if l == target {
                    LinkAnnouncement::with_communities(
                        l,
                        CommunitySet::from_vec(vec![Community::PrependAtProvider(4)]),
                    )
                } else {
                    LinkAnnouncement::plain(l)
                }
            })
            .collect();
        let plain: Vec<_> = origin.link_ids().map(LinkAnnouncement::plain).collect();
        let base = engine.propagate_config(&origin, &plain).unwrap();
        let out = engine.propagate_config(&origin, &anns).unwrap();
        // The provider itself still prefers its direct route (communities
        // only act on export)...
        let p = g
            .topology
            .index_of(origin.links[target.us()].provider)
            .unwrap();
        assert_eq!(out.catchment(p), Some(target));
        // ...but the link attracts at most as many remote ASes as before
        // (it loses every tie the path length used to decide).
        let before = Catchments::from_control_plane(&base)
            .members(target)
            .count();
        let after = Catchments::from_control_plane(&out).members(target).count();
        assert!(after <= before, "prepend community attracted traffic?");
    }

    #[test]
    fn convergence_rounds_are_bounded_by_diameter_scale() {
        use trackdown_topology::gen::{generate, TopologyConfig};
        let g = generate(&TopologyConfig::medium(25));
        let origin = OriginAs::peering_style(&g, 5);
        let engine = BgpEngine::new(&g.topology, &clean_config());
        let anns: Vec<_> = origin.link_ids().map(LinkAnnouncement::plain).collect();
        let out = engine.propagate_config(&origin, &anns).unwrap();
        assert!(out.converged);
        // Depth 0 at the PoP providers, growing along the propagation
        // frontier: bounded by a small multiple of the AS-level diameter
        // (path exploration can exceed the plain BFS depth).
        assert!(out.rounds >= 1, "some AS must depend on another's change");
        assert!(
            out.rounds <= 30,
            "convergence depth {} looks like an oscillation",
            out.rounds
        );
        // Withdraw-heavy configurations still converge in bounded depth.
        let single = vec![LinkAnnouncement::plain(LinkId(0))];
        let out2 = engine.propagate_config(&origin, &single).unwrap();
        assert!(out2.converged);
        assert!(out2.rounds <= 40);
    }

    #[test]
    fn transition_reaches_the_same_fixpoint_as_cold_start() {
        use trackdown_topology::gen::{generate, TopologyConfig};
        let g = generate(&TopologyConfig::small(26));
        let origin = OriginAs::peering_style(&g, 4);
        let engine = BgpEngine::new(&g.topology, &clean_config());
        let all: Vec<_> = origin.link_ids().map(LinkAnnouncement::plain).collect();
        let subset: Vec<_> = origin
            .link_ids()
            .take(2)
            .map(LinkAnnouncement::plain)
            .collect();
        // Deterministic path-vector fixpoints: the warm-start transition
        // must land on exactly the cold-start state of the new config.
        let cold = engine
            .propagate_config_detailed(&origin, &subset, SnapshotDetail::Full)
            .unwrap();
        let warm = engine
            .transition_config(&origin, &all, &subset, SnapshotDetail::Full)
            .unwrap();
        assert!(warm.converged);
        assert_eq!(best_keys(&warm), best_keys(&cold));
        assert_eq!(candidate_keys(&warm), candidate_keys(&cold));
    }

    #[test]
    fn transition_changes_cover_only_moved_ases() {
        use trackdown_topology::gen::{generate, TopologyConfig};
        let g = generate(&TopologyConfig::small(27));
        let origin = OriginAs::peering_style(&g, 4);
        let engine = BgpEngine::new(&g.topology, &clean_config());
        let all: Vec<_> = origin.link_ids().map(LinkAnnouncement::plain).collect();
        let subset: Vec<_> = origin
            .link_ids()
            .filter(|l| l.0 != 1)
            .map(LinkAnnouncement::plain)
            .collect();
        let before = engine
            .propagate_config_detailed(&origin, &all, SnapshotDetail::Full)
            .unwrap();
        let warm = engine
            .transition_config(&origin, &all, &subset, SnapshotDetail::Full)
            .unwrap();
        // Every AS whose final route differs appears in the change log;
        // ASes that kept their route emit nothing.
        let changed: std::collections::HashSet<AsIndex> =
            warm.changes.iter().map(|c| c.at).collect();
        let before_keys = best_keys(&before);
        let warm_keys = best_keys(&warm);
        for i in g.topology.indices() {
            let moved = before_keys[i.us()] != warm_keys[i.us()];
            if moved {
                assert!(changed.contains(&i), "moved AS {i:?} missing from log");
            }
        }
        // The transition log is (much) smaller than a cold start's.
        assert!(warm.changes.len() < before.changes.len());
        // Transition churn includes the withdrawn link's old catchment at
        // minimum.
        let withdrawn_members = crate::Catchments::from_control_plane(&before)
            .members(LinkId(1))
            .count();
        assert!(warm.changes.len() >= withdrawn_members.min(1));
    }

    #[test]
    fn noop_transition_is_silent() {
        use trackdown_topology::gen::{generate, TopologyConfig};
        let g = generate(&TopologyConfig::small(28));
        let origin = OriginAs::peering_style(&g, 3);
        let engine = BgpEngine::new(&g.topology, &clean_config());
        let all: Vec<_> = origin.link_ids().map(LinkAnnouncement::plain).collect();
        let warm = engine
            .transition_config(&origin, &all, &all, SnapshotDetail::Catchments)
            .unwrap();
        // Re-announcing the identical configuration changes nothing: the
        // direct routes are replaced by equal ones and no AS re-decides.
        assert!(
            warm.changes.is_empty(),
            "{} spurious changes",
            warm.changes.len()
        );
        assert_eq!(warm.rounds, 0);
    }

    #[test]
    fn transition_epoch_accounting_is_per_epoch() {
        use trackdown_topology::gen::{generate, TopologyConfig};
        let g = generate(&TopologyConfig::small(29));
        let origin = OriginAs::peering_style(&g, 4);
        let engine = BgpEngine::new(&g.topology, &clean_config());
        let all: Vec<_> = origin.link_ids().map(LinkAnnouncement::plain).collect();
        let subset: Vec<_> = origin
            .link_ids()
            .take(2)
            .map(LinkAnnouncement::plain)
            .collect();
        let cold_prev = engine.propagate_config(&origin, &all).unwrap();
        let warm = engine
            .transition_config(&origin, &all, &subset, SnapshotDetail::Catchments)
            .unwrap();
        // `events`/`rounds`/`changes` cover only the transition epoch: if
        // they accumulated across epochs they would exceed the first
        // epoch's cold-start counts.
        assert!(warm.events < cold_prev.events);
        // Withdrawal churn is real: withdrawing links moves at least the
        // withdrawn links' former members, so the epoch log is non-empty.
        assert!(!warm.changes.is_empty());
        // Change rounds start again from the new epoch's frontier.
        let max_round = warm.changes.iter().map(|c| c.round).max().unwrap();
        assert_eq!(max_round, warm.rounds);
    }

    #[test]
    fn transition_disturbance_counts_moved_best_routes() {
        use trackdown_topology::gen::{generate, TopologyConfig};
        let mut moved_total = 0;
        for seed in [26, 27, 31] {
            let g = generate(&TopologyConfig::small(seed));
            let origin = OriginAs::peering_style(&g, 4);
            let anycast = all_plain(&origin);
            for config in [clean_config(), EngineConfig::default()] {
                let engine = BgpEngine::new(&g.topology, &config);
                for l in origin.link_ids() {
                    let withdrawn: Vec<_> =
                        anycast.iter().filter(|a| a.link != l).cloned().collect();
                    for (prev, next) in [(&anycast, &withdrawn), (&withdrawn, &anycast)] {
                        let before = engine
                            .propagate_config_detailed(&origin, prev, SnapshotDetail::Paths)
                            .unwrap();
                        let after = engine
                            .transition_config(&origin, prev, next, SnapshotDetail::Paths)
                            .unwrap();
                        // Net disturbance: ASes whose best route differs
                        // between the two fixpoints, transient flips aside.
                        let moved = best_keys(&before)
                            .iter()
                            .zip(&best_keys(&after))
                            .filter(|(b, a)| b != a)
                            .count();
                        assert_eq!(
                            after.routes_disturbed,
                            moved,
                            "small({seed}), link {l} withdrawn, {} violators, prev has {} links",
                            engine.policy().num_violators(),
                            prev.len()
                        );
                        moved_total += moved;
                    }
                }
            }
        }
        assert!(moved_total > 0, "no transition moved any route");
    }

    #[test]
    fn invalid_community_rejected_at_injection() {
        use crate::community::{Community, CommunitySet};
        use trackdown_topology::gen::{generate, TopologyConfig};
        let g = generate(&TopologyConfig::small(21));
        let origin = OriginAs::peering_style(&g, 3);
        let bad = LinkAnnouncement::with_communities(
            LinkId(0),
            CommunitySet::from_vec(vec![Community::PrependAtProvider(0)]),
        );
        assert!(matches!(
            origin.build_injections(&g.topology, &[bad]),
            Err(OriginError::InvalidCommunity(LinkId(0)))
        ));
    }

    #[test]
    fn deterministic_across_runs() {
        let topo = fig2_topology();
        let engine = BgpEngine::new(&topo, &clean_config());
        let o = origin_xny();
        let a = engine.propagate_config(&o, &all_plain(&o)).unwrap();
        let b = engine.propagate_config(&o, &all_plain(&o)).unwrap();
        assert_eq!(a.best, b.best);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn candidates_include_all_viable_offers() {
        let topo = fig2_topology();
        let engine = BgpEngine::new(&topo, &clean_config());
        let o = origin_xny();
        let out = engine
            .propagate_config_detailed(&o, &all_plain(&o), SnapshotDetail::Full)
            .unwrap();
        // u hears the route from its peer n and its provider t2: 2 candidates.
        let iu = topo.index_of(Asn(12)).unwrap();
        assert!(
            out.candidates()[iu.us()].len() >= 2,
            "u should have at least 2 candidate routes, got {}",
            out.candidates()[iu.us()].len()
        );
        // The best route is always among the candidates.
        for i in topo.indices() {
            if let Some(b) = &out.best[i.us()] {
                assert!(out.candidates()[i.us()].contains(b));
            }
        }
    }

    #[test]
    fn catchments_detail_skips_candidates_and_paths() {
        let topo = fig2_topology();
        let engine = BgpEngine::new(&topo, &clean_config());
        let o = origin_xny();
        let out = engine.propagate_config(&o, &all_plain(&o)).unwrap();
        assert!(out.candidates.is_none());
        assert!(out.paths.is_empty());
        // Catchments, forwarding walks, and change logs still work.
        assert_eq!(out.reachable_count(), topo.num_ases());
        assert!(out.forwarding_walk(AsIndex(0)).is_some());
        // The full-detail snapshot of the same run agrees on catchments.
        let full = engine
            .propagate_config_detailed(&o, &all_plain(&o), SnapshotDetail::Full)
            .unwrap();
        assert_eq!(out.control_catchments(), full.control_catchments());
        assert!(full.candidates.is_some());
        assert!(!full.paths.is_empty());
        // The paths-detail snapshot carries the same paths and no
        // candidate copy.
        let paths = engine
            .propagate_config_detailed(&o, &all_plain(&o), SnapshotDetail::Paths)
            .unwrap();
        assert!(paths.candidates.is_none());
        assert_eq!(paths.paths.len(), full.paths.len());
        for (a, b) in paths.best.iter().zip(&full.best) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(paths.path_of(a), full.path_of(b));
        }
    }

    #[test]
    fn valley_free_property_of_all_paths() {
        // No propagated path may go customer->provider after having gone
        // provider->customer or peer->peer (valley-free).
        let topo = fig2_topology();
        let engine = BgpEngine::new(&topo, &clean_config());
        let o = origin_xny();
        let out = engine
            .propagate_config_detailed(&o, &all_plain(&o), SnapshotDetail::Full)
            .unwrap();
        for i in topo.indices() {
            if let Some(r) = &out.best[i.us()] {
                // Reconstruct relationships along the distinct path,
                // ignoring the origin (not in topology).
                let path = out.path_of(r);
                let hops: Vec<AsIndex> = path
                    .distinct()
                    .into_iter()
                    .filter_map(|a| topo.index_of(a))
                    .collect();
                // Walk from origin side to receiver: reversed path plus i.
                let mut chain: Vec<AsIndex> = hops;
                chain.reverse();
                chain.push(i);
                // Along the propagation direction a path must be
                // up* (to providers), then at most one peer crossing or
                // descent, then down* (to customers) only.
                let mut ascending = true;
                for w in chain.windows(2) {
                    // Direction of propagation is w[0] -> w[1]; `rel` is
                    // how w[1] looks from w[0].
                    let rel = topo.relationship(w[0], w[1]).expect("adjacent");
                    match rel {
                        NeighborKind::Customer => ascending = false, // down
                        NeighborKind::Peer => {
                            assert!(ascending, "peer edge after descent in {path:?}");
                            ascending = false;
                        }
                        NeighborKind::Provider => {
                            assert!(ascending, "valley in path {path:?}");
                        }
                    }
                }
            }
        }
    }

    /// Stability oracle: drain `anns` from empty RIBs as every deployment
    /// does, then re-activate every AS and drain again. A reported state
    /// is stable when the re-drain moves no best route — the one routing
    /// check that holds under policy violators, whose stable states need
    /// not be unique. Returns `false` (nothing checked) when the first
    /// drain hits the event cap.
    fn assert_stable(engine: &BgpEngine, origin: &OriginAs, anns: &[LinkAnnouncement]) -> bool {
        let factor = EngineConfig::default().max_events_factor;
        let inj = origin.build_injections(engine.topo, anns).unwrap();
        let mut sim = Simulation::new(engine);
        sim.apply_injections(&inj);
        sim.run(factor);
        if !sim.converged {
            return false;
        }
        let reported = sim.best_routes();
        let full_decides = sim.full_decides;
        sim.begin_epoch();
        // Every AS rescans its whole Adj-RIB-In, as if no reference slot
        // were known.
        for i in engine.topo.indices() {
            let k = engine.internal[i.us()];
            sim.node[k.us()].bits |= RESCAN;
            sim.enqueue(k);
        }
        sim.run(factor);
        assert!(sim.converged);
        assert!(
            sim.changes.is_empty(),
            "{} best routes moved on re-drain: {:?}",
            sim.changes.len(),
            &sim.changes[..sim.changes.len().min(5)]
        );
        // Each AS decided exactly once and none exported.
        assert_eq!(sim.events, engine.topo.num_ases());
        assert_eq!(
            sim.full_decides - full_decides,
            engine.topo.num_ases() as u64
        );
        assert_eq!(sim.best_routes(), reported);
        true
    }

    /// Full anycast, each single-link withdrawal, and up to
    /// `poisons_per_link` poisonings of each link's provider neighbours.
    fn stability_configs(
        topo: &Topology,
        origin: &OriginAs,
        poisons_per_link: usize,
    ) -> Vec<Vec<LinkAnnouncement>> {
        let anycast = all_plain(origin);
        let mut configs = vec![anycast.clone()];
        for l in origin.link_ids() {
            configs.push(anycast.iter().filter(|a| a.link != l).cloned().collect());
        }
        for link in &origin.links {
            let p = topo.index_of(link.provider).unwrap();
            let targets = topo
                .neighbors(p)
                .iter()
                .map(|&(n, _)| topo.asn_of(n))
                .filter(|&asn| origin.links.iter().all(|l| l.provider != asn));
            for target in targets.take(poisons_per_link) {
                let mut anns = anycast.clone();
                anns[link.id.us()] = LinkAnnouncement::poisoned(link.id, vec![target]);
                configs.push(anns);
            }
        }
        configs
    }

    #[test]
    fn default_policy_states_are_stable_at_small_and_paper_scale() {
        use trackdown_topology::gen::{generate, TopologyConfig};
        for (topo_cfg, pops, poisons) in [
            (TopologyConfig::small(7), 4, usize::MAX),
            (TopologyConfig::paper(7), 7, 1),
        ] {
            let g = generate(&topo_cfg);
            let origin = OriginAs::peering_style(&g, pops);
            let engine = BgpEngine::new(&g.topology, &EngineConfig::default());
            assert!(engine.policy().num_violators() > 0);
            let configs = stability_configs(&g.topology, &origin, poisons);
            assert!(configs.len() > 2 * pops);
            for anns in &configs {
                assert!(assert_stable(&engine, &origin, anns), "capped: {anns:?}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn drained_states_are_stable_under_violators(
            topo_seed in 0u64..200,
            policy_seed in 0u64..200,
            violator_permille in 0u32..301,
            picks in proptest::collection::vec(0usize..1000, 3),
        ) {
            use trackdown_topology::gen::{generate, TopologyConfig};
            let g = generate(&TopologyConfig::small(topo_seed));
            let origin = OriginAs::peering_style(&g, 4);
            let cfg = EngineConfig {
                policy: PolicyConfig {
                    seed: policy_seed,
                    violator_fraction: f64::from(violator_permille) / 1000.0,
                    ..PolicyConfig::default()
                },
                ..EngineConfig::default()
            };
            let engine = BgpEngine::new(&g.topology, &cfg);
            let configs = stability_configs(&g.topology, &origin, 2);
            // Capped drains report nothing, so they are skipped.
            for k in picks {
                assert_stable(&engine, &origin, &configs[k % configs.len()]);
            }
        }
    }

    /// Everything a rollback must restore, read through the public
    /// accessors of each table: Adj-RIB-In and best entries (presence
    /// and route), per-AS records, direct routes and the arena's size.
    type SimState = (
        Vec<Option<Route>>,
        Vec<Option<Route>>,
        Vec<(Asn, AsIndex, u8, u32, u8, Option<Route>)>,
        Vec<(NodeId, Route)>,
        usize,
    );

    /// Per-AS records are read through the reference route, whose
    /// fields past an absent route are stale filler.
    fn sim_state(sim: &Simulation) -> SimState {
        (
            (0..sim.ribs.slots.len()).map(|s| sim.ribs.get(s)).collect(),
            (0..sim.best.slots.len()).map(|s| sim.best.get(s)).collect(),
            sim.node
                .iter()
                .map(|n| {
                    (
                        n.asn,
                        n.orig,
                        n.flags,
                        n.pending_depth,
                        n.bits,
                        n.ref_route(),
                    )
                })
                .collect(),
            sim.direct.clone(),
            sim.arena.num_nodes(),
        )
    }

    /// A fresh simulation's transition from the converged full anycast
    /// (drained under the engine's cap) to `anns` under cap `factor`: what
    /// [`BgpEngine::transition_config`] runs when `factor` is the
    /// engine's cap.
    fn transition_from_anycast(
        engine: &BgpEngine,
        origin: &OriginAs,
        anns: &[LinkAnnouncement],
        factor: usize,
    ) -> RoutingOutcome {
        let mut sim = Simulation::new(engine);
        sim.apply_injections(
            &origin
                .build_injections(engine.topo, &all_plain(origin))
                .unwrap(),
        );
        sim.run(engine.max_events_factor);
        assert!(sim.converged);
        sim.begin_epoch();
        sim.replace_injections(&origin.build_injections(engine.topo, anns).unwrap());
        sim.run(factor);
        sim.snapshot(SnapshotDetail::Full)
    }

    /// Each deployment from the baseline, capped ones included, is the
    /// transition a fresh simulation runs from the converged full
    /// anycast: the same best routes down to path ids, candidates,
    /// events, rounds and change log; uncapped, it is
    /// [`BgpEngine::transition_config`]'s. Only `routes_disturbed`
    /// differs: a deployment reports the reachable count. Rolling back
    /// restores the baseline's state exactly, and `last_deploy_warm` says
    /// which start a deployment had.
    #[test]
    fn baseline_deploys_are_transitions_and_roll_back_exactly() {
        use trackdown_topology::gen::{generate, TopologyConfig};
        let g = generate(&TopologyConfig::small(7));
        let origin = OriginAs::peering_style(&g, 4);
        let anycast = all_plain(&origin);
        let engine = BgpEngine::new(&g.topology, &EngineConfig::default());
        let mut configs = order_configs(&g.topology, &origin);
        configs.push(Vec::new());
        let mut session = engine.session();
        session
            .deploy_config(&origin, &configs[1], 200)
            .expect("valid configuration");
        assert!(!session.last_deploy_warm());
        let report = session.converge_baseline(&origin).unwrap();
        assert_eq!(report.status, BaselineStatus::Converged);
        let cold = engine.propagate_config(&origin, &anycast).unwrap();
        assert_eq!(report.events, cold.events);
        let baseline = sim_state(&session.sim);
        for (k, anns) in configs.iter().enumerate() {
            for factor in [200, 1] {
                let got = session
                    .deploy_config_detailed(&origin, anns, factor, SnapshotDetail::Full)
                    .unwrap();
                assert!(session.last_deploy_warm());
                let want = transition_from_anycast(&engine, &origin, anns, factor);
                let what = format!("config {k}, factor {factor}");
                assert_eq!(got.best, want.best, "{what}: best routes");
                assert_eq!(best_keys(&got), best_keys(&want), "{what}: paths");
                assert_eq!(candidate_keys(&got), candidate_keys(&want), "{what}");
                assert_eq!(
                    (got.events, got.rounds, got.converged),
                    (want.events, want.rounds, want.converged),
                    "{what}: events, rounds, convergence"
                );
                assert_eq!(got.changes, want.changes, "{what}: change log");
                assert_eq!(got.routes_disturbed, got.reachable_count(), "{what}");
                if factor == 200 {
                    assert!(got.converged, "{what}");
                    let public = engine
                        .transition_config(&origin, &anycast, anns, SnapshotDetail::Full)
                        .unwrap();
                    assert_eq!(got.best, public.best, "{what}: transition_config");
                    assert_eq!(got.events, public.events, "{what}: transition_config");
                }
                session.sim.rollback(session.baseline.as_ref().unwrap());
                assert!(sim_state(&session.sim) == baseline, "{what}: rollback");
            }
        }
        // The full anycast itself re-decides its providers and moves
        // nothing.
        let noop = session.deploy_config(&origin, &anycast, 200).unwrap();
        assert!(noop.changes.is_empty());
        assert_eq!(noop.best, cold.best);
    }

    /// No baseline is kept on a provider cycle or when the baseline's
    /// drain hits the cap; the session then deploys from empty RIBs.
    #[test]
    fn sessions_without_a_baseline_deploy_cold() {
        use trackdown_topology::gen::{generate, TopologyConfig};
        let g = generate(&TopologyConfig::small(7));
        let origin = OriginAs::peering_style(&g, 4);
        let anns = all_plain(&origin);
        let capped = EngineConfig {
            max_events_factor: 1,
            ..EngineConfig::default()
        };
        let engine = BgpEngine::new(&g.topology, &capped);
        let mut session = engine.session();
        let report = session.converge_baseline(&origin).unwrap();
        assert_eq!(report.status, BaselineStatus::EventCap);
        assert_eq!(report.events, g.topology.num_ases() + 1);
        let got = session.deploy_config(&origin, &anns[1..], 200).unwrap();
        assert!(!session.last_deploy_warm());
        let uncapped = BgpEngine::new(&g.topology, &EngineConfig::default());
        let want = uncapped.propagate_config(&origin, &anns[1..]).unwrap();
        assert!(want.converged);
        assert_eq!((got.best, got.events), (want.best, want.events));

        let cyclic = topology_from_links([
            (Asn(1), Asn(2), LinkKind::ProviderCustomer),
            (Asn(2), Asn(3), LinkKind::ProviderCustomer),
            (Asn(3), Asn(1), LinkKind::ProviderCustomer),
            (Asn(3), Asn(4), LinkKind::ProviderCustomer),
        ])
        .unwrap();
        let origin = OriginAs::new(Asn(47065), vec![("A".into(), Asn(1)), ("D".into(), Asn(4))]);
        let engine = BgpEngine::new(&cyclic, &clean_config());
        let mut session = engine.session();
        let report = session.converge_baseline(&origin).unwrap();
        assert_eq!(
            (report.status, report.events),
            (BaselineStatus::ProviderCycle, 0)
        );
        let single = [LinkAnnouncement::plain(LinkId(1))];
        let got = session.deploy_config(&origin, &single, 200).unwrap();
        assert!(!session.last_deploy_warm());
        let want = engine.propagate_config(&origin, &single).unwrap();
        assert_eq!((got.best, got.events), (want.best, want.events));
        // An origin the topology cannot carry is refused.
        let stray = OriginAs::new(Asn(47065), vec![("Z".into(), Asn(99))]);
        assert!(matches!(
            session.converge_baseline(&stray),
            Err(OriginError::UnknownProvider(Asn(99)))
        ));
    }

    /// The one-shot entry points drain under the engine's stored cap. On
    /// an engine capped at factor 1, `propagate_config(_detailed)` and a
    /// `transition_config` from no announcements stop where a fresh
    /// session's deployment under that cap stops, a transition from the
    /// capped full anycast stops too, and a memo miss stores the capped
    /// catchments; the default engine converges on the same
    /// configurations.
    #[test]
    fn one_shot_entry_points_drain_under_the_engine_cap() {
        use trackdown_topology::gen::{generate, TopologyConfig};
        let g = generate(&TopologyConfig::small(7));
        let origin = OriginAs::peering_style(&g, 4);
        let anycast = all_plain(&origin);
        let capped_config = EngineConfig {
            max_events_factor: 1,
            ..EngineConfig::default()
        };
        let capped = BgpEngine::new(&g.topology, &capped_config);
        let uncapped = BgpEngine::new(&g.topology, &EngineConfig::default());
        let full = SnapshotDetail::Full;
        for (k, anns) in stability_configs(&g.topology, &origin, 1)
            .iter()
            .enumerate()
        {
            let fresh = capped
                .session()
                .deploy_config(&origin, anns, capped.max_events_factor())
                .unwrap();
            let outcomes = [
                ("propagate_config", capped.propagate_config(&origin, anns)),
                (
                    "propagate_config_detailed",
                    capped.propagate_config_detailed(&origin, anns, full),
                ),
                // From no announcements the first drain does nothing, so
                // the transition is the fresh deployment.
                (
                    "transition_config",
                    capped.transition_config(&origin, &[], anns, full),
                ),
            ];
            for (name, out) in &outcomes {
                let out = out.as_ref().unwrap();
                assert!(!out.converged, "config {k}: {name}");
                assert_eq!(out.events, fresh.events, "config {k}: {name}");
                assert_eq!(out.best, fresh.best, "config {k}: {name}");
            }
            let stopped = capped
                .transition_config(&origin, &anycast, anns, full)
                .unwrap();
            assert!(!stopped.converged, "config {k}: from the capped anycast");
            let capped_out = outcomes[0].1.as_ref().unwrap();
            let misses = capped.memoized_configs();
            let memo = capped.deployed_catchments(&origin, anns).unwrap();
            assert_eq!(capped.memoized_configs(), misses + 1, "config {k}: a miss");
            assert_eq!(
                memo.control_plane,
                Catchments::from_control_plane(capped_out),
                "config {k}: memo"
            );
            let converged = [
                uncapped.propagate_config(&origin, anns).unwrap(),
                uncapped
                    .propagate_config_detailed(&origin, anns, full)
                    .unwrap(),
                uncapped
                    .transition_config(&origin, &anycast, anns, full)
                    .unwrap(),
            ];
            assert!(converged.iter().all(|out| out.converged), "config {k}");
        }
    }

    /// [`stability_configs`] plus, per link, full anycast with that link
    /// prepended.
    fn order_configs(topo: &Topology, origin: &OriginAs) -> Vec<Vec<LinkAnnouncement>> {
        let mut configs = stability_configs(topo, origin, 2);
        for l in origin.link_ids() {
            let mut anns = all_plain(origin);
            anns[l.us()] = LinkAnnouncement::prepended(l);
            configs.push(anns);
        }
        configs
    }

    /// Everything an outcome reports, paths materialized.
    fn assert_same_outcome(a: &RoutingOutcome, b: &RoutingOutcome, what: &str) {
        assert_eq!(best_keys(a), best_keys(b), "{what}: best routes");
        assert_eq!(a.best, b.best, "{what}: path ids");
        assert_eq!(candidate_keys(a), candidate_keys(b), "{what}: candidates");
        assert_eq!(
            (a.events, a.rounds, a.routes_disturbed, a.converged),
            (b.events, b.rounds, b.routes_disturbed, b.converged),
            "{what}: events, rounds, disturbance, convergence"
        );
        assert_eq!(a.changes, b.changes, "{what}: change log");
    }

    proptest::proptest! {
        /// The internal numbering is layout only: the identity, the
        /// locality order and a random permutation report the same
        /// deployments and transitions, down to path ids and the change
        /// log, under violators, poisoning, prepending and extensions.
        #[test]
        fn outcomes_do_not_depend_on_the_internal_order(
            topo_seed in 0u64..200,
            policy_seed in 0u64..200,
            violator_permille in 0u32..301,
            extensions in proptest::prelude::any::<bool>(),
            perm_seed in proptest::prelude::any::<u64>(),
            picks in proptest::collection::vec(0usize..1_000_000, 3),
        ) {
            use crate::policy::{ExtensionConfig, ExtensionDeployment, PolicyExtension};
            use rand::{RngExt, SeedableRng};
            use trackdown_topology::gen::{generate, TopologyConfig};
            let g = generate(&TopologyConfig::small(topo_seed));
            let topo = &g.topology;
            let origin = OriginAs::peering_style(&g, 4);
            let extensions = if extensions {
                ExtensionConfig {
                    origin_asn: origin.asn,
                    deployments: PolicyExtension::ALL
                        .iter()
                        .map(|&extension| ExtensionDeployment {
                            extension,
                            fraction: 0.3,
                            bias: Default::default(),
                        })
                        .collect(),
                }
            } else {
                ExtensionConfig::default()
            };
            let cfg = EngineConfig {
                policy: PolicyConfig {
                    seed: policy_seed,
                    violator_fraction: f64::from(violator_permille) / 1000.0,
                    extensions,
                    ..PolicyConfig::default()
                },
                ..EngineConfig::default()
            };
            let identity: Vec<AsIndex> = topo.indices().collect();
            let mut random = identity.clone();
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(perm_seed);
            for m in (1..random.len()).rev() {
                random.swap(m, rng.random_range(0..=m));
            }
            let engines = [identity, locality_order(topo), random]
                .map(|order| BgpEngine::with_order(topo, &cfg, order));
            let configs = order_configs(topo, &origin);
            let full = SnapshotDetail::Full;
            for k in picks {
                let next = &configs[k % configs.len()];
                let prev = &configs[k / configs.len() % configs.len()];
                let deploy = |e: &BgpEngine| e.propagate_config_detailed(&origin, next, full);
                let transit = |e: &BgpEngine| e.transition_config(&origin, prev, next, full);
                let (reference, transition) = (deploy(&engines[0]).unwrap(), transit(&engines[0]).unwrap());
                for (name, engine) in ["locality", "random"].into_iter().zip(&engines[1..]) {
                    assert_same_outcome(&deploy(engine).unwrap(), &reference, name);
                    assert_same_outcome(&transit(engine).unwrap(), &transition, name);
                }
            }
        }
    }
}
