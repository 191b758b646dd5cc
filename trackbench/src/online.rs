//! The `online_attack` workload: closed-loop online localization (§V-C).
//!
//! Set-up runs the paper-scale control campaign whose catchments serve as
//! the prior. A timed trial plants one attacker and runs
//! `simulate_online_attack` with the options `bin/online.rs` uses; trials
//! walk the tracked ASes in a seeded order. Each round waits on the last,
//! BGP deploys in greedy order, and the loop adds data-plane catchments
//! and greedy selection, so it uses the `bgp` and `cluster` layers
//! differently from the campaigns.

use crate::alloc::allocations;
use crate::metrics::{ms_since, Layers};
use crate::stats::{median, percentile, supported_tail};
use crate::workload::{gap_pct, scenario, set_up, trace_topology, Report, RunConfig};
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use std::time::Instant;
use trackdown_bgp::{BgpEngine, Catchments, RoutingOutcome};
use trackdown_core::localize::Campaign;
use trackdown_core::online::{
    localize_online, simulate_online_attack, OnlineOptions, OnlineResult,
};
use trackdown_core::AnnouncementConfig;
use trackdown_experiments::{Scale, Scenario};
use trackdown_obs::{Trace, TraceConfig};
use trackdown_topology::AsIndex;

/// Every `SAMPLE_EVERY`-th attacker of the order is run during set-up;
/// timed trials of those attackers must reproduce that result.
pub(crate) const SAMPLE_EVERY: usize = 20;

/// Planted spoofed volume of the single attacker.
const ATTACK_BYTES: u64 = 1_000_000;

/// Configurations the loop may deploy (as `bin/online.rs`).
const MAX_CONFIGS: usize = 40;

/// Sampled trials a profile check runs.
const PROFILE_TRIALS: usize = 20;

/// Events factor `simulate_online_attack` deploys with.
const EVENTS_FACTOR: usize = 200;

pub(crate) struct OnlineInput {
    pub scenario: Scenario,
    pub campaign: Campaign,
    /// Tracked ASes in trial order.
    pub order: Vec<AsIndex>,
}

impl OnlineInput {
    pub(crate) fn build(scenario: Scenario, seed: u64) -> OnlineInput {
        let campaign = scenario.run_recorded(None);
        let mut order = campaign.tracked.clone();
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x000A_11CE);
        for i in (1..order.len()).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        OnlineInput {
            scenario,
            campaign,
            order,
        }
    }

    fn options(&self, attacker: AsIndex) -> OnlineOptions {
        // The best achievable: the attacker's cluster after the whole
        // schedule, plus one AS of slack.
        let optimal = self
            .campaign
            .clustering
            .cluster_size_of(attacker)
            .unwrap_or(1);
        OnlineOptions {
            max_configs: MAX_CONFIGS,
            target_suspects: optimal + 1,
            greedy: true,
            prefixes: 1,
        }
    }

    fn volume(&self, attacker: AsIndex) -> Vec<u64> {
        let mut vol = vec![0u64; self.scenario.gen.topology.num_ases()];
        vol[attacker.us()] = ATTACK_BYTES;
        vol
    }

    /// Trial `k` of the order, through the library's simulation harness.
    pub(crate) fn trial(&self, engine: &BgpEngine<'_>, k: usize) -> OnlineResult {
        let attacker = self.order[k];
        simulate_online_attack(
            engine,
            &self.scenario.origin,
            &self.campaign.configs,
            Some(&self.campaign.catchments),
            &self.campaign.tracked,
            &self.volume(attacker),
            self.options(attacker),
        )
    }

    /// Trial `k` driven through `localize_online` with the callbacks of
    /// `simulate_online_attack`, timing each call into a layer.
    fn traced_trial(
        &self,
        engine: &BgpEngine<'_>,
        k: usize,
        layers: &mut Layers,
        deploy_ms: &mut Vec<f64>,
    ) -> OnlineResult {
        let attacker = self.order[k];
        let origin = &self.scenario.origin;
        let vol = self.volume(attacker);
        let acc = RefCell::new((std::mem::take(layers), std::mem::take(deploy_ms)));
        let session = RefCell::new(engine.session());
        let memo: RefCell<HashMap<String, Rc<RoutingOutcome>>> = RefCell::new(HashMap::new());
        let outcome_for = |cfg: &AnnouncementConfig| -> Rc<RoutingOutcome> {
            let key = cfg.footprint_key();
            if let Some(out) = memo.borrow().get(&key) {
                return Rc::clone(out);
            }
            let announcements = cfg.to_link_announcements();
            let allocs = allocations();
            let t = Instant::now();
            let out = session
                .borrow_mut()
                .deploy_config(origin, &announcements, EVENTS_FACTOR)
                .expect("valid config");
            let ms = ms_since(t);
            let (l, deploys) = &mut *acc.borrow_mut();
            l.add("bgp.allocs", (allocations() - allocs) as f64);
            l.add("bgp.deploy_ms", ms);
            l.add("bgp.events", out.events as f64);
            l.add("bgp.routes_disturbed", out.routes_disturbed as f64);
            if !session.borrow().last_deploy_warm() {
                l.add("bgp.cold_epochs", 1.0);
            }
            l.add("online.deploys", 1.0);
            deploys.push(ms);
            let out = Rc::new(out);
            memo.borrow_mut().insert(key, Rc::clone(&out));
            out
        };
        let observe = |cfg: &AnnouncementConfig| -> Vec<u64> {
            let out = outcome_for(cfg);
            let l = &mut acc.borrow_mut().0;
            let cat = l.time("catchment.data_plane_ms", || {
                Catchments::from_data_plane(&out)
            });
            l.time("traffic.ingest_ms", || {
                trackdown_traffic::volume_per_link(&cat, &vol, origin.num_links())
            })
        };
        let measure = |_idx: usize, cfg: &AnnouncementConfig| -> Catchments {
            let out = outcome_for(cfg);
            let l = &mut acc.borrow_mut().0;
            l.time("catchment.extract_ms", || {
                Catchments::from_control_plane(&out)
            })
        };
        let before = acc.borrow().0.accounted_ms();
        let t = Instant::now();
        let result = localize_online(
            &self.campaign.configs,
            Some(&self.campaign.catchments),
            &self.campaign.tracked,
            &observe,
            &measure,
            self.options(attacker),
        );
        let trial_ms = ms_since(t);
        (*layers, *deploy_ms) = acc.into_inner();
        // The loop's own work: greedy selection, refinement, suspect state.
        let callbacks_ms = layers.accounted_ms() - before;
        layers.add("online.loop_ms", trial_ms - callbacks_ms);
        result
    }
}

pub(crate) fn run(cfg: &RunConfig, scale: Scale) -> Report {
    let (input, setup_s) = set_up(|| OnlineInput::build(scenario(cfg, scale, false), cfg.seed));
    let mut report = Report {
        setup_s,
        ..Report::default()
    };
    let engine = input.scenario.engine();
    let trials = input.order.len();
    // The set-up sample doubles as the warm-up.
    let sample: BTreeMap<usize, OnlineResult> = (0..trials)
        .step_by(SAMPLE_EVERY)
        .map(|k| (k, input.trial(&engine, k)))
        .collect();

    let mut sampled_ms: BTreeMap<usize, f64> = BTreeMap::new();
    report.ops.timed_loop(cfg, |i| {
        let k = i % trials;
        let t = Instant::now();
        let result = input.trial(&engine, k);
        let ms = ms_since(t);
        if let Some(expected) = sample.get(&k) {
            if result != *expected {
                return Err(format!("trial {k} differs from its set-up sample"));
            }
            sampled_ms.entry(k).or_insert(ms);
        }
        Ok(ms)
    });

    let (configs_mean, localized_frac) = quality(sample.values());
    let (tail, tail_ms) = supported_tail(&report.ops.samples_ms);
    report.info = vec![
        ("trials".into(), report.ops.samples_ms.len() as f64, "count"),
        (
            "time_to_localize_ms".into(),
            median(&report.ops.samples_ms),
            "ms",
        ),
        (format!("time_to_localize_{tail}_ms"), tail_ms, "ms"),
        ("online_configs_mean".into(), configs_mean, "configs"),
        ("localized_frac".into(), localized_frac, "ratio"),
    ];

    if cfg.trace {
        let mut layers = Layers::default();
        // Retrace the sampled trials the timed loop ran, so the traced
        // total has an untraced twin over the same attackers.
        let traced = report.ops.attempt("traced trials", || {
            trace_topology(&input.scenario, &mut layers)?;
            let mut deploy_ms = Vec::new();
            for &k in sampled_ms.keys() {
                let result = input.traced_trial(&engine, k, &mut layers, &mut deploy_ms);
                if result != sample[&k] {
                    return Err(format!("traced trial {k} differs from its set-up sample"));
                }
            }
            layers.set("bgp.deploy_p50_ms", percentile(&deploy_ms, 50.0));
            layers.set("bgp.deploy_p90_ms", percentile(&deploy_ms, 90.0));
            Ok(())
        });
        if traced.is_some() {
            let untraced: f64 = sampled_ms.values().sum();
            layers.set("online.configs_mean", configs_mean);
            layers.set("online.localized_frac", localized_frac);
            layers.set("cluster.mean_size", input.campaign.clustering.mean_size());
            layers.set(
                "cluster.singleton_frac",
                input.campaign.clustering.singleton_fraction(),
            );
            layers.set("trace_gap_pct", gap_pct(layers.accounted_ms(), untraced));
        }
        report.layers = Some(layers);
    }
    report
}

/// Profile the first sampled trials through `simulate_online_attack`
/// under the obs tracer, then time the same trials from outside.
pub(crate) fn profile(cfg: &RunConfig, scale: Scale) -> Result<(Trace, Layers), String> {
    let input = OnlineInput::build(scenario(cfg, scale, false), cfg.seed);
    let engine = input.scenario.engine();
    let ks: Vec<usize> = (0..input.order.len())
        .step_by(SAMPLE_EVERY)
        .take(PROFILE_TRIALS)
        .collect();
    let expected: Vec<OnlineResult> = ks.iter().map(|&k| input.trial(&engine, k)).collect();
    trackdown_obs::start_trace(TraceConfig::default());
    let got: Vec<OnlineResult> = ks.iter().map(|&k| input.trial(&engine, k)).collect();
    let trace = trackdown_obs::end_trace().ok_or("the trace was not armed")?;
    if got != expected {
        return Err("profiled trials differ from their first run".into());
    }
    let mut layers = Layers::default();
    let mut deploy_ms = Vec::new();
    for (&k, e) in ks.iter().zip(&expected) {
        if input.traced_trial(&engine, k, &mut layers, &mut deploy_ms) != *e {
            return Err(format!("traced trial {k} differs from its first run"));
        }
    }
    Ok((trace, layers))
}

/// Mean configurations deployed and the localized share over trials.
fn quality<'a>(results: impl Iterator<Item = &'a OnlineResult>) -> (f64, f64) {
    let (mut n, mut configs, mut localized) = (0usize, 0usize, 0usize);
    for r in results {
        n += 1;
        configs += r.deployed.len();
        localized += r.localized as usize;
    }
    let n = n.max(1) as f64;
    (configs as f64 / n, localized as f64 / n)
}
