//! The campaign workloads, `internet` and `paper_measured`: deploy the
//! scenario's whole schedule and cluster the catchments, exactly as
//! `Scenario::run_recorded` does for users.

use crate::alloc::allocations;
use crate::metrics::{ms_since, Layers};
use crate::stats::{median, percentile};
use crate::workload::{self, gap_pct, set_up, trace_topology, Report, RunConfig};
use std::collections::HashMap;
use std::time::Instant;
use trackdown_bgp::{Catchments, SnapshotDetail};
use trackdown_core::schedule::warm_start_order;
use trackdown_core::Clustering;
use trackdown_experiments::{Scale, Scenario};
use trackdown_measure::{
    analysis_set, impute_visibility, MeasuredCatchments, MeasurementConfig, MeasurementPlane,
};
use trackdown_obs::{Trace, TraceConfig};
use trackdown_topology::cone::ConeInfo;
use trackdown_topology::AsIndex;

/// The campaign outputs a run must reproduce.
pub(crate) struct CampaignOutput {
    pub catchments: Vec<Catchments>,
    pub tracked: Vec<AsIndex>,
    pub clustering: Clustering,
}

/// Compare a campaign's outputs with the reference.
pub(crate) fn check_campaign(
    reference: &CampaignOutput,
    got: &CampaignOutput,
) -> Result<(), String> {
    if got.catchments != reference.catchments {
        return Err("catchments differ from the reference campaign".into());
    }
    if got.tracked != reference.tracked {
        return Err("tracked set differs from the reference campaign".into());
    }
    if got.clustering != reference.clustering {
        return Err("clusters differ from the reference campaign".into());
    }
    Ok(())
}

fn output(scenario: &Scenario) -> CampaignOutput {
    let c = scenario.run_recorded(None);
    CampaignOutput {
        catchments: c.catchments,
        tracked: c.tracked,
        clustering: c.clustering,
    }
}

/// Run a campaign workload: set-up builds the scenario; one untimed
/// campaign warms up and becomes the reference every timed campaign must
/// reproduce.
pub(crate) fn run(cfg: &RunConfig, scale: Scale, measured: bool) -> Report {
    let (scenario, setup_s) = set_up(|| workload::scenario(cfg, scale, measured));
    let mut report = Report {
        setup_s,
        ..Report::default()
    };
    let reference = output(&scenario);
    report.ops.timed_loop(cfg, |_| {
        let t = Instant::now();
        let got = output(&scenario);
        let ms = ms_since(t);
        check_campaign(&reference, &got)?;
        Ok(ms)
    });

    let clustering = &reference.clustering;
    let campaign_ms = median(&report.ops.samples_ms);
    report.info = vec![
        ("campaign_s".into(), campaign_ms / 1e3, "s"),
        (
            "configs".into(),
            reference.catchments.len() as f64,
            "configs",
        ),
        ("tracked".into(), reference.tracked.len() as f64, "ASes"),
        ("mean_cluster_size".into(), clustering.mean_size(), "ASes"),
        (
            "singleton_frac".into(),
            clustering.singleton_fraction(),
            "ratio",
        ),
    ];

    if cfg.trace {
        let mut layers = Layers::default();
        let traced = report.ops.attempt("traced campaign", || {
            trace_topology(&scenario, &mut layers)?;
            let got = traced_campaign(&scenario, &mut layers);
            check_campaign(&reference, &got)
        });
        if traced.is_some() {
            layers.set("cluster.mean_size", clustering.mean_size());
            layers.set("cluster.singleton_frac", clustering.singleton_fraction());
            layers.set("trace_gap_pct", gap_pct(layers.accounted_ms(), campaign_ms));
        }
        report.layers = Some(layers);
    }
    report
}

/// Profile one campaign through `Scenario::run_recorded` under the obs
/// tracer, then time the same campaign from outside.
pub(crate) fn profile(
    cfg: &RunConfig,
    scale: Scale,
    measured: bool,
) -> Result<(Trace, Layers), String> {
    let scenario = workload::scenario(cfg, scale, measured);
    let reference = output(&scenario);
    trackdown_obs::start_trace(TraceConfig::default());
    let got = output(&scenario);
    let trace = trackdown_obs::end_trace().ok_or("the trace was not armed")?;
    check_campaign(&reference, &got)?;
    let mut layers = Layers::default();
    let traced = traced_campaign(&scenario, &mut layers);
    check_campaign(&reference, &traced)?;
    Ok((trace, layers))
}

/// One campaign driven through public calls, mirroring the sequential
/// Warm executor (`run_campaign_recorded`): warm-start order, footprint
/// memo, session deployments, catchment extraction or measurement plus
/// imputation, then refinement in schedule order. Each call into a layer
/// is timed from here.
pub(crate) fn traced_campaign(scenario: &Scenario, layers: &mut Layers) -> CampaignOutput {
    let topo = &scenario.gen.topology;
    let origin = &scenario.origin;
    let factor = scenario.engine_cfg.max_events_factor;
    let engine = scenario.engine();
    let configs = scenario.schedule();
    let n = configs.len();

    let order = layers.time("schedule.order_ms", || warm_start_order(&configs));
    let plane = scenario.measured.then(|| {
        layers.time("measure.plane_ms", || {
            let cones = ConeInfo::compute(topo);
            MeasurementPlane::new(topo, &cones, &MeasurementConfig::default())
        })
    });
    let detail = if plane.is_some() {
        SnapshotDetail::Full
    } else {
        SnapshotDetail::Catchments
    };

    let mut session = engine.session();
    let mut memo: HashMap<String, usize> = HashMap::new();
    let mut extracted: Vec<Option<Catchments>> = vec![None; n];
    let mut measured: Vec<Option<MeasuredCatchments>> = (0..n).map(|_| None).collect();
    let mut deploy_ms = Vec::with_capacity(n);
    for &k in &order {
        let cfg = &configs[k];
        // The executor keys its memo by footprint only for ground-truth
        // catchments: the measurement plane salts noise per index.
        if plane.is_none() {
            let key = cfg.footprint_key();
            if let Some(&j) = memo.get(&key) {
                layers.add("schedule.memo_hits", 1.0);
                extracted[k] = extracted[j].clone();
                continue;
            }
            memo.insert(key, k);
        }
        let announcements = cfg.to_link_announcements();
        let allocs = allocations();
        let t = Instant::now();
        let outcome = session
            .deploy_config_detailed(origin, &announcements, factor, detail)
            .expect("scheduled configurations are valid");
        let ms = ms_since(t);
        layers.add("bgp.allocs", (allocations() - allocs) as f64);
        layers.add("bgp.deploy_ms", ms);
        layers.add("bgp.events", outcome.events as f64);
        layers.add("bgp.routes_disturbed", outcome.routes_disturbed as f64);
        if !session.last_deploy_warm() {
            layers.add("bgp.cold_epochs", 1.0);
        }
        deploy_ms.push(ms);
        match &plane {
            Some(plane) => {
                let allocs = allocations();
                measured[k] = Some(layers.time("measure.measure_ms", || {
                    plane.measure(topo, &outcome, origin.asn, k as u64)
                }));
                layers.add("measure.allocs", (allocations() - allocs) as f64);
            }
            None => {
                extracted[k] = Some(layers.time("catchment.extract_ms", || {
                    Catchments::from_control_plane(&outcome)
                }));
            }
        }
    }
    layers.set("bgp.deploy_p50_ms", percentile(&deploy_ms, 50.0));
    layers.set("bgp.deploy_p90_ms", percentile(&deploy_ms, 90.0));

    let (catchments, tracked) = if plane.is_some() {
        let mut measured: Vec<MeasuredCatchments> = measured
            .into_iter()
            .map(|m| m.expect("every configuration measured"))
            .collect();
        let allocs = allocations();
        let tracked = layers.time("measure.impute_ms", || {
            impute_visibility(&mut measured, 0);
            analysis_set(&measured, 0)
        });
        layers.add("measure.allocs", (allocations() - allocs) as f64);
        (
            measured.into_iter().map(|m| m.catchments).collect(),
            tracked,
        )
    } else {
        let catchments: Vec<Catchments> = extracted
            .into_iter()
            .map(|c| c.expect("every configuration extracted"))
            .collect();
        let tracked = topo
            .indices()
            .filter(|&i| catchments[0].is_assigned(i))
            .collect();
        (catchments, tracked)
    };

    let mut clustering = Clustering::single(Vec::clone(&tracked));
    for cat in &catchments {
        let delta = layers.time("cluster.refine_ms", || clustering.refine_logged(cat));
        layers.add("cluster.splits", delta.splits.len() as f64);
        layers.time("cluster.stats_ms", || {
            std::hint::black_box((clustering.stats(), clustering.mean_size()));
        });
    }
    CampaignOutput {
        catchments,
        tracked,
        clustering,
    }
}
