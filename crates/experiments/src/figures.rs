//! Per-figure experiment implementations, shared by the individual
//! binaries and `run_all`. Each function returns a printable report.

use crate::{phase_prefixes, phase_summary, print_series, Options, Scenario};
use std::collections::BTreeMap;
use trackdown_bgp::{DeploymentBias, ExtensionDeployment, PolicyExtension, SnapshotDetail};
use trackdown_core::cluster::Clustering;
use trackdown_core::compliance::{config_compliance, fraction_cdf};
use trackdown_core::distance::cluster_size_by_distance;
use trackdown_core::footprint::{footprint_clustering, footprint_trajectory, footprints_removing};
use trackdown_core::localize::{link_volume_matrix, rank_suspects, Campaign};
use trackdown_core::report::{render_table, Series};
use trackdown_core::schedule::{greedy_schedule, mean_size_objective, random_schedule_stats};
use trackdown_core::Phase;
use trackdown_topology::cone::ConeInfo;
use trackdown_traffic::{
    cumulative_volume_by_cluster_slices, pareto_shape_80_20, place_sources, SourcePlacement,
};

/// Table I: PoPs and providers of the simulated platform.
pub fn table1(scenario: &Scenario) -> String {
    let topo = &scenario.gen.topology;
    let cones = ConeInfo::compute(topo);
    let rows: Vec<Vec<String>> = scenario
        .origin
        .links
        .iter()
        .map(|l| {
            let i = topo.index_of(l.provider).expect("provider in topology");
            vec![
                l.pop.clone(),
                format!(
                    "{} ({})",
                    l.provider,
                    format!("{:?}", cones.tier(i)).to_lowercase()
                ),
                topo.customers(i).count().to_string(),
                cones.cone_size(i).to_string(),
                scenario.gen.region(i).to_string(),
            ]
        })
        .collect();
    let mut out = String::from("# Table I: PoPs and transit providers\n");
    out.push_str(&format!("# {}\n\n", scenario.describe()));
    out.push_str(&render_table(
        &["Mux", "Transit Provider", "customers", "cone", "region"],
        &rows,
    ));
    out
}

/// Figure 3: CCDF of cluster sizes after each phase.
pub fn fig3(scenario: &Scenario, campaign: &Campaign) -> String {
    let mut clustering = Clustering::single(campaign.tracked.clone());
    let bounds = phase_prefixes(&campaign.configs);
    let mut series = Vec::new();
    let mut deployed = 0usize;
    let mut summary_rows = Vec::new();
    for (phase, end) in bounds {
        for cat in &campaign.catchments[deployed..end] {
            clustering.refine(cat);
        }
        deployed = end;
        let label = match phase {
            Phase::Location => "locations".to_string(),
            Phase::Prepend => "locations+prepending".to_string(),
            Phase::Poison => "locations+prepending+poisoning".to_string(),
            Phase::Community => "all techniques+communities".to_string(),
        };
        let ccdf: Vec<(f64, f64)> = clustering
            .size_ccdf()
            .into_iter()
            .map(|(s, f)| (s as f64, f))
            .collect();
        series.push(Series {
            name: format!("{label} ({end} configs)"),
            points: ccdf,
        });
        summary_rows.push(vec![
            label,
            end.to_string(),
            format!("{:.3}", clustering.mean_size()),
            format!("{:.1}%", clustering.singleton_fraction() * 100.0),
            clustering
                .sizes()
                .iter()
                .filter(|&&s| s > 5)
                .count()
                .to_string(),
        ]);
    }
    let mut out = String::from("# Figure 3: CCDF of cluster sizes after each phase\n\n");
    out.push_str(&render_table(
        &[
            "phase",
            "configs",
            "mean size",
            "singleton clusters",
            "clusters >5 ASes",
        ],
        &summary_rows,
    ));
    // Sensitivity: single-homed stubs under one provider are provably
    // inseparable (identical catchment histories by construction), so the
    // route-diverse subset shows what the techniques achieve where any
    // separation is possible — the population the paper's feed-visible
    // dataset is biased toward.
    let topo = &scenario.gen.topology;
    let diverse: Vec<bool> = campaign
        .tracked
        .iter()
        .map(|&s| topo.degree(s) >= 2)
        .collect();
    let mut diverse_sizes: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
    for (k, &s) in campaign.tracked.iter().enumerate() {
        if diverse[k] {
            if let Some(id) = clustering.cluster_of(s) {
                *diverse_sizes.entry(id).or_insert(0) += 1;
            }
        }
    }
    let sizes: Vec<usize> = diverse_sizes.values().copied().collect();
    if !sizes.is_empty() {
        let singles = sizes.iter().filter(|&&x| x == 1).count();
        let mean: f64 = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        out.push_str(&format!(
            "\nroute-diverse sources only (degree >= 2): {} sources, mean cluster size {:.3}, {:.1}% singleton clusters\n",
            sizes.iter().sum::<usize>(),
            mean,
            singles as f64 / sizes.len() as f64 * 100.0,
        ));
    }
    out.push('\n');
    out.push_str(&print_series(
        "CCDF (x=cluster size, y=frac clusters >= x)",
        &series,
    ));
    out
}

/// Figure 4: mean and 90th-percentile cluster size vs configurations.
pub fn fig4(campaign: &Campaign) -> String {
    let mean: Vec<(f64, f64)> = campaign
        .records
        .iter()
        .enumerate()
        .map(|(k, r)| ((k + 1) as f64, r.mean_cluster_size))
        .collect();
    let p90: Vec<(f64, f64)> = campaign
        .records
        .iter()
        .enumerate()
        .map(|(k, r)| ((k + 1) as f64, r.p90_cluster_size as f64))
        .collect();
    let mut out =
        String::from("# Figure 4: cluster sizes as a function of number of configurations\n\n");
    out.push_str(&phase_summary(campaign));
    out.push('\n');
    out.push_str(&print_series(
        "cluster size vs configs (x=configs deployed)",
        &[
            Series {
                name: "mean".into(),
                points: mean,
            },
            Series {
                name: "p90".into(),
                points: p90,
            },
        ],
    ));
    out
}

/// Pointwise mean/min/max across equal-length trajectories.
fn band(trajs: &[Vec<f64>]) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let len = trajs.iter().map(|t| t.len()).min().unwrap_or(0);
    let mut mean = Vec::with_capacity(len);
    let mut lo = Vec::with_capacity(len);
    let mut hi = Vec::with_capacity(len);
    for k in 0..len {
        let vals: Vec<f64> = trajs.iter().map(|t| t[k]).collect();
        mean.push(vals.iter().sum::<f64>() / vals.len() as f64);
        lo.push(vals.iter().cloned().fold(f64::INFINITY, f64::min));
        hi.push(vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max));
    }
    (mean, lo, hi)
}

/// Figure 5: mean cluster size when removing peering locations.
pub fn fig5(scenario: &Scenario, campaign: &Campaign) -> String {
    let n = scenario.origin.num_links();
    let mut series = Vec::new();
    let mut rows = Vec::new();
    for removed in 0..=2usize.min(n - 1) {
        let label = match removed {
            0 => "all locations".to_string(),
            r => format!("{} locations", n - r),
        };
        let mut trajs = Vec::new();
        for keep in footprints_removing(n, removed) {
            let (_, means) = footprint_trajectory(
                &campaign.configs,
                &campaign.catchments,
                &campaign.tracked,
                &keep,
            );
            trajs.push(means);
        }
        let (mean, lo, hi) = band(&trajs);
        let to_pts = |v: &[f64]| -> Vec<(f64, f64)> {
            v.iter()
                .enumerate()
                .map(|(k, &y)| ((k + 1) as f64, y))
                .collect()
        };
        rows.push(vec![
            label.clone(),
            mean.len().to_string(),
            format!("{:.3}", mean.last().copied().unwrap_or(0.0)),
            format!("{:.3}", lo.last().copied().unwrap_or(0.0)),
            format!("{:.3}", hi.last().copied().unwrap_or(0.0)),
        ]);
        series.push(Series {
            name: format!("{label} (mean)"),
            points: to_pts(&mean),
        });
        if removed > 0 {
            series.push(Series {
                name: format!("{label} (min)"),
                points: to_pts(&lo),
            });
            series.push(Series {
                name: format!("{label} (max)"),
                points: to_pts(&hi),
            });
        }
    }
    let mut out = String::from("# Figure 5: mean cluster size when removing peering locations\n\n");
    out.push_str(&render_table(
        &["footprint", "configs", "final mean", "min", "max"],
        &rows,
    ));
    out.push('\n');
    out.push_str(&print_series(
        "mean cluster size vs configs deployed",
        &series,
    ));
    out
}

/// Figure 6: CCDF of cluster sizes after removing locations.
pub fn fig6(scenario: &Scenario, campaign: &Campaign) -> String {
    let n = scenario.origin.num_links();
    let mut series = Vec::new();
    let mut rows = Vec::new();
    for removed in 0..=2usize.min(n - 1) {
        let label = match removed {
            0 => "all locations".to_string(),
            r => format!("{} locations", n - r),
        };
        // CCDF fractions per subset, merged on the union of sizes.
        let mut per_subset: Vec<BTreeMap<usize, f64>> = Vec::new();
        let mut tail_counts = Vec::new();
        for keep in footprints_removing(n, removed) {
            let clustering = footprint_clustering(
                &campaign.configs,
                &campaign.catchments,
                &campaign.tracked,
                &keep,
            );
            let ccdf: BTreeMap<usize, f64> = clustering.size_ccdf().into_iter().collect();
            tail_counts.push(
                clustering.sizes().iter().filter(|&&s| s > 25).count() as f64
                    / clustering.num_clusters().max(1) as f64,
            );
            per_subset.push(ccdf);
        }
        // Evaluate each subset's step CCDF on the union grid and average.
        let mut grid: Vec<usize> = per_subset.iter().flat_map(|m| m.keys().copied()).collect();
        grid.sort_unstable();
        grid.dedup();
        let eval = |m: &BTreeMap<usize, f64>, x: usize| -> f64 {
            // CCDF at x = fraction of clusters with size >= x: the value
            // of the next key >= x, or 0 beyond the maximum.
            m.range(x..).next().map(|(_, &f)| f).unwrap_or(0.0)
        };
        let pts: Vec<(f64, f64)> = grid
            .iter()
            .map(|&x| {
                let avg: f64 =
                    per_subset.iter().map(|m| eval(m, x)).sum::<f64>() / per_subset.len() as f64;
                (x as f64, avg)
            })
            .collect();
        let tail_avg = tail_counts.iter().sum::<f64>() / tail_counts.len() as f64;
        rows.push(vec![
            label.clone(),
            per_subset.len().to_string(),
            format!("{:.3}%", tail_avg * 100.0),
        ]);
        series.push(Series {
            name: label,
            points: pts,
        });
    }
    let mut out =
        String::from("# Figure 6: distribution of cluster sizes after removing locations\n\n");
    out.push_str(&render_table(
        &["footprint", "subsets", "clusters >25 ASes (avg)"],
        &rows,
    ));
    out.push('\n');
    out.push_str(&print_series(
        "CCDF of cluster sizes (x=size, y=frac clusters >= x)",
        &series,
    ));
    out
}

/// Figure 7: cluster size as a function of AS-hop distance.
pub fn fig7(scenario: &Scenario, campaign: &Campaign) -> String {
    let groups = cluster_size_by_distance(
        &scenario.gen.topology,
        &scenario.origin,
        &campaign.clustering,
        4,
    );
    let rows: Vec<Vec<String>> = groups
        .iter()
        .map(|g| {
            vec![
                if g.open_ended {
                    format!("{}+", g.hops)
                } else {
                    g.hops.to_string()
                },
                g.ases.to_string(),
                format!("{:.3}", g.mean_cluster_size),
            ]
        })
        .collect();
    let series: Vec<Series> = groups
        .iter()
        .map(|g| Series {
            name: format!(
                "ASes {} hop{} from origin",
                if g.open_ended {
                    format!("{}+", g.hops)
                } else {
                    g.hops.to_string()
                },
                if g.hops == 1 && !g.open_ended {
                    ""
                } else {
                    "s"
                },
            ),
            points: g.cdf.iter().map(|&(s, f)| (s as f64, f)).collect(),
        })
        .collect();
    let mut out =
        String::from("# Figure 7: cluster size as function of AS-hop distance from origin\n\n");
    out.push_str(&render_table(&["hops", "ASes", "mean cluster size"], &rows));
    out.push('\n');
    out.push_str(&print_series(
        "cumulative fraction of ASes vs cluster size",
        &series,
    ));
    out
}

/// Figure 8: random vs greedy configuration schedules.
pub fn fig8(campaign: &Campaign, random_samples: usize, greedy_steps: usize, seed: u64) -> String {
    let rnd = random_schedule_stats(
        &campaign.catchments,
        &campaign.tracked,
        random_samples,
        seed,
    );
    let steps = greedy_steps.min(campaign.catchments.len());
    let (_, greedy) = greedy_schedule(
        &campaign.catchments,
        &campaign.tracked,
        steps,
        mean_size_objective,
    );
    let to_pts = |v: &[f64]| -> Vec<(f64, f64)> {
        v.iter()
            .enumerate()
            .map(|(k, &y)| ((k + 1) as f64, y))
            .collect()
    };
    let at10 = 9.min(greedy.len().saturating_sub(1));
    let mut out = String::from("# Figure 8: mean cluster size vs announcement schedule\n\n");
    out.push_str(&format!(
        "after 10 configurations: random median = {:.2} ASes, greedy = {:.2} ASes\n",
        rnd.median.get(at10).copied().unwrap_or(f64::NAN),
        greedy.get(at10).copied().unwrap_or(f64::NAN),
    ));
    out.push_str(&format!(
        "({random_samples} random sequences; greedy evaluated for {steps} steps)\n\n",
    ));
    out.push_str(&print_series(
        "mean cluster size vs configs deployed",
        &[
            Series {
                name: "random q25".into(),
                points: to_pts(&rnd.q25),
            },
            Series {
                name: "random median".into(),
                points: to_pts(&rnd.median),
            },
            Series {
                name: "random q75".into(),
                points: to_pts(&rnd.q75),
            },
            Series {
                name: "greedy".into(),
                points: to_pts(&greedy),
            },
        ],
    ));
    out
}

/// Figure 9: fraction of ASes following well-known routing policies.
pub fn fig9(scenario: &Scenario) -> String {
    let engine = scenario.engine();
    let schedule = scenario.schedule();
    let mut best_rel = Vec::with_capacity(schedule.len());
    let mut both = Vec::with_capacity(schedule.len());
    for cfg in &schedule {
        let outcome = engine
            .propagate_config_detailed(
                &scenario.origin,
                &cfg.to_link_announcements(),
                SnapshotDetail::Full,
            )
            .expect("valid configuration");
        let sample = config_compliance(&outcome);
        best_rel.push(sample.best_relationship);
        both.push(sample.both);
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let mut out =
        String::from("# Figure 9: ASes following well-known routing policies across configs\n\n");
    out.push_str(&format!(
        "mean fraction best-relationship = {:.4}; best-relationship & shortest = {:.4}\n\n",
        avg(&best_rel),
        avg(&both),
    ));
    out.push_str(&print_series(
        "CDF over configurations (x=fraction of ASes, y=cum frac of configs)",
        &[
            Series {
                name: "best relationship".into(),
                points: fraction_cdf(best_rel),
            },
            Series {
                name: "best relationship & shortest".into(),
                points: fraction_cdf(both),
            },
        ],
    ));
    out
}

/// Figure 10: traffic volume vs cluster size per source distribution.
pub fn fig10(scenario: &Scenario, campaign: &Campaign, placements: usize) -> String {
    let n = scenario.gen.topology.num_ases();
    let clustering = &campaign.clustering;
    let scenarios: [(&str, SourcePlacement); 3] = [
        ("uniform", SourcePlacement::Uniform { total: 100 }),
        (
            "pareto",
            SourcePlacement::Pareto {
                total: 100,
                alpha: pareto_shape_80_20(),
            },
        ),
        ("single source", SourcePlacement::Single),
    ];
    let mut series = Vec::new();
    let mut rows = Vec::new();
    for (name, placement) in scenarios {
        // Average the cumulative step functions over many placements.
        let mut grid: Vec<usize> = clustering.sizes();
        grid.sort_unstable();
        grid.dedup();
        let mut acc: Vec<f64> = vec![0.0; grid.len()];
        for p in 0..placements {
            let placed = place_sources(n, &campaign.tracked, placement, 0xF16_0000 + p as u64);
            let vols = placed.volume_per_as(1_000);
            let curve = cumulative_volume_by_cluster_slices(clustering.iter_clusters(), &vols);
            let step = |x: usize| -> f64 {
                // Cumulative fraction at size <= x.
                let mut last = 0.0;
                for &(s, f) in &curve {
                    if s > x {
                        break;
                    }
                    last = f;
                }
                last
            };
            for (gi, &x) in grid.iter().enumerate() {
                acc[gi] += step(x);
            }
        }
        let pts: Vec<(f64, f64)> = grid
            .iter()
            .zip(&acc)
            .map(|(&x, &a)| (x as f64, a / placements as f64))
            .collect();
        // Volume fraction inside clusters of size <= 5.
        let at5 = pts
            .iter()
            .filter(|p| p.0 <= 5.0)
            .map(|p| p.1)
            .fold(0.0, f64::max);
        rows.push(vec![
            name.to_string(),
            placements.to_string(),
            format!("{:.3}", at5),
        ]);
        series.push(Series {
            name: name.to_string(),
            points: pts,
        });
    }
    let mut out = String::from(
        "# Figure 10: cluster size as function of traffic volume per source distribution\n\n",
    );
    out.push_str(&render_table(
        &[
            "distribution",
            "placements",
            "volume frac in clusters <=5 ASes",
        ],
        &rows,
    ));
    out.push('\n');
    out.push_str(&print_series(
        "cumulative fraction of spoofed volume vs cluster size",
        &series,
    ));
    out
}

/// Table II: qualitative comparison of traceback approaches (static
/// content from the paper, §VII).
pub fn table2() -> String {
    let rows: Vec<Vec<String>> = [
        [
            "Manual",
            "Logs/monitoring",
            "Required",
            "No",
            "No",
            "Path prefix",
            "Long",
        ],
        [
            "Flooding",
            "Packet loss",
            "Required",
            "No",
            "High",
            "Path prefix",
            "Moderate",
        ],
        [
            "Marking",
            "IP ID field",
            "Deployment",
            "Yes",
            "Low",
            "Closest router",
            "~sampling",
        ],
        [
            "Out-of-band",
            "-",
            "Deployment",
            "Yes",
            "High",
            "Closest router",
            "~sampling",
        ],
        [
            "Digest-based",
            "Router state",
            "Deployment",
            "Yes",
            "High",
            "Closest router",
            "Low",
        ],
        [
            "Routing (this work)",
            "Routes",
            "No",
            "No",
            "No",
            "AS",
            "Long",
        ],
    ]
    .iter()
    .map(|r| r.iter().map(|s| s.to_string()).collect())
    .collect();
    let mut out = String::from("# Table II: summary of proposals for IP traceback\n\n");
    out.push_str(&render_table(
        &[
            "Approach",
            "Manipulates",
            "Cooperation",
            "Router updates",
            "Overhead",
            "Precision",
            "Delay",
        ],
        &rows,
    ));
    out
}

/// One measured point of the defense-degradation sweep: one extension at
/// one deployment fraction, with the clustering and suspect-ranking
/// quality the full campaign achieves against it.
#[derive(Debug, Clone)]
pub struct DefensePoint {
    /// The policy extension being swept.
    pub defense: PolicyExtension,
    /// Requested deployment fraction.
    pub fraction: f64,
    /// ASes the seeded assignment actually selected.
    pub deployers: usize,
    /// Final cluster count over the tracked set.
    pub clusters: usize,
    /// Mean final cluster size (higher = worse disambiguation).
    pub mean_cluster: f64,
    /// Largest final cluster.
    pub max_cluster: usize,
    /// Suspect clusters surviving volume correlation.
    pub suspects: usize,
    /// ASes inside the surviving suspect clusters (the operator's
    /// worklist; higher = worse localization).
    pub suspect_ases: usize,
}

/// Defense-degradation experiment: rerun the full campaign with one
/// policy extension deployed at each fraction (tier-biased toward the
/// core, seeded from the scenario seed) and measure how clustering and
/// suspect ranking degrade.
///
/// Extensions that drop poison sandwiches (ASPA, peerlock-lite, edge
/// filtering) disable the poisoning phase's catchment manipulation, so
/// clusters stop splitting and the suspect set coarsens as deployment
/// grows; origin validation alone (ROV) passes the origin's own
/// announcements and stays flat — it is the control series.
pub fn defense_sweep(
    base: &Options,
    defenses: &[PolicyExtension],
    fractions: &[f64],
) -> Vec<DefensePoint> {
    let mut out = Vec::new();
    for &defense in defenses {
        for &fraction in fractions {
            let mut opts = base.clone();
            opts.metrics_out = None;
            opts.defenses = vec![ExtensionDeployment {
                extension: defense,
                fraction,
                bias: DeploymentBias::Core,
            }];
            let scenario = Scenario::build(opts);
            let deployers = scenario.engine().policy().num_deployers(defense);
            let campaign = scenario.run();
            // Deterministic synthetic per-AS volume (every tracked AS
            // spoofs) so the suspect set measures routing-side
            // degradation, not traffic randomness.
            let n = scenario.gen.topology.num_ases();
            let volume: Vec<u64> = (0..n as u64).map(|i| 1 + i % 7).collect();
            let vols = link_volume_matrix(&campaign, &volume);
            let suspects = rank_suspects(&campaign, &vols);
            let sizes = campaign.clustering.sizes();
            out.push(DefensePoint {
                defense,
                fraction,
                deployers,
                clusters: campaign.clustering.num_clusters(),
                mean_cluster: campaign.clustering.mean_size(),
                max_cluster: sizes.iter().copied().max().unwrap_or(0),
                suspects: suspects.len(),
                suspect_ases: suspects.iter().map(|s| s.members.len()).sum(),
            });
        }
    }
    out
}

/// Render the defense sweep as the fig-style degradation table.
pub fn render_defense_sweep(scenario_desc: &str, points: &[DefensePoint]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.defense.label().to_string(),
                format!("{:.0}%", p.fraction * 100.0),
                p.deployers.to_string(),
                p.clusters.to_string(),
                format!("{:.3}", p.mean_cluster),
                p.max_cluster.to_string(),
                p.suspects.to_string(),
                p.suspect_ases.to_string(),
            ]
        })
        .collect();
    let mut out =
        String::from("# Defense degradation: clustering vs. policy-extension deployment\n");
    out.push_str(&format!("# {scenario_desc}\n\n"));
    out.push_str(&render_table(
        &[
            "defense",
            "deployed",
            "deployers",
            "clusters",
            "mean size",
            "max size",
            "suspect clusters",
            "suspect ASes",
        ],
        &rows,
    ));
    out
}

/// Check the degradation direction for one defense's series (points for
/// ascending fractions): mean cluster size must never *improve* as
/// deployment grows, and a defense expected to break poisoning must
/// strictly degrade clustering by full deployment. Returns a
/// human-readable violation, or `None` when the series is consistent.
pub fn check_degradation(series: &[DefensePoint], expect_breaks: bool) -> Option<String> {
    for w in series.windows(2) {
        if w[1].mean_cluster < w[0].mean_cluster - 1e-9 {
            return Some(format!(
                "{} at {:.0}% deployment improved clustering (mean {:.3} -> {:.3}); \
                 degradation must be monotone",
                w[1].defense.label(),
                w[1].fraction * 100.0,
                w[0].mean_cluster,
                w[1].mean_cluster,
            ));
        }
    }
    if expect_breaks {
        let (first, last) = (series.first()?, series.last()?);
        if last.mean_cluster <= first.mean_cluster + 1e-9 {
            return Some(format!(
                "{} deployed at {:.0}% should break poisoning-based disambiguation \
                 but mean cluster size stayed at {:.3}",
                last.defense.label(),
                last.fraction * 100.0,
                last.mean_cluster,
            ));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use crate::{Options, Scale, Scenario};

    #[test]
    fn all_figures_render_at_small_scale() {
        let scenario = Scenario::build(Options {
            scale: Scale::Small,
            seed: 5,
            ..Options::default()
        });
        let campaign = scenario.run();
        let t1 = super::table1(&scenario);
        assert!(t1.contains("AMS-IX"));
        let f3 = super::fig3(&scenario, &campaign);
        assert!(f3.contains("poisoning"));
        let f4 = super::fig4(&campaign);
        assert!(f4.contains("p90"));
        let f5 = super::fig5(&scenario, &campaign);
        assert!(f5.contains("all locations"));
        let f6 = super::fig6(&scenario, &campaign);
        assert!(f6.contains("3 locations"));
        let f7 = super::fig7(&scenario, &campaign);
        assert!(f7.contains("hops"));
        let f8 = super::fig8(&campaign, 10, 5, 1);
        assert!(f8.contains("greedy"));
        let f9 = super::fig9(&scenario);
        assert!(f9.contains("best relationship"));
        let f10 = super::fig10(&scenario, &campaign, 5);
        assert!(f10.contains("pareto"));
        let t2 = super::table2();
        assert!(t2.contains("Routing (this work)"));
    }
}
