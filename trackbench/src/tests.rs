//! Tests of the benchmark itself: every workload through the same code at
//! `Scale::Small`, the metric catalogue against `BENCHMARK.json`, the
//! output checks, and the comparison rule.

use crate::attack::{AttackInput, AttackReference};
use crate::campaign::{check_campaign, traced_campaign, CampaignOutput};
use crate::compare::{classify, compare, load_spec, parse_run_file, Spec, Tolerance, Verdict};
use crate::metrics::{Layers, END_TO_END, PER_LAYER};
use crate::workload::{run, scenario, RunConfig, Workload};
use serde::{obj_get, Value};
use trackdown_experiments::Scale;
use trackdown_traffic::VolumeAccumulator;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let v = benchmark_json();
    let list = obj_get(v.as_object().unwrap(), section)
        .and_then(Value::as_array)
        .expect("section present")
        .to_vec();
    list.iter()
        .map(|m| {
            let m = m.as_object().unwrap();
            let s = |k| obj_get(m, k).and_then(Value::as_str).unwrap().to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn small(seed: u64, trace: bool) -> RunConfig {
    RunConfig {
        scale: Some(Scale::Small),
        min_ops: 2,
        ..RunConfig::new(seed, 0.0, trace)
    }
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

#[test]
fn catalogue_matches_benchmark_json() {
    let as_owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter().map(|&(n, u)| (n.into(), u.into())).collect()
    };
    assert_eq!(listed("end_to_end"), as_owned(END_TO_END));
    assert_eq!(listed("per_layer"), as_owned(PER_LAYER));
    let v = benchmark_json();
    let workloads = obj_get(v.as_object().unwrap(), "workloads")
        .and_then(Value::as_array)
        .unwrap()
        .to_vec();
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| {
            obj_get(w.as_object().unwrap(), "name")
                .and_then(Value::as_str)
                .unwrap()
        })
        .collect();
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, expected);
}

#[test]
fn every_workload_emits_every_listed_metric_with_its_unit() {
    for w in Workload::ALL {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let (result, report) = run(w, &small(3, trace));
            assert!(
                result.correct && result.failed == 0,
                "{} trace={trace}: {:?}",
                w.name(),
                report.ops.failures
            );
            let emitted: Vec<(String, String)> = result
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.clone()))
                .collect();
            assert_eq!(emitted, listed(section), "{} trace={trace}", w.name());
            assert!(result
                .metrics
                .iter()
                .all(|m| valid_name(&m.name) && m.value.is_finite()));
            assert!(report
                .info
                .iter()
                .all(|(n, v, _)| valid_name(n) && v.is_finite()));
            // Two timed operations, plus the traced phase when tracing.
            assert_eq!(result.attempted, 2 + trace as u64, "{}", w.name());
            if trace {
                assert!(result.metric("topology.gen_s").unwrap() > 0.0);
            } else {
                assert!(result.metrics.iter().all(|m| m.value > 0.0), "{}", w.name());
            }
        }
    }
}

#[test]
fn traced_campaigns_reproduce_and_count_cold_epochs() {
    for measured in [false, true] {
        let scenario = scenario(&small(5, true), Scale::Small, measured);
        let c = scenario.run_recorded(None);
        let reference = CampaignOutput {
            catchments: c.catchments,
            tracked: c.tracked,
            clustering: c.clustering,
        };
        let mut layers = Layers::default();
        let traced = traced_campaign(&scenario, &mut layers);
        assert_eq!(check_campaign(&reference, &traced), Ok(()));
        // The default policy has violators, so no epoch reuses state.
        let deployed = reference.catchments.len() as f64 - layers.get("schedule.memo_hits");
        assert_eq!(layers.get("bgp.cold_epochs"), deployed);
        assert!(layers.get("bgp.deploy_ms") > 0.0 && layers.get("cluster.refine_ms") > 0.0);
        assert_eq!(layers.get("measure.measure_ms") > 0.0, measured);
    }
}

#[test]
fn a_corrupted_reference_is_caught() {
    let cfg = small(5, false);
    let c = scenario(&cfg, Scale::Small, false).run_recorded(None);
    let got = CampaignOutput {
        catchments: c.catchments.clone(),
        tracked: c.tracked.clone(),
        clustering: c.clustering.clone(),
    };
    let mut bad = CampaignOutput {
        catchments: c.catchments,
        tracked: c.tracked,
        clustering: c.clustering,
    };
    let victim = bad.tracked[0];
    let moved = match bad.catchments[1].get(victim) {
        Some(_) => None,
        None => Some(trackdown_bgp::LinkId(0)),
    };
    bad.catchments[1].set(victim, moved);
    assert!(check_campaign(&bad, &got).is_err());
    bad.catchments = got.catchments.clone();
    bad.tracked.pop();
    assert!(check_campaign(&bad, &got).is_err());

    let input = AttackInput::build(scenario(&cfg, Scale::Small, false), 2_000, 5);
    let mut reference = AttackReference::of(&input);
    assert_eq!(reference.contract(&input), Ok(()));
    let mut acc = trackdown_traffic::BatchedDenseAccumulator::new(
        input.campaign.catchments.len(),
        input.campaign.attribution.num_links(),
    );
    for (w, cat) in input.campaign.catchments.iter().enumerate() {
        acc.ingest(w, cat, &input.flows);
    }
    let (suspects, estimates) = (reference.suspects.clone(), reference.estimates.clone());
    assert_eq!(reference.check(&acc, &suspects, &estimates), Ok(()));
    reference.rows[0][0] += 1;
    assert!(reference.check(&acc, &suspects, &estimates).is_err());
}

fn spec(name: &str, lower: bool, tolerance: Tolerance) -> Spec {
    Spec {
        name: name.into(),
        lower_is_better: lower,
        tolerance,
    }
}

/// A synthetic run file as `benchmark --out` writes it.
fn run_file(workload: &str, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": \"7\", \"result\": {{\"correct\": true, \
         \"attempted\": 3, \"failed\": 0, \"metrics\": {{{}}}}}}}",
        body.join(", ")
    )
}

#[test]
fn compare_judges_wins_ties_and_drift() {
    let specs = load_spec(
        r#"{"end_to_end": [
               {"name": "op_ms", "unit": "ms", "better": "lower", "bound": 0.1}],
            "per_layer": [
               {"name": "bgp.events", "unit": "count", "better": "lower"},
               {"name": "bgp.deploy_ms", "unit": "ms", "better": "lower"}]}"#,
    )
    .unwrap();
    assert_eq!(
        specs,
        vec![
            spec("op_ms", true, Tolerance::Bound(0.1)),
            spec("bgp.events", true, Tolerance::Exact),
        ]
    );
    let runs = |w: &str, ms: &[f64], events: f64| -> Vec<crate::compare::RunFile> {
        ms.iter()
            .map(|&v| {
                parse_run_file(&run_file(
                    w,
                    &[("op_ms", "ms", v), ("bgp.events", "count", events)],
                ))
                .unwrap()
            })
            .collect()
    };
    let steady = [
        100.0, 101.0, 99.5, 100.5, 100.2, 99.8, 100.1, 100.3, 99.9, 100.4,
    ];
    let faster: Vec<f64> = steady.iter().map(|v| v * 0.8).collect();
    let noisy_p = [
        100.0, 140.0, 80.0, 120.0, 95.0, 70.0, 130.0, 105.0, 85.0, 110.0,
    ];
    let noisy_c = [
        110.0, 75.0, 125.0, 90.0, 135.0, 100.0, 82.0, 118.0, 97.0, 104.0,
    ];

    let mut parent = runs("internet", &steady, 500.0);
    parent.extend(runs("attack_stream", &noisy_p, 10.0));
    let mut change = runs("internet", &faster, 500.0);
    change.extend(runs("attack_stream", &noisy_c, 11.0));
    let report = compare(&specs, &parent, &change);

    let internet = &report["internet"];
    assert_eq!(internet[0].verdict, Verdict::Improved, "clear win");
    assert_eq!(internet[0].win_share, 1.0);
    assert_eq!(internet[1].verdict, Verdict::Unchanged, "identical counts");
    let attack = &report["attack_stream"];
    assert_eq!(attack[0].verdict, Verdict::Unresolved, "noisy tie");
    assert_eq!(attack[1].verdict, Verdict::Worse, "exact count drifted up");

    // A steady median worse by more than the bound is worse; the same
    // shift inside wide spreads is unresolved.
    let slower: Vec<f64> = steady.iter().map(|v| v * 1.2).collect();
    let s = spec("op_ms", true, Tolerance::Bound(0.1));
    assert_eq!(classify(&s, &steady, &slower).verdict, Verdict::Worse);
    let noisy_slower: Vec<f64> = noisy_p.iter().map(|v| v * 1.3).collect();
    assert_eq!(
        classify(&s, &noisy_p, &noisy_slower).verdict,
        Verdict::Unresolved
    );
    assert_eq!(classify(&s, &steady, &steady).verdict, Verdict::Unchanged);
    // Higher-is-better flips the direction.
    let h = spec("frac", false, Tolerance::Exact);
    assert_eq!(classify(&h, &[0.5], &[0.6]).verdict, Verdict::Improved);
}
