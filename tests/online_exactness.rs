//! Pins the online loop's results (§V-C) bit for bit.
//!
//! `localize_online` picks each next configuration greedily: the
//! candidate whose prior catchment splits the current suspect set into
//! the most parts, the first in schedule order on equal score. A change
//! to how that score is computed or to its tie-break moves a pick, and
//! with it every later round of the trial. Each test runs a set of
//! single-attacker trials through `simulate_online_attack` and folds every
//! trial's full [`OnlineResult`] (`deployed`, `suspects`,
//! `suspect_trajectory`, `rounds`, `localized`) into one 64-bit FNV-1a
//! fingerprint, next to the readable totals of configurations deployed
//! and trials localized.

mod common;

use common::Fnv1a;
use std::hash::Hasher;
use trackdown_core::online::{simulate_online_attack, OnlineOptions, OnlineResult};
use trackdown_experiments::{Options, Scale, Scenario};
use trackdown_suite::prelude::*;

/// Folded results of a set of trials.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    trials: usize,
    deployed: usize,
    localized: usize,
    fingerprint: u64,
}

fn pin(results: &[OnlineResult]) -> Pin {
    let mut h = Fnv1a::default();
    for r in results {
        h.write_u64(r.deployed.len() as u64);
        for &d in &r.deployed {
            h.write_u64(d as u64);
        }
        h.write_u64(r.suspects.len() as u64);
        for s in &r.suspects {
            h.write_u32(s.0);
        }
        h.write_u64(r.suspect_trajectory.len() as u64);
        for &n in &r.suspect_trajectory {
            h.write_u64(n as u64);
        }
        h.write_u64(r.rounds as u64);
        h.write_u8(r.localized as u8);
    }
    Pin {
        trials: results.len(),
        deployed: results.iter().map(|r| r.deployed.len()).sum(),
        localized: results.iter().filter(|r| r.localized).count(),
        fingerprint: h.finish(),
    }
}

/// Single-attacker volumes: `bytes` from `attacker`, nothing elsewhere.
fn planted(num_ases: usize, attacker: AsIndex, bytes: u64) -> Vec<u64> {
    let mut vol = vec![0u64; num_ases];
    vol[attacker.us()] = bytes;
    vol
}

/// The medium set-up `core::online`'s unit tests use: a violator-bearing
/// policy and a schedule with capped poisoning, 20 attackers spread over
/// the tracked set, greedy and in-order, with one and four prefixes.
#[test]
fn medium_online_results_are_pinned() {
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
    let engine = BgpEngine::new(&g.topology, &cfg);
    let campaign = run_campaign(&engine, &origin, &schedule, &CampaignOpts::default())
        .expect("valid schedule");
    let mut pins = Vec::new();
    for greedy in [true, false] {
        for prefixes in [1, 4] {
            let results: Vec<OnlineResult> = (0..20)
                .map(|k| {
                    let attacker = campaign.tracked[(k * 31 + 11) % campaign.tracked.len()];
                    simulate_online_attack(
                        &engine,
                        &origin,
                        &schedule,
                        Some(&campaign.catchments),
                        &campaign.tracked,
                        &planted(g.topology.num_ases(), attacker, 1_000),
                        OnlineOptions {
                            max_configs: 40,
                            target_suspects: 5,
                            greedy,
                            prefixes,
                        },
                    )
                })
                .collect();
            pins.push(pin(&results));
        }
    }
    assert_eq!(pins, MEDIUM_PINS);
}

/// The seed-7 small scenario with the options `bin/online.rs` uses: the
/// target is the attacker's cluster under the whole schedule, plus one.
#[test]
fn small_seed7_online_results_are_pinned() {
    let scenario = Scenario::build(Options {
        scale: Scale::Small,
        seed: 7,
        threads: Some(1),
        ..Options::default()
    });
    let engine = scenario.engine();
    let campaign = scenario.run();
    let mut pins = Vec::new();
    for greedy in [true, false] {
        let results: Vec<OnlineResult> = (0..8)
            .map(|t| {
                let attacker = campaign.tracked[(t * 41 + 7) % campaign.tracked.len()];
                let optimal = campaign.clustering.cluster_size_of(attacker).unwrap_or(1);
                simulate_online_attack(
                    &engine,
                    &scenario.origin,
                    &campaign.configs,
                    Some(&campaign.catchments),
                    &campaign.tracked,
                    &planted(scenario.gen.topology.num_ases(), attacker, 1_000_000),
                    OnlineOptions {
                        max_configs: 40,
                        target_suspects: optimal + 1,
                        greedy,
                        prefixes: 1,
                    },
                )
            })
            .collect();
        pins.push(pin(&results));
    }
    assert_eq!(pins, SMALL_PINS);
}

const MEDIUM_PINS: [Pin; 4] = [
    // greedy, one prefix
    Pin {
        trials: 20,
        deployed: 655,
        localized: 4,
        fingerprint: 10_433_991_214_255_310_335,
    },
    // greedy, four prefixes
    Pin {
        trials: 20,
        deployed: 684,
        localized: 4,
        fingerprint: 10_467_747_512_339_712_801,
    },
    // in order, one prefix
    Pin {
        trials: 20,
        deployed: 739,
        localized: 3,
        fingerprint: 2_133_849_328_931_895_774,
    },
    // in order, four prefixes
    Pin {
        trials: 20,
        deployed: 744,
        localized: 3,
        fingerprint: 14_813_375_896_368_260_327,
    },
];

const SMALL_PINS: [Pin; 2] = [
    // greedy
    Pin {
        trials: 8,
        deployed: 37,
        localized: 8,
        fingerprint: 4_314_905_312_243_901_908,
    },
    // in order
    Pin {
        trials: 8,
        deployed: 247,
        localized: 5,
        fingerprint: 1_058_303_069_939_767_733,
    },
];
