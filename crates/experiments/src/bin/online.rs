//! Time-to-localize during an ongoing attack (§V-C operationalized):
//! how many configurations does the online loop need to reduce the
//! suspect set to a handful of ASes, with and without greedy selection?

use trackdown_core::localize::{run_campaign, CampaignOpts};
use trackdown_core::online::{simulate_online_attack, OnlineOptions};
use trackdown_experiments::{report_stats, Options, Scenario};

fn main() {
    let opts = Options::from_args();
    let scenario = Scenario::build(opts);
    scenario.announce();
    let engine = scenario.engine();
    let schedule = scenario.schedule();
    let campaign = run_campaign(
        &engine,
        &scenario.origin,
        &schedule,
        &CampaignOpts::default(),
    )
    .expect("valid schedule");
    report_stats(&campaign);

    let trials = 40usize;
    println!("# Online localization: configurations needed to reach the attacker's");
    println!("# minimal suspect set (its cluster under the full schedule, +1 slack)");
    println!(
        "# ({} single-source trials, budget 40 configurations)\n",
        trials
    );
    let mut deployed = 0usize;
    for greedy in [true, false] {
        let mut used = Vec::new();
        let mut localized = 0usize;
        for t in 0..trials {
            let attacker = campaign.tracked[(t * 41 + 7) % campaign.tracked.len()];
            // Best achievable: the attacker's cluster size after every
            // configuration — the online loop cannot do better.
            let optimal = campaign.clustering.cluster_size_of(attacker).unwrap_or(1);
            let mut vol = vec![0u64; scenario.gen.topology.num_ases()];
            vol[attacker.us()] = 1_000_000;
            let result = simulate_online_attack(
                &engine,
                &scenario.origin,
                &schedule,
                Some(&campaign.catchments),
                &campaign.tracked,
                &vol,
                OnlineOptions {
                    max_configs: 40,
                    target_suspects: optimal + 1,
                    greedy,
                    prefixes: 1,
                },
            );
            if result.localized {
                localized += 1;
            }
            used.push(result.deployed.len());
        }
        deployed += used.iter().sum::<usize>();
        used.sort_unstable();
        let mean: f64 = used.iter().sum::<usize>() as f64 / used.len() as f64;
        println!(
            "{}: localized {}/{} trials; configs used mean {:.1}, median {}, p90 {}",
            if greedy { "greedy  " } else { "in-order" },
            localized,
            trials,
            mean,
            used[used.len() / 2],
            used[(used.len() * 9) / 10],
        );
    }
    // Trials share the engine's catchment memo: a configuration
    // propagates once, however many trials deploy it.
    println!(
        "\n# {deployed} configurations deployed over both loops; {} distinct ones propagated",
        engine.memoized_configs()
    );
    println!("# each configuration costs ~70 minutes in deployment (convergence +");
    println!("# measurement), so halving the configuration count halves wall-clock");
    println!("# time to actionable attribution.");
}
