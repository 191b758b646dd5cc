//! `trackdown` — command-line interface for the spoofed-source
//! localization stack.
//!
//! ```text
//! trackdown topology  [--scale S] [--seed N] [--out FILE]   # export as-rel
//! trackdown campaign  [--scale S] [--seed N] [--measured] [--threads N] --out FILE
//!                     [--metrics-out FILE] [--metrics-deterministic]
//! trackdown info      --dataset FILE
//! trackdown localize  --dataset FILE --attacker ASN [--attacker ASN ...]
//! trackdown hijack    --dataset FILE [--config K]
//! trackdown validate-manifest --manifest FILE
//! trackdown profile   [campaign options] [--trace-out FILE]   # traced run -> Chrome JSON + table
//! ```

use std::collections::BTreeSet;
use std::fs;
use std::process::ExitCode;
use trackdown_core::dataset::Dataset;
use trackdown_core::hijack::all_impacts;
use trackdown_core::localize::Campaign;
use trackdown_core::report::render_table;
use trackdown_experiments::{report_stats, wants_help, Options, Scenario};
use trackdown_topology::serfmt::{to_as_rel, to_dot};
use trackdown_topology::Asn;

fn usage() -> ExitCode {
    eprintln!(
        "trackdown — BGP-steered localization of spoofed-traffic sources

USAGE:
  trackdown topology  [--scale small|medium|full|large|internet] [--seed N] [--format as-rel|dot] [--out FILE]
  trackdown campaign  [--scale small|medium|full|large|internet] [--seed N] [--measured]
                      [--threads N] --out FILE [--metrics-out FILE]
                      [--metrics-deterministic] [--defense NAME=FRACTION[:BIAS]]...
  trackdown info      --dataset FILE
  trackdown localize  --dataset FILE --attacker ASN [--attacker ASN ...] [--volume BYTES]
  trackdown hijack    --dataset FILE [--config K]
  trackdown validate-manifest --manifest FILE
  trackdown profile   [--scale S] [--seed N] [--measured] [--threads N]
                      [--trace-out FILE]

--defense deploys a routing-security policy extension (rov, peer-rov,
aspa, peerlock-lite, only-to-customers, enforce-first-as, edge-filter)
at the given fraction of ASes, tier-biased by BIAS (uniform|core|stub,
default core); repeat the flag to combine extensions. No --defense
flags reproduce the extension-free engine bit-for-bit.

The internet scale loads the CAIDA as-rel snapshot named by the
TRACKDOWN_AS_REL environment variable when set, and falls back to a
deterministic 80k-AS power-law graph otherwise. --threads (default:
all cores) splits the schedule across worker threads; results do not
depend on it.

profile runs one traced campaign, writes a Chrome trace-event JSON
(load it at https://ui.perfetto.dev) and prints a self-profile table."
    );
    ExitCode::from(2)
}

/// The CLI's own flags, each taking one value (the `=` suffix is how
/// [`Options::parse`] marks a flag to skip with its operand). Everything
/// else is a shared campaign flag, parsed by `Options::parse` alone; a
/// flag neither knows is rejected, so a typo or a flag left over from an
/// older release fails loudly instead of being ignored.
const CLI_FLAGS: &[&str] = &[
    "--attacker=",
    "--config=",
    "--dataset=",
    "--format=",
    "--manifest=",
    "--out=",
    "--trace-out=",
    "--volume=",
];

/// A command line: the CLI's own flag values and the shared options.
struct Args {
    values: Vec<(String, String)>,
    options: Options,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let options = Options::parse(args, CLI_FLAGS)?;
        let mut values = Vec::new();
        let mut rest = args.iter();
        while let Some(a) = rest.next() {
            if CLI_FLAGS
                .iter()
                .any(|f| f.strip_suffix('=') == Some(a.as_str()))
            {
                let v = rest.next().ok_or_else(|| format!("{a} needs a value"))?;
                values.push((a.clone(), v.clone()));
            }
        }
        Ok(Args { values, options })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn get_all(&self, key: &str) -> Vec<&str> {
        self.values
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .collect()
    }
}

fn cmd_topology(args: &Args) -> Result<(), String> {
    let scenario = Scenario::build(args.options.clone());
    let text = match args.get("--format").unwrap_or("as-rel") {
        "as-rel" => to_as_rel(&scenario.gen.topology),
        "dot" => to_dot(&scenario.gen.topology),
        other => return Err(format!("unknown --format {other:?} (as-rel|dot)")),
    };
    println!(
        "generated {} ASes, {} links ({} tier-1, {} transit, {} stubs)",
        scenario.gen.topology.num_ases(),
        scenario.gen.topology.num_links(),
        scenario.gen.tier1s.len(),
        scenario.gen.large_transits.len() + scenario.gen.small_transits.len(),
        scenario.gen.stubs.len(),
    );
    match args.get("--out") {
        Some(path) => {
            fs::write(path, &text).map_err(|e| format!("write {path}: {e}"))?;
            println!("wrote {path}");
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn cmd_campaign(args: &Args) -> Result<(), String> {
    let out_path = args.get("--out").ok_or("campaign requires --out FILE")?;
    let scenario = Scenario::build(args.options.clone());
    scenario.announce();
    let campaign = scenario.run();
    report_stats(&campaign);
    let dataset = Dataset::from_campaign(&scenario.gen.topology, &scenario.origin, &campaign);
    let json = dataset.to_json().map_err(|e| e.to_string())?;
    fs::write(out_path, json).map_err(|e| format!("write {out_path}: {e}"))?;
    println!("wrote {out_path}");
    Ok(())
}

fn load_dataset(args: &Args) -> Result<Dataset, String> {
    let path = args.get("--dataset").ok_or("missing --dataset FILE")?;
    let text = fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Dataset::from_json(&text).map_err(|e| e.to_string())
}

fn cmd_info(args: &Args) -> Result<(), String> {
    let ds = load_dataset(args)?;
    let clustering = ds.rebuild_clustering();
    println!("dataset version {}", ds.version);
    println!(
        "origin {} with {} peering links on prefix {}",
        ds.origin.asn,
        ds.origin.num_links(),
        ds.origin.prefix
    );
    println!(
        "{} sources ({} tracked), {} configurations",
        ds.asns.len(),
        ds.tracked.len(),
        ds.num_configs()
    );
    let diversity = ds.distinct_catchments_per_source();
    let min = diversity.iter().min().copied().unwrap_or(0);
    let mean: f64 = diversity.iter().sum::<usize>() as f64 / diversity.len().max(1) as f64;
    println!("route diversity per source: min {min}, mean {mean:.2}");
    println!(
        "clusters: {} (mean size {:.3}, {:.1}% singletons)",
        clustering.num_clusters(),
        clustering.mean_size(),
        clustering.singleton_fraction() * 100.0
    );
    Ok(())
}

fn cmd_localize(args: &Args) -> Result<(), String> {
    let ds = load_dataset(args)?;
    let attackers: Vec<Asn> = args
        .get_all("--attacker")
        .iter()
        .map(|s| s.parse::<Asn>().map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    if attackers.is_empty() {
        return Err("localize requires at least one --attacker ASN".into());
    }
    let volume: u64 = args
        .get("--volume")
        .map(|v| v.parse().map_err(|_| "bad --volume"))
        .transpose()?
        .unwrap_or(1_000_000);
    // Per-AS volumes from the attacker list.
    let mut per_as = vec![0u64; ds.asns.len()];
    for a in &attackers {
        let idx = ds
            .asns
            .iter()
            .position(|x| x == a)
            .ok_or_else(|| format!("{a} not in dataset"))?;
        per_as[idx] += volume;
    }
    // Rebuild a campaign view for the localization API, then derive what
    // the honeypot would have seen per configuration at exactly the
    // attribution plane's width.
    let (clustering, attribution) = ds.rebuild_attribution();
    let campaign = Campaign {
        configs: ds.configs.clone(),
        catchments: ds.catchments.clone(),
        tracked: ds.tracked.clone(),
        clustering,
        attribution,
        records: Vec::new(),
        imputation: None,
        stats: trackdown_core::localize::CampaignStats::default(),
    };
    let link_volumes = trackdown_core::localize::link_volume_matrix(&campaign, &per_as);
    let estimates =
        trackdown_core::localize::estimate_cluster_volumes(&campaign, &link_volumes, 10);
    println!(
        "{} suspect cluster(s) naming {} AS(es):",
        estimates.len(),
        estimates.iter().map(|e| e.members.len()).sum::<usize>()
    );
    let rows: Vec<Vec<String>> = estimates
        .iter()
        .map(|e| {
            let members: Vec<String> = e
                .members
                .iter()
                .map(|&m| ds.asns[m.us()].to_string())
                .collect();
            vec![
                e.cluster.to_string(),
                e.lower.to_string(),
                e.upper.to_string(),
                members.join(" "),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(&["cluster", "vol lower", "vol upper", "members"], &rows)
    );
    // Report whether the true attackers are inside.
    let named: BTreeSet<Asn> = estimates
        .iter()
        .flat_map(|e| e.members.iter().map(|&m| ds.asns[m.us()]))
        .collect();
    for a in &attackers {
        println!(
            "{a}: {}",
            if named.contains(a) {
                "inside a suspect cluster"
            } else {
                "NOT localized (unreachable or untracked in this dataset)"
            }
        );
    }
    Ok(())
}

fn cmd_hijack(args: &Args) -> Result<(), String> {
    let ds = load_dataset(args)?;
    let k: usize = args
        .get("--config")
        .map(|v| v.parse().map_err(|_| "bad --config"))
        .transpose()?
        .unwrap_or(0);
    let catchments = ds
        .catchments
        .get(k)
        .ok_or_else(|| format!("config {k} out of range (0..{})", ds.num_configs()))?;
    let links: BTreeSet<_> = ds.configs[k].announce.iter().copied().collect();
    let impacts = all_impacts(catchments, &links, Some(&ds.tracked));
    println!(
        "hijack scenarios for configuration {k} = {} ({} scenarios):",
        ds.configs[k],
        impacts.len()
    );
    let rows: Vec<Vec<String>> = impacts
        .iter()
        .take(20)
        .map(|i| {
            let fmt_links = |s: &BTreeSet<trackdown_bgp::LinkId>| {
                s.iter()
                    .map(|l| l.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            };
            vec![
                fmt_links(&i.scenario.hijacker),
                fmt_links(&i.scenario.legitimate),
                i.captured.to_string(),
                format!("{:.1}%", i.capture_fraction * 100.0),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &["hijacker links", "legit links", "captured", "capture %"],
            &rows
        )
    );
    Ok(())
}

/// `trackdown profile`: run one campaign (any preset the `campaign`
/// command accepts) with structured tracing on, write the Chrome
/// trace-event JSON, and print the self-profile summary — per-phase
/// exclusive/inclusive time and per-worker utilization.
fn cmd_profile(args: &Args) -> Result<(), String> {
    let trace_out = args.get("--trace-out").unwrap_or("trace.json").to_string();
    let scenario = Scenario::build(args.options.clone());
    scenario.announce();
    trackdown_obs::start_trace(trackdown_obs::TraceConfig::default());
    let campaign = scenario.run_recorded(None);
    let trace = trackdown_obs::end_trace().ok_or("tracing produced no trace")?;
    report_stats(&campaign);

    let json = trackdown_obs::chrome_trace_json(&trace);
    fs::write(&trace_out, &json).map_err(|e| format!("write {trace_out}: {e}"))?;
    let summary = trackdown_obs::ProfileSummary::from_trace(&trace);
    print!("{}", summary.render());
    println!(
        "propagations={} events={} over {} worker(s); wrote {trace_out} ({} events) — \
         load it at https://ui.perfetto.dev or chrome://tracing",
        campaign.stats.propagations,
        campaign.stats.events,
        campaign.stats.threads,
        trace.events.len()
    );
    Ok(())
}

fn cmd_validate_manifest(args: &Args) -> Result<(), String> {
    let path = args.get("--manifest").ok_or("missing --manifest FILE")?;
    let text = fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let summary = trackdown_obs::validate_manifest(&text).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "{path}: valid manifest — {} epochs, schedule_len {}, deterministic {}",
        summary.epochs, summary.schedule_len, summary.deterministic
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        return usage();
    };
    if cmd == "help" || wants_help(&argv) {
        return usage();
    }
    let args = match Args::parse(rest) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let result = match cmd.as_str() {
        "topology" => cmd_topology(&args),
        "campaign" => cmd_campaign(&args),
        "info" => cmd_info(&args),
        "localize" => cmd_localize(&args),
        "hijack" => cmd_hijack(&args),
        "validate-manifest" => cmd_validate_manifest(&args),
        "profile" => cmd_profile(&args),
        other => Err(format!("unknown command {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn args_parse_values_and_flags() {
        let a = Args::parse(&argv(&[
            "--scale",
            "small",
            "--seed",
            "9",
            "--measured",
            "--out",
            "x.json",
        ]))
        .unwrap();
        assert_eq!(a.get("--out"), Some("x.json"));
        assert_eq!(a.options.scale, trackdown_experiments::Scale::Small);
        assert_eq!(a.options.seed, 9);
        assert!(a.options.measured);
    }

    #[test]
    fn args_reject_malformed() {
        assert!(Args::parse(&argv(&["positional"])).is_err());
        let err = Args::parse(&argv(&["--out"])).err().unwrap(); // missing value
        assert!(err.contains("--out"), "{err}");
        let err = Args::parse(&argv(&["--scale", "bogus"])).err().unwrap();
        assert!(err.contains("--scale"), "{err}");
    }

    #[test]
    fn args_reject_the_removed_mode_flags_by_name() {
        // There is one deployment rule; the flags that once selected a
        // reuse mode are gone and fail like any other unknown flag.
        for flag in ["--delta", "--cold"] {
            let err = Args::parse(&argv(&["--scale", "small", flag]))
                .err()
                .unwrap();
            assert!(err.contains(flag), "{err}");
        }
    }

    #[test]
    fn args_reject_unknown_flags_by_name() {
        // A flag from an older release (the removed count-min sketch)
        // must fail, naming the flag, instead of being ignored.
        let err = Args::parse(&argv(&[
            "--dataset",
            "d.json",
            "--attacker",
            "AS105",
            "--sketch",
            "64x4",
        ]))
        .err()
        .unwrap();
        assert!(err.contains("--sketch"), "{err}");
        let err = Args::parse(&argv(&["--measurd"])).err().unwrap();
        assert!(err.contains("--measurd"), "{err}");
        // Every CLI flag reaches the command with its value.
        for flag in CLI_FLAGS.iter().filter_map(|f| f.strip_suffix('=')) {
            assert_eq!(
                Args::parse(&argv(&[flag, "v"])).unwrap().get(flag),
                Some("v")
            );
        }
    }

    #[test]
    fn repeated_flags_accumulate_and_last_value_wins() {
        let a = Args::parse(&argv(&[
            "--attacker",
            "AS1",
            "--attacker",
            "AS2",
            "--out",
            "a.json",
            "--out",
            "b.json",
            "--seed",
            "1",
            "--seed",
            "2",
        ]))
        .unwrap();
        assert_eq!(a.get_all("--attacker"), vec!["AS1", "AS2"]);
        assert_eq!(a.get("--out"), Some("b.json"));
        assert_eq!(a.options.seed, 2);
    }

    #[test]
    fn campaign_info_localize_roundtrip() {
        let dir = std::env::temp_dir().join("trackdown-cli-test");
        fs::create_dir_all(&dir).unwrap();
        let out = dir.join("ds.json");
        let out_str = out.to_str().unwrap().to_string();

        let a = Args::parse(&argv(&[
            "--scale", "small", "--seed", "7", "--out", &out_str,
        ]))
        .unwrap();
        cmd_campaign(&a).expect("campaign");

        let a = Args::parse(&argv(&["--dataset", &out_str])).unwrap();
        cmd_info(&a).expect("info");
        cmd_hijack(&a).expect("hijack");

        // Pick a real tracked AS from the dataset for localization.
        let ds = load_dataset(&a).unwrap();
        let attacker = ds.asns[ds.tracked[3].us()];
        let a = Args::parse(&argv(&[
            "--dataset",
            &out_str,
            "--attacker",
            &attacker.0.to_string(),
        ]))
        .unwrap();
        cmd_localize(&a).expect("localize");

        let _ = fs::remove_file(out);
    }

    #[test]
    fn topology_formats() {
        let dir = std::env::temp_dir().join("trackdown-cli-test3");
        fs::create_dir_all(&dir).unwrap();
        for (fmt, marker) in [("as-rel", "|"), ("dot", "digraph")] {
            let out = dir.join(format!("t.{fmt}"));
            let out_str = out.to_str().unwrap().to_string();
            let a = Args::parse(&argv(&[
                "--scale", "small", "--seed", "2", "--format", fmt, "--out", &out_str,
            ]))
            .unwrap();
            cmd_topology(&a).expect("topology");
            let text = fs::read_to_string(&out).unwrap();
            assert!(text.contains(marker), "{fmt} output missing {marker}");
            let _ = fs::remove_file(out);
        }
        let a = Args::parse(&argv(&["--format", "bogus"])).unwrap();
        assert!(cmd_topology(&a).is_err());
    }

    #[test]
    fn localize_rejects_unknown_attacker() {
        let dir = std::env::temp_dir().join("trackdown-cli-test2");
        fs::create_dir_all(&dir).unwrap();
        let out = dir.join("ds.json");
        let out_str = out.to_str().unwrap().to_string();
        let a = Args::parse(&argv(&[
            "--scale", "small", "--seed", "8", "--out", &out_str,
        ]))
        .unwrap();
        cmd_campaign(&a).expect("campaign");
        let a = Args::parse(&argv(&["--dataset", &out_str, "--attacker", "AS999999999"])).unwrap();
        assert!(cmd_localize(&a).is_err());
        let _ = fs::remove_file(out);
    }
}
