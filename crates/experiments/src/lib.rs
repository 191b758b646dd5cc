//! # trackdown-experiments
//!
//! Reproduction harnesses for every table and figure in the paper's
//! evaluation (§V). Each binary regenerates one artifact:
//!
//! | binary   | artifact  | content |
//! |----------|-----------|---------|
//! | `table1` | Table I   | PoPs and providers of the (simulated) platform |
//! | `fig3`   | Figure 3  | CCDF of cluster sizes after each phase |
//! | `fig4`   | Figure 4  | mean/p90 cluster size vs number of configurations |
//! | `fig5`   | Figure 5  | mean cluster size when removing peering locations |
//! | `fig6`   | Figure 6  | CCDF of cluster sizes after removing locations |
//! | `fig7`   | Figure 7  | cluster size vs AS-hop distance from the origin |
//! | `fig8`   | Figure 8  | random vs greedy configuration schedules |
//! | `fig9`   | Figure 9  | fraction of ASes following known routing policies |
//! | `fig10`  | Figure 10 | traffic volume vs cluster size per source distribution |
//! | `table2` | Table II  | qualitative comparison of traceback approaches |
//! | `run_all`| all       | everything above, written to `results/` |
//!
//! Absolute values differ from the paper (the substrate is a synthetic
//! Internet, not PEERING + RouteViews + Atlas); the *shapes* are the
//! reproduction target. Every binary accepts `--scale
//! small|medium|full|large|internet` (default `full`), `--seed <u64>`
//! and `--threads <n>`; `-h`/`--help` prints the usage. Every
//! configuration deploys as a transition from the origin's converged
//! full anycast. The `internet` scale loads a real
//! CAIDA `as-rel` snapshot from the path in `TRACKDOWN_AS_REL` when that
//! variable is set, and falls back to a deterministic 80 000-AS
//! power-law graph otherwise.

use trackdown_bgp::{
    BgpEngine, DeploymentBias, EngineConfig, ExtensionDeployment, OriginAs, PolicyConfig,
    PolicyExtension,
};
use trackdown_core::generator::{full_schedule, phase_boundaries, GeneratorParams};
use trackdown_core::localize::{run_campaign, Campaign, CampaignOpts, CatchmentSource};
use trackdown_core::report::{downsample, render_table, Series};
use trackdown_core::{AnnouncementConfig, Phase};
use trackdown_measure::{MeasurementConfig, MeasurementPlane};
use trackdown_obs::{progress, CampaignRecorder, RunInfo};
use trackdown_topology::cone::ConeInfo;
use trackdown_topology::gen::{generate, GeneratedTopology, TopologyConfig};

pub mod figures;
pub mod scenarios;

/// Experiment scale: trades fidelity for runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ≈120 ASes, 4 PoPs — smoke-test scale (seconds).
    Small,
    /// ≈600 ASes, 5 PoPs — development scale.
    Medium,
    /// ≈2000 ASes, 7 PoPs — the paper-like scale (default).
    Full,
    /// ≈12 000 ASes (power-law generator), 7 PoPs — the paper-scale
    /// workload the multi-threaded campaign executor targets. The schedule
    /// is trimmed (one-removal locations, capped poisons) so runtime is
    /// dominated by propagation + extraction over the large graph.
    Large,
    /// 80 000 ASes, 7 PoPs — real-Internet scale, the size of the CAIDA
    /// as-rel snapshots the paper consumes \[28\]. Loads the snapshot at
    /// `TRACKDOWN_AS_REL` when set (tiers/regions classified from the
    /// link structure), else generates a deterministic power-law graph.
    /// The schedule is trimmed harder than `large` so runtime stays
    /// dominated by per-configuration propagation over the huge graph.
    Internet,
}

impl Scale {
    /// Parse from a `--scale` argument value.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "small" => Some(Scale::Small),
            "medium" => Some(Scale::Medium),
            "full" => Some(Scale::Full),
            "large" => Some(Scale::Large),
            "internet" => Some(Scale::Internet),
            _ => None,
        }
    }

    /// The `--scale` argument spelling (manifest `scale` field).
    pub fn label(&self) -> &'static str {
        match self {
            Scale::Small => "small",
            Scale::Medium => "medium",
            Scale::Full => "full",
            Scale::Large => "large",
            Scale::Internet => "internet",
        }
    }
}

/// Command-line options shared by every experiment binary.
#[derive(Debug, Clone)]
pub struct Options {
    /// Experiment scale.
    pub scale: Scale,
    /// Topology seed.
    pub seed: u64,
    /// Obtain catchments through the simulated observation plane (BGP
    /// feeds + noisy traceroutes + visibility imputation) instead of the
    /// control-plane oracle — closest to the paper's §IV pipeline, where
    /// only feed/probe-visible sources enter the analysis.
    pub measured: bool,
    /// Worker-thread override (`--threads`). Defaults to the machine's
    /// available parallelism. Results are thread-count-invariant; this
    /// pins the executor shape for profiling and benches.
    pub threads: Option<usize>,
    /// Write a JSONL run manifest (run header, one epoch line per
    /// configuration, metrics snapshot) to this path after each campaign.
    pub metrics_out: Option<String>,
    /// Suppress every wall-clock-derived manifest field so two runs of
    /// the same campaign produce byte-identical manifests.
    pub metrics_deterministic: bool,
    /// Defense-policy extensions to deploy (`--defense
    /// <name>=<fraction>[:<bias>]`, repeatable). Empty reproduces the
    /// extension-free engine bit-for-bit.
    pub defenses: Vec<ExtensionDeployment>,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            scale: Scale::Full,
            seed: 0x5eed_0001,
            measured: false,
            threads: None,
            metrics_out: None,
            metrics_deterministic: false,
            defenses: Vec::new(),
        }
    }
}

/// Parse one `--defense` operand: `<name>=<fraction>[:<bias>]` with
/// `name` a [`PolicyExtension`] label (e.g. `aspa`, `peerlock-lite`),
/// `fraction` in `[0, 1]`, and `bias` one of `uniform|core|stub`
/// (default `core`).
pub fn parse_defense(s: &str) -> Option<ExtensionDeployment> {
    let (name, rest) = s.split_once('=')?;
    let extension = PolicyExtension::parse(name)?;
    let (frac, bias) = match rest.split_once(':') {
        Some((f, b)) => (f, Some(b)),
        None => (rest, None),
    };
    let fraction: f64 = frac.parse().ok().filter(|f| (0.0..=1.0).contains(f))?;
    let bias = match bias {
        None => DeploymentBias::default(),
        Some("uniform") => DeploymentBias::Uniform,
        Some("core") => DeploymentBias::Core,
        Some("stub") => DeploymentBias::Stub,
        Some(_) => return None,
    };
    Some(ExtensionDeployment {
        extension,
        fraction,
        bias,
    })
}

impl Options {
    /// Parse the shared flags from process arguments; prints the usage
    /// and exits with status 2 on `-h`/`--help` or malformed input.
    pub fn from_args() -> Options {
        Options::from_args_filtered(&[])
    }

    /// [`Options::from_args`], skipping any flag named in `ignore` —
    /// binaries with extra flags (e.g. `defense --check`) parse those
    /// themselves and pass the rest through here. A plain entry skips one
    /// boolean flag; an entry ending in `=` (e.g. `"--fraction="`) skips
    /// the flag *and* its value token.
    pub fn from_args_filtered(ignore: &[&str]) -> Options {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if wants_help(&args) {
            usage()
        }
        Options::parse(&args, ignore).unwrap_or_else(|e| {
            eprintln!("{e}");
            usage()
        })
    }

    /// Parse the shared flags from `args` (program name excluded),
    /// skipping the flags named in `ignore` as [`Options::from_args_filtered`]
    /// does. Errors name the offending argument.
    pub fn parse(args: &[String], ignore: &[&str]) -> Result<Options, String> {
        let mut opts = Options::default();
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            if ignore.contains(&flag) {
                i += 1;
                continue;
            }
            if ignore.iter().any(|ig| ig.strip_suffix('=') == Some(flag)) {
                i += 2; // value flag: skip the flag and its operand
                continue;
            }
            let mut value = || {
                i += 1;
                args.get(i)
                    .map(String::as_str)
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            let bad = |v: &str| format!("bad {flag} value: {v}");
            match flag {
                "--scale" => {
                    let v = value()?;
                    opts.scale = Scale::parse(v).ok_or_else(|| bad(v))?;
                }
                "--seed" => {
                    let v = value()?;
                    opts.seed = v.parse().map_err(|_| bad(v))?;
                }
                "--measured" => opts.measured = true,
                "--threads" => {
                    let v = value()?;
                    opts.threads = Some(v.parse().ok().filter(|&s| s >= 1).ok_or_else(|| bad(v))?);
                }
                "--metrics-out" => opts.metrics_out = Some(value()?.to_string()),
                "--metrics-deterministic" => opts.metrics_deterministic = true,
                "--defense" => {
                    let v = value()?;
                    opts.defenses.push(parse_defense(v).ok_or_else(|| bad(v))?);
                }
                other => return Err(format!("unknown argument: {other}")),
            }
            i += 1;
        }
        Ok(opts)
    }
}

/// Whether `args` ask for the usage text: `-h` or `--help` anywhere.
pub fn wants_help(args: &[String]) -> bool {
    args.iter().any(|a| a == "-h" || a == "--help")
}

fn usage() -> ! {
    eprintln!(
        "usage: <experiment> [--scale small|medium|full|large|internet] [--seed <u64>] \
         [--measured] [--threads <n>] \
         [--metrics-out FILE] [--metrics-deterministic] \
         [--defense <name>=<fraction>[:<bias>]]...\n\
         defenses: rov, peer-rov, aspa, peerlock-lite, only-to-customers, \
         enforce-first-as, edge-filter; bias: uniform|core|stub (default core)"
    );
    std::process::exit(2)
}

/// Build the `internet`-scale topology: the CAIDA `as-rel` snapshot at
/// `TRACKDOWN_AS_REL` when that variable is set and non-empty (tiers and
/// regions classified from the link structure), otherwise the
/// deterministic 80k-AS power-law fallback in `fallback`. Exits with a
/// diagnostic when the file cannot be read or parsed — a half-loaded
/// Internet is worse than none.
fn internet_topology(fallback: &TopologyConfig) -> GeneratedTopology {
    match std::env::var("TRACKDOWN_AS_REL") {
        Ok(path) if !path.is_empty() => {
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                eprintln!("error: reading TRACKDOWN_AS_REL file {path}: {e}");
                std::process::exit(1);
            });
            let topo = trackdown_topology::serfmt::parse_as_rel(&text).unwrap_or_else(|e| {
                eprintln!("error: parsing TRACKDOWN_AS_REL file {path}: {e}");
                std::process::exit(1);
            });
            progress::emit(
                "topology.as_rel_loaded",
                &[
                    ("path", path.clone()),
                    ("ases", topo.num_ases().to_string()),
                ],
            );
            GeneratedTopology::from_topology(topo, fallback.num_regions)
        }
        _ => generate(fallback),
    }
}

/// Stem of the running executable (manifest `name` field).
fn program_name() -> String {
    std::env::args()
        .next()
        .and_then(|a| {
            std::path::Path::new(&a)
                .file_stem()
                .and_then(|s| s.to_str())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "trackdown".into())
}

/// A fully-built experiment scenario: topology, origin, engine
/// configuration, and schedule parameters.
pub struct Scenario {
    /// The generated topology and metadata.
    pub gen: GeneratedTopology,
    /// The multi-PoP origin.
    pub origin: OriginAs,
    /// Engine (policy) configuration.
    pub engine_cfg: EngineConfig,
    /// Schedule generation parameters.
    pub params: GeneratorParams,
    /// Scale this scenario was built at.
    pub scale: Scale,
    /// Topology seed the scenario was built from.
    pub seed: u64,
    /// Whether campaigns run through the measurement plane.
    pub measured: bool,
    /// Worker-thread override (`None` = available parallelism).
    pub threads: Option<usize>,
    /// Run-manifest output path ([`Scenario::run`] writes it when set).
    pub metrics_out: Option<String>,
    /// Whether manifests suppress wall-clock fields.
    pub metrics_deterministic: bool,
}

impl Scenario {
    /// Build the scenario for the given options.
    pub fn build(opts: Options) -> Scenario {
        let (topo_cfg, pops, params) = match opts.scale {
            Scale::Small => (
                TopologyConfig::small(opts.seed),
                4,
                GeneratorParams {
                    max_removals: 2,
                    max_poison_configs: Some(20),
                },
            ),
            Scale::Medium => (
                TopologyConfig::medium(opts.seed),
                5,
                GeneratorParams {
                    max_removals: 2,
                    max_poison_configs: Some(60),
                },
            ),
            Scale::Full => (
                TopologyConfig {
                    seed: opts.seed,
                    ..TopologyConfig::default()
                },
                7,
                GeneratorParams {
                    max_removals: 3,
                    max_poison_configs: None,
                },
            ),
            Scale::Large => (
                TopologyConfig::large(opts.seed),
                7,
                GeneratorParams {
                    max_removals: 1,
                    max_poison_configs: Some(24),
                },
            ),
            Scale::Internet => (
                TopologyConfig::internet(opts.seed),
                7,
                GeneratorParams {
                    max_removals: 1,
                    max_poison_configs: Some(8),
                },
            ),
        };
        let gen = if opts.scale == Scale::Internet {
            internet_topology(&topo_cfg)
        } else {
            generate(&topo_cfg)
        };
        let origin = OriginAs::peering_style(&gen, pops);
        let mut policy = PolicyConfig {
            seed: opts.seed ^ 0x9_11C7,
            ..PolicyConfig::default()
        };
        policy.extensions.deployments = opts.defenses.clone();
        let engine_cfg = EngineConfig {
            policy,
            ..EngineConfig::default()
        };
        Scenario {
            gen,
            origin,
            engine_cfg,
            params,
            scale: opts.scale,
            seed: opts.seed,
            measured: opts.measured,
            threads: opts.threads,
            metrics_out: opts.metrics_out,
            metrics_deterministic: opts.metrics_deterministic,
        }
    }

    /// Build the BGP engine (borrows the scenario's topology).
    pub fn engine(&self) -> BgpEngine<'_> {
        BgpEngine::new(&self.gen.topology, &self.engine_cfg)
    }

    /// The full three-phase schedule.
    pub fn schedule(&self) -> Vec<AnnouncementConfig> {
        full_schedule(&self.gen.topology, &self.origin, &self.params)
    }

    /// Deploy the full schedule. By default, catchments are ground-truth
    /// control plane; with `--measured` they pass through the simulated
    /// observation plane (the paper's §IV pipeline), which restricts the
    /// tracked set to feed/probe-visible sources and adds measurement
    /// noise. Each configuration deploys as a transition from the
    /// origin's converged full anycast (DESIGN.md §4b).
    pub fn run(&self) -> Campaign {
        // Attach a recorder only when a manifest was requested; with
        // `None` the executor skips all instrumentation work.
        let recorder = self
            .metrics_out
            .as_ref()
            .map(|_| CampaignRecorder::new(self.metrics_deterministic));
        let campaign = self.run_recorded(recorder.as_ref());
        if let (Some(path), Some(rec)) = (&self.metrics_out, &recorder) {
            match self.write_manifest(path, rec, &campaign) {
                Ok(()) => progress::emit("manifest.written", &[("path", path.clone())]),
                Err(e) => {
                    eprintln!("error: writing metrics manifest {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        campaign
    }

    /// [`Scenario::run`] with an explicit (optional) epoch recorder and
    /// no manifest writing — the building block `run` wraps.
    ///
    /// Independent configurations deploy on parallel workers — the
    /// simulation analog of deploying on multiple prefixes concurrently
    /// (§V-C) — measured campaigns included: the observation plane salts
    /// its noise by schedule index, so results do not depend on the
    /// worker count.
    pub fn run_recorded(&self, recorder: Option<&CampaignRecorder>) -> Campaign {
        let topo = &self.gen.topology;
        let engine = self.engine();
        // Only the measurement plane reads customer cones, and they are
        // large at Internet scale: keep them only while it is built.
        let plane = self.measured.then(|| {
            let cones = ConeInfo::compute(topo);
            MeasurementPlane::new(topo, &cones, &MeasurementConfig::default())
        });
        let schedule = self.schedule();
        let opts = CampaignOpts {
            source: match &plane {
                Some(plane) => CatchmentSource::Measured(plane),
                None => CatchmentSource::ControlPlane,
            },
            threads: self.threads.unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            }),
            recorder,
        };
        run_campaign(&engine, &self.origin, &schedule, &opts)
            .expect("generated schedules are valid for their origin")
    }

    /// The manifest run header for a finished campaign of this scenario.
    pub fn run_info(&self, campaign: &Campaign) -> RunInfo {
        RunInfo {
            name: program_name(),
            seed: self.seed,
            policy_seed: self.engine_cfg.policy.seed,
            scale: self.scale.label().into(),
            threads: campaign.stats.threads,
            trace: trackdown_obs::trace_config_label(),
            schedule_len: campaign.configs.len(),
            deterministic: self.metrics_deterministic,
        }
    }

    /// Write the JSONL run manifest for a finished campaign.
    pub fn write_manifest(
        &self,
        path: &str,
        recorder: &CampaignRecorder,
        campaign: &Campaign,
    ) -> std::io::Result<()> {
        trackdown_obs::write_manifest(
            path,
            &self.run_info(campaign),
            &recorder.take_records(),
            Some(&trackdown_obs::global().snapshot()),
        )
    }

    /// Emit the uniform `obs scenario ...` header event (replaces the
    /// old ad-hoc `eprintln!("# ...")` prints in the binaries).
    pub fn announce(&self) {
        trackdown_obs::progress!(
            "scenario",
            name = program_name(),
            scale = self.scale.label(),
            seed = self.seed,
            ases = self.gen.topology.num_ases(),
            links = self.gen.topology.num_links(),
            origin = self.origin.asn,
            pops = self.origin.num_links(),
            measured = self.measured
        );
    }

    /// Human description for report headers.
    pub fn describe(&self) -> String {
        format!(
            "{:?} scale: {} ASes, {} links, origin {} with {} PoPs",
            self.scale,
            self.gen.topology.num_ases(),
            self.gen.topology.num_links(),
            self.origin.asn,
            self.origin.num_links(),
        )
    }
}

/// Emit the uniform `obs campaign.stats ...` event for a finished
/// campaign: execution counters plus localization quality headline.
pub fn report_stats(campaign: &Campaign) {
    trackdown_obs::progress!(
        "campaign.stats",
        configs = campaign.configs.len(),
        tracked = campaign.tracked.len(),
        propagations = campaign.stats.propagations,
        events = campaign.stats.events,
        baseline_events = campaign.stats.baseline_events,
        threads = campaign.stats.threads,
        mean_cluster_size = format!("{:.3}", campaign.clustering.mean_size())
    );
}

/// Render a campaign's phase boundaries as text (used by several figures).
pub fn phase_summary(campaign: &Campaign) -> String {
    let bounds = phase_boundaries(&campaign.configs);
    let rows: Vec<Vec<String>> = bounds
        .iter()
        .map(|(phase, end)| {
            let idx = end - 1;
            vec![
                phase.to_string(),
                end.to_string(),
                format!("{:.3}", campaign.records[idx].mean_cluster_size),
                campaign.records[idx].p90_cluster_size.to_string(),
                campaign.records[idx].num_clusters.to_string(),
            ]
        })
        .collect();
    render_table(&["phase", "configs", "mean size", "p90", "clusters"], &rows)
}

/// Format `(x, y)` series for terminal output: an ASCII sketch of the
/// curves followed by a downsampled CSV block.
pub fn print_series(title: &str, series: &[Series]) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {title}\n"));
    let compact: Vec<Series> = series
        .iter()
        .map(|s| Series {
            name: s.name.clone(),
            points: downsample(&s.points, 40),
        })
        .collect();
    out.push_str(&trackdown_core::report::ascii_plot(&compact, 64, 16));
    out.push('\n');
    out.push_str(&trackdown_core::report::to_csv(&compact));
    out
}

/// Phase boundary prefixes (Figure 3's three distributions).
pub fn phase_prefixes(configs: &[AnnouncementConfig]) -> Vec<(Phase, usize)> {
    phase_boundaries(configs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scenario_builds_and_runs() {
        let opts = Options {
            scale: Scale::Small,
            seed: 3,
            ..Options::default()
        };
        let s = Scenario::build(opts);
        assert_eq!(s.origin.num_links(), 4);
        let campaign = s.run();
        assert!(!campaign.records.is_empty());
        assert!(campaign.clustering.mean_size() >= 1.0);
        let summary = phase_summary(&campaign);
        assert!(summary.contains("location"));
        assert!(summary.contains("poisoning"));
    }

    #[test]
    fn defense_parsing() {
        let d = parse_defense("aspa=0.5").expect("valid");
        assert_eq!(d.extension, PolicyExtension::Aspa);
        assert_eq!(d.fraction, 0.5);
        assert_eq!(d.bias, DeploymentBias::Core);
        let d = parse_defense("peerlock-lite=1.0:stub").expect("valid");
        assert_eq!(d.extension, PolicyExtension::PeerlockLite);
        assert_eq!(d.bias, DeploymentBias::Stub);
        let d = parse_defense("rov=0:uniform").expect("valid");
        assert_eq!(d.bias, DeploymentBias::Uniform);
        assert!(parse_defense("aspa").is_none(), "missing fraction");
        assert!(parse_defense("bgpsec=0.5").is_none(), "unknown extension");
        assert!(parse_defense("aspa=1.5").is_none(), "fraction out of range");
        assert!(parse_defense("aspa=0.5:everywhere").is_none(), "bad bias");
    }

    #[test]
    fn defenses_reach_the_engine_policy() {
        let mut opts = Options {
            scale: Scale::Small,
            seed: 3,
            ..Options::default()
        };
        opts.defenses = vec![parse_defense("edge-filter=1.0").expect("valid")];
        let s = Scenario::build(opts);
        let n = s.gen.topology.num_ases();
        let table = s.engine();
        assert_eq!(
            table.policy().num_deployers(PolicyExtension::EdgeFilter),
            n,
            "fraction 1.0 must deploy universally"
        );
        assert_eq!(table.policy().num_deployers(PolicyExtension::Aspa), 0);
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("medium"), Some(Scale::Medium));
        assert_eq!(Scale::parse("full"), Some(Scale::Full));
        assert_eq!(Scale::parse("large"), Some(Scale::Large));
        assert_eq!(Scale::parse("internet"), Some(Scale::Internet));
        assert_eq!(Scale::parse("x"), None);
        for s in [
            Scale::Small,
            Scale::Medium,
            Scale::Full,
            Scale::Large,
            Scale::Internet,
        ] {
            assert_eq!(Scale::parse(s.label()), Some(s));
        }
    }

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_reads_the_shared_flags() {
        let opts = Options::parse(
            &argv(&[
                "--scale",
                "small",
                "--seed",
                "9",
                "--threads",
                "3",
                "--check",
            ]),
            &["--check"],
        )
        .expect("valid flags");
        assert_eq!(opts.scale, Scale::Small);
        assert_eq!(opts.seed, 9);
        assert_eq!(opts.threads, Some(3));
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            &["--scale", "bogus"][..],
            &["--seed"],
            &["--threads", "0"],
            &["--bogus"],
        ] {
            assert!(Options::parse(&argv(bad), &[]).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn parse_rejects_the_removed_mode_flags_by_name() {
        // There is one deployment rule; the flags that once selected a
        // reuse mode are gone.
        for flag in ["--delta", "--cold"] {
            let err = Options::parse(&argv(&["--scale", "small", flag]), &[]).unwrap_err();
            assert!(err.contains(flag), "{err}");
        }
    }

    #[test]
    fn measured_scenario_is_thread_invariant() {
        let base = Options {
            scale: Scale::Small,
            seed: 3,
            measured: true,
            ..Options::default()
        };
        let one = Scenario::build(Options {
            threads: Some(1),
            ..base.clone()
        })
        .run();
        let three = Scenario::build(Options {
            threads: Some(3),
            ..base
        })
        .run();
        assert_eq!(three.stats.threads, 3);
        assert_eq!(three.catchments, one.catchments);
        assert_eq!(three.tracked, one.tracked);
        assert_eq!(three.records, one.records);
        assert_eq!(three.imputation, one.imputation);
    }
}
