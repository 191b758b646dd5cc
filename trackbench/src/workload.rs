//! The four workloads and the machinery they share: repeated set-up, the
//! closed timed loop with failure accounting, and the result assembly.

use crate::metrics::{peak_rss_mib, Layers, Metric, RunResult, END_TO_END};
use crate::stats::median;
use crate::{attack, campaign, online};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use trackdown_experiments::{Options, Scale, Scenario};
use trackdown_topology::gen::{generate, TopologyConfig};

/// A benchmark workload. Each runs in one process on one worker thread,
/// on the default configuration users run: `PolicyConfig::default()`
/// (8% violators), Warm mode, exact accumulators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `Scale::Internet` (80k-AS power-law graph, 7 PoPs, 65
    /// configurations), control-plane campaigns. BGP dominates.
    Internet,
    /// `Scale::Full` (2,002 ASes, 7 PoPs, 511 configurations) campaigns
    /// through the measurement plane: the paper's §IV pipeline.
    PaperMeasured,
    /// Line-rate attribution: 200,000 spoofing hosts in a partial-SAV
    /// pocket, one flow record per host and window, ingested and then
    /// localized. No BGP in the timed work.
    AttackStream,
    /// Closed-loop online localization trials (§V-C), one per tracked AS.
    OnlineAttack,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::Internet,
        Workload::PaperMeasured,
        Workload::AttackStream,
        Workload::OnlineAttack,
    ];

    /// The `--workload` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Internet => "internet",
            Workload::PaperMeasured => "paper_measured",
            Workload::AttackStream => "attack_stream",
            Workload::OnlineAttack => "online_attack",
        }
    }

    /// Parse a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The scale the workload runs at unless a run overrides it.
    pub fn default_scale(self) -> Scale {
        match self {
            Workload::Internet => Scale::Internet,
            _ => Scale::Full,
        }
    }
}

/// How one run is driven.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// Measurement window of the timed loop.
    pub seconds: f64,
    /// Run the traced phase and report per-layer metrics.
    pub trace: bool,
    /// Scale override (smoke runs and tests use `Scale::Small`).
    pub scale: Option<Scale>,
    /// Timed operations to run even when the window has closed.
    pub min_ops: usize,
}

impl RunConfig {
    /// A run at the workload's own scale.
    pub fn new(seed: u64, seconds: f64, trace: bool) -> RunConfig {
        RunConfig {
            seed,
            seconds,
            trace,
            scale: None,
            min_ops: 1,
        }
    }
}

/// Set-up repetitions: at least [`SETUP_MIN_REPS`], more while the total
/// stays under [`SETUP_TARGET`] so cheap set-ups get a steadier median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 50;
const SETUP_TARGET: Duration = Duration::from_secs(1);

/// Build the workload's inputs several times and keep the last build,
/// returning it with every build's time in seconds.
pub(crate) fn set_up<T>(mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN_REPS
        || (start.elapsed() < SETUP_TARGET && times.len() < SETUP_MAX_REPS)
    {
        // Free the previous build first: peak memory holds one copy.
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

/// Seed of every workload's topology. The graph stays fixed, as the
/// Internet does for the operators the workloads stand for; `--seed`
/// draws what differs between operations on it: which ASes violate
/// routing policy, where spoofing hosts sit, which attackers are traced
/// and in what order. Seed-to-seed changes in a run's cost then come from
/// those draws, not from a different graph of different size.
pub const TOPOLOGY_SEED: u64 = 7;

/// The workload's scenario: one worker thread, default policy, Warm mode,
/// on the fixed topology with the policy drawn from the run's seed.
/// `--seed 7` builds exactly `Scenario::build` at seed 7.
pub(crate) fn scenario(cfg: &RunConfig, scale: Scale, measured: bool) -> Scenario {
    let mut s = Scenario::build(Options {
        scale,
        seed: TOPOLOGY_SEED,
        measured,
        threads: Some(1),
        ..Options::default()
    });
    // The derivation `Scenario::build` applies to its own seed.
    s.engine_cfg.policy.seed = cfg.seed ^ 0x9_11C7;
    s
}

/// Operation bookkeeping: timings of the operations that passed their
/// checks, and every failure.
#[derive(Debug, Default)]
pub struct Ops {
    /// Wall time of each successful timed operation, in milliseconds.
    pub samples_ms: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Failure messages, one per failed operation.
    pub failures: Vec<String>,
}

impl Ops {
    /// Run one operation, counting it as failed when it panics or
    /// returns an error (an output that differs from the reference).
    pub(crate) fn attempt<T>(
        &mut self,
        what: &str,
        f: impl FnOnce() -> Result<T, String>,
    ) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(v)) => Some(v),
            Ok(Err(e)) => {
                self.failures.push(format!("{what}: {e}"));
                None
            }
            Err(_) => {
                self.failures.push(format!("{what}: panicked"));
                None
            }
        }
    }

    /// Record a failure found outside any timed operation (a reference
    /// that breaks the workload's contract); it counts as one operation.
    pub(crate) fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failures.push(what);
    }

    /// Closed loop: run operation `i = 0, 1, …` back to back until the
    /// measurement window closes, and at least `min_ops` of them.
    /// `op` times its own timed region and then checks its output.
    pub(crate) fn timed_loop(
        &mut self,
        cfg: &RunConfig,
        mut op: impl FnMut(usize) -> Result<f64, String>,
    ) {
        let window = Duration::from_secs_f64(cfg.seconds.max(0.0));
        let start = Instant::now();
        let mut i = 0;
        while i < cfg.min_ops || start.elapsed() < window {
            if let Some(ms) = self.attempt(&format!("operation {i}"), || op(i)) {
                self.samples_ms.push(ms);
            }
            i += 1;
        }
    }
}

/// What a workload measured, before it is reduced to the result line.
#[derive(Debug, Default)]
pub struct Report {
    /// Wall time of each set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// The timed operations.
    pub ops: Ops,
    /// Workload-specific values printed as information (name, value, unit).
    pub info: Vec<(String, f64, &'static str)>,
    /// Per-layer values of the traced phase (traced runs only).
    pub layers: Option<Layers>,
}

/// Run one workload.
pub fn run(w: Workload, cfg: &RunConfig) -> (RunResult, Report) {
    let scale = cfg.scale.unwrap_or(w.default_scale());
    let report = match w {
        Workload::Internet => campaign::run(cfg, scale, false),
        Workload::PaperMeasured => campaign::run(cfg, scale, true),
        Workload::AttackStream => attack::run(cfg, scale),
        Workload::OnlineAttack => online::run(cfg, scale),
    };
    let failed = report.ops.failures.len() as u64;
    let metrics = match &report.layers {
        Some(layers) => layers.metrics(),
        None => {
            let values = [
                median(&report.setup_s),
                median(&report.ops.samples_ms),
                peak_rss_mib().unwrap_or(0.0),
            ];
            END_TO_END
                .iter()
                .zip(values)
                .map(|(&(name, unit), v)| Metric::new(name, unit, v))
                .collect()
        }
    };
    let result = RunResult {
        correct: failed == 0,
        attempted: report.ops.attempted,
        failed,
        metrics,
    };
    (result, report)
}

/// The topology configuration `Scenario::build` generates at `scale`.
fn topology_config(scale: Scale, seed: u64) -> TopologyConfig {
    match scale {
        Scale::Small => TopologyConfig::small(seed),
        Scale::Medium => TopologyConfig::medium(seed),
        Scale::Full => TopologyConfig {
            seed,
            ..TopologyConfig::default()
        },
        Scale::Large => TopologyConfig::large(seed),
        Scale::Internet => TopologyConfig::internet(seed),
    }
}

/// Time one topology generation (`topology.gen_s`) and check it rebuilds
/// the scenario's graph.
pub(crate) fn trace_topology(scenario: &Scenario, layers: &mut Layers) -> Result<(), String> {
    let t = Instant::now();
    let gen = generate(&topology_config(scenario.scale, scenario.seed));
    layers.add("topology.gen_s", t.elapsed().as_secs_f64());
    let (a, b) = (&gen.topology, &scenario.gen.topology);
    if (a.num_ases(), a.num_links()) != (b.num_ases(), b.num_links()) {
        return Err(format!(
            "generated {} ASes / {} links, scenario has {} / {}",
            a.num_ases(),
            a.num_links(),
            b.num_ases(),
            b.num_links()
        ));
    }
    Ok(())
}

/// Relative gap, in percent, of a traced total against its untraced twin.
pub(crate) fn gap_pct(traced_ms: f64, untraced_ms: f64) -> f64 {
    if untraced_ms > 0.0 {
        100.0 * (traced_ms - untraced_ms) / untraced_ms
    } else {
        0.0
    }
}
