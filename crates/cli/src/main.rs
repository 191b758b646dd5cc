//! `trackdown` — command-line interface for the spoofed-source
//! localization stack.
//!
//! ```text
//! trackdown topology  [--scale S] [--seed N] [--out FILE]   # export as-rel
//! trackdown campaign  [--scale S] [--seed N] [--measured] [--cold | --delta] [--threads N] --out FILE
//!                     [--metrics-out FILE] [--metrics-deterministic]
//! trackdown info      --dataset FILE
//! trackdown localize  --dataset FILE --attacker ASN [--attacker ASN ...]
//! trackdown hijack    --dataset FILE [--config K]
//! trackdown bench-snapshot [--out FILE]      # fixed small campaign -> BENCH_pipeline.json
//! trackdown validate-manifest --manifest FILE
//! trackdown profile   [campaign options] [--trace-out FILE]   # traced run -> Chrome JSON + table
//! trackdown perf-report [--baseline FILE] [--current FILE] [--tolerance PCT] [--report-only]
//! ```

use std::collections::BTreeSet;
use std::fs;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use trackdown_core::dataset::Dataset;
use trackdown_core::hijack::all_impacts;
use trackdown_core::localize::{run_campaign, Campaign, CampaignMode, CampaignOpts};
use trackdown_core::report::render_table;
use trackdown_experiments::{
    mode_label, parse_defense, parse_mode, report_stats, Options, Scale, Scenario,
};
use trackdown_topology::serfmt::{to_as_rel, to_dot};
use trackdown_topology::Asn;

/// Allocation-counting wrapper around the system allocator, used by
/// `bench-snapshot` to report heap allocations per warm epoch. Counting
/// lives in this binary only; the library crates stay allocator-agnostic.
struct CountingAlloc;

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `std::alloc::System` unchanged;
// the counter is a relaxed atomic with no allocation of its own.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        unsafe { std::alloc::System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        unsafe { std::alloc::System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations since process start (monotone; relaxed ordering is
/// enough for the single-threaded bench sections that read it).
fn allocations() -> u64 {
    ALLOC_COUNT.load(Ordering::Relaxed)
}

fn usage() -> ExitCode {
    eprintln!(
        "trackdown — BGP-steered localization of spoofed-traffic sources

USAGE:
  trackdown topology  [--scale small|medium|full|large|internet] [--seed N] [--format as-rel|dot] [--out FILE]
  trackdown campaign  [--scale small|medium|full|large|internet] [--seed N] [--measured]
                      [--cold | --delta] [--threads N] --out FILE [--metrics-out FILE]
                      [--metrics-deterministic] [--defense NAME=FRACTION[:BIAS]]...
  trackdown info      --dataset FILE
  trackdown localize  --dataset FILE --attacker ASN [--attacker ASN ...] [--volume BYTES]
  trackdown hijack    --dataset FILE [--config K]
  trackdown bench-snapshot [--out FILE]
  trackdown validate-manifest --manifest FILE
  trackdown profile   [--scale S] [--seed N] [--measured] [--cold | --delta] [--threads N]
                      [--trace-out FILE]
  trackdown perf-report [--baseline FILE] [--current FILE] [--tolerance PCT]
                      [--report-only] [--out FILE]

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
(load it at https://ui.perfetto.dev) and prints a self-profile table.
perf-report diffs two BENCH_pipeline.json snapshots (omitting
--current benches a fresh one) and fails on metric regressions
beyond the tolerance unless --report-only is set.

Set TRACKDOWN_SPANS=1 to stream span timings to stderr."
    );
    ExitCode::from(2)
}

/// Boolean flags: present or absent, no value.
const BOOL_FLAGS: &[&str] = &[
    "--measured",
    "--cold",
    "--delta",
    "--metrics-deterministic",
    "--report-only",
];

/// Flags that take one value. Every command reads a subset of these; a
/// flag on neither list is rejected, so a typo or a flag left over from
/// an older release fails loudly instead of being ignored.
const VALUE_FLAGS: &[&str] = &[
    "--attacker",
    "--baseline",
    "--config",
    "--current",
    "--dataset",
    "--defense",
    "--format",
    "--manifest",
    "--metrics-out",
    "--out",
    "--scale",
    "--seed",
    "--threads",
    "--tolerance",
    "--trace-out",
    "--volume",
];

/// Minimal flag parser: returns (flags with values, boolean flags).
struct Args {
    values: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut values = Vec::new();
        let mut flags = Vec::new();
        let mut args = args.iter();
        while let Some(a) = args.next() {
            if BOOL_FLAGS.contains(&a.as_str()) {
                flags.push(a.clone());
            } else if VALUE_FLAGS.contains(&a.as_str()) {
                let v = args.next().ok_or_else(|| format!("{a} needs a value"))?;
                values.push((a.clone(), v.clone()));
            } else if a.starts_with("--") {
                return Err(format!("unknown flag {a}"));
            } else {
                return Err(format!("unexpected argument {a:?}"));
            }
        }
        Ok(Args { values, flags })
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

    fn has(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    fn options(&self) -> Result<Options, String> {
        let mut opts = Options::default();
        let bad = |flag: &str, v: &str| format!("bad {flag} value: {v}");
        if let Some(s) = self.get("--scale") {
            opts.scale = Scale::parse(s).ok_or_else(|| bad("--scale", s))?;
        }
        if let Some(s) = self.get("--seed") {
            opts.seed = s.parse().map_err(|_| bad("--seed", s))?;
        }
        opts.measured = self.has("--measured");
        opts.mode = parse_mode(self.has("--cold"), self.has("--delta"))?;
        if let Some(s) = self.get("--threads") {
            opts.threads = Some(
                s.parse()
                    .ok()
                    .filter(|&v| v >= 1)
                    .ok_or_else(|| bad("--threads", s))?,
            );
        }
        opts.metrics_out = self.get("--metrics-out").map(str::to_string);
        opts.metrics_deterministic = self.has("--metrics-deterministic");
        for d in self.get_all("--defense") {
            opts.defenses
                .push(parse_defense(d).ok_or_else(|| bad("--defense", d))?);
        }
        Ok(opts)
    }
}

fn cmd_topology(args: &Args) -> Result<(), String> {
    let opts = args.options()?;
    let scenario = Scenario::build(opts);
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
    let opts = args.options()?;
    let out_path = args.get("--out").ok_or("campaign requires --out FILE")?;
    let scenario = Scenario::build(opts);
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

/// Stable schema of `BENCH_pipeline.json` (see DESIGN.md §Observability).
#[derive(serde::Serialize)]
struct BenchSnapshot {
    schema: u64,
    bench: String,
    scale: String,
    seed: u64,
    ases: usize,
    configs: usize,
    warm_ms: f64,
    cold_ms: f64,
    speedup: f64,
    /// Delta-mode campaign wall-clock over the same small-arm workload
    /// (best of 5, ms) — schema 5. Equality against the cold oracle is
    /// checked before any timing; CI gates `delta_ms < warm_ms`.
    delta_ms: f64,
    /// Propagation events (per-AS decide/export activations) summed over
    /// the warm campaign's deployed epochs — deterministic for the fixed
    /// workload, so it is part of the snapshot's stable keys.
    warm_events: u64,
    /// Propagation events summed over the delta campaign's deployed
    /// epochs. The diff seeding + rank scheduling + activation pruning
    /// exist precisely to shrink this number.
    delta_events: u64,
    /// `warm_events / delta_events` — the delta engine's speedup in its
    /// unit of convergence work, gated ≥ 1.5 in CI. Event counts rather
    /// than wall-clock because the dominant *per-change* cost (export
    /// offer construction and path interning for genuinely moved routes)
    /// is identical in both modes, so wall-clock ratios on a few-ms arm
    /// mostly measure that shared work plus scheduler noise; the event
    /// ratio is deterministic, hardware-independent, and collapses
    /// immediately if diff seeding or frontier pruning regress. The
    /// wall-clock claim (`delta_ms < warm_ms`) is gated separately.
    delta_speedup: f64,
    /// Net best-route disturbance summed over the delta campaign's
    /// deployed epochs (the workload delta mode is proportional to).
    delta_routes_disturbed: u64,
    propagations: u64,
    memo_hits: u64,
    cold_restarts: u64,
    mean_cluster_size: f64,
    /// High-water node count of the interned path arena (max over workers).
    peak_arena_nodes: u64,
    /// Heap allocations per epoch during one timed warm campaign, counted
    /// by this binary's global allocator. Covers the whole campaign loop
    /// (snapshots, records), not just the propagation core.
    allocs_per_epoch: f64,
    /// Memo hits over a doubled schedule — the seed-7 schedule itself has
    /// no duplicate configs, so `memo_hits` above is legitimately zero;
    /// this pass proves the memo path still fires.
    memo_exercise_hits: u64,
    /// Tracked sources in the synthetic attribution workload (schema 3).
    attribution_sources: u64,
    /// Configurations in the synthetic attribution workload.
    attribution_configs: u64,
    /// Indexed/incremental arm: rank + estimate + per-source cluster-size
    /// lookups on the synthetic partition (best of 2, ms).
    attribution_indexed_ms: f64,
    /// Scan-based reference arm over the same workload and inputs.
    attribution_scan_ms: f64,
    /// `attribution_scan_ms / attribution_indexed_ms` — gated ≥ 5.0 in CI.
    attribution_speedup: f64,
    /// Flows streamed per configuration in the streaming arm (schema 9;
    /// `sketch_flows` before): the few hundred active sources of the
    /// 50k-source workload — the few-source regime amplification attacks
    /// live in (AmpPot, §I).
    stream_flows: u64,
    /// Building the exact dense link-volume matrix for the same attack —
    /// a full 50k-source catchment rescan per configuration (best of 2,
    /// ms). This is what the streaming path replaces.
    exact_ingest_ms: f64,
    /// Clearing the exact streaming accumulator and ingesting the flows
    /// across all configurations (best of 2, ms).
    stream_ingest_ms: f64,
    /// `exact_ingest_ms / stream_ingest_ms` — gated ≥ 3.0 in CI. Row
    /// equality with the rescan and an equal suspect ranking are checked
    /// before any timing.
    stream_ingest_speedup: f64,
    /// Logical cores available to the benching machine (schema 4). The
    /// thread-speedup CI gate scales its floor with this; the value itself
    /// is machine-dependent and excluded from snapshot comparisons.
    cores: u64,
    /// ASes in the schema-4 `large` arm's power-law topology.
    large_ases: u64,
    /// Tracked sources (baseline anycast coverage) in the large arm.
    large_tracked: u64,
    /// Configurations in the large arm's trimmed schedule.
    large_configs: u64,
    /// Large campaign wall-clock with 1 worker thread (ms).
    large_1t_ms: f64,
    /// Large campaign wall-clock with 8 worker threads (ms).
    large_8t_ms: f64,
    /// `large_1t_ms / large_8t_ms` (schema 8; `large_shard_speedup`
    /// before) — CI gates this against a core-count-adaptive floor (3.0
    /// on ≥ 8-core machines).
    large_thread_speedup: f64,
    /// ASes in the schema-6 `internet` arm's 80k power-law topology.
    internet_ases: u64,
    /// Tracked sources (baseline anycast coverage) in the internet arm.
    internet_tracked: u64,
    /// Configurations in the internet arm's trimmed schedule.
    internet_configs: u64,
    /// Internet campaign wall-clock with 1 worker thread (ms).
    internet_1t_ms: f64,
    /// Internet campaign wall-clock with 8 worker threads (ms).
    internet_8t_ms: f64,
    /// `internet_1t_ms / internet_8t_ms` — CI gates this with the same
    /// core-count-adaptive floor as the large arm (SKIP on 1 core).
    internet_thread_speedup: f64,
}

/// A paper-scale bench arm: the given power-law scenario on a
/// Gao-Rexford-clean engine, run through the campaign executor with 8
/// and with 1 worker thread. Correctness first — the two campaigns must
/// be identical, or the snapshot aborts before any timing is reported —
/// then the 1-thread vs 8-thread wall-clock the CI speedup gate reads.
fn bench_scale_arm(scale: Scale) -> Result<(u64, u64, u64, f64, f64), String> {
    let scenario = Scenario::build(Options {
        scale,
        seed: 7,
        ..Options::default()
    });
    let engine_cfg = trackdown_bgp::EngineConfig {
        policy: trackdown_bgp::PolicyConfig {
            violator_fraction: 0.0,
            ..scenario.engine_cfg.policy.clone()
        },
        ..scenario.engine_cfg.clone()
    };
    let engine = trackdown_bgp::BgpEngine::new(&scenario.gen.topology, &engine_cfg);
    let schedule = scenario.schedule();
    let run = |threads: usize| {
        let opts = CampaignOpts {
            threads,
            max_events_factor: scenario.engine_cfg.max_events_factor,
            ..CampaignOpts::default()
        };
        let t = std::time::Instant::now();
        let campaign =
            run_campaign(&engine, &scenario.origin, &schedule, &opts).map_err(|e| e.to_string())?;
        Ok::<_, String>((campaign, t.elapsed().as_secs_f64() * 1e3))
    };
    let (eight, t8) = run(8)?;
    let (one, t1) = run(1)?;
    if eight.catchments != one.catchments
        || eight.tracked != one.tracked
        || eight.clustering.clusters() != one.clustering.clusters()
        || eight.records != one.records
    {
        return Err(format!(
            "1-thread/8-thread {} campaigns diverged; bench snapshot aborted",
            scale.label()
        ));
    }
    Ok((
        scenario.gen.topology.num_ases() as u64,
        one.tracked.len() as u64,
        schedule.len() as u64,
        t1,
        t8,
    ))
}

/// What the synthetic 50k-source attribution workload measured: the
/// schema-3 indexed-vs-scan arms plus the streaming-ingest arms.
struct AttributionArms {
    sources: u64,
    configs: u64,
    indexed_ms: f64,
    scan_ms: f64,
    stream_flows: u64,
    exact_ingest_ms: f64,
    stream_ingest_ms: f64,
}

/// The schema-3 attribution workload: a 50k-source synthetic partition
/// (deterministic LCG catchments, a few active attackers), timed through
/// the indexed attribution plane and through the scan-based references it
/// replaced. Both arms produce byte-identical suspect/estimate output —
/// checked before timing — so the ratio is pure mechanism. The same
/// partition then carries the streaming arm: the dense matrix rescan vs
/// flow ingest into exact streaming counters.
fn bench_attribution_arms() -> Result<AttributionArms, String> {
    use trackdown_core::localize::{
        estimate_cluster_volumes, estimate_cluster_volumes_rescan, link_volume_matrix,
        rank_suspects, rank_suspects_acc, rank_suspects_rescan, AttributionIndex, CampaignStats,
    };
    use trackdown_topology::AsIndex;
    use trackdown_traffic::{ingest_stream, BatchedDenseAccumulator, VolumeAccumulator as _};

    const SOURCES: usize = 50_000;
    const CONFIGS: usize = 24;
    const LINKS: u8 = 8;
    const GROUPS: usize = 2_000;
    // Deterministic LCG: same partition on every run.
    let mut state = 0x853C_49E6_748F_EA9Bu64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    // Sources route in co-routed groups (stubs sharing transit), the shape
    // real campaigns converge to: the partition settles at ~GROUPS
    // clusters of ~25 sources instead of 50k singletons.
    let group_of: Vec<usize> = (0..SOURCES).map(|_| next() as usize % GROUPS).collect();
    let catchments: Vec<trackdown_bgp::Catchments> = (0..CONFIGS)
        .map(|_| {
            let group_link: Vec<Option<trackdown_bgp::LinkId>> = (0..GROUPS)
                .map(|_| {
                    let v = next();
                    if v % 16 == 0 {
                        None
                    } else {
                        Some(trackdown_bgp::LinkId((v % LINKS as u32) as u8))
                    }
                })
                .collect();
            let mut c = trackdown_bgp::Catchments::unassigned(SOURCES);
            for i in 0..SOURCES {
                c.set(AsIndex(i as u32), group_link[group_of[i]]);
            }
            c
        })
        .collect();
    let tracked: Vec<AsIndex> = (0..SOURCES as u32).map(AsIndex).collect();
    let (clustering, attribution) = AttributionIndex::build(tracked.clone(), &catchments);
    let campaign = Campaign {
        configs: Vec::new(),
        catchments,
        tracked,
        clustering,
        attribution,
        records: Vec::new(),
        imputation: None,
        stats: CampaignStats::default(),
    };
    let mut volume_per_as = vec![0u64; SOURCES];
    for (i, v) in [
        (SOURCES / 7, 1_000_000u64),
        (SOURCES / 2, 2_000_000),
        (5 * SOURCES / 6, 3_000_000),
    ] {
        volume_per_as[i] = v;
    }
    let vols = link_volume_matrix(&campaign, &volume_per_as);
    // Per-source size lookups on a 1/8 sample: the full scan sweep is
    // ~5e9 operations and would dominate CI wall-clock for no signal.
    let sample: Vec<AsIndex> = campaign.tracked.iter().copied().step_by(8).collect();

    let run_indexed = || {
        let s = rank_suspects(&campaign, &vols);
        let e = estimate_cluster_volumes(&campaign, &vols, 10);
        let sz: usize = sample
            .iter()
            .filter_map(|&a| campaign.clustering.cluster_size_of(a))
            .sum();
        (s, e, sz)
    };
    let run_scan = || {
        let s = rank_suspects_rescan(&campaign, &vols);
        let e = estimate_cluster_volumes_rescan(&campaign, &vols, 10);
        let sz: usize = sample
            .iter()
            .filter_map(|&a| campaign.clustering.cluster_size_of_scan(a))
            .sum();
        (s, e, sz)
    };
    if run_indexed() != run_scan() {
        return Err("indexed/scan attribution diverged; bench snapshot aborted".into());
    }
    let time_ms = |f: &dyn Fn() -> usize| {
        let mut best = f64::INFINITY;
        for _ in 0..2 {
            let t = std::time::Instant::now();
            std::hint::black_box(f());
            best = best.min(t.elapsed().as_secs_f64() * 1e3);
        }
        best
    };
    let indexed_ms = time_ms(&|| run_indexed().2);
    let scan_ms = time_ms(&|| run_scan().2);

    // --- Streaming arm -------------------------------------------------
    // The same partition, but the attack arrives as flows from a few
    // hundred active sources (1-in-200 of the 50k — the few-source regime
    // amplification attacks live in; AmpPot-style measurements put most
    // reflection campaigns well under a thousand origins). The rescan
    // must visit every tracked source per configuration to build its
    // dense rows; streaming ingest only touches the flows it is fed.
    let mut flow_volume = vec![0u64; SOURCES];
    for v in flow_volume.iter_mut() {
        let r = next();
        if r % 200 == 0 {
            *v = 64 * (1 + (r % 997) as u64);
        }
    }
    let flows: Vec<trackdown_traffic::Flow> = flow_volume
        .iter()
        .enumerate()
        .filter(|(_, &v)| v > 0)
        .map(|(i, &v)| trackdown_traffic::Flow {
            src_as: AsIndex(i as u32),
            claimed_ip: 0xCB00_7101,
            dst_ip: 0xCB00_7201,
            packets: v / 64,
            bytes: v,
            spoofed: true,
        })
        .collect();
    let build_exact = || link_volume_matrix(&campaign, &flow_volume);
    // Steady state for the streaming arm: a line-rate box allocates the
    // counters once and recycles them between observation windows, so the
    // timed work is clear + ingest, not allocation.
    let reused = std::cell::RefCell::new(BatchedDenseAccumulator::new(
        CONFIGS,
        campaign.attribution.num_links(),
    ));
    let stream = || {
        let mut acc = reused.borrow_mut();
        acc.clear();
        for (c, cat) in campaign.catchments.iter().enumerate() {
            ingest_stream(
                &mut *acc,
                c,
                cat,
                &flows,
                trackdown_traffic::DEFAULT_FLOW_BATCH,
            );
        }
        acc.num_links()
    };
    // Equality before timing claims: the streamed rows must equal the
    // rescan bit for bit, and so must the suspect ranking read from them.
    let exact_rows = build_exact();
    stream();
    if reused.borrow().dense_rows() != exact_rows {
        return Err(
            "streamed rows diverged from link_volume_matrix; bench snapshot aborted".into(),
        );
    }
    if rank_suspects_acc(&campaign, &*reused.borrow()).suspects
        != rank_suspects(&campaign, &exact_rows)
    {
        return Err("streamed suspect ranking diverged; bench snapshot aborted".into());
    }
    let exact_ingest_ms = time_ms(&|| build_exact()[0][0] as usize);
    let stream_ingest_ms = time_ms(&stream);

    Ok(AttributionArms {
        sources: SOURCES as u64,
        configs: CONFIGS as u64,
        indexed_ms,
        scan_ms,
        stream_flows: flows.len() as u64,
        exact_ingest_ms,
        stream_ingest_ms,
    })
}

/// Run the full fixed benchmark workload and return the snapshot. The
/// workload is shared by `bench-snapshot` (writes it) and `perf-report`
/// without `--current` (diffs it against a committed baseline).
fn bench_snapshot() -> Result<BenchSnapshot, String> {
    // Fixed workload so snapshots are comparable across commits: the
    // small scale at seed 7 (the campaign the verify recipe drives), on
    // a Gao-Rexford-clean engine — with policy violators the session
    // cold-starts every epoch by design and there is nothing to bench.
    let scenario = Scenario::build(Options {
        scale: Scale::Small,
        seed: 7,
        ..Options::default()
    });
    let engine_cfg = trackdown_bgp::EngineConfig {
        policy: trackdown_bgp::PolicyConfig {
            violator_fraction: 0.0,
            ..scenario.engine_cfg.policy.clone()
        },
        ..scenario.engine_cfg.clone()
    };
    let engine = trackdown_bgp::BgpEngine::new(&scenario.gen.topology, &engine_cfg);
    let schedule = scenario.schedule();
    let run = |mode: CampaignMode| {
        let t = std::time::Instant::now();
        let opts = CampaignOpts {
            mode,
            max_events_factor: scenario.engine_cfg.max_events_factor,
            ..CampaignOpts::default()
        };
        let campaign = run_campaign(&engine, &scenario.origin, &schedule, &opts)
            .expect("generated schedules are valid");
        (campaign, t.elapsed().as_secs_f64() * 1e3)
    };
    // Untimed warm-up pass, then best-of-5 per arm, rounds interleaved
    // warm/cold/delta so correlated machine-load shifts hit every arm:
    // minima are robust to scheduler noise at this (few-ms) workload size.
    let _ = run(CampaignMode::Warm);
    let (mut warm, mut warm_ms) = run(CampaignMode::Warm);
    let (mut cold, mut cold_ms) = run(CampaignMode::Cold);
    let (mut delta, mut delta_ms) = run(CampaignMode::Delta);
    for _ in 0..4 {
        let (w, wms) = run(CampaignMode::Warm);
        if wms < warm_ms {
            (warm, warm_ms) = (w, wms);
        }
        let (c, cms) = run(CampaignMode::Cold);
        if cms < cold_ms {
            (cold, cold_ms) = (c, cms);
        }
        let (d, dms) = run(CampaignMode::Delta);
        if dms < delta_ms {
            (delta, delta_ms) = (d, dms);
        }
    }
    if warm.catchments != cold.catchments {
        return Err("warm/cold campaigns diverged; bench snapshot aborted".into());
    }
    // Equality before timing claims: the delta engine must reproduce the
    // cold oracle exactly (catchments, tracked set, clustering, records).
    if delta.catchments != cold.catchments
        || delta.tracked != cold.tracked
        || delta.clustering.clusters() != cold.clustering.clusters()
        || delta.records != cold.records
    {
        return Err("delta/cold campaigns diverged; bench snapshot aborted".into());
    }

    // Allocation census: one dedicated warm pass with the counter read
    // around it. Counts are deterministic enough per-run that best-of-N
    // would be redundant.
    let allocs_before = allocations();
    let (_, _) = run(CampaignMode::Warm);
    let allocs_warm = allocations() - allocs_before;
    let allocs_per_epoch = ((allocs_warm as f64 / warm.configs.len() as f64) * 1e2).round() / 1e2;

    // Memo exercise: every config in the second half of a doubled schedule
    // must hit the footprint memo.
    let mut doubled = schedule.clone();
    doubled.extend(schedule.iter().cloned());
    let memo_opts = CampaignOpts {
        max_events_factor: scenario.engine_cfg.max_events_factor,
        ..CampaignOpts::default()
    };
    let memo_run =
        run_campaign(&engine, &scenario.origin, &doubled, &memo_opts).map_err(|e| e.to_string())?;
    if memo_run.stats.memo_hits != schedule.len() {
        return Err(format!(
            "memo exercise expected {} hits, got {}; bench snapshot aborted",
            schedule.len(),
            memo_run.stats.memo_hits
        ));
    }

    let arms = bench_attribution_arms()?;

    let (large_ases, large_tracked, large_configs, large_1t_ms, large_8t_ms) =
        bench_scale_arm(Scale::Large)?;
    let (internet_ases, internet_tracked, internet_configs, internet_1t_ms, internet_8t_ms) =
        bench_scale_arm(Scale::Internet)?;
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1) as u64;

    let snap = BenchSnapshot {
        schema: 9,
        bench: "pipeline".into(),
        scale: "small".into(),
        seed: 7,
        ases: scenario.gen.topology.num_ases(),
        configs: warm.configs.len(),
        warm_ms: (warm_ms * 1e3).round() / 1e3,
        cold_ms: (cold_ms * 1e3).round() / 1e3,
        speedup: ((cold_ms / warm_ms) * 1e3).round() / 1e3,
        delta_ms: (delta_ms * 1e3).round() / 1e3,
        warm_events: warm.stats.events as u64,
        delta_events: delta.stats.events as u64,
        delta_speedup: ((warm.stats.events as f64 / delta.stats.events as f64) * 1e3).round() / 1e3,
        delta_routes_disturbed: delta.stats.routes_disturbed as u64,
        propagations: warm.stats.propagations as u64,
        memo_hits: warm.stats.memo_hits as u64,
        cold_restarts: warm.stats.cold_restarts as u64,
        mean_cluster_size: warm.clustering.mean_size(),
        peak_arena_nodes: warm.stats.peak_arena_nodes as u64,
        allocs_per_epoch,
        memo_exercise_hits: memo_run.stats.memo_hits as u64,
        attribution_sources: arms.sources,
        attribution_configs: arms.configs,
        attribution_indexed_ms: (arms.indexed_ms * 1e3).round() / 1e3,
        attribution_scan_ms: (arms.scan_ms * 1e3).round() / 1e3,
        attribution_speedup: ((arms.scan_ms / arms.indexed_ms) * 1e3).round() / 1e3,
        stream_flows: arms.stream_flows,
        exact_ingest_ms: (arms.exact_ingest_ms * 1e3).round() / 1e3,
        stream_ingest_ms: (arms.stream_ingest_ms * 1e3).round() / 1e3,
        stream_ingest_speedup: ((arms.exact_ingest_ms / arms.stream_ingest_ms) * 1e3).round() / 1e3,
        cores,
        large_ases,
        large_tracked,
        large_configs,
        large_1t_ms: (large_1t_ms * 1e3).round() / 1e3,
        large_8t_ms: (large_8t_ms * 1e3).round() / 1e3,
        large_thread_speedup: ((large_1t_ms / large_8t_ms) * 1e3).round() / 1e3,
        internet_ases,
        internet_tracked,
        internet_configs,
        internet_1t_ms: (internet_1t_ms * 1e3).round() / 1e3,
        internet_8t_ms: (internet_8t_ms * 1e3).round() / 1e3,
        internet_thread_speedup: ((internet_1t_ms / internet_8t_ms) * 1e3).round() / 1e3,
    };
    Ok(snap)
}

fn cmd_bench_snapshot(args: &Args) -> Result<(), String> {
    let out_path = args.get("--out").unwrap_or("BENCH_pipeline.json");
    let snap = bench_snapshot()?;
    let json = serde_json::to_string_pretty(&snap).map_err(|e| e.to_string())?;
    fs::write(out_path, json + "\n").map_err(|e| format!("write {out_path}: {e}"))?;
    println!(
        "wrote {out_path} (warm {:.1} ms, cold {:.1} ms, speedup {:.2}x; \
         delta {:.1} ms, {:.2}x fewer events than warm; \
         attribution indexed {:.1} ms vs scan {:.1} ms, {:.1}x; \
         stream ingest {:.2} ms vs exact {:.2} ms, {:.1}x on {} flows; \
         large {} ASes/{} tracked 1t {:.0} ms vs 8t {:.0} ms, {:.2}x; \
         internet {} ASes/{} tracked 1t {:.0} ms vs 8t {:.0} ms, {:.2}x \
         on {} cores)",
        snap.warm_ms,
        snap.cold_ms,
        snap.speedup,
        snap.delta_ms,
        snap.delta_speedup,
        snap.attribution_indexed_ms,
        snap.attribution_scan_ms,
        snap.attribution_speedup,
        snap.stream_ingest_ms,
        snap.exact_ingest_ms,
        snap.stream_ingest_speedup,
        snap.stream_flows,
        snap.large_ases,
        snap.large_tracked,
        snap.large_1t_ms,
        snap.large_8t_ms,
        snap.large_thread_speedup,
        snap.internet_ases,
        snap.internet_tracked,
        snap.internet_1t_ms,
        snap.internet_8t_ms,
        snap.internet_thread_speedup,
        snap.cores
    );
    Ok(())
}

/// `trackdown profile`: run one campaign (any preset the `campaign`
/// command accepts) with structured tracing on, write the Chrome
/// trace-event JSON, and print the self-profile summary — per-phase
/// exclusive/inclusive time and per-worker utilization.
fn cmd_profile(args: &Args) -> Result<(), String> {
    let opts = args.options()?;
    let trace_out = args.get("--trace-out").unwrap_or("trace.json").to_string();
    let scenario = Scenario::build(opts);
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
        "mode={} cold_epochs={}/{} over {} worker(s); wrote {trace_out} ({} events) — \
         load it at https://ui.perfetto.dev or chrome://tracing",
        mode_label(campaign.stats.mode),
        campaign.stats.cold_epochs,
        campaign.stats.propagations,
        campaign.stats.threads,
        trace.events.len()
    );
    Ok(())
}

/// `trackdown perf-report`: diff two `BENCH_pipeline.json` snapshots —
/// or the committed baseline against a freshly-benched current — and
/// flag per-metric regressions beyond the tolerance.
fn cmd_perf_report(args: &Args) -> Result<(), String> {
    let baseline_path = args.get("--baseline").unwrap_or("BENCH_pipeline.json");
    let tolerance: f64 = args
        .get("--tolerance")
        .map(|v| v.parse().map_err(|_| "bad --tolerance"))
        .transpose()?
        .unwrap_or(10.0);
    let baseline_text =
        fs::read_to_string(baseline_path).map_err(|e| format!("read {baseline_path}: {e}"))?;
    let baseline: serde::Value =
        serde_json::from_str(&baseline_text).map_err(|e| format!("{baseline_path}: {e}"))?;
    let (current, current_label) = match args.get("--current") {
        Some(path) => {
            let text = fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
            (
                serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?,
                path.to_string(),
            )
        }
        None => {
            eprintln!("# no --current given; benching a fresh snapshot (takes a minute)");
            let snap = bench_snapshot()?;
            (
                serde_json::to_value(&snap).map_err(|e| e.to_string())?,
                "fresh bench".to_string(),
            )
        }
    };
    let report = trackdown_obs::diff_bench_snapshots(&baseline, &current, tolerance);
    let markdown = report.render_markdown();
    match args.get("--out") {
        Some(path) => {
            fs::write(path, &markdown).map_err(|e| format!("write {path}: {e}"))?;
            println!("wrote {path}");
        }
        None => print!("{markdown}"),
    }
    let regressions = report.regressions();
    if regressions.is_empty() {
        println!("no regressions vs {baseline_path} (tolerance {tolerance}%)");
        Ok(())
    } else if args.has("--report-only") {
        println!(
            "{} regression(s) vs {baseline_path} ({current_label}); --report-only set, not failing",
            regressions.len()
        );
        Ok(())
    } else {
        Err(format!(
            "{} metric(s) regressed beyond {tolerance}% vs {baseline_path}: {}",
            regressions.len(),
            regressions
                .iter()
                .map(|r| r.key.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        ))
    }
}

fn cmd_validate_manifest(args: &Args) -> Result<(), String> {
    let path = args.get("--manifest").ok_or("missing --manifest FILE")?;
    let text = fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let summary = trackdown_obs::validate_manifest(&text).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "{path}: valid manifest — {} epochs ({} warm, {} delta, {} cold, {} memo), \
         schedule_len {}, deterministic {}",
        summary.epochs,
        summary.warm,
        summary.delta,
        summary.cold,
        summary.memo,
        summary.schedule_len,
        summary.deterministic
    );
    Ok(())
}

fn main() -> ExitCode {
    trackdown_obs::init_spans_from_env();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        return usage();
    };
    if matches!(cmd.as_str(), "--help" | "-h" | "help") {
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
        "bench-snapshot" => cmd_bench_snapshot(&args),
        "validate-manifest" => cmd_validate_manifest(&args),
        "profile" => cmd_profile(&args),
        "perf-report" => cmd_perf_report(&args),
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
        assert_eq!(a.get("--scale"), Some("small"));
        assert_eq!(a.get("--seed"), Some("9"));
        assert_eq!(a.get("--out"), Some("x.json"));
        assert!(a.has("--measured"));
        let opts = a.options().unwrap();
        assert_eq!(opts.seed, 9);
        assert!(opts.measured);
        assert_eq!(opts.mode, trackdown_core::localize::CampaignMode::Warm);
        let delta = Args::parse(&argv(&["--delta"])).unwrap().options().unwrap();
        assert_eq!(delta.mode, trackdown_core::localize::CampaignMode::Delta);
    }

    #[test]
    fn args_reject_malformed() {
        assert!(Args::parse(&argv(&["positional"])).is_err());
        let err = Args::parse(&argv(&["--out"])).err().unwrap(); // missing value
        assert!(err.contains("--out"), "{err}");
        let a = Args::parse(&argv(&["--scale", "bogus"])).unwrap();
        assert!(a.options().is_err());
        let a = Args::parse(&argv(&["--cold", "--delta"])).unwrap();
        let err = a.options().unwrap_err();
        assert!(err.contains("exclusive"), "{err}");
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
        // Every flag a command reads is on exactly one of the lists.
        for flag in BOOL_FLAGS {
            assert!(!VALUE_FLAGS.contains(flag), "{flag} on both lists");
            assert!(Args::parse(&argv(&[flag])).unwrap().has(flag));
        }
        for flag in VALUE_FLAGS {
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
            "--seed",
            "1",
            "--seed",
            "2",
        ]))
        .unwrap();
        assert_eq!(a.get_all("--attacker"), vec!["AS1", "AS2"]);
        assert_eq!(a.get("--seed"), Some("2"));
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
