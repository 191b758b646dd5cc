//! The `attack_stream` workload: line-rate attribution of a spoofing
//! attack from a partial-SAV pocket of stub ASes.
//!
//! Set-up runs one control-plane campaign and places the spoofing hosts
//! Pareto 80/20 (§V-D) over a seeded 20% pocket of stubs, the shape of
//! `scenarios::partial_sav`. Every host sends one flow record per
//! observation window, and there is one window per configuration. A timed
//! pass clears one exact accumulator, ingests every window, then ranks
//! suspects and estimates cluster volumes from it: ingest writes and
//! attribution reads share the accumulator, so a gain for one that costs
//! the other shows.

use crate::alloc::allocations;
use crate::metrics::{ms_since, Layers};
use crate::stats::median;
use crate::workload::{gap_pct, scenario, set_up, trace_topology, Report, RunConfig};
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;
use std::time::Instant;
use trackdown_core::localize::{
    estimate_cluster_volumes, estimate_cluster_volumes_acc, link_volume_matrix, rank_suspects,
    rank_suspects_acc, Campaign, SuspectCluster, VolumeEstimate,
};
use trackdown_experiments::{Scale, Scenario};
use trackdown_obs::{Trace, TraceConfig};
use trackdown_topology::AsIndex;
use trackdown_traffic::{
    ingest_stream, pareto_shape_80_20, place_sources, BatchedDenseAccumulator, Flow,
    HoneypotConfig, SourcePlacement, VolumeAccumulator, DEFAULT_FLOW_BATCH,
};

/// Interval-propagation rounds for volume estimation (as `partial-sav`).
const ESTIMATE_ROUNDS: usize = 10;

/// Spoofing hosts: 200,000 at paper and Internet scale (102.2M flow
/// records per pass over 511 windows), a tenth of that for smoke runs.
fn hosts(scale: Scale) -> usize {
    match scale {
        Scale::Small | Scale::Medium => 20_000,
        _ => 200_000,
    }
}

/// The attack's inputs.
pub(crate) struct AttackInput {
    pub scenario: Scenario,
    pub campaign: Campaign,
    /// ASes hosting at least one spoofing host.
    pub spoofing: Vec<AsIndex>,
    /// One flow record per host, in arrival order.
    pub flows: Vec<Flow>,
    /// Spoofed bytes per AS (what every window's flows sum to).
    pub volume_per_as: Vec<u64>,
}

impl AttackInput {
    pub(crate) fn build(scenario: Scenario, hosts: usize, seed: u64) -> AttackInput {
        let campaign = scenario.run_recorded(None);
        let topo = &scenario.gen.topology;
        let n = topo.num_ases();

        // The spoof-capable pocket: a seeded 20% of stubs (at least one),
        // drawn exactly as `scenarios::partial_sav` draws it.
        let mut pool: Vec<AsIndex> = scenario
            .gen
            .stubs
            .iter()
            .filter_map(|&asn| topo.index_of(asn))
            .collect();
        assert!(!pool.is_empty(), "topology has no stub ASes");
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0005_AF0D);
        let take = (pool.len() / 5).max(1);
        let mut pocket = Vec::with_capacity(take);
        for _ in 0..take {
            let k = rng.random_range(0..pool.len());
            pocket.push(pool.swap_remove(k));
        }
        pocket.sort_unstable();

        let placed = place_sources(
            n,
            &pocket,
            SourcePlacement::Pareto {
                total: hosts,
                alpha: pareto_shape_80_20(),
            },
            seed ^ 0xB0B,
        );
        let dst_ip = HoneypotConfig::default().prefix.addr(1);
        let victim_ip = u32::from_be_bytes([203, 0, 113, 50]);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xF10E);
        let mut flows = Vec::with_capacity(hosts);
        let mut volume_per_as = vec![0u64; n];
        for src in placed.source_ases() {
            for _ in 0..placed.counts[src.us()] {
                let packets = rng.random_range(1..=64u64);
                let bytes = packets * 64;
                volume_per_as[src.us()] += bytes;
                flows.push(Flow {
                    src_as: src,
                    claimed_ip: victim_ip,
                    dst_ip,
                    packets,
                    bytes,
                    spoofed: true,
                });
            }
        }
        // Records from different hosts interleave on the wire.
        for i in (1..flows.len()).rev() {
            let j = rng.random_range(0..=i);
            flows.swap(i, j);
        }
        AttackInput {
            spoofing: placed.source_ases().collect(),
            scenario,
            campaign,
            flows,
            volume_per_as,
        }
    }

    fn windows(&self) -> usize {
        self.campaign.catchments.len()
    }

    fn accumulator(&self) -> BatchedDenseAccumulator {
        BatchedDenseAccumulator::new(self.windows(), self.campaign.attribution.num_links())
    }

    /// Rank suspects and estimate cluster volumes from the accumulator.
    fn localize(
        &self,
        acc: &BatchedDenseAccumulator,
    ) -> (Vec<SuspectCluster>, Vec<VolumeEstimate>) {
        let ranked = rank_suspects_acc(&self.campaign, acc);
        let estimates = estimate_cluster_volumes_acc(&self.campaign, acc, ESTIMATE_ROUNDS);
        (ranked.suspects, estimates)
    }

    /// Clear the accumulator and ingest every window's flow records.
    fn ingest(&self, acc: &mut BatchedDenseAccumulator) {
        acc.clear();
        for (window, cat) in self.campaign.catchments.iter().enumerate() {
            ingest_stream(acc, window, cat, &self.flows, DEFAULT_FLOW_BATCH);
        }
    }
}

/// The expected outputs, from the dense per-source path.
pub(crate) struct AttackReference {
    pub rows: Vec<Vec<u64>>,
    pub suspects: Vec<SuspectCluster>,
    pub estimates: Vec<VolumeEstimate>,
}

impl AttackReference {
    pub(crate) fn of(input: &AttackInput) -> AttackReference {
        let rows = link_volume_matrix(&input.campaign, &input.volume_per_as);
        AttackReference {
            suspects: rank_suspects(&input.campaign, &rows),
            estimates: estimate_cluster_volumes(&input.campaign, &rows, ESTIMATE_ROUNDS),
            rows,
        }
    }

    /// The attack's attribution contract: no spoofing AS's cluster is
    /// exonerated, and every estimated interval holds its cluster's true
    /// volume, so no SAV-compliant cluster is ever proven to send.
    pub(crate) fn contract(&self, input: &AttackInput) -> Result<(), String> {
        let suspects: HashSet<usize> = self.suspects.iter().map(|s| s.cluster).collect();
        let estimated: HashSet<usize> = self.estimates.iter().map(|e| e.cluster).collect();
        let clustering = &input.campaign.clustering;
        for &a in &input.spoofing {
            if let Some(c) = clustering.cluster_of(a) {
                if !suspects.contains(&(c as usize)) || !estimated.contains(&(c as usize)) {
                    return Err(format!("spoofing AS index {} was exonerated", a.0));
                }
            }
        }
        for e in &self.estimates {
            let truth: u64 = e.members.iter().map(|m| input.volume_per_as[m.us()]).sum();
            if truth < e.lower || truth > e.upper {
                return Err(format!(
                    "cluster {} sends {truth} bytes outside its estimate [{}, {}]",
                    e.cluster, e.lower, e.upper
                ));
            }
        }
        Ok(())
    }

    /// Compare one pass's outputs with the reference.
    pub(crate) fn check(
        &self,
        acc: &BatchedDenseAccumulator,
        suspects: &[SuspectCluster],
        estimates: &[VolumeEstimate],
    ) -> Result<(), String> {
        if acc.dense_rows() != self.rows {
            return Err("ingested rows differ from link_volume_matrix".into());
        }
        if suspects != self.suspects.as_slice() {
            return Err("ranked suspects differ from the reference".into());
        }
        if estimates != self.estimates.as_slice() {
            return Err("volume estimates differ from the reference".into());
        }
        Ok(())
    }
}

pub(crate) fn run(cfg: &RunConfig, scale: Scale) -> Report {
    let (input, setup_s) =
        set_up(|| AttackInput::build(scenario(cfg, scale, false), hosts(scale), cfg.seed));
    let mut report = Report {
        setup_s,
        ..Report::default()
    };
    let reference = AttackReference::of(&input);
    if let Err(e) = reference.contract(&input) {
        report.ops.fail(format!("attack contract: {e}"));
    }
    let mut acc = input.accumulator();
    // Warm-up pass: fault in the accumulator and the flow records.
    input.ingest(&mut acc);

    let mut ingest_ms = Vec::new();
    let mut localize_ms = Vec::new();
    report.ops.timed_loop(cfg, |_| {
        let t = Instant::now();
        input.ingest(&mut acc);
        let ingested = ms_since(t);
        let (suspects, estimates) = input.localize(&acc);
        let total = ms_since(t);
        reference.check(&acc, &suspects, &estimates)?;
        ingest_ms.push(ingested);
        localize_ms.push(total - ingested);
        Ok(total)
    });

    let flows_per_pass = (input.flows.len() * input.windows()) as f64;
    let mflows: Vec<f64> = ingest_ms
        .iter()
        .map(|ms| flows_per_pass / (ms * 1e3))
        .collect();
    report.info = vec![
        ("windows".into(), input.windows() as f64, "configs"),
        ("hosts".into(), input.flows.len() as f64, "count"),
        ("spoofing_ases".into(), input.spoofing.len() as f64, "ASes"),
        ("flows_per_pass".into(), flows_per_pass, "count"),
        ("ingest_mflows_per_s".into(), median(&mflows), "Mflow/s"),
        ("localize_ms".into(), median(&localize_ms), "ms"),
        (
            "suspects".into(),
            reference.suspects.len() as f64,
            "clusters",
        ),
    ];

    if cfg.trace {
        let mut layers = Layers::default();
        let traced = report.ops.attempt("traced pass", || {
            trace_topology(&input.scenario, &mut layers)?;
            traced_pass(&input, &mut acc, &reference, &mut layers)
        });
        if traced.is_some() {
            let untraced = median(&report.ops.samples_ms);
            layers.set("trace_gap_pct", gap_pct(layers.accounted_ms(), untraced));
        }
        report.layers = Some(layers);
    }
    report
}

/// One pass with each layer call timed: ingest (`traffic.*`), ranking and
/// estimation (`attr.*`), checked against the reference.
fn traced_pass(
    input: &AttackInput,
    acc: &mut BatchedDenseAccumulator,
    reference: &AttackReference,
    layers: &mut Layers,
) -> Result<(), String> {
    let campaign = &input.campaign;
    let registry = trackdown_obs::global();
    let (flows, unattributed) = (
        registry.counter("traffic.ingest.flows"),
        registry.counter("traffic.ingest.unattributed"),
    );
    let (flows0, unattributed0) = (flows.get(), unattributed.get());
    let allocs = allocations();
    layers.time("traffic.ingest_ms", || input.ingest(acc));
    layers.add("traffic.allocs", (allocations() - allocs) as f64);
    let seen = (flows.get() - flows0).max(1) as f64;
    layers.set(
        "traffic.unattributed_frac",
        (unattributed.get() - unattributed0) as f64 / seen,
    );
    layers.set(
        "traffic.ns_per_flow",
        layers.get("traffic.ingest_ms") * 1e6 / seen,
    );
    let ranked = layers.time("attr.rank_ms", || rank_suspects_acc(campaign, acc));
    let estimates = layers.time("attr.estimate_ms", || {
        estimate_cluster_volumes_acc(campaign, acc, ESTIMATE_ROUNDS)
    });
    reference.check(acc, &ranked.suspects, &estimates)?;
    layers.set("attr.suspects", ranked.suspects.len() as f64);
    layers.set("cluster.mean_size", campaign.clustering.mean_size());
    layers.set(
        "cluster.singleton_frac",
        campaign.clustering.singleton_fraction(),
    );
    Ok(())
}

/// Profile one pass through the library entry points under the obs
/// tracer, then time the same pass from outside.
pub(crate) fn profile(cfg: &RunConfig, scale: Scale) -> Result<(Trace, Layers), String> {
    let input = AttackInput::build(scenario(cfg, scale, false), hosts(scale), cfg.seed);
    let reference = AttackReference::of(&input);
    let mut acc = input.accumulator();
    input.ingest(&mut acc);
    trackdown_obs::start_trace(TraceConfig::default());
    input.ingest(&mut acc);
    let (suspects, estimates) = input.localize(&acc);
    let trace = trackdown_obs::end_trace().ok_or("the trace was not armed")?;
    reference.check(&acc, &suspects, &estimates)?;
    let mut layers = Layers::default();
    traced_pass(&input, &mut acc, &reference, &mut layers)?;
    Ok((trace, layers))
}
