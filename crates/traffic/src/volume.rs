//! Streaming volume accumulation for line-rate attribution.
//!
//! The attribution plane in `trackdown-core` correlates per-configuration,
//! per-link spoofed volumes with the campaign's clustering. Building those
//! volumes as dense rows by rescanning every tracked source per
//! configuration costs a pass over the whole AS space; this module folds
//! flows into a [`VolumeAccumulator`] as they arrive instead, and the
//! localization layer reads the counters back through the trait.
//!
//! A window's catchment is fixed, so [`ingest_stream`] resolves it once
//! into a per-AS link table (one pass over the catchment's bitset rows,
//! into a reused buffer; a window with far fewer flows than ASes resolves
//! only its flows' sources) and each flow's link is then a single table
//! load. The counters are per-(configuration, link) — the origin's PoP
//! links, a handful per window — so [`BatchedDenseAccumulator`] counts
//! every one exactly in 8 bytes.

use crate::flow::Flow;
use std::cell::Cell;
use trackdown_bgp::{Catchments, LinkId};

/// Default number of flows per streaming batch (see [`ingest_stream`]).
pub const DEFAULT_FLOW_BATCH: usize = 1024;

/// A per-configuration, per-link volume store the localization layer can
/// read in place of dense rows.
pub trait VolumeAccumulator {
    /// Number of configurations (rows) this accumulator covers.
    fn num_configs(&self) -> usize;

    /// Number of link counters per configuration (the row width).
    fn num_links(&self) -> usize;

    /// Fold `bytes` observed on `link` during configuration `config` into
    /// the store.
    ///
    /// # Panics
    /// May panic if `config >= num_configs()` or `link.us() >=
    /// num_links()` (implementations index directly).
    fn record(&mut self, config: usize, link: LinkId, bytes: u64);

    /// Read back the volume for one counter.
    fn volume(&self, config: usize, link: LinkId) -> u64;

    /// Materialize one configuration's volumes as a dense row.
    fn dense_row(&self, config: usize) -> Vec<u64> {
        (0..self.num_links())
            .map(|l| self.volume(config, LinkId::from_usize(l)))
            .collect()
    }

    /// Materialize every configuration as dense rows (the shape
    /// `link_volume_matrix` builds).
    fn dense_rows(&self) -> Vec<Vec<u64>> {
        (0..self.num_configs()).map(|c| self.dense_row(c)).collect()
    }

    /// Ingest one batch of flows observed during `config`, attributing
    /// each flow to its source AS's catchment link (see [`ingest_stream`]
    /// for which flows count as unattributed). [`ingest_stream`] with a
    /// single batch.
    fn ingest(&mut self, config: usize, catchments: &Catchments, flows: &[Flow]) {
        ingest_stream(self, config, catchments, flows, flows.len().max(1));
    }
}

/// The one attribution rule: a flow lands on its source AS's link when the
/// AS is inside the resolved table, has a link, and the link is below
/// `width` (the counter row); every other flow is unattributed.
#[inline]
pub(crate) fn attributed_link(
    links: &[Option<LinkId>],
    width: usize,
    flow: &Flow,
) -> Option<LinkId> {
    match links.get(flow.src_as.us()) {
        Some(&Some(link)) if link.us() < width => Some(link),
        _ => None,
    }
}

/// A window resolves its whole catchment once it carries at least one flow
/// per this many ASes. A full resolve writes every AS's table entry (a few
/// ns each); a per-flow `Catchments::get` probes the link rows (15–20 ns),
/// so below this density resolving only the flows' sources is cheaper.
const ASES_PER_FLOW_FOR_FULL_RESOLVE: usize = 4;

thread_local! {
    /// The per-AS link table each window's catchment is resolved into,
    /// reused across windows and calls so steady-state ingest allocates
    /// nothing.
    static LINK_TABLE: Cell<Vec<Option<LinkId>>> = const { Cell::new(Vec::new()) };
}

/// Run `f` on `catchments` resolved into this thread's reused per-AS link
/// table, `catchments.len()` long and correct at every source AS `flows`
/// names. A dense window resolves every AS ([`Catchments::fill_links`]);
/// a sparse one probes only its flows' sources, leaving the other entries
/// stale but never read. The table is taken out for the call, so a nested
/// resolve gets a fresh table instead of aliasing this one.
pub(crate) fn with_resolved<R>(
    catchments: &Catchments,
    flows: &[Flow],
    f: impl FnOnce(&[Option<LinkId>]) -> R,
) -> R {
    let mut table = LINK_TABLE.take();
    if flows.len() * ASES_PER_FLOW_FOR_FULL_RESOLVE >= catchments.len() {
        catchments.fill_links(&mut table);
    } else {
        table.resize(catchments.len(), None);
        for flow in flows {
            if let Some(slot) = table.get_mut(flow.src_as.us()) {
                *slot = catchments.get(flow.src_as);
            }
        }
    }
    let out = f(&table);
    LINK_TABLE.set(table);
    out
}

/// Stream a flow list into an accumulator in fixed-size batches — the
/// shape a line-rate deployment sees (NetFlow-style export intervals)
/// rather than one giant slice. The catchment is fixed for the window, so
/// it is resolved into a per-AS link table once per call and every flow's
/// link is one table load.
///
/// Flows whose source AS is outside the catchments or has no link, and
/// flows whose link is outside the counter row, are counted as
/// unattributed and dropped — exactly what the honeypot does with traffic
/// it cannot pin to an ingress link. The `traffic.ingest.flows` /
/// `traffic.ingest.bytes` / `traffic.ingest.unattributed` counters are
/// published once per batch.
pub fn ingest_stream<A: VolumeAccumulator + ?Sized>(
    acc: &mut A,
    config: usize,
    catchments: &Catchments,
    flows: &[Flow],
    batch: usize,
) {
    let width = acc.num_links();
    with_resolved(catchments, flows, |links| {
        for chunk in crate::flow::flow_batches(flows, batch) {
            let mut bytes = 0u64;
            let mut unattributed = 0u64;
            for f in chunk {
                bytes += f.bytes;
                match attributed_link(links, width, f) {
                    Some(link) => acc.record(config, link, f.bytes),
                    None => unattributed += 1,
                }
            }
            trackdown_obs::counter!("traffic.ingest.flows").add(chunk.len() as u64);
            trackdown_obs::counter!("traffic.ingest.bytes").add(bytes);
            trackdown_obs::counter!("traffic.ingest.unattributed").add(unattributed);
        }
    });
}

/// Exact dense per-(configuration, link) counters, one row-major
/// `num_configs × num_links` matrix.
#[derive(Debug, Clone)]
pub struct BatchedDenseAccumulator {
    num_configs: usize,
    num_links: usize,
    rows: Vec<u64>,
}

impl BatchedDenseAccumulator {
    /// A zeroed `num_configs × num_links` counter matrix.
    pub fn new(num_configs: usize, num_links: usize) -> BatchedDenseAccumulator {
        BatchedDenseAccumulator {
            num_configs,
            num_links,
            rows: vec![0; num_configs * num_links],
        }
    }

    /// Zero every counter (the between-windows reset).
    pub fn clear(&mut self) {
        self.rows.fill(0);
    }
}

impl VolumeAccumulator for BatchedDenseAccumulator {
    fn num_configs(&self) -> usize {
        self.num_configs
    }

    fn num_links(&self) -> usize {
        self.num_links
    }

    fn record(&mut self, config: usize, link: LinkId, bytes: u64) {
        self.rows[config * self.num_links + link.us()] += bytes;
    }

    fn volume(&self, config: usize, link: LinkId) -> u64 {
        self.rows[config * self.num_links + link.us()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::{Mutex, MutexGuard};
    use trackdown_topology::AsIndex;

    /// Serializes the tests that ingest: the `traffic.ingest.*` counters
    /// are process-global and the differential test compares exact deltas.
    fn ingest_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Current `(flows, bytes, unattributed)` ingest counter totals.
    fn ingest_counters() -> [u64; 3] {
        let obs = trackdown_obs::global();
        ["flows", "bytes", "unattributed"]
            .map(|k| obs.counter(&format!("traffic.ingest.{k}")).get())
    }

    fn catchments(n: usize, links: usize) -> Catchments {
        let mut c = Catchments::unassigned(n);
        for i in 0..n {
            let link = if i % 7 == 6 {
                None
            } else {
                Some(LinkId((i % links) as u8))
            };
            c.set(AsIndex(i as u32), link);
        }
        c
    }

    fn flows(n: usize) -> Vec<Flow> {
        (0..n)
            .map(|i| Flow {
                src_as: AsIndex(i as u32),
                claimed_ip: 0xCB00_7101,
                dst_ip: 0xB8A4_E001,
                packets: 1,
                bytes: (i as u64 % 97) * 64 + 64,
                spoofed: true,
            })
            .collect()
    }

    #[test]
    fn accumulator_ingest_matches_dense_reference() {
        let _lock = ingest_lock();
        let n = 200;
        let cat = catchments(n, 5);
        let fl = flows(n);
        // The fixture's assignment, written out: AS i on link i % 5 unless
        // i % 7 == 6 (unassigned).
        let mut want = vec![0u64; 5];
        for f in &fl {
            let i = f.src_as.us();
            if i % 7 != 6 {
                want[i % 5] += f.bytes;
            }
        }
        let mut whole = BatchedDenseAccumulator::new(3, 5);
        let mut batched = BatchedDenseAccumulator::new(3, 5);
        for cfg in 0..3 {
            whole.ingest(cfg, &cat, &fl);
            ingest_stream(&mut batched, cfg, &cat, &fl, 17);
        }
        assert_eq!(whole.dense_rows(), vec![want; 3]);
        assert_eq!(batched.dense_rows(), whole.dense_rows());
        batched.clear();
        assert_eq!(batched.dense_rows(), vec![vec![0; 5]; 3]);
    }

    #[test]
    fn ingest_counts_unattributed_flows() {
        let _lock = ingest_lock();
        let before = trackdown_obs::global()
            .counter("traffic.ingest.unattributed")
            .get();
        let n = 70;
        let cat = catchments(n, 3);
        let fl = flows(n);
        let mut acc = BatchedDenseAccumulator::new(1, 3);
        acc.ingest(0, &cat, &fl);
        let after = trackdown_obs::global()
            .counter("traffic.ingest.unattributed")
            .get();
        // Every 7th AS is unassigned in the fixture (70 / 7 = 10 flows).
        assert!(after - before >= 10, "unattributed counter not maintained");
    }

    /// The per-flow reference: look every flow's link up with
    /// `Catchments::get`, record it through `record`, and return the
    /// `(flows, bytes, unattributed)` the ingest counters must grow by.
    fn reference_ingest(
        acc: &mut BatchedDenseAccumulator,
        config: usize,
        cat: &Catchments,
        flows: &[Flow],
    ) -> [u64; 3] {
        let width = acc.num_links();
        let mut tally = [flows.len() as u64, 0, 0];
        for f in flows {
            tally[1] += f.bytes;
            let link = (f.src_as.us() < cat.len())
                .then(|| cat.get(f.src_as))
                .flatten();
            match link {
                Some(l) if l.us() < width => acc.record(config, l, f.bytes),
                _ => tally[2] += 1,
            }
        }
        tally
    }

    /// `ingest_stream` one window and return the ingest counter deltas.
    fn stream_delta(
        acc: &mut BatchedDenseAccumulator,
        config: usize,
        cat: &Catchments,
        flows: &[Flow],
        batch: usize,
    ) -> [u64; 3] {
        let before = ingest_counters();
        ingest_stream(acc, config, cat, flows, batch);
        let after = ingest_counters();
        [0, 1, 2].map(|k| after[k] - before[k])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Resolved-table ingest against the per-flow `Catchments::get`
        // reference, window after window through the one reused table:
        // unassigned ASes, sources beyond the catchments and links beyond
        // the row width are all unattributed. Window and flow counts span
        // both the full resolve and the sources-only one. Rows must be
        // bit-identical and the counter deltas equal.
        #[test]
        fn resolved_ingest_matches_per_flow_get(
            windows in proptest::collection::vec(
                proptest::collection::vec(proptest::option::of(0u8..10), 0..600),
                1..4,
            ),
            width in 1usize..8,
            flows in proptest::collection::vec((0u32..700, 1u64..50_000), 0..400),
        ) {
            let cats: Vec<Catchments> = windows
                .iter()
                .map(|d| {
                    let dense: Vec<Option<LinkId>> = d.iter().map(|l| l.map(LinkId)).collect();
                    Catchments::from_dense(&dense)
                })
                .collect();
            let flows: Vec<Flow> = flows
                .iter()
                .map(|&(src, bytes)| Flow {
                    src_as: AsIndex(src),
                    claimed_ip: 0xCB00_7101,
                    dst_ip: 0xB8A4_E001,
                    packets: bytes.div_ceil(64),
                    bytes,
                    spoofed: true,
                })
                .collect();
            let configs = cats.len();
            let _lock = ingest_lock();
            for batch in [1, 17, 1024, flows.len() + 1] {
                let mut want = BatchedDenseAccumulator::new(configs, width);
                let mut streamed = BatchedDenseAccumulator::new(configs, width);
                for (c, cat) in cats.iter().enumerate() {
                    let want_delta = reference_ingest(&mut want, c, cat, &flows);
                    let delta = stream_delta(&mut streamed, c, cat, &flows, batch);
                    prop_assert_eq!(delta, want_delta, "batch {}, window {}", batch, c);
                }
                prop_assert_eq!(streamed.dense_rows(), want.dense_rows(), "rows, batch {}", batch);
            }
        }
    }
}
