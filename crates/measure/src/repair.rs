//! Unresponsive-hop repair (§IV-b of the paper).
//!
//! > "In a traceroute measurement, if consecutive unresponsive hops are
//! > surrounded by responsive ones, we check whether the surrounding hops
//! > have a single sequence of responsive hops between them in other
//! > traceroutes; if that is the case, we substitute the unresponsive hops
//! > with the responsive ones. After this step, we map unresponsive hops
//! > whose surrounding responsive hops map to a single AS a to the same
//! > AS a. If surrounding hops map to different ASes, we check whether
//! > public BGP feeds have a single sequence of ASes between them in
//! > AS-paths; if that is the case, we substitute the unresponsive hops to
//! > match the public AS-paths. If we still have unmapped or unresponsive
//! > hops, we ignore those hops on the AS-level path."

use crate::traceroute::Traceroute;
use std::ops::Range;
use trackdown_bgp::LinkId;
use trackdown_topology::fxhash::FxHashMap;
use trackdown_topology::{AsIndex, Asn};

/// A traceroute after AS-level repair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairedPath {
    /// The probe's AS.
    pub probe: AsIndex,
    /// Origin-side ingress link observation.
    pub reached: Option<LinkId>,
    /// Repaired AS-level path (probe side first). May be missing ASes
    /// where gaps could not be repaired.
    pub path: Vec<Asn>,
    /// Number of gap hops that had to be ignored (rule 4).
    pub ignored_hops: usize,
    /// Number of gap hops recovered by any repair rule.
    pub repaired_hops: usize,
    /// IXP-fabric hops stripped before repair (PeeringDB/traIXroute
    /// cleanup: hops resolving to private IXP ASNs are fabric addresses
    /// between two real AS hops, not AS-level hops).
    pub ixp_hops: usize,
}

/// Sequences stored back to back in one buffer: the per-epoch traceroute
/// sequences, BGP feed paths and repaired paths, each reused across
/// epochs instead of one `Vec` per sequence.
#[derive(Debug, Clone)]
pub(crate) struct FlatSeqs<T> {
    items: Vec<T>,
    /// End offset (exclusive) of each closed sequence.
    ends: Vec<usize>,
}

impl<T> Default for FlatSeqs<T> {
    fn default() -> Self {
        FlatSeqs {
            items: Vec::new(),
            ends: Vec::new(),
        }
    }
}

impl<T: Copy + PartialEq> FlatSeqs<T> {
    /// Drop every sequence, keeping the capacity.
    pub(crate) fn clear(&mut self) {
        self.items.clear();
        self.ends.clear();
    }

    /// Append an item to the open (last, unclosed) sequence.
    #[inline]
    pub(crate) fn push(&mut self, item: T) {
        self.items.push(item);
    }

    /// Append an item unless the open sequence already ends with it.
    #[inline]
    fn push_distinct(&mut self, item: T) {
        if self.items.len() == self.open_start() || self.items.last() != Some(&item) {
            self.items.push(item);
        }
    }

    fn open_start(&self) -> usize {
        self.ends.last().copied().unwrap_or(0)
    }

    /// Close the open sequence.
    pub(crate) fn close(&mut self) {
        self.ends.push(self.items.len());
    }

    /// Number of closed sequences.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// Offset range of closed sequence `k` in the item buffer.
    fn range(&self, k: usize) -> Range<usize> {
        let start = if k == 0 { 0 } else { self.ends[k - 1] };
        start..self.ends[k]
    }

    /// Closed sequence `k`.
    pub(crate) fn get(&self, k: usize) -> &[T] {
        &self.items[self.range(k)]
    }
}

/// Append one traceroute's observed hops to `seqs` as an AS-level
/// sequence of dense AS ids and close it, returning the number of
/// IXP-fabric hops stripped. Each responsive hop arrives as its ASN and
/// id. Consecutive repeats of a responsive ASN collapse first
/// (router-level hops inside one AS are one AS hop), as in
/// [`Traceroute::observed_sequence`]; then hops resolving to private
/// (IXP-fabric) ASNs are dropped, the PeeringDB/traIXroute step: they are
/// addresses on the exchange fabric between two genuine AS hops, so the
/// surrounding ASes become adjacent.
pub(crate) fn push_sequence(
    seqs: &mut FlatSeqs<Option<u32>>,
    observed: impl IntoIterator<Item = Option<(Asn, u32)>>,
) -> usize {
    let mut ixp = 0;
    // The ASN of the last hop the collapse kept, stripped or not.
    let mut prev: Option<Option<Asn>> = None;
    for h in observed {
        let asn = h.map(|(a, _)| a);
        if asn.is_some() && prev == Some(asn) {
            continue;
        }
        prev = Some(asn);
        match h {
            Some((a, _)) if a.is_private() => ixp += 1,
            _ => seqs.push(h.map(|(_, id)| id)),
        }
    }
    seqs.close();
    ixp
}

/// Dense ids for ASNs that have no topology index: the id of the `k`-th
/// distinct ASN seen is `base + k`. Repair compares and indexes hops by
/// id, so equal ids must mean equal ASNs; ids below `base` are left to
/// the caller (the measurement plane uses AS indices there).
#[derive(Debug, Default)]
pub(crate) struct AsnIds {
    base: u32,
    ids: FxHashMap<Asn, u32>,
    asns: Vec<Asn>,
}

impl AsnIds {
    /// Forget every ASN and number new ones from `base`.
    pub(crate) fn reset(&mut self, base: u32) {
        self.base = base;
        self.ids.clear();
        self.asns.clear();
    }

    /// The id of `asn`, numbering it if it is new.
    pub(crate) fn id(&mut self, asn: Asn) -> u32 {
        let next = self.base + self.asns.len() as u32;
        let id = *self.ids.entry(asn).or_insert(next);
        if id == next {
            self.asns.push(asn);
        }
        id
    }

    /// The ASN numbered `id`.
    fn asn(&self, id: u32) -> Asn {
        self.asns[(id - self.base) as usize]
    }

    /// One past the largest id handed out.
    pub(crate) fn bound(&self) -> u32 {
        self.base + self.asns.len() as u32
    }
}

/// What the responsive evidence says about the interior between one
/// anchor pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Interior {
    /// No run contains the pair.
    Unseen,
    /// Every run containing the pair has the same interior: `len` items
    /// at offset `start` of the scanned buffer.
    Unique { start: usize, len: usize },
    /// Runs disagree about the interior: repair must not apply.
    Ambiguous,
}

/// The responsive interiors between exactly the anchor pairs the
/// campaign's gaps ask about.
///
/// Gap repair only ever looks up `(x, y)` where `x` is the hop before a
/// gap and `y` the hop after it, so the index registers those pairs
/// first and then records the interiors of just those pairs while
/// scanning every responsive run. Whether a pair's interior is unique
/// does not depend on the order runs are scanned in, so this gives the
/// same answer as indexing every ordered pair of every run, without
/// storing the O(L²) pairs of each run.
#[derive(Debug, Default)]
pub(crate) struct InteriorIndex {
    /// The queried anchor pairs as packed `(x, y)` id keys, sorted and
    /// distinct; a pair's position is its slot in the interior tables.
    pairs: Vec<u64>,
    /// Per left id `x`: the range of `pairs` whose left anchor is `x`
    /// (empty for ids that anchor no gap on the left).
    left: Vec<Range<u32>>,
    /// Per slot: interiors in the traceroute sequences (rule 1).
    traceroute: Vec<Interior>,
    /// Per slot: interiors in the BGP feed paths (rule 3).
    bgp: Vec<Interior>,
}

#[inline]
fn pair_key(x: u32, y: u32) -> u64 {
    (u64::from(x) << 32) | u64::from(y)
}

/// The anchors of the gap `seq[i..j]`: the hop before and the hop after,
/// or `None` for a leading or trailing gap.
#[inline]
fn anchors(seq: &[Option<u32>], i: usize, j: usize) -> Option<(u32, u32)> {
    let x = i.checked_sub(1).and_then(|p| seq[p])?;
    let y = seq.get(j).copied().flatten()?;
    Some((x, y))
}

/// End (exclusive) of the run of `Some`/`None` hops starting at `i`.
#[inline]
fn run_end(seq: &[Option<u32>], i: usize) -> usize {
    let gap = seq[i].is_none();
    seq[i..]
        .iter()
        .position(|h| h.is_none() != gap)
        .map_or(seq.len(), |k| i + k)
}

impl InteriorIndex {
    /// Register the anchor pair of every interior gap in `seqs`, whose
    /// ids are below `id_bound`, and reset the interiors.
    fn collect_queries(&mut self, seqs: &FlatSeqs<Option<u32>>, id_bound: u32) {
        self.pairs.clear();
        for k in 0..seqs.len() {
            let seq = seqs.get(k);
            let mut i = 0;
            while i < seq.len() {
                let j = run_end(seq, i);
                if let (None, Some((x, y))) = (seq[i], anchors(seq, i, j)) {
                    self.pairs.push(pair_key(x, y));
                }
                i = j;
            }
        }
        self.pairs.sort_unstable();
        self.pairs.dedup();
        self.left.clear();
        self.left.resize(id_bound as usize, 0..0);
        for (slot, &key) in self.pairs.iter().enumerate() {
            let r = &mut self.left[(key >> 32) as usize];
            if r.start == r.end {
                r.start = slot as u32;
            }
            r.end = slot as u32 + 1;
        }
        self.traceroute.clear();
        self.traceroute.resize(self.pairs.len(), Interior::Unseen);
        self.bgp.clear();
        self.bgp.resize(self.pairs.len(), Interior::Unseen);
    }

    /// The slot of the pair `(x, y)`, if a gap queries it.
    #[inline]
    fn slot(&self, x: u32, y: u32) -> Option<usize> {
        let r = &self.left[x as usize];
        let pairs = &self.pairs[r.start as usize..r.end as usize];
        let pos = pairs.binary_search(&pair_key(x, y)).ok()?;
        Some(r.start as usize + pos)
    }

    /// Record, in `interiors`, every queried anchor pair within the fully
    /// responsive run `buf[run]`.
    fn scan<T: Copy + Eq>(
        &self,
        interiors: &mut [Interior],
        buf: &[T],
        run: Range<usize>,
        id: impl Fn(T) -> u32,
    ) {
        for i in run.clone() {
            let x = id(buf[i]);
            if self.left[x as usize].is_empty() {
                continue;
            }
            for j in i + 1..run.end {
                let Some(slot) = self.slot(x, id(buf[j])) else {
                    continue;
                };
                let (start, len) = (i + 1, j - i - 1);
                let e = &mut interiors[slot];
                *e = match *e {
                    Interior::Unseen => Interior::Unique { start, len },
                    Interior::Unique { start: s, len: l }
                        if l == len && buf[s..s + l] == buf[start..start + len] =>
                    {
                        *e
                    }
                    Interior::Unique { .. } | Interior::Ambiguous => Interior::Ambiguous,
                };
            }
        }
    }

    /// Build the index for `seqs`: every maximal responsive run of every
    /// sequence (a gap breaks the run) feeds rule 1, every BGP path of
    /// `corpus` feeds rule 3.
    fn build(&mut self, seqs: &FlatSeqs<Option<u32>>, corpus: &FlatSeqs<u32>, id_bound: u32) {
        self.collect_queries(seqs, id_bound);
        if self.pairs.is_empty() {
            return;
        }
        let mut traceroute = std::mem::take(&mut self.traceroute);
        let responsive = |h: Option<u32>| h.expect("runs are responsive");
        for k in 0..seqs.len() {
            let (base, seq) = (seqs.range(k).start, seqs.get(k));
            let mut i = 0;
            while i < seq.len() {
                let j = run_end(seq, i);
                if seq[i].is_some() && j - i >= 2 {
                    let run = base + i..base + j;
                    self.scan(&mut traceroute, &seqs.items, run, responsive);
                }
                i = j;
            }
        }
        self.traceroute = traceroute;
        let mut bgp = std::mem::take(&mut self.bgp);
        for k in 0..corpus.len() {
            self.scan(&mut bgp, &corpus.items, corpus.range(k), |id| id);
        }
        self.bgp = bgp;
    }
}

/// Repair every sequence of `seqs` into `out`, in order, using the paper's
/// rules against the responsive runs of `seqs` itself and the BGP paths
/// of `corpus` (probe side first, origin side last, same orientation as
/// traceroutes). Hops are dense AS ids below `id_bound`. `hop_counts`
/// receives each sequence's `(ignored, repaired)` gap hops. The buffers
/// are cleared first.
///
/// A traceroute's own responsive runs may contribute to its repair, a
/// relaxation of the paper's "other traceroutes" (a gap never produces a
/// responsive run for its own anchors).
pub(crate) fn repair_into(
    seqs: &FlatSeqs<Option<u32>>,
    corpus: &FlatSeqs<u32>,
    id_bound: u32,
    index: &mut InteriorIndex,
    out: &mut FlatSeqs<u32>,
    hop_counts: &mut Vec<(usize, usize)>,
) {
    index.build(seqs, corpus, id_bound);
    out.clear();
    hop_counts.clear();
    for k in 0..seqs.len() {
        let seq = seqs.get(k);
        let (mut ignored, mut repaired) = (0, 0);
        let mut i = 0;
        while i < seq.len() {
            let j = run_end(seq, i);
            if seq[i].is_some() {
                for a in seq[i..j].iter().flatten() {
                    out.push_distinct(*a);
                }
                i = j;
                continue;
            }
            let gap = j - i;
            let Some((x, y)) = anchors(seq, i, j) else {
                // Leading or trailing gap: nothing to anchor on.
                ignored += gap;
                i = j;
                continue;
            };
            let slot = index.slot(x, y).expect("every gap's anchors are queried");
            if let Interior::Unique { start, len } = index.traceroute[slot] {
                // Rule 1: unique responsive interior in the traceroute
                // corpus.
                for a in seqs.items[start..start + len].iter().flatten() {
                    out.push_distinct(*a);
                }
                repaired += gap;
            } else if x == y {
                // Rule 2: surrounded by a single AS.
                repaired += gap;
            } else if let Interior::Unique { start, len } = index.bgp[slot] {
                // Rule 3: unique interior in BGP paths.
                for &a in &corpus.items[start..start + len] {
                    out.push_distinct(a);
                }
                repaired += gap;
            } else {
                // Rule 4: ignore the gap hops.
                ignored += gap;
            }
            i = j;
        }
        out.close();
        hop_counts.push((ignored, repaired));
    }
}

/// Repair a whole campaign. `bgp_paths` is the fully-resolved AS-path
/// corpus from the collectors (probe-side first, origin side last, same
/// orientation as traceroutes).
pub fn repair_campaign(campaign: &[Traceroute], bgp_paths: &[Vec<Asn>]) -> Vec<RepairedPath> {
    let mut ids = AsnIds::default();
    let mut seqs = FlatSeqs::default();
    let ixp: Vec<usize> = campaign
        .iter()
        .map(|t| {
            let observed = t.hops.iter().map(|h| h.observed.map(|a| (a, ids.id(a))));
            push_sequence(&mut seqs, observed)
        })
        .collect();
    let mut corpus = FlatSeqs::default();
    for p in bgp_paths {
        for &a in p {
            corpus.push(ids.id(a));
        }
        corpus.close();
    }
    let mut out = FlatSeqs::default();
    let mut hop_counts = Vec::with_capacity(campaign.len());
    let mut index = InteriorIndex::default();
    repair_into(
        &seqs,
        &corpus,
        ids.bound(),
        &mut index,
        &mut out,
        &mut hop_counts,
    );
    campaign
        .iter()
        .enumerate()
        .map(|(k, t)| RepairedPath {
            probe: t.probe,
            reached: t.reached,
            path: out.get(k).iter().map(|&id| ids.asn(id)).collect(),
            ignored_hops: hop_counts[k].0,
            repaired_hops: hop_counts[k].1,
            ixp_hops: ixp[k],
        })
        .collect()
}

/// The pre-flattening repair, kept as the oracle for [`repair_campaign`]:
/// a SipHash map holding a `Vec` interior for every ordered pair of every
/// responsive run, rebuilt per campaign.
#[cfg(test)]
pub(crate) mod reference {
    use super::RepairedPath;
    use crate::traceroute::Traceroute;
    use trackdown_topology::Asn;

    /// What an index knows about the responsive interiors seen between an
    /// ordered AS pair.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum InteriorEntry {
        /// Exactly one distinct interior was observed (possibly empty).
        Unique(Vec<Asn>),
        /// Conflicting interiors were observed: repair must not apply.
        Ambiguous,
    }

    /// Index of fully-responsive interiors between ordered AS pairs, built
    /// once per campaign so gap repair is an O(1) lookup instead of a scan of
    /// every other traceroute.
    #[derive(Debug, Default, Clone)]
    pub(crate) struct InteriorIndex {
        map: std::collections::HashMap<(Asn, Asn), InteriorEntry>,
    }

    impl InteriorIndex {
        fn add(&mut self, x: Asn, y: Asn, interior: &[Asn]) {
            use std::collections::hash_map::Entry;
            match self.map.entry((x, y)) {
                Entry::Vacant(v) => {
                    v.insert(InteriorEntry::Unique(interior.to_vec()));
                }
                Entry::Occupied(mut o) => {
                    if let InteriorEntry::Unique(prev) = o.get() {
                        if prev.as_slice() != interior {
                            o.insert(InteriorEntry::Ambiguous);
                        }
                    }
                }
            }
        }

        /// Register every ordered pair within a fully-resolved AS sequence.
        fn add_resolved_run(&mut self, run: &[Asn]) {
            for i in 0..run.len() {
                for j in (i + 1)..run.len() {
                    self.add(run[i], run[j], &run[i + 1..j]);
                }
            }
        }

        /// Build from observed traceroute sequences: only maximal responsive
        /// runs contribute (a gap breaks the run).
        pub(crate) fn from_sequences(seqs: &[Vec<Option<Asn>>]) -> InteriorIndex {
            let mut idx = InteriorIndex::default();
            for seq in seqs {
                let mut run: Vec<Asn> = Vec::new();
                for h in seq.iter().chain(std::iter::once(&None)) {
                    match h {
                        Some(a) => run.push(*a),
                        None => {
                            if run.len() >= 2 {
                                idx.add_resolved_run(&run);
                            }
                            run.clear();
                        }
                    }
                }
            }
            idx
        }

        /// Build from the fully-resolved BGP corpus.
        pub(crate) fn from_paths(paths: &[Vec<Asn>]) -> InteriorIndex {
            let mut idx = InteriorIndex::default();
            for p in paths {
                idx.add_resolved_run(p);
            }
            idx
        }

        /// The unique interior between `x` and `y`, if unambiguous.
        fn unique(&self, x: Asn, y: Asn) -> Option<&[Asn]> {
            match self.map.get(&(x, y)) {
                Some(InteriorEntry::Unique(v)) => Some(v),
                _ => None,
            }
        }
    }

    /// Repair one observed sequence against prebuilt traceroute and BGP
    /// interior indexes. Returns `(path, ignored, repaired)`.
    pub(crate) fn repair_sequence_indexed(
        seq: &[Option<Asn>],
        tr_index: &InteriorIndex,
        bgp_index: &InteriorIndex,
    ) -> (Vec<Asn>, usize, usize) {
        let mut out: Vec<Asn> = Vec::with_capacity(seq.len());
        let mut ignored = 0usize;
        let mut repaired = 0usize;
        let mut i = 0usize;
        while i < seq.len() {
            match seq[i] {
                Some(a) => {
                    if out.last() != Some(&a) {
                        out.push(a);
                    }
                    i += 1;
                }
                None => {
                    // Maximal gap [i, j).
                    let mut j = i;
                    while j < seq.len() && seq[j].is_none() {
                        j += 1;
                    }
                    let gap = j - i;
                    let before = out.last().copied();
                    let after = if j < seq.len() { seq[j] } else { None };
                    match (before, after) {
                        (Some(x), Some(y)) => {
                            // Rule 1: unique responsive interior in the
                            // traceroute corpus.
                            if let Some(int) = tr_index.unique(x, y).map(<[Asn]>::to_vec) {
                                for a in &int {
                                    if out.last() != Some(a) {
                                        out.push(*a);
                                    }
                                }
                                repaired += gap;
                            } else if x == y {
                                // Rule 2: surrounded by a single AS.
                                repaired += gap;
                            } else if let Some(int) = bgp_index.unique(x, y) {
                                // Rule 3: unique interior in BGP paths.
                                for a in int {
                                    if out.last() != Some(a) {
                                        out.push(*a);
                                    }
                                }
                                repaired += gap;
                            } else {
                                // Rule 4: ignore the gap hops.
                                ignored += gap;
                            }
                        }
                        // Leading or trailing gap: nothing to anchor on.
                        _ => ignored += gap,
                    }
                    i = j;
                }
            }
        }
        (out, ignored, repaired)
    }

    /// Repair a whole campaign. `bgp_paths` is the fully-resolved AS-path
    /// corpus from the collectors (probe-side first, origin side last, same
    /// orientation as traceroutes).
    pub(crate) fn repair_campaign(
        campaign: &[Traceroute],
        bgp_paths: &[Vec<Asn>],
    ) -> Vec<RepairedPath> {
        // PeeringDB/traIXroute step: hops resolving to private (IXP-fabric)
        // ASNs are addresses on the exchange fabric between two genuine AS
        // hops; strip them so the surrounding ASes become adjacent.
        let mut ixp_counts = vec![0usize; campaign.len()];
        let sequences: Vec<Vec<Option<Asn>>> = campaign
            .iter()
            .enumerate()
            .map(|(k, t)| {
                let mut seq = t.observed_sequence();
                let before = seq.len();
                seq.retain(|h| !matches!(h, Some(a) if a.is_private()));
                ixp_counts[k] = before - seq.len();
                seq
            })
            .collect();
        // The interior indexes are built once over the whole campaign. A
        // traceroute's own responsive runs may contribute to its repair, a
        // harmless relaxation of the paper's "other traceroutes" (a gap never
        // produces a responsive run for its own anchors).
        let tr_index = InteriorIndex::from_sequences(&sequences);
        let bgp_index = InteriorIndex::from_paths(bgp_paths);
        campaign
            .iter()
            .zip(&sequences)
            .zip(&ixp_counts)
            .map(|((t, seq), &ixp_hops)| {
                let (path, ignored_hops, repaired_hops) =
                    repair_sequence_indexed(seq, &tr_index, &bgp_index);
                RepairedPath {
                    probe: t.probe,
                    reached: t.reached,
                    path,
                    ignored_hops,
                    repaired_hops,
                    ixp_hops,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traceroute::Hop;

    fn a(v: u32) -> Asn {
        Asn(v)
    }
    fn s(v: u32) -> Option<Asn> {
        Some(Asn(v))
    }

    /// Test helper matching the paper's description: repair `seq` against
    /// explicit other traceroutes and a BGP corpus.
    fn repair_sequence(
        seq: &[Option<Asn>],
        other_seqs: &[Vec<Option<Asn>>],
        bgp_paths: &[Vec<Asn>],
    ) -> (Vec<Asn>, usize, usize) {
        let hops = |s: &[Option<Asn>]| {
            s.iter()
                .map(|&observed| Hop {
                    true_as: AsIndex(0),
                    observed,
                })
                .collect()
        };
        let campaign: Vec<Traceroute> = std::iter::once(seq)
            .chain(other_seqs.iter().map(Vec::as_slice))
            .map(|s| Traceroute {
                probe: AsIndex(0),
                round: 0,
                reached: None,
                hops: hops(s),
            })
            .collect();
        let r = &repair_campaign(&campaign, bgp_paths)[0];
        (r.path.clone(), r.ignored_hops, r.repaired_hops)
    }

    #[test]
    fn rule1_unique_interior_from_other_traceroutes() {
        let seq = vec![s(1), None, s(3)];
        let others = vec![vec![s(1), s(2), s(3)]];
        let (path, ignored, repaired) = repair_sequence(&seq, &others, &[]);
        assert_eq!(path, vec![a(1), a(2), a(3)]);
        assert_eq!(ignored, 0);
        assert_eq!(repaired, 1);
    }

    #[test]
    fn rule1_ambiguous_interiors_do_not_apply() {
        let seq = vec![s(1), None, s(3)];
        let others = vec![vec![s(1), s(2), s(3)], vec![s(1), s(9), s(3)]];
        // Two different interiors: rule 1 fails, rule 2 fails (1≠3), rule 3
        // has no corpus → gap ignored.
        let (path, ignored, _) = repair_sequence(&seq, &others, &[]);
        assert_eq!(path, vec![a(1), a(3)]);
        assert_eq!(ignored, 1);
    }

    #[test]
    fn rule2_same_surrounding_as() {
        let seq = vec![s(1), None, None, s(1), s(4)];
        let (path, ignored, repaired) = repair_sequence(&seq, &[], &[]);
        assert_eq!(path, vec![a(1), a(4)]);
        assert_eq!(ignored, 0);
        assert_eq!(repaired, 2);
    }

    #[test]
    fn rule3_bgp_interpolation() {
        let seq = vec![s(1), None, s(3)];
        let corpus = vec![vec![a(7), a(1), a(2), a(3), a(8)]];
        let (path, ignored, repaired) = repair_sequence(&seq, &[], &corpus);
        assert_eq!(path, vec![a(1), a(2), a(3)]);
        assert_eq!(ignored, 0);
        assert_eq!(repaired, 1);
    }

    #[test]
    fn rule3_ambiguous_bgp_paths_do_not_apply() {
        let seq = vec![s(1), None, s(3)];
        let corpus = vec![vec![a(1), a(2), a(3)], vec![a(1), a(9), a(3)]];
        let (path, ignored, _) = repair_sequence(&seq, &[], &corpus);
        assert_eq!(path, vec![a(1), a(3)]);
        assert_eq!(ignored, 1);
    }

    #[test]
    fn rule_priority_traceroutes_before_bgp() {
        // Other traceroutes say interior is [2]; BGP corpus says [9].
        // Rule 1 wins.
        let seq = vec![s(1), None, s(3)];
        let others = vec![vec![s(1), s(2), s(3)]];
        let corpus = vec![vec![a(1), a(9), a(3)]];
        let (path, _, _) = repair_sequence(&seq, &others, &corpus);
        assert_eq!(path, vec![a(1), a(2), a(3)]);
    }

    #[test]
    fn leading_and_trailing_gaps_dropped() {
        let seq = vec![None, s(1), s(2), None];
        let (path, ignored, _) = repair_sequence(&seq, &[], &[]);
        assert_eq!(path, vec![a(1), a(2)]);
        assert_eq!(ignored, 2);
    }

    #[test]
    fn empty_and_all_none_sequences() {
        let (path, ignored, _) = repair_sequence(&[], &[], &[]);
        assert!(path.is_empty());
        assert_eq!(ignored, 0);
        let (path, ignored, _) = repair_sequence(&[None, None], &[], &[]);
        assert!(path.is_empty());
        assert_eq!(ignored, 2);
    }

    #[test]
    fn direct_adjacency_in_bgp_corpus_gives_empty_interior() {
        // x and y adjacent in corpus → unique empty interior → gap closed
        // with no AS inserted.
        let seq = vec![s(1), None, s(3)];
        let corpus = vec![vec![a(1), a(3)]];
        let (path, ignored, repaired) = repair_sequence(&seq, &[], &corpus);
        assert_eq!(path, vec![a(1), a(3)]);
        assert_eq!(ignored, 0);
        assert_eq!(repaired, 1);
    }

    #[test]
    fn ixp_fabric_hops_are_stripped_and_bridged() {
        use crate::traceroute::Hop;
        use trackdown_topology::AsIndex;
        let ixp = Asn(64512 + 7); // private-range fabric ASN
        let t = Traceroute {
            probe: AsIndex(0),
            round: 0,
            reached: Some(LinkId(0)),
            hops: vec![
                Hop {
                    true_as: AsIndex(0),
                    observed: s(1),
                },
                Hop {
                    true_as: AsIndex(1),
                    observed: Some(ixp),
                },
                Hop {
                    true_as: AsIndex(1),
                    observed: s(2),
                },
            ],
        };
        let repaired = repair_campaign(&[t], &[]);
        assert_eq!(repaired[0].path, vec![a(1), a(2)]);
        assert_eq!(repaired[0].ixp_hops, 1);
        assert_eq!(repaired[0].ignored_hops, 0);
    }

    /// A traceroute whose every hop's true AS is the probe's.
    fn trace(probe: u32, reached: Option<u8>, hops: &[Option<Asn>]) -> Traceroute {
        use crate::traceroute::Hop;
        use trackdown_topology::AsIndex;
        Traceroute {
            probe: AsIndex(probe),
            round: 0,
            reached: reached.map(LinkId),
            hops: hops
                .iter()
                .map(|&observed| Hop {
                    true_as: AsIndex(probe),
                    observed,
                })
                .collect(),
        }
    }

    #[test]
    fn edge_cases_match_reference() {
        let ixp = Some(Asn(64512 + 3));
        let campaign = vec![
            // Leading and trailing gaps, and an unreached traceroute.
            trace(0, None, &[None, s(1), s(2), None]),
            // Ambiguous interiors between 1 and 3 in other traceroutes.
            trace(1, Some(0), &[s(1), None, s(3)]),
            trace(2, Some(0), &[s(1), s(2), s(3)]),
            trace(2, Some(1), &[s(1), s(9), s(3)]),
            // IXP hops between two real hops, repeated hops that collapse
            // across a stripped IXP hop, and a gap behind an IXP hop.
            trace(3, Some(2), &[s(4), ixp, s(5), None, s(6)]),
            trace(3, Some(2), &[s(4), s(4), ixp, s(4), None, s(5)]),
            // Anchors equal (rule 2) but a run holds x…x with an interior
            // (rule 1 applies first).
            trace(4, Some(1), &[s(7), None, s(7)]),
            trace(4, Some(1), &[s(7), s(8), s(7)]),
            // The traceroute's own run supplies its interior.
            trace(5, Some(0), &[s(5), None, s(6), s(5), s(2), s(6)]),
            // Nothing anchors, nothing known.
            trace(6, None, &[None, None]),
            trace(6, None, &[]),
        ];
        let corpus = vec![
            vec![a(4), a(10), a(6)],
            vec![a(4), a(11), a(6)],
            vec![a(5), a(12), a(6)],
            vec![a(1), a(3)],
        ];
        let got = repair_campaign(&campaign, &corpus);
        assert_eq!(got, reference::repair_campaign(&campaign, &corpus));
        assert_eq!(got[0].ignored_hops, 2);
        assert_eq!(got[1].path, vec![a(1), a(3)], "ambiguous: BGP adjacency");
        assert_eq!(got[4].ixp_hops, 1);
        assert_eq!(got[6].path, vec![a(7), a(8), a(7)]);
    }

    #[test]
    fn campaign_repair_uses_other_traceroutes() {
        use crate::traceroute::Hop;
        use trackdown_topology::AsIndex;
        let t1 = Traceroute {
            probe: AsIndex(0),
            round: 0,
            reached: Some(LinkId(0)),
            hops: vec![
                Hop {
                    true_as: AsIndex(0),
                    observed: s(1),
                },
                Hop {
                    true_as: AsIndex(1),
                    observed: None,
                },
                Hop {
                    true_as: AsIndex(2),
                    observed: s(3),
                },
            ],
        };
        let t2 = Traceroute {
            probe: AsIndex(5),
            round: 0,
            reached: Some(LinkId(0)),
            hops: vec![
                Hop {
                    true_as: AsIndex(0),
                    observed: s(1),
                },
                Hop {
                    true_as: AsIndex(1),
                    observed: s(2),
                },
                Hop {
                    true_as: AsIndex(2),
                    observed: s(3),
                },
            ],
        };
        let repaired = repair_campaign(&[t1, t2], &[]);
        assert_eq!(repaired[0].path, vec![a(1), a(2), a(3)]);
        assert_eq!(repaired[0].repaired_hops, 1);
        assert_eq!(repaired[1].path, vec![a(1), a(2), a(3)]);
        assert_eq!(repaired[1].repaired_hops, 0);
    }
}
