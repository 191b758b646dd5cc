//! Catchments: the partition of sources across the origin's peering links.
//!
//! For a given announcement configuration, each peering link "attracts
//! traffic from non-overlapping regions of the Internet called the link's
//! catchment" (§I). A [`Catchments`] value records, for every AS, which
//! link its traffic ingresses through — or `None` when the AS cannot reach
//! the prefix or was not observed.
//!
//! ## Layout
//!
//! Internally a catchment is stored as one u64-block bitset **row per
//! active link** (bit `i` set in link `l`'s row means AS `i` ingresses
//! through `l`), plus a maintained union bitset and per-row popcounts.
//! The number of links is bounded by the origin's PoP count (and by
//! `u8::MAX` via [`LinkId`]), so rows are few and long: membership
//! queries stream words, [`Catchments::sizes`] /
//! [`Catchments::active_links`] read the maintained counts in O(links),
//! and extraction sets each AS's bit in one pass over the outcome. The
//! historical dense form (`Vec<Option<LinkId>>`) remains available as a
//! reference API ([`Catchments::dense`] / [`Catchments::from_dense`]) for
//! the differential oracles, and is still the serde wire format;
//! [`Catchments::fill_links`] writes it into a reused buffer, the O(1)
//! per-AS lookup table streaming ingest resolves once per window.

use crate::engine::RoutingOutcome;
use crate::route::LinkId;
use serde::{Deserialize, Serialize};
use trackdown_topology::AsIndex;

/// Bits per bitset block.
const WORD: usize = 64;

fn word_count(n: usize) -> usize {
    n.div_ceil(WORD)
}

/// A member bitset over AS index (bit `i % 64` of word `i / 64` set = AS
/// `i` is a member) in the sparse form [`Catchments::distinct_among_words`]
/// reads: its nonzero words as `(word index, word)`, and one past its
/// highest member. Skipping the zero words matters once the members are
/// few; the end, computed once here, lets each catchment check its range
/// with one comparison.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemberWords {
    words: Vec<(usize, u64)>,
    end: usize,
}

impl MemberWords {
    /// The nonzero words of `bits`, ascending.
    pub fn from_bitset(bits: &[u64]) -> MemberWords {
        MemberWords::from_words(bits.iter().copied().enumerate())
    }

    /// `(word index, word)` pairs in any order; zero words are dropped.
    pub fn from_words(words: impl IntoIterator<Item = (usize, u64)>) -> MemberWords {
        let words: Vec<(usize, u64)> = words.into_iter().filter(|&(_, w)| w != 0).collect();
        let end = words
            .iter()
            .map(|&(k, w)| {
                k.saturating_mul(WORD)
                    .saturating_add(WORD - w.leading_zeros() as usize)
            })
            .max()
            .unwrap_or(0);
        MemberWords { words, end }
    }

    /// The nonzero words, in the order given.
    pub fn words(&self) -> &[(usize, u64)] {
        &self.words
    }

    /// One past the highest member (0 when there is none).
    pub fn end(&self) -> usize {
        self.end
    }
}

/// Indices of the set bits in a stream of u64 words, ascending.
fn iter_set_bits<I: Iterator<Item = u64>>(words: I) -> impl Iterator<Item = usize> {
    words.enumerate().flat_map(|(w, bits)| {
        let mut bits = bits;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let t = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some(w * WORD + t)
        })
    })
}

/// Per-AS catchment assignment for one announcement configuration.
///
/// By construction each source appears in at most one catchment, the
/// invariant §IV-c requires of any source granularity: the per-link
/// bitset rows are pairwise disjoint.
#[derive(Debug, Clone)]
pub struct Catchments {
    /// Number of ASes covered (assigned or not).
    n: usize,
    /// Distinct links that ever had a member, ascending.
    links: Vec<LinkId>,
    /// Bitset row per link in `links`; bit `i` = AS `i` is a member.
    rows: Vec<Vec<u64>>,
    /// Popcount of each row, maintained incrementally.
    counts: Vec<usize>,
    /// Union of all rows (bit `i` = AS `i` has *some* assignment).
    assigned: Vec<u64>,
}

impl Catchments {
    /// An empty assignment over `n` ASes.
    pub fn unassigned(n: usize) -> Catchments {
        Catchments {
            n,
            links: Vec::new(),
            rows: Vec::new(),
            counts: Vec::new(),
            assigned: vec![0; word_count(n)],
        }
    }

    /// Control-plane catchments: the ingress tag of each AS's best route.
    pub fn from_control_plane(outcome: &RoutingOutcome) -> Catchments {
        let _span = trackdown_obs::span("catchment.extract_cp");
        Catchments::collect(outcome.best.len(), |i| {
            outcome.best[i].as_ref().map(|r| r.ingress)
        })
    }

    /// Data-plane catchments: follow each AS's forwarding chain to the
    /// origin. Slower but faithful to what traffic actually does; this is
    /// what honeypot volume accounting sees.
    pub fn from_data_plane(outcome: &RoutingOutcome) -> Catchments {
        let _span = trackdown_obs::span("catchment.extract_dp");
        let mut walker = crate::engine::ForwardingWalker::new();
        let mut hops = Vec::new();
        Catchments::collect(outcome.best.len(), |i| {
            walker.walk_into(outcome, AsIndex(i as u32), &mut hops)
        })
    }

    /// Single-pass extraction: probe each of the `n` ASes once and set
    /// its bit directly, discovering link rows on first sight. Equivalent
    /// to collecting the dense form and calling [`Catchments::from_dense`],
    /// without materializing it.
    fn collect(n: usize, mut catchment_of: impl FnMut(usize) -> Option<LinkId>) -> Catchments {
        let mut c = Catchments::unassigned(n);
        // Neighbouring ASes usually share a link; cache the last row hit.
        let mut last: Option<(LinkId, usize)> = None;
        for i in 0..n {
            if let Some(l) = catchment_of(i) {
                let r = match last {
                    Some((pl, pr)) if pl == l => pr,
                    _ => c.row_index_or_insert(l),
                };
                c.rows[r][i / WORD] |= 1 << (i % WORD);
                c.counts[r] += 1;
                c.assigned[i / WORD] |= 1 << (i % WORD);
                last = Some((l, r));
            }
        }
        c
    }

    /// Build from the dense per-AS form. Reference API kept for the
    /// differential oracles (and the serde wire format).
    pub fn from_dense(dense: &[Option<LinkId>]) -> Catchments {
        let n = dense.len();
        // Collect the distinct links by insertion into a (tiny) sorted vec
        // rather than sorting the whole dense slice: catchment link sets
        // are origin-PoP-sized, so this is O(n log links) with a cheap
        // constant — and neighbouring ASes usually share a link, which
        // the `last` cache turns into O(1).
        let mut links: Vec<LinkId> = Vec::new();
        for l in dense.iter().flatten() {
            if let Err(pos) = links.binary_search(l) {
                links.insert(pos, *l);
            }
        }
        let wc = word_count(n);
        let mut rows = vec![vec![0u64; wc]; links.len()];
        let mut counts = vec![0usize; links.len()];
        let mut assigned = vec![0u64; wc];
        let mut last: Option<(LinkId, usize)> = None;
        for (i, l) in dense.iter().enumerate() {
            if let Some(l) = l {
                let r = match last {
                    Some((pl, pr)) if pl == *l => pr,
                    _ => links.binary_search(l).expect("link collected above"),
                };
                rows[r][i / WORD] |= 1 << (i % WORD);
                counts[r] += 1;
                assigned[i / WORD] |= 1 << (i % WORD);
                last = Some((*l, r));
            }
        }
        Catchments {
            n,
            links,
            rows,
            counts,
            assigned,
        }
    }

    /// The dense per-AS form. Reference API for the differential oracles;
    /// `Catchments::from_dense(&c.dense()) == c` for every `c`.
    pub fn dense(&self) -> Vec<Option<LinkId>> {
        let mut dense = Vec::new();
        self.fill_links(&mut dense);
        dense
    }

    /// Write the dense per-AS form into a caller-owned buffer: `out` ends
    /// up `len()` long with `out[i] == get(i)`, whatever it held before.
    /// One pass over each row's set bits and no allocation once `out` has
    /// the capacity, so a streaming consumer can resolve each window's
    /// catchment into a reused table and then look up every flow's link
    /// with one load instead of a row scan.
    pub fn fill_links(&self, out: &mut Vec<Option<LinkId>>) {
        out.clear();
        out.resize(self.n, None);
        for (&l, row) in self.links.iter().zip(&self.rows) {
            for (chunk, &word) in out.chunks_mut(WORD).zip(row) {
                let mut bits = word;
                while bits != 0 {
                    chunk[bits.trailing_zeros() as usize] = Some(l);
                    bits &= bits - 1;
                }
            }
        }
    }

    /// Index of `link`'s row, inserting an empty row (keeping `links`
    /// sorted) when the link has not been seen yet.
    fn row_index_or_insert(&mut self, link: LinkId) -> usize {
        match self.links.binary_search(&link) {
            Ok(r) => r,
            Err(r) => {
                self.links.insert(r, link);
                self.rows.insert(r, vec![0u64; word_count(self.n)]);
                self.counts.insert(r, 0);
                r
            }
        }
    }

    /// Number of ASes covered (assigned or not).
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when no AS is tracked at all.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Whether an AS has any assignment — one bit probe, no row scan
    /// (use instead of `get(i).is_some()` on hot paths).
    pub fn is_assigned(&self, i: AsIndex) -> bool {
        let i = i.us();
        assert!(i < self.n, "AS index {i} out of catchment range {}", self.n);
        self.assigned[i / WORD] & (1 << (i % WORD)) != 0
    }

    /// Catchment of one AS.
    pub fn get(&self, i: AsIndex) -> Option<LinkId> {
        let i = i.us();
        assert!(i < self.n, "AS index {i} out of catchment range {}", self.n);
        let (w, m) = (i / WORD, 1u64 << (i % WORD));
        if self.assigned[w] & m == 0 {
            return None;
        }
        self.links
            .iter()
            .zip(&self.rows)
            .find(|(_, row)| row[w] & m != 0)
            .map(|(l, _)| *l)
    }

    /// Assign an AS to a link (used when building *measured* catchments).
    pub fn set(&mut self, i: AsIndex, link: Option<LinkId>) {
        let i = i.us();
        assert!(i < self.n, "AS index {i} out of catchment range {}", self.n);
        let (w, m) = (i / WORD, 1u64 << (i % WORD));
        if self.assigned[w] & m != 0 {
            for (r, row) in self.rows.iter_mut().enumerate() {
                if row[w] & m != 0 {
                    row[w] &= !m;
                    self.counts[r] -= 1;
                    break;
                }
            }
            self.assigned[w] &= !m;
        }
        if let Some(l) = link {
            let r = self.row_index_or_insert(l);
            self.rows[r][w] |= m;
            self.counts[r] += 1;
            self.assigned[w] |= m;
        }
    }

    /// All ASes assigned to `link`.
    pub fn members(&self, link: LinkId) -> impl Iterator<Item = AsIndex> + '_ {
        let row: &[u64] = match self.links.binary_search(&link) {
            Ok(r) => &self.rows[r],
            Err(_) => &[],
        };
        iter_set_bits(row.iter().copied()).map(|i| AsIndex(i as u32))
    }

    /// Sum a per-AS value over each link's members: `(link, Σ values[i])`
    /// over the ASes `i` in that link's row, one entry per link row,
    /// ascending (a link emptied by [`Catchments::set`] sums to 0). ASes
    /// past the end of `values` count as 0. Word-at-a-time: a block of 64
    /// ASes whose values are all zero costs one OR-reduction of those
    /// values and no row probes, so a sparse vector costs about one pass
    /// over it.
    pub fn member_sums(&self, values: &[u64]) -> Vec<(LinkId, u64)> {
        let mut sums: Vec<(LinkId, u64)> = self.links.iter().map(|&l| (l, 0)).collect();
        for (w, block) in values.chunks(WORD).enumerate().take(self.assigned.len()) {
            if block.iter().fold(0, |any, &v| any | v) == 0 {
                continue;
            }
            let nonzero = block
                .iter()
                .enumerate()
                .fold(0u64, |m, (b, &v)| m | (u64::from(v != 0) << b));
            for ((_, sum), row) in sums.iter_mut().zip(&self.rows) {
                let mut bits = row[w] & nonzero;
                while bits != 0 {
                    *sum += block[bits.trailing_zeros() as usize];
                    bits &= bits - 1;
                }
            }
        }
        sums
    }

    /// Number of distinct [`Catchments::get`] values over the members of
    /// a [`MemberWords`] bitset: the link rows the members meet, plus 1
    /// when some member is unassigned. Word ANDs only, no per-AS lookup.
    /// The online loop scores every greedy candidate against one suspect
    /// set; its nonzero words skip the zero ones, which are most of them
    /// once the suspects are few.
    ///
    /// Panics when a member lies at or past [`Catchments::len`], as `get`
    /// does for such an AS.
    pub fn distinct_among_words(&self, members: &MemberWords) -> usize {
        assert!(
            members.end <= self.n,
            "member bitset reaches past catchment range {}",
            self.n
        );
        let words = &members.words;
        let meets = |row: &[u64]| words.iter().any(|&(k, m)| row[k] & m != 0);
        let unassigned = words.iter().any(|&(k, m)| m & !self.assigned[k] != 0);
        self.rows.iter().filter(|row| meets(row)).count() + usize::from(unassigned)
    }

    /// Number of ASes with an assignment.
    pub fn assigned_count(&self) -> usize {
        self.counts.iter().sum()
    }

    /// ASes with no assignment (unreachable or unobserved).
    pub fn unassigned_ases(&self) -> impl Iterator<Item = AsIndex> + '_ {
        let n = self.n;
        iter_set_bits(self.assigned.iter().map(|w| !w))
            .take_while(move |&i| i < n)
            .map(|i| AsIndex(i as u32))
    }

    /// Distinct links that have at least one member, ascending. O(links)
    /// off the maintained per-row counts — no per-AS scan.
    pub fn active_links(&self) -> Vec<LinkId> {
        self.links
            .iter()
            .zip(&self.counts)
            .filter(|(_, &c)| c > 0)
            .map(|(l, _)| *l)
            .collect()
    }

    /// Per-link member counts as `(link, count)`, ascending by link.
    /// O(links) off the maintained popcounts.
    pub fn sizes(&self) -> Vec<(LinkId, usize)> {
        self.links
            .iter()
            .zip(&self.counts)
            .filter(|(_, &c)| c > 0)
            .map(|(l, &c)| (*l, c))
            .collect()
    }

    /// Fraction of assigned ASes whose assignment differs from `other`
    /// (ASes unassigned in either are skipped). Useful to quantify how much
    /// a configuration changed routing. Computed word-at-a-time: ASes
    /// assigned in both are `popcount(assigned ∧ assigned')`, of which the
    /// unmoved ones sit in the intersection of same-link rows.
    pub fn divergence(&self, other: &Catchments) -> f64 {
        let common: usize = self
            .assigned
            .iter()
            .zip(&other.assigned)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum();
        if common == 0 {
            return 0.0;
        }
        let mut same = 0usize;
        for (j, l) in self.links.iter().enumerate() {
            if let Ok(k) = other.links.binary_search(l) {
                same += self.rows[j]
                    .iter()
                    .zip(&other.rows[k])
                    .map(|(a, b)| (a & b).count_ones() as usize)
                    .sum::<usize>();
            }
        }
        (common - same) as f64 / common as f64
    }

    /// Each link with members and its bitset row over AS index (bit `i %
    /// 64` of word `i / 64` set = AS `i` ingresses through the link),
    /// ascending by link. A row emptied through [`Catchments::set`] is
    /// skipped, so equality is over the assignment, not how it was built.
    pub fn link_rows(&self) -> impl Iterator<Item = (LinkId, &[u64])> {
        self.links
            .iter()
            .zip(&self.rows)
            .zip(&self.counts)
            .filter(|(_, &c)| c > 0)
            .map(|((l, row), _)| (*l, row.as_slice()))
    }
}

impl PartialEq for Catchments {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.link_rows().eq(other.link_rows())
    }
}

impl Eq for Catchments {}

/// The serde wire format: the dense per-AS assignment, unchanged from the
/// pre-bitset representation so recorded datasets stay readable.
#[derive(Clone, Serialize, Deserialize)]
struct DenseForm {
    assignment: Vec<Option<LinkId>>,
}

impl Serialize for Catchments {
    fn to_value(&self) -> serde::Value {
        DenseForm {
            assignment: self.dense(),
        }
        .to_value()
    }
}

impl Deserialize for Catchments {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        DenseForm::from_value(v).map(|f| Catchments::from_dense(&f.assignment))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Catchments {
        let mut c = Catchments::unassigned(5);
        c.set(AsIndex(0), Some(LinkId(0)));
        c.set(AsIndex(1), Some(LinkId(1)));
        c.set(AsIndex(2), Some(LinkId(1)));
        // 3 and 4 left unassigned.
        c
    }

    #[test]
    fn membership_and_counts() {
        let c = sample();
        assert_eq!(c.len(), 5);
        assert_eq!(c.assigned_count(), 3);
        assert_eq!(c.members(LinkId(1)).count(), 2);
        assert_eq!(c.members(LinkId(9)).count(), 0);
        assert_eq!(c.unassigned_ases().count(), 2);
        assert_eq!(c.active_links(), vec![LinkId(0), LinkId(1)]);
        assert_eq!(c.sizes(), vec![(LinkId(0), 1), (LinkId(1), 2)]);
    }

    #[test]
    fn each_as_in_at_most_one_catchment() {
        let c = sample();
        let total: usize = c.active_links().iter().map(|&l| c.members(l).count()).sum();
        assert_eq!(total, c.assigned_count());
    }

    #[test]
    fn set_moves_between_rows_and_maintains_counts() {
        let mut c = sample();
        // Reassigning clears the old row's bit and count.
        c.set(AsIndex(0), Some(LinkId(1)));
        assert_eq!(c.get(AsIndex(0)), Some(LinkId(1)));
        assert_eq!(c.members(LinkId(0)).count(), 0);
        assert_eq!(c.sizes(), vec![(LinkId(1), 3)]);
        assert_eq!(c.active_links(), vec![LinkId(1)]);
        // Unassigning removes entirely.
        c.set(AsIndex(0), None);
        assert_eq!(c.get(AsIndex(0)), None);
        assert_eq!(c.assigned_count(), 2);
        // A row emptied by reassignment no longer counts as active, so
        // equality against a fresh build of the same assignment holds.
        assert_eq!(c, Catchments::from_dense(&c.dense()));
    }

    #[test]
    fn dense_roundtrip_is_identity() {
        let c = sample();
        let dense = c.dense();
        assert_eq!(
            dense,
            vec![
                Some(LinkId(0)),
                Some(LinkId(1)),
                Some(LinkId(1)),
                None,
                None
            ]
        );
        assert_eq!(Catchments::from_dense(&dense), c);
    }

    /// `fill_links` is `dense()` into a reused buffer: it must agree with
    /// `get` on every AS whatever the buffer held before — longer, shorter,
    /// or a previous window's links.
    #[test]
    fn fill_links_agrees_with_get_over_a_reused_buffer() {
        let windows = [
            vec![
                Some(LinkId(2)),
                None,
                Some(LinkId(0)),
                Some(LinkId(2)),
                None,
            ],
            vec![None; 3],
            (0..70)
                .map(|i| (i % 3 != 0).then_some(LinkId((i % 5) as u8)))
                .collect(),
            vec![Some(LinkId(7)); 9],
            Vec::new(),
            vec![None, Some(LinkId(1))],
        ];
        let mut table = vec![Some(LinkId(9)); 100];
        for dense in &windows {
            let c = Catchments::from_dense(dense);
            c.fill_links(&mut table);
            assert_eq!(&table, dense);
            assert_eq!(table, c.dense());
            for (i, &link) in table.iter().enumerate() {
                assert_eq!(link, c.get(AsIndex(i as u32)), "AS {i}");
            }
        }
        // Rows emptied by `set` leave no stale bits behind.
        let mut c = sample();
        c.set(AsIndex(0), Some(LinkId(1)));
        c.set(AsIndex(1), None);
        c.fill_links(&mut table);
        assert_eq!(
            table,
            vec![Some(LinkId(1)), None, Some(LinkId(1)), None, None]
        );
    }

    /// `member_sums` against a per-AS `get` reference: value vectors
    /// shorter and longer than the catchment, sparse and dense, and a row
    /// emptied by `set`.
    #[test]
    fn member_sums_match_per_as_lookup() {
        let dense: Vec<Option<LinkId>> = (0..200)
            .map(|i| (i % 7 != 3).then_some(LinkId((i * 5 % 4) as u8)))
            .collect();
        let mut emptied = Catchments::from_dense(&dense);
        for (i, &link) in dense.iter().enumerate() {
            if link == Some(LinkId(2)) {
                emptied.set(AsIndex(i as u32), None);
            }
        }
        for c in [
            Catchments::from_dense(&dense),
            emptied,
            Catchments::unassigned(70),
        ] {
            for values in [
                (0..200u64).map(|i| i * 3 + 1).collect::<Vec<_>>(),
                (0..130u64)
                    .map(|i| u64::from(i % 61 == 0) * 1_000)
                    .collect(),
                (0..300u64).map(|i| i % 5).collect(),
                Vec::new(),
            ] {
                let mut want = [0u64; 4];
                for (i, &v) in values.iter().enumerate().take(c.len()) {
                    if let Some(l) = c.get(AsIndex(i as u32)) {
                        want[l.us()] += v;
                    }
                }
                let mut got = [0u64; 4];
                for (l, v) in c.member_sums(&values) {
                    got[l.us()] += v;
                }
                assert_eq!(got, want, "values of length {}", values.len());
            }
        }
    }

    /// `distinct_among_words` counts link rows met plus one for
    /// unassigned members, and a member past the catchment's range panics
    /// like `get`, whatever order the words come in.
    #[test]
    fn distinct_among_counts_parts_and_rejects_stray_members() {
        let c = sample();
        let sparse = MemberWords::from_bitset(&[0, 5, 0, 1 << 63]);
        assert_eq!(sparse.words(), [(1, 5), (3, 1 << 63)]);
        assert_eq!(sparse.end(), 256);
        assert_eq!(MemberWords::from_words([(3, 1), (1, 1 << 63)]).end(), 193);
        assert_eq!(MemberWords::from_bitset(&[0, 0]), MemberWords::default());
        let distinct =
            |c: &Catchments, bits: &[u64]| c.distinct_among_words(&MemberWords::from_bitset(bits));
        assert_eq!(c.distinct_among_words(&MemberWords::default()), 0);
        assert_eq!(distinct(&c, &[0b00110]), 1);
        assert_eq!(distinct(&c, &[0b01011]), 3);
        assert_eq!(distinct(&c, &[0b11111, 0]), 3);
        let stray = |c: &Catchments, words: &[(usize, u64)]| {
            let members = MemberWords::from_words(words.iter().copied());
            std::panic::catch_unwind(|| c.distinct_among_words(&members)).is_err()
        };
        assert!(stray(&c, &[(0, 1 << 5)]), "AS 5 is past a 5-AS catchment");
        assert!(stray(&c, &[(1, 1)]), "AS 64 is past a 5-AS catchment");
        let wide = Catchments::unassigned(70);
        assert_eq!(
            wide.distinct_among_words(&MemberWords::from_words([(1, 1 << 5)])),
            1
        );
        assert!(
            stray(&wide, &[(1, 1 << 6)]),
            "AS 70 is past a 70-AS catchment"
        );
        for order in [[(1, 1 << 6), (0, 1)], [(0, 1), (1, 1 << 6)]] {
            assert!(stray(&wide, &order), "AS 70 in {order:?}");
        }
        assert!(
            stray(&wide, &[(usize::MAX, 1), (0, 1)]),
            "a word index past any range"
        );
    }

    #[test]
    fn serde_wire_format_is_the_dense_assignment() {
        let c = sample();
        let json = serde_json::to_string(&c).unwrap();
        assert_eq!(json, r#"{"assignment":[0,1,1,null,null]}"#);
        let back: Catchments = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }

    /// The bitset-vs-dense oracle: single-pass extraction must equal the
    /// dense reference build, control plane and data plane, on every
    /// configuration of a schedule shaped like the paper's three phases
    /// (location subsets, prepending, provider-neighbor poisoning) — over
    /// the small topology and the paper-sized one. The schedule generator
    /// lives downstream in `trackdown-core`, so the phases are enumerated
    /// here from the same ingredients.
    #[test]
    fn extraction_matches_the_dense_reference() {
        use crate::engine::{BgpEngine, EngineConfig, ForwardingWalker};
        use crate::origin::{LinkAnnouncement, OriginAs};
        use trackdown_topology::gen::{generate, TopologyConfig};

        for (cfg, pops, max_removals, poisons_per_pop) in [
            (TopologyConfig::small(13), 4, 2, 3),
            (TopologyConfig::paper(13), 7, 1, 1),
        ] {
            let g = generate(&cfg);
            let topo = &g.topology;
            let origin = OriginAs::peering_style(&g, pops);
            let engine = BgpEngine::new(topo, &EngineConfig::default());
            let links: Vec<LinkId> = origin.link_ids().collect();
            let mut schedule: Vec<Vec<LinkAnnouncement>> = Vec::new();
            // Locations: every footprint missing at most `max_removals`
            // links (bit k of `mask` withdraws link k).
            for mask in 0u32..(1 << links.len()) {
                if mask.count_ones() as usize <= max_removals {
                    schedule.push(
                        links
                            .iter()
                            .enumerate()
                            .filter(|(k, _)| mask & (1 << k) == 0)
                            .map(|(_, &l)| LinkAnnouncement::plain(l))
                            .collect(),
                    );
                }
            }
            // Prepending: one prepended link on the full footprint.
            for &p in &links {
                schedule.push(
                    links
                        .iter()
                        .map(|&l| {
                            if l == p {
                                LinkAnnouncement::prepended(l)
                            } else {
                                LinkAnnouncement::plain(l)
                            }
                        })
                        .collect(),
                );
            }
            // Poisoning: neighbors of each PoP provider, poisoned on
            // that provider's link.
            for &p in &links {
                let provider = topo
                    .index_of(origin.links[p.us()].provider)
                    .expect("PoP provider in topology");
                for &(victim, _) in topo.neighbors(provider).iter().take(poisons_per_pop) {
                    schedule.push(
                        links
                            .iter()
                            .map(|&l| {
                                if l == p {
                                    LinkAnnouncement::poisoned(l, vec![topo.asn_of(victim)])
                                } else {
                                    LinkAnnouncement::plain(l)
                                }
                            })
                            .collect(),
                    );
                }
            }
            let mut walker = ForwardingWalker::new();
            for (k, anns) in schedule.iter().enumerate() {
                let out = engine.propagate_config(&origin, anns).unwrap();
                assert_eq!(
                    Catchments::from_control_plane(&out),
                    Catchments::from_dense(&out.control_catchments()),
                    "control plane, config {k}"
                );
                let dense: Vec<Option<LinkId>> = (0..topo.num_ases())
                    .map(|i| walker.walk(&out, AsIndex(i as u32)).map(|w| w.link))
                    .collect();
                let dp = Catchments::from_data_plane(&out);
                assert_eq!(dp, Catchments::from_dense(&dense), "data plane, config {k}");
                assert_eq!(dp.dense(), dense, "data plane round trip, config {k}");
            }
        }
    }

    #[test]
    fn divergence_counts_moves() {
        let a = sample();
        let mut b = a.clone();
        assert_eq!(a.divergence(&b), 0.0);
        b.set(AsIndex(0), Some(LinkId(1)));
        assert!((a.divergence(&b) - 1.0 / 3.0).abs() < 1e-9);
        // Unassigned on either side is ignored.
        b.set(AsIndex(1), None);
        assert!((a.divergence(&b) - 1.0 / 2.0).abs() < 1e-9);
        let empty = Catchments::unassigned(5);
        assert_eq!(a.divergence(&empty), 0.0);
    }
}
