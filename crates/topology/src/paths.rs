//! AS-paths: the ordered AS-level route attribute carried by BGP
//! announcements, including prepending and BGP-poisoning support.

use crate::Asn;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An AS-path as carried in a BGP announcement.
///
/// The path is stored *origin-last*: `path[0]` is the AS that most recently
/// forwarded the announcement (the neighbor you heard it from) and
/// `path[len-1]` is the origin. This matches the on-the-wire AS_SEQUENCE
/// ordering.
///
/// ```
/// use trackdown_topology::{Asn, AsPath};
/// let p = AsPath::from_origin(Asn(47065));
/// let p = p.prepended_by(Asn(1916));
/// assert_eq!(p.origin(), Some(Asn(47065)));
/// assert_eq!(p.first_hop(), Some(Asn(1916)));
/// assert_eq!(p.len(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AsPath(Vec<Asn>);

impl AsPath {
    /// An empty AS-path (only valid transiently while building).
    pub fn empty() -> AsPath {
        AsPath(Vec::new())
    }

    /// A path containing just the originating AS.
    pub fn from_origin(origin: Asn) -> AsPath {
        AsPath(vec![origin])
    }

    /// Build from a sequence ordered neighbor-first, origin-last.
    pub fn from_sequence(seq: impl IntoIterator<Item = Asn>) -> AsPath {
        AsPath(seq.into_iter().collect())
    }

    /// Number of AS hops in the path, counting prepend repetitions.
    /// This is the length BGP's tiebreak compares.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the path carries no ASes.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The originating AS (last element), if any.
    pub fn origin(&self) -> Option<Asn> {
        self.0.last().copied()
    }

    /// The most recent forwarder (first element), if any.
    pub fn first_hop(&self) -> Option<Asn> {
        self.0.first().copied()
    }

    /// All ASes in order (neighbor-first, origin-last).
    pub fn as_slice(&self) -> &[Asn] {
        &self.0
    }

    /// Returns a new path with `asn` prepended once (as done by every AS
    /// when propagating an announcement to a neighbor).
    pub fn prepended_by(&self, asn: Asn) -> AsPath {
        let mut v = Vec::with_capacity(self.0.len() + 1);
        v.push(asn);
        v.extend_from_slice(&self.0);
        AsPath(v)
    }

    /// Returns a new path with `asn` prepended `times` times — BGP AS-path
    /// prepending for inbound traffic engineering (§II of the paper).
    pub fn prepended_by_times(&self, asn: Asn, times: usize) -> AsPath {
        let mut v = Vec::with_capacity(self.0.len() + times);
        v.extend(std::iter::repeat_n(asn, times));
        v.extend_from_slice(&self.0);
        AsPath(v)
    }

    /// True if `asn` appears anywhere in the path. BGP loop prevention
    /// rejects announcements whose path contains the receiver's own ASN;
    /// BGP poisoning exploits exactly this check.
    pub fn contains(&self, asn: Asn) -> bool {
        self.0.contains(&asn)
    }

    /// The set of distinct ASes on the path, in first-seen order.
    pub fn distinct(&self) -> Vec<Asn> {
        let mut seen = Vec::new();
        for &a in &self.0 {
            if !seen.contains(&a) {
                seen.push(a);
            }
        }
        seen
    }

    /// Build a poisoned origination path, PEERING-style: the origin
    /// sandwiches each poisoned AS with its own ASN so false link inference
    /// is impossible and attribution is trivial (§IV-e of the paper).
    ///
    /// For origin `o` and poisons `[u, v]` the result is `o u o v o`
    /// (neighbor-first ordering; the true origin remains last).
    pub fn poisoned_origin(origin: Asn, poisons: &[Asn]) -> AsPath {
        let mut v = Vec::with_capacity(poisons.len() * 2 + 1);
        v.push(origin);
        for &p in poisons {
            v.push(p);
            v.push(origin);
        }
        AsPath(v)
    }

    /// Extract the poisoned ASes from a path built by
    /// [`AsPath::poisoned_origin`] (possibly after further propagation and
    /// prepending): every AS that appears strictly between two occurrences
    /// of the origin ASN.
    pub fn poisons_of(&self, origin: Asn) -> Vec<Asn> {
        let mut out = Vec::new();
        let idx: Vec<usize> = self
            .0
            .iter()
            .enumerate()
            .filter(|(_, &a)| a == origin)
            .map(|(i, _)| i)
            .collect();
        for w in idx.windows(2) {
            for &a in &self.0[w[0] + 1..w[1]] {
                if a != origin && !out.contains(&a) {
                    out.push(a);
                }
            }
        }
        out
    }
}

impl fmt::Display for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for a in &self.0 {
            if !first {
                f.write_str(" ")?;
            }
            write!(f, "{}", a.0)?;
            first = false;
        }
        Ok(())
    }
}

impl fmt::Debug for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AsPath[{}]", self)
    }
}

impl FromIterator<Asn> for AsPath {
    fn from_iter<T: IntoIterator<Item = Asn>>(iter: T) -> Self {
        AsPath(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: &[u32]) -> AsPath {
        AsPath::from_sequence(v.iter().map(|&x| Asn(x)))
    }

    #[test]
    fn origin_and_first_hop() {
        let path = p(&[3, 2, 1]);
        assert_eq!(path.origin(), Some(Asn(1)));
        assert_eq!(path.first_hop(), Some(Asn(3)));
        assert_eq!(path.len(), 3);
        assert!(!path.is_empty());
        assert_eq!(AsPath::empty().origin(), None);
    }

    #[test]
    fn prepend_semantics() {
        let path = AsPath::from_origin(Asn(1))
            .prepended_by(Asn(2))
            .prepended_by(Asn(3));
        assert_eq!(path.as_slice(), &[Asn(3), Asn(2), Asn(1)]);
        let traffic_eng = path.prepended_by_times(Asn(4), 4);
        assert_eq!(traffic_eng.len(), 7);
        assert_eq!(traffic_eng.first_hop(), Some(Asn(4)));
        assert_eq!(traffic_eng.distinct().len(), 4);
    }

    #[test]
    fn loop_detection() {
        let path = p(&[3, 2, 1]);
        assert!(path.contains(Asn(2)));
        assert!(!path.contains(Asn(9)));
    }

    #[test]
    fn poison_sandwich_roundtrip() {
        let o = Asn(47065);
        let path = AsPath::poisoned_origin(o, &[Asn(10), Asn(20)]);
        assert_eq!(path.as_slice(), &[o, Asn(10), o, Asn(20), o],);
        assert_eq!(path.origin(), Some(o));
        assert_eq!(path.poisons_of(o), vec![Asn(10), Asn(20)]);
    }

    #[test]
    fn poisons_survive_propagation() {
        let o = Asn(47065);
        let path = AsPath::poisoned_origin(o, &[Asn(10)])
            .prepended_by(Asn(100))
            .prepended_by(Asn(200));
        assert_eq!(path.poisons_of(o), vec![Asn(10)]);
    }

    #[test]
    fn no_poisons_in_clean_path() {
        assert!(p(&[3, 2, 1]).poisons_of(Asn(1)).is_empty());
        assert!(AsPath::from_origin(Asn(1)).poisons_of(Asn(1)).is_empty());
    }

    #[test]
    fn display_format() {
        assert_eq!(p(&[3, 2, 1]).to_string(), "3 2 1");
        assert_eq!(AsPath::empty().to_string(), "");
    }
}
