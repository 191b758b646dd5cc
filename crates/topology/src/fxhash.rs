//! A fast hasher for integer keys.
//!
//! The standard library's SipHash resists hash flooding, which costs
//! several times more per lookup than the keys here need: ASNs, AS
//! indices and packed ASN pairs, all taken from a topology the program
//! built or loaded itself. [`FxHasher`] is the multiply-rotate word hash
//! rustc uses for the same kind of keys.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier of the Fx word hash (an odd constant with well-mixed bits).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Word-at-a-time multiply-rotate hasher for integer keys. Not resistant
/// to adversarial keys: use it only for keys the program controls.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        for &b in chunks.remainder() {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The multiply leaves its best-mixed bits at the top, while the
    /// table picks buckets from the bottom: rotate them down.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed through [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AsIndex, Asn};

    #[test]
    fn maps_behave_like_std_maps() {
        let mut m: FxHashMap<Asn, AsIndex> = FxHashMap::default();
        for i in 0..10_000u32 {
            m.insert(Asn(i * 7 + 100), AsIndex(i));
        }
        for i in 0..10_000u32 {
            assert_eq!(m.get(&Asn(i * 7 + 100)), Some(&AsIndex(i)));
            assert_eq!(m.get(&Asn(i * 7 + 101)), None);
        }
        let s: FxHashSet<u64> = (0..1000u64).map(|i| i << 32 | 5).collect();
        assert_eq!(s.len(), 1000);
        assert!(s.contains(&(999 << 32 | 5)));
    }

    #[test]
    fn byte_writes_cover_every_length() {
        let hash = |b: &[u8]| {
            let mut h = FxHasher::default();
            h.write(b);
            h.finish()
        };
        let all: FxHashSet<u64> = (0..20).map(|n| hash(&[1u8; 20][..n])).collect();
        assert_eq!(all.len(), 20, "prefixes of one buffer hash apart");
    }
}
