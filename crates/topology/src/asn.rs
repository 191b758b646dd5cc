//! Autonomous System numbers.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// An Autonomous System number (32-bit, per RFC 6793).
///
/// `Asn` is a transparent newtype over `u32` used throughout the stack to
/// keep AS identifiers distinct from array indices and counters.
///
/// ```
/// use trackdown_topology::Asn;
/// let a = Asn(47065);
/// assert_eq!(a.to_string(), "AS47065");
/// assert_eq!("AS47065".parse::<Asn>().unwrap(), a);
/// assert_eq!("47065".parse::<Asn>().unwrap(), a);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Asn(pub u32);

impl Asn {
    /// Returns true if this ASN is reserved for private use
    /// (64512-65534 or 4200000000-4294967294, RFC 6996).
    pub fn is_private(self) -> bool {
        matches!(self.0, 64512..=65534 | 4_200_000_000..=4_294_967_294)
    }
}

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl fmt::Debug for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl From<u32> for Asn {
    fn from(v: u32) -> Self {
        Asn(v)
    }
}

impl From<Asn> for u32 {
    fn from(a: Asn) -> Self {
        a.0
    }
}

/// Error returned when parsing an [`Asn`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAsnError(pub String);

impl fmt::Display for ParseAsnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid ASN: {:?}", self.0)
    }
}

impl std::error::Error for ParseAsnError {}

impl FromStr for Asn {
    type Err = ParseAsnError;

    /// Accepts `"47065"`, `"AS47065"`, or `"as47065"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let digits = s
            .strip_prefix("AS")
            .or_else(|| s.strip_prefix("as"))
            .or_else(|| s.strip_prefix("As"))
            .unwrap_or(s);
        digits
            .parse::<u32>()
            .map(Asn)
            .map_err(|_| ParseAsnError(s.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_roundtrip() {
        let a = Asn(1916);
        assert_eq!(a.to_string(), "AS1916");
        assert_eq!(a.to_string().parse::<Asn>().unwrap(), a);
    }

    #[test]
    fn parse_accepts_bare_and_prefixed() {
        assert_eq!("12859".parse::<Asn>().unwrap(), Asn(12859));
        assert_eq!("as12859".parse::<Asn>().unwrap(), Asn(12859));
        assert_eq!("As12859".parse::<Asn>().unwrap(), Asn(12859));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<Asn>().is_err());
        assert!("ASX".parse::<Asn>().is_err());
        assert!("-5".parse::<Asn>().is_err());
        assert!("4294967296".parse::<Asn>().is_err()); // > u32::MAX
    }

    #[test]
    fn reserved_ranges() {
        assert!(Asn(64512).is_private());
        assert!(Asn(65534).is_private());
        assert!(!Asn(64511).is_private());
        assert!(Asn(4_200_000_000).is_private());
    }

    #[test]
    fn ordering_matches_numeric() {
        assert!(Asn(100) < Asn(200));
        assert_eq!(u32::from(Asn(7)), 7);
        assert_eq!(Asn::from(9u32), Asn(9));
    }
}
