//! CAIDA `as-rel` text format support.
//!
//! The paper consumes CAIDA's AS-relationship database \[28\] to pick
//! poisoning targets. The format is line-oriented:
//!
//! ```text
//! # comment
//! <provider-asn>|<customer-asn>|-1
//! <peer-asn>|<peer-asn>|0
//! ```
//!
//! CAIDA's serial-2 files add a fourth field naming the inference source
//! (`<provider-asn>|<customer-asn>|-1|bgp`); it is accepted and ignored.
//!
//! This module reads and writes that format so synthetic topologies can be
//! exported and (externally produced) relationship files imported.

use crate::{topology_from_links, Asn, LinkKind, Topology, TopologyError};
use std::fmt;

/// Errors raised while parsing an `as-rel` document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsRelError {
    /// A non-comment line did not have three or four `|`-separated fields.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// The offending content.
        content: String,
    },
    /// A field could not be parsed as an ASN or relationship code.
    BadField {
        /// 1-based line number.
        line: usize,
        /// The offending field.
        field: String,
    },
    /// The links formed an invalid topology (duplicate link, self loop…).
    Topology(TopologyError),
}

impl fmt::Display for AsRelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsRelError::BadLine { line, content } => {
                write!(
                    f,
                    "line {line}: expected `a|b|rel[|source]`, got {content:?}"
                )
            }
            AsRelError::BadField { line, field } => {
                write!(f, "line {line}: bad field {field:?}")
            }
            AsRelError::Topology(e) => write!(f, "invalid topology: {e}"),
        }
    }
}

impl std::error::Error for AsRelError {}

impl From<TopologyError> for AsRelError {
    fn from(e: TopologyError) -> Self {
        AsRelError::Topology(e)
    }
}

/// Parse an `as-rel` document into a [`Topology`].
///
/// Comment lines (starting with `#`) and blank lines are ignored.
pub fn parse_as_rel(text: &str) -> Result<Topology, AsRelError> {
    let mut links = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        // Serial-1 lines have three fields; serial-2 lines append the
        // inference source, which carries nothing the topology needs.
        let mut parts = trimmed.split('|');
        let fields = (parts.next(), parts.next(), parts.next(), parts.next());
        let (a, b, code) = match (fields, parts.next()) {
            ((Some(a), Some(b), Some(c), _), None) => (a, b, c),
            _ => {
                return Err(AsRelError::BadLine {
                    line,
                    content: trimmed.to_string(),
                })
            }
        };
        let asn_a: Asn = a.trim().parse().map_err(|_| AsRelError::BadField {
            line,
            field: a.to_string(),
        })?;
        let asn_b: Asn = b.trim().parse().map_err(|_| AsRelError::BadField {
            line,
            field: b.to_string(),
        })?;
        let code: i8 = code.trim().parse().map_err(|_| AsRelError::BadField {
            line,
            field: code.to_string(),
        })?;
        let kind = LinkKind::from_caida_code(code).ok_or_else(|| AsRelError::BadField {
            line,
            field: code.to_string(),
        })?;
        links.push((asn_a, asn_b, kind));
    }
    Ok(topology_from_links(links)?)
}

/// Render a [`Topology`] as a Graphviz DOT digraph for visualization:
/// provider→customer links as directed edges, peerings as undirected
/// (dashed, `dir=none`) edges.
pub fn to_dot(topo: &Topology) -> String {
    let mut out = String::with_capacity(topo.num_links() * 32 + 64);
    out.push_str("digraph as_topology {\n");
    out.push_str("  rankdir=TB;\n  node [shape=ellipse, fontsize=10];\n");
    for &asn in topo.asns() {
        out.push_str(&format!("  \"{}\";\n", asn.0));
    }
    for link in topo.links() {
        match link.kind {
            crate::LinkKind::ProviderCustomer => {
                out.push_str(&format!("  \"{}\" -> \"{}\";\n", link.a.0, link.b.0));
            }
            crate::LinkKind::PeerPeer => {
                out.push_str(&format!(
                    "  \"{}\" -> \"{}\" [dir=none, style=dashed];\n",
                    link.a.0, link.b.0
                ));
            }
        }
    }
    out.push_str("}\n");
    out
}

/// Serialize a [`Topology`] to `as-rel` text, one link per line, with a
/// header comment. Round-trips through [`parse_as_rel`].
pub fn to_as_rel(topo: &Topology) -> String {
    let mut out = String::with_capacity(topo.num_links() * 16 + 64);
    out.push_str("# trackdown-topology as-rel export\n");
    out.push_str("# <provider|peer>|<customer|peer>|<-1 p2c, 0 p2p>\n");
    for link in topo.links() {
        out.push_str(&format!(
            "{}|{}|{}\n",
            link.a.0,
            link.b.0,
            link.kind.caida_code()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NeighborKind;

    #[test]
    fn parses_minimal_document() {
        let doc = "# header\n1|2|-1\n2|3|0\n\n";
        let topo = parse_as_rel(doc).unwrap();
        assert_eq!(topo.num_ases(), 3);
        assert_eq!(topo.num_links(), 2);
        let i1 = topo.index_of(Asn(1)).unwrap();
        let i2 = topo.index_of(Asn(2)).unwrap();
        assert_eq!(topo.relationship(i1, i2), Some(NeighborKind::Customer));
    }

    #[test]
    fn roundtrip() {
        let doc = "10|20|-1\n10|30|-1\n20|30|0\n";
        let topo = parse_as_rel(doc).unwrap();
        let out = to_as_rel(&topo);
        let topo2 = parse_as_rel(&out).unwrap();
        assert_eq!(topo.links(), topo2.links());
        assert_eq!(topo.num_ases(), topo2.num_ases());
    }

    #[test]
    fn generated_topology_roundtrips() {
        let g = crate::gen::generate(&crate::gen::TopologyConfig::small(21));
        let out = to_as_rel(&g.topology);
        let back = parse_as_rel(&out).unwrap();
        assert_eq!(back.num_ases(), g.topology.num_ases());
        assert_eq!(back.num_links(), g.topology.num_links());
    }

    #[test]
    fn internet_preset_roundtrips_through_as_rel() {
        // The CAIDA-loader path at the scale it exists for: an 80k-AS
        // power-law graph survives serialize → parse with its full link
        // set intact (`parse(serialize(topo)) == topo`).
        let g = crate::gen::generate(&crate::gen::TopologyConfig::internet(21));
        assert_eq!(g.topology.num_ases(), 80_000);
        let out = to_as_rel(&g.topology);
        let back = parse_as_rel(&out).unwrap();
        assert_eq!(back.num_ases(), g.topology.num_ases());
        assert_eq!(back.links(), g.topology.links());
        assert_eq!(back.asns(), g.topology.asns());
    }

    #[test]
    fn dot_export_structure() {
        let doc = "1|2|-1\n2|3|0\n";
        let topo = parse_as_rel(doc).unwrap();
        let dot = to_dot(&topo);
        assert!(dot.starts_with("digraph as_topology {"));
        assert!(dot.trim_end().ends_with('}'));
        assert!(dot.contains("\"1\" -> \"2\";"));
        assert!(dot.contains("\"2\" -> \"3\" [dir=none, style=dashed];"));
        // One node line per AS, one edge line per link.
        assert_eq!(dot.matches(" -> ").count(), topo.num_links());
    }

    #[test]
    fn accepts_serial2_source_field() {
        let doc = "# serial-2\n1|2|-1|bgp\n2|3|0|mlp\n3|4|-1|\n";
        let topo = parse_as_rel(doc).unwrap();
        let serial1 = parse_as_rel("1|2|-1\n2|3|0\n3|4|-1\n").unwrap();
        assert_eq!(topo.links(), serial1.links());
        assert_eq!(topo.asns(), serial1.asns());
        // The source field is ignored, not parsed: the relationship code
        // is still checked.
        assert!(matches!(
            parse_as_rel("1|2|7|bgp"),
            Err(AsRelError::BadField { .. })
        ));
    }

    #[test]
    fn rejects_bad_lines() {
        assert!(matches!(
            parse_as_rel("1"),
            Err(AsRelError::BadLine { line: 1, .. })
        ));
        assert!(matches!(
            parse_as_rel("1|2"),
            Err(AsRelError::BadLine { line: 1, .. })
        ));
        assert!(matches!(
            parse_as_rel("1|2|-1\n1|3|-1|bgp|junk"),
            Err(AsRelError::BadLine { line: 2, .. })
        ));
        assert!(matches!(
            parse_as_rel("1|2|-1|bgp|x|y"),
            Err(AsRelError::BadLine { .. })
        ));
    }

    #[test]
    fn rejects_bad_fields() {
        assert!(matches!(
            parse_as_rel("x|2|-1"),
            Err(AsRelError::BadField { .. })
        ));
        assert!(matches!(
            parse_as_rel("1|2|7"),
            Err(AsRelError::BadField { .. })
        ));
    }

    #[test]
    fn rejects_duplicate_links() {
        assert!(matches!(
            parse_as_rel("1|2|-1\n2|1|0"),
            Err(AsRelError::Topology(_))
        ));
    }
}
