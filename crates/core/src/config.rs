//! Announcement configurations: the paper's `c = ⟨A_c; P_c; Q_c⟩` triple
//! (§III).
//!
//! * `A` — the set of peering links announcing the prefix;
//! * `P ⊆ A` — the links announcing with AS-path prepending;
//! * `Q` — a map from links in `A` to the ASes poisoned on that link.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use trackdown_bgp::{CommunitySet, LinkAnnouncement, LinkId, OriginAs};
use trackdown_topology::Asn;

/// Which generation technique produced a configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// §III-A-a: varying announcement locations.
    Location,
    /// §III-A-b: varying AS-path length with prepending.
    Prepend,
    /// §III-A-c: controlling propagation with poisoning.
    Poison,
    /// Export scoping with BGP action communities (the paper's §VIII
    /// future-work direction, implemented as an extension phase).
    Community,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Phase::Location => "location",
            Phase::Prepend => "prepending",
            Phase::Poison => "poisoning",
            Phase::Community => "communities",
        })
    }
}

/// Errors raised when validating a configuration against an origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `A` is empty — the prefix would be withdrawn entirely.
    EmptyAnnouncement,
    /// A link in `P` or `Q` is not in `A`.
    NotAnnounced(LinkId),
    /// A link does not exist on the origin.
    UnknownLink(LinkId),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::EmptyAnnouncement => write!(f, "empty announcement set"),
            ConfigError::NotAnnounced(l) => {
                write!(f, "link {l} referenced by P or Q but not in A")
            }
            ConfigError::UnknownLink(l) => write!(f, "link {l} not on this origin"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// One announcement configuration `⟨A; P; Q⟩`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnnouncementConfig {
    /// `A`: links announcing the prefix.
    pub announce: BTreeSet<LinkId>,
    /// `P ⊆ A`: links announcing with prepending.
    pub prepend: BTreeSet<LinkId>,
    /// `Q`: per-link poisoned ASes (links absent from the map poison
    /// nothing).
    pub poison: BTreeMap<LinkId, Vec<Asn>>,
    /// Per-link action communities (extension beyond the paper's triple;
    /// empty for all paper-schedule configurations).
    #[serde(default)]
    pub communities: BTreeMap<LinkId, CommunitySet>,
    /// The technique that generated this configuration.
    pub phase: Phase,
}

impl AnnouncementConfig {
    /// Plain anycast from the given links.
    pub fn anycast(links: impl IntoIterator<Item = LinkId>) -> AnnouncementConfig {
        AnnouncementConfig {
            announce: links.into_iter().collect(),
            prepend: BTreeSet::new(),
            poison: BTreeMap::new(),
            communities: BTreeMap::new(),
            phase: Phase::Location,
        }
    }

    /// Plain anycast from all `n` links — the baseline configuration.
    pub fn anycast_all(n: usize) -> AnnouncementConfig {
        AnnouncementConfig::anycast((0..n as u8).map(LinkId))
    }

    /// Add prepending at one link (marks the configuration as a
    /// prepending-phase config).
    pub fn with_prepend(mut self, link: LinkId) -> AnnouncementConfig {
        self.prepend.insert(link);
        self.phase = Phase::Prepend;
        self
    }

    /// Add poisoning on one link (marks the configuration as a
    /// poisoning-phase config).
    pub fn with_poison(mut self, link: LinkId, asns: Vec<Asn>) -> AnnouncementConfig {
        self.poison.insert(link, asns);
        self.phase = Phase::Poison;
        self
    }

    /// Attach action communities on one link (marks the configuration as
    /// a community-phase config).
    pub fn with_communities(
        mut self,
        link: LinkId,
        communities: CommunitySet,
    ) -> AnnouncementConfig {
        self.communities.insert(link, communities);
        self.phase = Phase::Community;
        self
    }

    /// Validate against an origin: `A` non-empty, all links exist,
    /// `P ⊆ A`, `keys(Q) ⊆ A`. (Per-link poison limits are enforced by
    /// [`OriginAs::build_injections`].)
    pub fn validate(&self, origin: &OriginAs) -> Result<(), ConfigError> {
        if self.announce.is_empty() {
            return Err(ConfigError::EmptyAnnouncement);
        }
        for &l in self
            .announce
            .iter()
            .chain(self.prepend.iter())
            .chain(self.poison.keys())
            .chain(self.communities.keys())
        {
            if origin.link(l).is_none() {
                return Err(ConfigError::UnknownLink(l));
            }
        }
        for &l in self
            .prepend
            .iter()
            .chain(self.poison.keys())
            .chain(self.communities.keys())
        {
            if !self.announce.contains(&l) {
                return Err(ConfigError::NotAnnounced(l));
            }
        }
        Ok(())
    }

    /// Lower to the per-link announcements the BGP origin consumes.
    pub fn to_link_announcements(&self) -> Vec<LinkAnnouncement> {
        self.announce
            .iter()
            .map(|&l| LinkAnnouncement {
                link: l,
                prepend: self.prepend.contains(&l),
                poisons: self.poison.get(&l).cloned().unwrap_or_default(),
                communities: self.communities.get(&l).cloned().unwrap_or_default(),
            })
            .collect()
    }

    /// Canonical announcement footprint: a key over everything that
    /// affects routing (`A`, `P`, `Q`, communities) and nothing that does
    /// not (`phase`, empty poison lists, empty community sets). Two
    /// configurations with equal keys lower to identical injections and
    /// therefore identical routing outcomes.
    pub fn footprint_key(&self) -> String {
        // The Display rendering is already canonical: BTree iteration
        // order, no phase, empty Q/community entries skipped.
        self.to_string()
    }
}

impl fmt::Display for AnnouncementConfig {
    /// Formats like the paper: `⟨{l1,l2}; {l1}; {l2:[a,b]}⟩`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{{")?;
        for (k, l) in self.announce.iter().enumerate() {
            if k > 0 {
                write!(f, ",")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, "}}; {{")?;
        for (k, l) in self.prepend.iter().enumerate() {
            if k > 0 {
                write!(f, ",")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, "}}; {{")?;
        let mut first = true;
        for (l, asns) in &self.poison {
            if asns.is_empty() {
                continue;
            }
            if !first {
                write!(f, ",")?;
            }
            first = false;
            write!(f, "{l}:[")?;
            for (k, a) in asns.iter().enumerate() {
                if k > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{}", a.0)?;
            }
            write!(f, "]")?;
        }
        write!(f, "}}")?;
        let with_communities: Vec<_> = self
            .communities
            .iter()
            .filter(|(_, cs)| !cs.is_empty())
            .collect();
        if !with_communities.is_empty() {
            write!(f, "; {{")?;
            for (k, (l, cs)) in with_communities.iter().enumerate() {
                if k > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{l}:")?;
                for (j, c) in cs.iter().enumerate() {
                    if j > 0 {
                        write!(f, "+")?;
                    }
                    write!(f, "{c}")?;
                }
            }
            write!(f, "}}")?;
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trackdown_topology::gen::{generate, TopologyConfig};

    fn origin() -> OriginAs {
        let g = generate(&TopologyConfig::small(1));
        OriginAs::peering_style(&g, 4)
    }

    #[test]
    fn anycast_all_builds_baseline() {
        let c = AnnouncementConfig::anycast_all(4);
        assert_eq!(c.announce.len(), 4);
        assert!(c.prepend.is_empty());
        assert!(c.poison.is_empty());
        assert_eq!(c.phase, Phase::Location);
        assert!(c.validate(&origin()).is_ok());
    }

    #[test]
    fn validation_rules() {
        let o = origin();
        let empty = AnnouncementConfig::anycast(std::iter::empty());
        assert_eq!(empty.validate(&o), Err(ConfigError::EmptyAnnouncement));

        let unknown = AnnouncementConfig::anycast([LinkId(9)]);
        assert_eq!(
            unknown.validate(&o),
            Err(ConfigError::UnknownLink(LinkId(9)))
        );

        // Prepend at a link not in A.
        let bad_p = AnnouncementConfig::anycast([LinkId(0)]).with_prepend(LinkId(1));
        assert_eq!(
            bad_p.validate(&o),
            Err(ConfigError::NotAnnounced(LinkId(1)))
        );

        // Poison on a link not in A.
        let bad_q = AnnouncementConfig::anycast([LinkId(0)]).with_poison(LinkId(2), vec![Asn(5)]);
        assert_eq!(
            bad_q.validate(&o),
            Err(ConfigError::NotAnnounced(LinkId(2)))
        );
    }

    #[test]
    fn lowering_to_link_announcements() {
        let c = AnnouncementConfig::anycast([LinkId(0), LinkId(1), LinkId(2)])
            .with_prepend(LinkId(1))
            .with_poison(LinkId(2), vec![Asn(7)]);
        let anns = c.to_link_announcements();
        assert_eq!(anns.len(), 3);
        assert!(!anns[0].prepend && anns[0].poisons.is_empty());
        assert!(anns[1].prepend);
        assert_eq!(anns[2].poisons, vec![Asn(7)]);
    }

    #[test]
    fn paper_example_from_section_iii() {
        // c = ⟨{l1,l2}; {l1}; {l1:∅, l2:{a,b}}⟩ over links l1..l4.
        let c = AnnouncementConfig::anycast([LinkId(1), LinkId(2)])
            .with_prepend(LinkId(1))
            .with_poison(LinkId(2), vec![Asn(100), Asn(200)]);
        assert_eq!(c.to_string(), "⟨{l1,l2}; {l1}; {l2:[100,200]}⟩");
    }

    #[test]
    fn display_skips_empty_poison_lists() {
        let c = AnnouncementConfig::anycast([LinkId(0)]).with_poison(LinkId(0), vec![]);
        assert_eq!(c.to_string(), "⟨{l0}; {}; {}⟩");
    }

    #[test]
    fn serde_roundtrip() {
        let c = AnnouncementConfig::anycast([LinkId(0), LinkId(3)])
            .with_prepend(LinkId(3))
            .with_poison(LinkId(0), vec![Asn(1916)]);
        let json = serde_json::to_string(&c).unwrap();
        let back: AnnouncementConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
