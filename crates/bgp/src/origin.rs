//! The origin AS: a PEERING-style network with multiple points of presence,
//! each buying transit from one provider (Table I of the paper).
//!
//! The origin is modeled as a *virtual* node: it is not part of the
//! [`Topology`]. Instead, each announcement is injected directly into the
//! Adj-RIB-In of the corresponding PoP's provider, tagged with the peering
//! [`LinkId`] it entered through. This keeps the topology immutable across
//! the hundreds of announcement configurations an experiment deploys.

use crate::community::CommunitySet;
use crate::route::{LinkId, Prefix};
use serde::{Deserialize, Serialize};
use std::fmt;
use trackdown_topology::{gen::GeneratedTopology, AsIndex, AsPath, Asn, Topology};

/// The ASN PEERING uses; our simulated origin defaults to the same number
/// for familiarity.
pub const DEFAULT_ORIGIN_ASN: Asn = Asn(47065);

/// Default prepend count: the paper prepends the origin ASN four times,
/// "longer than most AS-paths in the Internet" (§III-A-b).
pub const DEFAULT_PREPEND_TIMES: usize = 4;

/// PEERING conservatively limits announcements to two poisoned ASes (§IV-e).
pub const DEFAULT_MAX_POISONS: usize = 2;

/// One peering link of the origin: a PoP connected to a transit provider.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeeringLink {
    /// Stable identifier used to key catchments.
    pub id: LinkId,
    /// Human-readable PoP name (e.g. `"AMS-IX"`).
    pub pop: String,
    /// The transit provider this PoP announces through.
    pub provider: Asn,
}

/// Errors raised while validating announcements against an origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OriginError {
    /// The referenced link id does not exist on this origin.
    UnknownLink(LinkId),
    /// A link was announced twice in the same configuration.
    DuplicateLink(LinkId),
    /// More poisoned ASes than the platform allows.
    TooManyPoisons {
        /// Offending link.
        link: LinkId,
        /// Number requested.
        got: usize,
        /// Platform maximum.
        max: usize,
    },
    /// Poisoning the origin's own ASN is meaningless.
    SelfPoison(LinkId),
    /// A poisoned ASN is repeated on the same link.
    DuplicatePoison(LinkId, Asn),
    /// A provider ASN is missing from the topology.
    UnknownProvider(Asn),
    /// A community carries out-of-range parameters.
    InvalidCommunity(LinkId),
}

impl fmt::Display for OriginError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OriginError::UnknownLink(l) => write!(f, "unknown peering link {l}"),
            OriginError::DuplicateLink(l) => write!(f, "link {l} announced twice"),
            OriginError::TooManyPoisons { link, got, max } => {
                write!(f, "link {link}: {got} poisons exceed platform limit {max}")
            }
            OriginError::SelfPoison(l) => write!(f, "link {l}: cannot poison own ASN"),
            OriginError::DuplicatePoison(l, a) => write!(f, "link {l}: duplicate poison {a}"),
            OriginError::UnknownProvider(a) => write!(f, "provider {a} not in topology"),
            OriginError::InvalidCommunity(l) => write!(f, "link {l}: invalid community"),
        }
    }
}

impl std::error::Error for OriginError {}

/// The announcement the origin makes on one peering link as part of a
/// configuration: plain, prepended, and/or poisoned.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkAnnouncement {
    /// Which peering link announces.
    pub link: LinkId,
    /// Whether to prepend the origin ASN [`OriginAs::prepend_times`] times.
    pub prepend: bool,
    /// ASes poisoned on this link's announcement.
    pub poisons: Vec<Asn>,
    /// Action communities honored by the PoP provider (export scoping,
    /// provider-side prepending).
    #[serde(default)]
    pub communities: CommunitySet,
}

impl LinkAnnouncement {
    /// A plain announcement on `link`.
    pub fn plain(link: LinkId) -> LinkAnnouncement {
        LinkAnnouncement {
            link,
            prepend: false,
            poisons: Vec::new(),
            communities: CommunitySet::empty(),
        }
    }

    /// A prepended announcement on `link`.
    pub fn prepended(link: LinkId) -> LinkAnnouncement {
        LinkAnnouncement {
            link,
            prepend: true,
            poisons: Vec::new(),
            communities: CommunitySet::empty(),
        }
    }

    /// A poisoned announcement on `link`.
    pub fn poisoned(link: LinkId, poisons: Vec<Asn>) -> LinkAnnouncement {
        LinkAnnouncement {
            link,
            prepend: false,
            poisons,
            communities: CommunitySet::empty(),
        }
    }

    /// An announcement with action communities on `link`.
    pub fn with_communities(link: LinkId, communities: CommunitySet) -> LinkAnnouncement {
        LinkAnnouncement {
            link,
            prepend: false,
            poisons: Vec::new(),
            communities,
        }
    }
}

/// A ready-to-inject announcement: the provider AS that receives it, the
/// link tag, and the AS-path as the provider sees it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Injection {
    /// Provider AS (by topology index) receiving the announcement.
    pub provider: AsIndex,
    /// Peering link the announcement enters through.
    pub link: LinkId,
    /// AS-path as received by the provider.
    pub path: AsPath,
    /// Action communities the provider honors on export.
    pub communities: CommunitySet,
}

/// The origin AS and its peering footprint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OriginAs {
    /// The origin's ASN (kept out of the topology).
    pub asn: Asn,
    /// Peering links, indexed by `LinkId` (link `i` is `links[i]`).
    pub links: Vec<PeeringLink>,
    /// The experiment prefix announced in every configuration.
    pub prefix: Prefix,
    /// How many times the origin ASN is prepended when a link prepends.
    pub prepend_times: usize,
    /// Platform limit on poisoned ASes per announcement.
    pub max_poisons: usize,
}

impl OriginAs {
    /// Build an origin with the given providers (one PoP per provider).
    ///
    /// # Panics
    /// Panics if `providers` is empty or exceeds 255 links.
    pub fn new(asn: Asn, providers: Vec<(String, Asn)>) -> OriginAs {
        assert!(!providers.is_empty(), "origin needs at least one link");
        assert!(providers.len() <= 255, "too many peering links");
        let links = providers
            .into_iter()
            .enumerate()
            .map(|(i, (pop, provider))| PeeringLink {
                id: LinkId(i as u8),
                pop,
                provider,
            })
            .collect();
        OriginAs {
            asn,
            links,
            prefix: Prefix::new([184, 164, 224, 0], 24), // PEERING's block
            prepend_times: DEFAULT_PREPEND_TIMES,
            max_poisons: DEFAULT_MAX_POISONS,
        }
    }

    /// Pick a PEERING-like footprint on a generated topology: `n` transit
    /// providers spread round-robin across regions (deterministic given
    /// the topology). Small transits are preferred — PEERING's providers
    /// (Table I) are regional and academic ISPs, not majors — falling back
    /// to large transits when a region has no small ones.
    ///
    /// PoP names follow the paper's Table I for the first seven links.
    pub fn peering_style(gen: &GeneratedTopology, n: usize) -> OriginAs {
        const POPS: [&str; 7] = [
            "AMS-IX",
            "GRNet",
            "USC/ISI",
            "NEU",
            "Seattle-IX",
            "UFMG",
            "UW",
        ];
        let topo = &gen.topology;
        // Candidates: small transits first (region-sorted, best-connected
        // small transit first within a region), then large transits.
        let rank = |a: Asn, tier: usize| {
            let i = topo.index_of(a).expect("transit in topology");
            (gen.region(i), tier, topo.customers(i).count(), a)
        };
        let mut candidates: Vec<(u8, usize, usize, Asn)> = gen
            .small_transits
            .iter()
            .map(|&a| rank(a, 0))
            .chain(gen.large_transits.iter().map(|&a| rank(a, 1)))
            .collect();
        candidates.sort_by(|x, y| {
            x.0.cmp(&y.0)
                .then(x.1.cmp(&y.1)) // small transits before large
                .then(y.2.cmp(&x.2)) // better-connected first within tier
                .then(x.3.cmp(&y.3))
        });
        let candidates: Vec<(u8, usize, Asn)> = candidates
            .into_iter()
            .map(|(r, _, c, a)| (r, c, a))
            .collect();
        let num_regions = gen.config.num_regions.max(1);
        let mut chosen: Vec<Asn> = Vec::with_capacity(n);
        let mut round = 0usize;
        while chosen.len() < n && round < n * num_regions + num_regions {
            let region = (round % num_regions) as u8;
            let rank = round / num_regions;
            if let Some(&(_, _, a)) = candidates.iter().filter(|(r, _, _)| *r == region).nth(rank) {
                if !chosen.contains(&a) {
                    chosen.push(a);
                }
            }
            round += 1;
        }
        // Fallback: fill from the global list if regions ran dry.
        for &(_, _, a) in &candidates {
            if chosen.len() >= n {
                break;
            }
            if !chosen.contains(&a) {
                chosen.push(a);
            }
        }
        let providers = chosen
            .into_iter()
            .enumerate()
            .map(|(i, a)| {
                let name = POPS
                    .get(i)
                    .map(|s| s.to_string())
                    .unwrap_or_else(|| format!("PoP-{i}"));
                (name, a)
            })
            .collect();
        OriginAs::new(DEFAULT_ORIGIN_ASN, providers)
    }

    /// Number of peering links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// All link ids.
    pub fn link_ids(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.links.iter().map(|l| l.id)
    }

    /// The link with a given id.
    pub fn link(&self, id: LinkId) -> Option<&PeeringLink> {
        self.links.get(id.us())
    }

    /// Validate a configuration's per-link announcements and produce the
    /// injections the engine consumes.
    pub fn build_injections(
        &self,
        topo: &Topology,
        announcements: &[LinkAnnouncement],
    ) -> Result<Vec<Injection>, OriginError> {
        let mut seen = Vec::with_capacity(announcements.len());
        let mut out = Vec::with_capacity(announcements.len());
        for ann in announcements {
            let link = self
                .link(ann.link)
                .ok_or(OriginError::UnknownLink(ann.link))?;
            if seen.contains(&ann.link) {
                return Err(OriginError::DuplicateLink(ann.link));
            }
            seen.push(ann.link);
            if ann.poisons.len() > self.max_poisons {
                return Err(OriginError::TooManyPoisons {
                    link: ann.link,
                    got: ann.poisons.len(),
                    max: self.max_poisons,
                });
            }
            for (i, &p) in ann.poisons.iter().enumerate() {
                if p == self.asn {
                    return Err(OriginError::SelfPoison(ann.link));
                }
                if ann.poisons[..i].contains(&p) {
                    return Err(OriginError::DuplicatePoison(ann.link, p));
                }
            }
            if !ann.communities.is_valid() {
                return Err(OriginError::InvalidCommunity(ann.link));
            }
            let provider = topo
                .index_of(link.provider)
                .ok_or(OriginError::UnknownProvider(link.provider))?;
            let mut path = if ann.poisons.is_empty() {
                AsPath::from_origin(self.asn)
            } else {
                AsPath::poisoned_origin(self.asn, &ann.poisons)
            };
            if ann.prepend {
                path = path.prepended_by_times(self.asn, self.prepend_times);
            }
            out.push(Injection {
                provider,
                link: ann.link,
                path,
                communities: ann.communities.clone(),
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trackdown_topology::gen::{generate, TopologyConfig};

    fn setup() -> (GeneratedTopology, OriginAs) {
        let g = generate(&TopologyConfig::small(17));
        let o = OriginAs::peering_style(&g, 4);
        (g, o)
    }

    #[test]
    fn peering_style_picks_distinct_transit_providers() {
        let (g, o) = setup();
        assert_eq!(o.num_links(), 4);
        let mut provs: Vec<Asn> = o.links.iter().map(|l| l.provider).collect();
        provs.sort_unstable();
        provs.dedup();
        assert_eq!(provs.len(), 4, "providers must be distinct");
        for p in provs {
            assert!(g.topology.contains(p));
        }
        assert_eq!(o.links[0].pop, "AMS-IX");
    }

    #[test]
    fn peering_style_is_deterministic() {
        let g = generate(&TopologyConfig::small(17));
        let o1 = OriginAs::peering_style(&g, 5);
        let o2 = OriginAs::peering_style(&g, 5);
        assert_eq!(o1, o2);
    }

    #[test]
    fn plain_injection_path_is_origin_only() {
        let (g, o) = setup();
        let inj = o
            .build_injections(&g.topology, &[LinkAnnouncement::plain(LinkId(0))])
            .unwrap();
        assert_eq!(inj.len(), 1);
        assert_eq!(inj[0].path.as_slice(), &[o.asn]);
        assert_eq!(inj[0].link, LinkId(0));
    }

    #[test]
    fn prepended_injection_path_length() {
        let (g, o) = setup();
        let inj = o
            .build_injections(&g.topology, &[LinkAnnouncement::prepended(LinkId(1))])
            .unwrap();
        assert_eq!(inj[0].path.len(), 1 + DEFAULT_PREPEND_TIMES);
        assert!(inj[0].path.as_slice().iter().all(|&a| a == o.asn));
    }

    #[test]
    fn poisoned_injection_has_sandwich() {
        let (g, o) = setup();
        let victim = Asn(777_777);
        let inj = o
            .build_injections(
                &g.topology,
                &[LinkAnnouncement::poisoned(LinkId(2), vec![victim])],
            )
            .unwrap();
        assert_eq!(inj[0].path.poisons_of(o.asn), vec![victim]);
    }

    #[test]
    fn rejects_invalid_configurations() {
        let (g, o) = setup();
        assert_eq!(
            o.build_injections(&g.topology, &[LinkAnnouncement::plain(LinkId(99))]),
            Err(OriginError::UnknownLink(LinkId(99)))
        );
        assert_eq!(
            o.build_injections(
                &g.topology,
                &[
                    LinkAnnouncement::plain(LinkId(0)),
                    LinkAnnouncement::plain(LinkId(0))
                ]
            ),
            Err(OriginError::DuplicateLink(LinkId(0)))
        );
        assert!(matches!(
            o.build_injections(
                &g.topology,
                &[LinkAnnouncement::poisoned(
                    LinkId(0),
                    vec![Asn(1), Asn(2), Asn(3)]
                )]
            ),
            Err(OriginError::TooManyPoisons { .. })
        ));
        assert_eq!(
            o.build_injections(
                &g.topology,
                &[LinkAnnouncement::poisoned(LinkId(0), vec![o.asn])]
            ),
            Err(OriginError::SelfPoison(LinkId(0)))
        );
        assert_eq!(
            o.build_injections(
                &g.topology,
                &[LinkAnnouncement::poisoned(LinkId(0), vec![Asn(5), Asn(5)])]
            ),
            Err(OriginError::DuplicatePoison(LinkId(0), Asn(5)))
        );
    }

    #[test]
    fn more_links_than_pop_names_get_generated_names() {
        let g = generate(&TopologyConfig::medium(3));
        let o = OriginAs::peering_style(&g, 9);
        assert_eq!(o.num_links(), 9);
        assert_eq!(o.links[8].pop, "PoP-8");
    }
}
