//! The public dataset format (§VI).
//!
//! The paper releases its measurement dataset — announcement
//! configurations and the catchments observed under each — for reuse by
//! routing research ("our dataset contains at least four alternate routes
//! towards PEERING for each observed AS \[and\] thousands of route
//! changes"). This module defines the equivalent serialized artifact for
//! campaigns run on this stack: a self-contained JSON document from which
//! the clustering (and any downstream analysis) can be rebuilt without
//! rerunning BGP propagation.

use crate::cluster::Clustering;
use crate::config::AnnouncementConfig;
use crate::localize::Campaign;
use serde::{Deserialize, Serialize};
use std::fmt;
use trackdown_bgp::{Catchments, OriginAs};
use trackdown_topology::{AsIndex, Asn, Topology};

/// Current dataset format version.
pub const FORMAT_VERSION: u32 = 1;

/// Errors raised when loading a dataset.
#[derive(Debug)]
pub enum DatasetError {
    /// JSON (de)serialization failed.
    Json(serde_json::Error),
    /// The format version is unknown.
    UnsupportedVersion(u32),
    /// Internal inconsistency (counts disagree).
    Inconsistent(String),
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::Json(e) => write!(f, "dataset JSON error: {e}"),
            DatasetError::UnsupportedVersion(v) => {
                write!(f, "unsupported dataset version {v}")
            }
            DatasetError::Inconsistent(msg) => write!(f, "inconsistent dataset: {msg}"),
        }
    }
}

impl std::error::Error for DatasetError {}

impl From<serde_json::Error> for DatasetError {
    fn from(e: serde_json::Error) -> Self {
        DatasetError::Json(e)
    }
}

/// A self-contained campaign dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    /// Format version ([`FORMAT_VERSION`]).
    pub version: u32,
    /// The origin network (links, prefix, platform limits).
    pub origin: OriginAs,
    /// ASN of every source index used by `catchments`/`tracked`.
    pub asns: Vec<Asn>,
    /// The deployed configurations, in order.
    pub configs: Vec<AnnouncementConfig>,
    /// Per-configuration catchments, indexed like `asns`.
    pub catchments: Vec<Catchments>,
    /// The tracked (analysis-set) sources, as indices into `asns`.
    pub tracked: Vec<AsIndex>,
}

impl Dataset {
    /// Capture a finished campaign.
    pub fn from_campaign(topo: &Topology, origin: &OriginAs, campaign: &Campaign) -> Dataset {
        Dataset {
            version: FORMAT_VERSION,
            origin: origin.clone(),
            asns: topo.asns().to_vec(),
            configs: campaign.configs.clone(),
            catchments: campaign.catchments.clone(),
            tracked: campaign.tracked.clone(),
        }
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> Result<String, DatasetError> {
        Ok(serde_json::to_string_pretty(self)?)
    }

    /// Load and validate from JSON.
    pub fn from_json(text: &str) -> Result<Dataset, DatasetError> {
        let ds: Dataset = serde_json::from_str(text)?;
        ds.validate()?;
        Ok(ds)
    }

    /// Internal consistency checks.
    pub fn validate(&self) -> Result<(), DatasetError> {
        if self.version != FORMAT_VERSION {
            return Err(DatasetError::UnsupportedVersion(self.version));
        }
        if self.configs.len() != self.catchments.len() {
            return Err(DatasetError::Inconsistent(format!(
                "{} configs but {} catchment maps",
                self.configs.len(),
                self.catchments.len()
            )));
        }
        for (k, c) in self.catchments.iter().enumerate() {
            if c.len() != self.asns.len() {
                return Err(DatasetError::Inconsistent(format!(
                    "catchment map {k} covers {} sources, expected {}",
                    c.len(),
                    self.asns.len()
                )));
            }
        }
        let links = self.origin.num_links();
        for (k, c) in self.catchments.iter().enumerate() {
            if let Some(&l) = c.active_links().last().filter(|l| l.us() >= links) {
                return Err(DatasetError::Inconsistent(format!(
                    "catchment map {k} uses link {l}, but the origin has {links} links"
                )));
            }
        }
        let mut seen = vec![false; self.asns.len()];
        for &t in &self.tracked {
            match seen.get_mut(t.us()) {
                None => {
                    return Err(DatasetError::Inconsistent(format!(
                        "tracked index {t:?} out of range"
                    )))
                }
                Some(true) => {
                    return Err(DatasetError::Inconsistent(format!(
                        "tracked index {t:?} listed twice"
                    )))
                }
                Some(s) => *s = true,
            }
        }
        Ok(())
    }

    /// Number of deployed configurations.
    pub fn num_configs(&self) -> usize {
        self.configs.len()
    }

    /// Rebuild the clustering from the stored catchments — the downstream
    /// analysis entry point.
    pub fn rebuild_clustering(&self) -> Clustering {
        self.rebuild_attribution().0
    }

    /// Rebuild the clustering *and* its attribution index (refinement
    /// deltas, split log) from the stored catchments — what a [`Campaign`]
    /// reassembled from a dataset needs for incremental suspect ranking
    /// and volume estimation.
    pub fn rebuild_attribution(&self) -> (Clustering, crate::localize::AttributionIndex) {
        crate::localize::AttributionIndex::build(self.tracked.clone(), &self.catchments)
    }

    /// Number of distinct routes (catchment assignments) observed per
    /// tracked source — the paper advertises "at least four alternate
    /// routes towards PEERING for each observed AS".
    pub fn distinct_catchments_per_source(&self) -> Vec<usize> {
        self.tracked
            .iter()
            .map(|&s| {
                let mut links: Vec<_> = self.catchments.iter().filter_map(|c| c.get(s)).collect();
                links.sort_unstable();
                links.dedup();
                links.len()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{full_schedule, GeneratorParams};
    use crate::localize::{run_campaign, CampaignOpts};
    use trackdown_bgp::{BgpEngine, EngineConfig, LinkId};
    use trackdown_topology::gen::{generate, TopologyConfig};

    fn small_dataset() -> (Dataset, Campaign) {
        let g = generate(&TopologyConfig::small(81));
        let origin = OriginAs::peering_style(&g, 4);
        let engine = BgpEngine::new(&g.topology, &EngineConfig::default());
        let schedule = full_schedule(
            &g.topology,
            &origin,
            &GeneratorParams {
                max_removals: 2,
                max_poison_configs: Some(8),
            },
        );
        let campaign = run_campaign(&engine, &origin, &schedule, &CampaignOpts::default())
            .expect("valid schedule");
        (
            Dataset::from_campaign(&g.topology, &origin, &campaign),
            campaign,
        )
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let (ds, _) = small_dataset();
        let json = ds.to_json().unwrap();
        let back = Dataset::from_json(&json).unwrap();
        assert_eq!(ds, back);
    }

    #[test]
    fn rebuilt_clustering_matches_campaign() {
        let (ds, campaign) = small_dataset();
        let rebuilt = ds.rebuild_clustering();
        assert_eq!(rebuilt.num_clusters(), campaign.clustering.num_clusters());
        assert_eq!(rebuilt.mean_size(), campaign.clustering.mean_size());
        for &s in &campaign.tracked {
            for &t in &campaign.tracked {
                assert_eq!(
                    rebuilt.cluster_of(s) == rebuilt.cluster_of(t),
                    campaign.clustering.cluster_of(s) == campaign.clustering.cluster_of(t),
                );
            }
        }
    }

    #[test]
    fn route_diversity_guarantee() {
        // With max_removals = 2 the location phase alone guarantees at
        // least 3 distinct routes per source; count distinct catchments.
        let (ds, _) = small_dataset();
        let diversity = ds.distinct_catchments_per_source();
        assert!(!diversity.is_empty());
        let min = diversity.iter().min().copied().unwrap();
        assert!(min >= 2, "some source saw only {min} distinct catchments");
    }

    #[test]
    fn validation_catches_corruption() {
        let (ds, _) = small_dataset();
        let mut bad = ds.clone();
        bad.version = 99;
        assert!(matches!(
            bad.validate(),
            Err(DatasetError::UnsupportedVersion(99))
        ));
        let mut bad = ds.clone();
        bad.catchments.pop();
        assert!(matches!(bad.validate(), Err(DatasetError::Inconsistent(_))));
        let mut bad = ds;
        bad.tracked.push(AsIndex(1_000_000));
        assert!(matches!(bad.validate(), Err(DatasetError::Inconsistent(_))));
    }

    /// Reject `bad` on load: it serializes, but `from_json` refuses it.
    fn assert_rejected_on_load(bad: &Dataset, why: &str) {
        let json = bad.to_json().unwrap();
        match Dataset::from_json(&json) {
            Err(DatasetError::Inconsistent(msg)) => assert!(msg.contains(why), "{msg}"),
            other => panic!("expected Inconsistent({why}), got {other:?}"),
        }
    }

    #[test]
    fn validation_rejects_duplicate_tracked_sources() {
        // A repeated tracked source would be counted and listed twice by
        // every downstream report.
        let (ds, _) = small_dataset();
        let mut bad = ds.clone();
        bad.tracked.extend_from_slice(&ds.tracked[..3]);
        assert_rejected_on_load(&bad, "listed twice");
    }

    #[test]
    fn validation_rejects_links_beyond_the_origin() {
        let (ds, _) = small_dataset();
        assert_eq!(ds.origin.num_links(), 4);
        for link in [4u8, 9, 255] {
            let mut bad = ds.clone();
            bad.catchments[0].set(ds.tracked[0], Some(LinkId(link)));
            assert_rejected_on_load(&bad, &format!("uses link {}", LinkId(link)));
        }
        // The last valid link still loads.
        let mut ok = ds.clone();
        ok.catchments[0].set(ds.tracked[0], Some(LinkId(3)));
        assert!(Dataset::from_json(&ok.to_json().unwrap()).is_ok());
    }
}
