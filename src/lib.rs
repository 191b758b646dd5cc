//! # trackdown-suite
//!
//! Umbrella crate for the *trackdown* stack — a from-scratch Rust
//! reproduction of **"Tracking Down Sources of Spoofed IP Packets"**
//! (Fonseca, Cunha, Fazzion, Meira Jr., Junior, Ferreira, Katz-Bassett;
//! IFIP Networking 2019).
//!
//! It re-exports the five library crates so examples and downstream users
//! need a single dependency:
//!
//! * [`topology`] — AS-level Internet topology substrate;
//! * [`bgp`] — deterministic BGP propagation engine, multi-PoP origin,
//!   catchments;
//! * [`measure`] — simulated observation plane (feeds, traceroute, repair,
//!   visibility imputation);
//! * [`traffic`] — spoofed-traffic substrate (placement, packets,
//!   honeypot, classification);
//! * [`core`] — the paper's contribution: configuration generation,
//!   catchment clustering, localization, scheduling, prediction;
//! * [`obs`] — in-tree observability: metrics registry, span timers,
//!   JSONL run manifests (see DESIGN.md §Observability).
//!
//! See the [`prelude`] for the names most programs want.
//!
//! ```
//! use trackdown_suite::prelude::*;
//!
//! // A small synthetic Internet and a 4-PoP origin network.
//! let world = generate(&TopologyConfig::small(7));
//! let origin = OriginAs::peering_style(&world, 4);
//! let engine = BgpEngine::new(&world.topology, &EngineConfig::default());
//!
//! // Deploy the paper's announcement schedule and cluster the catchments.
//! let schedule = full_schedule(&world.topology, &origin, &GeneratorParams::default());
//! let campaign = run_campaign(&engine, &origin, &schedule, &CampaignOpts::default())?;
//! assert!(campaign.clustering.mean_size() >= 1.0);
//!
//! // The same campaign on four worker threads, each running one routing
//! // session over a contiguous chunk of the schedule: identical results.
//! let opts = CampaignOpts { threads: 4, ..CampaignOpts::default() };
//! let parallel = run_campaign(&engine, &origin, &schedule, &opts)?;
//! assert_eq!(parallel.catchments, campaign.catchments);
//! # Ok::<(), CampaignError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use trackdown_bgp as bgp;
pub use trackdown_core as core;
pub use trackdown_measure as measure;
pub use trackdown_obs as obs;
pub use trackdown_topology as topology;
pub use trackdown_traffic as traffic;

/// The names most programs using the stack need.
pub mod prelude {
    pub use trackdown_bgp::{
        BaselineStatus, BgpEngine, CampaignSession, Catchments, Community, CommunitySet,
        DeploymentBias, EngineConfig, ExtensionConfig, ExtensionDeployment, LinkAnnouncement,
        LinkId, OriginAs, PolicyConfig, PolicyExtension, Prefix, RouteChange, RoutingOutcome,
        SnapshotDetail,
    };
    pub use trackdown_core::generator::{full_schedule, GeneratorParams};
    pub use trackdown_core::localize::{
        estimate_cluster_volumes, estimate_cluster_volumes_acc, fit_link_volumes,
        link_volume_matrix, rank_suspects, rank_suspects_acc, run_campaign, suspect_ases,
        AttributionIndex, Campaign, CampaignError, CampaignOpts, CampaignStats, CatchmentSource,
        RankedSuspects,
    };
    pub use trackdown_core::{AnnouncementConfig, Clustering, Dataset, Phase};
    pub use trackdown_measure::{MeasurementConfig, MeasurementPlane};
    pub use trackdown_topology::cone::ConeInfo;
    pub use trackdown_topology::gen::{generate, GeneratedTopology, TopologyConfig};
    pub use trackdown_topology::{AsIndex, AsPath, Asn, Topology};
    pub use trackdown_traffic::{
        ingest_stream, place_sources, spoofed_flows, BatchedDenseAccumulator, FlowConfig, Honeypot,
        HoneypotConfig, PlacedSources, SourcePlacement, VolumeAccumulator,
    };
}
