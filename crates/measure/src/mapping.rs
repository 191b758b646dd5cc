//! Simulated IP-to-AS mapping (Team Cymru / PeeringDB analog).
//!
//! Traceroute returns router IP addresses; turning those into AS-level
//! hops requires an IP-to-AS database, which is imperfect: some address
//! space is announced by a different AS than the one operating the router
//! (provider-assigned interconnect space, IXP fabrics), and some space is
//! unmapped. The paper attributes its 2.28 % multi-catchment sources partly
//! to exactly this error source (§IV-c).
//!
//! We model the database as a per-AS property: a *dirty* AS has a fraction
//! of its router addresses systematically resolving to one of its
//! neighbors (deterministic per AS), and any hop can be unmapped with a
//! small probability.

use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use trackdown_topology::{AsIndex, Asn, Topology};

/// How a single traceroute hop resolved through the database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopResolution {
    /// Resolved to the correct AS.
    Correct(Asn),
    /// Resolved to a wrong (neighboring) AS — systematic mis-mapping.
    Mismapped(Asn),
    /// No mapping available.
    Unmapped,
}

impl HopResolution {
    /// The ASN this resolution reports, if any.
    pub fn asn(self) -> Option<Asn> {
        match self {
            HopResolution::Correct(a) | HopResolution::Mismapped(a) => Some(a),
            HopResolution::Unmapped => None,
        }
    }
}

/// Parameters of the simulated database.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IpToAsConfig {
    /// Seed for dirty-AS selection and per-hop rolls.
    pub seed: u64,
    /// Fraction of ASes whose interconnect space is mis-attributed.
    pub dirty_as_fraction: f64,
    /// Probability that a hop inside a dirty AS resolves to the neighbor.
    pub mismap_prob: f64,
    /// Probability that any hop has no mapping at all.
    pub unmapped_prob: f64,
}

impl Default for IpToAsConfig {
    fn default() -> IpToAsConfig {
        IpToAsConfig {
            seed: 0x1b_2a5,
            dirty_as_fraction: 0.05,
            mismap_prob: 0.3,
            unmapped_prob: 0.02,
        }
    }
}

/// The materialized database simulation.
#[derive(Debug, Clone)]
pub struct IpToAs {
    /// For each AS, the neighbor its dirty space resolves to (if dirty).
    dirty_target: Vec<Option<AsIndex>>,
    /// Integer thresholds of the mis-map and unmapped rolls
    /// ([`crate::roll_threshold`] over [`ROLL_SCALE`]).
    mismap_below: u64,
    unmapped_below: u64,
    seed: u64,
}

/// Resolution of the database's per-hop rolls.
const ROLL_SCALE: u64 = 10_000;

impl IpToAs {
    /// Build the database model for a topology.
    pub fn build(topo: &Topology, cfg: &IpToAsConfig) -> IpToAs {
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let dirty_target = topo
            .indices()
            .map(|i| {
                if rng.random::<f64>() < cfg.dirty_as_fraction {
                    let neighbors = topo.neighbors(i);
                    if neighbors.is_empty() {
                        None
                    } else {
                        let k = rng.random_range(0..neighbors.len());
                        Some(neighbors[k].0)
                    }
                } else {
                    None
                }
            })
            .collect();
        IpToAs {
            dirty_target,
            mismap_below: crate::roll_threshold(cfg.mismap_prob, ROLL_SCALE),
            unmapped_below: crate::roll_threshold(cfg.unmapped_prob, ROLL_SCALE),
            seed: cfg.seed,
        }
    }

    /// Resolve a hop at `true_as`, salted by `salt` (derived from probe,
    /// round, and hop position so repeated measurements of the same router
    /// resolve consistently only when they truly hit the same address).
    pub fn resolve(&self, topo: &Topology, true_as: AsIndex, salt: u64) -> HopResolution {
        match self.resolve_index(true_as, salt) {
            None => HopResolution::Unmapped,
            // A mis-map target is a neighbor, never the AS itself.
            Some(i) if i == true_as => HopResolution::Correct(topo.asn_of(i)),
            Some(i) => HopResolution::Mismapped(topo.asn_of(i)),
        }
    }

    /// [`IpToAs::resolve`] as the index of the AS the hop resolves to.
    pub(crate) fn resolve_index(&self, true_as: AsIndex, salt: u64) -> Option<AsIndex> {
        let h = crate::mix(self.seed ^ salt ^ ((true_as.0 as u64) << 24));
        if h % ROLL_SCALE < self.unmapped_below {
            return None;
        }
        if let Some(target) = self.dirty_target[true_as.us()] {
            // Dirty ASes resolve a fixed slice of their space to the
            // neighbor; whether a given observation lands in that slice is
            // a salted deterministic roll.
            let h2 = crate::mix(h ^ 0xD1);
            if h2 % ROLL_SCALE < self.mismap_below {
                return Some(target);
            }
        }
        Some(true_as)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trackdown_topology::gen::{generate, TopologyConfig};

    fn setup(cfg: &IpToAsConfig) -> (trackdown_topology::Topology, IpToAs) {
        let g = generate(&TopologyConfig::small(6));
        let db = IpToAs::build(&g.topology, cfg);
        (g.topology, db)
    }

    #[test]
    fn clean_database_always_correct() {
        let (topo, db) = setup(&IpToAsConfig {
            seed: 1,
            dirty_as_fraction: 0.0,
            mismap_prob: 0.0,
            unmapped_prob: 0.0,
        });
        for i in topo.indices() {
            for salt in 0..5 {
                assert_eq!(
                    db.resolve(&topo, i, salt),
                    HopResolution::Correct(topo.asn_of(i))
                );
            }
        }
    }

    #[test]
    fn resolution_is_deterministic() {
        let (topo, db) = setup(&IpToAsConfig::default());
        for i in topo.indices().take(20) {
            assert_eq!(db.resolve(&topo, i, 42), db.resolve(&topo, i, 42));
        }
    }

    #[test]
    fn dirty_ases_mismap_to_a_neighbor() {
        let (topo, db) = setup(&IpToAsConfig {
            seed: 3,
            dirty_as_fraction: 1.0,
            mismap_prob: 1.0,
            unmapped_prob: 0.0,
        });
        for i in topo.indices().take(20) {
            assert!(db.dirty_target[i.us()].is_some());
            match db.resolve(&topo, i, 7) {
                HopResolution::Mismapped(a) => {
                    let j = topo.index_of(a).unwrap();
                    assert!(topo.linked(i, j), "mismap target must be a neighbor");
                }
                other => panic!("expected mismap, got {other:?}"),
            }
        }
    }

    #[test]
    fn unmapped_probability_dominates() {
        let (topo, db) = setup(&IpToAsConfig {
            seed: 4,
            dirty_as_fraction: 0.0,
            mismap_prob: 0.0,
            unmapped_prob: 1.0,
        });
        assert_eq!(db.resolve(&topo, AsIndex(0), 0), HopResolution::Unmapped);
        assert_eq!(HopResolution::Unmapped.asn(), None);
    }

    #[test]
    fn mismap_rate_roughly_matches_config() {
        let (topo, db) = setup(&IpToAsConfig {
            seed: 5,
            dirty_as_fraction: 1.0,
            mismap_prob: 0.3,
            unmapped_prob: 0.0,
        });
        let mut wrong = 0;
        let mut total = 0;
        for i in topo.indices() {
            for salt in 0..50 {
                total += 1;
                if matches!(db.resolve(&topo, i, salt), HopResolution::Mismapped(_)) {
                    wrong += 1;
                }
            }
        }
        let rate = wrong as f64 / total as f64;
        assert!((0.2..0.4).contains(&rate), "rate={rate}");
    }
}
