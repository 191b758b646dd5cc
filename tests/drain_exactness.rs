//! Pins the FIFO drain's exact behaviour at the default policy, on the
//! path campaigns take: one session converges the origin's full anycast
//! and deploys every configuration as a transition from it.
//!
//! Every stable state is unique, so the routes themselves do not depend
//! on the drain's order, but the work does: any change to the queue
//! order, to a comparison, to when a path is interned or to what the
//! rollback restores moves the event counts, the change log or a path id
//! somewhere in the schedule. Each test folds the baseline's event count
//! and, per epoch, `events`, `rounds`, `changes.len()`,
//! `routes_disturbed`, `converged` and every AS's best `(path_id,
//! path_len, ingress, from_neighbor, local_pref, learned_from)` into one
//! 64-bit FNV-1a fingerprint. Path ids are arena-interning order, so they
//! pin the order of accepted exports too.
//!
//! The `internet` fingerprint is an `#[ignore]`d test; run it in release
//! mode:
//!
//! ```text
//! cargo test --release --test drain_exactness -- --ignored
//! ```

mod common;

use common::Fnv1a;
use std::hash::{Hash, Hasher};
use trackdown_experiments::{Options, Scale, Scenario};
use trackdown_suite::prelude::*;

/// Deploy every configuration of the seed-7 scenario at `scale` through
/// one default-policy session from its baseline; returns the number of
/// configurations and the fingerprint of the baseline and all epochs.
fn fingerprint(scale: Scale) -> (usize, u64) {
    let scenario = Scenario::build(Options {
        scale,
        seed: 7,
        threads: Some(1),
        ..Options::default()
    });
    let engine = BgpEngine::new(&scenario.gen.topology, &scenario.engine_cfg);
    let mut session = engine.session();
    let baseline = session
        .converge_baseline(&scenario.origin)
        .expect("the origin announces every link");
    assert_eq!(baseline.status, BaselineStatus::Converged);
    let schedule = scenario.schedule();
    let mut h = Fnv1a::default();
    h.write_u64(baseline.events as u64);
    for cfg in &schedule {
        let out = session
            .deploy_config(
                &scenario.origin,
                &cfg.to_link_announcements(),
                scenario.engine_cfg.max_events_factor,
            )
            .expect("generated schedules are valid");
        h.write_u64(out.events as u64);
        h.write_u32(out.rounds);
        h.write_u64(out.changes.len() as u64);
        h.write_u64(out.routes_disturbed as u64);
        h.write_u8(out.converged as u8);
        for best in &out.best {
            match best {
                None => h.write_u8(0),
                Some(r) => {
                    h.write_u8(1);
                    r.path_id.hash(&mut h);
                    h.write_u32(r.path_len);
                    h.write_u8(r.ingress.0);
                    h.write_u32(r.from_neighbor.map_or(0, |n| n.0 + 1));
                    h.write_u32(r.local_pref);
                    h.write_u8(r.learned_from as u8);
                }
            }
        }
    }
    (schedule.len(), h.finish())
}

#[test]
fn full_scale_drain_is_pinned() {
    assert_eq!(fingerprint(Scale::Full), (511, FULL_FINGERPRINT));
}

#[test]
#[ignore = "80k-AS campaign; run in release mode via CI's observability job"]
fn internet_scale_drain_is_pinned() {
    assert_eq!(fingerprint(Scale::Internet), (65, INTERNET_FINGERPRINT));
}

const FULL_FINGERPRINT: u64 = 6_350_597_150_802_260_830;
const INTERNET_FINGERPRINT: u64 = 6_698_220_833_923_106_424;
