//! Trace-tree well-formedness suite: structured traces collected over
//! real multi-threaded campaigns must form valid per-thread span forests —
//! unique nonzero ids, parents that contain their children in time on
//! the same thread, per-thread completion ordering — with invariant
//! span counts across 1, 2, and 8 worker threads, and the Chrome
//! exporter must emit balanced begin/end pairs for them.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, OnceLock};
use trackdown_suite::obs::{
    chrome_trace_json, end_trace, start_trace, tracing_enabled, ProfileSummary, Trace, TraceConfig,
};
use trackdown_suite::prelude::*;

/// Tracing is process-global; serialize the tests in this binary.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn scenario(seed: u64) -> (GeneratedTopology, OriginAs, Vec<AnnouncementConfig>) {
    let world = generate(&TopologyConfig::small(seed));
    let origin = OriginAs::peering_style(&world, 4);
    let schedule = full_schedule(
        &world.topology,
        &origin,
        &GeneratorParams {
            max_removals: 1,
            max_poison_configs: Some(8),
        },
    );
    (world, origin, schedule)
}

/// Structural invariants every collected trace must satisfy, regardless
/// of workload or thread count.
fn assert_well_formed(trace: &Trace) {
    let spans: Vec<_> = trace.events.iter().collect();
    assert!(!spans.is_empty(), "trace has no spans");

    // Unique, nonzero ids; timestamps ordered; threads in range.
    let mut by_id = HashMap::new();
    for e in &spans {
        assert_ne!(e.id, 0, "span id 0 is reserved for thread roots");
        assert!(e.end_us >= e.start_us, "span {} ends before start", e.name);
        assert!(e.thread < trace.threads.len(), "thread index out of range");
        assert!(
            by_id.insert(e.id, *e).is_none(),
            "duplicate span id {}",
            e.id
        );
    }

    // Parent links: a nonzero parent must exist, live on the same
    // thread, and contain the child's interval.
    for e in &spans {
        if e.parent == 0 {
            continue;
        }
        let p = by_id
            .get(&e.parent)
            .unwrap_or_else(|| panic!("span {} has unknown parent {}", e.name, e.parent));
        assert_eq!(p.thread, e.thread, "parent of {} on another thread", e.name);
        assert!(
            p.start_us <= e.start_us && e.end_us <= p.end_us,
            "parent {} [{},{}] does not contain child {} [{},{}]",
            p.name,
            p.start_us,
            p.end_us,
            e.name,
            e.start_us,
            e.end_us
        );
    }

    // Per-thread completion order: buffers record spans as they close,
    // so end timestamps are non-decreasing within a thread.
    let mut last_end: HashMap<usize, u64> = HashMap::new();
    for e in &spans {
        let prev = last_end.entry(e.thread).or_insert(0);
        assert!(
            e.end_us >= *prev,
            "thread {} events out of completion order at {}",
            e.thread,
            e.name
        );
        *prev = e.end_us;
    }

    // Every span fits inside the collection window.
    for e in &spans {
        assert!(e.end_us <= trace.duration_us, "span outlives the trace");
    }
}

fn count(trace: &Trace, name: &str) -> usize {
    trace.events.iter().filter(|e| e.name == name).count()
}

/// The same campaign traced at 1, 2, and 8 worker threads yields
/// well-formed trees whose per-phase span counts are fixed by the
/// workload, not the executor shape: one campaign root, and one
/// `worker.epoch` span per propagated epoch with that epoch's
/// `bgp.deploy` nested under it. A one-thread campaign runs on the
/// calling thread alone, so its trace has a single timeline; with more
/// workers, the calling thread's join wait is one `campaign.idle` span.
#[test]
fn campaign_traces_are_well_formed_across_thread_counts() {
    let _guard = lock();
    let (world, origin, schedule) = scenario(7);
    let engine = BgpEngine::new(&world.topology, &EngineConfig::default());
    for threads in [1usize, 2, 8] {
        start_trace(TraceConfig::default());
        assert!(tracing_enabled());
        let opts = CampaignOpts {
            threads,
            ..CampaignOpts::default()
        };
        let campaign = run_campaign(&engine, &origin, &schedule, &opts).expect("valid schedule");
        let trace = end_trace().expect("trace collected");
        assert!(!tracing_enabled(), "tracing must disarm at end_trace");
        assert_well_formed(&trace);

        assert_eq!(count(&trace, "campaign.run"), 1, "{threads} threads");
        assert_eq!(
            count(&trace, "worker.epoch"),
            campaign.stats.propagations,
            "{threads} threads"
        );
        let epoch_ids: Vec<u64> = trace
            .events
            .iter()
            .filter(|e| e.name == "worker.epoch")
            .map(|e| e.id)
            .collect();
        let deploys_under_epoch = trace
            .events
            .iter()
            .filter(|e| e.name == "bgp.deploy" && epoch_ids.contains(&e.parent))
            .count();
        assert_eq!(
            deploys_under_epoch, campaign.stats.propagations,
            "{threads} threads: every deploy nests under its epoch span"
        );
        // Every worker records its own timeline; the first chunk runs on
        // the calling thread, so one thread means one timeline.
        assert_eq!(
            trace.threads.len(),
            campaign.stats.threads,
            "{threads} threads"
        );
        if threads == 1 {
            assert_eq!(trace.threads.len(), 1, "a 1-thread campaign spawns nothing");
            assert_eq!(count(&trace, "campaign.idle"), 0, "nothing to wait for");
        } else {
            // The calling thread works the first chunk, then waits on the
            // other workers inside one `campaign.idle` under `campaign.run`,
            // and the profile books exactly that wait as its idle time.
            assert!(campaign.stats.threads > 1, "{threads} threads");
            let on_caller = |name: &str| {
                let found: Vec<_> = trace
                    .events
                    .iter()
                    .filter(|e| e.thread == 0 && e.name == name)
                    .collect();
                assert_eq!(found.len(), 1, "{threads} threads: one {name} on thread 0");
                found[0]
            };
            let (run, idle) = (on_caller("campaign.run"), on_caller("campaign.idle"));
            assert_eq!(count(&trace, "campaign.idle"), 1, "{threads} threads");
            assert_eq!(idle.parent, run.id, "{threads} threads");
            let summary = ProfileSummary::from_trace(&trace);
            assert_eq!(
                summary.workers[0].idle_us,
                idle.end_us - idle.start_us,
                "{threads} threads"
            );
        }

        // The exporter accepts the real trace: valid JSON with balanced
        // B/E events (checked structurally by the obs unit test; here we
        // just require one B and one E per span).
        let json = chrome_trace_json(&trace);
        assert_eq!(json.matches("\"ph\":\"B\"").count(), trace.events.len());
        assert_eq!(json.matches("\"ph\":\"E\"").count(), trace.events.len());
    }
}

/// After `end_trace` the span layer is inert again: a campaign run with
/// tracing off contributes nothing to a subsequent trace.
#[test]
fn spans_outside_a_trace_window_are_dropped() {
    let _guard = lock();
    let (world, origin, schedule) = scenario(9);
    let engine = BgpEngine::new(&world.topology, &EngineConfig::default());
    let opts = CampaignOpts {
        threads: 2,
        ..CampaignOpts::default()
    };
    let run = || run_campaign(&engine, &origin, &schedule, &opts).expect("valid schedule");
    // Untraced run: no window, nothing recorded anywhere.
    assert!(end_trace().is_none(), "no trace armed yet");
    let _ = run();
    // Trace only the second run; counts must match a single campaign.
    start_trace(TraceConfig::default());
    let campaign = run();
    let trace = end_trace().expect("trace collected");
    assert_eq!(count(&trace, "campaign.run"), 1);
    assert_eq!(count(&trace, "worker.epoch"), campaign.stats.propagations);
    // And a third, untraced run leaves no residue to drain.
    let _ = run();
    assert!(end_trace().is_none(), "tracing stayed off");
}

/// A bare `propagate_config` is one session deployment, so its trace has
/// the same shape as a campaign epoch's: one `bgp.deploy` span with the
/// drain's `bgp.drain` nested under it.
#[test]
fn bare_propagation_traces_as_one_deployment() {
    let _guard = lock();
    let (world, origin, schedule) = scenario(7);
    let engine = BgpEngine::new(&world.topology, &EngineConfig::default());
    start_trace(TraceConfig::default());
    engine
        .propagate_config(&origin, &schedule[0].to_link_announcements())
        .expect("valid configuration");
    let trace = end_trace().expect("trace collected");
    assert_well_formed(&trace);
    assert_eq!(count(&trace, "bgp.deploy"), 1);
    assert_eq!(count(&trace, "bgp.drain"), 1);
    let deploy = trace
        .events
        .iter()
        .find(|e| e.name == "bgp.deploy")
        .unwrap();
    let drain = trace.events.iter().find(|e| e.name == "bgp.drain").unwrap();
    assert_eq!(drain.parent, deploy.id, "the drain nests under its deploy");
    assert_eq!(trace.events.len(), 2, "no other span: {:?}", trace.events);
}

/// `transition_config` drains twice, `prev` from empty RIBs and then
/// `next` from `prev`'s fixpoint, and each drain is one deployment to the
/// profiler: a `bgp.deploy` span with its `bgp.drain` nested under it and
/// the drain's events as an attribute, and its work in `bgp.deployments`,
/// `bgp.events`, `bgp.offers`, `bgp.full_decides`, `bgp.changes`, the
/// `bgp.rounds` histogram and `bgp.event_cap_hits`, as a session deploy
/// counts it. From the full anycast, those two drains are a session
/// converging its baseline and deploying `next` from it, so the work
/// counters grow by what the session adds, with the baseline counted as
/// a second deployment; its changes and rounds are those of a fresh
/// deployment of the full anycast. Under a zero event cap both drains
/// stop at once and each counts one cap hit. The counters are
/// process-global; every test in this binary holds the lock.
#[test]
fn transition_traces_and_counts_two_deployments() {
    let _guard = lock();
    let (world, origin, schedule) = scenario(7);
    let engine = BgpEngine::new(&world.topology, &EngineConfig::default());
    let anycast: Vec<LinkAnnouncement> = origin.link_ids().map(LinkAnnouncement::plain).collect();
    let next = schedule[schedule.len() / 2].to_link_announcements();
    // Deployments, events, offers, full decides, changes, cap hits, then
    // the `bgp.rounds` histogram's count and sum.
    let counters = || {
        let registry = trackdown_suite::obs::global();
        let rounds = registry.histogram("bgp.rounds").snapshot();
        let [deployments, events, offers, full_decides, changes, cap_hits] = [
            "bgp.deployments",
            "bgp.events",
            "bgp.offers",
            "bgp.full_decides",
            "bgp.changes",
            "bgp.event_cap_hits",
        ]
        .map(|name| registry.counter(name).get());
        [
            deployments,
            events,
            offers,
            full_decides,
            changes,
            cap_hits,
            rounds.count,
            rounds.sum,
        ]
    };
    let since = |before: [u64; 8]| {
        let after = counters();
        std::array::from_fn::<u64, 8, _>(|i| after[i] - before[i])
    };
    let fresh_anycast = engine
        .propagate_config(&origin, &anycast)
        .expect("valid origin");

    let before = counters();
    let mut session = engine.session();
    let baseline = session.converge_baseline(&origin).expect("valid origin");
    assert_eq!(baseline.status, BaselineStatus::Converged);
    let deployed = session
        .deploy_config(&origin, &next, engine.max_events_factor())
        .expect("valid configuration");
    let session_work = since(before);
    assert_eq!(session_work[0], 1, "a baseline is not a deployment");
    assert_eq!(session_work[1], (baseline.events + deployed.events) as u64);
    assert_eq!(
        session_work[4..],
        [deployed.changes.len() as u64, 0, 1, deployed.rounds as u64],
        "a baseline adds no changes, rounds or cap hits"
    );

    start_trace(TraceConfig::default());
    let before = counters();
    let transition = engine
        .transition_config(&origin, &anycast, &next, SnapshotDetail::Catchments)
        .expect("valid configuration");
    let work = since(before);
    let trace = end_trace().expect("trace collected");
    assert_eq!(transition.events, deployed.events);
    assert_eq!(transition.changes, deployed.changes);
    assert_eq!(transition.rounds, deployed.rounds);
    assert_eq!(
        work,
        [
            2,
            session_work[1],
            session_work[2],
            session_work[3],
            (fresh_anycast.changes.len() + transition.changes.len()) as u64,
            0,
            2,
            (fresh_anycast.rounds + transition.rounds) as u64,
        ]
    );

    assert_well_formed(&trace);
    assert_eq!(count(&trace, "bgp.deploy"), 2);
    assert_eq!(count(&trace, "bgp.drain"), 2);
    let deploys: Vec<_> = trace
        .events
        .iter()
        .filter(|e| e.name == "bgp.deploy")
        .collect();
    for drain in trace.events.iter().filter(|e| e.name == "bgp.drain") {
        assert!(
            deploys.iter().any(|d| d.id == drain.parent),
            "the drain nests under a deploy"
        );
    }
    let mut events: Vec<u64> = deploys
        .iter()
        .map(|d| {
            d.attrs()
                .iter()
                .find(|(k, _)| *k == "events")
                .expect("events")
                .1
        })
        .collect();
    events.sort_unstable();
    let mut want = [baseline.events as u64, transition.events as u64];
    want.sort_unstable();
    assert_eq!(events, want);

    let capped = BgpEngine::new(
        &world.topology,
        &EngineConfig {
            max_events_factor: 0,
            ..EngineConfig::default()
        },
    );
    let before = counters();
    let transition = capped
        .transition_config(&origin, &anycast, &next, SnapshotDetail::Catchments)
        .expect("valid configuration");
    assert!(!transition.converged);
    let work = since(before);
    assert_eq!((work[0], work[5], work[6]), (2, 2, 2));
}
