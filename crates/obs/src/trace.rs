//! Structured trace trees with per-thread buffers.
//!
//! A *trace* is a bounded recording window: [`start_trace`] arms collection,
//! instrumented code records spans into per-thread buffers, and
//! [`end_trace`] disarms collection and drains every buffer into a single
//! [`Trace`] value that the exporters in [`crate::export`] and
//! [`crate::profile`] consume.
//!
//! Design points:
//!
//! - **Span identity.** Every span gets a unique nonzero `u64` id from a
//!   global counter and a parent id (0 = root of its thread). Parent links
//!   are maintained by a thread-local "current parent" cell, so nesting is
//!   tracked without any global synchronization on the hot path.
//! - **Per-thread buffers.** Each participating thread lazily registers a
//!   preallocated event buffer with the active trace the first time it
//!   records an event. The buffer is wrapped in a `Mutex` only so the
//!   drain at `end_trace` can take it; during recording the owning thread
//!   is the only locker, so the lock is always uncontended.
//! - **Completion-ordered events.** Spans are pushed when they *close*
//!   (children before parents); exporters rebuild the tree from parent
//!   links rather than relying on buffer order.
//! - **Generations.** Buffers are keyed by a trace generation so threads
//!   that outlive a trace transparently re-register with the next one.
//!
//! Timestamps are microseconds relative to the trace epoch (the
//! `Instant` captured by `start_trace`), which keeps exports compact and
//! deterministic-width.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Maximum number of key/value attributes carried inline by one event.
pub const MAX_ATTRS: usize = 4;

/// One recorded event: a closed duration span (`start_us..end_us`).
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Unique nonzero id.
    pub id: u64,
    /// Id of the enclosing span on the same thread, or 0 for a root.
    pub parent: u64,
    /// Static event name (phase name, e.g. `"bgp.deploy"`).
    pub name: &'static str,
    /// Dense per-trace thread index (see [`Trace::threads`]).
    pub thread: usize,
    /// Start, microseconds since the trace epoch.
    pub start_us: u64,
    /// End, microseconds since the trace epoch (`>= start_us`).
    pub end_us: u64,
    attrs: [(&'static str, u64); MAX_ATTRS],
    n_attrs: u8,
}

impl TraceEvent {
    /// The attributes attached to this event, in insertion order.
    pub fn attrs(&self) -> &[(&'static str, u64)] {
        &self.attrs[..self.n_attrs as usize]
    }
}

/// Configuration for a trace collection window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Events preallocated per thread buffer. Buffers grow past this if a
    /// thread records more events, so this is a reallocation hint, not a
    /// drop threshold.
    pub buffer_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            buffer_capacity: 4096,
        }
    }
}

/// Identity of one thread that recorded into a trace.
#[derive(Debug, Clone)]
pub struct ThreadInfo {
    /// Dense index referenced by [`TraceEvent::thread`].
    pub index: usize,
    /// OS thread name at registration time, if any.
    pub label: Option<String>,
}

/// A drained trace: every event from every participating thread.
#[derive(Debug, Clone)]
pub struct Trace {
    /// All recorded events. Per thread, events appear in completion
    /// order; across threads no order is guaranteed.
    pub events: Vec<TraceEvent>,
    /// Threads that recorded at least one event, by dense index.
    pub threads: Vec<ThreadInfo>,
    /// Wall-clock length of the collection window in microseconds.
    pub duration_us: u64,
}

struct ThreadBuf {
    label: Option<String>,
    events: Mutex<Vec<TraceEvent>>,
}

struct TraceState {
    generation: u64,
    config: TraceConfig,
    epoch: Instant,
    threads: Vec<Arc<ThreadBuf>>,
}

/// Armed flag, read (relaxed) on the span fast path.
static TRACING: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static GENERATION: AtomicU64 = AtomicU64::new(0);

fn state() -> &'static Mutex<Option<TraceState>> {
    static STATE: OnceLock<Mutex<Option<TraceState>>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(None))
}

struct LocalCtx {
    generation: u64,
    thread: usize,
    epoch: Instant,
    buf: Arc<ThreadBuf>,
    current_parent: u64,
}

thread_local! {
    static LOCAL: RefCell<Option<LocalCtx>> = const { RefCell::new(None) };
}

/// Live span context held by an open [`crate::span::Span`].
#[derive(Debug)]
pub struct TraceCtx {
    id: u64,
    prev_parent: u64,
    start_us: u64,
    generation: u64,
}

/// True while a trace collection window is armed.
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Arm trace collection. Replaces any previously armed (un-drained) trace.
pub fn start_trace(config: TraceConfig) {
    let mut guard = state().lock().unwrap();
    let generation = GENERATION.fetch_add(1, Ordering::Relaxed) + 1;
    NEXT_ID.store(1, Ordering::Relaxed);
    *guard = Some(TraceState {
        generation,
        config,
        epoch: Instant::now(),
        threads: Vec::new(),
    });
    TRACING.store(true, Ordering::Relaxed);
}

/// Disarm collection and drain every per-thread buffer.
///
/// Returns `None` if no trace was armed.
pub fn end_trace() -> Option<Trace> {
    TRACING.store(false, Ordering::Relaxed);
    let taken = state().lock().unwrap().take();
    let st = taken?;
    let duration_us = st.epoch.elapsed().as_micros() as u64;
    let mut events = Vec::new();
    let mut threads = Vec::with_capacity(st.threads.len());
    for (index, buf) in st.threads.iter().enumerate() {
        threads.push(ThreadInfo {
            index,
            label: buf.label.clone(),
        });
        events.append(&mut buf.events.lock().unwrap());
    }
    Some(Trace {
        events,
        threads,
        duration_us,
    })
}

/// One-line label of the current trace configuration, for run manifests:
/// `"off"` when disarmed, `"chrome:cap=<N>"` while a trace is armed.
pub fn trace_config_label() -> String {
    let guard = state().lock().unwrap();
    match guard.as_ref() {
        Some(st) if TRACING.load(Ordering::Relaxed) => {
            format!("chrome:cap={}", st.config.buffer_capacity)
        }
        _ => "off".to_string(),
    }
}

/// Run `f` with this thread's registered local context for the current
/// generation, registering the thread with the active trace on first use.
/// Returns `None` if tracing disarmed between the fast-path check and now.
fn with_local<R>(f: impl FnOnce(&mut LocalCtx) -> R) -> Option<R> {
    LOCAL.with(|cell| {
        let mut slot = cell.borrow_mut();
        let gen_now = GENERATION.load(Ordering::Relaxed);
        let stale = match slot.as_ref() {
            Some(ctx) => ctx.generation != gen_now,
            None => true,
        };
        if stale {
            let mut guard = state().lock().unwrap();
            let st = guard.as_mut()?;
            let buf = Arc::new(ThreadBuf {
                label: std::thread::current().name().map(str::to_string),
                events: Mutex::new(Vec::with_capacity(st.config.buffer_capacity)),
            });
            let thread = st.threads.len();
            st.threads.push(Arc::clone(&buf));
            *slot = Some(LocalCtx {
                generation: st.generation,
                thread,
                epoch: st.epoch,
                buf,
                current_parent: 0,
            });
        }
        Some(f(slot.as_mut().unwrap()))
    })
}

fn us_since(epoch: Instant, t: Instant) -> u64 {
    t.checked_duration_since(epoch)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

/// Open a traced span at time `now`. Called by [`crate::span::span`] when
/// tracing is armed; pairs with [`exit`].
pub(crate) fn enter(now: Instant) -> Option<TraceCtx> {
    with_local(|ctx| {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let prev_parent = ctx.current_parent;
        ctx.current_parent = id;
        TraceCtx {
            id,
            prev_parent,
            start_us: us_since(ctx.epoch, now),
            generation: ctx.generation,
        }
    })
}

/// Close a traced span: restore the parent cell and push the event.
pub(crate) fn exit(
    tctx: TraceCtx,
    name: &'static str,
    end: Instant,
    attrs: [(&'static str, u64); MAX_ATTRS],
    n_attrs: u8,
) {
    LOCAL.with(|cell| {
        let mut slot = cell.borrow_mut();
        let Some(ctx) = slot.as_mut() else { return };
        // If a new trace started while this span was open, its events
        // belong to neither trace; drop them rather than corrupt links.
        if ctx.generation != tctx.generation {
            return;
        }
        ctx.current_parent = tctx.prev_parent;
        ctx.buf.events.lock().unwrap().push(TraceEvent {
            id: tctx.id,
            parent: tctx.prev_parent,
            name,
            thread: ctx.thread,
            start_us: tctx.start_us,
            end_us: us_since(ctx.epoch, end),
            attrs,
            n_attrs,
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_collects_nested_spans_with_parent_links() {
        let _guard = crate::test_lock();
        // Disarmed: inert guards, and an inert guard stays inert when a
        // trace arms before it drops.
        drop(crate::span("trace.test.never"));
        let late = crate::span("trace.test.late");
        start_trace(TraceConfig::default());
        drop(late);
        {
            let _outer = crate::span("trace.test.outer");
            let _inner = crate::span("trace.test.inner");
        }
        let trace = end_trace().expect("trace was armed");
        assert!(!tracing_enabled());
        let names: Vec<_> = trace.events.iter().map(|e| e.name).collect();
        // Inner closes first: buffers hold spans in completion order.
        assert_eq!(names, ["trace.test.inner", "trace.test.outer"]);
        let (inner, outer) = (&trace.events[0], &trace.events[1]);
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id);
        assert!(outer.start_us <= inner.start_us);
        assert!(inner.end_us <= outer.end_us);
        assert_eq!(outer.thread, inner.thread);
    }

    #[test]
    fn span_attrs_round_trip() {
        let _guard = crate::test_lock();
        start_trace(TraceConfig {
            buffer_capacity: 16,
        });
        {
            let mut s = crate::span("trace.test.attrs")
                .attr("epoch", 3)
                .attr("shard", 7);
            s.set_attr("events", 9);
        }
        let trace = end_trace().unwrap();
        let span = trace
            .events
            .iter()
            .find(|e| e.name == "trace.test.attrs")
            .unwrap();
        assert_eq!(span.attrs(), &[("epoch", 3), ("shard", 7), ("events", 9)]);
    }

    #[test]
    fn end_without_start_is_none_and_recording_when_off_is_noop() {
        let _guard = crate::test_lock();
        assert!(end_trace().is_none());
        drop(crate::span("trace.test.ignored").attr("epoch", 1));
        assert!(end_trace().is_none());
        assert_eq!(trace_config_label(), "off");
    }
}
