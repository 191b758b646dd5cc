//! Scoped spans that record into the armed trace.
//!
//! Spans are *inert by default*: until a trace is armed
//! ([`crate::trace::start_trace`]), [`span`] returns an inert guard whose
//! construction and drop are a single relaxed atomic load each — no
//! clock reads, no allocation — so instrumented hot paths pay nothing.
//!
//! While a trace is armed, each span reads the monotonic clock at open
//! and close and records a [`crate::trace::TraceEvent`] with id, parent
//! link, thread index, timestamps, and any [`Span::attr`] attributes into
//! the per-thread trace buffer. Spans feed no metric, so deterministic
//! metrics snapshots are unaffected by profiling runs.

use crate::trace::{self, TraceCtx, MAX_ATTRS};
use std::time::Instant;

/// RAII guard returned by [`span`]; records its trace event on drop.
#[must_use = "a span measures the scope it is bound to"]
pub struct Span {
    name: &'static str,
    trace: Option<TraceCtx>,
    attrs: [(&'static str, u64); MAX_ATTRS],
    n_attrs: u8,
}

/// Open a scoped span. Inert (no clock read) unless a trace is armed.
pub fn span(name: &'static str) -> Span {
    let trace = if trace::tracing_enabled() {
        trace::enter(Instant::now())
    } else {
        None
    };
    Span {
        name,
        trace,
        attrs: [("", 0); MAX_ATTRS],
        n_attrs: 0,
    }
}

impl Span {
    /// Attach a `u64` attribute (builder style). No-op when the span is
    /// inert or already carries [`MAX_ATTRS`] attributes.
    pub fn attr(mut self, key: &'static str, value: u64) -> Span {
        self.set_attr(key, value);
        self
    }

    /// Attach a `u64` attribute in place; same semantics as [`Span::attr`].
    pub fn set_attr(&mut self, key: &'static str, value: u64) {
        if self.trace.is_none() {
            return;
        }
        let n = self.n_attrs as usize;
        if n < MAX_ATTRS {
            self.attrs[n] = (key, value);
            self.n_attrs += 1;
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(tctx) = self.trace.take() {
            trace::exit(tctx, self.name, Instant::now(), self.attrs, self.n_attrs);
        }
    }
}
