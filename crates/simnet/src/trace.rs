//! Deterministic structured tracing: causal spans across message hops.
//!
//! A trace follows one logical operation (e.g. a client fetch) through the
//! simulated network. Nodes open *spans* — named intervals — inside the
//! current trace; the [`World`](crate::World) propagates the active span
//! context on every message and timer, so causality survives arbitrary
//! message hops without nodes threading ids by hand.
//!
//! Design constraints, in order:
//!
//! 1. **Deterministic.** Ids come from per-sink counters, timestamps from
//!    the virtual clock, and storage is an ordered ring buffer — a seeded
//!    run produces a byte-identical event log every time, on any thread.
//! 2. **Zero-cost when disabled.** With tracing off (the default),
//!    [`Context::begin_trace`](crate::Context::begin_trace) returns `None`,
//!    no span context is ever set, and the only residual work is copying a
//!    `None` per scheduled event.
//! 3. **Bounded.** The sink is a ring buffer: when full, the *oldest*
//!    events are dropped (and counted), so a long run degrades to "most
//!    recent window" rather than unbounded memory.

use std::collections::VecDeque;

use crate::node::NodeId;
use crate::time::SimTime;

/// Identifies one trace (one logical request) within a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Identifies one span within a run. Span ids are allocated from a single
/// per-sink counter, so they are unique across traces of the same run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

impl std::fmt::Display for SpanId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The span context carried across message hops: which trace the current
/// causal chain belongs to and which span is currently active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanCtx {
    /// The trace this causal chain belongs to.
    pub trace: TraceId,
    /// The active span new child spans should parent to.
    pub span: SpanId,
}

/// The label of a span kind: what [`Context`](crate::Context)'s span
/// methods take, so a bare string at an instrumentation site is a type
/// error. The vocabulary is the protocol crate's `SpanKind`, which
/// converts into this; [`TraceEvent::kind`] carries the string inside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanLabel(&'static str);

impl SpanLabel {
    /// Wraps `label`. On `clippy.toml`'s `disallowed-methods` list: labels
    /// come from the module that declares the vocabulary.
    pub const fn new(label: &'static str) -> Self {
        SpanLabel(label)
    }

    /// The label recorded in trace events.
    pub const fn as_str(self) -> &'static str {
        self.0
    }
}

/// Whether a trace event opens a span, closes one, or marks a point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePhase {
    /// The span begins at `at`.
    Start,
    /// The span ends at `at`.
    End,
    /// A point-in-time marker inside the active span.
    Instant,
}

impl TracePhase {
    /// Stable lowercase label (used by exporters).
    pub fn as_str(&self) -> &'static str {
        match self {
            TracePhase::Start => "start",
            TracePhase::End => "end",
            TracePhase::Instant => "instant",
        }
    }
}

/// One recorded tracing event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Virtual time the event was recorded.
    pub at: SimTime,
    /// Trace the event belongs to.
    pub trace: TraceId,
    /// Span the event belongs to.
    pub span: SpanId,
    /// Parent span (set on `Start` events of child spans).
    pub parent: Option<SpanId>,
    /// Node whose callback recorded the event.
    pub node: NodeId,
    /// Span kind, e.g. `"fetch"` or `"wan.fetch"`. Static so recording
    /// never allocates; the vocabulary lives in the protocol crate.
    pub kind: &'static str,
    /// Start / end / instant.
    pub phase: TracePhase,
}

/// Tracing knobs: off by default, bounded buffer, optional sampling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch. When false the sink records nothing and
    /// `begin_trace` always returns `None`.
    pub enabled: bool,
    /// Ring-buffer capacity in events; the oldest events are dropped (and
    /// counted) once the buffer is full.
    pub capacity: usize,
    /// Record every `sample_every`-th trace (1 = every trace). Sampling is
    /// counter-based, hence deterministic. Values of 0 are treated as 1.
    pub sample_every: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            enabled: false,
            capacity: 1 << 16,
            sample_every: 1,
        }
    }
}

impl TraceConfig {
    /// An enabled config with default capacity and no sampling.
    pub fn enabled() -> Self {
        TraceConfig {
            enabled: true,
            ..TraceConfig::default()
        }
    }
}

/// Ring-buffered store of [`TraceEvent`]s, owned by the
/// [`World`](crate::World).
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    config: TraceConfig,
    events: VecDeque<TraceEvent>,
    dropped: u64,
    /// Traces requested via `try_begin_trace` (sampled or not).
    candidates: u64,
    next_trace: u64,
    next_span: u64,
}

impl TraceSink {
    /// Creates a sink with the given configuration.
    pub fn new(config: TraceConfig) -> Self {
        TraceSink {
            config,
            ..TraceSink::default()
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// Replaces the configuration. Intended for use before a run starts;
    /// shrinking the capacity mid-run drops the oldest buffered events.
    pub fn set_config(&mut self, config: TraceConfig) {
        self.config = config;
        while self.events.len() > self.config.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
    }

    /// Whether events are currently being recorded.
    pub fn is_enabled(&self) -> bool {
        self.config.enabled
    }

    /// Allocates a new trace id if tracing is enabled and this candidate
    /// falls on the sampling grid; `None` otherwise.
    pub fn try_begin_trace(&mut self) -> Option<TraceId> {
        if !self.config.enabled {
            return None;
        }
        let every = self.config.sample_every.max(1);
        let candidate = self.candidates;
        self.candidates += 1;
        if !candidate.is_multiple_of(every) {
            return None;
        }
        let id = TraceId(self.next_trace);
        self.next_trace += 1;
        Some(id)
    }

    /// Allocates the next span id (unique within the run).
    pub fn next_span_id(&mut self) -> SpanId {
        let id = SpanId(self.next_span);
        self.next_span += 1;
        id
    }

    /// Appends an event, evicting the oldest if the buffer is full.
    pub fn push(&mut self, event: TraceEvent) {
        if !self.config.enabled {
            return;
        }
        if self.config.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() >= self.config.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Buffered events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted because the ring filled up (or capacity was 0).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Traces begun (post-sampling) so far.
    pub fn traces_started(&self) -> u64 {
        self.next_trace
    }

    /// Removes and returns all buffered events, oldest first.
    pub fn drain(&mut self) -> Vec<TraceEvent> {
        self.events.drain(..).collect()
    }

    /// Stable 64-bit digest of the buffered event log (order-sensitive)
    /// plus the drop/candidate counters, used by the schedule-perturbation
    /// race detector to compare runs. Returns 0 when the sink has never
    /// recorded anything, so untraced runs compare trivially equal.
    pub fn digest(&self) -> u64 {
        if self.events.is_empty() && self.dropped == 0 && self.candidates == 0 {
            return 0;
        }
        let mut h = crate::determinism::Fnv64::new();
        h.write_u64(self.dropped);
        h.write_u64(self.candidates);
        h.write_u64(self.next_trace);
        h.write_u64(self.next_span);
        for e in &self.events {
            h.write_u64(e.at.as_nanos());
            h.write_u64(e.trace.0);
            h.write_u64(e.span.0);
            h.write_u64(e.parent.map_or(u64::MAX, |p| p.0));
            h.write_u64(e.node.index() as u64);
            h.write(e.kind.as_bytes());
            h.write(e.phase.as_str().as_bytes());
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(span: u64) -> TraceEvent {
        TraceEvent {
            at: SimTime::ZERO,
            trace: TraceId(0),
            span: SpanId(span),
            parent: None,
            node: NodeId::from_raw(0),
            kind: "test",
            phase: TracePhase::Instant,
        }
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let mut sink = TraceSink::new(TraceConfig::default());
        assert!(!sink.is_enabled());
        assert_eq!(sink.try_begin_trace(), None);
        sink.push(event(1));
        assert!(sink.is_empty());
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn trace_and_span_ids_are_sequential() {
        let mut sink = TraceSink::new(TraceConfig::enabled());
        assert_eq!(sink.try_begin_trace(), Some(TraceId(0)));
        assert_eq!(sink.try_begin_trace(), Some(TraceId(1)));
        assert_eq!(sink.next_span_id(), SpanId(0));
        assert_eq!(sink.next_span_id(), SpanId(1));
        assert_eq!(sink.traces_started(), 2);
    }

    #[test]
    fn sampling_keeps_every_nth_trace() {
        let mut sink = TraceSink::new(TraceConfig {
            enabled: true,
            sample_every: 3,
            ..TraceConfig::default()
        });
        let kept: Vec<bool> = (0..9).map(|_| sink.try_begin_trace().is_some()).collect();
        assert_eq!(
            kept,
            vec![true, false, false, true, false, false, true, false, false]
        );
        assert_eq!(sink.traces_started(), 3);
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let mut sink = TraceSink::new(TraceConfig {
            enabled: true,
            capacity: 3,
            sample_every: 1,
        });
        for i in 0..5 {
            sink.push(event(i));
        }
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.dropped(), 2);
        let spans: Vec<u64> = sink.events().map(|e| e.span.0).collect();
        assert_eq!(spans, vec![2, 3, 4]);
    }

    #[test]
    fn zero_capacity_counts_everything_as_dropped() {
        let mut sink = TraceSink::new(TraceConfig {
            enabled: true,
            capacity: 0,
            sample_every: 1,
        });
        sink.push(event(1));
        assert!(sink.is_empty());
        assert_eq!(sink.dropped(), 1);
    }

    #[test]
    fn drain_empties_the_buffer() {
        let mut sink = TraceSink::new(TraceConfig::enabled());
        sink.push(event(1));
        sink.push(event(2));
        let drained = sink.drain();
        assert_eq!(drained.len(), 2);
        assert!(sink.is_empty());
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn shrinking_capacity_evicts() {
        let mut sink = TraceSink::new(TraceConfig::enabled());
        for i in 0..10 {
            sink.push(event(i));
        }
        sink.set_config(TraceConfig {
            enabled: true,
            capacity: 4,
            sample_every: 1,
        });
        assert_eq!(sink.len(), 4);
        assert_eq!(sink.dropped(), 6);
    }

    #[test]
    fn phase_labels_are_stable() {
        assert_eq!(TracePhase::Start.as_str(), "start");
        assert_eq!(TracePhase::End.as_str(), "end");
        assert_eq!(TracePhase::Instant.as_str(), "instant");
    }
}
