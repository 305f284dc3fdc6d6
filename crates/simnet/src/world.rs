//! The simulation world: node table, link table, clock and event loop.

use crate::determinism::{perturbation_key, DeterminismReport, Fingerprint, PerturbedRun};
use crate::event::{EventKind, EventQueue};
use crate::fault::FaultPlan;
use crate::link::{LinkSpec, LinkTable};
use crate::metrics::{keys, Metrics};
use crate::node::{Message, Node, NodeId, TimerToken};
use crate::profiler::{ProfCategory, ProfTimer, ProfileReport, Profiler};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::trace::{SpanCtx, SpanLabel, TraceConfig, TraceEvent, TracePhase, TraceSink};

/// Why a call to [`World::run_until`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The event queue drained before the deadline.
    Idle,
    /// The deadline was reached with events still pending.
    Deadline,
    /// The configured event cap was hit (runaway protection).
    EventCap,
}

/// Summary of one `run_*` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunReport {
    /// Number of events processed during this call.
    pub events: u64,
    /// Why the loop stopped.
    pub reason: StopReason,
    /// Clock value when the loop stopped.
    pub now: SimTime,
}

/// The execution environment handed to node callbacks.
///
/// Nodes use the context to read the clock, send messages over topology
/// links, arm timers on themselves, draw randomness and record metrics.
pub struct Context<'a, M: Message> {
    pub(crate) now: SimTime,
    pub(crate) self_id: NodeId,
    pub(crate) queue: &'a mut EventQueue<M>,
    pub(crate) faults: &'a FaultPlan,
    pub(crate) links: &'a mut LinkTable,
    pub(crate) rng: &'a mut SimRng,
    pub(crate) metrics: &'a mut Metrics,
    pub(crate) trace: &'a mut TraceSink,
    pub(crate) prof: &'a mut Profiler,
    /// Span context of the event being dispatched; attached to every
    /// message/timer this callback schedules so causality propagates.
    pub(crate) span: Option<SpanCtx>,
}

impl<M: Message> std::fmt::Debug for Context<'_, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Context")
            .field("now", &self.now)
            .field("self_id", &self.self_id)
            .field("span", &self.span)
            .finish_non_exhaustive()
    }
}

impl<'a, M: Message> Context<'a, M> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the node whose callback is running.
    pub fn self_id(&self) -> NodeId {
        self.self_id
    }

    /// Sends `msg` to `to` over the registered link, applying propagation
    /// delay, transfer time, jitter and loss.
    ///
    /// # Panics
    ///
    /// Panics if no link connects this node to `to`; topology is static, so
    /// that is a wiring bug in the experiment builder.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.send_after(SimDuration::ZERO, to, msg);
    }

    /// Like [`send`](Self::send) but the message leaves this node only after
    /// `local_delay` (modelling local processing before transmission).
    ///
    /// # Panics
    ///
    /// Panics if no link connects this node to `to`.
    pub fn send_after(&mut self, local_delay: SimDuration, to: NodeId, msg: M) {
        // Profiler attribution: link lookup, fault/loss/delay resolution
        // and the queue push charge to `link+fault.resolve`; the metric
        // increments account for themselves (`metrics.record`), so each
        // timer stops before recording.
        let t = self.prof.start();
        let link = self
            .links
            .get_mut(self.self_id, to)
            .unwrap_or_else(|| panic!("no link {} -> {}", self.self_id, to));
        // Fault windows are evaluated at send time. The empty-plan path
        // draws no randomness and records no metrics, so a world without a
        // FaultPlan is bit-identical to one predating fault injection.
        let mut fault_delay = SimDuration::ZERO;
        if !self.faults.is_empty() {
            let effect = self.faults.effect(self.self_id, to, self.now);
            if effect.down {
                self.prof.record(ProfCategory::LinkFault, t);
                self.metrics.incr_id(keys::id::NET_FAULT_DROPPED, 1);
                return;
            }
            if effect.loss > 0.0 && self.rng.chance(effect.loss) {
                self.prof.record(ProfCategory::LinkFault, t);
                self.metrics.incr_id(keys::id::NET_FAULT_DROPPED, 1);
                return;
            }
            fault_delay = effect.extra_delay;
        }
        if link.spec.sample_loss(self.rng) {
            self.prof.record(ProfCategory::LinkFault, t);
            self.metrics.incr_id(keys::id::NET_DROPPED, 1);
            return;
        }
        let wire = msg.wire_size();
        let owd = link.spec.sample_owd(wire, self.rng);
        // The link delivers serially: an arrival that lands on an occupied
        // nanosecond is bumped to the next free one, so same-pair messages
        // never tie at the receiver (see `link::Link`).
        let at = link.reserve(self.now, self.now + local_delay + owd + fault_delay);
        let kind = EventKind::Deliver {
            to,
            from: self.self_id,
            msg,
            span: self.span,
        };
        self.queue.push(at, kind);
        self.prof.record(ProfCategory::LinkFault, t);
        // Counter order relative to the push is digest-invisible (counters
        // add, the digest walks names sorted); keeping the increments last
        // keeps them out of the link+fault timing above.
        self.metrics.incr_id(keys::id::NET_MESSAGES, 1);
        self.metrics.incr_id(keys::id::NET_BYTES, wire as u64);
    }

    /// Nominal RTT of the link to `to`, if one exists.
    pub fn link_rtt(&self, to: NodeId) -> Option<SimDuration> {
        self.links
            .get(self.self_id, to)
            .map(|link| link.spec.nominal_rtt())
    }

    /// Arms a timer on this node that fires after `delay`.
    pub fn schedule(&mut self, delay: SimDuration, token: TimerToken) {
        let kind = EventKind::Timer {
            node: self.self_id,
            token,
            span: self.span,
        };
        self.queue.push(self.now + delay, kind);
    }

    /// Arms one timer on this node per element of the time-sorted `times`:
    /// element `i` fires at instant `times[i]` with token `token_base + i`.
    /// Dispatch is exactly that of one [`schedule`](Self::schedule) call per
    /// element, in order, made here — ties included, perturbed or not —
    /// but the queue holds the series an instant at a time, arming each as
    /// the one before it fires, so a long schedule costs no queue memory
    /// until it is due and [`World::pending_events`] stays the in-flight
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if `times` is not sorted ascending or starts before now.
    pub fn schedule_series(
        &mut self,
        times: impl IntoIterator<Item = SimTime>,
        token_base: TimerToken,
    ) {
        let times: Vec<SimTime> = times.into_iter().collect();
        assert!(
            times.first().is_none_or(|&at| at >= self.now),
            "a timer series cannot start in the past"
        );
        self.queue
            .push_series(self.self_id, self.span, token_base.get(), times);
    }

    /// Deterministic randomness shared by the run.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// The run's metric registry.
    pub fn metrics(&mut self) -> &mut Metrics {
        self.metrics
    }

    // --- Profiling -------------------------------------------------------

    /// Starts a self-profiler measurement (`None`, for free, when the
    /// profiler is off). Node crates use this to attribute their own
    /// subsystem time — e.g. the AP charges [`ProfCategory::Evict`] around
    /// cache admission — without naming any wall-clock type.
    #[inline]
    pub fn prof_start(&self) -> Option<ProfTimer> {
        self.prof.start()
    }

    /// Stops a measurement from [`prof_start`](Self::prof_start), charging
    /// the elapsed host time to `category`. A `None` timer is a no-op.
    #[inline]
    pub fn prof_end(&mut self, category: ProfCategory, timer: Option<ProfTimer>) {
        self.prof.record(category, timer);
    }

    // --- Tracing ---------------------------------------------------------

    /// The span context of the event being dispatched (propagated from the
    /// sender/scheduler), if any.
    pub fn span_ctx(&self) -> Option<SpanCtx> {
        self.span
    }

    /// Overrides the active span context for the rest of this callback.
    /// Messages and timers scheduled afterwards carry the new context.
    /// Nodes multiplexing several logical requests in one callback (e.g.
    /// answering all waiters of a coalesced fetch) use this to attribute
    /// each send to the right trace.
    pub fn set_span_ctx(&mut self, span: Option<SpanCtx>) {
        self.span = span;
    }

    /// Starts a new trace rooted at a span of the given kind, makes it the
    /// active context, and returns it.
    ///
    /// Returns `None` — and clears the active context, so the new logical
    /// operation never inherits its trigger's trace — when tracing is
    /// disabled or this trace was sampled out.
    pub fn begin_trace(&mut self, kind: impl Into<SpanLabel>) -> Option<SpanCtx> {
        self.span = None;
        let t = self.prof.start();
        let Some(trace) = self.trace.try_begin_trace() else {
            self.prof.record(ProfCategory::Trace, t);
            return None;
        };
        let span = self.trace.next_span_id();
        let ctx = SpanCtx { trace, span };
        self.trace.push(TraceEvent {
            at: self.now,
            trace,
            span,
            parent: None,
            node: self.self_id,
            kind: kind.into().as_str(),
            phase: TracePhase::Start,
        });
        self.span = Some(ctx);
        self.prof.record(ProfCategory::Trace, t);
        Some(ctx)
    }

    /// Opens a child span of the active context and returns its context
    /// (for a later [`span_end`](Self::span_end)). The active context is
    /// left unchanged. Returns `None` when there is no active traced
    /// context.
    pub fn span_start(&mut self, kind: impl Into<SpanLabel>) -> Option<SpanCtx> {
        let parent = self.span?;
        if !self.trace.is_enabled() {
            return None;
        }
        let t = self.prof.start();
        let span = self.trace.next_span_id();
        self.trace.push(TraceEvent {
            at: self.now,
            trace: parent.trace,
            span,
            parent: Some(parent.span),
            node: self.self_id,
            kind: kind.into().as_str(),
            phase: TracePhase::Start,
        });
        self.prof.record(ProfCategory::Trace, t);
        Some(SpanCtx {
            trace: parent.trace,
            span,
        })
    }

    /// Closes a span previously opened with [`begin_trace`](Self::begin_trace)
    /// or [`span_start`](Self::span_start).
    pub fn span_end(&mut self, ctx: SpanCtx, kind: impl Into<SpanLabel>) {
        if !self.trace.is_enabled() {
            return;
        }
        let t = self.prof.start();
        self.trace.push(TraceEvent {
            at: self.now,
            trace: ctx.trace,
            span: ctx.span,
            parent: None,
            node: self.self_id,
            kind: kind.into().as_str(),
            phase: TracePhase::End,
        });
        self.prof.record(ProfCategory::Trace, t);
    }

    /// Closes a span at an explicit timestamp instead of the current clock.
    ///
    /// For work the node accounts for synchronously but whose simulated
    /// duration extends past the dispatch instant (e.g. the AP charges
    /// `EVICTION_PROCESSING` during admission and delays the response by
    /// it), so the span covers the modeled interval `[start, at]`.
    pub fn span_end_at(&mut self, ctx: SpanCtx, kind: impl Into<SpanLabel>, at: SimTime) {
        if !self.trace.is_enabled() {
            return;
        }
        let t = self.prof.start();
        self.trace.push(TraceEvent {
            at,
            trace: ctx.trace,
            span: ctx.span,
            parent: None,
            node: self.self_id,
            kind: kind.into().as_str(),
            phase: TracePhase::End,
        });
        self.prof.record(ProfCategory::Trace, t);
    }

    /// Records a point-in-time marker inside the active span, if any.
    pub fn span_instant(&mut self, kind: impl Into<SpanLabel>) {
        let Some(ctx) = self.span else { return };
        if !self.trace.is_enabled() {
            return;
        }
        let t = self.prof.start();
        self.trace.push(TraceEvent {
            at: self.now,
            trace: ctx.trace,
            span: ctx.span,
            parent: None,
            node: self.self_id,
            kind: kind.into().as_str(),
            phase: TracePhase::Instant,
        });
        self.prof.record(ProfCategory::Trace, t);
    }
}

/// A complete simulated deployment: nodes, links, clock and metrics.
///
/// # Examples
///
/// ```
/// use ape_simnet::{Context, LinkSpec, Message, Node, NodeId, SimDuration, World};
///
/// #[derive(Debug)]
/// struct Ping(u32);
/// impl Message for Ping {
///     fn wire_size(&self) -> usize { 64 }
/// }
///
/// struct Echo;
/// impl Node<Ping> for Echo {
///     fn on_message(&mut self, ctx: &mut Context<'_, Ping>, from: NodeId, msg: Ping) {
///         if msg.0 > 0 {
///             ctx.send(from, Ping(msg.0 - 1));
///         }
///     }
/// }
///
/// let mut world = World::new(42);
/// let a = world.add_node("a", Echo);
/// let b = world.add_node("b", Echo);
/// world.connect(a, b, LinkSpec::new(1, SimDuration::from_millis(1)));
/// world.post(a, b, Ping(3));
/// let report = world.run_to_idle();
/// assert_eq!(report.events, 4);
/// ```
pub struct World<M: Message> {
    clock: SimTime,
    queue: EventQueue<M>,
    nodes: Vec<Option<Box<dyn Node<M>>>>,
    names: Vec<String>,
    links: LinkTable,
    faults: FaultPlan,
    rng: SimRng,
    metrics: Metrics,
    trace: TraceSink,
    prof: Profiler,
    started: bool,
    event_cap: u64,
    /// Events processed across all `run_*` calls (for fingerprints).
    processed: u64,
}

impl<M: Message> World<M> {
    /// Creates an empty world with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        World {
            clock: SimTime::ZERO,
            queue: EventQueue::new(),
            nodes: Vec::new(),
            names: Vec::new(),
            links: LinkTable::default(),
            faults: FaultPlan::new(),
            rng: SimRng::seed_from(seed),
            metrics: Metrics::new(),
            trace: TraceSink::default(),
            prof: Profiler::new(),
            started: false,
            event_cap: u64::MAX,
            processed: 0,
        }
    }

    /// Replaces FIFO tie-breaking for same-timestamp events with a seeded
    /// bijective permutation. Events at distinct timestamps are unaffected.
    ///
    /// This is the schedule-perturbation race detector's knob (normally
    /// driven via [`check_determinism`](Self::check_determinism)): a world
    /// whose results change under a perturbed tie-break order has an
    /// event-ordering race.
    ///
    /// # Panics
    ///
    /// Panics if the world has already started or has pending events —
    /// perturbation must cover the whole schedule to be meaningful.
    pub fn set_tie_perturbation(&mut self, key: u64) {
        assert!(
            !self.started && self.queue.is_empty(),
            "set_tie_perturbation must be called before any event is scheduled"
        );
        self.queue.set_perturbation(Some(key));
    }

    /// The active tie-break perturbation key, if any.
    pub fn tie_perturbation(&self) -> Option<u64> {
        self.queue.perturbation()
    }

    /// Mirrors every event-queue operation of this run against the frozen
    /// pre-wheel heap ([`crate::reference::ReferenceEventQueue`]); the
    /// first pop where the timing wheel disagrees with the heap panics
    /// with both `(at, seq)` pairs. A differential-testing knob — it
    /// roughly doubles scheduler work, so leave it off outside tests.
    ///
    /// # Panics
    ///
    /// Panics if events have already been scheduled — the oracle must see
    /// the whole schedule to mirror it.
    pub fn enable_queue_oracle(&mut self) {
        assert!(
            !self.started && self.queue.is_empty(),
            "enable_queue_oracle must be called before any event is scheduled"
        );
        self.queue.enable_oracle();
    }

    /// Digest of everything the determinism contract covers: metric
    /// content, trace log, final clock and events processed.
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint {
            clock_ns: self.clock.as_nanos(),
            events: self.processed,
            metrics: self.metrics.digest(),
            trace: self.trace.digest(),
        }
    }

    /// Runs `scenario` once with FIFO tie-breaking and `perturbations`
    /// more times under distinct seeded tie-break permutations, comparing
    /// run [`Fingerprint`]s.
    ///
    /// `scenario` receives a freshly seeded empty world each time and must
    /// build and run it (add nodes, connect links, call `run_*`). Any
    /// divergence between a perturbed run and the baseline means the
    /// scenario's results depend on the processing order of same-timestamp
    /// events — a hidden ordering race. See the [`determinism`]
    /// (crate::determinism) module docs for the RNG-coupling caveat.
    pub fn check_determinism(
        seed: u64,
        perturbations: u32,
        mut scenario: impl FnMut(&mut World<M>),
    ) -> DeterminismReport {
        let mut run = |key: Option<u64>| {
            let mut world = World::new(seed);
            if let Some(key) = key {
                world.set_tie_perturbation(key);
            }
            scenario(&mut world);
            world.fingerprint()
        };
        let baseline = run(None);
        let runs = (0..perturbations)
            .map(|n| {
                let key = perturbation_key(seed, n);
                PerturbedRun {
                    key,
                    fingerprint: run(Some(key)),
                }
            })
            .collect();
        DeterminismReport { baseline, runs }
    }

    /// Attaches a deterministic fault schedule to the run. Normally called
    /// once, before the run starts; the plan applies to every node-initiated
    /// send from then on ([`post`](Self::post) bypasses faults, like loss).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// Configures the trace sink (enable/disable, capacity, sampling).
    /// Normally called once, before the run starts.
    pub fn set_trace_config(&mut self, config: TraceConfig) {
        self.trace.set_config(config);
    }

    /// Turns on the sim-loop self-profiler (see [`crate::Profiler`]): the
    /// event loop, `Context` hot paths and the metric registry start
    /// attributing host wall-clock to subsystems. Simulation outputs are
    /// unaffected — the profiler reads the host clock but never feeds it
    /// back into sim state.
    pub fn enable_profiler(&mut self) {
        self.prof.enable();
        self.metrics.enable_self_profile();
    }

    /// Snapshot of the self-profiler's attribution. Metric-registry
    /// self-time (accumulated inside [`Metrics`]) is folded into the
    /// [`ProfCategory::Metrics`] row here.
    pub fn profile_report(&self) -> ProfileReport {
        let mut report = self.prof.report();
        let (nanos, calls) = self.metrics.self_profile();
        report.nanos[ProfCategory::Metrics as usize] += nanos;
        report.calls[ProfCategory::Metrics as usize] += calls;
        report
    }

    /// Read access to the trace sink.
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Removes and returns all buffered trace events, oldest first.
    pub fn take_trace_events(&mut self) -> Vec<TraceEvent> {
        self.trace.drain()
    }

    /// Limits the total number of events a run may process. Exceeding the
    /// cap stops the loop with [`StopReason::EventCap`].
    pub fn set_event_cap(&mut self, cap: u64) {
        self.event_cap = cap;
    }

    /// Registers a node and returns its id.
    pub fn add_node(&mut self, name: impl Into<String>, node: impl Node<M> + 'static) -> NodeId {
        let id = NodeId::from_raw(self.nodes.len() as u32);
        self.nodes.push(Some(Box::new(node)));
        self.names.push(name.into());
        id
    }

    /// Registers a symmetric link between two nodes.
    ///
    /// # Panics
    ///
    /// Panics if either id was not returned by [`add_node`](Self::add_node).
    pub fn connect(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) {
        assert!(a.index() < self.nodes.len(), "unknown node {a}");
        assert!(b.index() < self.nodes.len(), "unknown node {b}");
        self.links.connect(a, b, spec);
    }

    /// Injects a message from `from` to `to` at the current time, as if
    /// `from` had sent it (link delays apply, loss does not — injected
    /// messages always arrive). Useful to seed a run.
    ///
    /// Counts toward `net.messages`/`net.bytes` like any node-sent
    /// message, so traffic accounting is consistent however a message
    /// entered the network.
    ///
    /// # Panics
    ///
    /// Panics if no link connects the two nodes.
    pub fn post(&mut self, from: NodeId, to: NodeId, msg: M) {
        let link = self
            .links
            .get_mut(from, to)
            .unwrap_or_else(|| panic!("no link {from} -> {to}"));
        let owd = link.spec.sample_owd(msg.wire_size(), &mut self.rng);
        self.metrics.incr_id(keys::id::NET_MESSAGES, 1);
        self.metrics
            .incr_id(keys::id::NET_BYTES, msg.wire_size() as u64);
        let at = link.reserve(self.clock, self.clock + owd);
        self.queue.push(
            at,
            EventKind::Deliver {
                to,
                from,
                msg,
                span: None,
            },
        );
    }

    /// Arms a timer on `node` that fires after `delay`.
    pub fn schedule_timer(&mut self, node: NodeId, delay: SimDuration, token: TimerToken) {
        self.queue.push(
            self.clock + delay,
            EventKind::Timer {
                node,
                token,
                span: None,
            },
        );
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The registered name of a node.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.names[id.index()]
    }

    /// Read access to the run's metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Downcasts a node to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown, the node is mid-dispatch, or the type
    /// does not match.
    pub fn node<T: 'static>(&self, id: NodeId) -> &T {
        self.nodes[id.index()]
            .as_ref()
            .expect("node is mid-dispatch")
            .as_any()
            .downcast_ref::<T>()
            .unwrap_or_else(|| panic!("node {id} is not a {}", std::any::type_name::<T>()))
    }

    /// Mutable variant of [`node`](Self::node).
    ///
    /// # Panics
    ///
    /// Same conditions as [`node`](Self::node).
    pub fn node_mut<T: 'static>(&mut self, id: NodeId) -> &mut T {
        self.nodes[id.index()]
            .as_mut()
            .expect("node is mid-dispatch")
            .as_any_mut()
            .downcast_mut::<T>()
            .unwrap_or_else(|| panic!("node {id} is not a {}", std::any::type_name::<T>()))
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for idx in 0..self.nodes.len() {
            let id = NodeId::from_raw(idx as u32);
            self.with_node(id, None, |node, ctx| node.on_start(ctx));
        }
    }

    fn with_node(
        &mut self,
        id: NodeId,
        span: Option<SpanCtx>,
        f: impl FnOnce(&mut dyn Node<M>, &mut Context<'_, M>),
    ) {
        let mut node = self.nodes[id.index()]
            .take()
            .unwrap_or_else(|| panic!("re-entrant dispatch on {id}"));
        {
            let mut ctx = Context {
                now: self.clock,
                self_id: id,
                queue: &mut self.queue,
                links: &mut self.links,
                faults: &self.faults,
                rng: &mut self.rng,
                metrics: &mut self.metrics,
                trace: &mut self.trace,
                prof: &mut self.prof,
                span,
            };
            f(node.as_mut(), &mut ctx);
        }
        self.nodes[id.index()] = Some(node);
    }

    /// Runs until the queue drains or the clock reaches `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) -> RunReport {
        self.start_if_needed();
        let mut events = 0u64;
        loop {
            // One `QueuePop` record per dispatched event, peek included:
            // on an empty ready run it is the peek that refills the wheel
            // (bucket search, cascades), and the pop after it is a
            // `Vec::pop`. A peek that ends the loop is not recorded.
            let t = self.prof.start();
            let Some(next_at) = self.queue.peek_time() else {
                // With a finite deadline, idle time still passes: advance the
                // clock so sampling loops built on `run_for` stay aligned.
                if deadline < SimTime::MAX {
                    self.clock = deadline;
                }
                return RunReport {
                    events,
                    reason: StopReason::Idle,
                    now: self.clock,
                };
            };
            if next_at > deadline {
                self.clock = deadline;
                return RunReport {
                    events,
                    reason: StopReason::Deadline,
                    now: self.clock,
                };
            }
            if events >= self.event_cap {
                return RunReport {
                    events,
                    reason: StopReason::EventCap,
                    now: self.clock,
                };
            }
            let (at, _, kind) = self.queue.pop().expect("peeked event vanished");
            self.prof.record(ProfCategory::QueuePop, t);
            self.clock = at;
            events += 1;
            self.processed += 1;
            // Charged here, not in `with_node`: `on_start` calls are not
            // events, so `Dispatch` and `QueuePop` both count exactly the
            // events this loop dispatched.
            let t = self.prof.start();
            match kind {
                EventKind::Deliver {
                    to,
                    from,
                    msg,
                    span,
                } => {
                    self.with_node(to, span, |node, ctx| node.on_message(ctx, from, msg));
                }
                EventKind::Timer { node, token, span } => {
                    self.with_node(node, span, |n, ctx| n.on_timer(ctx, token));
                }
            }
            self.prof.record(ProfCategory::Dispatch, t);
        }
    }

    /// Runs for `span` of simulated time from the current clock.
    pub fn run_for(&mut self, span: SimDuration) -> RunReport {
        let deadline = self.clock + span;
        self.run_until(deadline)
    }

    /// Runs until the event queue is empty.
    pub fn run_to_idle(&mut self) -> RunReport {
        self.run_until(SimTime::MAX)
    }

    /// Number of pending events: everything in flight, plus the next
    /// instant of each timer series (see [`Context::schedule_series`]).
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }
}

impl<M: Message> std::fmt::Debug for World<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("clock", &self.clock)
            .field("nodes", &self.names)
            .field("pending_events", &self.queue.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{SpanId, TraceId};

    /// Test-local metric names and span labels.
    #[expect(clippy::disallowed_methods, reason = "test-local names")]
    mod local {
        use crate::{MetricId, SpanLabel};

        pub const MSGS: MetricId = MetricId::new(4, "msgs");
        pub const ARRIVALS: MetricId = MetricId::new(5, "arrivals");
        pub const ARRIVAL_ORDER: MetricId = MetricId::new(6, "arrival.order");
        pub const FETCH: SpanLabel = SpanLabel::new("fetch");
        pub const SERVE: SpanLabel = SpanLabel::new("serve");
        pub const OP: SpanLabel = SpanLabel::new("op");
    }

    #[derive(Debug, PartialEq)]
    struct Num(u64);
    impl Message for Num {
        fn wire_size(&self) -> usize {
            8
        }
    }

    /// Counts received messages; replies until the payload reaches zero.
    struct Counter {
        received: u64,
        timers: u64,
    }

    impl Counter {
        fn new() -> Self {
            Counter {
                received: 0,
                timers: 0,
            }
        }
    }

    impl Node<Num> for Counter {
        fn on_message(&mut self, ctx: &mut Context<'_, Num>, from: NodeId, msg: Num) {
            self.received += 1;
            ctx.metrics().incr_id(local::MSGS, 1);
            if msg.0 > 0 {
                ctx.send(from, Num(msg.0 - 1));
            }
        }

        fn on_timer(&mut self, _ctx: &mut Context<'_, Num>, _token: TimerToken) {
            self.timers += 1;
        }
    }

    fn two_node_world() -> (World<Num>, NodeId, NodeId) {
        let mut w = World::new(1);
        let a = w.add_node("a", Counter::new());
        let b = w.add_node("b", Counter::new());
        w.connect(a, b, LinkSpec::new(1, SimDuration::from_millis(1)));
        (w, a, b)
    }

    #[test]
    fn ping_pong_round_trips() {
        let (mut w, a, b) = two_node_world();
        w.post(a, b, Num(3));
        let r = w.run_to_idle();
        assert_eq!(r.reason, StopReason::Idle);
        assert_eq!(r.events, 4);
        assert_eq!(w.node::<Counter>(b).received, 2);
        assert_eq!(w.node::<Counter>(a).received, 2);
        assert_eq!(w.metrics().counter_id(local::MSGS), 4);
        // 4 deliveries: 1ms propagation + 80ns transfer (8 B at 100 MB/s) each.
        assert_eq!(w.now(), SimTime::from_nanos(4 * (1_000_000 + 80)));
    }

    #[test]
    fn deadline_stops_midway() {
        let (mut w, a, b) = two_node_world();
        w.post(a, b, Num(100));
        let r = w.run_until(SimTime::from_millis(5));
        assert_eq!(r.reason, StopReason::Deadline);
        assert_eq!(w.now(), SimTime::from_millis(5));
        assert!(w.pending_events() > 0);
        // Resume where we left off.
        let r2 = w.run_to_idle();
        assert_eq!(r2.reason, StopReason::Idle);
    }

    #[test]
    fn event_cap_halts_runaway() {
        let (mut w, a, b) = two_node_world();
        w.set_event_cap(10);
        w.post(a, b, Num(1_000_000));
        let r = w.run_to_idle();
        assert_eq!(r.reason, StopReason::EventCap);
        assert_eq!(r.events, 10);
    }

    #[test]
    fn timers_fire_on_the_right_node() {
        let (mut w, a, _b) = two_node_world();
        w.schedule_timer(a, SimDuration::from_millis(2), TimerToken::new(1));
        w.schedule_timer(a, SimDuration::from_millis(4), TimerToken::new(2));
        w.run_to_idle();
        assert_eq!(w.node::<Counter>(a).timers, 2);
        assert_eq!(w.now(), SimTime::from_millis(4));
    }

    #[test]
    fn identical_seeds_are_deterministic() {
        let run = |seed| {
            let mut w = World::new(seed);
            let a = w.add_node("a", Counter::new());
            let b = w.add_node("b", Counter::new());
            w.connect(
                a,
                b,
                LinkSpec::new(3, SimDuration::from_micros(700))
                    .jitter_mean(SimDuration::from_micros(300)),
            );
            w.post(a, b, Num(50));
            w.run_to_idle();
            w.now()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn lossy_link_drops_and_counts() {
        let mut w = World::new(3);
        let a = w.add_node("a", Counter::new());
        let b = w.add_node("b", Counter::new());
        w.connect(
            a,
            b,
            LinkSpec::new(1, SimDuration::from_millis(1)).loss_probability(0.9),
        );
        for _ in 0..100 {
            w.post(a, b, Num(0));
        }
        // post() does not sample loss (it seeds the run); sends from nodes do.
        w.run_to_idle();
        let b_node = w.node::<Counter>(b);
        assert_eq!(b_node.received, 100);
    }

    #[test]
    fn post_counts_traffic_like_node_sends() {
        let (mut w, a, b) = two_node_world();
        w.post(a, b, Num(2));
        // The injected message is on the books before the run starts…
        assert_eq!(w.metrics().counter("net.messages"), 1);
        assert_eq!(w.metrics().counter("net.bytes"), 8);
        // …and the two node-sent replies (2 → 1 → 0) accumulate on top,
        // so injected and node-sent traffic share one consistent tally.
        w.run_to_idle();
        assert_eq!(w.metrics().counter("net.messages"), 3);
        assert_eq!(w.metrics().counter("net.bytes"), 24);
    }

    #[test]
    fn node_send_applies_loss() {
        struct Spammer {
            peer: Option<NodeId>,
        }
        impl Node<Num> for Spammer {
            fn on_start(&mut self, ctx: &mut Context<'_, Num>) {
                if let Some(peer) = self.peer {
                    for _ in 0..1000 {
                        ctx.send(peer, Num(0));
                    }
                }
            }
            fn on_message(&mut self, _: &mut Context<'_, Num>, _: NodeId, _: Num) {}
        }
        let mut w = World::new(3);
        let b = w.add_node("sink", Counter::new());
        let a = w.add_node("spammer", Spammer { peer: Some(b) });
        w.connect(
            a,
            b,
            LinkSpec::new(1, SimDuration::from_millis(1)).loss_probability(0.5),
        );
        w.run_to_idle();
        let dropped = w.metrics().counter("net.dropped");
        assert!(
            (300..700).contains(&(dropped as usize)),
            "dropped {dropped}"
        );
        assert_eq!(w.node::<Counter>(b).received + dropped, 1000);
    }

    #[test]
    fn fault_link_down_drops_node_sends() {
        use crate::fault::FaultPlan;
        struct Burst {
            peer: Option<NodeId>,
        }
        impl Node<Num> for Burst {
            fn on_start(&mut self, ctx: &mut Context<'_, Num>) {
                if let Some(peer) = self.peer {
                    for _ in 0..10 {
                        ctx.send(peer, Num(0));
                    }
                }
            }
            fn on_message(&mut self, _: &mut Context<'_, Num>, _: NodeId, _: Num) {}
        }
        let mut w = World::new(3);
        let b = w.add_node("sink", Counter::new());
        let a = w.add_node("burst", Burst { peer: Some(b) });
        w.connect(a, b, LinkSpec::new(1, SimDuration::from_millis(1)));
        w.set_fault_plan(FaultPlan::new().link_down(a, b, SimTime::ZERO, SimTime::from_secs(1)));
        w.run_to_idle();
        assert_eq!(w.node::<Counter>(b).received, 0);
        assert_eq!(w.metrics().counter(keys::NET_FAULT_DROPPED), 10);
        assert_eq!(w.metrics().counter(keys::NET_DROPPED), 0);
        assert_eq!(w.metrics().counter(keys::NET_MESSAGES), 0);
    }

    #[test]
    fn fault_delay_spike_postpones_delivery() {
        use crate::fault::FaultPlan;
        struct One {
            peer: Option<NodeId>,
        }
        impl Node<Num> for One {
            fn on_start(&mut self, ctx: &mut Context<'_, Num>) {
                if let Some(peer) = self.peer {
                    ctx.send(peer, Num(0));
                }
            }
            fn on_message(&mut self, _: &mut Context<'_, Num>, _: NodeId, _: Num) {}
        }
        let mut w = World::new(3);
        let b = w.add_node("sink", Counter::new());
        let a = w.add_node("one", One { peer: Some(b) });
        w.connect(a, b, LinkSpec::new(1, SimDuration::from_millis(1)));
        w.set_fault_plan(FaultPlan::new().delay_spike(
            a,
            b,
            SimTime::ZERO,
            SimTime::from_secs(1),
            SimDuration::from_millis(5),
        ));
        w.run_to_idle();
        assert_eq!(w.node::<Counter>(b).received, 1);
        // 1 ms propagation + 80 ns transfer (8 B at 100 MB/s) + 5 ms spike.
        assert_eq!(w.now(), SimTime::from_nanos(1_000_000 + 80 + 5_000_000));
    }

    #[test]
    fn empty_fault_plan_is_bitwise_invisible() {
        let fp = |with_plan: bool| {
            let mut w = World::new(7);
            let a = w.add_node("a", Counter::new());
            let b = w.add_node("b", Counter::new());
            w.connect(
                a,
                b,
                LinkSpec::new(1, SimDuration::from_millis(1))
                    .jitter_mean(SimDuration::from_micros(300))
                    .loss_probability(0.2),
            );
            if with_plan {
                w.set_fault_plan(crate::fault::FaultPlan::new());
            }
            w.post(a, b, Num(40));
            w.run_to_idle();
            w.fingerprint()
        };
        assert_eq!(fp(false), fp(true));
    }

    #[test]
    #[should_panic(expected = "no link")]
    fn sending_without_link_panics() {
        let mut w: World<Num> = World::new(1);
        let a = w.add_node("a", Counter::new());
        let b = w.add_node("b", Counter::new());
        w.post(a, b, Num(1));
    }

    #[test]
    #[should_panic(expected = "no link node#0 -> node#1")]
    fn node_send_on_an_unknown_pair_panics() {
        struct Stray(NodeId);
        impl Node<Num> for Stray {
            fn on_start(&mut self, ctx: &mut Context<'_, Num>) {
                ctx.send(self.0, Num(0));
            }
            fn on_message(&mut self, _: &mut Context<'_, Num>, _: NodeId, _: Num) {}
        }
        let mut w = World::new(1);
        w.add_node("a", Stray(NodeId::from_raw(1)));
        w.add_node("b", Counter::new());
        w.run_to_idle();
    }

    #[test]
    #[should_panic(expected = "is not a")]
    fn downcast_to_wrong_type_panics() {
        let (w, a, _) = two_node_world();
        struct Other;
        let _ = w.node::<Other>(a);
    }

    #[test]
    fn names_and_counts() {
        let (w, a, b) = two_node_world();
        assert_eq!(w.node_count(), 2);
        assert_eq!(w.node_name(a), "a");
        assert_eq!(w.node_name(b), "b");
        assert!(format!("{w:?}").contains("World"));
    }

    /// Begins a trace on start, expects the reply and a timer to carry it.
    struct Requester {
        peer: Option<NodeId>,
        root: Option<SpanCtx>,
        reply_had_ctx: bool,
        timer_had_ctx: bool,
    }

    impl Node<Num> for Requester {
        fn on_start(&mut self, ctx: &mut Context<'_, Num>) {
            self.root = ctx.begin_trace(local::FETCH);
            if let Some(peer) = self.peer {
                ctx.send(peer, Num(1));
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Num>, _from: NodeId, _msg: Num) {
            self.reply_had_ctx = ctx.span_ctx() == self.root && self.root.is_some();
            ctx.schedule(SimDuration::from_millis(1), TimerToken::new(7));
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Num>, _token: TimerToken) {
            self.timer_had_ctx = ctx.span_ctx() == self.root && self.root.is_some();
            if let Some(root) = self.root {
                ctx.span_end(root, local::FETCH);
            }
        }
    }

    /// Opens a child span under whatever context arrived, then replies.
    struct Responder;

    impl Node<Num> for Responder {
        fn on_message(&mut self, ctx: &mut Context<'_, Num>, from: NodeId, _msg: Num) {
            if let Some(child) = ctx.span_start(local::SERVE) {
                ctx.span_end(child, local::SERVE);
            }
            ctx.send(from, Num(0));
        }
    }

    fn traced_pair() -> (World<Num>, NodeId) {
        let mut w = World::new(1);
        let b = w.add_node("b", Responder);
        let a = w.add_node(
            "a",
            Requester {
                peer: Some(b),
                root: None,
                reply_had_ctx: false,
                timer_had_ctx: false,
            },
        );
        w.connect(a, b, LinkSpec::new(1, SimDuration::from_millis(1)));
        (w, a)
    }

    #[test]
    fn spans_propagate_across_hops_and_timers() {
        let (mut w, a) = traced_pair();
        w.set_trace_config(TraceConfig::enabled());
        w.run_to_idle();
        let requester = w.node::<Requester>(a);
        assert!(requester.reply_had_ctx, "reply lost the span context");
        assert!(requester.timer_had_ctx, "timer lost the span context");

        let events: Vec<(&str, TracePhase, Option<SpanId>)> = w
            .trace()
            .events()
            .map(|e| (e.kind, e.phase, e.parent))
            .collect();
        assert_eq!(
            events,
            vec![
                ("fetch", TracePhase::Start, None),
                ("serve", TracePhase::Start, Some(SpanId(0))),
                ("serve", TracePhase::End, None),
                ("fetch", TracePhase::End, None),
            ]
        );
        assert!(w.trace().events().all(|e| e.trace == TraceId(0)));
        assert_eq!(w.trace().dropped(), 0);
    }

    #[test]
    fn tracing_disabled_records_nothing_and_sets_no_context() {
        let (mut w, a) = traced_pair();
        w.run_to_idle();
        let requester = w.node::<Requester>(a);
        assert_eq!(requester.root, None, "begin_trace must return None");
        assert!(!requester.reply_had_ctx);
        assert!(w.trace().is_empty());
        assert_eq!(w.trace().traces_started(), 0);
    }

    #[test]
    fn begin_trace_clears_inherited_context() {
        /// Starts a fresh trace for every message it receives.
        struct PerMessage {
            roots: Vec<Option<SpanCtx>>,
        }
        impl Node<Num> for PerMessage {
            fn on_message(&mut self, ctx: &mut Context<'_, Num>, _from: NodeId, _msg: Num) {
                self.roots.push(ctx.begin_trace(local::OP));
            }
        }
        let mut w = World::new(1);
        let sink = w.add_node("sink", PerMessage { roots: Vec::new() });
        let src = w.add_node(
            "src",
            Requester {
                peer: Some(sink),
                root: None,
                reply_had_ctx: false,
                timer_had_ctx: false,
            },
        );
        w.connect(src, sink, LinkSpec::new(1, SimDuration::from_millis(1)));
        // Sample every 2nd trace: src's root is trace 0, the sink's first
        // op is sampled out but must NOT inherit src's context.
        w.set_trace_config(TraceConfig {
            enabled: true,
            sample_every: 2,
            ..TraceConfig::default()
        });
        w.run_to_idle();
        let roots = &w.node::<PerMessage>(sink).roots;
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0], None, "sampled-out trace must clear the context");
    }

    /// Order-insensitive sink: tallies arrivals, ignores who came first.
    struct Tally;
    impl Node<Num> for Tally {
        fn on_message(&mut self, ctx: &mut Context<'_, Num>, _from: NodeId, _msg: Num) {
            ctx.metrics().incr_id(local::ARRIVALS, 1);
        }
    }

    /// Order-SENSITIVE sink: records the full arrival order of its peers,
    /// position-weighted so any transposition changes a metric value. This
    /// is the synthetic ordering race the detector must catch.
    struct FirstWins {
        position: u64,
    }
    impl Node<Num> for FirstWins {
        fn on_message(&mut self, ctx: &mut Context<'_, Num>, from: NodeId, _msg: Num) {
            self.position += 1;
            let weighted = self.position * 100 + from.index() as u64;
            ctx.metrics()
                .observe_id(local::ARRIVAL_ORDER, weighted as f64);
        }
    }

    /// Star topology: `n` identical zero-jitter links into one sink, one
    /// same-size message posted from each spoke at t=0 — so all arrivals
    /// tie at exactly the same virtual instant.
    fn tied_star(w: &mut World<Num>, sink: NodeId, n: u32) {
        for i in 0..n {
            let src = w.add_node(format!("src{i}"), Tally);
            w.connect(src, sink, LinkSpec::new(1, SimDuration::from_millis(1)));
            w.post(src, sink, Num(0));
        }
    }

    #[test]
    fn check_determinism_passes_on_order_insensitive_scenario() {
        let report = World::check_determinism(11, 4, |w| {
            let sink = w.add_node("sink", Tally);
            tied_star(w, sink, 8);
            w.run_to_idle();
        });
        assert!(report.is_deterministic(), "{report}");
        assert_eq!(report.runs.len(), 4);
    }

    #[test]
    fn check_determinism_flags_ordering_dependent_node() {
        let report = World::check_determinism(11, 4, |w| {
            let sink = w.add_node("sink", FirstWins { position: 0 });
            tied_star(w, sink, 8);
            w.run_to_idle();
        });
        assert!(
            !report.is_deterministic(),
            "an 8-way tie feeding an order-sensitive node must diverge"
        );
        assert!(!report.divergent_keys().is_empty());
        assert!(format!("{report}").contains("ORDERING RACE"));
        // Only the metric content differs: same events, same final clock.
        for run in &report.runs {
            assert_eq!(run.fingerprint.events, report.baseline.events);
            assert_eq!(run.fingerprint.clock_ns, report.baseline.clock_ns);
        }
    }

    #[test]
    fn fingerprint_is_stable_across_identical_runs() {
        let fp = |seed| {
            let mut w = World::new(seed);
            let a = w.add_node("a", Tally);
            let b = w.add_node("b", Tally);
            // Jitter makes the arrival time — hence the fingerprint — a
            // function of the seed, not just the topology.
            w.connect(
                a,
                b,
                LinkSpec::new(1, SimDuration::from_millis(1))
                    .jitter_mean(SimDuration::from_micros(100)),
            );
            w.post(a, b, Num(0));
            w.run_to_idle();
            w.fingerprint()
        };
        assert_eq!(fp(5), fp(5));
        assert_ne!(fp(5), fp(6));
    }

    #[test]
    fn profiler_does_not_change_fingerprints() {
        let fp = |profile: bool| {
            let mut w = World::new(5);
            if profile {
                w.enable_profiler();
            }
            w.set_trace_config(TraceConfig::enabled());
            let a = w.add_node("a", Tally);
            let b = w.add_node("b", Tally);
            w.connect(
                a,
                b,
                LinkSpec::new(1, SimDuration::from_millis(1))
                    .jitter_mean(SimDuration::from_micros(100)),
            );
            w.post(a, b, Num(0));
            w.run_to_idle();
            (w.fingerprint(), w.profile_report())
        };
        let (fp_off, report_off) = fp(false);
        let (fp_on, report_on) = fp(true);
        assert_eq!(fp_off, fp_on, "profiling must not perturb sim state");
        // Off = all-zero attribution; on = the loop charged something.
        assert!(!report_off.enabled);
        assert_eq!(report_off.loop_nanos(), 0);
        assert!(report_on.enabled);
        // One dispatch and one queue-pop record per event, `on_start`
        // calls and the loop-ending peek excluded.
        assert_eq!(report_on.calls(ProfCategory::Dispatch), fp_on.events);
        assert_eq!(report_on.calls(ProfCategory::QueuePop), fp_on.events);
        assert!(fp_on.events > 0);
        assert!(report_on.calls(ProfCategory::Metrics) > 0);
    }

    #[test]
    #[should_panic(expected = "before any event")]
    fn tie_perturbation_rejected_after_scheduling() {
        let (mut w, a, b) = two_node_world();
        w.post(a, b, Num(0));
        w.set_tie_perturbation(1);
    }

    #[test]
    fn run_for_advances_relative_span() {
        let (mut w, a, b) = two_node_world();
        w.post(a, b, Num(0));
        w.run_for(SimDuration::from_millis(10));
        assert_eq!(w.now(), SimTime::from_millis(10));
        w.run_for(SimDuration::from_millis(5));
        assert_eq!(w.now(), SimTime::from_millis(15));
    }
}
