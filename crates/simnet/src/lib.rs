//! # ape-simnet — deterministic discrete-event network simulation
//!
//! The substrate underneath the APE-CACHE reproduction. The paper evaluates
//! its system on a physical testbed (a GL-MT1300 WiFi router, Android phones,
//! an edge server 7 hops away and an EC2-hosted controller 12 hops away);
//! this crate provides the simulated equivalent: a virtual clock, an event
//! queue, nodes exchanging messages over links with hop counts, bandwidth,
//! jitter and loss, CPU/memory resource meters, and metric recorders.
//!
//! Determinism is a design requirement: a [`World`] seeded identically
//! processes an identical event sequence, which the integration tests
//! assert. All randomness flows through [`SimRng`].
//!
//! ## Example
//!
//! ```
//! use ape_simnet::{Context, LinkSpec, Message, Node, NodeId, SimDuration, World};
//!
//! #[derive(Debug)]
//! enum Msg { Ping, Pong }
//! impl Message for Msg {
//!     fn wire_size(&self) -> usize { 64 }
//! }
//!
//! struct Server;
//! impl Node<Msg> for Server {
//!     fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
//!         if matches!(msg, Msg::Ping) {
//!             ctx.send(from, Msg::Pong);
//!         }
//!     }
//! }
//!
//! struct Client { got_pong: bool }
//! impl Node<Msg> for Client {
//!     fn on_message(&mut self, _ctx: &mut Context<'_, Msg>, _from: NodeId, msg: Msg) {
//!         self.got_pong = matches!(msg, Msg::Pong);
//!     }
//! }
//!
//! let mut world = World::new(7);
//! let client = world.add_node("client", Client { got_pong: false });
//! let server = world.add_node("server", Server);
//! world.connect(client, server, LinkSpec::new(1, SimDuration::from_micros(1500)));
//! world.post(client, server, Msg::Ping);
//! world.run_to_idle();
//! assert!(world.node::<Client>(client).got_pong);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod determinism;
mod event;
mod fault;
mod link;
mod metrics;
mod node;
mod profiler;
pub mod reference;
mod resource;
mod rng;
mod time;
mod trace;
mod wheel;
mod world;

pub use determinism::{DeterminismReport, Fingerprint, PerturbedRun};
pub use event::event_footprint;
pub use fault::{FaultKind, FaultPlan, FaultWindow, LinkEffect};
pub use link::LinkSpec;
pub use metrics::{keys, Histogram, MetricId, Metrics, TimeSeries};
pub use node::{AsAny, Message, Node, NodeId, TimerToken};
pub use profiler::{ProfCategory, ProfTimer, ProfileReport, Profiler, PROF_CATEGORIES};
pub use resource::{CpuMeter, MemMeter};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use trace::{
    SpanCtx, SpanId, SpanLabel, TraceConfig, TraceEvent, TraceId, TracePhase, TraceSink,
};
pub use wheel::TimerWheel;
pub use world::{Context, RunReport, StopReason, World};
