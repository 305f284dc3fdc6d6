//! Fleet nodes: struct-of-arrays client populations for scale benchmarks.
//!
//! The per-client [`ClientNode`](crate::ClientNode) runtime is faithful to
//! the paper's enhanced HTTP client, but at a million clients its
//! representation dominates the simulator's time: every client is a boxed
//! trait object with its own hash maps, every think-time gap is a timer
//! wheel entry, and walking a cell means pointer-chasing a million heap
//! allocations. This module provides the scale-bench representation used by
//! `repro bench-fleet`:
//!
//! * [`FleetNode`] — one node owning `n` clients whose hot state lives in
//!   parallel vectors (struct-of-arrays), with a calendar-queue tick that
//!   batches all due clients per bucket into one timer event,
//! * [`FleetResponder`] / [`FleetOrigin`] — the serving spine the clients
//!   talk to (deterministic per-app hit/miss, miss → origin round trip),
//! * [`FleetMsg`] — the tiny message vocabulary the above exchange.
//!
//! The one-boxed-node-per-client baseline this representation was measured
//! against (6.34× events/sec at 1M clients) is on record in `CHANGES.md`
//! and in git history.

use ape_proto::names;
use ape_simnet::{Context, Message, Node, NodeId, SimDuration, SimTime, TimerToken};
use ape_workload::{ZipfConfig, ZipfSampler};

/// Messages exchanged between fleet clients and the serving spine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetMsg {
    /// Client → responder: fetch one object of app `app`.
    Fetch {
        /// Correlation id: `client_slot << 32 | seq` (plus the fleet node's
        /// population base for multi-fleet cells).
        req: u64,
        /// Zipf-ranked app index the object belongs to.
        app: u32,
    },
    /// Responder → client: the object, served from cache or origin.
    Reply {
        /// Correlation id of the fetch being answered.
        req: u64,
        /// True when the responder's cache held the object.
        hit: bool,
    },
    /// Responder → origin: fill a cache miss.
    OriginFetch {
        /// Correlation id of the originating fetch.
        req: u64,
        /// Requesting client's node, echoed back for the reply route.
        client: NodeId,
    },
    /// Origin → responder: the filled object.
    OriginReply {
        /// Correlation id of the originating fetch.
        req: u64,
        /// Requesting client's node, echoed back for the reply route.
        client: NodeId,
    },
}

impl Message for FleetMsg {
    fn wire_size(&self) -> usize {
        match self {
            // GET line + headers, TCP/IP included.
            FleetMsg::Fetch { .. } | FleetMsg::OriginFetch { .. } => 180,
            // A small cached object.
            FleetMsg::Reply { .. } | FleetMsg::OriginReply { .. } => 4_200,
        }
    }
}

/// Configuration of one [`FleetNode`] population.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Clients in this population.
    pub clients: usize,
    /// Mean think time between a reply and the next fetch (exponential).
    pub think_mean: SimDuration,
    /// Number of apps in the Zipf catalog.
    pub apps: usize,
    /// Zipf exponent over the app catalog.
    pub zipf_exponent: f64,
    /// Sampler backend (the scale benches use the O(1) alias table).
    pub zipf: ZipfConfig,
    /// Give-up deadline for an in-flight fetch.
    pub timeout: SimDuration,
    /// Calendar bucket width; all clients due within one bucket wake on a
    /// single timer event.
    pub tick: SimDuration,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            clients: 1,
            // Paper §V-A: fleet average of 3 app runs per minute.
            think_mean: SimDuration::from_secs(20),
            apps: 64,
            zipf_exponent: 1.0,
            zipf: ZipfConfig::default(),
            timeout: SimDuration::from_secs(5),
            tick: SimDuration::from_millis(10),
        }
    }
}

/// Ring size of the calendar queue. Schedules are clamped to the horizon
/// `(RING - 2) * tick`, which at the default 10 ms tick is ~20 minutes —
/// far beyond any think-time draw that matters to the measured rates.
const RING: usize = 131_072;

/// Per-client state tags (the `state` column of the SoA).
const IDLE: u8 = 0;
const PENDING: u8 = 1;

/// A population of clients stored as struct-of-arrays.
///
/// Hot per-client fields live in dense parallel vectors indexed by client
/// slot; scheduling goes through a calendar queue whose buckets hold
/// `(slot, generation)` pairs. One timer event per tick drains every client
/// due in that bucket, so the timing wheel sees `O(sim-time / tick)` events
/// from a fleet of any size, instead of one event per client wakeup.
pub struct FleetNode {
    config: FleetConfig,
    /// Where fetches go.
    responder: NodeId,
    zipf: ZipfSampler,
    // --- struct-of-arrays hot state, one slot per client ---------------
    /// IDLE or PENDING.
    state: Vec<u8>,
    /// When an idle client issues its next fetch.
    next_fetch_at: Vec<SimTime>,
    /// Watchdog deadline of the in-flight fetch (PENDING only).
    deadline_at: Vec<SimTime>,
    /// Send time of the in-flight fetch (PENDING only).
    issued_at: Vec<SimTime>,
    /// Per-client sequence number of the most recent fetch.
    seq: Vec<u32>,
    /// Calendar-entry generation: stale bucket entries are skipped when
    /// their generation no longer matches.
    gen: Vec<u32>,
    // --- calendar queue -------------------------------------------------
    /// `buckets[t % RING]` holds the clients scheduled for tick `t`.
    buckets: Vec<Vec<(u32, u32)>>,
    /// Absolute tick index of the next undrained bucket.
    cursor: u64,
}

impl FleetNode {
    /// Creates a fleet of `config.clients` clients that fetch from
    /// `responder`.
    pub fn new(config: FleetConfig, responder: NodeId) -> Self {
        assert!(config.clients > 0, "fleet needs at least one client");
        assert!(
            u32::try_from(config.clients).is_ok(),
            "client slot must fit the request id's upper half"
        );
        assert!(
            config.timeout.div_floor(config.tick) + 2 < RING as u64,
            "timeout must sit inside the calendar horizon"
        );
        let n = config.clients;
        let zipf = ZipfSampler::with_config(config.apps, config.zipf_exponent, config.zipf);
        FleetNode {
            responder,
            zipf,
            state: vec![IDLE; n],
            next_fetch_at: vec![SimTime::ZERO; n],
            deadline_at: vec![SimTime::ZERO; n],
            issued_at: vec![SimTime::ZERO; n],
            seq: vec![0; n],
            gen: vec![0; n],
            buckets: vec![Vec::new(); RING],
            cursor: 0,
            config,
        }
    }

    /// Completed fetches + failures so far (drives bench sanity checks).
    pub fn fetches_settled(&self) -> u64 {
        self.seq.iter().map(|&s| u64::from(s)).sum()
    }

    /// Absolute tick index a time maps to.
    fn tick_of(&self, at: SimTime) -> u64 {
        (at - SimTime::ZERO).div_floor(self.config.tick)
    }

    /// Inserts a calendar entry for `slot` at time `at` (clamped to the
    /// ring horizon), bumping the slot's generation so any earlier entry
    /// becomes stale.
    fn enqueue(&mut self, slot: u32, at: SimTime) {
        let horizon = self.cursor + (RING as u64 - 2);
        let tick = self.tick_of(at).clamp(self.cursor, horizon);
        self.gen[slot as usize] = self.gen[slot as usize].wrapping_add(1);
        let gen = self.gen[slot as usize];
        self.buckets[(tick % RING as u64) as usize].push((slot, gen));
    }

    /// Issues the next fetch for `slot`.
    fn issue(&mut self, ctx: &mut Context<'_, FleetMsg>, slot: u32) {
        let now = ctx.now();
        let app = self.zipf.sample(ctx.rng()) as u32;
        self.seq[slot as usize] = self.seq[slot as usize].wrapping_add(1);
        let req = u64::from(slot) << 32 | u64::from(self.seq[slot as usize]);
        self.state[slot as usize] = PENDING;
        self.issued_at[slot as usize] = now;
        self.deadline_at[slot as usize] = now + self.config.timeout;
        ctx.metrics().incr_id(names::id::CLIENT_FETCHES, 1);
        ctx.send(self.responder, FleetMsg::Fetch { req, app });
        self.enqueue(slot, now + self.config.timeout);
    }

    /// Parks `slot` until its next think-time wakeup.
    fn rest(&mut self, ctx: &mut Context<'_, FleetMsg>, slot: u32) {
        let now = ctx.now();
        let think = ctx.rng().jitter(self.config.think_mean);
        self.state[slot as usize] = IDLE;
        self.next_fetch_at[slot as usize] = now + think;
        self.enqueue(slot, now + think);
    }

    /// Drains every bucket up to `now`, acting on entries whose generation
    /// is still current.
    fn drain_due(&mut self, ctx: &mut Context<'_, FleetMsg>) {
        let now_tick = self.tick_of(ctx.now());
        while self.cursor <= now_tick {
            let bucket = std::mem::take(&mut self.buckets[(self.cursor % RING as u64) as usize]);
            self.cursor += 1;
            for (slot, gen) in bucket {
                if self.gen[slot as usize] != gen {
                    continue; // superseded by a later transition
                }
                match self.state[slot as usize] {
                    IDLE => self.issue(ctx, slot),
                    _ => {
                        // Watchdog fired with the fetch still in flight.
                        ctx.metrics().incr_id(names::id::CLIENT_FETCH_FAILURES, 1);
                        self.rest(ctx, slot);
                    }
                }
            }
        }
    }
}

impl Node<FleetMsg> for FleetNode {
    fn on_start(&mut self, ctx: &mut Context<'_, FleetMsg>) {
        // Stagger first fetches across one think-time interval so a cell
        // ramps up smoothly instead of stampeding at t=0.
        let now = ctx.now();
        for slot in 0..self.config.clients as u32 {
            let think = ctx.rng().jitter(self.config.think_mean);
            self.next_fetch_at[slot as usize] = now + think;
            self.enqueue(slot, now + think);
        }
        ctx.schedule(self.config.tick, TimerToken::new(0));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, FleetMsg>, _from: NodeId, msg: FleetMsg) {
        let FleetMsg::Reply { req, hit } = msg else {
            return;
        };
        let slot = (req >> 32) as u32;
        let seq = (req & 0xffff_ffff) as u32;
        if self.state[slot as usize] != PENDING || self.seq[slot as usize] != seq {
            return; // reply raced the watchdog; already settled
        }
        if hit {
            ctx.metrics().incr_id(names::id::CLIENT_CACHE_HITS, 1);
        }
        let retrieval_ms = (ctx.now() - self.issued_at[slot as usize]).as_millis_f64();
        ctx.metrics()
            .observe_id(names::id::CLIENT_RETRIEVAL_MS, retrieval_ms);
        self.rest(ctx, slot);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, FleetMsg>, _token: TimerToken) {
        self.drain_due(ctx);
        ctx.schedule(self.config.tick, TimerToken::new(0));
    }
}

impl std::fmt::Debug for FleetNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetNode")
            .field("clients", &self.config.clients)
            .field("cursor", &self.cursor)
            .finish_non_exhaustive()
    }
}

/// The serving spine: answers fetches from a deterministic cache model.
///
/// An app is "cached" when a keyed hash of its index lands under the
/// configured hit ratio — stable across the run and independent of request
/// order. Misses take a round trip to
/// the [`FleetOrigin`] before the reply.
#[derive(Debug)]
pub struct FleetResponder {
    /// Origin server filling misses.
    origin: NodeId,
    /// Percentage of the app catalog considered cached (0–100).
    hit_pct: u8,
    /// Local service delay per request.
    processing: SimDuration,
    /// Salt for the hit hash, so different worlds cache different subsets.
    salt: u64,
    /// Requests served (hit + miss), for bench sanity checks.
    served: u64,
}

impl FleetResponder {
    /// Creates a responder that fills misses from `origin`.
    pub fn new(origin: NodeId, hit_pct: u8, processing: SimDuration, salt: u64) -> Self {
        assert!(hit_pct <= 100);
        FleetResponder {
            origin,
            hit_pct,
            processing,
            salt,
            served: 0,
        }
    }

    /// Requests served so far.
    pub fn served(&self) -> u64 {
        self.served
    }

    fn is_hit(&self, app: u32) -> bool {
        // SplitMix64 finalizer over (salt, app): a stable keyed hash.
        let mut z = self.salt ^ (u64::from(app).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z % 100) < u64::from(self.hit_pct)
    }
}

impl Node<FleetMsg> for FleetResponder {
    fn on_message(&mut self, ctx: &mut Context<'_, FleetMsg>, from: NodeId, msg: FleetMsg) {
        match msg {
            FleetMsg::Fetch { req, app } => {
                self.served += 1;
                if self.is_hit(app) {
                    ctx.send_after(self.processing, from, FleetMsg::Reply { req, hit: true });
                } else {
                    ctx.send_after(
                        self.processing,
                        self.origin,
                        FleetMsg::OriginFetch { req, client: from },
                    );
                }
            }
            FleetMsg::OriginReply { req, client } => {
                ctx.send_after(self.processing, client, FleetMsg::Reply { req, hit: false });
            }
            _ => {}
        }
    }
}

/// Origin server behind the responder: echoes fills after a service delay.
#[derive(Debug)]
pub struct FleetOrigin {
    /// Local service delay per fill.
    processing: SimDuration,
}

impl FleetOrigin {
    /// Creates an origin with the given service delay.
    pub fn new(processing: SimDuration) -> Self {
        FleetOrigin { processing }
    }
}

impl Node<FleetMsg> for FleetOrigin {
    fn on_message(&mut self, ctx: &mut Context<'_, FleetMsg>, from: NodeId, msg: FleetMsg) {
        if let FleetMsg::OriginFetch { req, client } = msg {
            ctx.send_after(self.processing, from, FleetMsg::OriginReply { req, client });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ape_simnet::{LinkSpec, World};
    use ape_workload::ZipfMode;

    fn small_config(clients: usize) -> FleetConfig {
        FleetConfig {
            clients,
            think_mean: SimDuration::from_millis(200),
            apps: 16,
            zipf_exponent: 1.0,
            zipf: ZipfConfig {
                mode: ZipfMode::Alias,
            },
            timeout: SimDuration::from_secs(2),
            tick: SimDuration::from_millis(10),
        }
    }

    fn link() -> LinkSpec {
        LinkSpec::new(2, SimDuration::from_micros(1_500))
    }

    /// Smoke test: clients fetch, replies settle, the hit ratio tracks the
    /// responder's model.
    #[test]
    fn fleet_settles_fetches_with_hits_and_misses() {
        let mut w: World<FleetMsg> = World::new(11);
        let origin = w.add_node("origin", FleetOrigin::new(SimDuration::from_micros(200)));
        let responder = w.add_node(
            "responder",
            FleetResponder::new(origin, 60, SimDuration::from_micros(100), 11),
        );
        let fleet = w.add_node("fleet", FleetNode::new(small_config(500), responder));
        w.connect(responder, origin, link());
        w.connect(fleet, responder, link());
        w.run_until(SimTime::ZERO + SimDuration::from_secs(3));
        let served = w.node::<FleetResponder>(responder).served();
        assert!(served > 1_000, "expected steady traffic, served {served}");
        let settled = w.node::<FleetNode>(fleet).fetches_settled();
        assert!(settled >= served, "every served fetch was issued first");
        let m = w.metrics();
        let fetches = m.counter(names::CLIENT_FETCHES);
        let hits = m.counter(names::CLIENT_CACHE_HITS);
        assert!(hits > 0 && hits < fetches);
        assert_eq!(m.counter(names::CLIENT_FETCH_FAILURES), 0);
    }
}
