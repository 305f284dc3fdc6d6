//! Network links and topology.
//!
//! Links are modeled end-to-end between two simulated nodes: a hop count, a
//! per-hop one-way propagation delay, a bottleneck bandwidth, and an
//! exponential jitter tail. This matches how the paper characterizes its
//! paths (e.g. "7 hops away", "12 hops away", WiFi one hop).

use crate::node::NodeId;
use crate::rng::{mix64, SendDraws, StreamSeed};
use crate::time::{SimDuration, SimTime};

/// Characteristics of a (directed-pair symmetric) network path.
///
/// The one-way delay experienced by a message of `size` bytes is
/// `hops * per_hop_owd + size / bandwidth + Exp(jitter_mean)`.
///
/// # Examples
///
/// ```
/// use ape_simnet::{LinkSpec, SimDuration};
///
/// // A WiFi hop: ~1.5 ms one way, 50 MB/s, light jitter.
/// let wifi = LinkSpec::new(1, SimDuration::from_micros(1500))
///     .bandwidth_bytes_per_sec(50_000_000)
///     .jitter_mean(SimDuration::from_micros(200));
/// assert_eq!(wifi.hops(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    hops: u32,
    per_hop_owd: SimDuration,
    bandwidth_bytes_per_sec: u64,
    /// The mean of the exponential jitter, in seconds: the unit a send
    /// draws it in, so no send divides it again.
    jitter_mean_secs: f64,
    loss_probability: f64,
}

impl LinkSpec {
    /// Creates a link with the given hop count and per-hop one-way delay.
    ///
    /// Bandwidth defaults to 100 MB/s and jitter to zero.
    pub fn new(hops: u32, per_hop_owd: SimDuration) -> Self {
        LinkSpec {
            hops: hops.max(1),
            per_hop_owd,
            bandwidth_bytes_per_sec: 100_000_000,
            jitter_mean_secs: 0.0,
            loss_probability: 0.0,
        }
    }

    /// Convenience constructor from a round-trip time: the per-hop one-way
    /// delay is `rtt / (2 * hops)`.
    pub fn from_rtt(hops: u32, rtt: SimDuration) -> Self {
        let hops = hops.max(1);
        LinkSpec::new(hops, rtt / (2 * hops as u64))
    }

    /// Sets the bottleneck bandwidth in bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if `bps` is zero.
    pub fn bandwidth_bytes_per_sec(mut self, bps: u64) -> Self {
        assert!(bps > 0, "bandwidth must be positive");
        self.bandwidth_bytes_per_sec = bps;
        self
    }

    /// Sets the mean of the exponential jitter added to each traversal.
    pub fn jitter_mean(mut self, mean: SimDuration) -> Self {
        self.jitter_mean_secs = mean.as_secs_f64();
        self
    }

    /// Sets the probability that a single traversal drops the message.
    ///
    /// `p == 1.0` is valid and models an always-lossy link (useful as a
    /// degenerate fault fixture): every traversal is dropped.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a finite value within `[0, 1]`.
    pub fn loss_probability(mut self, p: f64) -> Self {
        assert!(
            p.is_finite() && (0.0..=1.0).contains(&p),
            "loss probability must be in [0,1]"
        );
        self.loss_probability = p;
        self
    }

    /// Hop count of this path.
    pub fn hops(&self) -> u32 {
        self.hops
    }

    /// Base propagation one-way delay (without transfer time or jitter).
    pub fn propagation_owd(&self) -> SimDuration {
        self.per_hop_owd * self.hops as u64
    }

    /// Nominal round-trip time for a tiny message without jitter.
    pub fn nominal_rtt(&self) -> SimDuration {
        self.propagation_owd() * 2
    }

    /// Serialization/transfer time for `size` bytes.
    pub fn transfer_time(&self, size: usize) -> SimDuration {
        SimDuration::from_secs_f64(size as f64 / self.bandwidth_bytes_per_sec as f64)
    }

    /// Samples the one-way delay for a message of `size` bytes.
    #[inline]
    pub(crate) fn sample_owd(&self, size: usize, draws: &mut SendDraws) -> SimDuration {
        let jitter = SimDuration::from_secs_f64(draws.exponential(self.jitter_mean_secs));
        self.propagation_owd() + self.transfer_time(size) + jitter
    }

    /// Samples whether a traversal is lost.
    #[inline]
    pub(crate) fn sample_loss(&self, draws: &mut SendDraws) -> bool {
        self.loss_probability > 0.0 && draws.chance(self.loss_probability)
    }
}

/// Names one directed link's entry in the world's reservation slab (see
/// [`LinkTable`]). Every `Deliver` event carries the handle its arrival
/// was reserved under, so delivery releases the arrival without searching
/// the sender's row, and reads the sender off the entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ArrivalId(u32);

#[cfg(test)]
impl ArrivalId {
    /// A handle for queue tests that never reach a link table.
    pub(crate) const UNUSED: ArrivalId = ArrivalId(u32::MAX);
}

/// The arrivals in flight on one directed link `src → dst`.
///
/// A link is a serial resource: two messages sent `src → dst` can never
/// *arrive* in the same nanosecond. Continuous (exponential) jitter makes
/// exact nanosecond collisions rare, but each one is a same-timestamp tie
/// at the receiver, whose dispatch order then decides what the receiver
/// sees first (see the `determinism` module docs) — exactly the class
/// of divergence the schedule-perturbation detector flags. Same-pair
/// collisions dominate in practice because a node's batched sends (one
/// callback fanning several messages down one link) share send instant,
/// size-quantized transfer time and jitter distribution. Reserving arrival
/// slots per directed pair and bumping an exact collision to the next free
/// nanosecond removes that tie source at the wire, while leaving every
/// collision-free run bit-identical to the unserialized schedule.
#[derive(Debug)]
struct InFlight {
    src: NodeId,
    dst: NodeId,
    /// How many of `times` have been delivered: a prefix, dropped at the
    /// next reservation.
    delivered: usize,
    /// Arrival times, ascending. Those after the clock are distinct; those
    /// at the clock are due this instant, may repeat (a zero-delay send
    /// lands on one) and no longer block a slot. Empty exactly while the
    /// entry is free.
    times: Vec<SimTime>,
}

impl InFlight {
    /// Reserves the arrival slot for a message computed to land at `at`,
    /// bumping past any in-flight arrival already occupying that
    /// nanosecond. `now` is the sender's clock at send time; arrivals at or
    /// before it are due or delivered and never collide.
    fn reserve(&mut self, now: SimTime, at: SimTime) -> SimTime {
        if self.delivered > 0 {
            self.times.drain(..std::mem::take(&mut self.delivered));
        }
        let free = self.times.partition_point(|&t| t <= now || t < at);
        let Some(taken) = self
            .times
            .get(free..)
            .filter(|run| run.first() == Some(&at))
        else {
            self.times.insert(free, at);
            return at;
        };
        // The next free nanosecond is the end of the run of consecutive
        // arrivals starting at `at`. Times after `now` are ascending and
        // distinct, so `run[i] − at ≥ i` with equality exactly inside the
        // run: the end is a binary search, not a walk (a same-nanosecond
        // burst of n sends would otherwise cost n² steps).
        let (mut lo, mut hi) = (1, taken.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if taken[mid] - at == SimDuration::from_nanos(mid as u64) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let at = at + SimDuration::from_nanos(lo as u64);
        self.times.insert(free + lo, at);
        at
    }

    /// Marks the earliest arrival delivered and returns whether the link
    /// has none left in flight.
    fn deliver(&mut self, at: SimTime) -> bool {
        debug_assert_eq!(
            self.times.get(self.delivered),
            Some(&at),
            "arrivals on a link deliver in time order"
        );
        self.delivered += 1;
        if self.delivered < self.times.len() {
            return false;
        }
        self.times.clear();
        self.delivered = 0;
        true
    }
}

/// One directed link: its spec's index in [`LinkTable::specs`], its entry
/// in the reservation slab and its send count. The entry is this link's
/// only while it names `(src, dst)` and holds an arrival; otherwise the
/// handle is stale and the next reservation takes a free entry.
#[derive(Debug, Clone, Copy)]
struct Link {
    spec: u16,
    inflight: u32,
    sends: u32,
}

/// The links leaving one source node: destinations in `keys`, ascending,
/// and the link to `keys[i]` at `links[i]`. A send searches only the
/// 4-byte keys — the city's edge and LDNS rows hold ~770 links — and then
/// touches exactly one 12-byte `Link`.
#[derive(Debug, Default)]
struct Row {
    keys: Vec<NodeId>,
    links: Vec<Link>,
}

/// A link found by [`LinkTable::find`], with a copy of its slot: valid
/// until the next `connect`, and spent by the reservation, which may
/// change the slot.
#[derive(Debug)]
pub(crate) struct LinkRef {
    src: NodeId,
    dst: NodeId,
    slot: usize,
    link: Link,
}

/// Static wiring between nodes and what is in flight on it.
///
/// One row per source node (indexed by `NodeId`), each row sorted by
/// destination, so a send is one index plus one binary search and
/// iteration order never depends on a hasher. A world wires tens of
/// thousands of links from about a dozen distinct specs, so the specs are
/// interned once here and a link keeps a 2-byte index. In-flight arrivals
/// live in one reused slab that holds an entry for a link only while that
/// link has an arrival in flight: a reservation takes the link's entry (or
/// a free one), and the delivery of its last arrival frees it.
#[derive(Debug, Default)]
pub(crate) struct LinkTable {
    specs: Vec<LinkSpec>,
    rows: Vec<Row>,
    slab: Vec<InFlight>,
    /// Indices of the free `slab` entries, reused last-freed first.
    free: Vec<u32>,
}

impl LinkTable {
    /// Registers a symmetric link between `a` and `b`. The last
    /// registration for a pair wins; its in-flight arrivals are kept.
    ///
    /// # Panics
    ///
    /// Panics when the table would hold more than 65 536 distinct specs.
    pub(crate) fn connect(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) {
        let spec = self.intern(spec);
        self.insert(a, b, spec);
        self.insert(b, a, spec);
    }

    fn intern(&mut self, spec: LinkSpec) -> u16 {
        if let Some(i) = self.specs.iter().position(|s| *s == spec) {
            return i as u16;
        }
        let i = u16::try_from(self.specs.len())
            .expect("a world holds at most 65 536 distinct link specs");
        self.specs.push(spec);
        i
    }

    fn insert(&mut self, src: NodeId, dst: NodeId, spec: u16) {
        if self.rows.len() <= src.index() {
            self.rows.resize_with(src.index() + 1, Row::default);
        }
        let row = &mut self.rows[src.index()];
        match row.keys.binary_search(&dst) {
            Ok(i) => row.links[i].spec = spec,
            Err(i) => {
                row.keys.insert(i, dst);
                let link = Link {
                    spec,
                    inflight: u32::MAX,
                    sends: 0,
                };
                row.links.insert(i, link);
            }
        }
    }

    /// The link from `src` to `dst`, if one is registered.
    #[inline]
    pub(crate) fn find(&self, src: NodeId, dst: NodeId) -> Option<LinkRef> {
        let row = self.rows.get(src.index())?;
        let slot = row.keys.binary_search(&dst).ok()?;
        let link = row.links[slot];
        Some(LinkRef {
            src,
            dst,
            slot,
            link,
        })
    }

    /// The spec of a link found by [`find`](Self::find).
    #[inline]
    pub(crate) fn spec(&self, link: &LinkRef) -> &LinkSpec {
        &self.specs[usize::from(link.link.spec)]
    }

    /// The draws of the next send on `link` in the run seeded `seed`,
    /// named by the pair and the send's number on the link: the stream
    /// keyed `mix64(pair) ^ n`.
    #[inline]
    pub(crate) fn send_draws(&mut self, link: &LinkRef, seed: StreamSeed) -> SendDraws {
        let sends = &mut self.rows[link.src.index()].links[link.slot].sends;
        let n = *sends;
        *sends = n.wrapping_add(1);
        let pair = u64::from(link.src.as_raw()) << 32 | u64::from(link.dst.as_raw());
        seed.send_draws(mix64(pair) ^ u64::from(n))
    }

    /// Reserves the arrival slot on `link` for a message computed to land
    /// at `at` (see [`InFlight::reserve`]), and returns the slot with the
    /// handle its `Deliver` event carries to [`deliver`](Self::deliver).
    #[inline]
    pub(crate) fn reserve(
        &mut self,
        link: LinkRef,
        now: SimTime,
        at: SimTime,
    ) -> (SimTime, ArrivalId) {
        let mut id = link.link.inflight;
        let owned = self
            .slab
            .get(id as usize)
            .is_some_and(|e| (e.src, e.dst) == (link.src, link.dst) && !e.times.is_empty());
        if !owned {
            id = match self.free.pop() {
                Some(i) => {
                    let entry = &mut self.slab[i as usize];
                    (entry.src, entry.dst) = (link.src, link.dst);
                    i
                }
                None => {
                    let i = u32::try_from(self.slab.len()).expect("slab indices fit in u32");
                    self.slab.push(InFlight {
                        src: link.src,
                        dst: link.dst,
                        delivered: 0,
                        times: Vec::new(),
                    });
                    i
                }
            };
            self.rows[link.src.index()].links[link.slot].inflight = id;
        }
        (self.slab[id as usize].reserve(now, at), ArrivalId(id))
    }

    /// Releases the arrival at `at` reserved under `id`, whose `Deliver`
    /// event is being dispatched, and returns its sender. Events pop in
    /// time order, so it is the link's earliest undelivered one; the entry
    /// is freed with the link's last arrival in flight.
    #[inline]
    pub(crate) fn deliver(&mut self, id: ArrivalId, at: SimTime) -> NodeId {
        let entry = &mut self.slab[id.0 as usize];
        if entry.deliver(at) {
            self.free.push(id.0);
        }
        entry.src
    }

    /// Number of interned specs.
    pub(crate) fn distinct_specs(&self) -> usize {
        self.specs.len()
    }

    /// Links with an arrival in flight: the slab entries in use.
    pub(crate) fn live_reservations(&self) -> usize {
        self.slab.len() - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use std::collections::BTreeSet;

    /// The draws of the send keyed `key` in a run seeded 1.
    fn draws(key: u64) -> SendDraws {
        StreamSeed::new(1).send_draws(key)
    }

    fn ns(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    fn node(raw: u32) -> NodeId {
        NodeId::from_raw(raw)
    }

    fn spec_ms(ms: u64) -> LinkSpec {
        LinkSpec::new(1, SimDuration::from_millis(ms))
    }

    /// Reserves on `src → dst` as a send at `now` does.
    fn send(
        t: &mut LinkTable,
        src: NodeId,
        dst: NodeId,
        now: u64,
        at: u64,
    ) -> (SimTime, ArrivalId) {
        let link = t.find(src, dst).expect("a registered link");
        t.reserve(link, ns(now), ns(at))
    }

    /// The arrivals in flight on `src → dst`, ascending.
    fn in_flight(t: &LinkTable, src: NodeId, dst: NodeId) -> Vec<SimTime> {
        let link = t.find(src, dst).expect("a registered link");
        let handle = link.link.inflight;
        match t.slab.get(handle as usize) {
            Some(e) if (e.src, e.dst) == (src, dst) => e.times[e.delivered..].to_vec(),
            _ => Vec::new(),
        }
    }

    /// The link table as it stood before specs were interned and arrivals
    /// moved to a slab — a `LinkSpec` and a lazily pruned arrival vector
    /// per link — kept verbatim (but for the visibility of `inflight`) as
    /// the oracle for the differential test below.
    mod whole_links {
        use super::super::{LinkSpec, NodeId, SimDuration, SimTime};

        /// One directed link `src → dst`: its path characteristics and the
        /// arrivals currently in flight on it.
        ///
        /// A link is a serial resource: two messages sent `src → dst` can never
        /// *arrive* in the same nanosecond. Continuous (exponential) jitter makes
        /// exact nanosecond collisions rare, but each one is a same-timestamp tie
        /// at the receiver, and tied callbacks draw from the world's RNG stream in
        /// dispatch order (see the `determinism` module docs) — exactly the class
        /// of divergence the schedule-perturbation detector flags. Same-pair
        /// collisions dominate in practice because a node's batched sends (one
        /// callback fanning several messages down one link) share send instant,
        /// size-quantized transfer time and jitter distribution. Reserving arrival
        /// slots per directed pair and bumping an exact collision to the next free
        /// nanosecond removes that tie source at the wire, while leaving every
        /// collision-free run bit-identical to the unserialized schedule.
        #[derive(Debug)]
        pub(crate) struct Link {
            pub(crate) spec: LinkSpec,
            /// Pending arrival times, ascending and distinct. Entries at or before
            /// the sender's clock have been delivered and are pruned on
            /// reservation; links have positive delay, so a new arrival never
            /// lands in the past.
            pub(super) inflight: Vec<SimTime>,
        }

        impl Link {
            fn new(spec: LinkSpec) -> Self {
                Link {
                    spec,
                    inflight: Vec::new(),
                }
            }

            /// Reserves the arrival slot for a message computed to land at `at`,
            /// bumping past any in-flight arrival already occupying that
            /// nanosecond. `now` is the sender's clock at send time.
            pub(crate) fn reserve(&mut self, now: SimTime, at: SimTime) -> SimTime {
                let delivered = self.inflight.partition_point(|&t| t <= now);
                self.inflight.drain(..delivered);
                let taken = match self.inflight.binary_search(&at) {
                    Ok(taken) => taken,
                    Err(free) => {
                        self.inflight.insert(free, at);
                        return at;
                    }
                };
                // The next free nanosecond is the end of the run of consecutive
                // arrivals starting at `at`. Times are ascending and distinct, so
                // `run[i] − at ≥ i` with equality exactly inside the run: the end
                // is a binary search, not a walk (a same-nanosecond burst of n
                // sends would otherwise cost n² steps).
                let run = &self.inflight[taken..];
                let (mut lo, mut hi) = (1, run.len());
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if run[mid] - at == SimDuration::from_nanos(mid as u64) {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                let at = at + SimDuration::from_nanos(lo as u64);
                self.inflight.insert(taken + lo, at);
                at
            }
        }

        /// The links leaving one source node: destinations in `keys`, ascending,
        /// and the link to `keys[i]` at `links[i]`. A send searches only the
        /// 4-byte keys — the city's edge and LDNS rows hold ~770 links, 3 KB of
        /// keys against 49 KB of links — and then touches exactly one `Link`.
        #[derive(Debug, Default)]
        struct Row {
            keys: Vec<NodeId>,
            links: Vec<Link>,
        }

        /// Static wiring between nodes: which pairs can exchange messages, with
        /// what path characteristics, and what is in flight on each. One row per
        /// source node (indexed by `NodeId`), each row sorted by destination, so a
        /// send is one index plus one binary search and iteration order never
        /// depends on a hasher.
        #[derive(Debug, Default)]
        pub(crate) struct LinkTable {
            rows: Vec<Row>,
        }

        impl LinkTable {
            /// Registers a symmetric link between `a` and `b`. The last
            /// registration for a pair wins; its in-flight arrivals are kept.
            pub(crate) fn connect(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) {
                self.insert(a, b, spec);
                self.insert(b, a, spec);
            }

            fn insert(&mut self, src: NodeId, dst: NodeId, spec: LinkSpec) {
                if self.rows.len() <= src.index() {
                    self.rows.resize_with(src.index() + 1, Row::default);
                }
                let row = &mut self.rows[src.index()];
                match row.keys.binary_search(&dst) {
                    Ok(i) => row.links[i].spec = spec,
                    Err(i) => {
                        row.keys.insert(i, dst);
                        row.links.insert(i, Link::new(spec));
                    }
                }
            }

            /// The link from `src` to `dst`, if one is registered.
            pub(crate) fn get(&self, src: NodeId, dst: NodeId) -> Option<&Link> {
                let row = self.rows.get(src.index())?;
                Some(&row.links[row.keys.binary_search(&dst).ok()?])
            }

            /// Mutable access to the link from `src` to `dst` (to reserve a slot).
            pub(crate) fn get_mut(&mut self, src: NodeId, dst: NodeId) -> Option<&mut Link> {
                let row = self.rows.get_mut(src.index())?;
                let i = row.keys.binary_search(&dst).ok()?;
                Some(&mut row.links[i])
            }
        }
    }

    #[test]
    fn serializer_bumps_only_exact_collisions() {
        let mut t = LinkTable::default();
        let (a, b) = (node(1), node(2));
        t.connect(a, b, spec_ms(1));
        let mut sent = Vec::new();
        let mut ab = |t: &mut LinkTable, now, at| {
            let (at, id) = send(t, a, b, now, at);
            sent.push((at, id));
            at
        };
        assert_eq!(ab(&mut t, 100, 500), ns(500));
        // Exact collision bumps to the next free nanosecond — chained when
        // that slot is taken too.
        assert_eq!(ab(&mut t, 100, 500), ns(501));
        assert_eq!(ab(&mut t, 100, 500), ns(502));
        // Distinct times pass through untouched, even between collisions.
        assert_eq!(ab(&mut t, 100, 499), ns(499));
        // The reverse direction and other pairs are independent resources.
        assert_eq!(send(&mut t, b, a, 100, 500).0, ns(500));
        // Arrivals due at the clock no longer hold their nanosecond, even
        // before they are delivered; later ones still do.
        assert_eq!(ab(&mut t, 500, 500), ns(500));
        assert_eq!(ab(&mut t, 500, 501), ns(503));
        assert_eq!(t.live_reservations(), 2);
        // Delivering a link's last arrival frees its entry.
        sent.sort_by_key(|&(at, _)| at);
        for &(at, id) in &sent {
            assert_eq!(t.deliver(id, at), a);
        }
        assert_eq!(t.live_reservations(), 1);
        assert!(in_flight(&t, a, b).is_empty());
        assert_eq!(send(&mut t, a, b, 1_000, 1_500).0, ns(1_500));
        assert_eq!(in_flight(&t, a, b), [ns(1_500)]);
        assert_eq!(in_flight(&t, b, a), [ns(500)]);
    }

    #[test]
    fn burst_on_one_nanosecond_gets_consecutive_slots() {
        // One callback fanning 100 000 sends down one link at one computed
        // arrival: with `retain` + `contains` + one-nanosecond bumps this
        // was cubic and did not finish; walking the run would be ~3 s.
        let mut t = LinkTable::default();
        let (a, b) = (node(0), node(1));
        t.connect(a, b, spec_ms(1));
        let mut ids = Vec::new();
        for k in 0..100_000 {
            let (at, id) = send(&mut t, a, b, 10, 1_000);
            assert_eq!(at, ns(1_000 + k));
            ids.push(id);
        }
        // Delivering the burst is one pop from the front each.
        for (k, id) in (0..).zip(ids) {
            assert_eq!(t.deliver(id, ns(1_000 + k)), a);
        }
        assert_eq!(t.live_reservations(), 0);
    }

    /// A delivery waiting in the test's queue: `(at, fifo, id, src, dst)`,
    /// earliest first, FIFO among ties.
    type Queued = (SimTime, u64, u32, NodeId, NodeId);

    #[test]
    fn table_matches_the_whole_link_rows_reference() {
        for seed in 0..24 {
            let mut r = SimRng::seed_from(seed);
            let mut table = LinkTable::default();
            let mut reference = whole_links::LinkTable::default();
            let nodes = 340;
            let hub = node(r.uniform_u64(0, nodes - 1) as u32);
            let pick = |r: &mut SimRng| node(r.uniform_u64(0, nodes + 3) as u32);
            let mut queue: BTreeSet<Queued> = BTreeSet::new();
            let (mut now, mut fifo, mut spokes, mut last_at) = (0u64, 0u64, 0u32, 0u64);
            for step in 0..4_000u64 {
                let due = queue.first().map(|q| q.0.as_nanos());
                match r.next_u64() % 12 {
                    // The hub grows a 300-link row; a second connect on a
                    // pair replaces the spec and keeps what is in flight.
                    0 | 11 => {
                        let (spec, spoke) = (spec_ms(1 + step % 9), node(spokes % 300));
                        spokes += 1;
                        table.connect(hub, spoke, spec);
                        reference.connect(hub, spoke, spec);
                    }
                    1 => {
                        let (a, b, spec) = (pick(&mut r), pick(&mut r), spec_ms(1 + step % 5));
                        table.connect(a, b, spec);
                        reference.connect(a, b, spec);
                    }
                    // Reconnect a pair with a message in flight on it.
                    2 => {
                        if let Some(&(_, _, _, a, b)) = queue.last() {
                            table.connect(a, b, spec_ms(10 + step % 3));
                            reference.connect(a, b, spec_ms(10 + step % 3));
                        }
                    }
                    // Deliver the earliest arrival; the clock moves to it.
                    3 | 4 => {
                        if let Some((at, _, id, src, _)) = queue.pop_first() {
                            now = at.as_nanos();
                            assert_eq!(
                                table.deliver(ArrivalId(id), at),
                                src,
                                "seed {seed} step {step}"
                            );
                        }
                    }
                    // The clock reaches the earliest arrival without
                    // delivering it (a tie dispatched ahead of it), or a
                    // timer fires short of it, or an idle jump.
                    5 => match due {
                        Some(due) if r.chance(0.5) => now = due,
                        Some(due) => now = (now + r.next_u64() % 3).min(due),
                        None => now += 1_000,
                    },
                    // Sends: hub rows, random pairs, absent pairs and
                    // sources past the last row. The arrival is the last
                    // one again (chained same-nanosecond bursts), the clock
                    // itself (zero delay, onto any arrival due now) or a
                    // dense window after it.
                    n => {
                        let (src, dst) = match n {
                            6 | 7 => (hub, pick(&mut r)),
                            8 => (pick(&mut r), hub),
                            _ => (pick(&mut r), pick(&mut r)),
                        };
                        let at = match r.next_u64() % 4 {
                            0 => last_at.max(now),
                            1 => now,
                            _ => now + r.next_u64() % 6,
                        };
                        last_at = at;
                        let got = table.find(src, dst).map(|link| {
                            let spec = *table.spec(&link);
                            let (at, id) = table.reserve(link, ns(now), ns(at));
                            queue.insert((at, fifo, id.0, src, dst));
                            fifo += 1;
                            (spec, at)
                        });
                        let want = reference
                            .get_mut(src, dst)
                            .map(|l| (l.spec, l.reserve(ns(now), ns(at))));
                        assert_eq!(got, want, "seed {seed} step {step}: {src} -> {dst}");
                        let spec = table.find(src, dst).map(|link| *table.spec(&link));
                        assert_eq!(spec, reference.get(src, dst).map(|l| l.spec));
                    }
                }
                // An entry is held only while its link has an arrival in
                // flight, and each arrival is one queued delivery.
                let held: usize = table.slab.iter().map(|e| e.times.len() - e.delivered).sum();
                assert_eq!(held, queue.len(), "seed {seed} step {step}");
                assert!(table.live_reservations() <= queue.len());
            }
            assert!(table.rows[hub.index()].keys.len() >= 300, "seed {seed}");
            assert!(
                table.specs.len() <= 9 + 5 + 3,
                "seed {seed}: {} specs",
                table.specs.len()
            );
            // Every pair, absent ones and sources past the last row
            // included: the same links, specs and arrivals after the clock
            // (the reference prunes lazily, so what it still holds at or
            // before the clock is delivered or due).
            let pending = |t: &&SimTime| t.as_nanos() > now;
            for src in (0..nodes as u32 + 6).map(node) {
                for dst in (0..nodes as u32 + 6).map(node) {
                    let Some(want) = reference.get(src, dst) else {
                        assert!(table.find(src, dst).is_none());
                        continue;
                    };
                    assert_eq!(*table.spec(&table.find(src, dst).unwrap()), want.spec);
                    let got = in_flight(&table, src, dst);
                    assert!(got
                        .iter()
                        .filter(pending)
                        .eq(want.inflight.iter().filter(pending)));
                }
            }
            while let Some((at, _, id, src, _)) = queue.pop_first() {
                assert_eq!(table.deliver(ArrivalId(id), at), src);
            }
            assert_eq!(table.live_reservations(), 0, "seed {seed}");
        }
    }

    #[test]
    fn more_than_256_distinct_specs_each_keep_their_own() {
        let mut t = LinkTable::default();
        let hub = node(0);
        let owd = |i: u32| SimDuration::from_micros(u64::from(i));
        for i in 1..=300 {
            t.connect(hub, node(i), LinkSpec::new(1, owd(i)));
            // Re-registering an existing spec adds nothing.
            t.connect(node(i), node(i + 1), spec_ms(1));
        }
        assert_eq!(t.specs.len(), 301);
        for i in 1..=300 {
            let link = t.find(node(i), hub).unwrap();
            assert_eq!(t.spec(&link).propagation_owd(), owd(i));
        }
    }

    #[test]
    fn propagation_scales_with_hops() {
        let l = LinkSpec::new(7, SimDuration::from_millis(1));
        assert_eq!(l.propagation_owd(), SimDuration::from_millis(7));
        assert_eq!(l.nominal_rtt(), SimDuration::from_millis(14));
    }

    #[test]
    fn from_rtt_inverts_nominal_rtt() {
        let l = LinkSpec::from_rtt(7, SimDuration::from_millis(14));
        assert_eq!(l.nominal_rtt(), SimDuration::from_millis(14));
    }

    #[test]
    fn zero_hops_clamped_to_one() {
        let l = LinkSpec::new(0, SimDuration::from_millis(1));
        assert_eq!(l.hops(), 1);
    }

    #[test]
    fn transfer_time_uses_bandwidth() {
        let l = LinkSpec::new(1, SimDuration::ZERO).bandwidth_bytes_per_sec(1_000_000);
        assert_eq!(l.transfer_time(500_000), SimDuration::from_millis(500));
    }

    #[test]
    fn sampled_owd_includes_all_components() {
        let l = LinkSpec::new(2, SimDuration::from_millis(1)).bandwidth_bytes_per_sec(1_000_000);
        let owd = l.sample_owd(1_000, &mut draws(0));
        // 2ms propagation + 1ms transfer, no jitter configured.
        assert_eq!(owd, SimDuration::from_millis(3));
    }

    #[test]
    fn jitter_adds_nonnegative_tail() {
        let l =
            LinkSpec::new(1, SimDuration::from_millis(1)).jitter_mean(SimDuration::from_millis(2));
        let base = SimDuration::from_millis(1);
        let mean: f64 = (0..5_000)
            .map(|i| (l.sample_owd(0, &mut draws(i)) - base).as_millis_f64())
            .sum::<f64>()
            / 5_000.0;
        assert!((mean - 2.0).abs() < 0.25, "jitter mean {mean}");
    }

    #[test]
    fn loss_probability_validated() {
        let l = LinkSpec::new(1, SimDuration::ZERO).loss_probability(0.5);
        let losses = (0..1_000).filter(|&i| l.sample_loss(&mut draws(i))).count();
        assert!((300..700).contains(&losses), "losses {losses}");
    }

    #[test]
    fn loss_probability_accepts_one_as_always_lossy() {
        let l = LinkSpec::new(1, SimDuration::ZERO).loss_probability(1.0);
        assert!((0..1_000).all(|i| l.sample_loss(&mut draws(i))));
        // The other boundary stays lossless.
        let l = LinkSpec::new(1, SimDuration::ZERO).loss_probability(0.0);
        assert!((0..1_000).all(|i| !l.sample_loss(&mut draws(i))));
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn loss_probability_rejects_above_one() {
        let _ = LinkSpec::new(1, SimDuration::ZERO).loss_probability(1.0 + f64::EPSILON);
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn loss_probability_rejects_nan() {
        let _ = LinkSpec::new(1, SimDuration::ZERO).loss_probability(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn bandwidth_rejects_zero() {
        let _ = LinkSpec::new(1, SimDuration::ZERO).bandwidth_bytes_per_sec(0);
    }

    #[test]
    fn topology_symmetric_connect() {
        let mut t = LinkTable::default();
        let (a, b) = (node(0), node(1));
        t.connect(a, b, spec_ms(1));
        assert!(t.find(a, b).is_some());
        assert!(t.find(b, a).is_some());
        assert_eq!(t.rows.iter().map(|r| r.links.len()).sum::<usize>(), 2);
        assert_eq!(t.specs, [spec_ms(1)]);
        // Pairs never connected, and sources past the last row, are absent.
        assert!(t.find(a, node(2)).is_none());
        assert!(t.find(node(9), a).is_none());
    }

    #[test]
    fn topology_directed_connect() {
        let mut t = LinkTable::default();
        let (a, b) = (node(0), node(1));
        let spec = t.intern(spec_ms(1));
        t.insert(a, b, spec);
        assert!(t.find(a, b).is_some());
        assert!(t.find(b, a).is_none());
    }

    #[test]
    fn reconnect_replaces_the_spec_and_keeps_inflight() {
        let mut t = LinkTable::default();
        let (a, b) = (node(0), node(1));
        t.connect(a, b, spec_ms(1));
        let (at, first) = send(&mut t, a, b, 0, 700);
        assert_eq!(at, ns(700));
        t.connect(a, b, spec_ms(5));
        assert_eq!(t.rows[a.index()].links.len(), 1);
        let ab = t.find(a, b).unwrap();
        assert_eq!(*t.spec(&ab), spec_ms(5));
        let (at, second) = send(&mut t, a, b, 0, 700);
        assert_eq!(at, ns(701));
        assert_eq!(second, first, "one entry holds the link's arrivals");
        assert_eq!(t.specs, [spec_ms(1), spec_ms(5)]);
    }

    #[test]
    fn rows_stay_sorted_whatever_the_connect_order() {
        let mut t = LinkTable::default();
        let hub = node(3);
        for raw in [7, 0, 9, 4, 1, 8] {
            t.connect(hub, node(raw), spec_ms(1));
        }
        let dsts: Vec<u32> = t.rows[hub.index()]
            .keys
            .iter()
            .map(|k| k.as_raw())
            .collect();
        assert_eq!(dsts, [0, 1, 4, 7, 8, 9]);
        assert_eq!(t.rows[9].keys, [hub]);
    }
}
