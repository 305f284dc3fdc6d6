//! Network links and topology.
//!
//! Links are modeled end-to-end between two simulated nodes: a hop count, a
//! per-hop one-way propagation delay, a bottleneck bandwidth, and an
//! exponential jitter tail. This matches how the paper characterizes its
//! paths (e.g. "7 hops away", "12 hops away", WiFi one hop).

use crate::node::NodeId;
use crate::rng::SimRng;
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
    jitter_mean: SimDuration,
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
            jitter_mean: SimDuration::ZERO,
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
        self.jitter_mean = mean;
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
    pub fn sample_owd(&self, size: usize, rng: &mut SimRng) -> SimDuration {
        self.propagation_owd() + self.transfer_time(size) + rng.jitter(self.jitter_mean)
    }

    /// Samples whether a traversal is lost.
    pub fn sample_loss(&self, rng: &mut SimRng) -> bool {
        self.loss_probability > 0.0 && rng.chance(self.loss_probability)
    }
}

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
    inflight: Vec<SimTime>,
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

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from(1)
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

    #[test]
    fn serializer_bumps_only_exact_collisions() {
        let mut t = LinkTable::default();
        let (a, b) = (node(1), node(2));
        t.connect(a, b, spec_ms(1));
        let now = ns(100);
        let ab = t.get_mut(a, b).unwrap();
        assert_eq!(ab.reserve(now, ns(500)), ns(500));
        // Exact collision bumps to the next free nanosecond — chained when
        // that slot is taken too.
        assert_eq!(ab.reserve(now, ns(500)), ns(501));
        assert_eq!(ab.reserve(now, ns(500)), ns(502));
        // Distinct times pass through untouched, even between collisions.
        assert_eq!(ab.reserve(now, ns(499)), ns(499));
        // The reverse direction and other pairs are independent resources.
        assert_eq!(t.get_mut(b, a).unwrap().reserve(now, ns(500)), ns(500));
        // Delivered arrivals free their slots: advancing the clock past the
        // reservations lets the nanosecond be reused.
        let ab = t.get_mut(a, b).unwrap();
        assert_eq!(ab.reserve(ns(1_000), ns(1_500)), ns(1_500));
        assert_eq!(ab.inflight, [ns(1_500)]);
    }

    /// The reservation rule as it stood before the sorted vector, kept
    /// verbatim as the oracle for the differential test below.
    fn reference_reserve(slots: &mut Vec<SimTime>, now: SimTime, at: SimTime) -> SimTime {
        slots.retain(|&t| t > now);
        let mut at = at;
        while slots.contains(&at) {
            at += SimDuration::from_nanos(1);
        }
        slots.push(at);
        at
    }

    #[test]
    fn reserve_matches_the_retain_contains_reference() {
        for seed in 0..64 {
            let mut r = SimRng::seed_from(seed);
            let mut link = Link::new(spec_ms(1));
            let mut reference = Vec::new();
            let mut now = 0u64;
            let mut last_at = 1u64;
            for step in 0..400 {
                // Mostly a standing clock (bursts), sometimes a small step,
                // sometimes a jump that frees every slot.
                now += match r.next_u64() % 8 {
                    0 => r.next_u64() % 40,
                    1 => r.next_u64() % 4,
                    2 if step % 50 == 49 => 1_000,
                    _ => 0,
                };
                // Same nanosecond again (chained collisions), a dense
                // window around it (out-of-order arrivals), or zero delay.
                let at = match r.next_u64() % 4 {
                    0 => last_at.max(now),
                    1 => now,
                    _ => now + r.next_u64() % 24,
                };
                last_at = at;
                assert_eq!(
                    link.reserve(ns(now), ns(at)),
                    reference_reserve(&mut reference, ns(now), ns(at)),
                    "seed {seed} step {step}: now {now} at {at}"
                );
            }
            reference.sort_unstable();
            assert_eq!(link.inflight, reference, "seed {seed}");
        }
    }

    #[test]
    fn burst_on_one_nanosecond_gets_consecutive_slots() {
        // One callback fanning 100 000 sends down one link at one computed
        // arrival: with `retain` + `contains` + one-nanosecond bumps this
        // was cubic and did not finish; walking the run would be ~3 s.
        let mut link = Link::new(spec_ms(1));
        for k in 0..100_000 {
            assert_eq!(link.reserve(ns(10), ns(1_000)), ns(1_000 + k));
        }
    }

    /// The link table as it stood before the key rows — one sorted
    /// `Vec` of whole links per source, searched by `binary_search_by_key`
    /// — kept verbatim as the oracle for the differential test below.
    #[derive(Default)]
    struct ReferenceTable {
        rows: Vec<Vec<(NodeId, Link)>>,
    }

    impl ReferenceTable {
        fn connect(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) {
            self.insert(a, b, spec);
            self.insert(b, a, spec);
        }

        fn insert(&mut self, src: NodeId, dst: NodeId, spec: LinkSpec) {
            if self.rows.len() <= src.index() {
                self.rows.resize_with(src.index() + 1, Vec::new);
            }
            let row = &mut self.rows[src.index()];
            match row.binary_search_by_key(&dst, |l| l.0) {
                Ok(i) => row[i].1.spec = spec,
                Err(i) => row.insert(i, (dst, Link::new(spec))),
            }
        }

        fn get_mut(&mut self, src: NodeId, dst: NodeId) -> Option<&mut Link> {
            let row = self.rows.get_mut(src.index())?;
            let i = row.binary_search_by_key(&dst, |l| l.0).ok()?;
            Some(&mut row[i].1)
        }
    }

    #[test]
    fn table_matches_the_whole_link_rows_reference() {
        for seed in 0..24 {
            let mut r = SimRng::seed_from(seed);
            let (mut table, mut reference) = (LinkTable::default(), ReferenceTable::default());
            let nodes = 340;
            let hub = node(r.uniform_u64(0, nodes - 1) as u32);
            let (mut now, mut spokes) = (0u64, 0u32);
            for step in 0..4_000u64 {
                let pick = |r: &mut SimRng| node(r.uniform_u64(0, nodes + 3) as u32);
                match r.next_u64() % 8 {
                    // The hub grows a 300-link row; a second connect on a
                    // pair replaces the spec and keeps what is in flight.
                    0 | 1 => {
                        let (spec, spoke) = (spec_ms(1 + step % 9), node(spokes % 300));
                        spokes += 1;
                        table.connect(hub, spoke, spec);
                        reference.connect(hub, spoke, spec);
                    }
                    2 => {
                        let (a, b, spec) = (pick(&mut r), pick(&mut r), spec_ms(1 + step % 5));
                        table.connect(a, b, spec);
                        reference.connect(a, b, spec);
                    }
                    // Lookups: hub rows, random pairs, absent pairs and
                    // sources past the last row; reserve where one exists.
                    n => {
                        let (src, dst) = match n {
                            3 | 4 => (hub, pick(&mut r)),
                            5 => (pick(&mut r), hub),
                            _ => (pick(&mut r), pick(&mut r)),
                        };
                        now += r.next_u64() % 3;
                        let at = ns(now + r.next_u64() % 4);
                        let got = table
                            .get_mut(src, dst)
                            .map(|l| (l.spec, l.reserve(ns(now), at)));
                        let want = reference
                            .get_mut(src, dst)
                            .map(|l| (l.spec, l.reserve(ns(now), at)));
                        assert_eq!(got, want, "seed {seed} step {step}: {src} -> {dst}");
                        assert_eq!(table.get(src, dst).map(|l| l.spec), want.map(|w| w.0));
                    }
                }
            }
            assert_eq!(
                table.rows[hub.index()].keys.len(),
                reference.rows[hub.index()].len()
            );
            assert!(table.rows[hub.index()].keys.len() >= 300, "seed {seed}");
            for (row, want) in table.rows.iter().zip(&reference.rows) {
                assert!(row.keys.iter().eq(want.iter().map(|l| &l.0)));
                assert!(row
                    .links
                    .iter()
                    .map(|l| &l.inflight)
                    .eq(want.iter().map(|l| &l.1.inflight)));
            }
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
        let mut r = rng();
        let owd = l.sample_owd(1_000, &mut r);
        // 2ms propagation + 1ms transfer, no jitter configured.
        assert_eq!(owd, SimDuration::from_millis(3));
    }

    #[test]
    fn jitter_adds_nonnegative_tail() {
        let l =
            LinkSpec::new(1, SimDuration::from_millis(1)).jitter_mean(SimDuration::from_millis(2));
        let mut r = rng();
        let base = SimDuration::from_millis(1);
        let mean: f64 = (0..5_000)
            .map(|_| (l.sample_owd(0, &mut r) - base).as_millis_f64())
            .sum::<f64>()
            / 5_000.0;
        assert!((mean - 2.0).abs() < 0.25, "jitter mean {mean}");
    }

    #[test]
    fn loss_probability_validated() {
        let l = LinkSpec::new(1, SimDuration::ZERO).loss_probability(0.5);
        let mut r = rng();
        let losses = (0..1_000).filter(|_| l.sample_loss(&mut r)).count();
        assert!((300..700).contains(&losses), "losses {losses}");
    }

    #[test]
    fn loss_probability_accepts_one_as_always_lossy() {
        let l = LinkSpec::new(1, SimDuration::ZERO).loss_probability(1.0);
        let mut r = rng();
        assert!((0..1_000).all(|_| l.sample_loss(&mut r)));
        // The other boundary stays lossless.
        let l = LinkSpec::new(1, SimDuration::ZERO).loss_probability(0.0);
        assert!((0..1_000).all(|_| !l.sample_loss(&mut r)));
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
        assert!(t.get(a, b).is_some());
        assert!(t.get(b, a).is_some());
        assert_eq!(t.rows.iter().map(|r| r.links.len()).sum::<usize>(), 2);
        // Pairs never connected, and sources past the last row, are absent.
        assert!(t.get(a, node(2)).is_none());
        assert!(t.get(node(9), a).is_none());
        assert!(t.get_mut(node(9), a).is_none());
    }

    #[test]
    fn topology_directed_connect() {
        let mut t = LinkTable::default();
        let (a, b) = (node(0), node(1));
        t.insert(a, b, spec_ms(1));
        assert!(t.get(a, b).is_some());
        assert!(t.get(b, a).is_none());
    }

    #[test]
    fn reconnect_replaces_the_spec_and_keeps_inflight() {
        let mut t = LinkTable::default();
        let (a, b) = (node(0), node(1));
        t.connect(a, b, spec_ms(1));
        assert_eq!(t.get_mut(a, b).unwrap().reserve(ns(0), ns(700)), ns(700));
        t.connect(a, b, spec_ms(5));
        assert_eq!(t.rows[a.index()].links.len(), 1);
        let ab = t.get_mut(a, b).unwrap();
        assert_eq!(ab.spec, spec_ms(5));
        assert_eq!(ab.reserve(ns(0), ns(700)), ns(701));
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
