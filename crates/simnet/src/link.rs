//! Network links and topology.
//!
//! Links are modeled end-to-end between two simulated nodes: a hop count, a
//! per-hop one-way propagation delay, a bottleneck bandwidth, and an
//! exponential jitter tail. This matches how the paper characterizes its
//! paths (e.g. "7 hops away", "12 hops away", WiFi one hop).

use std::collections::HashMap;

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

/// Static wiring between nodes: which pairs can exchange messages and with
/// what path characteristics. Links are symmetric unless both directions are
/// registered with distinct specs.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    links: HashMap<(NodeId, NodeId), LinkSpec>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Registers a symmetric link between `a` and `b`.
    pub fn connect(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) {
        self.links.insert((a, b), spec);
        self.links.insert((b, a), spec);
    }

    /// Registers a one-direction link from `a` to `b` only.
    pub fn connect_directed(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) {
        self.links.insert((a, b), spec);
    }

    /// Looks up the link from `a` to `b`.
    pub fn link(&self, a: NodeId, b: NodeId) -> Option<&LinkSpec> {
        self.links.get(&(a, b))
    }

    /// Number of directed link entries.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether no links are registered.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }
}

/// Serializes arrivals on each directed link.
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
#[derive(Debug, Default)]
pub(crate) struct LinkSerializer {
    /// Pending arrival times per directed pair. Entries at or before the
    /// sender's clock have been delivered and are pruned on reservation;
    /// links have positive delay, so a new arrival never lands in the past.
    inflight: HashMap<(NodeId, NodeId), Vec<SimTime>>,
}

impl LinkSerializer {
    /// Reserves the arrival slot for a message on `src → dst` computed to
    /// land at `at`, bumping past any in-flight arrival already occupying
    /// that nanosecond. `now` is the sender's clock at send time.
    pub(crate) fn reserve(
        &mut self,
        src: NodeId,
        dst: NodeId,
        now: SimTime,
        at: SimTime,
    ) -> SimTime {
        let slots = self.inflight.entry((src, dst)).or_default();
        slots.retain(|&t| t > now);
        let mut at = at;
        while slots.contains(&at) {
            at += SimDuration::from_nanos(1);
        }
        slots.push(at);
        at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from(1)
    }

    #[test]
    fn serializer_bumps_only_exact_collisions() {
        let mut s = LinkSerializer::default();
        let (a, b) = (NodeId::from_raw(1), NodeId::from_raw(2));
        let now = SimTime::from_nanos(100);
        assert_eq!(
            s.reserve(a, b, now, SimTime::from_nanos(500)).as_nanos(),
            500
        );
        // Exact collision bumps to the next free nanosecond — chained when
        // that slot is taken too.
        assert_eq!(
            s.reserve(a, b, now, SimTime::from_nanos(500)).as_nanos(),
            501
        );
        assert_eq!(
            s.reserve(a, b, now, SimTime::from_nanos(500)).as_nanos(),
            502
        );
        // Distinct times pass through untouched, even between collisions.
        assert_eq!(
            s.reserve(a, b, now, SimTime::from_nanos(499)).as_nanos(),
            499
        );
        // The reverse direction and other pairs are independent resources.
        assert_eq!(
            s.reserve(b, a, now, SimTime::from_nanos(500)).as_nanos(),
            500
        );
        // Delivered arrivals free their slots: advancing the clock past the
        // reservations lets the nanosecond be reused.
        let later = SimTime::from_nanos(1_000);
        assert_eq!(
            s.reserve(a, b, later, SimTime::from_nanos(1_500))
                .as_nanos(),
            1_500
        );
        assert_eq!(s.inflight[&(a, b)].len(), 1);
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
        let mut t = Topology::new();
        let a = NodeId::from_raw(0);
        let b = NodeId::from_raw(1);
        t.connect(a, b, LinkSpec::new(1, SimDuration::from_millis(1)));
        assert!(t.link(a, b).is_some());
        assert!(t.link(b, a).is_some());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn topology_directed_connect() {
        let mut t = Topology::new();
        let a = NodeId::from_raw(0);
        let b = NodeId::from_raw(1);
        t.connect_directed(a, b, LinkSpec::new(1, SimDuration::from_millis(1)));
        assert!(t.link(a, b).is_some());
        assert!(t.link(b, a).is_none());
        assert!(!t.is_empty());
    }
}
