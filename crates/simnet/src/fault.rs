//! Deterministic link-fault injection.
//!
//! The paper's premise is the flaky last hop: §V evaluates APE-CACHE under
//! real WiFi radio conditions where loss and latency spikes are the norm.
//! [`LinkSpec::loss_probability`](crate::LinkSpec::loss_probability) models
//! steady-state random loss; a [`FaultPlan`] layers *scheduled* disturbances
//! on top — link-down windows, loss-rate bursts, and delay spikes, each
//! scoped to one link and one simulated-time interval.
//!
//! A plan is pure data attached to the [`World`](crate::World) before the
//! run: the same seed and plan always produce the same event sequence, so
//! faulted runs stay inside the bitwise-determinism contract and keep
//! their [`fingerprint`](crate::World::fingerprint) under
//! [`set_tie_perturbation`](crate::World::set_tie_perturbation).
//! An **empty** plan draws zero randomness and touches no metrics, so a
//! world without faults is bit-identical to one built before this module
//! existed.
//!
//! Fault windows apply where loss does: on node-initiated sends
//! ([`Context::send`](crate::Context::send)/`send_after`). Messages injected
//! with [`World::post`](crate::World::post) bypass faults, like they bypass
//! loss — they seed the run from outside the network.

use crate::node::NodeId;
use crate::time::{SimDuration, SimTime};

/// What a fault window does to traversals of its link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Every traversal during the window is dropped (partition).
    Down,
    /// Each traversal is independently dropped with this probability,
    /// on top of the link's steady-state `loss_probability`.
    Loss(f64),
    /// Every traversal is delayed by this much extra one-way delay.
    Delay(SimDuration),
}

/// One scheduled disturbance: a [`FaultKind`] active on the link between
/// two nodes (both directions) over `[start, end)` of simulated time.
/// The plan files it under its pair, so it holds only its interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindow {
    start: SimTime,
    end: SimTime,
    kind: FaultKind,
}

/// An unordered node pair as one key: the lower id in the high half.
fn pair_key(a: NodeId, b: NodeId) -> u64 {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    u64::from(lo.as_raw()) << 32 | u64::from(hi.as_raw())
}

/// The windows of one unordered pair, in registration order.
#[derive(Debug, Clone, PartialEq)]
struct PairWindows {
    key: u64,
    windows: Vec<FaultWindow>,
}

/// The combined effect of every active fault window on one traversal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkEffect {
    /// The link is partitioned: drop unconditionally.
    pub down: bool,
    /// Combined burst-loss probability (independent of steady-state loss).
    pub loss: f64,
    /// Total extra one-way delay.
    pub extra_delay: SimDuration,
}

impl LinkEffect {
    /// The no-fault effect.
    pub const NONE: LinkEffect = LinkEffect {
        down: false,
        loss: 0.0,
        extra_delay: SimDuration::ZERO,
    };
}

/// A deterministic schedule of link disturbances for one run.
///
/// Built before the run and attached with
/// [`World::set_fault_plan`](crate::World::set_fault_plan). Windows may
/// overlap: concurrent loss bursts compose as independent drop trials
/// (`1 − ∏(1 − pᵢ)`), delay spikes add, and any active
/// [`FaultKind::Down`] window wins outright. Two plans are equal when
/// every pair has the same windows in the same order; how the windows of
/// different pairs were interleaved is not kept.
///
/// # Examples
///
/// ```
/// use ape_simnet::{FaultPlan, NodeId, SimDuration, SimTime};
///
/// let a = NodeId::from_raw(0);
/// let b = NodeId::from_raw(1);
/// let plan = FaultPlan::new()
///     .link_down(a, b, SimTime::from_secs(10), SimTime::from_secs(12))
///     .loss_burst(a, b, SimTime::from_secs(30), SimTime::from_secs(40), 0.25)
///     .delay_spike(a, b, SimTime::from_secs(50), SimTime::from_secs(55),
///                  SimDuration::from_millis(80));
/// assert!(plan.effect(a, b, SimTime::from_secs(11)).down);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Every window, filed under its unordered pair: pairs ascending by
    /// key, each pair's windows in the order they were added.
    pairs: Vec<PairWindows>,
}

impl FaultPlan {
    /// Creates an empty plan (no disturbances).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan schedules no disturbances at all.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Number of scheduled windows.
    pub fn len(&self) -> usize {
        self.pairs.iter().map(|p| p.windows.len()).sum()
    }

    /// Schedules a full partition of the `a`↔`b` link over `[start, end)`.
    pub fn link_down(self, a: NodeId, b: NodeId, start: SimTime, end: SimTime) -> Self {
        self.window(a, b, start, end, FaultKind::Down)
    }

    /// Schedules a burst of extra loss probability `p` on `a`↔`b` over
    /// `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1)` — for certain loss use
    /// [`link_down`](Self::link_down).
    pub fn loss_burst(self, a: NodeId, b: NodeId, start: SimTime, end: SimTime, p: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "burst loss probability must be in [0,1)"
        );
        self.window(a, b, start, end, FaultKind::Loss(p))
    }

    /// Schedules an extra one-way delay on `a`↔`b` over `[start, end)`.
    pub fn delay_spike(
        self,
        a: NodeId,
        b: NodeId,
        start: SimTime,
        end: SimTime,
        extra: SimDuration,
    ) -> Self {
        self.window(a, b, start, end, FaultKind::Delay(extra))
    }

    /// Adds one window of any kind.
    pub fn window(
        mut self,
        a: NodeId,
        b: NodeId,
        start: SimTime,
        end: SimTime,
        kind: FaultKind,
    ) -> Self {
        assert!(start <= end, "fault window must not end before it starts");
        let key = pair_key(a, b);
        let window = FaultWindow { start, end, kind };
        match self.pairs.binary_search_by_key(&key, |p| p.key) {
            Ok(i) => self.pairs[i].windows.push(window),
            Err(i) => self.pairs.insert(
                i,
                PairWindows {
                    key,
                    windows: vec![window],
                },
            ),
        }
        self
    }

    /// Resolves the combined effect of all windows active on the
    /// `from`→`to` traversal at time `now`.
    ///
    /// Windows are symmetric (either direction matches), so only the
    /// windows filed under the unordered pair are read, and a pair with
    /// none costs one search. Down and the delay sum do not depend on the
    /// order the windows are read in, but the pass probability
    /// `∏(1 − pᵢ)` is a float product, whose bits do. So each pair keeps
    /// its windows in the order they were added to the plan, and they are
    /// multiplied in that order, as a scan of all windows would.
    pub fn effect(&self, from: NodeId, to: NodeId, now: SimTime) -> LinkEffect {
        let key = pair_key(from, to);
        let Ok(i) = self.pairs.binary_search_by_key(&key, |p| p.key) else {
            return LinkEffect::NONE;
        };
        let mut effect = LinkEffect::NONE;
        let mut pass = 1.0f64;
        for w in &self.pairs[i].windows {
            if !(w.start <= now && now < w.end) {
                continue;
            }
            match w.kind {
                FaultKind::Down => effect.down = true,
                FaultKind::Loss(p) => pass *= 1.0 - p,
                FaultKind::Delay(extra) => effect.extra_delay += extra,
            }
        }
        effect.loss = 1.0 - pass;
        effect
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ape_check::{check, Gen};

    fn ids() -> (NodeId, NodeId, NodeId) {
        (
            NodeId::from_raw(0),
            NodeId::from_raw(1),
            NodeId::from_raw(2),
        )
    }

    #[test]
    fn empty_plan_has_no_effect() {
        let (a, b, _) = ids();
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert_eq!(plan.effect(a, b, SimTime::from_secs(5)), LinkEffect::NONE);
    }

    #[test]
    fn down_window_is_half_open_and_symmetric() {
        let (a, b, c) = ids();
        let plan = FaultPlan::new().link_down(a, b, SimTime::from_secs(10), SimTime::from_secs(20));
        assert!(!plan.effect(a, b, SimTime::from_nanos(9_999_999_999)).down);
        assert!(plan.effect(a, b, SimTime::from_secs(10)).down);
        assert!(plan.effect(b, a, SimTime::from_secs(19)).down);
        assert!(!plan.effect(a, b, SimTime::from_secs(20)).down);
        // Other links are untouched.
        assert!(!plan.effect(a, c, SimTime::from_secs(15)).down);
    }

    #[test]
    fn overlapping_loss_bursts_compose_independently() {
        let (a, b, _) = ids();
        let plan = FaultPlan::new()
            .loss_burst(a, b, SimTime::ZERO, SimTime::from_secs(10), 0.5)
            .loss_burst(a, b, SimTime::from_secs(5), SimTime::from_secs(10), 0.5);
        let early = plan.effect(a, b, SimTime::from_secs(1));
        assert!((early.loss - 0.5).abs() < 1e-12);
        let late = plan.effect(a, b, SimTime::from_secs(7));
        assert!((late.loss - 0.75).abs() < 1e-12, "loss {}", late.loss);
    }

    #[test]
    fn delay_spikes_add() {
        let (a, b, _) = ids();
        let plan = FaultPlan::new()
            .delay_spike(
                a,
                b,
                SimTime::ZERO,
                SimTime::from_secs(10),
                SimDuration::from_millis(30),
            )
            .delay_spike(
                a,
                b,
                SimTime::ZERO,
                SimTime::from_secs(10),
                SimDuration::from_millis(20),
            );
        let effect = plan.effect(b, a, SimTime::from_secs(2));
        assert_eq!(effect.extra_delay, SimDuration::from_millis(50));
        assert!(!effect.down);
        assert_eq!(effect.loss, 0.0);
    }

    type Scheduled = (NodeId, NodeId, SimTime, SimTime, FaultKind);

    /// The scan the per-pair index replaced: every window of the plan, in
    /// the order added, either direction matching.
    fn scan(windows: &[Scheduled], from: NodeId, to: NodeId, now: SimTime) -> LinkEffect {
        let mut effect = LinkEffect::NONE;
        let mut pass = 1.0f64;
        for &(a, b, start, end, kind) in windows {
            let on_pair = (a, b) == (from, to) || (a, b) == (to, from);
            if !on_pair || now < start || now >= end {
                continue;
            }
            match kind {
                FaultKind::Down => effect.down = true,
                FaultKind::Loss(p) => pass *= 1.0 - p,
                FaultKind::Delay(extra) => effect.extra_delay += extra,
            }
        }
        effect.loss = 1.0 - pass;
        effect
    }

    /// `effect` and `scan` agree bit for bit, loss included.
    fn assert_matches_scan(
        plan: &FaultPlan,
        windows: &[Scheduled],
        from: NodeId,
        to: NodeId,
        now: SimTime,
    ) {
        let (got, want) = (plan.effect(from, to, now), scan(windows, from, to, now));
        assert_eq!(
            (got.down, got.loss.to_bits(), got.extra_delay),
            (want.down, want.loss.to_bits(), want.extra_delay),
            "{from}->{to} at {now:?}"
        );
    }

    #[test]
    fn loss_bursts_multiply_in_the_order_added() {
        let (a, b, c) = ids();
        let (start, end) = (SimTime::ZERO, SimTime::from_secs(10));
        // 1 − (1 − 0.1)(1 − 0.2)(1 − 0.4) rounds differently with the
        // factors multiplied in reverse, so only the order added matches.
        let ps = [0.1, 0.2, 0.4];
        let loss =
            |ps: &mut dyn Iterator<Item = &f64>| 1.0 - ps.fold(1.0, |pass, p| pass * (1.0 - p));
        let (forward, backward) = (loss(&mut ps.iter()), loss(&mut ps.iter().rev()));
        assert_ne!(forward.to_bits(), backward.to_bits());
        let mut plan = FaultPlan::new();
        let mut windows = Vec::new();
        for (i, p) in ps.into_iter().enumerate() {
            // Alternate the direction, and file another pair's window in
            // between: neither may change the pair's order.
            let (x, y) = if i % 2 == 0 { (a, b) } else { (b, a) };
            plan = plan
                .loss_burst(x, y, start, end, p)
                .link_down(a, c, start, end);
            windows.push((x, y, start, end, FaultKind::Loss(p)));
            windows.push((a, c, start, end, FaultKind::Down));
        }
        let now = SimTime::from_secs(1);
        assert_eq!(plan.effect(a, b, now).loss.to_bits(), forward.to_bits());
        assert_matches_scan(&plan, &windows, b, a, now);
        assert_matches_scan(&plan, &windows, c, a, now);
    }

    #[test]
    fn per_pair_effect_matches_a_scan_of_every_window() {
        check("per_pair_effect_matches_a_scan_of_every_window", 256, |g| {
            let node = |g: &mut Gen| NodeId::from_raw(g.range(0u32..5));
            let windows = g.vec(0..40, |g| {
                let (a, b) = (node(g), node(g));
                let start = SimTime::from_secs(g.range(0u64..20));
                let end = start + SimDuration::from_secs(g.range(0u64..15));
                let kind = match g.range(0u32..4) {
                    0 => FaultKind::Down,
                    1 => FaultKind::Delay(SimDuration::from_micros(g.range(1u64..90_000))),
                    _ => FaultKind::Loss(f64::from(g.range(0u32..1_000)) / 1_001.0),
                };
                (a, b, start, end, kind)
            });
            let plan = windows
                .iter()
                .fold(FaultPlan::new(), |plan, &(a, b, start, end, kind)| {
                    plan.window(a, b, start, end, kind)
                });
            assert_eq!(plan.len(), windows.len());
            for _ in 0..32 {
                let now = SimTime::from_secs(g.range(0u64..36));
                assert_matches_scan(&plan, &windows, node(g), node(g), now);
            }
        });
    }

    #[test]
    #[should_panic(expected = "burst loss probability")]
    fn loss_burst_rejects_one() {
        let (a, b, _) = ids();
        let _ = FaultPlan::new().loss_burst(a, b, SimTime::ZERO, SimTime::from_secs(1), 1.0);
    }

    #[test]
    #[should_panic(expected = "must not end before")]
    fn inverted_window_rejected() {
        let (a, b, _) = ids();
        let _ = FaultPlan::new().link_down(a, b, SimTime::from_secs(2), SimTime::from_secs(1));
    }
}
