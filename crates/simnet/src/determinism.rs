//! Schedule-perturbation race detection.
//!
//! The simulator's determinism contract says a run's results depend only on
//! its configuration and seed. One way that contract silently breaks is an
//! *event-ordering race*: two events scheduled for the same virtual
//! timestamp whose processing order changes the outcome. FIFO tie-breaking
//! hides such races — the order is stable, so results are reproducible, but
//! they encode an accident of scheduling order rather than modelled
//! behaviour, and any refactor that changes scheduling order shifts the
//! numbers.
//!
//! [`World::set_tie_perturbation`](crate::World::set_tie_perturbation)
//! flushes those races out: it replaces the FIFO tie-break with a seeded
//! bijective scramble ([`mix64`](crate::rng) of the sequence number), so
//! same-timestamp events pop in a different — but deterministic —
//! permutation per key. Events at distinct timestamps are never reordered.
//! A run's [`Fingerprint`] (metrics digest, trace digest, final clock,
//! events processed) that differs from the same run's under FIFO means its
//! results depend on tie-break order. The gates reach the knob through
//! `TestbedConfig::tie_perturbation` (`tests/determinism_perturbation.rs`,
//! both chaos suites and `repro bench-scale`).
//!
//! Randomness does not couple unrelated ties: each node draws from its own
//! stream ([`Context::rng`](crate::Context::rng)), and each send draws its
//! loss and jitter from a stream named by its link and its number on that
//! link. So two events on different nodes that share a nanosecond draw the
//! same values whichever runs first. What tie order can still decide is
//! the order of two events on *one* node — which of its callbacks draws
//! first, which of its sends down one link takes which draw, any
//! order-sensitive node state — and the order of two writes to one shared
//! time series. Three guards keep those out of the simulator's workloads:
//!
//! * each directed link serializes its arrivals
//!   (`link::InFlight::reserve`), so two messages on one `src → dst` pair
//!   never land on the receiver in the same nanosecond;
//! * a client staggers its watchdogs per request, so two of its
//!   retransmissions never tie for its one link to the AP, and the
//!   builder gives each AP its own tick phase, so no two APs append a
//!   resource sample to the shared series in one nanosecond;
//! * nodes keep the state tied messages meet canonical (e.g. the AP's
//!   gossiped-holder map tie-breaks same-instant summaries on node id, not
//!   arrival order).
//!
//! A divergence the detector reports is therefore a race in a node, not
//! an artifact of where randomness comes from (`DESIGN.md` §16).

use std::fmt;

/// FNV-1a, 64-bit. Used for run fingerprints: tiny, allocation-free and
/// stable across platforms (no dependency on `std`'s `Hasher` seeding).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;

    pub fn new() -> Self {
        Fnv64(Self::OFFSET)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of one completed run: everything observable that the determinism
/// contract covers, compressed to four words.
///
/// Two runs of the same scenario are considered equivalent iff their
/// fingerprints are equal: same metric content (counters, histogram sample
/// multisets, time series), same trace event log, same final clock and same
/// number of events processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Final virtual clock, in nanoseconds.
    pub clock_ns: u64,
    /// Total events processed by the world across all `run_*` calls.
    pub events: u64,
    /// Digest of the metric registry (see
    /// [`Metrics::digest`](crate::Metrics::digest)).
    pub metrics: u64,
    /// Digest of the trace event log (see
    /// [`TraceSink::digest`](crate::TraceSink::digest)); 0 when tracing is
    /// disabled.
    pub trace: u64,
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "clock={}ns events={} metrics={:016x} trace={:016x}",
            self.clock_ns, self.events, self.metrics, self.trace
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        let mut h = Fnv64::new();
        h.write(b"");
        assert_eq!(h.finish(), 0xcbf29ce484222325);
        let mut h = Fnv64::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63dc4c8601ec8c);
        let mut h = Fnv64::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }
}
