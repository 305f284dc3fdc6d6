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
//! [`World::check_determinism`](crate::World::check_determinism) flushes
//! those races out: it re-runs a scenario several times, each time replacing
//! the FIFO tie-break with a seeded bijective scramble
//! ([`mix64`](crate::rng) of the sequence number), so same-timestamp events
//! pop in a different — but deterministic — permutation per key. Events at
//! distinct timestamps are never reordered. After each run a
//! [`Fingerprint`] (metrics digest, trace digest, final clock, events
//! processed) is taken; any divergence from the unperturbed baseline means
//! the scenario's results depend on tie-break order.
//!
//! A divergence is not always a bug in the scenario: callbacks that draw
//! from the shared [`SimRng`](crate::SimRng) consume the stream in
//! processing order, so reordering ties also reorders their draws. A
//! tie-heavy scenario whose ties draw randomness can legitimately diverge.
//! The APE-CACHE testbed keeps continuous per-link jitter on every link
//! precisely so that message arrivals almost never tie; the detector checks
//! that the residual ties (e.g. same-node timer collisions) are benign.
//!
//! One structural guard shrinks that residual class further: each
//! directed link serializes its arrivals (`link::Link::reserve`), so a
//! nanosecond-exact collision between two messages on the same
//! `src → dst` pair — the dominant tie source at city scale, since one
//! callback's batched sends share a send instant and a jitter
//! distribution — is bumped to the next free nanosecond, as a serial wire
//! would force anyway. What remains is two events on *different* links
//! (or an arrival and a timer) landing on the same nanosecond and either
//! both drawing from the shared stream or racing through order-sensitive
//! node state. Node implementations keep such state canonical (e.g. the
//! AP's gossiped-holder map tie-breaks same-instant summaries on node id,
//! not arrival order) and stagger their periodic timers on co-prime
//! nanosecond phases so timers do not tie at all; the shared-stream
//! coupling is bounded only by how rare exact collisions are, which holds
//! for the testbed and small grids and stops holding around 64 APs
//! (`DESIGN.md` §16).

use std::fmt;

use crate::rng::mix64;

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
    /// Digest of the metric registry (see [`Metrics::digest`]
    /// (crate::Metrics::digest)).
    pub metrics: u64,
    /// Digest of the trace event log (see [`TraceSink::digest`]
    /// (crate::TraceSink::digest)); 0 when tracing is disabled.
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

/// One perturbed re-run inside a [`DeterminismReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerturbedRun {
    /// The tie-break scramble key the run used.
    pub key: u64,
    /// The fingerprint the run produced.
    pub fingerprint: Fingerprint,
}

/// Result of [`World::check_determinism`](crate::World::check_determinism):
/// the unperturbed baseline plus one fingerprint per perturbation key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeterminismReport {
    /// Fingerprint of the run with FIFO tie-breaking (the production order).
    pub baseline: Fingerprint,
    /// Fingerprints of the perturbed re-runs, in key order.
    pub runs: Vec<PerturbedRun>,
}

impl DeterminismReport {
    /// Whether every perturbed run reproduced the baseline fingerprint.
    pub fn is_deterministic(&self) -> bool {
        self.runs.iter().all(|r| r.fingerprint == self.baseline)
    }

    /// The perturbation keys whose runs diverged from the baseline.
    pub fn divergent_keys(&self) -> Vec<u64> {
        self.runs
            .iter()
            .filter(|r| r.fingerprint != self.baseline)
            .map(|r| r.key)
            .collect()
    }
}

impl fmt::Display for DeterminismReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let divergent = self.divergent_keys();
        if divergent.is_empty() {
            write!(
                f,
                "deterministic across {} tie-break permutations ({})",
                self.runs.len(),
                self.baseline
            )
        } else {
            writeln!(
                f,
                "ORDERING RACE: {}/{} perturbed runs diverged from baseline {}",
                divergent.len(),
                self.runs.len(),
                self.baseline
            )?;
            for run in &self.runs {
                if run.fingerprint != self.baseline {
                    writeln!(f, "  key {:#018x}: {}", run.key, run.fingerprint)?;
                }
            }
            Ok(())
        }
    }
}

/// Derives the `n`-th perturbation key for a detector seeded with `seed`.
/// Key 0 is reserved for "no perturbation" (the baseline) and never
/// produced: the mix output is forced odd.
pub(crate) fn perturbation_key(seed: u64, n: u32) -> u64 {
    mix64(seed ^ (u64::from(n) << 32).wrapping_add(0x9E37_79B9)) | 1
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

    #[test]
    fn perturbation_keys_are_distinct_and_nonzero() {
        let keys: Vec<u64> = (0..16).map(|n| perturbation_key(42, n)).collect();
        for (i, k) in keys.iter().enumerate() {
            assert_ne!(*k, 0);
            for other in &keys[i + 1..] {
                assert_ne!(k, other);
            }
        }
        // And stable per (seed, n).
        assert_eq!(perturbation_key(42, 3), perturbation_key(42, 3));
        assert_ne!(perturbation_key(42, 3), perturbation_key(43, 3));
    }

    #[test]
    fn report_accounting() {
        let fp = |m| Fingerprint {
            clock_ns: 1,
            events: 2,
            metrics: m,
            trace: 4,
        };
        let good = DeterminismReport {
            baseline: fp(3),
            runs: vec![
                PerturbedRun {
                    key: 1,
                    fingerprint: fp(3),
                },
                PerturbedRun {
                    key: 5,
                    fingerprint: fp(3),
                },
            ],
        };
        assert!(good.is_deterministic());
        assert!(good.divergent_keys().is_empty());
        assert!(format!("{good}").contains("deterministic across 2"));

        let bad = DeterminismReport {
            baseline: fp(3),
            runs: vec![
                PerturbedRun {
                    key: 1,
                    fingerprint: fp(3),
                },
                PerturbedRun {
                    key: 5,
                    fingerprint: fp(9),
                },
            ],
        };
        assert!(!bad.is_deterministic());
        assert_eq!(bad.divergent_keys(), vec![5]);
        assert!(format!("{bad}").contains("ORDERING RACE"));
    }
}
