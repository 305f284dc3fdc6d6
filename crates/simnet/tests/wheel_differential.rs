//! Differential property suite for the timing-wheel scheduler.
//!
//! Randomized schedules — near/far timestamp mixes, tie bursts, pops
//! interleaved with pushes, and tie-break keys scrambled the way
//! `World::set_tie_perturbation` scrambles them — are replayed through
//! [`TimerWheel`] and the frozen pre-wheel heap
//! ([`ReferenceEventQueue`]). The two engines must agree on every single
//! `(at, seq, item)` triple they pop, for every interleaving.

use ape_check::{check, Gen};
use ape_simnet::reference::ReferenceEventQueue;
use ape_simnet::{SimTime, TimerWheel};

/// The schedule-perturbation keys the determinism harness sweeps (see
/// `tests/determinism_perturbation.rs` at the repo root).
const PERTURBATION_KEYS: [u64; 4] = [
    0x9E37_79B9_7F4A_7C15,
    0xD1B5_4A32_D192_ED03,
    0xA5A5_A5A5_A5A5_A5A5,
    0x0123_4567_89AB_CDEF,
];

/// SplitMix64 finalizer — the same bijection the event queue applies to
/// tie-break sequence numbers under perturbation, replicated here because
/// the real one is crate-private. Bijectivity keeps scrambled keys unique.
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One randomized schedule: event classes plus raw entropy, a pop cadence,
/// and an optional perturbation key index.
#[derive(Debug, Clone)]
struct Sched {
    /// `(class, raw)` per event: class 0 re-uses the previous timestamp
    /// (tie burst), class 1 lands seconds-to-hours out (overflow and
    /// coarse-level territory), anything else lands within ~20 ms.
    events: Vec<(u8, u64)>,
    /// Pop (and cross-check) one event from both queues after every
    /// `pops_every` pushes; 0 disables interleaving.
    pops_every: u8,
    /// `Some(i)` scrambles sequence numbers with `PERTURBATION_KEYS[i]`.
    key: Option<u8>,
}

fn sched(g: &mut Gen) -> Sched {
    Sched {
        events: g.vec(1..250, |g| (g.range(0u8..8), g.u64())),
        pops_every: g.range(0u8..5),
        key: g.option(|g| g.range(0u8..4)),
    }
}

/// Maps a `(class, raw)` pair onto a timestamp, given the previous one.
fn timestamp(class: u8, raw: u64, prev: SimTime) -> SimTime {
    match class {
        0 => prev,
        1 => SimTime::from_nanos(1_000_000_000 + raw % 7_200_000_000_000),
        _ => SimTime::from_nanos(raw % 20_000_000),
    }
}

/// Replays `sched` through both queues, asserting identical behavior at
/// every pop and peek.
fn replay(sched: &Sched) {
    let mut wheel = TimerWheel::new();
    let mut heap = ReferenceEventQueue::new();
    let mut prev = SimTime::ZERO;
    for (i, &(class, raw)) in sched.events.iter().enumerate() {
        let at = timestamp(class, raw, prev);
        prev = at;
        let seq = match sched.key {
            Some(k) => mix64(i as u64 ^ PERTURBATION_KEYS[k as usize]),
            None => i as u64,
        };
        wheel.push(at, seq, i as u32);
        heap.push(at, seq, i as u32);
        if sched.pops_every > 0 && i % sched.pops_every as usize == 0 {
            assert_eq!(wheel.peek_time(), heap.peek_time());
            assert_eq!(wheel.pop(), heap.pop());
        }
    }
    loop {
        assert_eq!(wheel.peek_time(), heap.peek_time());
        assert_eq!(wheel.len(), heap.len());
        let (w, h) = (wheel.pop(), heap.pop());
        assert_eq!(w, h);
        if w.is_none() {
            break;
        }
    }
}

#[test]
fn wheel_matches_heap_on_arbitrary_schedules() {
    check("wheel_matches_heap_on_arbitrary_schedules", 256, |g| {
        replay(&sched(g));
    });
}

/// Regression pin for the frontier-straddle bug: an event buried in a
/// coarse (level-1) bucket whose time range the frontier enters via a
/// level-0 carry must pop before later events pushed into that same range.
/// The first wheel implementation drained the later level-0 bucket first,
/// jumping the frontier past the buried event.
#[test]
fn coarse_bucket_straddling_the_frontier_cascades_first() {
    let mut wheel = TimerWheel::new();
    let mut heap = ReferenceEventQueue::new();
    let push = |w: &mut TimerWheel<u32>, h: &mut ReferenceEventQueue<u32>, at, seq| {
        w.push(SimTime::from_nanos(at), seq, seq as u32);
        h.push(SimTime::from_nanos(at), seq, seq as u32);
    };
    push(&mut wheel, &mut heap, 100, 0); // level 0
    push(&mut wheel, &mut heap, 4_732_811, 1); // level 1, slot 1
    assert_eq!(wheel.pop(), heap.pop()); // pops seq 0
    push(&mut wheel, &mut heap, 4_150_000, 2); // level 0, last slot
    assert_eq!(wheel.pop(), heap.pop()); // pops seq 2; frontier carries
    push(&mut wheel, &mut heap, 6_000_000, 3); // level 0 in the new range

    // The buried 4.73 ms event must come out before the 6 ms one.
    let popped = wheel.pop();
    assert_eq!(popped, heap.pop());
    assert_eq!(popped.map(|(_, seq, _)| seq), Some(1));
    assert_eq!(wheel.pop(), heap.pop());
    assert_eq!(wheel.pop(), None);
}

/// A stress shape `sched` lacks: tens of thousands of timers armed up
/// front across hours, each one setting off a short chain of sparse
/// near-term traffic 0.3–50 ms ahead (sends), and a 3–4 s watchdog armed
/// beside every send and popped long after the exchange it guarded. The
/// wheel then holds a deep far-future population on its coarse levels
/// while almost every pop refills from a bucket of one or two events.
fn check_workload_shape(key: Option<u64>, scheduled: u64) {
    const SCHEDULE: u32 = 0;
    const TRAFFIC: u32 = 1;
    const WATCHDOG: u32 = 2;
    let mut wheel = TimerWheel::new();
    let mut heap = ReferenceEventQueue::new();
    let mut pushed = 0u64;
    let mut push = |w: &mut TimerWheel<u32>, h: &mut ReferenceEventQueue<u32>, at: u64, class| {
        let seq = key.map_or(pushed, |k| mix64(pushed ^ k));
        pushed += 1;
        w.push(SimTime::from_nanos(at), seq, class);
        h.push(SimTime::from_nanos(at), seq, class);
    };
    let mut entropy = key.unwrap_or(7) ^ scheduled;
    let mut draw = |below: u64| {
        entropy = mix64(entropy);
        entropy % below
    };
    const HOURS_8: u64 = 8 * 3_600 * 1_000_000_000;
    for _ in 0..scheduled {
        push(&mut wheel, &mut heap, draw(HOURS_8), SCHEDULE);
    }
    let mut pops = 0u64;
    loop {
        assert_eq!(wheel.peek_time(), heap.peek_time());
        assert_eq!(wheel.len(), heap.len());
        let (w, h) = (wheel.pop(), heap.pop());
        assert_eq!(w, h, "pop {pops}, key {key:?}");
        let Some((at, _, class)) = w else { break };
        pops += 1;
        let now = at.as_nanos();
        // A schedule timer always starts an exchange; each message of it
        // is answered three times in four, so chains are ~4 sends long.
        if class == SCHEDULE || (class == TRAFFIC && draw(4) > 0) {
            push(
                &mut wheel,
                &mut heap,
                now + 300_000 + draw(49_700_000),
                TRAFFIC,
            );
            // Staggered like the client's watchdogs: never two on one
            // nanosecond from the same arming instant.
            let watchdog = now + 3_000_000_000 + draw(1_000_000_000);
            push(&mut wheel, &mut heap, watchdog, WATCHDOG);
            if draw(16) == 0 {
                // A zero-delay follow-up at the instant being dispatched.
                push(&mut wheel, &mut heap, now, TRAFFIC);
            }
        }
    }
    assert_eq!(pops, pushed);
    assert!(pops > 5 * scheduled, "chains too short: {pops} pops");
}

#[test]
fn wheel_matches_heap_on_the_workload_shape() {
    check_workload_shape(None, 50_000);
    for (i, &key) in PERTURBATION_KEYS.iter().enumerate() {
        check_workload_shape(Some(key), 20_000 + 7_500 * i as u64);
    }
}
