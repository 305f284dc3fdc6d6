//! Property tests of the discrete-event substrate: causality, determinism
//! and clock discipline must hold for arbitrary workloads.

use ape_check::{check, Gen};
use ape_simnet::{
    Context, LinkSpec, Message, Node, NodeId, SimDuration, SimTime, TimerToken, World,
};

#[derive(Debug, Clone, PartialEq)]
struct Tagged {
    hops_left: u8,
    payload: u64,
}

impl Message for Tagged {
    fn wire_size(&self) -> usize {
        32 + (self.payload % 512) as usize
    }
}

/// Records every receipt time and bounces messages until exhausted.
#[derive(Debug, Default)]
struct Recorder {
    receipts: Vec<(SimTime, u64)>,
    timer_fires: Vec<SimTime>,
}

impl Node<Tagged> for Recorder {
    fn on_message(&mut self, ctx: &mut Context<'_, Tagged>, from: NodeId, msg: Tagged) {
        self.receipts.push((ctx.now(), msg.payload));
        if msg.hops_left > 0 {
            ctx.send(
                from,
                Tagged {
                    hops_left: msg.hops_left - 1,
                    payload: msg.payload.wrapping_mul(31),
                },
            );
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Tagged>, _token: TimerToken) {
        self.timer_fires.push(ctx.now());
    }
}

#[derive(Debug, Clone)]
struct Workload {
    seed: u64,
    messages: Vec<(u8, u64)>,
    timers: Vec<u64>,
    link_us: u64,
    jitter_us: u64,
}

fn workload(g: &mut Gen) -> Workload {
    Workload {
        seed: g.u64(),
        messages: g.vec(1..25, |g| (g.range(0u8..6), g.u64())),
        timers: g.vec(0..10, |g| g.range(1u64..5_000_000)),
        link_us: g.range(100u64..5_000),
        jitter_us: g.range(0u64..1_000),
    }
}

fn run(w: &Workload) -> (Vec<(SimTime, u64)>, Vec<SimTime>, SimTime, u64) {
    let mut world = World::new(w.seed);
    let a = world.add_node("a", Recorder::default());
    let b = world.add_node("b", Recorder::default());
    world.connect(
        a,
        b,
        LinkSpec::new(1, SimDuration::from_micros(w.link_us))
            .jitter_mean(SimDuration::from_micros(w.jitter_us)),
    );
    for (hops, payload) in &w.messages {
        world.post(
            a,
            b,
            Tagged {
                hops_left: *hops,
                payload: *payload,
            },
        );
    }
    for (i, &delay) in w.timers.iter().enumerate() {
        world.schedule_timer(
            a,
            SimDuration::from_micros(delay),
            TimerToken::new(i as u64),
        );
    }
    let report = world.run_to_idle();
    let mut receipts = world.node::<Recorder>(a).receipts.clone();
    receipts.extend(world.node::<Recorder>(b).receipts.iter().copied());
    receipts.sort();
    let timer_fires = world.node::<Recorder>(a).timer_fires.clone();
    (receipts, timer_fires, world.now(), report.events)
}

#[test]
fn identical_workloads_replay_identically() {
    check("identical_workloads_replay_identically", 256, |g| {
        let w = workload(g);
        let (r1, t1, now1, e1) = run(&w);
        let (r2, t2, now2, e2) = run(&w);
        assert_eq!(r1, r2);
        assert_eq!(t1, t2);
        assert_eq!(now1, now2);
        assert_eq!(e1, e2);
    });
}

#[test]
fn clock_never_runs_backwards() {
    check("clock_never_runs_backwards", 256, |g| {
        let (receipts, _, end, _) = run(&workload(g));
        for pair in receipts.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
        }
        if let Some(last) = receipts.last() {
            assert!(last.0 <= end);
        }
    });
}

#[test]
fn every_bounce_is_delivered() {
    check("every_bounce_is_delivered", 256, |g| {
        let w = workload(g);
        let (receipts, timers, _, events) = run(&w);
        // Each posted message with h hops produces h+1 receipts total.
        let expected: usize = w.messages.iter().map(|(h, _)| *h as usize + 1).sum();
        assert_eq!(receipts.len(), expected);
        assert_eq!(timers.len(), w.timers.len());
        // Event count = deliveries + timer fires.
        assert_eq!(events as usize, expected + w.timers.len());
    });
}

#[test]
fn timers_fire_at_or_after_their_deadline() {
    check("timers_fire_at_or_after_their_deadline", 256, |g| {
        let w = workload(g);
        let (_, mut fires, _, _) = run(&w);
        let mut sorted_delays = w.timers.clone();
        sorted_delays.sort();
        fires.sort();
        for (fire, delay) in fires.iter().zip(sorted_delays.iter()) {
            assert!(
                fire.as_nanos() >= delay * 1_000,
                "fired {fire} before {delay}us"
            );
        }
    });
}

#[test]
fn deadline_runs_split_cleanly() {
    check("deadline_runs_split_cleanly", 256, |g| {
        let w = workload(g);
        let split_us = g.range(1u64..1_000_000);
        // Running to a deadline and resuming must equal one uninterrupted run.
        let uninterrupted = run(&w);

        let mut world = World::new(w.seed);
        let a = world.add_node("a", Recorder::default());
        let b = world.add_node("b", Recorder::default());
        world.connect(
            a,
            b,
            LinkSpec::new(1, SimDuration::from_micros(w.link_us))
                .jitter_mean(SimDuration::from_micros(w.jitter_us)),
        );
        for (hops, payload) in &w.messages {
            world.post(
                a,
                b,
                Tagged {
                    hops_left: *hops,
                    payload: *payload,
                },
            );
        }
        for (i, &delay) in w.timers.iter().enumerate() {
            world.schedule_timer(
                a,
                SimDuration::from_micros(delay),
                TimerToken::new(i as u64),
            );
        }
        world.run_until(SimTime::from_nanos(split_us * 1_000));
        world.run_to_idle();
        let mut receipts = world.node::<Recorder>(a).receipts.clone();
        receipts.extend(world.node::<Recorder>(b).receipts.iter().copied());
        receipts.sort();
        assert_eq!(receipts, uninterrupted.0);
    });
}
