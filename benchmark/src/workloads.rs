//! The four workloads: their inputs, how a trial's world is constructed
//! from a seed, and how much of it one run measures.

use ape_appdag::{AppSpec, DummyAppConfig};
use ape_nodes::{ApNode, ClientNode, LdnsNode};
use ape_proto::Msg;
use ape_simnet::{FaultPlan, NodeId, SimDuration, SimTime, World};
use ape_workload::ScheduleConfig;
use apecache::{
    build, build_topology, collect, collect_topology, paper_suite, synthetic_suite, RunResult,
    System, Testbed, TestbedConfig, Topology, TopologyConfig,
};

/// Seed of the app suite. The suite is the stated input size (which apps
/// exist, their DAGs and object sizes) and is the same on every run; the
/// run's `--seed` drives the arrival schedule, the roam walks and every
/// random draw inside the simulated world.
pub const SUITE_SEED: u64 = 42;

/// `--seconds` value the trial counts below are sized for.
pub const REFERENCE_SECONDS: u32 = 16;

/// Simulated time every trial runs past its schedule so retry chains,
/// reapers and roam stragglers finish before the drain check (the chaos
/// suites' grace period).
pub const DRAIN: SimDuration = SimDuration::from_secs(300);

/// Clients homed at each city AP.
pub const CITY_CLIENTS_PER_AP: usize = 2;

/// Mean roams per city client per minute.
pub const CITY_ROAMS_PER_MINUTE: f64 = 6.0;

/// Which deployment a workload builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// The paper's Fig. 9 single-AP testbed over the 30-app suite.
    Testbed,
    /// Testbed plus a lossy radio and a recurring fault plan.
    LossyTestbed,
    /// The cooperative 256-AP city with roaming clients.
    City,
}

/// One benchmark workload. Per-trial inputs are fixed; only `trials`
/// scales with `--seconds`.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Deployment built per trial.
    pub shape: Shape,
    /// Caching system deployed.
    pub system: System,
    /// Trials per run at [`REFERENCE_SECONDS`].
    pub trials: u32,
    /// Equal simulated slices the measured phase is cut into.
    pub slices: u32,
    /// Throwaway constructions timed for `setup_s` before each trial,
    /// beside the trial's own.
    pub setup_reps: u32,
}

/// The benchmark's workloads, in report order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "testbed-pacm",
        shape: Shape::Testbed,
        system: System::ApeCache,
        trials: 4,
        slices: 144,
        setup_reps: 50,
    },
    Workload {
        name: "testbed-lru",
        shape: Shape::Testbed,
        system: System::ApeCacheLru,
        trials: 6,
        slices: 96,
        setup_reps: 50,
    },
    Workload {
        name: "testbed-lossy",
        shape: Shape::LossyTestbed,
        system: System::ApeCache,
        trials: 4,
        slices: 144,
        setup_reps: 50,
    },
    Workload {
        name: "city-coop",
        shape: Shape::City,
        system: System::ApeCache,
        trials: 2,
        slices: 160,
        setup_reps: 40,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Simulated phase lengths and grid size of one trial.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Untimed lead-in: AP caches fill, gossip windows roll.
    pub warmup: SimDuration,
    /// The timed phase, cut into the workload's slices.
    pub measured: SimDuration,
    /// APs in the city grid (unused by the testbed shapes).
    pub aps: usize,
}

impl Workload {
    /// The reported inputs, or the `--quick` smoke-test inputs (never used
    /// for reported numbers).
    pub fn scale(&self, quick: bool) -> Scale {
        match (self.shape, quick) {
            (Shape::City, false) => Scale {
                warmup: SimDuration::from_mins(2),
                measured: SimDuration::from_mins(8),
                aps: 256,
            },
            (Shape::City, true) => Scale {
                warmup: SimDuration::from_mins(1),
                measured: SimDuration::from_mins(2),
                aps: 16,
            },
            (_, false) => Scale {
                warmup: SimDuration::from_mins(48),
                measured: SimDuration::from_mins(432),
                aps: 1,
            },
            (_, true) => Scale {
                warmup: SimDuration::from_mins(3),
                measured: SimDuration::from_mins(27),
                aps: 1,
            },
        }
    }

    /// Trials one run of `seconds` measures.
    pub fn trials_for(&self, seconds: u32, quick: bool) -> u32 {
        if quick {
            return 1;
        }
        let scaled = (self.trials * seconds + REFERENCE_SECONDS / 2) / REFERENCE_SECONDS;
        scaled.max(1)
    }

    /// Generates the workload's app suite.
    pub fn suite(&self) -> Vec<AppSpec> {
        let defaults = DummyAppConfig::default();
        match self.shape {
            Shape::Testbed | Shape::LossyTestbed => paper_suite(&defaults, SUITE_SEED),
            Shape::City => synthetic_suite(5, &defaults, SUITE_SEED),
        }
    }

    /// Generates the suite and fills in trial `seed`'s configuration.
    /// `profiler` is the traced run's only config change.
    pub fn base_config(&self, seed: u64, scale: Scale, profiler: bool) -> TestbedConfig {
        let apps = self.suite();
        let avg_per_minute = match self.shape {
            Shape::Testbed | Shape::LossyTestbed => 3.0,
            Shape::City => 10.0,
        };
        let schedule = ScheduleConfig {
            apps: apps.len(),
            avg_per_minute,
            zipf_exponent: 0.8,
            duration: scale.warmup + scale.measured,
        };
        let mut config = TestbedConfig::new(self.system, apps);
        config.schedule = schedule;
        config.seed = seed;
        config.profiler = profiler;
        match self.shape {
            Shape::Testbed => {}
            Shape::LossyTestbed => config.wifi_loss = 0.02,
            // Far below the suite's working set, so misses — and therefore
            // cooperation — stay relevant for the whole run.
            Shape::City => config.ap.cache_capacity = 400_000,
        }
        config
    }

    /// Generates the suite and builds trial `seed`'s world — everything
    /// `setup_s` times.
    pub fn construct(&self, seed: u64, scale: Scale, profiler: bool) -> Bed {
        let config = self.base_config(seed, scale, profiler);
        match self.shape {
            Shape::Testbed => Bed::Single(build(&config)),
            Shape::LossyTestbed => {
                let mut bed = build(&config);
                let plan = recurring_faults(&bed, config.schedule.duration);
                bed.world.set_fault_plan(plan);
                Bed::Single(bed)
            }
            Shape::City => {
                let config = TopologyConfig::new(config, scale.aps)
                    .with_clients_per_ap(CITY_CLIENTS_PER_AP)
                    .with_roam_rate(CITY_ROAMS_PER_MINUTE);
                Bed::City(build_topology(&config))
            }
        }
    }
}

/// The lossy workload's fault plan: twelve periods over the schedule; from
/// one and a half periods in, every period opens a client0↔AP partition
/// (15 s), an AP↔LDNS loss burst (30 %, 60 s) and an AP↔edge delay spike
/// (+40 ms, 40 s). On the reported 480-minute schedule that is every 40
/// minutes from minute 60.
fn recurring_faults(bed: &Testbed, schedule_span: SimDuration) -> FaultPlan {
    let period = schedule_span / 12;
    let mut plan = FaultPlan::new();
    let mut start = SimTime::ZERO + period + period / 2;
    let end = SimTime::ZERO + schedule_span;
    while start < end {
        let until = |secs| start + SimDuration::from_secs(secs);
        plan = plan
            .link_down(bed.clients[0], bed.ap, start, until(15))
            .loss_burst(bed.ap, bed.ldns, start, until(60), 0.30)
            .delay_spike(
                bed.ap,
                bed.edge,
                start,
                until(40),
                SimDuration::from_millis(40),
            );
        start += period;
    }
    plan
}

/// A built trial world of either shape.
#[derive(Debug)]
pub enum Bed {
    /// Single-AP testbed.
    Single(Testbed),
    /// Multi-AP city.
    City(Topology),
}

impl Bed {
    /// The simulated world.
    pub fn world(&mut self) -> &mut World<Msg> {
        match self {
            Bed::Single(bed) => &mut bed.world,
            Bed::City(top) => &mut top.world,
        }
    }

    /// Collects the run's measurements.
    pub fn collect(&mut self, system: System) -> RunResult {
        match self {
            Bed::Single(bed) => collect(system, bed),
            Bed::City(top) => collect_topology(system, top),
        }
    }

    fn nodes(&self) -> (&[NodeId], &[NodeId], NodeId) {
        match self {
            Bed::Single(bed) => (&bed.clients, std::slice::from_ref(&bed.ap), bed.ldns),
            Bed::City(top) => (&top.clients, &top.aps, top.ldns),
        }
    }

    /// Pending-state entries left on any client, any AP or the LDNS. Zero
    /// once a run has drained.
    pub fn undrained_entries(&mut self) -> u64 {
        let (clients, aps, ldns) = self.nodes();
        let (clients, aps) = (clients.to_vec(), aps.to_vec());
        let world = self.world();
        let mut left = 0usize;
        for client in clients {
            let counts = world.node::<ClientNode>(client).pending_counts();
            left += counts.iter().map(|(_, n)| n).sum::<usize>();
        }
        for ap in aps {
            let counts = world.node::<ApNode>(ap).pending_counts();
            left += counts.iter().map(|(_, n)| n).sum::<usize>();
        }
        left += world.node::<LdnsNode>(ldns).pending_count();
        left as u64
    }
}
