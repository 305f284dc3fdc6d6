//! The paper's evaluation testbed (Fig. 9): its configuration and the
//! one-AP view of the built world.
//!
//! Topology: two "phones" and one "client simulator" behind a WiFi AP; an
//! edge cache server 7 hops away; the local DNS a few hops upstream with
//! the authoritative/CDN DNS chain behind it; an origin further out; and —
//! for the Wi-Cache baseline — an EC2-hosted controller 12 hops away. It
//! is the `aps = 1` case of the one builder in [`crate::topology`], which
//! holds the link calibration.

use ape_appdag::AppSpec;
use ape_nodes::ApConfig;
use ape_proto::Msg;
use ape_simnet::{NodeId, TraceConfig, World};
use ape_workload::ScheduleConfig;

use crate::system::System;
use crate::topology::{ap_schedule, assemble};

/// Everything needed to instantiate one evaluation run.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// Which caching system to deploy.
    pub system: System,
    /// The app suite (paper: 2 real + 28 synthetic apps).
    pub apps: Vec<AppSpec>,
    /// Execution schedule parameters.
    pub schedule: ScheduleConfig,
    /// AP parameters (the builder overrides `policy` to match `system`
    /// and sets `phase_stagger`).
    pub ap: ApConfig,
    /// Number of client devices sharing an AP's schedule (paper: 2 phones
    /// + 1 emulator host); in a grid, the population of every AP.
    pub clients: usize,
    /// Extension (paper §VI): clients send request-dependency information
    /// so the AP prefetches upcoming objects.
    pub prefetch_hints: bool,
    /// Request-tracing knobs (disabled by default; enabling records causal
    /// spans for every sampled client fetch).
    pub trace: TraceConfig,
    /// Enables the sim-loop self-profiler (see
    /// [`World::enable_profiler`](ape_simnet::World::enable_profiler)).
    /// Off by default; on or off, simulation outputs are unchanged — the
    /// profiler only attributes host wall-clock.
    pub profiler: bool,
    /// Steady-state packet-loss probability of the WiFi radio, applied to
    /// every client link (AP, edge, LDNS, and controller paths all cross
    /// the radio as their first hop). `0.0` — the default — keeps the
    /// links lossless and the run's RNG draws, and therefore its outputs,
    /// bitwise identical to before this knob existed.
    pub wifi_loss: f64,
    /// Root seed for all randomness in the run.
    pub seed: u64,
    /// Schedule-perturbation key for the race detector: when set, the
    /// world's same-timestamp tie-breaks follow a seeded permutation
    /// instead of FIFO order (see
    /// [`World::set_tie_perturbation`](ape_simnet::World::set_tie_perturbation)).
    /// `None` — the default — is the production FIFO order.
    pub tie_perturbation: Option<u64>,
}

impl TestbedConfig {
    /// App executions the built testbed's clients will run, counted by
    /// drawing the AP's schedule; the build itself draws none.
    pub fn scheduled_executions(&self) -> usize {
        ap_schedule(self, 0).count()
    }

    /// Paper-default testbed for `system` over `apps`.
    pub fn new(system: System, apps: Vec<AppSpec>) -> Self {
        TestbedConfig {
            system,
            apps,
            schedule: ScheduleConfig::default(),
            ap: ApConfig::default(),
            clients: 3,
            prefetch_hints: false,
            trace: TraceConfig::default(),
            profiler: false,
            wifi_loss: 0.0,
            seed: 42,
            tie_perturbation: None,
        }
    }
}

/// A built testbed: the world plus the node ids a harness needs.
pub struct Testbed {
    /// The simulated deployment.
    pub world: World<Msg>,
    /// Client device nodes.
    pub clients: Vec<NodeId>,
    /// The WiFi AP.
    pub ap: NodeId,
    /// The edge cache server.
    pub edge: NodeId,
    /// The origin server. It is idle, since the edge holds every object
    /// and no request goes past it. The node, its IP and its links stay so
    /// that every later `NodeId`, and with them every per-link random
    /// stream, keeps its place.
    pub origin: NodeId,
    /// The local DNS resolver.
    pub ldns: NodeId,
    /// The Wi-Cache controller, when deployed.
    pub controller: Option<NodeId>,
}

impl std::fmt::Debug for Testbed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Testbed")
            .field("clients", &self.clients.len())
            .finish()
    }
}

/// Builds the Fig. 9 world for `config`: one AP, `config.clients` clients,
/// no roaming, no neighbors.
///
/// # Panics
///
/// Panics if the config has no apps or zero clients.
pub fn build(config: &TestbedConfig) -> Testbed {
    let top = assemble(config, 1, 0.0, false);
    Testbed {
        world: top.world,
        clients: top.clients,
        ap: top.aps[0],
        edge: top.edge,
        origin: top.origin,
        ldns: top.ldns,
        controller: top.controller,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{build_topology, TopologyConfig};
    use ape_appdag::{generate_fleet, DummyAppConfig};
    use ape_proto::names;
    use ape_simnet::{SimDuration, SimRng};

    fn apps(n: usize) -> Vec<AppSpec> {
        let mut rng = SimRng::seed_from(1);
        generate_fleet(n, &DummyAppConfig::default(), &mut rng)
    }

    fn small_config(system: System) -> TestbedConfig {
        let mut config = TestbedConfig::new(system, apps(3));
        config.schedule = ScheduleConfig {
            apps: 3,
            avg_per_minute: 6.0,
            zipf_exponent: 0.8,
            duration: SimDuration::from_mins(3),
        };
        config
    }

    #[test]
    fn builds_all_four_systems() {
        for system in System::ALL {
            let config = small_config(system);
            let mut bed = build(&config);
            assert_eq!(bed.clients.len(), 3);
            assert_eq!(bed.controller.is_some(), system == System::WiCache);
            assert!(config.scheduled_executions() > 0);

            // The testbed is the one-AP grid: same nodes, same run.
            let mut top = build_topology(&TopologyConfig::new(config, 1));
            assert_eq!(top.aps, [bed.ap]);
            assert_eq!(top.clients, bed.clients);
            assert_eq!(top.world.node_count(), bed.world.node_count());
            bed.world.run_for(SimDuration::from_mins(3));
            top.world.run_for(SimDuration::from_mins(3));
            assert_eq!(top.world.fingerprint(), bed.world.fingerprint());

            if system == System::WiCache {
                // A client fetches straight from the AP only when the
                // address the controller registered for the holder maps,
                // in the client's address book, to the client's own AP.
                let metrics = bed.world.metrics();
                assert_eq!(metrics.counter(names::WICACHE_ADVERT_DROPPED), 0);
                let direct = metrics.histogram(names::CLIENT_RETRIEVAL_HIT_MS);
                assert!(direct.is_some_and(|h| h.count() > 0));
            }
        }
    }

    #[test]
    fn schedule_is_identical_across_systems() {
        let a = small_config(System::ApeCache);
        let b = small_config(System::EdgeCache);
        let schedule: Vec<_> = ap_schedule(&a, 0).collect();
        assert_eq!(schedule, ap_schedule(&b, 0).collect::<Vec<_>>());
        assert_eq!(a.scheduled_executions(), schedule.len());
        assert_eq!(b.scheduled_executions(), schedule.len());
    }

    #[test]
    #[should_panic(expected = "at least one app")]
    fn empty_app_suite_rejected() {
        let _ = build(&TestbedConfig::new(System::ApeCache, Vec::new()));
    }
}
