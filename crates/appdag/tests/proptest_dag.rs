//! Property tests for the app-DAG model: the critical path really is the
//! longest path, generation respects its configuration, priorities follow
//! the path.

use ape_appdag::{generate_app, AppDag, AppId, DummyAppConfig, ObjIdx, ObjectSpec};
use ape_cachealg::Priority;
use ape_check::{check, Gen};
use ape_httpsim::Url;
use ape_simnet::{SimDuration, SimRng};

/// A random DAG built by only adding edges from lower to higher indices
/// (guaranteed acyclic).
fn dag(g: &mut Gen) -> AppDag {
    let n = g.range(2usize..10);
    let mut rng = SimRng::seed_from(g.u64());
    let mut b = AppDag::builder();
    let mut idxs: Vec<ObjIdx> = Vec::new();
    for i in 0..n {
        let idx = b.object(ObjectSpec {
            name: format!("o{i}"),
            url: Url::parse(&format!("http://prop.example/o{i}")).expect("static"),
            size: rng.uniform_u64(1_000, 100_000),
            ttl: SimDuration::from_mins(rng.uniform_u64(10, 60)),
            remote_latency: SimDuration::from_millis(rng.uniform_u64(20, 50)),
            priority: Priority::LOW,
        });
        for &prev in &idxs {
            if rng.chance(0.3) {
                b.dep(prev, idx);
            }
        }
        idxs.push(idx);
    }
    b.build().expect("forward edges are acyclic")
}

/// Exhaustive longest start-to-finish path by DFS.
fn brute_force_longest(dag: &AppDag) -> SimDuration {
    fn walk(dag: &AppDag, from: ObjIdx, acc: SimDuration, best: &mut SimDuration) {
        let here = acc + dag.estimated_fetch(from);
        let succs: Vec<ObjIdx> = dag
            .iter()
            .filter(|(i, _)| dag.deps(*i).contains(&from))
            .map(|(i, _)| i)
            .collect();
        if succs.is_empty() {
            *best = (*best).max(here);
        }
        for s in succs {
            walk(dag, s, here, best);
        }
    }
    let mut best = SimDuration::ZERO;
    for root in dag.roots() {
        walk(dag, root, SimDuration::ZERO, &mut best);
    }
    best
}

#[test]
fn critical_path_equals_brute_force() {
    check("critical_path_equals_brute_force", 64, |g| {
        let dag = dag(g);
        let (_, total) = dag.critical_path();
        assert_eq!(total, brute_force_longest(&dag));
    });
}

#[test]
fn critical_path_is_a_real_chain() {
    check("critical_path_is_a_real_chain", 64, |g| {
        let dag = dag(g);
        let (path, _) = dag.critical_path();
        assert!(!path.is_empty());
        // Every consecutive pair is an actual dependency edge.
        for pair in path.windows(2) {
            assert!(
                dag.deps(pair[1]).contains(&pair[0]),
                "{:?} not a dep of {:?}",
                pair[0],
                pair[1]
            );
        }
        // The chain starts at a root.
        assert!(dag.deps(path[0]).is_empty());
    });
}

#[test]
fn derived_priorities_mark_exactly_the_path() {
    check("derived_priorities_mark_exactly_the_path", 64, |g| {
        let mut dag = dag(g);
        dag.derive_priorities();
        let (path, _) = dag.critical_path();
        for (idx, obj) in dag.iter() {
            assert_eq!(obj.priority.is_high(), path.contains(&idx));
        }
    });
}

#[test]
fn topo_order_respects_dependencies() {
    check("topo_order_respects_dependencies", 64, |g| {
        let dag = dag(g);
        let order = dag.topo_order();
        let position = |i: ObjIdx| order.iter().position(|&o| o == i).expect("in order");
        for (idx, _) in dag.iter() {
            for &dep in dag.deps(idx) {
                assert!(position(dep) < position(idx));
            }
        }
    });
}

#[test]
fn generator_is_valid_for_random_configs() {
    check("generator_is_valid_for_random_configs", 64, |g| {
        let seed = g.u64();
        let obj_lo = g.range(1usize..5);
        let size_lo = g.range(1_000u64..50_000);
        let config = DummyAppConfig {
            objects: (obj_lo, obj_lo + g.range(0usize..6)),
            size_bytes: (size_lo, size_lo + g.range(0u64..200_000)),
            ..DummyAppConfig::default()
        };
        let mut rng = SimRng::seed_from(seed);
        let app = generate_app(AppId::new(0), &config, &mut rng);
        let n = app.dag().len();
        assert!((config.objects.0..=config.objects.1).contains(&n));
        for (_, obj) in app.dag().iter() {
            assert!((config.size_bytes.0..=config.size_bytes.1).contains(&obj.size));
        }
        assert_eq!(app.dag().roots().len(), 1);
        assert_eq!(app.dag().topo_order().len(), n);
    });
}
