//! Client roam schedules for multi-AP topologies.
//!
//! A roaming client re-homes to a neighbor AP mid-run (a phone walking
//! across a campus). Roam instants are Poisson arrivals at a configured
//! per-client rate; each roam picks a uniformly random neighbor of the
//! client's *current* cell, so a schedule is a deterministic walk over the
//! AP grid, fully materialized at build time — the simulation itself draws
//! no roam randomness, so a roam never shifts the world's RNG stream.

use ape_simnet::{SimDuration, SimRng, SimTime};

/// One precomputed roam: at `at`, move to AP index `ap`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoamEvent {
    /// When the roam fires.
    pub at: SimTime,
    /// Destination AP, as an index into the topology's AP list.
    pub ap: usize,
}

/// Parameters for a roam schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoamConfig {
    /// Average roams per client per minute (0 disables roaming).
    pub per_client_per_minute: f64,
    /// Schedule horizon.
    pub duration: SimDuration,
}

impl RoamConfig {
    /// A disabled (no-roam) config over `duration`.
    pub fn none(duration: SimDuration) -> Self {
        RoamConfig {
            per_client_per_minute: 0.0,
            duration,
        }
    }
}

/// Generates a time-sorted roam walk for one client homed at AP `home`.
///
/// `neighbors[i]` lists the AP indices adjacent to AP `i` (the topology's
/// grid adjacency). Cells with no neighbors produce an empty schedule, as
/// does a zero rate. Consecutive stops always differ (a roam moves).
///
/// # Panics
///
/// Panics if `home` is out of range of `neighbors` or the rate is negative.
pub fn generate_roam_schedule(
    neighbors: &[Vec<usize>],
    home: usize,
    config: &RoamConfig,
    rng: &mut SimRng,
) -> Vec<RoamEvent> {
    assert!(home < neighbors.len(), "home AP out of range");
    assert!(
        config.per_client_per_minute >= 0.0,
        "roam rate must be non-negative"
    );
    if config.per_client_per_minute == 0.0 {
        return Vec::new();
    }
    let mean_gap = 60.0 / config.per_client_per_minute;
    let mut schedule = Vec::new();
    let mut at = SimTime::ZERO;
    let mut cell = home;
    loop {
        at += SimDuration::from_secs_f64(rng.exponential(mean_gap));
        if at > SimTime::ZERO + config.duration {
            break;
        }
        let options = &neighbors[cell];
        if options.is_empty() {
            break;
        }
        let pick = rng.uniform_u64(0, options.len() as u64 - 1) as usize;
        cell = options[pick];
        schedule.push(RoamEvent { at, ap: cell });
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2×2 grid, 4-adjacency.
    fn grid4() -> Vec<Vec<usize>> {
        vec![vec![1, 2], vec![0, 3], vec![0, 3], vec![1, 2]]
    }

    fn config(rate: f64) -> RoamConfig {
        RoamConfig {
            per_client_per_minute: rate,
            duration: SimDuration::from_mins(30),
        }
    }

    #[test]
    fn zero_rate_or_isolated_cell_yields_no_roams() {
        let mut rng = SimRng::seed_from(1);
        assert!(generate_roam_schedule(&grid4(), 0, &config(0.0), &mut rng).is_empty());
        let isolated = vec![Vec::new()];
        assert!(generate_roam_schedule(&isolated, 0, &config(2.0), &mut rng).is_empty());
    }

    #[test]
    fn schedule_is_sorted_adjacent_and_moving() {
        let grid = grid4();
        let mut rng = SimRng::seed_from(42);
        let s = generate_roam_schedule(&grid, 0, &config(1.0), &mut rng);
        assert!(!s.is_empty());
        let horizon = SimTime::ZERO + SimDuration::from_mins(30);
        let mut cell = 0usize;
        for (i, stop) in s.iter().enumerate() {
            assert!(stop.at <= horizon);
            if i > 0 {
                assert!(s[i - 1].at <= stop.at);
            }
            assert!(grid[cell].contains(&stop.ap), "roam to a non-neighbor");
            assert_ne!(stop.ap, cell, "roam must move");
            cell = stop.ap;
        }
    }

    #[test]
    fn same_seed_reproduces_the_walk() {
        let grid = grid4();
        let a = generate_roam_schedule(&grid, 1, &config(3.0), &mut SimRng::seed_from(9));
        let b = generate_roam_schedule(&grid, 1, &config(3.0), &mut SimRng::seed_from(9));
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn rate_scales_roam_count() {
        let grid = grid4();
        let low = generate_roam_schedule(&grid, 0, &config(0.5), &mut SimRng::seed_from(7));
        let high = generate_roam_schedule(&grid, 0, &config(6.0), &mut SimRng::seed_from(7));
        assert!(
            high.len() > low.len() * 2,
            "{} vs {}",
            high.len(),
            low.len()
        );
    }
}
