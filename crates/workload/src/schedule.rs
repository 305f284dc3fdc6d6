//! App execution schedules.
//!
//! Each app executes repeatedly during a run; the paper draws inter-
//! execution intervals from a Zipf-skewed popularity model with the
//! *average* frequency across apps fixed (3 executions/minute by default).
//! Arrivals within an app are Poisson. A schedule is a stream
//! ([`ScheduleStream`]): a run draws each execution as the one before it
//! fires.

use std::sync::Arc;

use ape_cachealg::AppId;
use ape_simnet::{SimDuration, SimRng, SimTime};

use crate::zipf::ZipfSampler;

/// One scheduled app execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Execution {
    /// When the execution starts.
    pub at: SimTime,
    /// Which app runs.
    pub app: AppId,
}

/// Parameters for a schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleConfig {
    /// Number of apps.
    pub apps: usize,
    /// Average executions per minute *per app*, averaged over all apps
    /// (paper default: 3).
    pub avg_per_minute: f64,
    /// Zipf exponent skewing popularity across apps.
    pub zipf_exponent: f64,
    /// Schedule horizon.
    pub duration: SimDuration,
}

impl Default for ScheduleConfig {
    fn default() -> Self {
        ScheduleConfig {
            apps: 30,
            avg_per_minute: 3.0,
            zipf_exponent: 0.8,
            duration: SimDuration::from_mins(60),
        }
    }
}

impl ScheduleConfig {
    /// The Zipf table that assigns this schedule's arrivals to apps, built
    /// once and shared by every [`ScheduleStream`] over the config.
    ///
    /// # Panics
    ///
    /// Panics if `apps` is zero or the exponent is negative.
    pub fn popularity(&self) -> Arc<ZipfSampler> {
        assert!(self.apps > 0, "schedule needs at least one app");
        Arc::new(ZipfSampler::new(self.apps, self.zipf_exponent))
    }
}

/// A time-sorted execution schedule, drawn one execution at a time.
///
/// The total arrival rate is `apps × avg_per_minute`; each arrival is
/// assigned to an app by Zipf popularity, so individual apps see dissimilar
/// usage frequencies while the fleet-wide average matches the config. The
/// arrivals are memoryless, so none of them exists before it is asked for.
///
/// A *share* yields every `stride`-th arrival starting at `phase`: one
/// client's round-robin part of a stream that several clients split. It
/// makes every draw of the whole stream, in the same order, so the shares
/// of `0..stride` merge back into the whole stream; for an arrival of
/// another share it makes the popularity draw but not its table lookup.
#[derive(Debug)]
pub struct ScheduleStream {
    popularity: Arc<ZipfSampler>,
    rng: SimRng,
    mean_gap: f64,
    horizon: SimTime,
    /// Instant of the latest arrival drawn.
    at: SimTime,
    /// Arrivals of other shares to pass over before the next one yielded.
    skip: usize,
    stride: usize,
}

impl ScheduleStream {
    /// Every execution of `config`, drawn from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `apps` is zero or `avg_per_minute` is not positive.
    pub fn new(config: &ScheduleConfig, rng: SimRng) -> Self {
        Self::share(config, &config.popularity(), rng, 0, 1)
    }

    /// Executions `phase`, `phase + stride`, … of the stream
    /// [`new`](Self::new) would draw from `rng`; `popularity` is
    /// `config`'s [`popularity`](ScheduleConfig::popularity) table.
    ///
    /// # Panics
    ///
    /// Panics if `avg_per_minute` is not positive, `phase` is not below
    /// `stride`, or `popularity` is over a different number of apps.
    pub fn share(
        config: &ScheduleConfig,
        popularity: &Arc<ZipfSampler>,
        rng: SimRng,
        phase: usize,
        stride: usize,
    ) -> Self {
        assert!(
            config.avg_per_minute > 0.0,
            "average frequency must be positive"
        );
        assert!(phase < stride, "share phase {phase} out of stride {stride}");
        assert_eq!(popularity.len(), config.apps, "another config's table");
        let total_rate_per_sec = config.apps as f64 * config.avg_per_minute / 60.0;
        ScheduleStream {
            popularity: Arc::clone(popularity),
            rng,
            mean_gap: 1.0 / total_rate_per_sec,
            horizon: SimTime::ZERO + config.duration,
            at: SimTime::ZERO,
            skip: phase,
            stride,
        }
    }
}

impl Iterator for ScheduleStream {
    type Item = Execution;

    fn next(&mut self) -> Option<Execution> {
        loop {
            self.at += SimDuration::from_secs_f64(self.rng.exponential(self.mean_gap));
            if self.at > self.horizon {
                return None;
            }
            if self.skip == 0 {
                self.skip = self.stride - 1;
                let app = AppId::new(self.popularity.sample(&mut self.rng) as u32);
                return Some(Execution { at: self.at, app });
            }
            self.skip -= 1;
            // Another share's arrival: its popularity draw, unlooked-up.
            let _ = self.rng.unit();
        }
    }
}

/// Generates a whole time-sorted execution schedule: the
/// [`ScheduleStream`] of `config` over `rng`, collected. `rng` is left
/// where the stream's draws leave it.
///
/// # Panics
///
/// Panics if `apps` is zero or `avg_per_minute` is not positive.
pub fn generate_schedule(config: &ScheduleConfig, rng: &mut SimRng) -> Vec<Execution> {
    let mut stream = ScheduleStream::new(config, rng.clone());
    let schedule = stream.by_ref().collect();
    *rng = stream.rng;
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from(77)
    }

    #[test]
    fn schedule_is_time_sorted_within_horizon() {
        let config = ScheduleConfig::default();
        let s = generate_schedule(&config, &mut rng());
        assert!(!s.is_empty());
        for pair in s.windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
        let horizon = SimTime::ZERO + config.duration;
        assert!(s.iter().all(|e| e.at <= horizon));
    }

    #[test]
    fn average_frequency_matches_config() {
        let config = ScheduleConfig {
            apps: 30,
            avg_per_minute: 3.0,
            zipf_exponent: 0.8,
            duration: SimDuration::from_mins(60),
        };
        let s = generate_schedule(&config, &mut rng());
        // Expected executions: 30 apps × 3/min × 60 min = 5400.
        let expected = 5400.0;
        let got = s.len() as f64;
        assert!(
            (got - expected).abs() / expected < 0.05,
            "got {got}, expected ≈{expected}"
        );
    }

    #[test]
    fn popularity_is_skewed() {
        let config = ScheduleConfig::default();
        let s = generate_schedule(&config, &mut rng());
        let mut counts = vec![0usize; config.apps];
        s.iter().for_each(|e| counts[e.app.get() as usize] += 1);
        // The most popular app should fire several times more often than
        // the least popular.
        let max = counts.iter().max().copied().unwrap();
        let min = counts.iter().min().copied().unwrap();
        assert!(
            max as f64 > 3.0 * (min.max(1) as f64),
            "max {max} min {min}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let config = ScheduleConfig::default();
        let a = generate_schedule(&config, &mut rng());
        let b = generate_schedule(&config, &mut rng());
        assert_eq!(a, b);
    }

    #[test]
    fn low_frequency_yields_fewer_runs() {
        let slow = ScheduleConfig {
            avg_per_minute: 1.0,
            ..ScheduleConfig::default()
        };
        let fast = ScheduleConfig {
            avg_per_minute: 3.0,
            ..ScheduleConfig::default()
        };
        let a = generate_schedule(&slow, &mut rng()).len();
        let b = generate_schedule(&fast, &mut rng()).len();
        assert!(b > 2 * a, "slow {a} fast {b}");
    }

    /// The round-robin shares of `0..stride` merge back, turn by turn,
    /// into the whole schedule, at a horizon on an arrival and one on the
    /// terminating draw.
    #[test]
    fn merged_shares_are_the_whole_schedule() {
        let base = ScheduleConfig {
            apps: 7,
            duration: SimDuration::from_mins(10),
            ..ScheduleConfig::default()
        };
        for seed in [1, 42, 0xC0FFEE, u64::MAX] {
            let whole = |config| generate_schedule(&config, &mut SimRng::seed_from(seed));
            // The 101st arrival is the last one kept at `edge`, and a
            // nanosecond earlier it is the draw that ends the schedule.
            let edge = whole(base)[100].at - SimTime::ZERO;
            assert_eq!(
                whole(ScheduleConfig {
                    duration: edge,
                    ..base
                })
                .len(),
                101
            );
            let before_edge = edge.saturating_sub(SimDuration::from_nanos(1));
            for duration in [base.duration, edge, before_edge] {
                let config = ScheduleConfig { duration, ..base };
                let popularity = config.popularity();
                for stride in 1..=4 {
                    let mut shares: Vec<ScheduleStream> = (0..stride)
                        .map(|phase| {
                            let rng = SimRng::seed_from(seed);
                            ScheduleStream::share(&config, &popularity, rng, phase, stride)
                        })
                        .collect();
                    let merged: Vec<Execution> = (0..)
                        .map_while(|turn| shares[turn % stride].next())
                        .collect();
                    assert!(shares.iter_mut().all(|share| share.next().is_none()));
                    let label = format!("seed {seed} stride {stride} horizon {duration:?}");
                    assert_eq!(merged, whole(config), "{label}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one app")]
    fn zero_apps_rejected() {
        let config = ScheduleConfig {
            apps: 0,
            ..ScheduleConfig::default()
        };
        let _ = generate_schedule(&config, &mut rng());
    }
}
