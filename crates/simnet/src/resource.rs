//! CPU accounting for simulated devices.
//!
//! The paper's feasibility study (Fig. 2) and overhead evaluation (Fig. 14)
//! measure CPU utilization of the WiFi AP. Simulated nodes charge work
//! against a [`CpuMeter`]; harnesses sample it into a time series.

use crate::time::{SimDuration, SimTime};

/// Tracks how much of the wall clock a device's processor has spent busy.
///
/// Work is charged as busy intervals; utilization over a sampling window is
/// `busy_time_in_window / window`. A device with `cores > 1` can absorb that
/// many seconds of work per second before saturating.
#[derive(Debug, Clone)]
pub struct CpuMeter {
    cores: u32,
    /// Completed busy time since the last sample.
    busy_in_window: SimDuration,
    window_start: SimTime,
    /// Time until which the (single logical queue of the) processor is busy.
    busy_until: SimTime,
}

impl CpuMeter {
    /// Creates a meter for a device with the given core count.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(cores: u32) -> Self {
        assert!(cores > 0, "cores must be positive");
        CpuMeter {
            cores,
            busy_in_window: SimDuration::ZERO,
            window_start: SimTime::ZERO,
            busy_until: SimTime::ZERO,
        }
    }

    /// Charges `work` of CPU time beginning no earlier than `now`, modelling
    /// a FIFO service queue. Returns the time at which the work completes.
    pub fn charge(&mut self, now: SimTime, work: SimDuration) -> SimTime {
        let start = now.max(self.busy_until);
        // With multiple cores the same amount of work occupies the queue for
        // a proportionally shorter time.
        let occupancy = work / self.cores as u64;
        self.busy_until = start + occupancy;
        self.busy_in_window += work;
        self.busy_until
    }

    /// Utilization in `[0, 1]` over the window since the last call, then
    /// resets the window. `now` must not precede the previous sample time.
    pub fn sample_utilization(&mut self, now: SimTime) -> f64 {
        let window = now - self.window_start;
        self.window_start = now;
        let busy = std::mem::replace(&mut self.busy_in_window, SimDuration::ZERO);
        if window.is_zero() {
            return 0.0;
        }
        (busy.as_secs_f64() / (window.as_secs_f64() * self.cores as f64)).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_reflects_charged_work() {
        let mut cpu = CpuMeter::new(1);
        cpu.charge(SimTime::ZERO, SimDuration::from_millis(250));
        let u = cpu.sample_utilization(SimTime::from_secs(1));
        assert!((u - 0.25).abs() < 1e-9, "utilization {u}");
        // Window resets.
        let u2 = cpu.sample_utilization(SimTime::from_secs(2));
        assert_eq!(u2, 0.0);
    }

    #[test]
    fn multicore_divides_occupancy() {
        let mut cpu = CpuMeter::new(4);
        let done = cpu.charge(SimTime::ZERO, SimDuration::from_millis(400));
        assert_eq!(done, SimTime::from_millis(100));
        let u = cpu.sample_utilization(SimTime::from_secs(1));
        assert!((u - 0.1).abs() < 1e-9, "utilization {u}");
    }

    #[test]
    fn queueing_serializes_work() {
        let mut cpu = CpuMeter::new(1);
        let d1 = cpu.charge(SimTime::ZERO, SimDuration::from_millis(10));
        let d2 = cpu.charge(SimTime::ZERO, SimDuration::from_millis(10));
        assert_eq!(d1, SimTime::from_millis(10));
        assert_eq!(d2, SimTime::from_millis(20));
        // Arriving at 5 ms, 10 ms of work waits 15 ms for the queue.
        let d3 = cpu.charge(SimTime::from_millis(5), SimDuration::from_millis(10));
        assert_eq!(d3, SimTime::from_millis(30));
    }

    #[test]
    fn utilization_saturates_at_one() {
        let mut cpu = CpuMeter::new(1);
        cpu.charge(SimTime::ZERO, SimDuration::from_secs(10));
        assert_eq!(cpu.sample_utilization(SimTime::from_secs(1)), 1.0);
    }

    #[test]
    fn zero_window_is_zero_utilization() {
        let mut cpu = CpuMeter::new(1);
        assert_eq!(cpu.sample_utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    #[should_panic(expected = "cores")]
    fn zero_cores_rejected() {
        let _ = CpuMeter::new(0);
    }
}
