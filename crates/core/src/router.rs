//! The §II-C feasibility study (Fig. 2): CPU/memory headroom of an
//! off-the-shelf router under replayed WiFi traffic.
//!
//! The paper tcpreplays two captures against a GL-MT1300 (MT7621A, 2 cores
//! @ 880 MHz, 256 MB RAM) and records utilization. We replay the synthetic
//! Table II-equivalent traces against a calibrated router resource model:
//! per-packet forwarding CPU, a conntrack table with idle expiry, and an
//! OS page/buffer cache that grows with carried bytes and saturates.

use ape_simnet::{CpuMeter, SimDuration, SimRng, SimTime};
use ape_workload::{generate_trace, TraceSpec};

// The calibrated GL-MT1300 resource model. Fig. 14 reads the baseline
// memory and the forwarding costs from here too.

/// CPU cores.
pub const CORES: u32 = 2;

/// Fixed CPU time per forwarded packet.
pub const PER_PACKET_CPU: SimDuration = SimDuration::from_micros(200);

/// Additional CPU time per payload byte, ns.
pub const PER_BYTE_CPU_NS: f64 = 25.0;

/// Baseline firmware/OS memory, bytes.
pub const MEM_BASELINE: u64 = 62_000_000;

/// Conntrack entry size, bytes.
pub const PER_FLOW_BYTES: u64 = 1_024;

/// Conntrack idle timeout.
pub const FLOW_TIMEOUT: SimDuration = SimDuration::from_secs(30);

/// Fraction of carried bytes retained in OS caches...
pub const CACHE_RETENTION: f64 = 0.15;

/// ...up to this cap, bytes.
pub const CACHE_CAP: u64 = 60_000_000;

/// One per-second sample of the replay.
#[derive(Debug, Clone, Copy)]
pub struct RouterSample {
    /// Seconds since replay start.
    pub at_secs: f64,
    /// CPU utilization in `[0, 1]`.
    pub cpu: f64,
    /// Total memory in MB.
    pub mem_mb: f64,
    /// Live conntrack entries.
    pub active_flows: usize,
}

/// Replays `spec` against the router model, sampling once per second.
pub fn replay_trace(spec: &TraceSpec, seed: u64) -> Vec<RouterSample> {
    let mut rng = SimRng::seed_from(seed);
    let packets = generate_trace(spec, &mut rng);
    let mut cpu = CpuMeter::new(CORES);
    // flow id → last-seen time.
    let mut flows: std::collections::BTreeMap<u32, SimTime> = std::collections::BTreeMap::new();
    let mut carried_bytes = 0u64;
    let mut samples = Vec::new();
    let mut idx = 0usize;

    let total_secs = spec.duration.as_secs();
    for second in 1..=total_secs {
        let boundary = SimTime::from_secs(second);
        while idx < packets.len() && packets[idx].at <= boundary {
            let p = &packets[idx];
            let work =
                PER_PACKET_CPU + SimDuration::from_nanos_f64(p.size as f64 * PER_BYTE_CPU_NS);
            cpu.charge(p.at, work);
            carried_bytes += p.size as u64;
            flows.insert(p.flow, p.at);
            idx += 1;
        }
        // Expire idle conntrack entries.
        flows.retain(|_, last| boundary - *last < FLOW_TIMEOUT);
        let conntrack = flows.len() as u64 * PER_FLOW_BYTES;
        let os_cache = ((carried_bytes as f64 * CACHE_RETENTION) as u64).min(CACHE_CAP);
        let total_mem = MEM_BASELINE + conntrack + os_cache;
        samples.push(RouterSample {
            at_secs: second as f64,
            cpu: cpu.sample_utilization(boundary),
            mem_mb: total_mem as f64 / 1e6,
            active_flows: flows.len(),
        });
    }
    samples
}

/// Convenience: mean CPU and final memory of a replay.
pub fn replay_summary(samples: &[RouterSample]) -> (f64, f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let mean_cpu = samples.iter().map(|s| s.cpu).sum::<f64>() / samples.len() as f64;
    let max_cpu = samples.iter().map(|s| s.cpu).fold(0.0, f64::max);
    let final_mem = samples.last().expect("non-empty").mem_mb;
    (mean_cpu, max_cpu, final_mem)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn high_rate_stays_below_half_cpu_with_headroom() {
        let samples = replay_trace(&TraceSpec::high_rate(), 5);
        let (mean_cpu, max_cpu, final_mem) = replay_summary(&samples);
        // Paper: CPU well below 50 %, memory hovering around 120 MB.
        assert!(
            mean_cpu > 0.05,
            "high traffic visibly loads the CPU: {mean_cpu}"
        );
        assert!(max_cpu < 0.5, "max cpu {max_cpu}");
        assert!(
            (100.0..140.0).contains(&final_mem),
            "final mem {final_mem} MB"
        );
    }

    #[test]
    fn low_rate_is_nearly_idle() {
        let samples = replay_trace(&TraceSpec::low_rate(), 5);
        let (mean_cpu, _max, final_mem) = replay_summary(&samples);
        assert!(mean_cpu < 0.05, "low traffic cpu {mean_cpu}");
        assert!(final_mem < 70.0, "low traffic mem {final_mem}");
    }

    #[test]
    fn five_minute_trace_yields_300_samples() {
        let samples = replay_trace(&TraceSpec::low_rate(), 5);
        assert_eq!(samples.len(), 300);
        assert!(samples.iter().all(|s| (0.0..=1.0).contains(&s.cpu)));
    }

    #[test]
    fn conntrack_tracks_active_flows() {
        let samples = replay_trace(&TraceSpec::high_rate(), 5);
        let mid = &samples[150];
        assert!(mid.active_flows > 1_000, "flows {}", mid.active_flows);
        // More traffic, more memory than at the very start.
        assert!(samples[250].mem_mb > samples[5].mem_mb);
    }

    #[test]
    fn empty_summary_is_zero() {
        assert_eq!(replay_summary(&[]), (0.0, 0.0, 0.0));
    }
}
