//! What the benchmark reads from the host: the process's peak memory.

/// Extracts `VmHWM` (peak resident set, kB) from `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    let mut fields = rest.split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(value)
}

/// Peak resident set of this process so far, in MB (10^6 bytes).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = parse_vm_hwm_kb(&status).ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb as f64 * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_kernel_format() {
        let status =
            "Name:\tapebench\nVmPeak:\t  300000 kB\nVmHWM:\t  215432 kB\nVmRSS:\t  1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(215_432));
    }

    #[test]
    fn rejects_missing_or_malformed_lines() {
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t 10 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t 10 pages\n"), None);
        assert_eq!(parse_vm_hwm_kb(""), None);
    }

    #[test]
    fn reads_this_process() {
        let mb = peak_rss_mb().expect("linux exposes VmHWM");
        assert!(mb > 0.5, "peak rss {mb} MB");
    }
}
