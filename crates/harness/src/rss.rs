//! Peak-resident-set measurement via `/proc`, dependency-free.
//!
//! The streaming engine's whole point is bounded memory, so the benchmark
//! reports peak RSS next to throughput. Linux exposes exactly the two
//! hooks needed and nothing else is required:
//!
//! * `VmHWM` in `/proc/self/status` — the process's resident-set
//!   high-water mark, in kibibytes;
//! * writing `5` to `/proc/self/clear_refs` — resets that high-water mark
//!   to the *current* RSS, so a measurement window can start fresh.
//!
//! Both are best-effort: on non-Linux hosts (or a locked-down `/proc`)
//! [`peak_rss_bytes`] returns `None` and [`reset_peak_rss`] is a no-op, and
//! callers report no number. Measurements are process-wide:
//! a reading covers everything live in the process, not just the code
//! under test — reset immediately before the region of interest and keep
//! the region free of unrelated allocation. (That is why the live-reading
//! test sits alone in its own test binary, `tests/rss_live.rs`.)

/// The process's peak resident set in bytes since start (or since the last
/// [`reset_peak_rss`]), if the platform exposes it.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm(&status)
}

/// Resets the peak-RSS high-water mark to the current resident set.
/// Returns `false` (and changes nothing) where unsupported.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Extracts `VmHWM` from `/proc/self/status` text. The kernel prints the
/// value in kB (kibibytes) with a unit suffix: `VmHWM:      1234 kB`.
fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 =
        line.trim_start_matches("VmHWM:").trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kib * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_kernel_status_format() {
        let status = "Name:\trepro\nVmPeak:\t  123456 kB\nVmHWM:\t   98304 kB\nVmRSS:\t 4 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(98_304 * 1024));
        assert_eq!(parse_vm_hwm("Name:\trepro\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\tgarbage kB\n"), None);
    }
}
