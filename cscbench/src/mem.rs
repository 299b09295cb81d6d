//! Resident-memory readings from `/proc`.

/// A `kB` field (`VmHWM`, `VmRSS`, ...) of `/proc/<pid>/status`; `pid`
/// may be `"self"`. `None` off Linux or when the field is absent.
pub fn status_kb(pid: &str, field: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.trim().trim_end_matches("kB").trim().parse().ok()
    })
}

/// Resets this process's `VmHWM` to its current RSS, so the next reading
/// is the peak since now. Best effort: off Linux nothing is reset.
pub fn reset_peak() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_status() {
        if cfg!(target_os = "linux") {
            assert!(status_kb("self", "VmHWM").unwrap() > 0);
            assert!(status_kb("self", "VmRSS").unwrap() > 0);
            assert!(status_kb("self", "NoSuchField").is_none());
        }
    }
}
