//! Process-level readings from `/proc/self`: peak resident memory and
//! consumed CPU time.

use std::time::Instant;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux
/// fixes USER_HZ at 100 on every architecture it exports to user space.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Peak resident set size of this process (`VmHWM`) in MiB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("VmHWM missing from /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// User plus system CPU seconds this process has consumed, all threads.
///
/// # Errors
///
/// When `/proc/self/stat` is unreadable or malformed.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("read /proc/self/stat: {e}"))?;
    // The command name is parenthesised and may contain spaces; fields
    // after it start at field 3 (state), so utime and stime (fields 14
    // and 15) are the 12th and 13th tokens after the closing paren.
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = after.split_ascii_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|t| t.parse::<f64>().ok())
            .ok_or_else(|| format!("field {} missing from /proc/self/stat", i + 3))
    };
    Ok((ticks(11)? + ticks(12)?) / CLOCK_TICKS_PER_S)
}

/// Cores this process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Measures the share of the machine's cores a window kept busy:
/// `(utime + stime) / (wall × cores)`.
pub struct CpuWindow {
    started: Instant,
    cpu_at_start: f64,
}

impl CpuWindow {
    /// Opens a window now.
    ///
    /// # Errors
    ///
    /// When the CPU counters cannot be read.
    pub fn open() -> Result<Self, String> {
        Ok(CpuWindow { started: Instant::now(), cpu_at_start: cpu_seconds()? })
    }

    /// Utilisation since [`Self::open`], in `0..=1`.
    ///
    /// # Errors
    ///
    /// When the CPU counters cannot be read.
    pub fn utilisation(&self) -> Result<f64, String> {
        let wall = self.started.elapsed().as_secs_f64();
        let cpu = cpu_seconds()? - self.cpu_at_start;
        Ok(cpu / (wall * cores() as f64))
    }
}
