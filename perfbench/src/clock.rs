//! CPU clocks, read from `/proc`.
//!
//! The benchmark's throughput and set-up metrics are CPU seconds, not
//! wall seconds. The shared host it was tuned on oversubscribes its
//! vCPUs: while the benchmark runs, hypervisor steal takes 8–33% of the
//! CPU in episodes lasting seconds, which moves any wall-clock figure by
//! up to 2× between two processes running the same code. The kernel
//! charges steal to neither the task's runtime nor its user/system time,
//! so CPU time moves only with the work the code does.

/// Clock ticks per second of `/proc/<pid>/stat` (`USER_HZ`, 100 on every
/// Linux architecture this benchmark targets).
const USER_HZ: f64 = 100.0;

/// CPU time of the whole process, every thread it ran including the pool
/// workers that have exited, in seconds (resolution 10 ms).
pub fn process_cpu_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("read /proc/self/stat: {e}"))?;
    // The command name may hold spaces; the fields after it are fixed.
    let rest = stat.rsplit_once(") ").ok_or("malformed /proc/self/stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Fields 14 and 15 of the file (utime, stime) are 11 and 12 here.
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| format!("no CPU field {i} in /proc/self/stat"))
    };
    Ok((ticks(11)? + ticks(12)?) / USER_HZ)
}

/// CPU time of the calling thread in seconds, from
/// `/proc/thread-self/schedstat` (the kernel updates it at every
/// scheduler tick, 4 ms at HZ = 250).
pub fn thread_cpu_s() -> Result<f64, String> {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat")
        .map_err(|e| format!("read /proc/thread-self/schedstat: {e}"))?;
    let ns: u64 = s
        .split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .ok_or("malformed /proc/thread-self/schedstat")?;
    Ok(ns as f64 * 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p0, t0) = (process_cpu_s().unwrap(), thread_cpu_s().unwrap());
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while start.elapsed().as_millis() < 100 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let (p1, t1) = (process_cpu_s().unwrap(), thread_cpu_s().unwrap());
        assert!(p1 > p0, "process clock did not move: {p0} -> {p1}");
        assert!(t1 > t0, "thread clock did not move: {t0} -> {t1}");
    }
}
