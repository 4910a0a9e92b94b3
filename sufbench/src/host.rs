//! Process and host readings: peak resident memory and the host's steal
//! time from `/proc`, and CPU time from the processes' CPU-time clocks.

use std::fs;

/// Clock ticks per second of the `/proc` tick counters (`USER_HZ`), which
/// Linux fixes at 100 on every architecture this benchmark runs on.
const TICKS_PER_S: f64 = 100.0;

fn status_path(pid: Option<u32>) -> String {
    pid.map_or_else(
        || "/proc/self/status".to_owned(),
        |p| format!("/proc/{p}/status"),
    )
}

/// `VmHWM` (peak resident set) of a process in MB, or of this process
/// when `pid` is `None`.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let status = fs::read_to_string(status_path(pid)).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("sufbench reads Linux's /proc and its 64-bit CPU-time clocks");

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// The calling process's CPU-time clock.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time of a process in seconds (user plus system, all its threads,
/// since it started), or of this process when `pid` is `None`, read from
/// the process's POSIX CPU-time clock at nanosecond resolution. Under the
/// kernel's paravirtual steal accounting (`CONFIG_PARAVIRT_TIME_ACCOUNTING`,
/// as on the reference host) the clock leaves out the time the hypervisor
/// ran other guests on this guest's virtual CPU, which wall time includes.
pub fn cpu_s(pid: Option<u32>) -> Option<f64> {
    let clock = match pid {
        None => CLOCK_PROCESS_CPUTIME_ID,
        // What `clock_getcpuclockid(3)` returns for another process: the
        // complemented pid above three type bits, type 2 being the
        // scheduler's nanosecond run time (`CPUCLOCK_SCHED`).
        Some(p) => (!i32::try_from(p).ok()? << 3) | 2,
    };
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the layout
    // the C library expects on 64-bit Linux (checked above), and
    // `clock_gettime` writes only through that pointer.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    (rc == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// Host-wide steal time in seconds, summed over all CPUs (the eighth
/// value of the `cpu` line of `/proc/stat`).
pub fn steal_s() -> Option<f64> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let steal: f64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(steal / TICKS_PER_S)
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_read_this_process_and_a_live_child() {
        let before = cpu_s(None).expect("this process's CPU clock");
        let sum = (0..20_000_000u64).fold(0u64, |a, i| a.wrapping_add(std::hint::black_box(i)));
        std::hint::black_box(sum);
        assert!(cpu_s(None).expect("this process's CPU clock") > before);

        let mut child = std::process::Command::new("sleep")
            .arg("10")
            .spawn()
            .expect("start sleep");
        let pid = child.id();
        let read = cpu_s(Some(pid));
        child.kill().expect("stop sleep");
        child.wait().expect("reap sleep");
        assert!(read.is_some_and(|s| s >= 0.0));
        assert_eq!(cpu_s(Some(pid)), None, "a reaped process has no clock");
        assert_eq!(cpu_s(Some(u32::MAX)), None);
    }
}
