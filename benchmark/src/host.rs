//! The OS's view of the benchmark process: CPU seconds, faults, context
//! switches and peak RSS from `getrusage`, host steal from `/proc/stat`.
//!
//! `getrusage(RUSAGE_SELF)` rather than `/proc/self/stat{,us}`: it is the
//! only source that counts voluntary context switches of rank threads that
//! have already exited (the thread engine spawns and joins one per rank per
//! run), and it reports CPU time in microseconds instead of 10 ms ticks.

use std::ffi::{c_int, c_long};
use std::time::Instant;

/// Environment knobs that change what the program under test does. A run
/// with any of them set would not measure the defaults users get.
const REFUSED_ENV: [&str; 4] = [
    "GREENLA_KERNEL",
    "GREENLA_DGEMM_THREADS",
    "GREENLA_SPMV_THREADS",
    "GREENLA_STACK_KB",
];

/// The first refused knob present in the environment, if any.
pub fn refused_env_set() -> Option<&'static str> {
    REFUSED_ENV
        .into_iter()
        .find(|k| std::env::var_os(k).is_some())
}

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` of 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    ru_ixrss: c_long,
    ru_idrss: c_long,
    ru_isrss: c_long,
    ru_minflt: c_long,
    ru_majflt: c_long,
    ru_nswap: c_long,
    ru_inblock: c_long,
    ru_oublock: c_long,
    ru_msgsnd: c_long,
    ru_msgrcv: c_long,
    ru_nsignals: c_long,
    ru_nvcsw: c_long,
    ru_nivcsw: c_long,
}

const RUSAGE_SELF: c_int = 0;

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

/// Process-wide resource counters at one instant (all threads, exited
/// ones included).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub minor_faults: u64,
    pub vol_ctx_switches: u64,
    /// High-water resident set, MiB (the kernel's `hiwater_rss`, the same
    /// figure `/proc/self/status` prints as `VmHWM`).
    pub peak_rss_mib: f64,
}

impl Usage {
    pub fn now() -> Usage {
        let mut ru = Rusage::default();
        // SAFETY: `ru` is a live, writable `struct rusage` with the 64-bit
        // Linux layout (2 × timeval + 14 × long = 144 bytes), which is all
        // getrusage(2) writes through the pointer; RUSAGE_SELF is always a
        // valid `who`, and the call has no other side effects.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
        let secs = |t: Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
        Usage {
            user_s: secs(ru.ru_utime),
            sys_s: secs(ru.ru_stime),
            minor_faults: ru.ru_minflt as u64,
            vol_ctx_switches: ru.ru_nvcsw as u64,
            peak_rss_mib: ru.ru_maxrss as f64 / 1024.0,
        }
    }
}

/// Host-wide steal ticks (field 8 of the aggregate `cpu` line of
/// `/proc/stat`): time the hypervisor ran someone else while this VM had
/// runnable work. `None` when the line is missing or short.
pub fn parse_steal_ticks(proc_stat: &str) -> Option<u64> {
    let line = proc_stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_steal_ticks(&s))
        .unwrap_or(0)
}

/// Kernel clock ticks per second behind `/proc/stat` (USER_HZ, fixed at
/// 100 on every Linux ABI).
const TICKS_PER_S: f64 = 100.0;

/// A pass is discarded when the host stole more than this share of the
/// CPU time the VM could have used (wall × cores).
pub const STEAL_GATE: f64 = 0.02;

/// Stolen share of `wall_s × nproc`. Zero steal (bare metal) gives 0.
pub fn steal_frac(steal_ticks: u64, wall_s: f64, nproc: usize) -> f64 {
    if wall_s <= 0.0 {
        return 0.0;
    }
    steal_ticks as f64 / TICKS_PER_S / (wall_s * nproc as f64)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Opening reading of a measured interval.
pub struct Meter {
    t0: Instant,
    usage: Usage,
    steal: u64,
}

/// Host cost of one measured interval (one pass).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HostCost {
    pub wall_s: f64,
    pub user_s: f64,
    pub sys_s: f64,
    pub minor_faults: u64,
    pub vol_ctx_switches: u64,
    pub steal_frac: f64,
    /// Peak RSS of the process when the interval closed.
    pub peak_rss_mib: f64,
}

impl HostCost {
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    pub fn steal_flagged(&self) -> bool {
        self.steal_frac > STEAL_GATE
    }
}

impl Meter {
    pub fn start() -> Meter {
        Meter {
            steal: steal_ticks(),
            usage: Usage::now(),
            t0: Instant::now(),
        }
    }

    pub fn stop(self) -> HostCost {
        let wall_s = self.t0.elapsed().as_secs_f64();
        let u = Usage::now();
        let steal = steal_ticks().saturating_sub(self.steal);
        HostCost {
            wall_s,
            user_s: u.user_s - self.usage.user_s,
            sys_s: u.sys_s - self.usage.sys_s,
            minor_faults: u.minor_faults - self.usage.minor_faults,
            vol_ctx_switches: u.vol_ctx_switches - self.usage.vol_ctx_switches,
            steal_frac: steal_frac(steal, wall_s, nproc()),
            peak_rss_mib: u.peak_rss_mib,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steal_flagged(steal_ticks: u64, wall_s: f64, nproc: usize) -> bool {
        let cost = HostCost {
            steal_frac: steal_frac(steal_ticks, wall_s, nproc),
            ..HostCost::default()
        };
        cost.steal_flagged()
    }

    const STAT: &str = "cpu  194569 0 106013 515473 2485 0 363 12160 0 0\n\
                        cpu0 94115 0 53674 258603 2181 0 201 6186 0 0\n\
                        intr 1 2 3\n";

    #[test]
    fn steal_is_field_eight_of_the_aggregate_line() {
        assert_eq!(parse_steal_ticks(STAT), Some(12160));
        assert_eq!(parse_steal_ticks("cpu0 1 2 3 4 5 6 7 8 9 10\n"), None);
        // Pre-2.6.11 layout without a steal column.
        assert_eq!(parse_steal_ticks("cpu  1 2 3 4 5 6 7\n"), None);
    }

    #[test]
    fn gate_trips_above_two_percent_of_wall_times_cores() {
        // 1 s pass on 2 cores: 2 % of 2 core-seconds is 4 ticks.
        assert!(!steal_flagged(4, 1.0, 2));
        assert!(steal_flagged(5, 1.0, 2));
        // The burst the issue recorded: 3.2 s of steal over a 9.2 s pass.
        assert!(steal_flagged(320, 9.2, 2));
    }

    #[test]
    fn bare_metal_reports_zero_steal_and_accepts_everything() {
        for wall in [0.001, 1.0, 100.0] {
            assert!(!steal_flagged(0, wall, 64));
        }
        assert_eq!(steal_frac(0, 0.0, 2), 0.0);
    }

    #[test]
    fn meter_sees_cpu_burn_and_monotonic_counters() {
        let m = Meter::start();
        let mut x = 0u64;
        while m.t0.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let c = m.stop();
        assert!(c.wall_s >= 0.03);
        assert!(c.cpu_s() > 0.01 && c.cpu_s() < c.wall_s * nproc() as f64 + 0.05);
        assert!(c.peak_rss_mib > 0.5);
    }
}
