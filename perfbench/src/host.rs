//! Host-side helpers: CPU confinement, resident memory, wall and CPU clocks
//! and the percentile rule every reported timing follows.

use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// Bits in the kernel's `cpu_set_t` (glibc's `CPU_SETSIZE`).
const CPU_SET_BITS: usize = 1024;

/// A CPU affinity mask as `sched_{get,set}affinity` read and write it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct CpuSet([u64; CPU_SET_BITS / 64]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds this process has run, summed over its threads. With
/// paravirtual time accounting the kernel leaves out steal time, the time
/// the hypervisor ran other guests on this CPU.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable timespec.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Hand-off cost of the reference host, ns, to which [`Setup::scaled_s`]
/// scales set-up times: about the middle of the 3.1–5.4 µs [`handoff_ns`]
/// measured on a 2-vCPU x86-64 VM.
pub const REFERENCE_HANDOFF_NS: f64 = 4000.0;

/// Host cost of one hand-off between two threads on this CPU, ns: the mean
/// over 4000 wake-ups of a thread waiting on a condition variable, which is
/// how dsim passes its run token. Pure host code, so a change to the
/// library cannot move it.
pub fn handoff_ns() -> f64 {
    const ROUND_TRIPS: u64 = 2000;
    // Even: the main thread's turn; odd: the partner's.
    let turn = Arc::new((Mutex::new(0u64), Condvar::new()));
    let partner = {
        let turn = turn.clone();
        std::thread::spawn(move || {
            let (count, cv) = &*turn;
            let mut n = count.lock().expect("hand-off lock poisoned");
            while *n < 2 * ROUND_TRIPS {
                if *n % 2 == 1 {
                    *n += 1;
                    cv.notify_one();
                } else {
                    n = cv.wait(n).expect("hand-off lock poisoned");
                }
            }
        })
    };
    let start = Instant::now();
    {
        let (count, cv) = &*turn;
        let mut n = count.lock().expect("hand-off lock poisoned");
        while *n < 2 * ROUND_TRIPS {
            if *n % 2 == 0 {
                *n += 1;
                cv.notify_one();
            } else {
                n = cv.wait(n).expect("hand-off lock poisoned");
            }
        }
    }
    let ns = start.elapsed().as_nanos() as f64 / (2 * ROUND_TRIPS) as f64;
    partner.join().expect("hand-off partner panicked");
    ns
}

/// Times one set-up: process CPU and wall time, plus the host's hand-off
/// cost measured just before and just after it.
pub struct SetupClock {
    wall: Instant,
    cpu_s: f64,
    handoff_ns: f64,
}

impl SetupClock {
    pub fn start() -> Self {
        let handoff_ns = handoff_ns();
        SetupClock {
            wall: Instant::now(),
            cpu_s: process_cpu_s(),
            handoff_ns,
        }
    }

    pub fn stop(self) -> Setup {
        let cpu_s = process_cpu_s() - self.cpu_s;
        let wall_s = self.wall.elapsed().as_secs_f64();
        Setup {
            cpu_s,
            wall_s,
            handoff_ns: (self.handoff_ns + handoff_ns()) / 2.0,
        }
    }
}

/// What [`SetupClock`] measured.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    pub cpu_s: f64,
    pub wall_s: f64,
    pub handoff_ns: f64,
}

impl Setup {
    /// CPU seconds of the set-up scaled to the reference host's hand-off
    /// cost. The host's kernel paths (thread hand-offs, page faults) switch
    /// between a fast and a slow state, 1.45x apart, every few seconds,
    /// while user-mode compute stays put. Set-up time follows the hand-off
    /// cost with elasticity about one half on all three workloads, so the
    /// ratio enters as its square root.
    pub fn scaled_s(&self) -> f64 {
        self.cpu_s * (REFERENCE_HANDOFF_NS / self.handoff_ns).sqrt()
    }
}

/// glibc's `M_MMAP_THRESHOLD`.
const M_MMAP_THRESHOLD: i32 = -3;

/// Serve every allocation of 128 KiB or more with a fresh mapping. By
/// default glibc raises this threshold after the first large free, so
/// whether a later cache region comes back zeroed-and-resident from the heap
/// or lazily from a new mapping depends on thread timing, and peak RSS
/// jumps by 4 MiB from run to run. A fixed threshold makes it repeat.
pub fn fix_mmap_threshold() -> bool {
    // SAFETY: mallopt only adjusts allocator tuning; called before any
    // thread of ours allocates concurrently.
    unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) == 1 }
}

impl CpuSet {
    /// The calling thread's current mask.
    pub fn current() -> std::io::Result<Self> {
        let mut set = CpuSet([0; CPU_SET_BITS / 64]);
        // SAFETY: `set` is a live, writable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        if rc != 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(set)
    }

    /// A mask holding only `cpu`.
    pub fn single(cpu: usize) -> Self {
        let mut set = CpuSet([0; CPU_SET_BITS / 64]);
        set.0[cpu / 64] |= 1 << (cpu % 64);
        set
    }

    /// The CPUs in the mask, ascending.
    pub fn cpus(&self) -> Vec<usize> {
        (0..CPU_SET_BITS)
            .filter(|&c| self.0[c / 64] & (1 << (c % 64)) != 0)
            .collect()
    }

    /// Make this the calling thread's mask. Threads it spawns afterwards
    /// inherit the mask, which is how every simulated thread of a run ends
    /// up on the same CPU.
    pub fn apply(&self) -> std::io::Result<()> {
        // SAFETY: `self` is a live buffer of exactly the size passed; pid 0
        // names the calling thread.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), self) };
        if rc != 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`) since it
/// started or since the last [`reset_peak_rss`].
pub fn peak_rss_mb() -> Option<f64> {
    status_mib("VmHWM:")
}

/// Resident set size of this process now, in MiB (`VmRSS`).
pub fn rss_mb() -> Option<f64> {
    status_mib("VmRSS:")
}

/// Lower `VmHWM` to the current resident size, so the next
/// [`peak_rss_mb`] covers only what runs after this call.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

fn status_mib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_status_kib(&status, field).map(|kib| kib as f64 / 1024.0)
}

fn parse_status_kib(status: &str, field: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with(field))?;
    let mut words = line[field.len()..].split_whitespace();
    let kib = words.next()?.parse().ok()?;
    (words.next() == Some("kB")).then_some(kib)
}

/// Nanoseconds of host wall time since the first call in this process.
pub fn wall_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Fewest samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `0..1`) of ascending `sorted`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie above it.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.checked_sub(rank)?;
    (beyond >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&s, 0.5), Some(500));
        assert_eq!(percentile(&s, 0.99), Some(990));
        assert_eq!(percentile(&s, 0.999), None, "only one sample beyond p999");
        let s: Vec<u64> = (1..=10_000).collect();
        assert_eq!(percentile(&s, 0.999), Some(9990));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(
            percentile(&[7; 19], 0.5),
            None,
            "9 samples beyond the median"
        );
        assert_eq!(percentile(&[7; 20], 0.5), Some(7));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_status_kib(status, "VmHWM:"), Some(2048));
        assert_eq!(parse_status_kib(status, "VmRSS:"), Some(1024));
        assert_eq!(parse_status_kib("VmRSS:\t1 kB\n", "VmHWM:"), None);
        assert!(peak_rss_mb().expect("VmHWM on Linux") > 0.0);
    }

    #[test]
    fn peak_rss_resets_to_current() {
        let big = vec![1u8; 64 << 20];
        let touched = std::hint::black_box(&big)
            .iter()
            .map(|&b| b as u64)
            .sum::<u64>();
        assert_eq!(touched, 64 << 20);
        let with_big = peak_rss_mb().expect("VmHWM");
        drop(big);
        reset_peak_rss().expect("write clear_refs");
        let after = peak_rss_mb().expect("VmHWM");
        assert!(
            after < with_big - 32.0,
            "peak {after} MiB after reset, {with_big} MiB before"
        );
        assert!(after >= rss_mb().expect("VmRSS") - 1.0);
    }

    #[test]
    fn setup_clock_measures_cpu_and_handoffs() {
        let clock = SetupClock::start();
        let t = process_cpu_s();
        let mut x = 0u64;
        while process_cpu_s() - t < 0.02 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let setup = clock.stop();
        // Other tests' threads add to the process CPU time, not to ours.
        assert!(setup.cpu_s >= 0.02 && setup.wall_s > 0.0, "{setup:?}");
        assert!(
            setup.handoff_ns > 0.0 && setup.handoff_ns < 1e6,
            "{setup:?}"
        );
        let at_reference = Setup {
            handoff_ns: REFERENCE_HANDOFF_NS,
            ..setup
        };
        assert_eq!(at_reference.scaled_s(), setup.cpu_s);
        let slower = Setup {
            handoff_ns: 4.0 * REFERENCE_HANDOFF_NS,
            ..setup
        };
        assert_eq!(slower.scaled_s(), setup.cpu_s / 2.0);
    }

    #[test]
    fn affinity_round_trips() {
        let orig = CpuSet::current().expect("read affinity");
        let cpu = *orig.cpus().last().expect("at least one CPU");
        std::thread::spawn(move || {
            CpuSet::single(cpu).apply().expect("confine");
            assert_eq!(CpuSet::current().expect("read").cpus(), vec![cpu]);
            let child = std::thread::spawn(|| CpuSet::current().expect("read").cpus());
            assert_eq!(child.join().expect("child"), vec![cpu], "mask is inherited");
        })
        .join()
        .expect("confined thread");
        assert_eq!(
            CpuSet::current().expect("read"),
            orig,
            "other threads keep theirs"
        );
    }
}
