//! What the operating system says about this process (Linux only).

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` in `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU seconds (user + system) this process has consumed on all its
/// threads, living and ended. `/proc/self/stat` carries the same sum in
/// 10 ms ticks, too coarse to difference around a 60 ms unit.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the C layout of
    // 64-bit Linux (two 64-bit fields), and clock_gettime writes nothing
    // else. The libc symbol is linked into every Rust std program.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse::<f64>().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Cores the scheduler will give this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One fixed piece of single-thread work (~40 ms); returns its seconds.
fn spin_once() -> f64 {
    let t = std::time::Instant::now();
    let mut x = 1u64;
    for i in 0..40_000_000u64 {
        x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64()
}

/// Keep every core busy until they really run side by side, or `max`
/// has passed. Returns `(parallel speed-up reached, seconds spent)`.
///
/// A small virtual machine that has sat idle may have its virtual CPUs
/// stacked on one physical core by the host; a few seconds of load on all
/// of them makes the host spread them again. Measured here: after 45 s of
/// idleness a 2-vCPU sandbox ran the map phase of `dense-wan` in 52 ms,
/// after 3 s of two-thread spinning in 27 ms, with no other change. A run
/// that starts in the one-core state and one that does not differ by more
/// than any bound, so every run first brings the machine to the same state.
/// This is conditioning of the machine, not set-up of the program: it is
/// not part of `setup_s`.
pub fn preheat(max: std::time::Duration) -> (f64, f64) {
    let threads = nproc();
    let start = std::time::Instant::now();
    if threads < 2 {
        return (1.0, 0.0);
    }
    let alone = spin_once();
    loop {
        let together = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(spin_once)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("spin thread panicked"))
                .fold(0.0, f64::max)
        });
        let speedup = threads as f64 * alone / together;
        if speedup >= 0.8 * threads as f64 || start.elapsed() >= max {
            return (speedup, start.elapsed().as_secs_f64());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = cpu_seconds();
        spin_once();
        assert!(cpu_seconds() > before);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
