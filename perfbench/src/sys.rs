//! Process counters read from `/proc/self`.

/// One `key: value` field of a `/proc/self` file, as an integer.
fn proc_field(file: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/self/{file}")).ok()?;
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Bytes this process has passed to `write`-family calls (`wchar` in
/// `/proc/self/io`).
pub fn bytes_written() -> Option<u64> {
    proc_field("io", "wchar")
}

/// Peak resident memory in MiB (`VmHWM` in `/proc/self/status`).
pub fn peak_rss_mib() -> Option<f64> {
    proc_field("status", "VmHWM").map(|kib| kib as f64 / 1024.0)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads /proc and the 64-bit Linux `timespec`");

/// `struct timespec` on 64-bit Linux: `time_t` and `long` are both 64 bits.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time this process has used, in ns: every thread, running or
/// already joined. Time the host gives to other guests (steal) is not
/// counted, which is why the bounded time metrics use this clock.
#[allow(unsafe_code)]
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the C layout of this
    // target (checked by the `compile_error!` above), and
    // `CLOCK_PROCESS_CPUTIME_ID` is a clock every Linux kernel provides.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Wall-clock and process CPU time of one interval.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: std::time::Instant,
    cpu_ns: u64,
}

impl Stopwatch {
    /// Start both clocks.
    pub fn start() -> Stopwatch {
        let cpu_ns = process_cpu_ns();
        Stopwatch {
            wall: std::time::Instant::now(),
            cpu_ns,
        }
    }

    /// `(wall, cpu)` elapsed since [`Stopwatch::start`], in µs.
    pub fn elapsed_us(&self) -> (f64, f64) {
        let wall = self.wall.elapsed().as_secs_f64() * 1e6;
        let cpu = process_cpu_ns().saturating_sub(self.cpu_ns) as f64 / 1e3;
        (wall, cpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_readable_and_move() {
        let before = bytes_written().expect("/proc/self/io is readable");
        // `wchar` counts bytes handed to `write`, whatever the target.
        std::fs::write("/dev/null", vec![0u8; 4096]).expect("write to /dev/null");
        assert!(bytes_written().expect("readable") >= before + 4096);
        assert!(peak_rss_mib().expect("VmHWM present") > 0.0);
    }

    #[test]
    fn process_clock_counts_joined_threads() {
        let spin = || {
            let t = std::time::Instant::now();
            let mut x = 0u64;
            while t.elapsed().as_millis() < 30 {
                x = std::hint::black_box(x.wrapping_add(1));
            }
        };
        let watch = Stopwatch::start();
        std::thread::scope(|s| {
            s.spawn(spin);
        });
        let (wall, cpu) = watch.elapsed_us();
        assert!(wall >= 30_000.0);
        // The spinning thread ran at least 30 ms of CPU unless the host
        // took its CPU away; half of that is a safe floor.
        assert!(cpu >= 15_000.0, "cpu {cpu} us");
    }
}
