//! Host resource probes: wall-clock stamps, process and thread CPU
//! time, peak resident set size, the worker count the harness may use,
//! and the reference kernel pass times are divided by.
//!
//! This is the benchmark's only wall-clock reader. The host time it
//! measures never feeds a simulated quantity.

use std::time::Duration;
// hhsim: allow(wall-clock-in-sim): benchmark-side host timing, never simulation input
use std::time::Instant;

/// A host wall-clock reading.
#[derive(Debug, Clone, Copy)]
// hhsim: allow(wall-clock-in-sim): benchmark-side host timing, never simulation input
pub struct HostStamp(Instant);

impl HostStamp {
    /// The current host time.
    pub fn now_host() -> HostStamp {
        #[allow(clippy::disallowed_methods)]
        // hhsim: allow(wall-clock-in-sim): benchmark-side host timing, never simulation input
        HostStamp(Instant::now())
    }

    /// Host time elapsed since this stamp.
    pub fn since_stamp(&self) -> Duration {
        self.0.elapsed()
    }

    /// Host seconds elapsed since this stamp.
    pub fn secs_since(&self) -> f64 {
        self.since_stamp().as_secs_f64()
    }
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux: user + system time of every
/// thread of the process, live or exited.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// `CLOCK_THREAD_CPUTIME_ID` on Linux: user + system time of the calling
/// thread.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU time consumed by the whole process so far, at nanosecond
/// resolution (the tick-granular `/proc/self/stat` counters would
/// quantize a one-second pass to 1 %).
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread so far.
fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

fn cpu_clock(clock_id: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed `struct timespec`
    // (two 64-bit fields on every 64-bit Linux target) that lives for
    // the whole call; `clock_gettime` only writes through the pointer.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "CPU-time clocks are always available on Linux");
    Duration::new(
        u64::try_from(ts.tv_sec).unwrap_or(0),
        u32::try_from(ts.tv_nsec).unwrap_or(0),
    )
}

/// The process's peak resident set size (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Harness workers: two, or fewer when the host has fewer cores.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// Fixed inputs of the reference kernel.
struct ReferenceData {
    keys: Vec<u64>,
    lists: Vec<Vec<u64>>,
    table: Vec<u64>,
}

fn reference_data() -> &'static ReferenceData {
    static DATA: std::sync::OnceLock<ReferenceData> = std::sync::OnceLock::new();
    DATA.get_or_init(|| {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        ReferenceData {
            keys: (0..1 << 14).map(|_| next()).collect(),
            lists: (0..1 << 12)
                .map(|_| (0..4).map(|_| next() % 64).collect())
                .collect(),
            table: (0..1 << 15).map(|_| next()).collect(),
        }
    })
}

/// Host wall and thread CPU seconds of one run of the reference kernel:
/// a fixed mix of sorting, scans of short heap-allocated lists, random
/// updates of a 256 KiB table and floating-point arithmetic, the kinds of
/// work the simulator does. Neither its code nor its data change with
/// the program, so a time divided by it is measured against the host's
/// speed at that moment. Its CPU time is the calling thread's alone, so
/// other threads of the program cannot inflate it.
pub fn reference_seconds() -> (f64, f64) {
    let data = reference_data();
    let cpu0 = thread_cpu();
    let t0 = HostStamp::now_host();
    let mut keys = data.keys.clone();
    keys.sort_unstable();
    let mut acc = keys.iter().step_by(64).fold(0u64, |a, &k| a ^ k);
    for b in 0..32 {
        for list in &data.lists {
            if list.contains(&b) {
                acc = acc.wrapping_add(list.first().copied().unwrap_or(0));
            }
        }
    }
    let mut table = data.table.clone();
    let len = table.len() as u64;
    let mut x = acc | 1;
    for _ in 0..1 << 18 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if let Some(slot) = usize::try_from(x % len).ok().and_then(|i| table.get_mut(i)) {
            *slot = slot.wrapping_add(x);
        }
    }
    let mut f = [1.0f64, 1.1, 1.2, 1.3];
    for _ in 0..1 << 18 {
        for v in &mut f {
            *v = *v * 0.999_999 + 1e-7;
        }
    }
    std::hint::black_box((acc, &table, f));
    let wall = t0.secs_since();
    (wall, (thread_cpu() - cpu0).as_secs_f64())
}
