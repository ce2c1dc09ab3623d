//! The few operating-system facilities the benchmark needs that the
//! standard library does not offer: a futex for the parking start gate,
//! peak resident memory, returning freed heap to the kernel, and the host
//! facts printed with every result.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

extern "C" {
    fn syscall(number: i64, ...) -> i64;
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    #[cfg(target_env = "gnu")]
    fn malloc_trim(pad: usize) -> i32;
}

#[cfg(target_arch = "x86_64")]
const SYS_FUTEX: i64 = 202;
#[cfg(target_arch = "aarch64")]
const SYS_FUTEX: i64 = 98;
// Shared (not process-private) operations: the gate words live in a
// MAP_SHARED arena that forked workers wait on too.
const FUTEX_WAIT: i32 = 0;
const FUTEX_WAKE: i32 = 1;

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs of
/// which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct RUsage {
    times: [i64; 4],
    maxrss: i64,
    rest: [i64; 13],
}

#[repr(C)]
struct Timespec {
    seconds: i64,
    nanos: i64,
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Blocks while `word` still reads `expected` (or returns at once if it
/// does not). Spurious wake-ups are possible: callers re-check in a loop.
fn futex_wait(word: &AtomicU32, expected: u32) {
    // SAFETY: `word` is a live, aligned 32-bit atomic for the duration of
    // the call; a null timeout waits indefinitely, and the kernel only
    // compares and sleeps on the address.
    unsafe {
        syscall(
            SYS_FUTEX,
            word.as_ptr(),
            FUTEX_WAIT,
            expected,
            std::ptr::null::<u8>(),
            std::ptr::null::<u8>(),
            0u32,
        );
    }
}

/// Wakes every thread or process blocked in [`futex_wait`] on `word`.
fn futex_wake_all(word: &AtomicU32) {
    // SAFETY: as `futex_wait`; FUTEX_WAKE only reads the address.
    unsafe {
        syscall(
            SYS_FUTEX,
            word.as_ptr(),
            FUTEX_WAKE,
            i32::MAX,
            std::ptr::null::<u8>(),
            std::ptr::null::<u8>(),
            0u32,
        );
    }
}

/// Parks until `ready(word)` holds. Never busy-spins: each miss sleeps in
/// the kernel until the word changes.
pub fn park_until(word: &AtomicU32, ready: impl Fn(u32) -> bool) {
    loop {
        let seen = word.load(Ordering::SeqCst);
        if ready(seen) {
            return;
        }
        futex_wait(word, seen);
    }
}

/// Adds `n` to `word` and wakes everyone parked on it.
pub fn bump_and_wake(word: &AtomicU32, n: u32) {
    word.fetch_add(n, Ordering::SeqCst);
    futex_wake_all(word);
}

/// Nanoseconds since a process-wide epoch. The epoch is pinned in `main`
/// before any fork, so forked workers' stamps compare with the coordinator's.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// CPU time of the calling thread in nanoseconds. It advances only while
/// the thread runs, so time the host steals from its vCPU is left out.
pub fn thread_cpu_ns() -> u64 {
    let mut time = Timespec {
        seconds: 0,
        nanos: 0,
    };
    // SAFETY: `time` is a live `struct timespec`; the clock id is valid on
    // Linux.
    let status = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut time) };
    assert_eq!(status, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    time.seconds as u64 * 1_000_000_000 + time.nanos as u64
}

/// Peak resident memory of the calling process, in KiB.
pub fn peak_rss_kib() -> u64 {
    let mut usage = RUsage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live `struct rusage`-sized buffer; RUSAGE_SELF
    // is 0.
    let status = unsafe { getrusage(0, &mut usage) };
    assert_eq!(status, 0, "getrusage(RUSAGE_SELF) failed");
    usage.maxrss as u64
}

/// Current resident memory of the calling process, in bytes.
pub fn rss_bytes() -> u64 {
    let statm = std::fs::read_to_string("/proc/self/statm").unwrap_or_default();
    let pages: u64 = statm
        .split_whitespace()
        .nth(1)
        .and_then(|field| field.parse().ok())
        .unwrap_or(0);
    pages * 4096
}

/// Returns freed heap pages to the kernel, so that a fresh object pays its
/// page first-touch as it would in a fresh process.
pub fn trim_heap() {
    #[cfg(target_env = "gnu")]
    // SAFETY: malloc_trim has no preconditions.
    unsafe {
        malloc_trim(0);
    }
}

/// The measured cost of one clock read, in nanoseconds (median of 9
/// batches of 100k reads).
pub fn clock_read_ns() -> f64 {
    let mut batches: Vec<f64> = (0..9)
        .map(|_| {
            let reads = 100_000;
            let start = Instant::now();
            let mut last = 0;
            for _ in 0..reads {
                last = std::hint::black_box(now_ns());
            }
            std::hint::black_box(last);
            start.elapsed().as_nanos() as f64 / reads as f64
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[batches.len() / 2]
}

/// Steal and total ticks of all CPUs so far (`/proc/stat`); zeros where
/// the file is missing.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|field| field.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Facts about the machine that every result is labelled with.
#[derive(Debug)]
pub struct Host {
    pub nproc: usize,
    pub cpu: String,
    pub kernel: String,
    pub clocksource: String,
}

impl Host {
    pub fn probe() -> Host {
        let read = |path: &str| {
            std::fs::read_to_string(path)
                .map(|text| text.trim().to_string())
                .unwrap_or_else(|_| "unknown".to_string())
        };
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|line| line.starts_with("model name"))
                    .and_then(|line| line.split(':').nth(1))
                    .map(|model| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            kernel: read("/proc/sys/kernel/osrelease"),
            clocksource: read("/sys/devices/system/clocksource/clocksource0/current_clocksource"),
        }
    }
}
