//! CPU clocks, CPU binding and the yardstick that scales CPU times
//! (64-bit Linux: the calls below are declared for its C library).
//!
//! The benchmark runs on virtual machines whose host takes the CPU away
//! now and then ("steal" in `/proc/stat`) and shares its cores and caches
//! with other guests, so the speed a run sees drifts by a third over
//! minutes. Three measures take that out of the reported latencies:
//!
//! * The whole process runs on one CPU ([`pin_to_current_cpu`]), the
//!   yardstick included, so both see the same CPU's speed. One closed-loop
//!   session needs no more than one: client and server take turns.
//! * Operations are timed on the process CPU clock
//!   (`CLOCK_PROCESS_CPUTIME_ID`): the time every thread of the process
//!   ran — the client session and the server threads that answer it,
//!   which live in this process. A kernel with paravirtual steal
//!   accounting leaves stolen time out of it, and time spent waiting for
//!   a CPU is not counted either.
//! * A [`Yardstick`] times a fixed piece of work of the benchmark's own
//!   (hashing, sorting and formatting, none of it the program's code)
//!   over and over through the run. Operation times are scaled by
//!   [`NOMINAL_YARDSTICK`] over the run's median yardstick time, which
//!   cancels a machine that runs everything slower for a while.

use std::collections::HashMap;
use std::fmt::Write;
use std::hint::black_box;
use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(clock: i32) -> Duration {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time used by all threads of the process so far.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// The yardstick's CPU time on the reference container when its host
/// was quiet; scaled times read as if every run had that speed.
pub const NOMINAL_YARDSTICK: Duration = Duration::from_micros(3500);

/// Yardstick samples of one run.
#[derive(Default)]
pub struct Yardstick {
    ns: Vec<f64>,
}

impl Yardstick {
    /// Runs the yardstick once and records the calling thread's CPU
    /// time for it.
    pub fn sample(&mut self) {
        let started = thread_cpu();
        work();
        self.ns.push((thread_cpu() - started).as_nanos() as f64);
    }

    /// The median yardstick time, in microseconds.
    pub fn median_us(&self) -> f64 {
        crate::report::median(&self.ns) / 1e3
    }

    /// The factor that scales this run's CPU times to the nominal speed.
    pub fn scale(&self) -> f64 {
        NOMINAL_YARDSTICK.as_secs_f64() * 1e6 / self.median_us()
    }
}

/// About 3.5 ms of hashing, sorting and formatting on the reference
/// container, the same on every call.
fn work() {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut keys: Vec<u64> = (0..1 << 15).map(|_| next()).collect();
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(keys.len());
    for (i, &k) in keys.iter().enumerate() {
        map.insert(k, i as u64);
    }
    let mut hits = 0u64;
    for _ in 0..keys.len() {
        hits += map.get(&(next() | 1)).copied().unwrap_or(0) & 1;
    }
    keys.sort_unstable();
    let mut text = String::new();
    for k in keys.iter().step_by(8) {
        let _ = write!(text, "({k}, {hits})");
    }
    black_box((&keys, &map, &text));
}

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Binds the calling thread, and every thread it starts afterwards, to
/// the CPU it runs on. Returns that CPU.
pub fn pin_to_current_cpu() -> Result<usize, String> {
    // SAFETY: no arguments; returns a CPU number or -1.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| "sched_getcpu failed".to_string())?;
    let mut mask = [0u64; 16];
    if cpu >= mask.len() * 64 {
        return Err(format!("CPU {cpu} is beyond the affinity mask"));
    }
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable cpu_set_t of the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!("sched_setaffinity to CPU {cpu} failed"));
    }
    Ok(cpu)
}
