//! The machine-speed reference behind the gated throughput.
//!
//! On a shared host, the speed one CPU gives a process drifts by tens of
//! percent within a second and stays off for minutes, so wall-clock
//! throughput measured in two runs of the same code can differ by more
//! than any useful regression bound. What drifts is the CPU, and it slows
//! every piece of code on it at the same moments. A repetition therefore
//! pins itself, and every thread and process it starts, to one CPU
//! ([`pin_to_current_cpu`]), and runs a [`Pacer`] thread beside its work:
//! every few milliseconds the pacer wakes, preempts the work, and runs one
//! unit of a fixed reference kernel, timing it on its own thread CPU
//! clock. The work and the reference share the CPU at the same moments,
//! so the work's CPU time divided by the mean reference unit's keeps what
//! the code changed and cancels most of what the host did.
//!
//! The kernel is the standard library only, so no change to the
//! repository can speed it up or slow it down. It mixes heap allocation
//! churn with formatting and parsing: of the kernels tried on a 2-vCPU
//! shared Xeon host (message cloning, pointer chasing, a branchy
//! interpreter, `BTreeMap` and `HashSet` churn, dynamic dispatch, large
//! random-access buffers), these two tracked the simulator's slowdowns
//! most closely.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Reference units per reference second: `items_per_ref_s` counts work per
/// CPU time of this many units, measured beside the work.
pub const UNITS_PER_REF_S: f64 = 1000.0;

/// Allocations per unit: boxes of 16 to 215 bytes, 64 kept alive.
const UNIT_ALLOCS: usize = 12_000;

/// Format-and-parse round trips per unit.
const UNIT_ROUND_TRIPS: usize = 600;

/// The pacer sleeps between units for a pseudo-random time in
/// `[PACE_MIN_US, PACE_MIN_US + PACE_SPAN_US)`, so its samples cannot
/// alias with any periodic pattern in the work or on the host.
const PACE_MIN_US: u64 = 2_000;
const PACE_SPAN_US: u64 = 4_000;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark pins CPUs and reads CPU clocks through 64-bit Linux system calls");

mod sys {
    use std::os::raw::{c_int, c_long};

    pub const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    pub const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
    pub const RUSAGE_CHILDREN: c_int = -1;

    #[repr(C)]
    #[derive(Default)]
    pub struct Timespec {
        pub sec: i64,
        pub nsec: c_long,
    }

    #[repr(C)]
    #[derive(Default)]
    pub struct Timeval {
        pub sec: i64,
        pub usec: c_long,
    }

    /// `struct rusage`: the user and system times, then fourteen counters.
    #[repr(C)]
    #[derive(Default)]
    pub struct Rusage {
        pub utime: Timeval,
        pub stime: Timeval,
        pub rest: [c_long; 14],
    }

    extern "C" {
        pub fn clock_gettime(clock: c_int, out: *mut Timespec) -> c_int;
        pub fn getrusage(who: c_int, out: *mut Rusage) -> c_int;
        pub fn sched_getcpu() -> c_int;
        pub fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
    }
}

fn clock_s(clock: std::os::raw::c_int) -> f64 {
    let mut ts = sys::Timespec::default();
    // SAFETY: `ts` is a live, writable `struct timespec`, and both clock
    // ids passed here exist on every Linux kernel.
    let rc = unsafe { sys::clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// CPU time of the calling thread, in seconds.
pub fn thread_cpu_s() -> f64 {
    clock_s(sys::CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time of this process and of every child it has waited for, in
/// seconds: user plus system time, every thread included.
pub fn process_cpu_s() -> f64 {
    let mut children = sys::Rusage::default();
    // SAFETY: `children` is a live, writable `struct rusage`.
    let rc = unsafe { sys::getrusage(sys::RUSAGE_CHILDREN, &mut children) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_CHILDREN) failed");
    let tv = |t: &sys::Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    clock_s(sys::CLOCK_PROCESS_CPUTIME_ID) + tv(&children.utime) + tv(&children.stime)
}

/// Pins the calling thread to the CPU it is running on. Threads and
/// processes it starts afterwards inherit the pin.
///
/// # Errors
///
/// The system calls' failures.
pub fn pin_to_current_cpu() -> Result<usize, String> {
    // SAFETY: no arguments; returns -1 on failure.
    let cpu = unsafe { sys::sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| "sched_getcpu failed".to_string())?;
    let mut mask = [0u64; 16];
    *mask
        .get_mut(cpu / 64)
        .ok_or(format!("CPU {cpu} is beyond the 1024 a mask holds"))? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sys::sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "pinning to CPU {cpu} failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// The reference kernel's state: a deterministic generator, the live
/// allocations and a text buffer, kept across units.
pub struct Kernel {
    rng: u64,
    live: Vec<Box<[u8]>>,
    text: String,
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel {
            rng: 0x9e37_79b9_7f4a_7c15,
            live: Vec::new(),
            text: String::new(),
        }
    }
}

impl Kernel {
    fn next(&mut self) -> u64 {
        // xorshift64
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    /// One unit of reference work; returns a checksum so that the work
    /// cannot be optimised away.
    pub fn unit(&mut self) -> u64 {
        let mut sum = 0u64;
        for i in 0..UNIT_ALLOCS {
            let len = 16 + (self.next() % 200) as usize;
            self.live.push(vec![i as u8; len].into_boxed_slice());
            if self.live.len() > 64 {
                let victim = (self.next() % 64) as usize;
                sum = sum.wrapping_add(self.live.swap_remove(victim).len() as u64);
            }
        }
        for _ in 0..UNIT_ROUND_TRIPS {
            let a = self.next();
            self.text.clear();
            let _ = write!(
                self.text,
                "{a} {:.3} {:x} {:?}",
                (a % 1000) as f64 / 7.0,
                a >> 7,
                char::from(b'a' + (a % 26) as u8)
            );
            let mut parts = self.text.split(' ');
            let mut field = || parts.next().unwrap_or("0");
            sum = sum
                .wrapping_add(field().parse::<u64>().unwrap_or(0))
                .wrapping_add(field().parse::<f64>().unwrap_or(0.0) as u64)
                .wrapping_add(u64::from_str_radix(field(), 16).unwrap_or(0));
        }
        sum
    }
}

/// What a pacer measured.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Paced {
    /// Reference units run.
    pub units: u64,
    /// Their total thread CPU time.
    pub unit_cpu_s: f64,
    /// The pacer thread's whole CPU time, sleeping and waking included: the
    /// share of the process's CPU time that was not the work's.
    pub thread_cpu_s: f64,
}

impl Paced {
    /// The mean CPU time of one reference unit; `None` if none ran.
    pub fn unit_s(&self) -> Option<f64> {
        (self.units > 0).then(|| self.unit_cpu_s / self.units as f64)
    }
}

/// The pacer thread: runs reference units between pseudo-random sleeps on
/// the CPU its creator is pinned to, until stopped.
pub struct Pacer {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Paced>,
}

impl Pacer {
    /// Starts the pacer on the calling thread's CPU pin.
    pub fn start() -> Pacer {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::spawn(move || {
            let started = thread_cpu_s();
            let mut kernel = Kernel::default();
            let mut paced = Paced {
                units: 0,
                unit_cpu_s: 0.0,
                thread_cpu_s: 0.0,
            };
            while !flag.load(Ordering::Acquire) {
                let pause = PACE_MIN_US + kernel.next() % PACE_SPAN_US;
                std::thread::sleep(Duration::from_micros(pause));
                let t = thread_cpu_s();
                std::hint::black_box(kernel.unit());
                paced.unit_cpu_s += thread_cpu_s() - t;
                paced.units += 1;
            }
            paced.thread_cpu_s = thread_cpu_s() - started;
            paced
        });
        Pacer { stop, handle }
    }

    /// Stops the pacer and returns what it measured.
    ///
    /// # Panics
    ///
    /// If the pacer thread panicked, which only a bug in the kernel can
    /// cause.
    pub fn stop(self) -> Paced {
        self.stop.store(true, Ordering::Release);
        self.handle.join().expect("the pacer thread panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic() {
        let (mut a, mut b) = (Kernel::default(), Kernel::default());
        let first: Vec<u64> = (0..3).map(|_| a.unit()).collect();
        let second: Vec<u64> = (0..3).map(|_| b.unit()).collect();
        assert_eq!(first, second);
        assert!(first.windows(2).all(|w| w[0] != w[1]));
    }

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (thread, process) = (thread_cpu_s(), process_cpu_s());
        let mut kernel = Kernel::default();
        for _ in 0..20 {
            std::hint::black_box(kernel.unit());
        }
        let spent = thread_cpu_s() - thread;
        assert!(spent > 0.0);
        assert!(process_cpu_s() - process >= spent * 0.99);
    }

    #[test]
    fn the_pacer_reports_units_and_their_time() {
        let pacer = Pacer::start();
        std::thread::sleep(Duration::from_millis(100));
        let paced = pacer.stop();
        assert!(paced.units >= 5, "{paced:?}");
        assert!(paced.unit_cpu_s > 0.0 && paced.thread_cpu_s >= paced.unit_cpu_s);
        assert!(paced.unit_s().is_some());
        let idle = Paced {
            units: 0,
            unit_cpu_s: 0.0,
            thread_cpu_s: 0.0,
        };
        assert_eq!(idle.unit_s(), None);
    }
}
