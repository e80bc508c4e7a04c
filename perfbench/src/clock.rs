//! The benchmark's clock: on-CPU time of the calling thread.
//!
//! The library and the benchmark run on one thread, so the thread's CPU
//! clock (`CLOCK_THREAD_CPUTIME_ID`, user plus system time, nanosecond
//! resolution) counts the work of the measured calls and leaves out the
//! time other processes hold the core. Wall time on a shared 2-core
//! machine varied by a fifth between runs of the same code; CPU time of
//! the same phase repeats far closer.

use std::os::raw::{c_int, c_long};

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

/// A reading of the calling thread's CPU clock.
#[derive(Debug, Clone, Copy)]
pub struct CpuInstant {
    ns: u64,
}

impl CpuInstant {
    pub fn now() -> Self {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable timespec; the clock id is a
        // Linux constant, so the call cannot fail.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
        CpuInstant {
            ns: ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64,
        }
    }

    /// CPU nanoseconds from `earlier` to this reading.
    pub fn ns_since(self, earlier: CpuInstant) -> u64 {
        self.ns - earlier.ns
    }

    /// CPU seconds since this reading.
    pub fn elapsed_s(self) -> f64 {
        CpuInstant::now().ns_since(self) as f64 / 1e9
    }
}
