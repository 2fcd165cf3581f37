//! Process-level probes: a counting allocator, thread CPU time, resident
//! memory, and the order statistics every metric is reported with.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator plus allocation and byte counters (the pattern of
/// `tests/zero_alloc_stream.rs`). Growth through `realloc` counts as one
/// allocation of the new size; frees are not counted.
pub struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are plain
// statistics and publish no other data.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Heap allocations and bytes requested so far in this process.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeapCount {
    pub count: u64,
    pub bytes: u64,
}

impl HeapCount {
    pub fn now() -> HeapCount {
        HeapCount {
            count: ALLOCATIONS.load(Ordering::Relaxed),
            bytes: ALLOCATED_BYTES.load(Ordering::Relaxed),
        }
    }

    pub fn since(self, earlier: HeapCount) -> HeapCount {
        HeapCount {
            count: self.count - earlier.count,
            bytes: self.bytes - earlier.bytes,
        }
    }

    pub fn add(&mut self, other: HeapCount) {
        self.count += other.count;
        self.bytes += other.bytes;
    }
}

// `Timespec` below is the 64-bit Linux layout of `struct timespec`, and
// the memory figures come from `/proc`.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("frame-verdict measures through 64-bit Linux interfaces");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time the calling thread has run, in seconds, at nanosecond
/// resolution. Scoring is pinned to one thread, so the calling thread's
/// time is the work's.
pub fn thread_cpu_secs() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the whole call, and the kernel writes
    // nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A `/proc/self/status` memory field (`VmHWM`, `VmRSS`) in MB (10^6
/// bytes).
pub fn status_mb(field: &str) -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = text
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("/proc/self/status has no {field} line"));
    kb * 1024.0 / 1e6
}

/// Nearest-rank quantile of `values` (`q` in [0, 1]); NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}
